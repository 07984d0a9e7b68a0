//! The kernel harness records only what a verdict reads: values without
//! cycle stamps, and none of the writes a hang fast-forward would
//! replay. This oracle holds `PreparedKernel::run_with` to the plain
//! path it replaced, a full `RecordingOutput` handed to `verify`, over
//! seeded stuck-at trials on every dialect × supported kernel at the
//! default watchdog. The sample must include hangs whose loop writes
//! the port, so the skipped replay is exercised.

use flexicore::io::{OutputPort, RecordingOutput, ScriptedInput};
use flexicore::sim::FaultPlane;
use flexinject::campaign::{draw_fault, FaultModel};
use flexinject::{sites, target_from_name};
use flexkernels::harness::{PreparedKernel, VerdictOutput, CYCLE_BUDGET};
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trials per (dialect, kernel) cell.
const TRIALS: usize = 96;

#[test]
fn harness_verdicts_equal_full_recording_verdicts() {
    let mut hangs = 0;
    let mut writing_hangs = 0;
    let mut cell = 0u64;
    for name in ["fc4", "fc8", "xacc", "xls"] {
        let target = target_from_name(name).expect("built-in dialect");
        let site_list = sites::enumerate(target.dialect);
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            cell += 1;
            let prepared = PreparedKernel::new(kernel, target).expect("kernel assembles");
            let mut sampler = Sampler::new(kernel, 0x0EAC_1E00 + cell);
            let mut rng = StdRng::seed_from_u64(0x0EAC_1E00 ^ cell);
            let clean_cycles = prepared
                .run_with(&sampler.draw(), CYCLE_BUDGET, &mut flexicore::sim::NoFaults)
                .expect("kernel runs clean")
                .result
                .cycles;
            for trial in 0..TRIALS {
                let fault = draw_fault(&mut rng, &site_list, FaultModel::StuckAt, clean_cycles);
                let inputs = sampler.draw();
                let harness = prepared.run_with(
                    &inputs,
                    CYCLE_BUDGET,
                    &mut FaultPlane::with_faults(vec![fault]),
                );

                let mut recording = RecordingOutput::new();
                let plain = drive(&prepared, &inputs, fault, &mut recording)
                    .map_err(Into::into)
                    .and_then(|result| prepared.verify(&inputs, recording.values(), result));
                assert_eq!(harness, plain, "{name} {kernel} trial {trial}: {fault}");

                let mut verdict = VerdictOutput::new();
                let result = drive(&prepared, &inputs, fault, &mut verdict);
                if result.is_ok_and(|r| !r.halted()) {
                    hangs += 1;
                    if verdict.skipped_replay() && recording.len() > verdict.values().len() {
                        writing_hangs += 1;
                    }
                }
            }
        }
    }
    assert!(hangs > 0, "the sample must hang");
    assert!(writing_hangs > 0, "some hung loop must write the port");
}

/// One faulty run of `prepared` into `output` at the default watchdog.
fn drive<O: OutputPort>(
    prepared: &PreparedKernel,
    inputs: &[u8],
    fault: flexicore::sim::ArchFault,
    output: &mut O,
) -> Result<flexicore::sim::RunResult, flexicore::SimError> {
    prepared.core().run_with(
        &mut ScriptedInput::new(inputs.to_vec()),
        output,
        CYCLE_BUDGET,
        &mut FaultPlane::with_faults(vec![fault]),
    )
}
