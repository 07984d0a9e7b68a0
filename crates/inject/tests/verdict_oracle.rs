//! The kernel harness records only what a verdict reads: values without
//! cycle stamps, and none of the writes a hang fast-forward would
//! replay; a campaign records nothing and judges each write as it
//! comes. This oracle holds `PreparedKernel::run_with`, and the
//! outcomes of `run_campaign`, to the plain path they replaced, a full
//! `RecordingOutput` handed to `verify`, over seeded stuck-at, transient
//! and mixed trials on every dialect × supported kernel at the default
//! watchdog. The sample must include hangs whose loop writes the port,
//! so the skipped replay is exercised, and transient trials that hang
//! after their flip fired, so the fault-free drain's later first hang
//! checkpoint is.

use flexicore::io::{OutputPort, RecordingOutput, ScriptedInput};
use flexicore::sim::{FaultHook, FaultKind, FaultPlane};
use flexinject::campaign::{
    classify, draw_fault, run_campaign, CampaignConfig, FaultModel, Outcome, TrialStream,
};
use flexinject::{sites, target_from_name};
use flexkernels::harness::{PreparedKernel, VerdictOutput, CYCLE_BUDGET};
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trials per (dialect, kernel) cell.
const TRIALS: usize = 96;

/// Trials per (dialect, kernel, fault model) campaign.
const CAMPAIGN_TRIALS: usize = 256;

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
            for (salt, model) in [
                (0u64, FaultModel::StuckAt),
                (1 << 32, FaultModel::Transient),
            ] {
                let mut sampler = Sampler::new(kernel, 0x0EAC_1E00 + cell + salt);
                let mut rng = StdRng::seed_from_u64(0x0EAC_1E00 ^ cell ^ salt);
                let clean_cycles = prepared
                    .run_with(&sampler.draw(), CYCLE_BUDGET, &mut flexicore::sim::NoFaults)
                    .expect("kernel runs clean")
                    .result
                    .cycles;
                for trial in 0..TRIALS {
                    let fault = draw_fault(&mut rng, &site_list, model, clean_cycles);
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

/// The campaign judges each trial on the fly, with no recording
/// (`PreparedKernel::verdict`). Every outcome of an unpruned campaign
/// must equal `classify` of `verify` over a full `RecordingOutput` of
/// the same trial, replayed from the campaign's own trial stream, for
/// stuck-at, transient and mixed draws on every dialect × supported
/// kernel. The sample must hold transient trials that hang after their
/// flip fired: the rest of such a run drains on the fault-free code,
/// whose first hang checkpoint comes later than a hooked drain's.
#[test]
fn campaign_verdicts_equal_classified_recordings() {
    let mut late_hangs = 0;
    let mut cell = 0u64;
    for name in ["fc4", "fc8", "xacc", "xls"] {
        let target = target_from_name(name).expect("built-in dialect");
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            cell += 1;
            for model in [
                FaultModel::StuckAt,
                FaultModel::Transient,
                FaultModel::Mixed,
            ] {
                let seed = 0x0EAC_1E00 ^ (cell << 8) ^ model as u64;
                let config = CampaignConfig {
                    model,
                    ..CampaignConfig::new(target, kernel, CAMPAIGN_TRIALS, seed)
                };
                let campaign = run_campaign(config).expect("kernel runs clean");
                assert_eq!(campaign.executed, CAMPAIGN_TRIALS);
                let TrialStream {
                    prepared,
                    site_list,
                    mut sampler,
                    mut rng,
                    clean_cycles,
                } = TrialStream::new(kernel, target, seed, CYCLE_BUDGET)
                    .expect("kernel runs clean");
                for (i, trial) in campaign.trials.iter().enumerate() {
                    let fault = draw_fault(&mut rng, &site_list, model, clean_cycles);
                    let inputs = sampler.draw();
                    assert_eq!(trial.fault, fault, "{name} {kernel} trial {i}");

                    let mut recording = RecordingOutput::new();
                    let mut plane = FaultPlane::with_faults(vec![fault]);
                    let run = prepared.core().run_with(
                        &mut ScriptedInput::new(inputs.clone()),
                        &mut recording,
                        CYCLE_BUDGET,
                        &mut plane,
                    );
                    let plain =
                        classify(run.map_err(Into::into).and_then(|result| {
                            prepared.verify(&inputs, recording.values(), result)
                        }));
                    assert_eq!(trial.outcome, plain, "{name} {kernel} trial {i}: {fault}");
                    let flipped =
                        matches!(fault.kind, FaultKind::FlipAtCycle(_)) && plane.is_steady();
                    late_hangs += usize::from(flipped && plain == Outcome::Hang);
                }
            }
        }
    }
    assert!(
        late_hangs > 0,
        "some transient trial must hang after its flip fired"
    );
}
