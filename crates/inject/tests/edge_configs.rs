//! Edge values of the campaign configuration surface return a value or
//! an error, never a panic or an abort: no trials, watchdog budgets of
//! 0, 1 and `u64::MAX`, the largest seed, and zero and `usize::MAX`
//! worker threads, on every dialect, pruned and unpruned.
//!
//! A `u64::MAX` watchdog is the sharp one. A hang in a loop that writes
//! the output port repeats its period about 2^64 ÷ period times, and a
//! harness that stored every replayed write ran out of memory.

use flexasm::Target;
use flexcheck::vuln::VulnReport;
use flexicore::io::{OutputPort, RecordingOutput, ScriptedInput};
use flexicore::sim::{ArchFault, FaultPlane};
use flexinject::campaign::{run_campaign, run_campaign_pruned, CampaignConfig, CampaignResult};
use flexinject::{target_from_name, Outcome};
use flexkernels::harness::{PreparedKernel, RunError, VerdictOutput, CYCLE_BUDGET};
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;

/// `run_campaign` seeds its input sampler with the campaign seed XOR
/// this salt. Its first draw feeds the clean reference run, and each
/// trial then takes the next.
const SAMPLER_SALT: u64 = 0x001A_7E57;

/// Every (target, supported kernel) cell.
fn cells() -> impl Iterator<Item = (Target, Kernel)> {
    ["fc4", "fc8", "xacc", "xls"].into_iter().flat_map(|name| {
        let target = target_from_name(name).expect("built-in dialect");
        Kernel::ALL
            .into_iter()
            .filter(move |k| k.supports(target.dialect))
            .map(move |k| (target, k))
    })
}

fn vuln(config: &CampaignConfig) -> VulnReport {
    let prepared = PreparedKernel::new(config.kernel, config.target).expect("kernel assembles");
    flexcheck::vuln::analyze(&config.target, prepared.program())
}

/// Run `config` unpruned and pruned; a sound report never moves an
/// outcome, so both must agree.
fn both(config: CampaignConfig) -> Result<CampaignResult, RunError> {
    let pruned = run_campaign_pruned(config, Some(&vuln(&config)));
    let plain = run_campaign(config);
    match (&plain, &pruned) {
        (Ok(a), Ok(b)) => assert_eq!(a.trials, b.trials, "{config:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{config:?}"),
        _ => panic!("pruning changed success: {config:?}"),
    }
    plain
}

/// Whether the trial with `fault` and `inputs` hangs in a loop that
/// writes the port: the harness port skipped the fast-forward's replay
/// of writes a recording port stored.
fn hang_loop_writes(prepared: &PreparedKernel, inputs: &[u8], fault: ArchFault) -> bool {
    fn run<O: OutputPort>(
        prepared: &PreparedKernel,
        inputs: &[u8],
        fault: ArchFault,
        output: &mut O,
    ) {
        let _ = prepared.core().run_with(
            &mut ScriptedInput::new(inputs.to_vec()),
            output,
            CYCLE_BUDGET,
            &mut FaultPlane::with_faults(vec![fault]),
        );
    }
    let mut recording = RecordingOutput::new();
    let mut verdict = VerdictOutput::new();
    run(prepared, inputs, fault, &mut recording);
    run(prepared, inputs, fault, &mut verdict);
    verdict.skipped_replay() && recording.len() > verdict.values().len()
}

#[test]
fn empty_campaigns_run_on_every_dialect() {
    for (target, kernel) in cells() {
        let result = both(CampaignConfig::new(target, kernel, 0, u64::MAX)).unwrap();
        assert!(result.trials.is_empty());
        assert_eq!(result.executed, 0);
    }
}

#[test]
fn budgets_too_small_for_the_clean_run_are_errors() {
    for (target, kernel) in cells() {
        for budget in [0, 1] {
            let config = CampaignConfig {
                budget,
                ..CampaignConfig::new(target, kernel, 4, 3)
            };
            assert!(
                matches!(both(config), Err(RunError::DidNotHalt)),
                "{config:?}"
            );
        }
    }
}

#[test]
fn unbounded_watchdog_runs_writing_hangs_to_the_end() {
    let mut hangs = 0;
    let mut writing = 0;
    for (target, kernel) in cells() {
        let seed = 11;
        let config = CampaignConfig {
            budget: u64::MAX,
            ..CampaignConfig::new(target, kernel, 32, seed)
        };
        let result = both(config).unwrap();
        let prepared = PreparedKernel::new(kernel, target).unwrap();
        let mut sampler = Sampler::new(kernel, seed ^ SAMPLER_SALT);
        sampler.draw();
        for trial in &result.trials {
            let inputs = sampler.draw();
            if trial.outcome == Outcome::Hang {
                hangs += 1;
                writing += usize::from(hang_loop_writes(&prepared, &inputs, trial.fault));
            }
        }
    }
    assert!(hangs > 0, "the grid must hang");
    assert!(writing > 0, "some hung loop must write the port");
}

#[test]
fn edge_seed_and_thread_counts_agree_with_serial() {
    for (target, kernel) in cells() {
        let serial = both(CampaignConfig::new(target, kernel, 6, u64::MAX)).unwrap();
        for threads in [0, usize::MAX] {
            let config = CampaignConfig {
                threads,
                ..CampaignConfig::new(target, kernel, 6, u64::MAX)
            };
            assert_eq!(both(config).unwrap().trials, serial.trials, "{config:?}");
        }
    }
}
