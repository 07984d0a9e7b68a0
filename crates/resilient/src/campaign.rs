//! Recovery campaigns: measure how much of `flexinject`'s fault
//! population the resilient executor masks or recovers.
//!
//! A campaign mirrors [`flexinject::campaign`] — the same
//! [`TrialStream`] (site enumeration, input sampler, one seeded RNG
//! stream, fault-free reference), the same fault population via
//! [`draw_fault`] — but instead of a bare simulator each trial runs
//! through the resilient executor at one rung of the degradation
//! ladder. The three-way classification refines the injector's:
//!
//! * **Masked** — oracle-exact output with zero retries (TMR voting, or
//!   a fault that never perturbed the run);
//! * **Recovered** — oracle-exact output, but the executor had to roll
//!   back, re-execute or reassign a lane to get there;
//! * **Unrecoverable** — wrong or missing output despite the machinery
//!   (lost quorum, exhausted retry budget, or simplex SDC).
//!
//! Everything derives from the campaign seed, so a campaign — including
//! every retry decision inside every trial — replays bit-for-bit.

use flexasm::Target;
use flexicore::sim::{ArchFault, FaultPlane};
use flexinject::campaign::{FaultModel, TrialStream};
use flexinject::sites::draw_fault;
use flexkernels::harness::{PreparedKernel, RunError, CYCLE_BUDGET};
use flexkernels::{oracle, Kernel};
use rand::Rng;

use crate::recovery::{RecoveryConfig, RecoveryExecutor};
use crate::report::ResilienceTally;
use crate::sched::QuorumMode;
use crate::vote::{NmrConfig, NmrConfigError, NmrExecutor, VoteVerdict};

/// How one resiliently-executed injection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResilientOutcome {
    /// Oracle-exact with zero retries.
    Masked,
    /// Oracle-exact after rollback / re-execution / reassignment.
    Recovered,
    /// Wrong output, lost quorum, or exhausted retry budget.
    Unrecoverable,
}

impl ResilientOutcome {
    /// Fixed-width display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResilientOutcome::Masked => "masked",
            ResilientOutcome::Recovered => "recovered",
            ResilientOutcome::Unrecoverable => "unrecoverable",
        }
    }
}

impl core::fmt::Display for ResilientOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One classified resilient injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientTrial {
    /// The injected fault.
    pub fault: ArchFault,
    /// The lane it was injected into.
    pub lane: usize,
    /// Retry attempts the executor spent on this trial.
    pub retries: u32,
    /// How the trial ended.
    pub outcome: ResilientOutcome,
}

/// Parameters of one recovery campaign.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryCampaignConfig {
    /// Assembly target (fixes the dialect and its site list).
    pub target: Target,
    /// The kernel under test.
    pub kernel: Kernel,
    /// Number of injections.
    pub trials: usize,
    /// Master seed; fault draws, input draws and faulty-lane choices
    /// all derive from it.
    pub seed: u64,
    /// Watchdog budget per lane.
    pub budget: u64,
    /// Fault population.
    pub model: FaultModel,
    /// Which rung of the degradation ladder executes the trials.
    pub mode: QuorumMode,
    /// Output values per voting window (TMR).
    pub window: usize,
    /// Retired instructions per checkpoint segment (DMR / simplex).
    pub interval: u64,
    /// Retry attempts per segment before giving up (DMR / simplex).
    pub max_retries: u32,
    /// Spare (fault-free) dies available for lane reassignment
    /// (DMR / simplex).
    pub spares: usize,
    /// Worker threads executing trials (`1` = run inline, serially).
    /// Never changes the report.
    pub threads: usize,
}

impl RecoveryCampaignConfig {
    /// A TMR stuck-at campaign with default cadence parameters, run
    /// serially (one thread).
    #[must_use]
    pub fn new(target: Target, kernel: Kernel, trials: usize, seed: u64) -> Self {
        RecoveryCampaignConfig {
            target,
            kernel,
            trials,
            seed,
            budget: CYCLE_BUDGET,
            model: FaultModel::StuckAt,
            mode: QuorumMode::Tmr,
            window: 4,
            interval: 64,
            max_retries: 8,
            spares: 2,
            threads: 1,
        }
    }
}

/// Why a recovery campaign could not run.
#[derive(Debug)]
pub enum RecoveryCampaignError {
    /// The TMR rung's voting configuration is unusable (a zero
    /// `window`).
    Vote(NmrConfigError),
    /// The kernel did not assemble, or its fault-free reference run
    /// failed.
    Run(RunError),
}

impl core::fmt::Display for RecoveryCampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryCampaignError::Vote(e) => e.fmt(f),
            RecoveryCampaignError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RecoveryCampaignError {}

impl From<NmrConfigError> for RecoveryCampaignError {
    fn from(e: NmrConfigError) -> Self {
        RecoveryCampaignError::Vote(e)
    }
}

impl From<RunError> for RecoveryCampaignError {
    fn from(e: RunError) -> Self {
        RecoveryCampaignError::Run(e)
    }
}

/// The classified trials of one recovery campaign.
#[derive(Debug, Clone)]
pub struct RecoveryCampaign {
    /// The configuration that produced it.
    pub config: RecoveryCampaignConfig,
    /// One entry per injection, in draw order.
    pub trials: Vec<ResilientTrial>,
    /// Cycle count of the fault-free reference run (bounds the
    /// transient flip window).
    pub clean_cycles: u64,
}

impl RecoveryCampaign {
    /// The outcome tally of every trial.
    #[must_use]
    pub fn tally(&self) -> ResilienceTally {
        ResilienceTally::of(self.trials.iter().map(|t| t.outcome))
    }
}

/// Run one recovery campaign: `config.trials` single-fault injections,
/// each executed through the configured rung of the degradation ladder
/// with a freshly sampled input case.
///
/// # Errors
///
/// * [`RecoveryCampaignError::Vote`] if a TMR campaign's `window` is
///   zero, before anything runs;
/// * [`RecoveryCampaignError::Run`] wrapping [`RunError::Asm`] if the
///   kernel does not assemble for the target, or any error from the
///   fault-free reference run — a kernel that fails *clean* makes every
///   classification meaningless.
pub fn run_recovery_campaign(
    config: RecoveryCampaignConfig,
) -> Result<RecoveryCampaign, RecoveryCampaignError> {
    let lanes = config.mode.lanes();
    let vote = NmrConfig {
        lanes,
        window: config.window,
        budget: config.budget,
    };
    if config.mode == QuorumMode::Tmr {
        vote.validate()?;
    }
    let TrialStream {
        prepared,
        site_list,
        mut sampler,
        mut rng,
        clean_cycles,
    } = TrialStream::new(config.kernel, config.target, config.seed, config.budget)?;

    // Serial pre-draw: faults, lane choices, inputs and oracle outputs
    // all come off the single seeded stream in trial order, exactly as
    // the old serial loop interleaved them. The executors themselves use
    // no RNG, so each pre-drawn trial is a pure function of its plan and
    // the threaded execution below merges back bit-for-bit identical to
    // a serial pass, whatever the thread count.
    let plans: Vec<(ArchFault, usize, Vec<u8>, Vec<u8>)> = (0..config.trials)
        .map(|_| {
            let fault = draw_fault(&mut rng, &site_list, config.model, clean_cycles);
            let lane = if lanes > 1 {
                rng.gen_range(0..lanes)
            } else {
                0
            };
            let inputs = sampler.draw();
            let expected = oracle::expected_outputs(config.kernel, config.target.dialect, &inputs);
            (fault, lane, inputs, expected)
        })
        .collect();

    let trials = flexshard::map_indexed(plans.len(), config.threads, |i| {
        let (fault, lane, inputs, expected) = &plans[i];
        run_trial(&prepared, &config, vote, *fault, *lane, inputs, expected)
    });
    Ok(RecoveryCampaign {
        config,
        trials,
        clean_cycles,
    })
}

/// Execute one pre-drawn trial through the configured rung of the
/// degradation ladder and classify it. RNG-free by construction.
fn run_trial(
    prepared: &PreparedKernel,
    config: &RecoveryCampaignConfig,
    vote: NmrConfig,
    fault: ArchFault,
    lane: usize,
    inputs: &[u8],
    expected: &[u8],
) -> ResilientTrial {
    let mut planes = vec![FaultPlane::new(); vote.lanes];
    planes[lane] = FaultPlane::one(fault);
    let spares = vec![FaultPlane::new(); config.spares];

    let (outputs, completed, retries) = match config.mode {
        QuorumMode::Tmr => {
            let executor = NmrExecutor::new(prepared.core(), vote)
                .expect("run_recovery_campaign validated the TMR vote");
            let run = executor.run(inputs, planes);
            (run.outputs, run.verdict != VoteVerdict::QuorumLost, 0)
        }
        QuorumMode::DmrReexec => {
            let executor = recovery_executor(prepared, config);
            let [a, b] = <[FaultPlane; 2]>::try_from(planes).expect("two DMR planes");
            let run = executor.run_dmr(inputs, [a, b], spares);
            (run.outputs, run.halted && !run.gave_up, run.retries)
        }
        QuorumMode::Simplex => {
            let executor = recovery_executor(prepared, config);
            let plane = planes.pop().expect("one simplex plane");
            let run = executor.run_simplex(inputs, plane, spares);
            (run.outputs, run.halted && !run.gave_up, run.retries)
        }
    };
    let outcome = if completed && outputs == expected {
        if retries == 0 {
            ResilientOutcome::Masked
        } else {
            ResilientOutcome::Recovered
        }
    } else {
        ResilientOutcome::Unrecoverable
    };
    ResilientTrial {
        fault,
        lane,
        retries,
        outcome,
    }
}

fn recovery_executor(
    prepared: &PreparedKernel,
    config: &RecoveryCampaignConfig,
) -> RecoveryExecutor {
    RecoveryExecutor::new(
        prepared.core(),
        RecoveryConfig {
            interval: config.interval,
            max_retries: config.max_retries,
            budget: config.budget,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mode: QuorumMode, model: FaultModel, seed: u64) -> RecoveryCampaignConfig {
        RecoveryCampaignConfig {
            budget: 20_000,
            model,
            mode,
            ..RecoveryCampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 12, seed)
        }
    }

    #[test]
    fn tmr_campaign_masks_stuck_at_faults() {
        let campaign =
            run_recovery_campaign(quick(QuorumMode::Tmr, FaultModel::StuckAt, 3)).unwrap();
        assert_eq!(campaign.trials.len(), 12);
        assert!(
            campaign
                .trials
                .iter()
                .all(|t| t.outcome == ResilientOutcome::Masked),
            "{:?}",
            campaign.trials
        );
        assert!((campaign.tally().survival_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn dmr_campaign_recovers_transients() {
        let campaign =
            run_recovery_campaign(quick(QuorumMode::DmrReexec, FaultModel::Transient, 5)).unwrap();
        assert!(
            campaign.tally().survival_rate() >= 0.9,
            "{:?}",
            campaign.trials
        );
    }

    #[test]
    fn simplex_campaign_leaves_sdc_on_the_table() {
        let campaign =
            run_recovery_campaign(quick(QuorumMode::Simplex, FaultModel::StuckAt, 7)).unwrap();
        // a lone lane cannot vote away permanent faults; some trials
        // must fail, or the classification is broken
        assert!(campaign.tally().unrecoverable > 0);
    }

    #[test]
    fn zero_window_tmr_campaign_is_an_error_not_a_panic() {
        let config = RecoveryCampaignConfig {
            window: 0,
            ..quick(QuorumMode::Tmr, FaultModel::StuckAt, 3)
        };
        assert!(matches!(
            run_recovery_campaign(config),
            Err(RecoveryCampaignError::Vote(NmrConfigError::EmptyWindow))
        ));
    }

    #[test]
    fn campaigns_replay_bit_for_bit() {
        for mode in [QuorumMode::Tmr, QuorumMode::DmrReexec, QuorumMode::Simplex] {
            let a = run_recovery_campaign(quick(mode, FaultModel::Mixed, 11)).unwrap();
            let b = run_recovery_campaign(quick(mode, FaultModel::Mixed, 11)).unwrap();
            assert_eq!(a.trials, b.trials, "{mode}");
            assert_eq!(a.clean_cycles, b.clean_cycles);
        }
    }

    #[test]
    fn thread_counts_never_change_the_report() {
        for mode in [QuorumMode::Tmr, QuorumMode::DmrReexec, QuorumMode::Simplex] {
            // ragged trial counts: fewer trials than threads, and counts
            // no thread count divides
            for trials in [1, 7, 13] {
                let base = RecoveryCampaignConfig {
                    trials,
                    ..quick(mode, FaultModel::Mixed, 17)
                };
                let serial = run_recovery_campaign(base).unwrap();
                for threads in [1, 3, 8] {
                    let parallel =
                        run_recovery_campaign(RecoveryCampaignConfig { threads, ..base }).unwrap();
                    assert_eq!(
                        serial.trials, parallel.trials,
                        "{mode}: {trials} trials / {threads} threads"
                    );
                }
            }
        }
    }
}
