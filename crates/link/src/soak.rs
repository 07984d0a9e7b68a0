//! Seeded soak campaigns: every kernel through the noisy link, across
//! an error-rate sweep.
//!
//! One trial programs a kernel image through a
//! [`NoisyChannel`](crate::channel::NoisyChannel) at a
//! given bit-error rate, lands a seeded schedule of store upsets while
//! it executes, and oracle-checks the committed outputs into
//! `flexresilient`'s three [`ResilientOutcome`]s:
//!
//! * **Masked** — oracle-exact with no rollback and no page repair
//!   (transfer retries and scrub corrections are the link working
//!   transparently);
//! * **Recovered** — oracle-exact, but execution needed a rollback or a
//!   page reprogram to get there;
//! * **Unrecoverable** — the image never verified, execution gave up,
//!   hung, or committed wrong outputs.
//!
//! Every draw — inputs, upset schedule, channel noise — comes from the
//! campaign seed, so the same [`SoakConfig`] replays its trials,
//! frame classifications, scrub counts and retry traces bit-for-bit.

use crate::channel::ChannelConfig;
use crate::ecc;
use crate::exec::{LinkExecConfig, LinkRun, LinkedExecutor, StoreUpset};
use crate::protocol::LinkConfig;
use flexasm::Target;
use flexicore::sim::FaultPlane;
use flexkernels::harness::PreparedKernel;
use flexkernels::{inputs::Sampler, oracle, Kernel, RunError};
use flexresilient::ResilientOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one soak campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// The assembly target (dialect + features).
    pub target: Target,
    /// Kernels to soak (defaults to every kernel the dialect supports).
    pub kernels: Vec<Kernel>,
    /// The channel bit-error-rate sweep axis.
    pub error_rates: Vec<f64>,
    /// Store upsets injected per trial while the kernel executes.
    pub upsets_per_trial: usize,
    /// Campaign seed: drives inputs, upset schedules and channel noise.
    pub seed: u64,
    /// Execution policy of the linked executor.
    pub exec: LinkExecConfig,
    /// Retry policy of the transfer protocol.
    pub link: LinkConfig,
    /// Worker threads executing (kernel, rate) cells (`1` = run inline,
    /// serially). Never changes the report — each cell's stream derives
    /// from its own `(kernel, rate)` coordinates.
    pub threads: usize,
}

impl SoakConfig {
    /// A campaign over every kernel `target` supports, with default
    /// executor and protocol policies, run serially.
    #[must_use]
    pub fn new(target: Target, error_rates: Vec<f64>, seed: u64) -> Self {
        SoakConfig {
            kernels: Kernel::ALL
                .into_iter()
                .filter(|k| k.supports(target.dialect))
                .collect(),
            target,
            error_rates,
            upsets_per_trial: 2,
            seed,
            exec: LinkExecConfig::default(),
            link: LinkConfig::default(),
            threads: 1,
        }
    }
}

/// One (kernel, error-rate) soak trial.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakTrial {
    /// The kernel soaked.
    pub kernel: Kernel,
    /// The channel bit-error rate.
    pub bit_error_rate: f64,
    /// The classification.
    pub outcome: ResilientOutcome,
    /// The full linked run (transfer, scrub, retry telemetry).
    pub run: LinkRun,
}

/// A completed soak campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakCampaign {
    /// The configuration that produced it.
    pub config: SoakConfig,
    /// One trial per (kernel, error rate), kernels outer, rates inner.
    pub trials: Vec<SoakTrial>,
}

impl SoakCampaign {
    /// Trials with `outcome`.
    #[must_use]
    pub fn count(&self, outcome: ResilientOutcome) -> usize {
        self.trials.iter().filter(|t| t.outcome == outcome).count()
    }

    /// Fraction of trials that ended oracle-exact.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 1.0;
        }
        1.0 - self.count(ResilientOutcome::Unrecoverable) as f64 / self.trials.len() as f64
    }
}

/// Classify one linked run against the oracle.
#[must_use]
pub fn classify(run: &LinkRun, expected: &[u8]) -> ResilientOutcome {
    if !run.programmed || run.gave_up || !run.halted || run.outputs != expected {
        return ResilientOutcome::Unrecoverable;
    }
    if run.rollbacks == 0 && run.image_rollbacks == 0 && run.reprogrammed_pages == 0 {
        ResilientOutcome::Masked
    } else {
        ResilientOutcome::Recovered
    }
}

/// Run the campaign: every configured kernel at every error rate, one
/// deterministic trial each.
///
/// # Errors
///
/// [`RunError::Asm`] if a configured kernel does not assemble for the
/// target.
pub fn run_soak(config: SoakConfig) -> Result<SoakCampaign, RunError> {
    // Assemble each kernel once, serially, so errors surface before any
    // trial runs; the executors are then shared read-only by the pool.
    let executors: Vec<(Kernel, LinkedExecutor)> = config
        .kernels
        .iter()
        .map(|&kernel| {
            let prepared = PreparedKernel::new(kernel, config.target)?;
            Ok((
                kernel,
                LinkedExecutor::new(
                    config.target,
                    prepared.program().clone(),
                    config.link,
                    config.exec,
                ),
            ))
        })
        .collect::<Result<_, RunError>>()?;

    // Every (kernel, rate) cell derives a private RNG stream from its
    // own coordinates, so cells are independent work units: threaded
    // execution merges back in sweep order (kernels outer, rates inner)
    // bit-for-bit identical to a serial pass.
    let mut cells = Vec::with_capacity(executors.len() * config.error_rates.len());
    for k in 0..executors.len() {
        for r in 0..config.error_rates.len() {
            cells.push((k, r));
        }
    }
    let trials = flexshard::map_indexed(cells.len(), config.threads, |i| {
        let (k, r) = cells[i];
        run_cell(&config, &executors[k].1, executors[k].0, k, r)
    });
    Ok(SoakCampaign { config, trials })
}

/// Run one (kernel, error-rate) cell of the sweep.
fn run_cell(
    config: &SoakConfig,
    executor: &LinkedExecutor,
    kernel: Kernel,
    k: usize,
    r: usize,
) -> SoakTrial {
    let ber = config.error_rates[r];
    // one private, reproducible stream per (kernel, rate) cell
    let trial_seed = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((k as u64) << 32 | r as u64);
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let inputs = Sampler::new(kernel, trial_seed ^ 0xA5A5).draw();
    let upsets: Vec<StoreUpset> = (0..config.upsets_per_trial)
        .map(|_| StoreUpset {
            // early segments so short kernels still see them
            segment: rng.gen_range(1..4usize),
            word: rng.gen_range(0..executor.golden().len()),
            bit: rng.gen_range(0..ecc::CODE_BITS as u8),
        })
        .collect();
    let run = executor.run(
        &inputs,
        ChannelConfig::with_bit_error_rate(ber),
        trial_seed ^ 0x5A5A,
        &upsets,
        FaultPlane::new(),
    );
    let expected = oracle::expected_outputs(kernel, config.target.dialect, &inputs);
    SoakTrial {
        kernel,
        bit_error_rate: ber,
        outcome: classify(&run, &expected),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_is_fully_masked() {
        let campaign = run_soak(SoakConfig {
            kernels: vec![Kernel::ParityCheck],
            upsets_per_trial: 0,
            ..SoakConfig::new(Target::fc4(), vec![0.0], 3)
        })
        .unwrap();
        assert_eq!(campaign.trials.len(), 1);
        assert_eq!(campaign.count(ResilientOutcome::Masked), 1);
        assert!((campaign.survival_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn campaigns_replay_bit_for_bit() {
        let cfg = SoakConfig {
            kernels: vec![Kernel::ParityCheck, Kernel::XorShift8],
            ..SoakConfig::new(Target::fc4(), vec![0.0, 2e-4], 11)
        };
        let a = run_soak(cfg.clone()).unwrap();
        let b = run_soak(cfg).unwrap();
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn thread_counts_never_change_the_report() {
        // ragged cell counts: 1, 5 and 9 (kernel, rate) cells
        let kernels = [Kernel::ParityCheck, Kernel::XorShift8, Kernel::IntAvg];
        for (k, rates) in [
            (1, vec![0.0]),
            (1, vec![0.0, 1e-4, 2e-4, 3e-4, 4e-4]),
            (3, vec![0.0, 1e-4, 2e-4]),
        ] {
            let base = SoakConfig {
                kernels: kernels[..k].to_vec(),
                ..SoakConfig::new(Target::fc4(), rates, 29)
            };
            let serial = run_soak(base.clone()).unwrap();
            for threads in [1, 3, 8] {
                let parallel = run_soak(SoakConfig {
                    threads,
                    ..base.clone()
                })
                .unwrap();
                assert_eq!(
                    serial.trials,
                    parallel.trials,
                    "{} cells / {threads} threads",
                    serial.trials.len()
                );
            }
        }
    }
}
