//! Partial-yield salvage analysis: which dies that fail the §4.1 binary
//! screen would still run real programs.
//!
//! The paper's Table 5 yield is binary — a die passes only if every test
//! vector matches. But a die whose defects are architecturally masked by
//! a given workload is still *useful* for that workload. This module
//! replays each failing die's defect draw as architectural stuck-at
//! faults (via [`crate::sites::die_faults`]) and screens the die against
//! the seven benchmark kernels: a die is **salvaged** when every kernel
//! stays oracle-exact under its fault set.
//!
//! Dies that miss timing are never salvageable — a slow path fails at
//! speed regardless of which program runs — so only defect-limited
//! failures are screened.

use crate::sites;
use flexasm::Target;
use flexfab::tester::DieOutcome;
use flexfab::variation::DieVariation;
use flexfab::wafer_run::{CoreDesign, WaferRun};
use flexicore::sim::{FaultPlane, NoFaults};
use flexkernels::harness::{PreparedKernel, RunError, Verdict, CYCLE_BUDGET};
use flexkernels::{inputs::Sampler, Kernel};

/// The assembly target whose simulator models a fabricated design.
#[must_use]
pub fn target_for(design: CoreDesign) -> Target {
    match design {
        CoreDesign::FlexiCore4 => Target::fc4(),
        CoreDesign::FlexiCore8 => Target::fc8(),
        CoreDesign::FlexiCore4Plus => Target::xacc_revised(),
    }
}

/// How one die left the combined screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DieClass {
    /// Passed the binary vector screen (counts toward Table 5 yield).
    Functional,
    /// Failed the screen, but every kernel ran oracle-exact under the
    /// die's defect faults.
    Salvaged,
    /// Failed with timing errors; no workload can mask a slow path.
    TimingFailure,
    /// Defect-limited failure that corrupted at least one kernel.
    Unsalvageable,
}

/// Parameters of the salvage screen.
#[derive(Debug, Clone, Copy)]
pub struct SalvageConfig {
    /// Input cases per kernel in the screen.
    pub cases_per_kernel: usize,
    /// Watchdog budget per run.
    pub budget: u64,
    /// Seed for the screen's input sampling.
    pub seed: u64,
    /// Worker threads classifying dies (`1` = serial). Every die's
    /// classification is a pure function of its outcome and variation,
    /// so the thread count never changes the analysis.
    pub threads: usize,
}

impl Default for SalvageConfig {
    fn default() -> Self {
        SalvageConfig {
            cases_per_kernel: 2,
            budget: CYCLE_BUDGET,
            seed: 0xD1E5,
            threads: 1,
        }
    }
}

/// The wafer-level result: Table 5's binary yield next to the partial
/// ("salvageable dies") yield.
#[derive(Debug, Clone)]
pub struct SalvageAnalysis {
    /// Per-die classification, in wafer site order.
    pub classes: Vec<DieClass>,
    /// Inclusion-zone flags, same order (the paper's headline numbers
    /// exclude the wafer edge).
    pub in_inclusion: Vec<bool>,
    /// The screened design.
    pub design: CoreDesign,
}

impl SalvageAnalysis {
    /// Count dies of `class` (inclusion zone only when `inclusion`).
    #[must_use]
    pub fn count(&self, class: DieClass, inclusion: bool) -> usize {
        self.classes
            .iter()
            .zip(&self.in_inclusion)
            .filter(|&(c, &inc)| *c == class && (!inclusion || inc))
            .count()
    }

    fn population(&self, inclusion: bool) -> usize {
        if inclusion {
            self.in_inclusion.iter().filter(|&&i| i).count()
        } else {
            self.classes.len()
        }
    }

    /// Table 5's binary yield: fraction of dies passing the vector
    /// screen.
    #[must_use]
    pub fn binary_yield(&self, inclusion: bool) -> f64 {
        self.count(DieClass::Functional, inclusion) as f64 / self.population(inclusion) as f64
    }

    /// Partial yield: functional **plus** salvaged dies.
    #[must_use]
    pub fn partial_yield(&self, inclusion: bool) -> f64 {
        (self.count(DieClass::Functional, inclusion) + self.count(DieClass::Salvaged, inclusion))
            as f64
            / self.population(inclusion) as f64
    }
}

/// Screen one die's defect draw against every kernel: `true` when all
/// runs are oracle-exact ([`Verdict::Verified`]). `reports`, one
/// [`VulnReport`] per `prepared` entry in the same order, prunes the
/// screen; `None` simulates every kernel.
///
/// Pruning is deliberately all-or-nothing per kernel: a kernel's batch
/// is skipped only when **every** fault of the die plane lands on an
/// element that kernel provably never reads — a set of faults confined
/// to dead state is jointly invisible, so the skipped run is Masked by
/// construction. A *mixed* plane always simulates in full: a live fault
/// can steer execution into code the static analysis proved
/// unreachable, where a "dead" element suddenly gets read, so dropping
/// individual masked faults from a live plane would be unsound.
///
/// [`VulnReport`]: flexcheck::vuln::VulnReport
#[must_use]
pub fn die_is_salvageable_pruned(
    prepared: &[PreparedKernel],
    reports: Option<&[flexcheck::vuln::VulnReport]>,
    variation: &DieVariation,
    config: &SalvageConfig,
) -> bool {
    let Some(first) = prepared.first() else {
        return false;
    };
    if let Some(reports) = reports {
        debug_assert_eq!(reports.len(), prepared.len());
    }
    let faults = sites::die_faults(
        first.target().dialect,
        variation.defect_seed,
        variation.defect_count,
    );
    let mut plane = FaultPlane::with_faults(faults.clone());
    for (idx, kernel) in prepared.iter().enumerate() {
        if let Some(report) = reports.and_then(|r| r.get(idx)) {
            if faults.iter().all(|f| report.is_masked_fault(f)) {
                continue;
            }
        }
        // Each case runs under the die's fault plane freshly re-armed;
        // the first case that is not masked condemns the die.
        let mut sampler = Sampler::new(kernel.kernel(), config.seed);
        let fails = (0..config.cases_per_kernel).any(|_| {
            plane.reset();
            let verdict = kernel.verdict(&sampler.draw(), config.budget, &mut plane);
            !matches!(verdict, Verdict::Verified(_))
        });
        if fails {
            return false;
        }
    }
    true
}

/// A reusable salvage screen: kernels assembled and baseline-verified
/// once, then applied to any number of wafer runs.
///
/// [`analyze`] is the one-shot form; long-lived callers (the toolchain
/// daemon's yield queries, lot-scale sweeps) construct the screen once
/// and amortize the kernel preparation and the fault-free baseline
/// across every query.
#[derive(Debug)]
pub struct SalvageScreen {
    design: CoreDesign,
    config: SalvageConfig,
    prepared: Vec<PreparedKernel>,
    vuln: Vec<flexcheck::vuln::VulnReport>,
}

impl SalvageScreen {
    /// Prepare the screen: assemble every kernel the design supports and
    /// verify the fault-free baseline.
    ///
    /// # Errors
    ///
    /// [`RunError`] if a kernel fails to assemble for the design's
    /// target or fails its fault-free reference run — the screen is
    /// meaningless without a clean baseline.
    pub fn new(design: CoreDesign, config: SalvageConfig) -> Result<SalvageScreen, RunError> {
        let target = target_for(design);
        let prepared: Vec<PreparedKernel> = Kernel::ALL
            .iter()
            .filter(|k| k.supports(target.dialect))
            .map(|&k| PreparedKernel::new(k, target))
            .collect::<Result<_, _>>()?;
        // Fault-free baseline: every kernel must verify clean before any
        // die is blamed on its defects.
        for kernel in &prepared {
            let inputs = Sampler::new(kernel.kernel(), config.seed).draw();
            kernel.run_with(&inputs, config.budget, &mut NoFaults)?;
        }
        // Static vulnerability reports, one per kernel: amortized here so
        // pruned analyses pay for the dataflow pass once per screen, not
        // once per die.
        let vuln = prepared
            .iter()
            .map(|kernel| flexcheck::vuln::analyze(&target, kernel.program()))
            .collect();
        Ok(SalvageScreen {
            design,
            config,
            prepared,
            vuln,
        })
    }

    /// Classify every die of a tested wafer. Infallible: the fallible
    /// preparation already happened in [`SalvageScreen::new`].
    #[must_use]
    pub fn analyze(&self, run: &WaferRun) -> SalvageAnalysis {
        self.analyze_with_pruning(run, false)
    }

    /// Classify every die, skipping kernel batches whose whole fault
    /// plane is provably masked by the screen's static vulnerability
    /// reports. Bit-for-bit identical to [`SalvageScreen::analyze`] —
    /// pruning only removes simulations whose outcome is already known.
    #[must_use]
    pub fn analyze_pruned(&self, run: &WaferRun) -> SalvageAnalysis {
        self.analyze_with_pruning(run, true)
    }

    fn analyze_with_pruning(&self, run: &WaferRun, prune: bool) -> SalvageAnalysis {
        // One work unit per die: classification is a pure function of
        // the die's outcome and variation, so dies screen in parallel
        // and merge back in wafer-site order bit-for-bit identical to a
        // serial pass.
        let reports = prune.then_some(self.vuln.as_slice());
        let classes = flexshard::map_indexed(run.outcomes.len(), self.config.threads, |i| {
            classify_die(
                &run.outcomes[i],
                &run.variations[i],
                &self.prepared,
                reports,
                &self.config,
            )
        });
        SalvageAnalysis {
            classes,
            in_inclusion: run.sites.iter().map(|s| s.in_inclusion_zone()).collect(),
            design: self.design,
        }
    }
}

/// Classify every die of a tested wafer (one-shot form of
/// [`SalvageScreen`]).
///
/// # Errors
///
/// [`RunError`] if a kernel fails to assemble for the design's target or
/// fails its fault-free reference run — the screen is meaningless
/// without a clean baseline.
pub fn analyze(
    run: &WaferRun,
    design: CoreDesign,
    config: &SalvageConfig,
) -> Result<SalvageAnalysis, RunError> {
    Ok(SalvageScreen::new(design, *config)?.analyze(run))
}

fn classify_die(
    outcome: &DieOutcome,
    variation: &DieVariation,
    prepared: &[PreparedKernel],
    reports: Option<&[flexcheck::vuln::VulnReport]>,
    config: &SalvageConfig,
) -> DieClass {
    if outcome.functional() {
        DieClass::Functional
    } else if outcome.timing_errors > 0 {
        DieClass::TimingFailure
    } else if die_is_salvageable_pruned(prepared, reports, variation, config) {
        DieClass::Salvaged
    } else {
        DieClass::Unsalvageable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfab::wafer_run::WaferExperiment;

    fn quick_config() -> SalvageConfig {
        SalvageConfig {
            cases_per_kernel: 1,
            budget: 30_000,
            seed: 5,
            threads: 1,
        }
    }

    #[test]
    fn zero_defect_die_is_salvageable() {
        let target = Target::fc4();
        let prepared: Vec<PreparedKernel> = Kernel::ALL
            .iter()
            .map(|&k| PreparedKernel::new(k, target).unwrap())
            .collect();
        let clean = DieVariation {
            defect_count: 0,
            defect_seed: 1,
            delay_factor: 1.0,
            current_factor: 1.0,
            defect_leak_ma: 0.0,
        };
        assert!(die_is_salvageable_pruned(
            &prepared,
            None,
            &clean,
            &quick_config()
        ));
    }

    #[test]
    fn heavily_defective_die_is_not_salvageable() {
        let target = Target::fc4();
        let prepared: Vec<PreparedKernel> = Kernel::ALL
            .iter()
            .map(|&k| PreparedKernel::new(k, target).unwrap())
            .collect();
        let wrecked = DieVariation {
            defect_count: 40,
            defect_seed: 9,
            delay_factor: 1.0,
            current_factor: 1.0,
            defect_leak_ma: 0.0,
        };
        assert!(!die_is_salvageable_pruned(
            &prepared,
            None,
            &wrecked,
            &quick_config()
        ));
    }

    #[test]
    fn partial_yield_dominates_binary_yield() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
        let run = exp.run(4.5, 300).unwrap();
        let analysis = analyze(&run, CoreDesign::FlexiCore4, &quick_config()).unwrap();
        for inclusion in [false, true] {
            let binary = analysis.binary_yield(inclusion);
            let partial = analysis.partial_yield(inclusion);
            assert!(partial >= binary, "salvage can only add dies");
            assert!(partial <= 1.0);
        }
        // reproducibility: classification is a pure function of its inputs
        let again = analyze(&run, CoreDesign::FlexiCore4, &quick_config()).unwrap();
        assert_eq!(analysis.classes, again.classes);
    }

    #[test]
    fn threaded_salvage_is_bit_identical_to_serial() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
        let run = exp.run(4.5, 300).unwrap();
        let serial = analyze(&run, CoreDesign::FlexiCore4, &quick_config()).unwrap();
        let threaded = analyze(
            &run,
            CoreDesign::FlexiCore4,
            &SalvageConfig {
                threads: 8,
                ..quick_config()
            },
        )
        .unwrap();
        assert_eq!(serial.classes, threaded.classes);
        assert_eq!(serial.in_inclusion, threaded.in_inclusion);
    }

    #[test]
    fn timing_failures_are_never_screened() {
        let outcome = DieOutcome {
            defect_errors: 3,
            timing_errors: 2,
        };
        let variation = DieVariation {
            defect_count: 0,
            defect_seed: 0,
            delay_factor: 2.0,
            current_factor: 1.0,
            defect_leak_ma: 0.0,
        };
        assert_eq!(
            classify_die(&outcome, &variation, &[], None, &quick_config()),
            DieClass::TimingFailure
        );
    }
}
