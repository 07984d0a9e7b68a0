//! # flexinject
//!
//! Architectural fault-injection campaigns for the FlexiCore functional
//! simulators, and the partial-yield salvage analysis that extends the
//! paper's Table 5.
//!
//! The gate-level wafer model in `flexfab` decides whether a die passes
//! the §4.1 binary go/no-go screen. This crate asks the finer question:
//! *which programs still run on a die that fails?* It enumerates
//! injectable fault sites over each dialect's architectural state
//! ([`sites`]), sweeps deterministic single-fault campaigns over the
//! seven benchmark kernels ([`campaign`]), aggregates
//! masked/SDC/crash/hang tallies and per-element vulnerability
//! ([`report`]), and replays wafer defect draws as architectural fault
//! sets to compute a salvaged-dies yield column ([`salvage`]).
//!
//! ```
//! use flexasm::Target;
//! use flexinject::campaign::{run_campaign, CampaignConfig};
//! use flexinject::report::Tally;
//! use flexkernels::Kernel;
//!
//! let cfg = CampaignConfig {
//!     budget: 20_000,
//!     ..CampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 16, 1)
//! };
//! let result = run_campaign(cfg)?;
//! let tally = Tally::of(&result.trials);
//! assert_eq!(tally.total(), 16);
//! # Ok::<(), flexkernels::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod pool;
pub mod report;
pub mod salvage;
pub mod sites;
pub mod stress;

pub use campaign::{
    run_campaign, run_campaign_pruned, CampaignConfig, CampaignResult, FaultModel, Outcome, Trial,
};
pub use pool::{PoolDie, SalvagePool};
pub use report::Tally;
pub use salvage::{SalvageAnalysis, SalvageConfig, SalvageScreen};
pub use sites::power_cut_plans;
pub use stress::{BrownoutPlan, StressConfig, StressSchedule, TickStress};

use flexasm::Target;
use flexkernels::Kernel;

/// Parse a kernel's CLI spelling.
#[must_use]
pub fn kernel_from_name(name: &str) -> Option<Kernel> {
    match name.to_ascii_lowercase().as_str() {
        "calculator" | "calc" => Some(Kernel::Calculator),
        "fir" | "firfilter" | "fir-filter" => Some(Kernel::FirFilter),
        "tree" | "decisiontree" | "decision-tree" => Some(Kernel::DecisionTree),
        "intavg" | "avg" => Some(Kernel::IntAvg),
        "thresholding" | "threshold" => Some(Kernel::Thresholding),
        "parity" | "paritycheck" | "parity-check" => Some(Kernel::ParityCheck),
        "xorshift" | "xorshift8" => Some(Kernel::XorShift8),
        _ => None,
    }
}

/// Parse a dialect's CLI spelling into a ready-to-run target through
/// [`Target::parse`] (the extended dialects get their revised feature
/// sets).
#[must_use]
pub fn target_from_name(name: &str) -> Option<Target> {
    let dialect = name.to_ascii_lowercase();
    let features = match dialect.as_str() {
        "xacc" | "xls" => "revised",
        _ => "",
    };
    Target::parse(&dialect, features).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            let slug = match k {
                Kernel::Calculator => "calc",
                Kernel::FirFilter => "fir",
                Kernel::DecisionTree => "tree",
                Kernel::IntAvg => "intavg",
                Kernel::Thresholding => "threshold",
                Kernel::ParityCheck => "parity",
                Kernel::XorShift8 => "xorshift",
            };
            assert_eq!(kernel_from_name(slug), Some(k));
        }
        assert_eq!(kernel_from_name("bogus"), None);
    }

    #[test]
    fn target_names_cover_all_dialects() {
        use flexicore::isa::Dialect;
        assert_eq!(target_from_name("fc4").unwrap().dialect, Dialect::Fc4);
        assert_eq!(target_from_name("fc8").unwrap().dialect, Dialect::Fc8);
        assert_eq!(
            target_from_name("xacc").unwrap().dialect,
            Dialect::ExtendedAcc
        );
        assert_eq!(target_from_name("XLS").unwrap().dialect, Dialect::LoadStore);
        assert!(target_from_name("fc16").is_none());
    }
}
