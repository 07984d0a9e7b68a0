//! Aggregation and text rendering of recovery campaign results.

use crate::campaign::{RecoveryCampaign, ResilientOutcome};

/// Outcome counts over a set of resilient trials: the one tally of
/// recovery campaigns and link soaks alike. Every rate of an empty
/// tally is 0.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceTally {
    /// Oracle-exact with zero retries.
    pub masked: usize,
    /// Oracle-exact after rollback / reassignment.
    pub recovered: usize,
    /// Wrong output despite the machinery.
    pub unrecoverable: usize,
}

impl ResilienceTally {
    /// Count `outcomes`.
    #[must_use]
    pub fn of(outcomes: impl IntoIterator<Item = ResilientOutcome>) -> ResilienceTally {
        let mut t = ResilienceTally::default();
        for outcome in outcomes {
            match outcome {
                ResilientOutcome::Masked => t.masked += 1,
                ResilientOutcome::Recovered => t.recovered += 1,
                ResilientOutcome::Unrecoverable => t.unrecoverable += 1,
            }
        }
        t
    }

    /// Total trials counted.
    #[must_use]
    pub fn total(&self) -> usize {
        self.masked + self.recovered + self.unrecoverable
    }

    /// The fraction `count` makes up of the counted trials.
    #[must_use]
    pub fn rate(&self, count: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    }

    /// Fraction that survived (masked plus recovered): `(m + r) / n`.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        self.rate(self.masked + self.recovered)
    }

    /// Fraction unrecoverable, taken as `1 − survival_rate()`, the form
    /// the recovery table prints (it can differ from `u / n` in the
    /// last bit, which shows at one decimal).
    #[must_use]
    pub fn unrecoverable_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            1.0 - self.survival_rate()
        }
    }
}

/// Render a recovery campaign as the CLI's table: one row per
/// injection, then the tally.
#[must_use]
pub fn render_recovery_campaign(campaign: &RecoveryCampaign) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let cfg = &campaign.config;
    let _ = writeln!(
        out,
        "# {} on {:?} under {}: {} faults, seed {}, budget {}",
        cfg.kernel, cfg.target.dialect, cfg.mode, cfg.trials, cfg.seed, cfg.budget
    );
    let _ = writeln!(
        out,
        "{:<6} {:<18} {:<5} {:<8} outcome",
        "trial", "fault", "lane", "retries"
    );
    for (i, t) in campaign.trials.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<6} {:<18} {:<5} {:<8} {}",
            i,
            t.fault.to_string(),
            t.lane,
            t.retries,
            t.outcome
        );
    }
    let tally = campaign.tally();
    let _ = writeln!(
        out,
        "\nmasked {:>4} ({:5.1} %)   recovered {:>4} ({:5.1} %)   unrecoverable {:>4} ({:5.1} %)   retries {}",
        tally.masked,
        100.0 * tally.rate(tally.masked),
        tally.recovered,
        100.0 * tally.rate(tally.recovered),
        tally.unrecoverable,
        100.0 * tally.unrecoverable_rate(),
        campaign.trials.iter().map(|t| t.retries).sum::<u32>(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{RecoveryCampaignConfig, ResilientTrial};
    use flexasm::Target;
    use flexicore::sim::{ArchFault, FaultKind, StateElement};
    use flexkernels::Kernel;
    use ResilientOutcome::{Masked, Recovered, Unrecoverable};

    fn trial(outcome: ResilientOutcome, retries: u32) -> ResilientTrial {
        ResilientTrial {
            fault: ArchFault {
                element: StateElement::Acc,
                bit: 0,
                kind: FaultKind::StuckAt1,
            },
            lane: 0,
            retries,
            outcome,
        }
    }

    #[test]
    fn tally_counts_and_rates() {
        let t = ResilienceTally::of([Masked, Recovered, Recovered, Unrecoverable]);
        assert_eq!((t.masked, t.recovered, t.unrecoverable), (1, 2, 1));
        assert_eq!(t.total(), 4);
        assert!((t.survival_rate() - 0.75).abs() < 1e-12);
        assert!((t.unrecoverable_rate() - 0.25).abs() < 1e-12);
        let empty = ResilienceTally::default();
        assert_eq!(empty.survival_rate(), 0.0);
        assert_eq!(empty.unrecoverable_rate(), 0.0);
    }

    #[test]
    fn table_sums_the_retries_of_every_trial() {
        let campaign = RecoveryCampaign {
            config: RecoveryCampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 4, 1),
            trials: vec![
                trial(Masked, 0),
                trial(Recovered, 2),
                trial(Recovered, 1),
                trial(Unrecoverable, 9),
            ],
            clean_cycles: 0,
        };
        let table = render_recovery_campaign(&campaign);
        let last = table.lines().last().unwrap();
        assert!(last.starts_with("masked    1 ( 25.0 %)"), "{last}");
        assert!(last.ends_with("   retries 12"), "{last}");
    }

    #[test]
    fn unrecoverable_share_is_the_complement_of_survival() {
        // 3 of 80: the recovery table has always printed 1 − 77/80
        let t = ResilienceTally::of(std::iter::repeat_n(Masked, 77).chain([Unrecoverable; 3]));
        assert_eq!(format!("{:.1}", 100.0 * t.unrecoverable_rate()), "3.7");
        assert_eq!(format!("{:.1}", 100.0 * t.rate(t.unrecoverable)), "3.8");
    }
}
