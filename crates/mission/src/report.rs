//! Campaign tallies and the adaptive-vs-static lifetime comparison.

use std::cmp::Ordering;

use crate::campaign::{MissionCampaign, MissionOutcome};

/// Aggregated counters over a whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissionTally {
    /// Trials run.
    pub trials: u64,
    /// Trials still serving at the final tick.
    pub completed: u64,
    /// Trials that ran out of dies.
    pub end_of_life: u64,
    /// Trials whose store ended unbootable.
    pub bricked: u64,
    /// Useful-work credits earned (see `campaign` module docs).
    pub useful_work: u64,
    /// Correct ticks that outvoted a dissenting lane.
    pub masked: u64,
    /// Ticks saved by a closed-loop reaction.
    pub recovered: u64,
    /// Ticks whose work was lost.
    pub unrecoverable: u64,
    /// Authenticated re-flashes applied.
    pub reflashes: u64,
    /// Self-test re-screens executed.
    pub rescreens: u64,
    /// Migrations onto spares.
    pub migrations: u64,
    /// NMR-ladder promotions.
    pub promotions: u64,
    /// NMR-ladder demotions.
    pub demotions: u64,
    /// Forged updates accepted (must be zero).
    pub forged_accepted: u64,
    /// Store words healed by scrubbing.
    pub scrub_corrected: u64,
}

impl MissionTally {
    /// Fold a campaign's trials into one tally.
    #[must_use]
    pub fn of(campaign: &MissionCampaign) -> MissionTally {
        let mut tally = MissionTally {
            trials: campaign.trials.len() as u64,
            ..MissionTally::default()
        };
        for trial in &campaign.trials {
            match trial.outcome {
                MissionOutcome::Completed => tally.completed += 1,
                MissionOutcome::EndOfLife => tally.end_of_life += 1,
                MissionOutcome::Bricked => tally.bricked += 1,
            }
            tally.useful_work += trial.useful_work;
            tally.masked += trial.masked;
            tally.recovered += trial.recovered;
            tally.unrecoverable += trial.unrecoverable;
            tally.reflashes += trial.reflashes;
            tally.rescreens += trial.rescreens;
            tally.migrations += trial.migrations;
            tally.promotions += trial.promotions;
            tally.demotions += trial.demotions;
            tally.forged_accepted += trial.forged_accepted;
            tally.scrub_corrected += trial.scrub_corrected;
        }
        tally
    }
}

/// Render one campaign as a text block.
#[must_use]
pub fn render_mission_campaign(campaign: &MissionCampaign) -> String {
    let t = MissionTally::of(campaign);
    let mut out = String::new();
    out.push_str(&format!(
        "mission campaign ({}): {} trials\n",
        if campaign.adaptive {
            "adaptive"
        } else {
            "static TMR"
        },
        t.trials
    ));
    out.push_str(&format!(
        "  outcomes     completed {}  end-of-life {}  bricked {}\n",
        t.completed, t.end_of_life, t.bricked
    ));
    out.push_str(&format!(
        "  work         useful {}  masked {}  recovered {}  unrecoverable {}\n",
        t.useful_work, t.masked, t.recovered, t.unrecoverable
    ));
    out.push_str(&format!(
        "  reactions    reflash {}  rescreen {}  migrate {}  promote {}  demote {}\n",
        t.reflashes, t.rescreens, t.migrations, t.promotions, t.demotions
    ));
    out.push_str(&format!(
        "  store        scrub-corrected {}  forged-accepted {}\n",
        t.scrub_corrected, t.forged_accepted
    ));
    out
}

/// Render the adaptive-vs-static comparison the CLI prints.
#[must_use]
pub fn render_mission_comparison(adaptive: &MissionCampaign, baseline: &MissionCampaign) -> String {
    let a = MissionTally::of(adaptive);
    let s = MissionTally::of(baseline);
    let mut out = String::new();
    out.push_str(&render_mission_campaign(adaptive));
    out.push_str(&render_mission_campaign(baseline));
    out.push_str("comparison (adaptive vs static, same stress histories):\n");
    out.push_str(&format!(
        "  useful work    {} vs {}  ({})\n",
        a.useful_work,
        s.useful_work,
        verdict(a.useful_work.cmp(&s.useful_work))
    ));
    out.push_str(&format!(
        "  lost missions  {} vs {}  ({})\n",
        a.unrecoverable + a.bricked,
        s.unrecoverable + s.bricked,
        verdict((s.unrecoverable + s.bricked).cmp(&(a.unrecoverable + a.bricked)))
    ));
    out.push_str(&format!(
        "  forgeries      {} accepted  ({})\n",
        a.forged_accepted + s.forged_accepted,
        verdict(if a.forged_accepted + s.forged_accepted == 0 {
            Ordering::Greater
        } else {
            Ordering::Less
        })
    ));
    out
}

/// The word for how the adaptive side compares with the static one,
/// `Greater` being better: equal counts are a tie, not a loss.
fn verdict(adaptive: Ordering) -> &'static str {
    match adaptive {
        Ordering::Greater => "adaptive wins",
        Ordering::Equal => "tie",
        Ordering::Less => "ADAPTIVE LOSES",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_mission_campaign, MissionConfig};
    use flexasm::Target;
    use flexkernels::Kernel;

    fn campaign(adaptive: bool) -> MissionCampaign {
        run_mission_campaign(&MissionConfig {
            adaptive,
            ..MissionConfig::new(Target::fc4(), Kernel::ParityCheck, 6, 4, 7)
        })
        .unwrap()
    }

    #[test]
    fn tally_conserves_trials_and_render_mentions_the_numbers() {
        let c = campaign(true);
        let t = MissionTally::of(&c);
        assert_eq!(t.trials, 6);
        assert_eq!(t.completed + t.end_of_life + t.bricked, t.trials);
        let text = render_mission_campaign(&c);
        assert!(text.contains("adaptive"));
        assert!(text.contains(&format!("useful {}", t.useful_work)));
    }

    #[test]
    fn comparison_render_carries_both_sides_and_a_verdict() {
        let text = render_mission_comparison(&campaign(true), &campaign(false));
        assert!(text.contains("static TMR"));
        assert!(text.contains("comparison"));
        assert!(text.contains("useful work"));
        assert!(text.contains("forgeries"));
    }

    #[test]
    fn equal_counts_render_as_a_tie() {
        let idle = |adaptive| {
            run_mission_campaign(&MissionConfig {
                adaptive,
                ..MissionConfig::new(Target::fc4(), Kernel::ParityCheck, 3, 0, 7)
            })
            .unwrap()
        };
        let text = render_mission_comparison(&idle(true), &idle(false));
        assert!(text.contains("useful work    0 vs 0  (tie)"), "{text}");
        assert!(text.contains("lost missions  0 vs 0  (tie)"), "{text}");
        assert!(!text.contains("LOSES"), "{text}");
    }
}
