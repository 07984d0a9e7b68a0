//! Plain-text rendering of soak campaigns for the `flexi link` and
//! `flexi attack` CLIs.

use crate::attack::{AttackCampaign, AttackOutcome};
use crate::soak::SoakCampaign;
use flexresilient::ResilientOutcome;

/// Render a campaign as an aligned text table: one row per trial, then
/// the outcome tally and link-layer totals.
#[must_use]
pub fn render(campaign: &SoakCampaign) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "link soak: {:?} · {} kernels × {} error rates · seed {}\n\n",
        campaign.config.target.dialect,
        campaign.config.kernels.len(),
        campaign.config.error_rates.len(),
        campaign.config.seed,
    ));
    out.push_str(&format!(
        "{:<14} {:>9} {:>6} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7}  {}\n",
        "kernel",
        "ber",
        "frames",
        "retried",
        "failed",
        "scrubs",
        "corrected",
        "repairs",
        "rollbk",
        "outcome"
    ));
    for t in &campaign.trials {
        out.push_str(&format!(
            "{:<14} {:>9.1e} {:>6} {:>8} {:>7} {:>7} {:>9} {:>7} {:>7}  {}\n",
            t.kernel.name(),
            t.bit_error_rate,
            t.run.transfer.frames.len(),
            t.run.transfer.retried(),
            t.run.transfer.failed(),
            t.run.scrub.sweeps,
            t.run.scrub.corrected + t.run.read_corrections,
            t.run.reprogrammed_pages,
            t.run.rollbacks,
            t.outcome,
        ));
    }
    out.push('\n');
    for outcome in [
        ResilientOutcome::Masked,
        ResilientOutcome::Recovered,
        ResilientOutcome::Unrecoverable,
    ] {
        out.push_str(&format!(
            "{:<14} {:>5}\n",
            outcome.to_string(),
            campaign.count(outcome)
        ));
    }
    out.push_str(&format!(
        "survival       {:>5.3}\n",
        campaign.survival_rate()
    ));
    out
}

/// Render an attacker soak campaign: one row per attack behaviour with
/// its outcome tally, then the security verdict.
#[must_use]
pub fn render_attack(campaign: &AttackCampaign) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "attack soak: {} dialects × {} error rates × {} reps · {} trials · seed {}\n\n",
        campaign.config.targets.len(),
        campaign.config.error_rates.len(),
        campaign.config.reps,
        campaign.trials.len(),
        campaign.config.seed,
    ));
    out.push_str(&format!(
        "{:<16} {:>7} {:>8} {:>9} {:>10} {:>9} {:>8}\n",
        "attack", "trials", "applied", "rejected", "recovered", "forgeries", "bricked"
    ));
    for &attack in &campaign.config.mix.attacks {
        let rows: Vec<_> = campaign
            .trials
            .iter()
            .filter(|t| t.attack == attack)
            .collect();
        let tally = |outcome: AttackOutcome| rows.iter().filter(|t| t.outcome == outcome).count();
        out.push_str(&format!(
            "{:<16} {:>7} {:>8} {:>9} {:>10} {:>9} {:>8}\n",
            attack.name(),
            rows.len(),
            tally(AttackOutcome::Applied),
            tally(AttackOutcome::Rejected),
            tally(AttackOutcome::Recovered),
            tally(AttackOutcome::AcceptedForgery),
            tally(AttackOutcome::Bricked),
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "accepted forgeries {:>5}\nbricked dies       {:>5}\nverdict            {}\n",
        campaign.accepted_forgeries(),
        campaign.bricked_dies(),
        if campaign.defended() {
            "defended"
        } else {
            "BREACHED"
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{run_attack_soak, AttackSoakConfig};
    use crate::soak::{run_soak, SoakConfig};
    use flexasm::Target;
    use flexkernels::Kernel;

    #[test]
    fn render_lists_every_trial_and_the_tally() {
        let campaign = run_soak(SoakConfig {
            kernels: vec![Kernel::ParityCheck],
            upsets_per_trial: 0,
            ..SoakConfig::new(Target::fc4(), vec![0.0, 1e-4], 5)
        })
        .unwrap();
        let text = render(&campaign);
        assert_eq!(text.matches("Parity Check").count(), 2);
        assert!(text.contains("masked"));
        assert!(text.contains("survival"));
    }

    #[test]
    fn render_attack_tallies_each_behaviour() {
        let campaign = run_attack_soak(AttackSoakConfig {
            targets: vec![Target::fc4()],
            reps: 1,
            ..AttackSoakConfig::new(vec![0.0], 1, 9)
        })
        .unwrap();
        let text = render_attack(&campaign);
        assert!(text.contains("forge-payload"));
        assert!(text.contains("replay"));
        assert!(text.contains("verdict            defended"), "{text}");
    }
}
