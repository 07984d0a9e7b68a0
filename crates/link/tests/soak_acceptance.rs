//! End-to-end acceptance for the field-reprogramming link.
//!
//! The ISSUE's bar: every kernel, programmed over a channel with a
//! nonzero error rate and upset while executing, must still produce
//! oracle-exact outputs — and the whole campaign must replay
//! bit-for-bit from its seed, frame classifications, scrub counts and
//! retry traces included.

use flexasm::Target;
use flexkernels::Kernel;
use flexlink::soak::{run_soak, SoakConfig};
use flexresilient::ResilientOutcome;

/// All seven kernels survive a noisy programming link plus in-service
/// store upsets with zero unrecoverable trials.
#[test]
fn every_kernel_survives_the_noisy_link() {
    let campaign = run_soak(SoakConfig::new(Target::fc4(), vec![2e-4], 0xF1E7)).unwrap();
    assert_eq!(campaign.trials.len(), Kernel::ALL.len());
    for trial in &campaign.trials {
        assert_ne!(
            trial.outcome,
            ResilientOutcome::Unrecoverable,
            "{:?} at BER {}: {:?}",
            trial.kernel,
            trial.bit_error_rate,
            trial.run.transfer,
        );
        assert!(trial.run.programmed && trial.run.halted);
    }
    assert!((campaign.tally().survival_rate() - 1.0).abs() < f64::EPSILON);
}

/// A multi-rate campaign replays bit-for-bit: same trials, same frame
/// classes, same scrub totals, same retry traces, same end digests.
#[test]
fn campaigns_replay_bit_for_bit_across_rates() {
    let cfg = SoakConfig::new(Target::fc4(), vec![0.0, 1e-4, 5e-4], 42);
    let a = run_soak(cfg.clone()).unwrap();
    let b = run_soak(cfg).unwrap();
    assert_eq!(a.trials.len(), b.trials.len());
    for (x, y) in a.trials.iter().zip(&b.trials) {
        assert_eq!(x, y, "trial diverged on replay: {:?}", x.kernel);
    }
}

/// At a zero error rate with no upsets, the link is invisible: every
/// trial is masked with no retries, repairs or rollbacks.
#[test]
fn clean_link_is_fully_masked_for_every_kernel() {
    let campaign = run_soak(SoakConfig {
        upsets_per_trial: 0,
        ..SoakConfig::new(Target::fc4(), vec![0.0], 7)
    })
    .unwrap();
    for trial in &campaign.trials {
        assert_eq!(
            trial.outcome,
            ResilientOutcome::Masked,
            "{:?}",
            trial.kernel
        );
        assert_eq!(trial.run.transfer.retried(), 0);
        assert_eq!(trial.run.rollbacks, 0);
        assert_eq!(trial.run.reprogrammed_pages, 0);
    }
}

/// The soak survives across dialects too: the widest (xls) and the
/// narrowest (fc8, parity only) both come through a noisy link exact.
#[test]
fn other_dialects_survive_the_noisy_link() {
    for target in [Target::fc8(), Target::xls_revised()] {
        let campaign = run_soak(SoakConfig::new(target, vec![2e-4], 99)).unwrap();
        assert!(!campaign.trials.is_empty());
        assert_eq!(
            campaign.tally().unrecoverable,
            0,
            "{:?}: {:#?}",
            target.dialect,
            campaign
                .trials
                .iter()
                .map(|t| (t.kernel, t.outcome))
                .collect::<Vec<_>>(),
        );
    }
}
