//! End-to-end acceptance for authenticated, power-loss-safe field
//! reprogramming.
//!
//! The ISSUE's bar: a seeded attacker + power-cut soak of at least
//! 1000 trials across all four dialects reports **zero** accepted
//! forged/replayed/downgraded images and **zero** bricked dies — every
//! torn update boots the prior authenticated image — and the whole
//! campaign replays bit-for-bit. Legitimate updates must still succeed
//! at the link soak's bit-error operating points.

use flexasm::Target;
use flexicore::sim::FaultPlane;
use flexkernels::harness::PreparedKernel;
use flexkernels::{oracle, Kernel};
use flexlink::attack::DEVICE_KEY;
use flexlink::exec::{LinkEvent, LinkExecConfig};
use flexlink::{
    run_attack_soak, sign_update, Attack, AttackOutcome, AttackSoakConfig, ChannelConfig, Device,
    EccStore, LinkConfig, LinkedExecutor, StoreUpset, UpdateStatus,
};

/// SECDED double-error detection, scrub, and image rollback compose
/// end-to-end: a device provisions a signed image, the in-service
/// store takes an uncorrectable double-bit hit, the channel is dead so
/// page repair fails, and the executor falls back to the authenticated
/// prior image — finishing oracle-exact.
#[test]
fn double_error_detect_scrub_and_rollback_end_to_end() {
    let target = Target::fc4();
    let prepared = PreparedKernel::new(Kernel::ParityCheck, target).unwrap();
    let image = prepared.program().as_bytes().to_vec();
    let inputs = vec![0x3, 0x5];
    let expected = oracle::expected_outputs(Kernel::ParityCheck, target.dialect, &inputs);

    // the device path: provision the signed image, boot it
    let mut device = Device::new(target, image.len(), DEVICE_KEY);
    device
        .provision(&sign_update(target.dialect, &image, 1, DEVICE_KEY))
        .unwrap();
    let boot = device.boot().expect("provisioned die boots");
    assert_eq!(boot.program.as_bytes(), &image[..]);

    // the execution path: run the booted image with rollback armed to
    // the authenticated copy, then decay the store beyond SECDED with
    // a dead repair channel
    let executor = LinkedExecutor::new(
        target,
        boot.program.clone(),
        LinkConfig::default(),
        LinkExecConfig {
            interval: 16,
            max_retries: 6,
            budget: 20_000,
            scrub_interval: 2,
        },
    )
    .with_rollback(boot.program);
    let mut store = EccStore::erased(image.len());
    store.write_image(&image);
    let upsets = [
        StoreUpset {
            segment: 1,
            word: 3,
            bit: 2,
        },
        StoreUpset {
            segment: 1,
            word: 3,
            bit: 10,
        },
    ];
    let dead = ChannelConfig {
        drop_rate: 1.0,
        ..ChannelConfig::clean()
    };
    let run = executor.run_from_store(store, &inputs, dead, 7, &upsets, FaultPlane::new());
    assert!(run.halted && !run.gave_up, "{:?}", run.trace);
    assert_eq!(run.outputs, expected, "the rolled-back image runs exact");
    assert!(run.image_rollbacks >= 1, "{:?}", run.trace);
    assert!(run
        .trace
        .iter()
        .any(|e| matches!(e, LinkEvent::ImageRollback { .. })));
}

/// The headline acceptance soak: ≥1000 seeded trials over all four
/// dialects and the full attacker mix (forgery, replay, downgrade,
/// truncation, bit flips, power cuts). Zero accepted forgeries, zero
/// bricked dies.
#[test]
fn thousand_trial_attack_soak_is_fully_defended() {
    let config = AttackSoakConfig::new(vec![0.0, 1e-4], 3, 0x5EC0DE);
    assert!(
        config.trial_count() >= 1000,
        "acceptance floor: got {} trials",
        config.trial_count()
    );
    assert_eq!(config.targets.len(), 4, "all four dialects sweep");
    let campaign = run_attack_soak(config).unwrap();
    assert_eq!(
        campaign.accepted_forgeries(),
        0,
        "a forged, replayed or downgraded image activated: {:#?}",
        campaign
            .trials
            .iter()
            .filter(|t| t.outcome == AttackOutcome::AcceptedForgery)
            .map(|t| (t.dialect, t.kernel, t.attack, t.rep))
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        campaign.bricked_dies(),
        0,
        "a die stopped booting a genuine image: {:#?}",
        campaign
            .trials
            .iter()
            .filter(|t| t.outcome == AttackOutcome::Bricked)
            .map(|t| (t.dialect, t.kernel, t.attack, t.rep))
            .collect::<Vec<_>>(),
    );
    assert!(campaign.defended());

    // every torn update boots *an authenticated* image: power-cut
    // trials only ever apply cleanly, reject, or recover the prior
    for trial in campaign
        .trials
        .iter()
        .filter(|t| t.attack == Attack::PowerCut)
    {
        assert!(
            matches!(
                trial.outcome,
                AttackOutcome::Applied | AttackOutcome::Rejected | AttackOutcome::Recovered
            ),
            "{:?} {:?} rep {}: {:?}",
            trial.dialect,
            trial.kernel,
            trial.rep,
            trial.outcome,
        );
    }
    // and the legitimate control arm actually lands updates
    assert!(
        campaign
            .trials
            .iter()
            .any(|t| t.attack == Attack::Legit && t.outcome == AttackOutcome::Applied),
        "the control mix must still update successfully",
    );
}

/// Legitimate signed updates succeed at the link soak's operating
/// points (the PR 4 bit-error rates), not just on a clean channel.
#[test]
fn legitimate_updates_succeed_at_link_operating_points() {
    for &ber in &[0.0, 1e-4, 5e-4] {
        for (t, target) in [Target::fc4(), Target::fc8(), Target::xls_revised()]
            .into_iter()
            .enumerate()
        {
            let kernel = Kernel::ALL
                .iter()
                .copied()
                .find(|k| k.supports(target.dialect))
                .unwrap();
            let prepared = PreparedKernel::new(kernel, target).unwrap();
            let image = prepared.program().as_bytes().to_vec();
            let mut device = Device::new(target, image.len(), DEVICE_KEY);
            device
                .provision(&sign_update(target.dialect, &image, 1, DEVICE_KEY))
                .unwrap();
            let next = sign_update(target.dialect, &image, 2, DEVICE_KEY);
            let mut channel = flexlink::NoisyChannel::new(
                ChannelConfig::with_bit_error_rate(ber),
                0xB007 + t as u64,
            );
            let report = device.apply_update(
                &next.wire_bytes(),
                &mut channel,
                &mut flexicore::sim::PowerCut::never(),
            );
            assert!(
                matches!(report.status, UpdateStatus::Applied { version: 2 }),
                "{:?} at BER {ber}: {}",
                target.dialect,
                report.status,
            );
            assert_eq!(device.active_version(), Some(2));
        }
    }
}

/// Attacker campaigns replay bit-for-bit from their seed — trial
/// statuses, outcomes and booted versions included.
#[test]
fn attack_campaigns_replay_bit_for_bit() {
    let config = AttackSoakConfig {
        targets: vec![Target::fc8()],
        ..AttackSoakConfig::new(vec![0.0, 2e-4], 2, 31)
    };
    let a = run_attack_soak(config.clone()).unwrap();
    let b = run_attack_soak(config).unwrap();
    assert_eq!(a.trials.len(), b.trials.len());
    for (x, y) in a.trials.iter().zip(&b.trials) {
        assert_eq!(x, y, "trial diverged on replay");
    }
}
