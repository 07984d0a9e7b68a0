//! Seed-stability snapshot: the report of an unpruned stuck-at grid —
//! every dialect × supported kernel, 64 trials each under the default
//! `CYCLE_BUDGET` watchdog — is pinned as one digest. Every trial that
//! hangs runs the watchdog out, so this pin holds the engine's hang
//! fast-forward to the plain run-to-watchdog outcome for outcome.
//!
//! A change to the fault draw, the input sampler, the engine or the
//! classifier shows up here as a digest mismatch. Bump the pinned value
//! only together with a note saying why the reports legitimately moved.

use flexinject::campaign::{run_campaign, CampaignConfig, FaultModel};
use flexinject::target_from_name;
use flexkernels::harness::CYCLE_BUDGET;
use flexkernels::Kernel;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every trial's `(fault, outcome)`, cell by cell in
/// dialect then `Kernel::ALL` order. Also returns how many trials hung.
fn grid_digest() -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut hangs = 0;
    let mut cell = 0u64;
    for name in ["fc4", "fc8", "xacc", "xls"] {
        let target = target_from_name(name).expect("built-in dialect");
        for kernel in Kernel::ALL {
            if !kernel.supports(target.dialect) {
                continue;
            }
            let config = CampaignConfig {
                budget: CYCLE_BUDGET,
                model: FaultModel::StuckAt,
                ..CampaignConfig::new(target, kernel, 64, 0xD16E_0000 + cell)
            };
            cell += 1;
            let result = run_campaign(config).expect("kernel runs clean");
            for trial in &result.trials {
                fold(&mut hash, trial.fault.to_string().as_bytes());
                fold(&mut hash, trial.outcome.label().as_bytes());
                hangs += usize::from(trial.outcome == flexinject::Outcome::Hang);
            }
        }
    }
    (hash, hangs)
}

#[test]
fn stuck_at_grid_digest_is_pinned() {
    let (got, hangs) = grid_digest();
    assert!(hangs > 0, "the grid must exercise the watchdog");
    assert_eq!(
        got, 0xb845_3659_41ab_b78f,
        "stuck-at grid digest drifted — pin {got:#018x} ({hangs} hangs)"
    );
}
