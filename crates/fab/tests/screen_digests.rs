//! Seed-stability snapshot of the gate-level wafer screen: every die of
//! the Table 5 published FlexiCore4 and FlexiCore8 wafers is screened
//! through `BatchSim` at 3 V and 4.5 V, and the per-die outcomes are
//! pinned as one digest. The stuck-at fault coverage of the quick plan
//! is pinned to its exact `f64` bits alongside.
//!
//! Both pins were captured with the per-cell interpreter that predates
//! the compiled tape, so they hold the tape, the stuck-at masks inlined
//! in its steps and the tester's screen loop to the old evaluator's
//! bytes. A change to the wafer draw, the defect sites, the stimulus or
//! the simulator shows up here as a mismatch. Bump a pin only together
//! with a note saying why the screen legitimately moved.

use flexfab::tester::{fault_coverage, TestPlan};
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexshard::{fnv1a, FNV_OFFSET};

/// Random vectors per die: enough that defective dies accumulate
/// distinct error counts, few enough for a debug-profile test.
const VECTORS: u64 = 1_000;

/// FNV-1a over every die's `(defect_errors, timing_errors)`, wafer by
/// wafer (design, then voltage) in site order. Also returns how many
/// dies were screened and how many passed.
fn screen_digest() -> (u64, usize, usize) {
    let mut hash = FNV_OFFSET;
    let (mut screened, mut passed) = (0, 0);
    for design in [CoreDesign::FlexiCore4, CoreDesign::FlexiCore8] {
        let exp = WaferExperiment::published(design);
        for voltage in [3.0, 4.5] {
            let run = exp
                .run(voltage, VECTORS)
                .expect("published netlists are valid");
            for outcome in &run.outcomes {
                for word in [outcome.defect_errors, outcome.timing_errors] {
                    hash = word
                        .to_le_bytes()
                        .into_iter()
                        .fold(hash, |h, b| fnv1a(h, b.into()));
                }
                screened += 1;
                passed += usize::from(outcome.functional());
            }
        }
    }
    (hash, screened, passed)
}

#[test]
fn published_wafer_screen_digest_is_pinned() {
    let (got, screened, passed) = screen_digest();
    assert!(
        passed > 0 && passed < screened,
        "the screen must both pass and reject dies ({passed}/{screened})"
    );
    assert_eq!(
        got, 0xdad4_d1fa_f0fa_adb4,
        "screen digest drifted — pin {got:#018x} ({passed}/{screened} passed)"
    );
}

#[test]
fn quick_plan_fault_coverage_bits_are_pinned() {
    for (design, pinned) in [
        (CoreDesign::FlexiCore4, 0x3fee_3aa0_3e88_cb3d_u64),
        (CoreDesign::FlexiCore8, 0x3fee_b74f_0329_1620),
    ] {
        let coverage = fault_coverage(&design.netlist(), TestPlan::quick(4_000))
            .expect("published netlists are valid");
        assert_eq!(
            coverage.to_bits(),
            pinned,
            "{} coverage drifted — pin {:#018x} ({coverage})",
            design.name(),
            coverage.to_bits()
        );
    }
}
