//! Seed-stability snapshot of the field screen: every die of the Table 5
//! published FlexiCore4 and FlexiCore8 wafers runs the parity kernel
//! under the architectural faults `flexinject::sites::die_faults` draws
//! for it, and the verdicts are pinned as one digest.
//!
//! A change to the wafer draw, the defect-to-fault mapping, the engine
//! or the verdict rules shows up here as a digest mismatch. Bump the
//! pinned value only together with a note saying why the verdicts
//! legitimately moved.

use flexasm::Target;
use flexfab::field::{FieldScreen, ScreenVerdict};
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexinject::sites::die_faults;
use flexkernels::harness::PreparedKernel;
use flexkernels::Kernel;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over every die's verdict, wafer by wafer in site order. Also
/// returns how many dies passed and how many were screened.
fn field_digest() -> (u64, usize, usize) {
    let mut hash = FNV_OFFSET;
    let (mut passed, mut screened) = (0, 0);
    for (design, target) in [
        (CoreDesign::FlexiCore4, Target::fc4()),
        (CoreDesign::FlexiCore8, Target::fc8()),
    ] {
        let prepared = PreparedKernel::new(Kernel::ParityCheck, target).expect("parity assembles");
        let screen = FieldScreen::new(
            target.dialect,
            prepared.program().clone(),
            vec![0x5, 0xA],
            20_000,
        );
        let exp = WaferExperiment::published(design);
        let verdicts = exp.field_screen(&screen, |v| {
            die_faults(target.dialect, v.defect_seed, v.defect_count)
        });
        for verdict in verdicts {
            let code = match verdict {
                ScreenVerdict::Pass => 0u8,
                ScreenVerdict::WrongOutput => 1,
                ScreenVerdict::Hung => 2,
                ScreenVerdict::Faulted => 3,
            };
            hash ^= u64::from(code);
            hash = hash.wrapping_mul(FNV_PRIME);
            passed += usize::from(verdict.passed());
            screened += 1;
        }
    }
    (hash, passed, screened)
}

#[test]
fn published_wafer_field_screen_digest_is_pinned() {
    let (got, passed, screened) = field_digest();
    assert!(
        passed > 0 && passed < screened,
        "the screen must both pass and reject dies ({passed}/{screened})"
    );
    assert_eq!(
        got, 0x810a_7559_a35a_3aa4,
        "field-screen digest drifted — pin {got:#018x} ({passed}/{screened} passed)"
    );
}
