//! Seed-stability snapshot of the partial-yield salvage screen: every die
//! of the Table 5 published FlexiCore4 and FlexiCore8 wafers, tested at
//! 3 V and 4.5 V, is classified by [`SalvageScreen::analyze`] and the
//! classes are pinned as one digest per wafer run.
//!
//! Failing defect-limited dies replay their defect draw as the
//! architectural faults `flexinject::sites::die_faults` maps it to, so a
//! change to the wafer draw, the gate-level screen, the defect-to-fault
//! mapping, the engine or the outcome classifier shows up here as a
//! digest mismatch. Bump a pinned value only together with a note saying
//! why the classes legitimately moved.

use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexinject::salvage::{DieClass, SalvageConfig, SalvageScreen};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Random vector cycles of the gate-level screen, on top of its directed
/// prologue.
const VECTOR_CYCLES: u64 = 300;

/// FNV-1a over one analysis's die classes, in wafer site order.
fn digest(classes: &[DieClass]) -> u64 {
    classes.iter().fold(FNV_OFFSET, |hash, class| {
        let code = match class {
            DieClass::Functional => 0u8,
            DieClass::Salvaged => 1,
            DieClass::TimingFailure => 2,
            DieClass::Unsalvageable => 3,
        };
        (hash ^ u64::from(code)).wrapping_mul(FNV_PRIME)
    })
}

#[test]
fn published_wafer_salvage_digests_are_pinned() {
    let pinned = [
        (CoreDesign::FlexiCore4, 3.0, 0x6380_5b9f_4ad0_3267u64),
        (CoreDesign::FlexiCore4, 4.5, 0xe939_8b25_35ba_2001),
        (CoreDesign::FlexiCore8, 3.0, 0x5099_dcda_ae71_484b),
        (CoreDesign::FlexiCore8, 4.5, 0xf8d0_ef39_3749_2885),
    ];
    let mut seen = Vec::new();
    let mut drifted = Vec::new();
    for (design, voltage, want) in pinned {
        let screen =
            SalvageScreen::new(design, SalvageConfig::default()).expect("kernels verify clean");
        let run = WaferExperiment::published(design)
            .run(voltage, VECTOR_CYCLES)
            .expect("published netlist validates");
        let classes = screen.analyze(&run).classes;
        seen.extend_from_slice(&classes);
        let got = digest(&classes);
        if got != want {
            drifted.push(format!("{design:?} @ {voltage} V: pin {got:#018x}"));
        }
    }
    for class in [
        DieClass::Functional,
        DieClass::Salvaged,
        DieClass::TimingFailure,
        DieClass::Unsalvageable,
    ] {
        assert!(seen.contains(&class), "no die classified {class:?}");
    }
    assert!(drifted.is_empty(), "salvage digests drifted: {drifted:?}");
}
