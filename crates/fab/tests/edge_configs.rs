//! Edge values of the `flexfab` configuration surface return a value or
//! an error, never a panic: the largest population seed, zero to two
//! vector cycles, zero, one, a few and `usize::MAX` worker threads, an
//! empty lot and a test plan with no vectors at all.

use flexfab::lots::Lot;
use flexfab::tester::{fault_coverage, TestPlan};
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexfab::FabError;

const DESIGNS: [CoreDesign; 3] = [
    CoreDesign::FlexiCore4,
    CoreDesign::FlexiCore8,
    CoreDesign::FlexiCore4Plus,
];

#[test]
fn wafer_runs_at_edge_cycles_and_threads() {
    for design in DESIGNS {
        let exp = WaferExperiment::new(design, u64::MAX);
        for cycles in [0, 1, 2] {
            let serial = exp.run_with(4.5, cycles, 1).unwrap();
            assert_eq!(serial.outcomes.len(), exp.variations().len());
            for threads in [0, 3, usize::MAX] {
                let run = exp.run_with(4.5, cycles, threads).unwrap();
                assert_eq!(
                    run.outcomes,
                    serial.outcomes,
                    "{} at {cycles} cycles, {threads} threads",
                    design.name()
                );
            }
        }
    }
}

#[test]
fn empty_lot_at_edge_seed_is_an_error() {
    for design in DESIGNS {
        for threads in [0, 1, usize::MAX] {
            let lot = Lot::fabricate_with(design, 0, u64::MAX, 4.5, 0, threads).unwrap();
            assert!(lot.runs().is_empty());
            assert!(matches!(lot.stats(), Err(FabError::EmptyLot)));
        }
    }
}

#[test]
fn plan_without_vectors_detects_nothing() {
    for design in DESIGNS {
        let coverage = fault_coverage(&design.netlist(), TestPlan::quick(0)).unwrap();
        assert_eq!(coverage, 0.0, "{}", design.name());
    }
}
