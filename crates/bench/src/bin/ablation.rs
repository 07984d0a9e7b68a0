//! Ablation studies over the reproduction's own design choices and
//! calibration constants — DESIGN.md's "which knob produces which paper
//! result" index, run live.
//!
//! 1. **Defect density**: scale the fitted FlexiCore4 density ×½/×1/×2
//!    and watch the 4.5 V yield move (the single constant behind Table 5's
//!    absolute level).
//! 2. **Edge effects**: the full-wafer vs inclusion-zone gap as a function
//!    of simulated edge defectivity.
//! 3. **Voltage**: yield vs supply for both cores — the 3 V cliff for
//!    FlexiCore8 is a *derived* result (critical-path length), not a
//!    constant.
//! 4. **Test-vector volume**: how many vectors the §4.1 methodology needs
//!    before yield measurements stabilize, with the stuck-at coverage of
//!    each plan.

use flexfab::tester::{fault_coverage, TestPlan, Tester};
use flexfab::variation::{draw_wafer, WaferRecipe};
use flexfab::wafer::WaferLayout;
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexgate::report::Report;
use flexicore::isa::features::FeatureSet;

fn main() {
    flexbench::header("Ablation 1 — defect-density sensitivity (FlexiCore4, 4.5 V)");
    // re-draw wafers with scaled densities by scaling the die area fed to
    // the Poisson model (λ = density × area, so the two are interchangeable)
    let layout = WaferLayout::new();
    let netlist = flexrtl::build(4, FeatureSet::BASE);
    let area = Report::of(&netlist).total.area_mm2();
    let tester = Tester::new(&netlist, TestPlan::quick(4_000)).expect("netlist validation failed");
    println!("{:>8} {:>12} {:>12}", "scale", "yield full", "yield incl");
    for scale in [0.5, 1.0, 2.0] {
        let vars = draw_wafer(WaferRecipe::Fc4, 0xAB1A, layout.sites(), area * scale);
        let outcomes = tester.test_wafer(&vars, 4.5).expect("wafer test failed");
        let full =
            outcomes.iter().filter(|o| o.functional()).count() as f64 / outcomes.len() as f64;
        let inc = layout
            .sites()
            .iter()
            .zip(&outcomes)
            .filter(|(s, _)| s.in_inclusion_zone())
            .map(|(_, o)| usize::from(o.functional()))
            .sum::<usize>() as f64
            / layout.inclusion_count() as f64;
        println!(
            "{:>8.1} {:>11.0}% {:>11.0}%",
            scale,
            full * 100.0,
            inc * 100.0
        );
    }

    flexbench::header("Ablation 2 — edge-zone contribution");
    let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
    let run = exp.run(4.5, 4_000).expect("wafer test failed");
    let edge_dies = run
        .sites
        .iter()
        .zip(&run.outcomes)
        .filter(|(s, _)| !s.in_inclusion_zone());
    let edge_good = edge_dies.clone().filter(|(_, o)| o.functional()).count();
    let edge_total = edge_dies.count();
    println!(
        "edge-ring yield {:.0}% vs inclusion {:.0}% — the {}-point full-wafer gap of Table 5",
        edge_good as f64 / edge_total as f64 * 100.0,
        run.yield_inclusion() * 100.0,
        ((run.yield_inclusion() - run.yield_full()) * 100.0).round(),
    );

    flexbench::header("Ablation 3 — yield vs supply voltage");
    println!("{:>6} {:>12} {:>12}", "V", "FlexiCore4", "FlexiCore8");
    let exp4 = WaferExperiment::published(CoreDesign::FlexiCore4);
    let exp8 = WaferExperiment::published(CoreDesign::FlexiCore8);
    for v in [2.5, 3.0, 3.5, 4.0, 4.5] {
        let y4 = exp4
            .run(v, 2_000)
            .expect("wafer test failed")
            .yield_inclusion();
        let y8 = exp8
            .run(v, 2_000)
            .expect("wafer test failed")
            .yield_inclusion();
        println!("{v:>6} {:>11.0}% {:>11.0}%", y4 * 100.0, y8 * 100.0);
    }
    println!("(the FlexiCore8 cliff between 3.5 V and 3 V is its doubled adder path)");

    flexbench::header("Ablation 4 — test-vector volume vs measured yield");
    println!("{:>9} {:>12} {:>10}", "vectors", "yield incl", "coverage");
    for cycles in [250u64, 1_000, 4_000, 16_000] {
        let run = exp4.run(4.5, cycles).expect("wafer test failed");
        let coverage =
            fault_coverage(&netlist, TestPlan::quick(cycles)).expect("netlist validation failed");
        println!(
            "{:>9} {:>11.0}% {:>9.1}%",
            cycles,
            run.yield_inclusion() * 100.0,
            coverage * 100.0
        );
    }
    println!("(short vector sets overcount yield: defects escape; §4.1's 100k+ cycles saturate)");
}
