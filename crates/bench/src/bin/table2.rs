//! Table 2: contribution of FlexiCore4 modules to core area and static
//! power (on-core data memory dominates).

use flexgate::report::Report;
use flexicore::isa::features::FeatureSet;

/// `(module, paper area share %, paper power share %, paper non-comb %)`
const PAPER: &[(&str, f64, f64, f64)] = &[
    ("alu", 9.0, 7.9, 0.0),
    ("decoder", 1.0, 0.8, 0.0),
    ("mem", 58.3, 57.5, 44.0),
    ("pc", 23.4, 20.9, 27.0),
    ("acc", 5.4, 5.8, 28.5),
];

fn main() {
    flexbench::header("Table 2 — FlexiCore4 module breakdown");
    let netlist = flexrtl::build(4, FeatureSet::BASE);
    flexbench::print_breakdown(&Report::of(&netlist), PAPER);
}
