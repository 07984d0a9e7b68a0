//! Table 3: contribution of FlexiCore8 modules to core area and static
//! power.

use flexgate::report::Report;
use flexicore::isa::features::FeatureSet;

/// `(module, paper area share %, paper power share %, paper non-comb %)`
const PAPER: &[(&str, f64, f64, f64)] = &[
    ("alu", 15.5, 14.9, 0.0),
    ("decoder", 2.9, 2.7, 25.6),
    ("mem", 40.9, 36.7, 41.5),
    ("pc", 17.9, 17.4, 29.0),
    ("acc", 10.8, 11.6, 71.5),
];

fn main() {
    flexbench::header("Table 3 — FlexiCore8 module breakdown");
    let netlist = flexrtl::build(8, FeatureSet::BASE);
    flexbench::print_breakdown(&Report::of(&netlist), PAPER);
}
