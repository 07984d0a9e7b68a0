//! # flexbench
//!
//! The experiment harness: one binary per table and figure of the paper,
//! each printing the paper's reported values next to the values this
//! reproduction regenerates. Run them all via `cargo run -p flexbench
//! --bin <name>`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | FlexiCore4 module area/power breakdown |
//! | `table3` | FlexiCore8 module breakdown |
//! | `table4` | FlexiCore4/8/4+ comparison |
//! | `table5` | wafer yields at 3 V / 4.5 V |
//! | `table6` | benchmark static instruction counts |
//! | `table7` | comparison to other flexible ICs |
//! | `fig6` | wafer error maps |
//! | `fig7` | wafer current maps + variation statistics |
//! | `fig8` | kernel latency and energy on FlexiCore4 |
//! | `fig9` | core area & suite code size per ISA extension |
//! | `fig10` | per-kernel code size per ISA extension |
//! | `fig11` | DSE core performance/energy per kernel |
//! | `fig12` | area vs code-size scatter |
//! | `fig13` | relative energy under both bus widths |
//! | `dse_summary` | the §6.3 headline numbers |
//! | `resilience` | fault-injection campaigns + partial-yield Table 5 extension |
//!
//! The speed of the reproduction itself is measured by the `perfbench`
//! package at the repository root, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a ratio as a percentage string.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render a `paper vs measured` pair.
#[must_use]
pub fn vs(paper: impl core::fmt::Display, measured: impl core::fmt::Display) -> String {
    format!("{paper} (paper) / {measured} (this repro)")
}

/// Print a module area/power breakdown next to the paper's Table 2/3
/// values. `paper` rows are `(module, area %, power %, non-comb %)`.
pub fn print_breakdown(report: &flexgate::report::Report, paper: &[(&str, f64, f64, f64)]) {
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "module",
        "area(paper)",
        "area(ours)",
        "power(paper)",
        "power(ours)",
        "ncomb(paper)",
        "ncomb(ours)"
    );
    for &(module, p_area, p_power, p_ncomb) in paper {
        let m = report.module_rollup(module);
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>13.1}% {:>13.1}% {:>11.1}% {:>11.1}%",
            module,
            p_area,
            report.area_share(module) * 100.0,
            p_power,
            report.power_share(module) * 100.0,
            p_ncomb,
            m.non_comb_fraction() * 100.0,
        );
    }
    println!(
        "\ntotal: {} cells, {} devices, {:.0} NAND2-equivalent ({:.2} mm²), {:.2} mW static at 4.5 V",
        report.total.cells,
        report.total.devices,
        report.total.area(),
        report.total.area_mm2(),
        report.total.static_power_mw(4.5),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.815), "81.5%");
        assert_eq!(vs(81, 84), "81 (paper) / 84 (this repro)");
    }
}
