//! Whole-wafer experiments: fabricate, test, and tabulate yield.

use crate::calibration::seeds;
use crate::current::die_current_ma;
use crate::tester::{DieOutcome, TestPlan, Tester};
use crate::variation::{draw_wafer, DieVariation, WaferRecipe};
use crate::wafer::{DieSite, WaferLayout};
use flexgate::netlist::Netlist;
use flexgate::report::Report;

/// Which fabricated core a wafer carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreDesign {
    /// The 4-bit base core.
    FlexiCore4,
    /// The 8-bit core.
    FlexiCore8,
    /// The §6.1 extended variant.
    FlexiCore4Plus,
}

impl CoreDesign {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CoreDesign::FlexiCore4 => "FlexiCore4",
            CoreDesign::FlexiCore8 => "FlexiCore8",
            CoreDesign::FlexiCore4Plus => "FlexiCore4+",
        }
    }

    /// Build the design's netlist.
    #[must_use]
    pub fn netlist(self) -> Netlist {
        match self {
            CoreDesign::FlexiCore4 => flexrtl::build_fc4(),
            CoreDesign::FlexiCore8 => flexrtl::build_fc8(),
            CoreDesign::FlexiCore4Plus => flexrtl::build_fc4_plus(),
        }
    }

    /// Resolve a design name as spelled by session-style entry points
    /// (CLI flags, daemon requests): `fc4`, `fc8`, `fc4plus`/`fc4+`.
    /// Returns `None` for anything else.
    #[must_use]
    pub fn parse(name: &str) -> Option<CoreDesign> {
        match name.trim() {
            "fc4" => Some(CoreDesign::FlexiCore4),
            "fc8" => Some(CoreDesign::FlexiCore8),
            "fc4plus" | "fc4+" => Some(CoreDesign::FlexiCore4Plus),
            _ => None,
        }
    }

    /// The wafer recipe the design was fabricated with.
    #[must_use]
    pub fn recipe(self) -> WaferRecipe {
        match self {
            CoreDesign::FlexiCore4 => WaferRecipe::Fc4,
            CoreDesign::FlexiCore8 => WaferRecipe::Fc8,
            CoreDesign::FlexiCore4Plus => WaferRecipe::Fc4Plus,
        }
    }
}

/// The result of fabricating and testing one wafer at one voltage.
#[derive(Debug, Clone)]
pub struct WaferRun {
    /// Die sites (same order as outcomes).
    pub sites: Vec<DieSite>,
    /// Per-die process variation.
    pub variations: Vec<DieVariation>,
    /// Per-die test outcomes.
    pub outcomes: Vec<DieOutcome>,
    /// Per-die current draw at the test voltage, mA.
    pub currents_ma: Vec<f64>,
    /// The test voltage.
    pub voltage: f64,
}

impl WaferRun {
    /// Yield over the whole wafer.
    #[must_use]
    pub fn yield_full(&self) -> f64 {
        let good = self.outcomes.iter().filter(|o| o.functional()).count();
        good as f64 / self.outcomes.len() as f64
    }

    /// Yield over the inclusion zone only (the paper's headline numbers).
    #[must_use]
    pub fn yield_inclusion(&self) -> f64 {
        let (good, total) = self
            .sites
            .iter()
            .zip(&self.outcomes)
            .filter(|(s, _)| s.in_inclusion_zone())
            .fold((0usize, 0usize), |(g, t), (_, o)| {
                (g + usize::from(o.functional()), t + 1)
            });
        good as f64 / total as f64
    }

    /// Mean / min / max / relative-std-dev of current over *functional*
    /// dies, as the paper reports (Figure 7, §4.2).
    #[must_use]
    pub fn current_stats(&self) -> CurrentStats {
        let values: Vec<f64> = self
            .outcomes
            .iter()
            .zip(&self.currents_ma)
            .filter(|(o, _)| o.functional())
            .map(|(_, &c)| c)
            .collect();
        CurrentStats::of(&values)
    }
}

/// Population statistics of current draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentStats {
    /// Mean, mA.
    pub mean_ma: f64,
    /// Minimum, mA.
    pub min_ma: f64,
    /// Maximum, mA.
    pub max_ma: f64,
    /// Relative standard deviation (σ / mean).
    pub rsd: f64,
    /// Number of dies measured.
    pub count: usize,
}

impl CurrentStats {
    /// Compute over a set of current values.
    #[must_use]
    pub fn of(values: &[f64]) -> CurrentStats {
        if values.is_empty() {
            return CurrentStats {
                mean_ma: 0.0,
                min_ma: 0.0,
                max_ma: 0.0,
                rsd: 0.0,
                count: 0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        CurrentStats {
            mean_ma: mean,
            min_ma: values.iter().copied().fold(f64::INFINITY, f64::min),
            max_ma: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            rsd: var.sqrt() / mean,
            count: values.len(),
        }
    }
}

/// A reusable experiment: one design, one fabricated wafer population.
#[derive(Debug)]
pub struct WaferExperiment {
    design: CoreDesign,
    netlist: Netlist,
    layout: WaferLayout,
    variations: Vec<DieVariation>,
}

impl WaferExperiment {
    /// Fabricate a wafer of `design` with the given population seed.
    #[must_use]
    pub fn new(design: CoreDesign, seed: u64) -> Self {
        let netlist = design.netlist();
        let layout = WaferLayout::new();
        let area = Report::of(&netlist).total.area_mm2();
        let variations = draw_wafer(design.recipe(), seed, layout.sites(), area);
        WaferExperiment {
            design,
            netlist,
            layout,
            variations,
        }
    }

    /// The canonical wafer used by the published tables/figures.
    #[must_use]
    pub fn published(design: CoreDesign) -> Self {
        WaferExperiment::new(design, seeds::YIELD)
    }

    /// The design under test.
    #[must_use]
    pub fn design(&self) -> CoreDesign {
        self.design
    }

    /// The die layout.
    #[must_use]
    pub fn layout(&self) -> &WaferLayout {
        &self.layout
    }

    /// The design netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The per-die process variation draws, in wafer site order.
    #[must_use]
    pub fn variations(&self) -> &[DieVariation] {
        &self.variations
    }

    /// Test the wafer at `voltage` with `vector_cycles` random cycles
    /// (plus the directed prologue).
    ///
    /// # Errors
    ///
    /// [`FabError::Netlist`](crate::FabError) if the design netlist
    /// fails integrity validation.
    pub fn run(&self, voltage: f64, vector_cycles: u64) -> Result<WaferRun, crate::FabError> {
        self.run_with(voltage, vector_cycles, 1)
    }

    /// [`run`](WaferExperiment::run) with the wafer screen spread across
    /// up to `threads` worker threads (one tester pack of up to 63
    /// defective dies per work unit; results are identical for every
    /// thread count).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](WaferExperiment::run).
    pub fn run_with(
        &self,
        voltage: f64,
        vector_cycles: u64,
        threads: usize,
    ) -> Result<WaferRun, crate::FabError> {
        let tester = Tester::new(&self.netlist, TestPlan::quick(vector_cycles))?;
        let outcomes = tester.test_wafer_with(&self.variations, voltage, threads)?;
        let nominal = Report::of(&self.netlist).total.static_current_ma(4.5);
        let currents = self
            .variations
            .iter()
            .map(|v| die_current_ma(nominal, v, voltage))
            .collect();
        Ok(WaferRun {
            sites: self.layout.sites().to_vec(),
            variations: self.variations.clone(),
            outcomes,
            currents_ma: currents,
            voltage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_resolves_design_names() {
        assert_eq!(CoreDesign::parse("fc4"), Some(CoreDesign::FlexiCore4));
        assert_eq!(CoreDesign::parse("fc8"), Some(CoreDesign::FlexiCore8));
        assert_eq!(
            CoreDesign::parse("fc4plus"),
            Some(CoreDesign::FlexiCore4Plus)
        );
        assert_eq!(CoreDesign::parse("fc4+"), Some(CoreDesign::FlexiCore4Plus));
        assert_eq!(CoreDesign::parse("fc16"), None);
    }

    #[test]
    fn fc4_yield_bands_match_table5() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
        let run45 = exp.run(4.5, 2_000).unwrap();
        let y_inc = run45.yield_inclusion();
        let y_full = run45.yield_full();
        assert!(
            (0.70..=0.92).contains(&y_inc),
            "fc4 inclusion yield at 4.5 V = {y_inc}"
        );
        assert!(y_full < y_inc, "edge effects must hurt full-wafer yield");

        let run30 = exp.run(3.0, 2_000).unwrap();
        assert!(
            run30.yield_inclusion() < y_inc,
            "3 V must not out-yield 4.5 V"
        );
    }

    #[test]
    fn fc8_crashes_at_3v() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore8);
        let run45 = exp.run(4.5, 1_000).unwrap();
        let run30 = exp.run(3.0, 1_000).unwrap();
        assert!(
            run30.yield_inclusion() < 0.35,
            "fc8 at 3 V = {}",
            run30.yield_inclusion()
        );
        assert!(run45.yield_inclusion() > 2.0 * run30.yield_inclusion().max(0.01));
    }

    #[test]
    fn current_stats_follow_the_recipe() {
        let exp = WaferExperiment::published(CoreDesign::FlexiCore4);
        let run = exp.run(4.5, 500).unwrap();
        let stats = run.current_stats();
        assert!((0.8..1.5).contains(&stats.mean_ma), "{stats:?}");
        assert!((0.08..0.25).contains(&stats.rsd), "{stats:?}");
        // current shrinks roughly linearly with voltage
        let run3 = exp.run(3.0, 500).unwrap();
        let s3 = run3.current_stats();
        assert!(
            (s3.mean_ma / stats.mean_ma - 2.0 / 3.0).abs() < 0.08,
            "3 V mean {} vs 4.5 V mean {}",
            s3.mean_ma,
            stats.mean_ma
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = WaferExperiment::new(CoreDesign::FlexiCore4, 9)
            .run(4.5, 300)
            .unwrap();
        let b = WaferExperiment::new(CoreDesign::FlexiCore4, 9)
            .run(4.5, 300)
            .unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.currents_ma, b.currents_ma);
    }
}
