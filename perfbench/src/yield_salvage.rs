//! `yield-salvage`: the `table5` + `resilience` pipeline. Fabricate
//! wafers, screen every die through the gate-level tester at Table 5's
//! 50 000 vectors, then classify the failing dies with
//! `SalvageScreen::analyze`. One operation is one die, but whole wafers
//! always run: per-die salvage cost varies by about 1 000× with the
//! die's fault plane.

use std::time::Instant;

use flexfab::tester::TestPlan;
use flexfab::wafer_run::{CoreDesign, WaferExperiment, WaferRun};
use flexinject::salvage::{target_for, DieClass, SalvageAnalysis, SalvageConfig, SalvageScreen};
use flexkernels::harness::PreparedKernel;
use flexkernels::Kernel;

use crate::host::{HostClock, Probe, Timed};
use crate::report::{self, Report};
use crate::trace::{Layer, Tracer};
use crate::Options;

/// Table 5's designs and test voltages.
const DESIGNS: [CoreDesign; 2] = [CoreDesign::FlexiCore4, CoreDesign::FlexiCore8];
const VOLTAGES: [f64; 2] = [3.0, 4.5];

/// Table 5's random test vectors per die.
const VECTORS: u64 = 50_000;
const TINY_VECTORS: u64 = 300;

/// One fabricated wafer population with the salvage screen for its design.
struct Line {
    experiment: WaferExperiment,
    screen: SalvageScreen,
}

/// The set-up: `WaferExperiment::new` plus `SalvageScreen::new` for each
/// design. The wafers are Table 5's published ones; the seed draws the
/// salvage screen's input cases. Salvage cost per die varies by ~1 000×
/// with its defect draw, so seed-drawn wafers would make a pass's work,
/// not just its inputs, change from seed to seed.
fn prepare(seed: u64, tr: &mut Tracer) -> Result<Vec<Line>, String> {
    let mut lines = Vec::with_capacity(DESIGNS.len());
    for design in DESIGNS {
        tr.begin(Layer::Fabricate);
        let experiment = WaferExperiment::published(design);
        tr.end();
        tr.begin(Layer::SalvagePrepare);
        let screen = SalvageScreen::new(
            design,
            SalvageConfig {
                seed,
                threads: 1,
                ..SalvageConfig::default()
            },
        );
        tr.end();
        let screen = screen.map_err(|e| format!("{} salvage screen: {e}", design.name()))?;
        lines.push(Line { experiment, screen });
    }
    Ok(lines)
}

/// The assembly and vuln-analysis share of `SalvageScreen::new`, replayed
/// through the public calls it makes, so a traced run can split the
/// set-up.
fn split_preparation(tr: &mut Tracer) -> Result<(), String> {
    for design in DESIGNS {
        let target = target_for(design);
        for kernel in Kernel::ALL
            .into_iter()
            .filter(|k| k.supports(target.dialect))
        {
            tr.begin(Layer::Assemble);
            let prepared = PreparedKernel::new(kernel, target);
            tr.end();
            let prepared = prepared.map_err(|e| format!("{} {kernel}: {e}", design.name()))?;
            tr.begin(Layer::Vuln);
            let _report = flexcheck::vuln::analyze(&target, prepared.program());
            tr.end();
        }
    }
    Ok(())
}

/// One screened and classified wafer, and the index of its line.
struct Wafer {
    line: usize,
    run: WaferRun,
    analysis: SalvageAnalysis,
}

/// One pass: every design's wafer at every voltage, screened then
/// salvaged, each wafer timed on `clock` if one is given (a traced pass
/// takes none, so no probe falls inside its spans). Returns the pass's
/// seconds, each wafer's timing, and the wafers.
fn pass(
    lines: &[Line],
    vectors: u64,
    tr: &mut Tracer,
    mut clock: Option<&mut HostClock>,
) -> Result<(f64, Vec<Timed>, Vec<Wafer>), String> {
    let start = Instant::now();
    let mut unit_times = Vec::new();
    let mut wafers = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        for voltage in VOLTAGES {
            let mut unit = || {
                tr.begin(Layer::Screen);
                let run = line.experiment.run(voltage, vectors);
                tr.end();
                run.map(|run| {
                    tr.begin(Layer::SalvageAnalyze);
                    let analysis = line.screen.analyze(&run);
                    tr.end();
                    (run, analysis)
                })
            };
            let screened = match clock.as_deref_mut() {
                Some(clock) => {
                    let (screened, timed) = clock.time(unit);
                    unit_times.push(timed);
                    screened
                }
                None => unit(),
            };
            let (run, analysis) = screened.map_err(|e| {
                format!(
                    "{} wafer screen at {voltage} V: {e}",
                    line.experiment.design().name()
                )
            })?;
            wafers.push(Wafer {
                line: index,
                run,
                analysis,
            });
        }
    }
    Ok((start.elapsed().as_secs_f64(), unit_times, wafers))
}

fn same(a: &[Wafer], b: &[Wafer]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.run.outcomes == y.run.outcomes && x.analysis.classes == y.analysis.classes
        })
}

/// Run the `yield-salvage` workload.
///
/// # Errors
///
/// A salvage screen whose kernels fail their clean baseline, or a wafer
/// screen that rejects its netlist.
pub fn run(opts: &Options) -> Result<Report, String> {
    let vectors = if opts.tiny { TINY_VECTORS } else { VECTORS };
    let mut rep = Report::default();
    let mut clock = HostClock::new(Probe::Large)?;
    let prep = || prepare(opts.seed, &mut Tracer::new(false));
    let (lines, mut setup_times) = crate::repeat_setup(opts.tiny, &mut clock, prep, drop)?;

    let mut off = Tracer::new(false);
    let mut unit_times = vec![Vec::new(); DESIGNS.len() * VOLTAGES.len()];
    let mut first: Option<Vec<Wafer>> = None;
    let mut repeated = true;
    let pass_secs = crate::run_passes(opts.untraced_seconds(), opts.tiny, || {
        let (secs, units, wafers) = pass(&lines, vectors, &mut off, Some(&mut clock))?;
        for (wafer, timed) in unit_times.iter_mut().zip(units) {
            wafer.push(timed);
        }
        if let Some(first) = &first {
            repeated &= same(first, &wafers);
        } else {
            first = Some(wafers);
        }
        setup_times.extend(crate::time_setups(opts.tiny, &mut clock, prep, drop)?);
        Ok(secs)
    })?;
    clock.close();
    let peak_rss = report::peak_rss_mib() - clock.probe().table_mib();
    let first = first.expect("run_passes runs at least one pass");
    let dies: usize = first.iter().map(|w| w.run.outcomes.len()).sum();
    // Each wafer at its median scaled time.
    let unit_ms: Vec<f64> = unit_times
        .iter()
        .map(|times| report::median(&clock.all_scaled(times)) * 1e3)
        .collect();
    let ops_per_s = dies as f64 / (unit_ms.iter().sum::<f64>() * 1e-3);
    let pass_ms = crate::pass_scaled_ms(&clock, &unit_times);
    rep.note(format!(
        "scaled ms per wafer: {}",
        unit_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.note(format!(
        "host slowness: median {:.3}",
        clock.median_slowness()
    ));
    rep.end_to_end(
        "setup_s",
        "s",
        report::median(&clock.all_scaled(&setup_times)),
    );
    rep.end_to_end("ops_per_s", "1/s", ops_per_s);
    rep.end_to_end("p50_ms", "ms", report::quantile(&pass_ms, 0.5));
    rep.end_to_end("p99_ms", "ms", report::quantile(&pass_ms, 0.99));
    rep.end_to_end("peak_rss_mb", "MiB", peak_rss);
    rep.attempted = (dies * pass_secs.len()) as u64;
    rep.note(format!(
        "timed passes of {} wafers, raw seconds: {}; scaled ms: {}",
        first.len(),
        report::summary(&pass_secs),
        report::summary(&pass_ms)
    ));
    rep.note(format!(
        "set-ups, raw seconds: {}",
        report::summary(&setup_times.iter().map(|t| t.raw).collect::<Vec<_>>())
    ));

    let mut mismatched = 0u64;
    for wafer in &first {
        let pruned = lines[wafer.line].screen.analyze_pruned(&wafer.run);
        mismatched += if pruned.classes.len() == wafer.analysis.classes.len() {
            wafer
                .analysis
                .classes
                .iter()
                .zip(&pruned.classes)
                .filter(|(a, b)| a != b)
                .count() as u64
        } else {
            wafer.analysis.classes.len() as u64
        };
    }
    rep.failed = mismatched;
    rep.check(
        "SalvageScreen::analyze equals analyze_pruned on every die",
        mismatched == 0,
    );
    rep.check("every timed pass repeated the first exactly", repeated);

    let vectors_per_pass = dies as u64 * TestPlan::quick(vectors).total_cycles();
    rep.count("fab.wafers", first.len() as u64);
    rep.count("fab.dies", dies as u64);
    rep.count("fab.vectors", vectors_per_pass);
    for (name, class) in [
        ("salvage.functional", DieClass::Functional),
        ("salvage.salvaged", DieClass::Salvaged),
        ("salvage.timing_failure", DieClass::TimingFailure),
        ("salvage.unsalvageable", DieClass::Unsalvageable),
    ] {
        let n: usize = first.iter().map(|w| w.analysis.count(class, false)).sum();
        rep.count(name, n as u64);
    }

    if opts.trace {
        let mut setup_tr = Tracer::new(true);
        prepare(opts.seed, &mut setup_tr)?;
        split_preparation(&mut setup_tr)?;
        // Passes alternate untraced and traced, so `trace.overhead`
        // compares the same work under the same host conditions.
        let mut tr = Tracer::new(true);
        let (mut walls, mut untraced) = (Vec::new(), Vec::new());
        let mut traced_repeated = true;
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
            untraced.push(pass(&lines, vectors, &mut off, None)?.0);
            let (secs, _, wafers) = pass(&lines, vectors, &mut tr, None)?;
            traced_repeated &= same(&first, &wafers);
            walls.push(secs);
        }
        rep.check(
            "every traced pass repeated the first exactly",
            traced_repeated,
        );
        let n = walls.len() as f64;
        for layer in [
            Layer::Fabricate,
            Layer::SalvagePrepare,
            Layer::Assemble,
            Layer::Vuln,
        ] {
            rep.layer(layer.metric(), "s", setup_tr.self_secs(layer));
        }
        for layer in [Layer::Screen, Layer::SalvageAnalyze] {
            rep.layer(layer.metric(), "s", tr.self_secs(layer) / n);
        }
        rep.layer(
            "fab.vectors_per_s",
            "1/s",
            report::ratio(vectors_per_pass as f64 * n, tr.self_secs(Layer::Screen)),
        );
        rep.layer(
            "trace.coverage",
            "ratio",
            report::ratio(tr.total_self_secs(), walls.iter().sum()),
        );
        rep.layer(
            "trace.overhead",
            "ratio",
            report::ratio(untraced.iter().sum(), walls.iter().sum()),
        );
        crate::write_trace(opts, &mut rep, &[("setup", &setup_tr), ("passes", &tr)]);
    }
    Ok(rep)
}
