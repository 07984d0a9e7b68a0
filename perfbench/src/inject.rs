//! `inject-hang` and `inject-sweep`: fault-injection campaigns over the
//! whole grid of (dialect × supported kernel), as `flexi inject` runs
//! them.
//!
//! The timed region calls `run_campaign_pruned` once per grid cell and
//! pass, with `threads = 1`. The output check — and, in a traced run, the
//! per-layer split — replays the identical pre-drawn trial stream through
//! the public pieces a campaign is built from: `draw_fault` and
//! `Sampler::draw`, `is_masked_fault`, `PreparedKernel::core` with
//! `AnyCore::run_with`, `verify` and `classify`. A traced run also times
//! `run_batch` on the same trials.

use std::time::Instant;

use flexasm::Target;
use flexcheck::vuln::VulnReport;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::sim::{ArchFault, FaultPlane, NoFaults};
use flexinject::campaign::{
    classify, draw_fault, run_campaign_pruned, CampaignConfig, CampaignResult, FaultModel, Outcome,
};
use flexinject::sites::{self, FaultSite};
use flexinject::Tally;
use flexkernels::harness::{BatchCase, PreparedKernel, RunError, CYCLE_BUDGET};
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::{HostClock, Probe, Timed};
use crate::report::{self, Report};
use crate::trace::{Layer, Tracer};
use crate::Options;

/// The grid's dialects, spelled as `flexi inject --dialect` takes them.
pub const DIALECTS: [&str; 4] = ["fc4", "fc8", "xacc", "xls"];

/// `run_campaign` seeds its input sampler with the campaign seed XOR this
/// salt. The replay must draw the same inputs; the output check fails if
/// the two ever drift apart.
const SAMPLER_SALT: u64 = 0x001A_7E57;

/// An inject workload's campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Fault population.
    pub model: FaultModel,
    /// Watchdog budget per trial.
    pub budget: u64,
    /// Trials per grid cell and pass.
    pub trials: usize,
    /// Prune each cell's campaign with its `flexcheck::vuln` report.
    pub prune: bool,
    /// The host probe that slows down as these campaigns do.
    pub probe: Probe,
}

impl Spec {
    /// `inject-hang`: the `flexi inject` defaults — unpruned stuck-at
    /// faults under the 200 000-cycle watchdog.
    #[must_use]
    pub fn hang(tiny: bool) -> Spec {
        Spec {
            model: FaultModel::StuckAt,
            budget: CYCLE_BUDGET,
            trials: if tiny { 4 } else { 256 },
            prune: false,
            probe: Probe::Large,
        }
    }

    /// `inject-sweep`: transient flips pruned by `flexcheck::vuln`, under
    /// a 2 000-cycle watchdog.
    #[must_use]
    pub fn sweep(tiny: bool) -> Spec {
        Spec {
            model: FaultModel::Transient,
            budget: 2_000,
            trials: if tiny { 8 } else { 1024 },
            prune: true,
            probe: Probe::Medium,
        }
    }
}

/// One (dialect, kernel) campaign of the grid.
struct Cell {
    dialect: usize,
    target: Target,
    kernel: Kernel,
    seed: u64,
}

impl Cell {
    fn name(&self) -> String {
        format!("{} {}", DIALECTS[self.dialect], self.kernel)
    }
}

fn grid(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (dialect, name) in DIALECTS.iter().enumerate() {
        let target = flexinject::target_from_name(name).expect("built-in dialect name");
        for kernel in Kernel::ALL
            .into_iter()
            .filter(|k| k.supports(target.dialect))
        {
            let seed = flexshard::shard_seed(seed, cells.len() as u64);
            cells.push(Cell {
                dialect,
                target,
                kernel,
                seed,
            });
        }
    }
    cells
}

/// A cell made ready once: what `run_campaign` rebuilds on every call,
/// kept here for the replay.
struct Ready {
    prepared: PreparedKernel,
    sites: Vec<FaultSite>,
    clean_cycles: u64,
    vuln: Option<VulnReport>,
}

/// The set-up: assemble every cell, enumerate its fault sites, run its
/// fault-free reference and, when pruning, vuln-analyze it.
fn prepare(cells: &[Cell], spec: Spec, tr: &mut Tracer) -> Result<Vec<Ready>, String> {
    let mut ready = Vec::with_capacity(cells.len());
    for cell in cells {
        tr.begin(Layer::Assemble);
        let prepared = PreparedKernel::new(cell.kernel, cell.target);
        tr.end();
        let prepared = prepared.map_err(|e| format!("{}: {e}", cell.name()))?;
        tr.begin(Layer::Sites);
        let sites = sites::enumerate(cell.target.dialect);
        tr.end();
        let inputs = Sampler::new(cell.kernel, cell.seed ^ SAMPLER_SALT).draw();
        tr.begin(Layer::Reference);
        let clean = prepared.run_with(&inputs, spec.budget, &mut NoFaults);
        tr.end();
        let clean_cycles = clean
            .map_err(|e| format!("{} reference run: {e}", cell.name()))?
            .result
            .cycles
            .max(1);
        let vuln = spec.prune.then(|| {
            tr.begin(Layer::Vuln);
            let report = flexcheck::vuln::analyze(&cell.target, prepared.program());
            tr.end();
            report
        });
        ready.push(Ready {
            prepared,
            sites,
            clean_cycles,
            vuln,
        });
    }
    Ok(ready)
}

/// One timed pass: every cell's campaign, each timed on `clock`. Returns
/// the pass's seconds, each campaign's timing, and the campaign results.
fn campaign_pass(
    cells: &[Cell],
    ready: &[Ready],
    spec: Spec,
    clock: &mut HostClock,
) -> Result<(f64, Vec<Timed>, Vec<CampaignResult>), String> {
    let start = Instant::now();
    let mut unit_times = Vec::with_capacity(cells.len());
    let mut results = Vec::with_capacity(cells.len());
    for (cell, ready) in cells.iter().zip(ready) {
        let config = CampaignConfig {
            budget: spec.budget,
            model: spec.model,
            ..CampaignConfig::new(cell.target, cell.kernel, spec.trials, cell.seed)
        };
        let (result, timed) = clock.time(|| run_campaign_pruned(config, ready.vuln.as_ref()));
        unit_times.push(timed);
        results.push(result.map_err(|e| format!("{} campaign: {e}", cell.name()))?);
    }
    Ok((start.elapsed().as_secs_f64(), unit_times, results))
}

fn same_results(a: &[CampaignResult], b: &[CampaignResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.trials == y.trials && x.executed == y.executed && x.clean_cycles == y.clean_cycles
        })
}

/// Counts and per-layer nanoseconds of one replay pass.
#[derive(Debug, Default)]
struct Replay {
    outcomes: Tally,
    drawn: u64,
    pruned: u64,
    executed: u64,
    sim_cycles: u64,
    exec_ns: u64,
    hang_exec_ns: u64,
    /// Per dialect: core build + `run_with` + verify over executed trials.
    scalar_ns: [u64; 4],
    /// Per dialect: `run_batch` over the same trials.
    batch_ns: [u64; 4],
    batch_mismatches: u64,
    /// The packed-driver comparison, which an untraced replay skips.
    compare_ns: u64,
}

/// A replayed cell: its drawn faults and outcomes, and the pruned trials,
/// which the output check executes afterwards.
struct Replayed {
    faults: Vec<ArchFault>,
    outcomes: Vec<Outcome>,
    pruned: Vec<(ArchFault, Vec<u8>)>,
}

fn replay_cell(
    cell: &Cell,
    ready: &Ready,
    spec: Spec,
    tr: &mut Tracer,
    tally: &mut Replay,
) -> Replayed {
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let mut sampler = Sampler::new(cell.kernel, cell.seed ^ SAMPLER_SALT);
    let _reference_inputs = sampler.draw();
    let mut out = Replayed {
        faults: Vec::with_capacity(spec.trials),
        outcomes: Vec::with_capacity(spec.trials),
        pruned: Vec::new(),
    };
    let mut executed = Vec::new();
    for i in 0..spec.trials {
        tr.set_op(i);
        tr.begin(Layer::Draw);
        let fault = draw_fault(&mut rng, &ready.sites, spec.model, ready.clean_cycles);
        let inputs = sampler.draw();
        tr.end();
        tally.drawn += 1;
        out.faults.push(fault);
        if let Some(report) = &ready.vuln {
            tr.begin(Layer::Prune);
            let masked = report.is_masked_fault(&fault);
            tr.end();
            if masked {
                tally.pruned += 1;
                tally.outcomes.bump(Outcome::Masked);
                out.outcomes.push(Outcome::Masked);
                out.pruned.push((fault, inputs));
                continue;
            }
        }
        tr.begin(Layer::CoreBuild);
        let mut core = ready.prepared.core();
        let mut plane = FaultPlane::with_faults(vec![fault]);
        let mut input = ScriptedInput::new(inputs.clone());
        let mut output = RecordingOutput::new();
        let build_ns = tr.end();
        tr.begin(Layer::CoreExec);
        let result = core.run_with(&mut input, &mut output, spec.budget, &mut plane);
        let exec_ns = tr.end();
        tr.begin(Layer::Verify);
        let run = result
            .map_err(RunError::from)
            .and_then(|r| ready.prepared.verify(&inputs, output.values(), r));
        let verify_ns = tr.end();
        tr.begin(Layer::Classify);
        let outcome = classify(run);
        tr.end();
        tally.executed += 1;
        tally.outcomes.bump(outcome);
        tally.sim_cycles += core.cycles();
        tally.exec_ns += exec_ns;
        if outcome == Outcome::Hang {
            tally.hang_exec_ns += exec_ns;
        }
        tally.scalar_ns[cell.dialect] += build_ns + exec_ns + verify_ns;
        out.outcomes.push(outcome);
        if tr.is_on() {
            executed.push((i, fault, inputs));
        }
    }
    if tr.is_on() {
        // The packed driver on the identical executed trials, batched as
        // run_campaign batches them.
        let compare = Instant::now();
        tr.set_op(spec.trials);
        tr.begin(Layer::Batch);
        let cases = executed
            .iter()
            .map(|(_, fault, inputs)| BatchCase {
                inputs: inputs.clone(),
                faults: FaultPlane::with_faults(vec![*fault]),
            })
            .collect();
        let runs = ready.prepared.run_batch(cases, spec.budget);
        tally.batch_ns[cell.dialect] += tr.end();
        tr.begin(Layer::Classify);
        for ((i, _, _), run) in executed.iter().zip(runs) {
            if classify(run) != out.outcomes[*i] {
                tally.batch_mismatches += 1;
            }
        }
        tr.end();
        tally.compare_ns += u64::try_from(compare.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    out
}

/// One replay pass over the grid: its tally, its seconds, and the cells.
fn replay_pass(
    cells: &[Cell],
    ready: &[Ready],
    spec: Spec,
    tr: &mut Tracer,
) -> (Replay, f64, Vec<Replayed>) {
    let mut tally = Replay::default();
    let t = Instant::now();
    let replayed = cells
        .iter()
        .zip(ready)
        .map(|(cell, ready)| replay_cell(cell, ready, spec, tr, &mut tally))
        .collect();
    (tally, t.elapsed().as_secs_f64(), replayed)
}

/// Run an inject workload.
///
/// # Errors
///
/// A cell that fails to assemble or to pass its fault-free reference run.
pub fn run(opts: &Options, spec: Spec) -> Result<Report, String> {
    let cells = grid(opts.seed);
    let mut rep = Report::default();
    let mut clock = HostClock::new(spec.probe)?;
    let prep = || prepare(&cells, spec, &mut Tracer::new(false));
    let (ready, mut setup_times) = crate::repeat_setup(opts.tiny, &mut clock, prep, drop)?;

    let trials_per_pass = cells.len() * spec.trials;
    let mut unit_times = vec![Vec::new(); cells.len()];
    let mut first: Option<Vec<CampaignResult>> = None;
    let mut repeated = true;
    let pass_secs = crate::run_passes(opts.untraced_seconds(), opts.tiny, || {
        let (secs, units, results) = campaign_pass(&cells, &ready, spec, &mut clock)?;
        for (cell, timed) in unit_times.iter_mut().zip(units) {
            cell.push(timed);
        }
        if let Some(first) = &first {
            repeated &= same_results(first, &results);
        } else {
            first = Some(results);
        }
        setup_times.extend(crate::time_setups(opts.tiny, &mut clock, prep, drop)?);
        Ok(secs)
    })?;
    clock.close();
    let peak_rss = report::peak_rss_mib() - clock.probe().table_mib();
    let first = first.expect("run_passes runs at least one pass");
    // Each campaign at its median scaled time.
    let unit_secs: Vec<f64> = unit_times
        .iter()
        .map(|times| report::median(&clock.all_scaled(times)))
        .collect();
    let ops_per_s = trials_per_pass as f64 / unit_secs.iter().sum::<f64>();
    let pass_ms = crate::pass_scaled_ms(&clock, &unit_times);
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
    rep.attempted = (trials_per_pass * pass_secs.len()) as u64;
    rep.note(format!(
        "timed passes of {} campaigns x {} trials, raw seconds: {}; scaled ms: {}",
        cells.len(),
        spec.trials,
        report::summary(&pass_secs),
        report::summary(&pass_ms)
    ));
    rep.note(format!(
        "set-ups, raw seconds: {}",
        report::summary(&setup_times.iter().map(|t| t.raw).collect::<Vec<_>>())
    ));

    // The untraced replay: the output check and the deterministic counts.
    let (counted, untraced_secs, replayed) =
        replay_pass(&cells, &ready, spec, &mut Tracer::new(false));
    let mut mismatched = 0u64;
    let mut executed_ok = true;
    for (campaign, replay) in first.iter().zip(&replayed) {
        for (i, trial) in campaign.trials.iter().enumerate() {
            if replay.faults.get(i) != Some(&trial.fault)
                || replay.outcomes.get(i) != Some(&trial.outcome)
            {
                mismatched += 1;
            }
        }
        executed_ok &= campaign.trials.len() == spec.trials
            && campaign.executed == spec.trials - replay.pruned.len();
    }
    rep.failed = mismatched;
    rep.check(
        "campaign faults and outcomes equal the scalar run_with replay",
        mismatched == 0,
    );
    rep.check("every timed pass repeated the first exactly", repeated);
    rep.check(
        "each campaign executed exactly the trials not pruned",
        executed_ok,
    );
    if spec.prune {
        let mut unmasked = 0;
        for (replay, ready) in replayed.iter().zip(&ready) {
            for (fault, inputs) in &replay.pruned {
                let mut plane = FaultPlane::with_faults(vec![*fault]);
                let outcome = classify(ready.prepared.run_with(inputs, spec.budget, &mut plane));
                unmasked += usize::from(outcome != Outcome::Masked);
            }
        }
        rep.check("pruned trials execute to Masked", unmasked == 0);
    }

    rep.count("grid.cells", cells.len() as u64);
    rep.count("inject.drawn", counted.drawn);
    rep.count("inject.pruned", counted.pruned);
    rep.count("inject.executed", counted.executed);
    rep.count("inject.outcome.masked", counted.outcomes.masked as u64);
    rep.count("inject.outcome.sdc", counted.outcomes.sdc as u64);
    rep.count("inject.outcome.crash", counted.outcomes.crash as u64);
    rep.count("inject.outcome.hang", counted.outcomes.hang as u64);
    rep.count("core.sim_cycles", counted.sim_cycles);
    rep.count("core.hangs", counted.outcomes.hang as u64);

    if opts.trace {
        traced(
            opts,
            &cells,
            &ready,
            spec,
            &mut rep,
            (&counted, untraced_secs),
        )?;
    }
    Ok(rep)
}

/// The traced half: the set-up once with spans, then replay passes, each
/// untraced and then traced, so `trace.overhead` compares the same work
/// under the same host conditions.
fn traced(
    opts: &Options,
    cells: &[Cell],
    ready: &[Ready],
    spec: Spec,
    rep: &mut Report,
    (counted, first_untraced): (&Replay, f64),
) -> Result<(), String> {
    let mut setup_tr = Tracer::new(true);
    prepare(cells, spec, &mut setup_tr)?;
    let mut tr = Tracer::new(true);
    let mut passes: Vec<(Replay, f64)> = Vec::new();
    let mut untraced_secs = vec![first_untraced];
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        if !passes.is_empty() {
            untraced_secs.push(replay_pass(cells, ready, spec, &mut Tracer::new(false)).1);
        }
        let (tally, secs, _) = replay_pass(cells, ready, spec, &mut tr);
        passes.push((tally, secs));
    }
    rep.check(
        "run_batch outcomes equal the scalar run_with outcomes",
        passes.iter().all(|(p, _)| p.batch_mismatches == 0),
    );
    let n = passes.len() as f64;
    let wall: f64 = passes.iter().map(|(_, w)| w).sum();
    for layer in [Layer::Assemble, Layer::Sites, Layer::Reference, Layer::Vuln] {
        rep.layer(layer.metric(), "s", setup_tr.self_secs(layer));
    }
    for layer in [
        Layer::Draw,
        Layer::Prune,
        Layer::CoreBuild,
        Layer::CoreExec,
        Layer::Verify,
        Layer::Classify,
        Layer::Batch,
    ] {
        rep.layer(layer.metric(), "s", tr.self_secs(layer) / n);
    }
    rep.layer(
        "inject.prune_ratio",
        "ratio",
        report::ratio(counted.pruned as f64, counted.drawn as f64),
    );
    rep.layer(
        "core.sim_cycles_per_s",
        "1/s",
        report::ratio(counted.sim_cycles as f64 * n, tr.self_secs(Layer::CoreExec)),
    );
    let summed = |f: fn(&Replay) -> u64| passes.iter().map(|(p, _)| f(p)).sum::<u64>() as f64;
    rep.layer(
        "core.hang_share",
        "ratio",
        report::ratio(summed(|p| p.hang_exec_ns), summed(|p| p.exec_ns)),
    );
    for (d, name) in DIALECTS.iter().enumerate() {
        let packed: u64 = passes.iter().map(|(p, _)| p.batch_ns[d]).sum();
        let scalar: u64 = passes.iter().map(|(p, _)| p.scalar_ns[d]).sum();
        rep.layer(
            &format!("core.packed_over_scalar.{name}"),
            "ratio",
            report::ratio(packed as f64, scalar as f64),
        );
    }
    rep.layer(
        "trace.coverage",
        "ratio",
        report::ratio(tr.total_self_secs(), wall),
    );
    // Traced over untraced throughput of the same replay; the packed
    // comparison only the traced passes make is left out.
    let traced_secs = wall - summed(|p| p.compare_ns) * 1e-9;
    rep.layer(
        "trace.overhead",
        "ratio",
        report::ratio(untraced_secs.iter().sum::<f64>(), traced_secs),
    );
    crate::write_trace(opts, rep, &[("setup", &setup_tr), ("replay", &tr)]);
    Ok(())
}
