//! # perfbench
//!
//! The perf ledger for the FlexiCores stack. One command runs one named
//! workload through the library APIs in a single process, checks its
//! outputs, and prints every metric by name and unit. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics for `--trace 0`, the
//! per-layer split for `--trace 1`. `BENCHMARK.json` at the repository
//! root is the output of `perfbench manifest`, generated from the tables
//! below; `README.md` explains each workload and metric.

pub mod host;
pub mod inject;
pub mod report;
pub mod serve;
pub mod trace;
pub mod yield_salvage;

use std::path::PathBuf;
use std::time::Instant;

pub use host::{HostClock, Probe, Timed};
pub use report::{Metric, Report};

/// The command that runs the ledger from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 25;

/// The workloads, and why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "inject-hang",
        "flexi inject defaults on every dialect x kernel: about 13% of stuck-at trials hang and take about 99% of host time, so the step loop and watchdog path show",
    ),
    (
        "inject-sweep",
        "vuln-pruned transient campaigns with a 2k watchdog: hangs are bypassed and per-trial overhead (draw, core build, verify, batching) dominates",
    ),
    (
        "yield-salvage",
        "Table 5 published wafers screened gate-level at 50k vectors, failing dies classified by the salvage screen: the only workload for flexfab and flexgate",
    ),
    (
        "serve-mixed",
        "in-process daemon, one closed-loop client: 3 in 4 requests read the primed cache, 1 in 4 are new and computed then stored with fsync, some in batches",
    ),
];

/// End-to-end metrics: name, unit, the better direction, and the share
/// of the parent's median by which the metric may worsen.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics: name, unit, the better direction. Times are self
/// times per set-up (set-up layers) or per pass (the rest).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
    ("asm.assemble_s", "s", "lower"),
    ("check.vuln_s", "s", "lower"),
    ("inject.sites_s", "s", "lower"),
    ("kernels.reference_s", "s", "lower"),
    ("inject.draw_s", "s", "lower"),
    ("inject.prune_s", "s", "lower"),
    ("inject.classify_s", "s", "lower"),
    ("inject.drawn", "count", "higher"),
    ("inject.pruned", "count", "higher"),
    ("inject.executed", "count", "lower"),
    ("inject.prune_ratio", "ratio", "higher"),
    ("inject.outcome.masked", "count", "higher"),
    ("inject.outcome.sdc", "count", "lower"),
    ("inject.outcome.crash", "count", "lower"),
    ("inject.outcome.hang", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.exec_s", "s", "lower"),
    ("core.sim_cycles", "count", "lower"),
    ("core.sim_cycles_per_s", "1/s", "higher"),
    ("core.hangs", "count", "lower"),
    ("core.hang_share", "ratio", "lower"),
    ("core.packed_over_scalar.fc4", "ratio", "lower"),
    ("core.packed_over_scalar.fc8", "ratio", "lower"),
    ("core.packed_over_scalar.xacc", "ratio", "lower"),
    ("core.packed_over_scalar.xls", "ratio", "lower"),
    ("kernels.verify_s", "s", "lower"),
    ("kernels.batch_s", "s", "lower"),
    ("fab.fabricate_s", "s", "lower"),
    ("fab.screen_s", "s", "lower"),
    ("fab.vectors_per_s", "1/s", "higher"),
    ("fab.dies", "count", "higher"),
    ("salvage.prepare_s", "s", "lower"),
    ("salvage.analyze_s", "s", "lower"),
    ("salvage.functional", "count", "higher"),
    ("salvage.salvaged", "count", "higher"),
    ("salvage.timing_failure", "count", "lower"),
    ("salvage.unsalvageable", "count", "lower"),
    ("serve.codec_s", "s", "lower"),
    ("serve.key_s", "s", "lower"),
    ("serve.cache_get_s", "s", "lower"),
    ("serve.cache_put_s", "s", "lower"),
    ("serve.compute_s.assemble", "s", "lower"),
    ("serve.compute_s.check", "s", "lower"),
    ("serve.compute_s.admit", "s", "lower"),
    ("serve.compute_s.vuln", "s", "lower"),
    ("serve.compute_s.simulate", "s", "lower"),
    ("serve.rtt_s", "s", "lower"),
    ("serve.transport_s", "s", "lower"),
    ("serve.hits", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.writes", "count", "lower"),
    ("serve.sheds", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Take the traced per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Shrink every workload to a handful of operations (the smoke test).
    pub tiny: bool,
}

impl Options {
    /// Seconds of untraced measurement: all of them, or the first half
    /// of a traced run (the second half is traced).
    #[must_use]
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run one workload.
///
/// # Errors
///
/// An unknown workload, or a library call that failed outright.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "inject-hang" => inject::run(opts, inject::Spec::hang(opts.tiny)),
        "inject-sweep" => inject::run(opts, inject::Spec::sweep(opts.tiny)),
        "yield-salvage" => yield_salvage::run(opts),
        "serve-mixed" => serve::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Where runs leave scratch files (daemon caches, trace files), relative
/// to the working directory.
#[must_use]
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A full-size run repeats its pass at least this often, so the median
/// has company even when one pass is long.
const MIN_PASSES: usize = 3;

/// Run `pass` until `seconds` of wall time have gone, at least
/// [`MIN_PASSES`] times (once when `tiny`). `pass` returns the seconds of
/// its own timed region, so bookkeeping between passes stays out of it.
///
/// # Errors
///
/// The first error a pass returns.
pub fn run_passes(
    seconds: f64,
    tiny: bool,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let min = if tiny { 1 } else { MIN_PASSES };
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || start.elapsed().as_secs_f64() < seconds {
        secs.push(pass()?);
    }
    Ok(secs)
}

/// A full-size run sets up this many times before the first pass and
/// again after every pass, so set-up is sampled across the whole run like
/// the passes are. One-shot set-ups of a few milliseconds read far too
/// noisily to hold a bound.
const SETUP_REPS: usize = 4;

/// Set-ups in a row: [`SETUP_REPS`], or 2 when `tiny`.
#[must_use]
pub fn setup_reps(tiny: bool) -> usize {
    if tiny {
        2
    } else {
        SETUP_REPS
    }
}

/// Set up [`setup_reps`] times in a row, each
/// timed on `clock`, and return the last result with every repetition's
/// timing. Earlier results go to `discard`, outside the timing.
///
/// # Errors
///
/// The first error `make` returns.
pub fn repeat_setup<T>(
    tiny: bool,
    clock: &mut HostClock,
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<Timed>), String> {
    let reps = setup_reps(tiny);
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let (made, timed) = clock.time(&mut make);
        times.push(timed);
        if let Some(old) = kept.take() {
            discard(old);
        }
        kept = Some(made?);
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, times))
}

/// [`repeat_setup`] between passes: only the timings are kept, every
/// result goes to `discard`.
///
/// # Errors
///
/// The first error `make` returns.
pub fn time_setups<T>(
    tiny: bool,
    clock: &mut HostClock,
    make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<Vec<Timed>, String> {
    let (last, times) = repeat_setup(tiny, clock, make, &mut discard)?;
    discard(last);
    Ok(times)
}

/// Each pass's scaled milliseconds: the sum of its units' scaled times.
/// `unit_times` holds one timing per pass for each unit. A batch
/// workload's latency unit is the whole pass, which is what a user of
/// `flexi inject` or `table5` waits for; its parts vary with the seed's
/// draws far more than the whole does.
#[must_use]
pub fn pass_scaled_ms(clock: &HostClock, unit_times: &[Vec<Timed>]) -> Vec<f64> {
    let passes = unit_times.iter().map(Vec::len).min().unwrap_or(0);
    (0..passes)
        .map(|p| {
            unit_times
                .iter()
                .map(|times| clock.scaled(times[p]) * 1e3)
                .sum()
        })
        .collect()
}

/// Write a traced run's kept spans into the scratch directory and note
/// where they went.
pub fn write_trace(opts: &Options, report: &mut Report, tracers: &[(&str, &trace::Tracer)]) {
    let path = scratch_dir().join(format!("trace-{}-seed{}.tsv", opts.workload, opts.seed));
    match trace::write_tsv(&path, tracers) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}

/// `BENCHMARK.json`, generated from [`COMMAND`], [`WORKLOADS`],
/// [`END_TO_END`] and [`PER_LAYER`].
#[must_use]
pub fn manifest_json() -> String {
    let rows = |rows: Vec<String>| {
        rows.iter()
            .map(|row| format!("    {row}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let command = COMMAND
        .iter()
        .map(|arg| format!("\"{arg}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}
