//! Results of one run — metrics, deterministic counts, output checks and
//! the final JSON line — plus the small statistics every workload shares.

use std::fmt::Write as _;

use crate::{END_TO_END, PER_LAYER};

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed region (trials, dies, requests).
    pub attempted: u64,
    /// Operations that failed: error replies or output mismatches.
    pub failed: u64,
    /// Host-time end-to-end metrics of the untraced measurement.
    pub end_to_end: Vec<Metric>,
    /// Host-time per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Deterministic counts: they repeat exactly for the same seed.
    pub counts: Vec<(String, u64)>,
    /// Output checks, each with whether it held.
    pub checks: Vec<(String, bool)>,
    /// Context that is neither a metric nor a count.
    pub notes: Vec<String>,
}

impl Report {
    /// Record an end-to-end metric.
    pub fn end_to_end(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record a per-layer host-time metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record a deterministic count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Record an output check.
    pub fn check(&mut self, what: &str, held: bool) {
        self.checks.push((what.to_string(), held));
    }

    /// Add a note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Whether every check held and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, held)| *held)
    }

    /// The metrics the result line carries, in `BENCHMARK.json` order:
    /// every end-to-end metric when untraced, every per-layer metric when
    /// traced. Per-layer counts are read from [`Report::counts`]; a layer
    /// the workload does not exercise reads 0.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that was not measured, a per-layer metric
    /// missing from the registry, or a value that is not finite.
    pub fn result_metrics(&self, traced: bool) -> Result<Vec<Metric>, String> {
        let metrics: Vec<Metric> = if traced {
            if let Some(stray) = self
                .per_layer
                .iter()
                .find(|m| !PER_LAYER.iter().any(|(name, _, _)| *name == m.name))
            {
                return Err(format!(
                    "per-layer metric `{}` is not registered",
                    stray.name
                ));
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let value = if unit == "count" {
                        self.counts
                            .iter()
                            .find(|(n, _)| n == name)
                            .map_or(0.0, |&(_, v)| v as f64)
                    } else {
                        self.per_layer
                            .iter()
                            .find(|m| m.name == name)
                            .map_or(0.0, |m| m.value)
                    };
                    Metric {
                        name: name.to_string(),
                        unit,
                        value,
                    }
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _, _)| {
                    self.end_to_end
                        .iter()
                        .find(|m| m.name == name)
                        .map(|m| Metric {
                            name: name.to_string(),
                            unit,
                            value: m.value,
                        })
                        .ok_or_else(|| format!("end-to-end metric `{name}` was not measured"))
                })
                .collect::<Result<_, _>>()?
        };
        if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric `{}` is not finite", bad.name));
        }
        Ok(metrics)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// As [`Report::result_metrics`].
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.result_metrics(traced)?.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        Ok(line)
    }

    /// Human-readable sections: host time, deterministic counts, checks.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("## host time (varies from run to run)\n");
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out.push_str("## counts (deterministic: repeat exactly for the same seed)\n");
        for (name, value) in &self.counts {
            let _ = writeln!(out, "  {name:<34} {value:>18}");
        }
        out.push_str("## output checks\n");
        for (what, held) in &self.checks {
            let _ = writeln!(out, "  {} {what}", if *held { "ok  " } else { "FAIL" });
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }
}

/// Quantile `q` of `values`, interpolating linearly between order
/// statistics; 0 for no values.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `values` summarized as `n=.. min=.. median=.. max=..` (for notes).
#[must_use]
pub fn summary(values: &[f64]) -> String {
    format!(
        "n={} min={:.4} median={:.4} max={:.4}",
        values.len(),
        quantile(values, 0.0),
        median(values),
        quantile(values, 1.0)
    )
}

/// The median of `values`; 0 for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is not positive.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// This process's peak resident set size in MiB (`VmHWM`), 0 if unknown.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's git revision, read from `.git` in the working
/// directory (no git process is started); "unknown" outside a clone or
/// when the branch ref is packed.
#[must_use]
pub fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".to_string(), |rev| rev.trim().to_string()),
    }
}
