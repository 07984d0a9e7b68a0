//! In-memory span tracer for the per-layer split.
//!
//! The benchmark's own code opens and closes spans around calls into each
//! layer's public functions. A span's *self time* is its duration minus
//! the time covered by its child spans. Self times are summed per layer
//! as spans close, so the aggregates cover every span; the first
//! [`SPAN_CAP`] raw spans are also kept and written out at the end by
//! [`write_tsv`].

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Raw spans kept for the trace file (the aggregates cover all spans).
pub const SPAN_CAP: usize = 1 << 16;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `flexkernels::harness::PreparedKernel::new` (the `flexasm` assembler).
    Assemble,
    /// `flexcheck::vuln::analyze`.
    Vuln,
    /// `flexinject::sites::enumerate`.
    Sites,
    /// The fault-free reference run (`PreparedKernel::run_with`).
    Reference,
    /// `flexinject::campaign::draw_fault` plus `Sampler::draw`.
    Draw,
    /// `VulnReport::is_masked_fault`.
    Prune,
    /// Lane construction: `PreparedKernel::core`, the fault plane and ports.
    CoreBuild,
    /// Scalar `AnyCore::run_with`.
    CoreExec,
    /// `PreparedKernel::verify` (the oracle check).
    Verify,
    /// `flexinject::campaign::classify`.
    Classify,
    /// `PreparedKernel::run_batch` on the same trials (packed driver).
    Batch,
    /// `WaferExperiment::new`.
    Fabricate,
    /// `WaferExperiment::run` (gate-level tester).
    Screen,
    /// `SalvageScreen::new`.
    SalvagePrepare,
    /// `SalvageScreen::analyze`.
    SalvageAnalyze,
    /// `flexserve::protocol` request and reply codec.
    Codec,
    /// `encode_core` + `DiskCache::key_for`.
    Key,
    /// `DiskCache::get`.
    CacheGet,
    /// `DiskCache::put`.
    CachePut,
    /// `Engine::execute` of an assemble request.
    ComputeAssemble,
    /// `Engine::execute` of a check request.
    ComputeCheck,
    /// `Engine::execute` of an admit request.
    ComputeAdmit,
    /// `Engine::execute` of a vuln request.
    ComputeVuln,
    /// `Engine::execute` of a simulate request.
    ComputeSimulate,
    /// `Client::call` against the daemon.
    Rtt,
}

const LAYERS: usize = Layer::Rtt as usize + 1;

impl Layer {
    /// The per-layer metric the layer's self time feeds.
    #[must_use]
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Assemble => "asm.assemble_s",
            Layer::Vuln => "check.vuln_s",
            Layer::Sites => "inject.sites_s",
            Layer::Reference => "kernels.reference_s",
            Layer::Draw => "inject.draw_s",
            Layer::Prune => "inject.prune_s",
            Layer::CoreBuild => "core.build_s",
            Layer::CoreExec => "core.exec_s",
            Layer::Verify => "kernels.verify_s",
            Layer::Classify => "inject.classify_s",
            Layer::Batch => "kernels.batch_s",
            Layer::Fabricate => "fab.fabricate_s",
            Layer::Screen => "fab.screen_s",
            Layer::SalvagePrepare => "salvage.prepare_s",
            Layer::SalvageAnalyze => "salvage.analyze_s",
            Layer::Codec => "serve.codec_s",
            Layer::Key => "serve.key_s",
            Layer::CacheGet => "serve.cache_get_s",
            Layer::CachePut => "serve.cache_put_s",
            Layer::ComputeAssemble => "serve.compute_s.assemble",
            Layer::ComputeCheck => "serve.compute_s.check",
            Layer::ComputeAdmit => "serve.compute_s.admit",
            Layer::ComputeVuln => "serve.compute_s.vuln",
            Layer::ComputeSimulate => "serve.compute_s.simulate",
            Layer::Rtt => "serve.rtt_s",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started;
/// `op` identifies the trial, die or request the span served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Index of the enclosing span, if it was kept.
    pub parent: Option<u32>,
    /// The operation the span belongs to.
    pub op: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    slot: Option<u32>,
    start: Instant,
    child_ns: u64,
}

/// A span recorder. A tracer built with `on = false` records nothing and
/// costs one branch per call, so untraced runs share the traced code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    stack: Vec<Open>,
    self_ns: [u64; LAYERS],
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            self_ns: [0; LAYERS],
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the following spans with operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = u32::try_from(op).unwrap_or(u32::MAX);
    }

    /// Open a span of `layer`.
    #[inline]
    pub fn begin(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                parent: self.stack.last().and_then(|open| open.slot),
                op: self.op,
                start_ns: 0,
                end_ns: 0,
            });
            u32::try_from(self.spans.len() - 1).ok()
        } else {
            None
        };
        let start = Instant::now();
        if let Some(slot) = slot {
            self.spans[slot as usize].start_ns = nanos(start - self.origin);
        }
        self.stack.push(Open {
            layer,
            slot,
            start,
            child_ns: 0,
        });
    }

    /// Close the innermost open span; returns its duration in ns (0 when
    /// the tracer is off).
    ///
    /// # Panics
    ///
    /// If no span is open: begin/end pairing is the caller's invariant.
    #[inline]
    pub fn end(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let now = Instant::now();
        let open = self
            .stack
            .pop()
            .expect("Tracer::end without a matching begin");
        let duration = nanos(now - open.start);
        self.self_ns[open.layer as usize] += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = nanos(now - self.origin);
        }
        duration
    }

    /// Summed self time of `layer`, in seconds.
    #[must_use]
    pub fn self_secs(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }

    /// Summed self time of every layer, in seconds.
    #[must_use]
    pub fn total_self_secs(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Write the kept spans of each `(phase, tracer)` to `path` as TSV:
/// phase, layer metric, op, parent index, start ns, end ns.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_tsv(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase\tlayer\top\tparent\tstart_ns\tend_ns")?;
    for (phase, tracer) in tracers {
        for span in &tracer.spans {
            let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{phase}\t{}\t{}\t{parent}\t{}\t{}",
                span.layer.metric(),
                span.op,
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    out.flush()
}
