//! `serve-mixed`: an in-process `flexserve` daemon, its cache in a fresh
//! directory under the working directory, driven closed-loop from the
//! same process over one client connection.
//!
//! Every round replays one seeded template of calls. 3 in 4 requests
//! repeat a warm set primed before the first round (cache reads); 1 in 4 are
//! variants never seen before — a trailing comment changes the source
//! and so the cache key — which the daemon computes and stores with an
//! fsync'd `put`. One call in 16 is a `Batch` of warm requests, as
//! `flexi client batch` sends. Request kinds are assemble, check, admit,
//! vuln and simulate over every (dialect × supported kernel). A variant
//! carries its round number, so it is new in every round and the cache
//! counters repeat exactly from round to round.

use std::path::PathBuf;
use std::time::Instant;

use flexkernels::harness::CYCLE_BUDGET;
use flexkernels::inputs::Sampler;
use flexkernels::Kernel;
use flexserve::protocol::{
    decode_batch_data, decode_reply, decode_reply_core, decode_request, encode_batch_data,
    encode_core, encode_reply, encode_reply_core, encode_request,
};
use flexserve::{
    Client, Deadline, DiskCache, Engine, Reply, ReplyStatus, Request, ServeConfig, ServerHandle,
    StatusSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{HostClock, Probe, Timed};
use crate::report::{self, Report};
use crate::trace::{Layer, Tracer};
use crate::Options;

/// Dialects, with the feature string the daemon takes for each.
const DIALECTS: [(&str, &str); 4] = [
    ("fc4", ""),
    ("fc8", ""),
    ("xacc", "revised"),
    ("xls", "revised"),
];
/// Request kinds: assemble, check, admit, vuln, simulate.
const KINDS: usize = 5;
/// Deny findings at error severity, where every suite kernel is clean.
const DENY_ERROR: u8 = 2;
/// One call in `BATCH_EVERY` is a batch of `BATCH_LEN` requests. Warm
/// single calls are then 41 of a round's 64, so the median call is one of
/// them. At one in 8 they were 34: the median sat on the edge between
/// warm reads and slower calls, and `p50_ms` spread 0.18 across seeds.
const BATCH_EVERY: usize = 16;
const BATCH_LEN: usize = 4;
/// Work-queue depth: one client with 4-request batches never fills it,
/// so the closed loop never sheds.
const QUEUE_DEPTH: usize = 64;
/// Rounds per measurement window (about a quarter second of traffic):
/// each window yields one throughput and one latency distribution.
const ROUNDS_PER_WINDOW: usize = 16;

/// Set-ups are timed after every `SETUPS_EVERY`th window. That keeps the
/// closed loopback connections they leave behind, each waiting out its
/// timeout, to tens rather than hundreds.
const SETUPS_EVERY: usize = 8;

/// A kernel's source for one dialect.
struct Pair {
    dialect: &'static str,
    features: &'static str,
    source: String,
}

/// A request before its variant tag: which pair, which kind, which inputs.
#[derive(Debug, Clone)]
struct Spec {
    pair: usize,
    kind: usize,
    inputs: Vec<u8>,
}

/// Where a request of the round template comes from.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Warm(usize),
    Fresh(usize),
}

/// The seeded traffic: the warm set and the round template, whose calls
/// are `(batched, requests)`.
struct Plan {
    pairs: Vec<Pair>,
    warm: Vec<Spec>,
    fresh: Vec<Spec>,
    calls: Vec<(bool, Vec<Slot>)>,
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Plan {
    fn new(seed: u64, tiny: bool) -> Plan {
        let (warm_len, calls_len) = if tiny { (10, 16) } else { (40, 64) };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        let mut kernels = Vec::new();
        for (dialect, features) in DIALECTS {
            let target = flexinject::target_from_name(dialect).expect("built-in dialect name");
            for kernel in Kernel::ALL
                .into_iter()
                .filter(|k| k.supports(target.dialect))
            {
                pairs.push(Pair {
                    dialect,
                    features,
                    source: kernel.source_for(target.dialect),
                });
                kernels.push(kernel);
            }
        }
        let spec = |pair: usize, kind: usize, rng: &mut StdRng| Spec {
            pair,
            kind,
            inputs: Sampler::new(kernels[pair], rng.gen()).draw(),
        };
        // The warm set is fixed: kind k on pairs k·n .. k·n + n − 1 (mod
        // the pair count), n = warm_len / KINDS. Every (pair, kind) is
        // distinct, so every warm request has its own cache entry. The
        // seed draws only inputs and positions: when it drew the warm set,
        // which replies the median call read depended on it, and `p50_ms`
        // came out 0.051 or 0.058 ms by seed.
        let per_kind = warm_len / KINDS;
        let warm: Vec<Spec> = (0..warm_len)
            .map(|w| {
                let kind = w % KINDS;
                spec((kind * per_kind + w / KINDS) % pairs.len(), kind, &mut rng)
            })
            .collect();
        // Batches carry warm requests only, and the variants are a fixed
        // set — variant j is kind j % 5 on pair j — so every seed's round
        // does the same work and only positions move. Left to chance, the
        // slowest few calls of a round (its p99) depend on which variants
        // a seed happens to put where.
        let mut batched: Vec<bool> = (0..calls_len)
            .map(|i| i % BATCH_EVERY == BATCH_EVERY - 1)
            .collect();
        shuffle(&mut batched, &mut rng);
        let items: usize = batched.iter().map(|&b| if b { BATCH_LEN } else { 1 }).sum();
        let singles = batched.iter().filter(|&&b| !b).count();
        let fresh: Vec<Spec> = (0..items / 4)
            .map(|j| spec(j % pairs.len(), j % KINDS, &mut rng))
            .collect();
        // Warm slots go round the warm set evenly: single calls take the
        // first pass, batches the rest, each in a seeded order.
        let warm_singles = singles - fresh.len();
        let mut single_slots: Vec<Slot> = (0..fresh.len())
            .map(Slot::Fresh)
            .chain((0..warm_singles).map(|i| Slot::Warm(i % warm_len)))
            .collect();
        let mut batch_slots: Vec<Slot> = (warm_singles..items - fresh.len())
            .map(|i| Slot::Warm(i % warm_len))
            .collect();
        shuffle(&mut single_slots, &mut rng);
        shuffle(&mut batch_slots, &mut rng);
        let (mut single_slots, mut batch_slots) =
            (single_slots.into_iter(), batch_slots.into_iter());
        let calls = batched
            .into_iter()
            .map(|b| {
                if b {
                    let slots = batch_slots.by_ref().take(BATCH_LEN).collect();
                    (true, slots)
                } else {
                    let slot = single_slots.next().expect("one slot per single call");
                    (false, vec![slot])
                }
            })
            .collect();
        Plan {
            pairs,
            warm,
            fresh,
            calls,
        }
    }

    /// Requests answered per round (a batch answers one per entry).
    fn items(&self) -> usize {
        self.calls.iter().map(|(_, slots)| slots.len()).sum()
    }

    fn request(&self, spec: &Spec, variant: Option<u64>) -> Request {
        let pair = &self.pairs[spec.pair];
        let mut source = pair.source.clone();
        if let Some(tag) = variant {
            source.push_str(&format!("\n; perfbench variant {tag}\n"));
        }
        let (dialect, features) = (pair.dialect.to_string(), pair.features.to_string());
        match spec.kind {
            0 => Request::Assemble {
                dialect,
                features,
                source,
            },
            1 => Request::Check {
                dialect,
                features,
                source,
                deny: DENY_ERROR,
            },
            2 => Request::Admit {
                dialect,
                features,
                source,
                deny: DENY_ERROR,
            },
            3 => Request::Vuln {
                dialect,
                features,
                source,
            },
            _ => Request::Simulate {
                dialect,
                features,
                source,
                inputs: spec.inputs.clone(),
                max_cycles: CYCLE_BUDGET,
            },
        }
    }

    fn slot_request(&self, slot: Slot, round: u64) -> Request {
        match slot {
            Slot::Warm(w) => self.request(&self.warm[w], None),
            Slot::Fresh(f) => self.request(
                &self.fresh[f],
                Some(round * self.fresh.len() as u64 + f as u64),
            ),
        }
    }

    /// Round `round`'s calls, in template order.
    fn round(&self, round: u64) -> Vec<Request> {
        self.calls
            .iter()
            .map(|(batched, slots)| {
                let mut requests: Vec<Request> = slots
                    .iter()
                    .map(|&slot| self.slot_request(slot, round))
                    .collect();
                if *batched {
                    Request::Batch(requests)
                } else {
                    requests.remove(0)
                }
            })
            .collect()
    }

    fn warm_requests(&self) -> Vec<Request> {
        self.warm.iter().map(|s| self.request(s, None)).collect()
    }
}

/// The daemon runs one worker and is driven over one client connection.
/// With two of each on a shared two-CPU host, cross-CPU wake-ups doubled
/// the run-to-run spread of the latency percentiles.
const WORKERS: usize = 1;

/// Pin the calling thread, and so every thread it spawns later, to CPU 0
/// with `taskset`. Client, connection thread and worker then hand each
/// request on without cross-CPU wake-ups, whose cost on a shared virtual
/// host varies from run to run far more than a context switch does.
/// Returns a note saying what happened; a run that cannot pin goes on
/// unpinned.
fn pin_to_one_cpu() -> String {
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| link.file_name()?.to_str().map(str::to_string));
    let Some(tid) = tid else {
        return "not pinned: no /proc/thread-self".to_string();
    };
    match std::process::Command::new("taskset")
        .args(["-p", "-c", "0", &tid])
        .output()
    {
        Ok(out) if out.status.success() => "daemon and client pinned to CPU 0".to_string(),
        Ok(out) => format!(
            "not pinned: taskset said {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ),
        Err(e) => format!("not pinned: taskset: {e}"),
    }
}

struct Daemon {
    handle: ServerHandle,
    client: Client,
    dir: PathBuf,
}

/// The timed set-up: bind the daemon on `dir`, a fresh cache directory
/// made beforehand, spawn its worker and connect the client. Priming the
/// warm set follows, untimed. Making directories and priming are file
/// system work: in a timed set-up they grew from run to run over ten
/// consecutive runs (16 to 39 ms with priming) as the disk fell behind on
/// the files earlier runs had deleted.
fn launch(dir: PathBuf) -> Result<Daemon, String> {
    let handle = flexserve::serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        max_connections: 1,
        cache_dir: dir.clone(),
        default_deadline_ms: 0,
    })
    .map_err(|e| format!("daemon did not start: {e}"))?;
    match Client::connect(handle.addr()) {
        Ok(client) => Ok(Daemon {
            handle,
            client,
            dir,
        }),
        Err(e) => {
            handle.drain();
            let _ = std::fs::remove_dir_all(&dir);
            Err(e.to_string())
        }
    }
}

/// Fresh, empty cache directories for the next `n` launches.
fn fresh_dirs(n: usize, next_dir: &mut impl FnMut() -> PathBuf) -> Result<Vec<PathBuf>, String> {
    (0..n)
        .map(|_| {
            let dir = next_dir();
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir)
                .map(|()| dir.clone())
                .map_err(|e| format!("{}: {e}", dir.display()))
        })
        .collect()
}

fn prime(client: &mut Client, plan: &Plan) -> Result<(), String> {
    for request in plan.warm_requests() {
        let reply = client.call(&request).map_err(|e| e.to_string())?;
        if reply.status != ReplyStatus::Ok {
            return Err(format!(
                "priming a {} request failed: {}",
                request.kind_name(),
                reply.text
            ));
        }
    }
    Ok(())
}

/// Close the client, drain the daemon and delete its cache.
fn stop(daemon: Daemon) {
    let Daemon {
        handle,
        client,
        dir,
    } = daemon;
    drop(client);
    handle.drain();
    let _ = std::fs::remove_dir_all(dir);
}

/// One closed-loop round: each call waits for its reply before the next
/// is sent. Returns the round's seconds, each call's latency in seconds,
/// and the replies, in call order.
fn closed_loop(
    client: &mut Client,
    requests: &[Request],
) -> Result<(f64, Vec<f64>, Vec<Reply>), String> {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(requests.len());
    let mut replies = Vec::with_capacity(requests.len());
    for request in requests {
        let sent = Instant::now();
        replies.push(client.call(request).map_err(|e| e.to_string())?);
        latencies.push(sent.elapsed().as_secs_f64());
    }
    Ok((start.elapsed().as_secs_f64(), latencies, replies))
}

/// A call's per-request answers: the batch entries, or the reply itself.
fn answers(reply: &Reply, requests: usize, batched: bool) -> Vec<Reply> {
    if !batched {
        return vec![reply.clone()];
    }
    match decode_batch_data(&reply.data) {
        Ok(entries) if reply.status == ReplyStatus::Ok && entries.len() == requests => entries,
        _ => vec![Reply::error(format!("unusable batch reply: {}", reply.text)); requests],
    }
}

/// A reply's encoded bytes with the cache-provenance flag cleared.
fn canonical(reply: &Reply) -> Vec<u8> {
    let mut reply = reply.clone();
    reply.cached = false;
    encode_reply_core(&reply)
}

/// The output check a round's replies get: how many were not Ok, how
/// many had the wrong cache provenance, and how many differ from a direct
/// `Engine::execute` of their request. `warm` holds the warm set's
/// canonical replies, computed once.
#[derive(Debug, Default)]
struct Inspected {
    not_ok: u64,
    provenance_wrong: u64,
    mismatched: u64,
}

fn inspect(
    plan: &Plan,
    engine: &Engine,
    warm: &[Vec<u8>],
    round: u64,
    replies: &[Reply],
    seen: &mut Inspected,
) {
    for ((batched, slots), reply) in plan.calls.iter().zip(replies) {
        for (&slot, answer) in slots.iter().zip(answers(reply, slots.len(), *batched)) {
            seen.not_ok += u64::from(answer.status != ReplyStatus::Ok);
            seen.provenance_wrong += u64::from(answer.cached != matches!(slot, Slot::Warm(_)));
            let same = match slot {
                Slot::Warm(w) => canonical(&answer) == warm[w],
                Slot::Fresh(_) => {
                    let request = plan.slot_request(slot, round);
                    canonical(&answer) == canonical(&engine.execute(&request, &Deadline::none()))
                }
            };
            seen.mismatched += u64::from(!same);
        }
    }
}

/// The cache and shed counters a round moved: hits, misses, writes, sheds.
fn moved(before: &StatusSnapshot, after: &StatusSnapshot) -> [u64; 4] {
    [
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
        after.cache.writes - before.cache.writes,
        after.sheds - before.sheds,
    ]
}

fn compute_layer(request: &Request) -> Layer {
    match request {
        Request::Assemble { .. } => Layer::ComputeAssemble,
        Request::Check { .. } => Layer::ComputeCheck,
        Request::Admit { .. } => Layer::ComputeAdmit,
        Request::Vuln { .. } => Layer::ComputeVuln,
        _ => Layer::ComputeSimulate,
    }
}

/// One request down the daemon's path, in process: cache key, verified
/// read, compute on a miss, then store — as the daemon's workers do.
fn serve_one(request: &Request, cache: &DiskCache, engine: &Engine, tr: &mut Tracer) -> Reply {
    tr.begin(Layer::Key);
    let key = DiskCache::key_for(&encode_core(request));
    tr.end();
    tr.begin(Layer::CacheGet);
    let hit = cache.get(&key);
    tr.end();
    if let Some(payload) = hit {
        tr.begin(Layer::Codec);
        let decoded = decode_reply_core(&payload);
        tr.end();
        if let Ok(mut reply) = decoded {
            reply.cached = true;
            return reply;
        }
    }
    tr.begin(compute_layer(request));
    let reply = engine.execute(request, &Deadline::none());
    tr.end();
    if matches!(reply.status, ReplyStatus::Ok | ReplyStatus::Error) {
        tr.begin(Layer::Codec);
        let stored = encode_reply_core(&reply);
        tr.end();
        tr.begin(Layer::CachePut);
        cache.put(&key, &stored);
        tr.end();
    }
    reply
}

/// One call through the in-process path: request codec, each request
/// down [`serve_one`], then the reply codec.
fn serve_in_process(
    request: &Request,
    cache: &DiskCache,
    engine: &Engine,
    tr: &mut Tracer,
) -> Reply {
    tr.begin(Layer::Codec);
    let decoded = decode_request(&encode_request(0, request));
    tr.end();
    let reply = match decoded {
        Err(e) => Reply::protocol(e.to_string()),
        Ok(envelope) => match envelope.request {
            Request::Batch(requests) => {
                let replies: Vec<Reply> = requests
                    .iter()
                    .map(|r| serve_one(r, cache, engine, tr))
                    .collect();
                tr.begin(Layer::Codec);
                let data = encode_batch_data(&replies);
                tr.end();
                Reply {
                    data,
                    ..Reply::ok(format!("batch: {} sub-replies", replies.len()))
                }
            }
            other => serve_one(&other, cache, engine, tr),
        },
    };
    tr.begin(Layer::Codec);
    let back = decode_reply(&encode_reply(&reply));
    tr.end();
    back.unwrap_or_else(|e| Reply::protocol(e.to_string()))
}

/// Run the `serve-mixed` workload.
///
/// # Errors
///
/// A daemon that does not start, a failed priming request, or a client
/// connection that breaks.
pub fn run(opts: &Options) -> Result<Report, String> {
    let plan = Plan::new(opts.seed, opts.tiny);
    let pinned = pin_to_one_cpu();
    let pid = std::process::id();
    let mut launches = 0;
    let mut next_dir = || {
        launches += 1;
        crate::scratch_dir().join(format!("serve-{pid}-{launches}"))
    };
    let mut clock = HostClock::new(Probe::Daemon)?;
    let mut dirs = fresh_dirs(crate::setup_reps(opts.tiny), &mut next_dir)?;
    let (mut daemon, setup_times) = crate::repeat_setup(
        opts.tiny,
        &mut clock,
        || launch(dirs.pop().ok_or("no fresh cache directory left")?),
        stop,
    )?;
    let measured = prime(&mut daemon.client, &plan).and_then(|()| {
        measure(
            opts,
            &plan,
            &mut daemon,
            (&mut clock, setup_times),
            &mut next_dir,
        )
    });
    stop(daemon);
    drop(clock);
    // Only removes the scratch directory when nothing else is left in it.
    let _ = std::fs::remove_dir(crate::scratch_dir());
    measured.map(|mut rep| {
        rep.note(pinned);
        rep
    })
}

fn measure(
    opts: &Options,
    plan: &Plan,
    daemon: &mut Daemon,
    (clock, mut setup_times): (&mut HostClock, Vec<Timed>),
    next_dir: &mut impl FnMut() -> PathBuf,
) -> Result<Report, String> {
    let mut rep = Report::default();
    let items = plan.items();
    let rounds_per_window = if opts.tiny { 2 } else { ROUNDS_PER_WINDOW };
    let setups_every = if opts.tiny { 1 } else { SETUPS_EVERY };
    let engine = Engine::new();
    let warm: Vec<Vec<u8>> = plan
        .warm_requests()
        .iter()
        .map(|r| canonical(&engine.execute(r, &Deadline::none())))
        .collect();
    let mut round = 0u64;
    let mut windows: Vec<(Timed, f64, f64)> = Vec::new();
    let mut seen = Inspected::default();
    let mut counters: Vec<[u64; 4]> = Vec::new();
    let window_secs = crate::run_passes(opts.untraced_seconds(), opts.tiny, || {
        let mark = clock.mark();
        let mut secs = 0.0;
        let mut latencies = Vec::new();
        for _ in 0..rounds_per_window {
            let requests = plan.round(round);
            let before = daemon.handle.stats();
            let (round_secs, round_latencies, replies) =
                closed_loop(&mut daemon.client, &requests)?;
            counters.push(moved(&before, &daemon.handle.stats()));
            secs += round_secs;
            latencies.extend(round_latencies);
            inspect(plan, &engine, &warm, round, &replies, &mut seen);
            round += 1;
        }
        windows.push((
            clock.timed(mark, secs),
            report::quantile(&latencies, 0.5),
            report::quantile(&latencies, 0.99),
        ));
        if windows.len().is_multiple_of(setups_every) {
            let mut dirs = fresh_dirs(crate::setup_reps(opts.tiny), next_dir)?;
            setup_times.extend(crate::time_setups(
                opts.tiny,
                clock,
                || launch(dirs.pop().ok_or("no fresh cache directory left")?),
                stop,
            )?);
        }
        Ok(secs)
    })?;
    clock.close();
    let peak_rss = report::peak_rss_mib() - clock.probe().table_mib();
    // Each window at nominal host speed; its latencies scale with it.
    // The median call is a warm cache read, and set-up does no file
    // work: both scale by the table loop alone. The window and its
    // slowest calls, the variants with their fsync'd writes, scale by
    // both parts.
    let (mut scaled_secs, mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new(), Vec::new());
    for &(timed, p50, p99) in &windows {
        let scaled = clock.scaled(timed);
        scaled_secs.push(scaled);
        p50_ms.push(p50 * report::ratio(clock.scaled_cpu(timed), timed.raw) * 1e3);
        p99_ms.push(p99 * report::ratio(scaled, timed.raw) * 1e3);
    }
    // The median window, not the fastest: windows are short and many,
    // and the fastest few are wake-up luck rather than host speed.
    let ops_per_s = (items * rounds_per_window) as f64 / report::median(&scaled_secs);
    rep.note(format!(
        "host slowness: median {:.3}",
        clock.median_slowness()
    ));
    let setups: Vec<f64> = setup_times.iter().map(|&t| clock.scaled_cpu(t)).collect();
    rep.end_to_end("setup_s", "s", report::median(&setups));
    rep.end_to_end("ops_per_s", "1/s", ops_per_s);
    rep.end_to_end("p50_ms", "ms", report::median(&p50_ms));
    rep.end_to_end("p99_ms", "ms", report::median(&p99_ms));
    rep.end_to_end("peak_rss_mb", "MiB", peak_rss);
    rep.attempted = (items * rounds_per_window * window_secs.len()) as u64;
    rep.note(format!(
        "timed windows of {rounds_per_window} rounds x {} calls ({items} requests), seconds: {}",
        plan.calls.len(),
        report::summary(&window_secs)
    ));
    rep.note(format!(
        "set-ups, raw seconds: {}",
        report::summary(&setup_times.iter().map(|t| t.raw).collect::<Vec<_>>())
    ));

    rep.failed = seen.not_ok + seen.mismatched;
    rep.check(
        "every reply equals a direct Engine::execute of its request",
        seen.mismatched == 0,
    );
    rep.check(
        "every request answered Ok: no shed, deadline or error",
        seen.not_ok == 0,
    );
    rep.check(
        "warm requests are cache reads, variants are computed",
        seen.provenance_wrong == 0,
    );
    let fresh = plan.fresh.len() as u64;
    let per_round = [items as u64 - fresh, fresh, fresh, 0];
    rep.check(
        "every round moved hits = warm, misses = writes = variants, sheds = 0",
        counters.iter().all(|c| *c == per_round),
    );
    let counted = counters[0];
    rep.count("serve.calls", plan.calls.len() as u64);
    rep.count("serve.requests", items as u64);
    rep.count("serve.hits", counted[0]);
    rep.count("serve.misses", counted[1]);
    rep.count("serve.writes", counted[2]);
    rep.count("serve.sheds", counted[3]);

    if opts.trace {
        rep.layer(
            "serve.hit_ratio",
            "ratio",
            report::ratio(counted[0] as f64, (counted[0] + counted[1]) as f64),
        );
        traced(opts, plan, daemon, &mut rep, round)?;
    }
    Ok(rep)
}

/// The traced half. Each step sends one round through the daemon
/// untraced, the next round through the daemon with a `serve.rtt` span
/// per call, then that round again through the in-process path with a
/// span per layer. `trace.overhead` compares the two daemon rounds.
fn traced(
    opts: &Options,
    plan: &Plan,
    daemon: &mut Daemon,
    rep: &mut Report,
    mut round: u64,
) -> Result<(), String> {
    let dir = crate::scratch_dir().join(format!("serve-{}-in-process", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).map_err(|e| format!("in-process cache: {e}"))?;
    let engine = Engine::new();
    for request in plan.warm_requests() {
        serve_in_process(&request, &cache, &engine, &mut Tracer::new(false));
    }
    let mut tr = Tracer::new(true);
    let (mut untraced_wall, mut daemon_wall, mut local_wall, mut rounds) = (0.0, 0.0, 0.0, 0usize);
    let (mut differ, mut transport_ns) = (0u64, 0i128);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        untraced_wall += closed_loop(&mut daemon.client, &plan.round(round))?.0;
        round += 1;
        let requests = plan.round(round);
        round += 1;
        let mut remote = Vec::with_capacity(requests.len());
        let mut rtt_ns = Vec::with_capacity(requests.len());
        let t = Instant::now();
        for (i, request) in requests.iter().enumerate() {
            tr.set_op(i);
            tr.begin(Layer::Rtt);
            let reply = daemon.client.call(request);
            rtt_ns.push(tr.end());
            remote.push(reply.map_err(|e| e.to_string())?);
        }
        daemon_wall += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut local = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            tr.set_op(i);
            let call = Instant::now();
            local.push(serve_in_process(request, &cache, &engine, &mut tr));
            // Transport: round trip minus the in-process path, over the
            // unbatched calls (the daemon spreads a batch over its
            // workers, the in-process path does not).
            if !plan.calls[i].0 {
                transport_ns += i128::from(rtt_ns[i]) - call.elapsed().as_nanos() as i128;
            }
        }
        local_wall += t.elapsed().as_secs_f64();
        for ((batched, slots), (a, b)) in plan.calls.iter().zip(remote.iter().zip(&local)) {
            let a = answers(a, slots.len(), *batched);
            let b = answers(b, slots.len(), *batched);
            differ += a
                .iter()
                .zip(&b)
                .filter(|(x, y)| x.status != ReplyStatus::Ok || canonical(x) != canonical(y))
                .count() as u64;
        }
        rounds += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep.check(
        "the in-process path answers every request as the daemon does",
        differ == 0,
    );
    let n = rounds as f64;
    for layer in [
        Layer::Codec,
        Layer::Key,
        Layer::CacheGet,
        Layer::CachePut,
        Layer::ComputeAssemble,
        Layer::ComputeCheck,
        Layer::ComputeAdmit,
        Layer::ComputeVuln,
        Layer::ComputeSimulate,
        Layer::Rtt,
    ] {
        rep.layer(layer.metric(), "s", tr.self_secs(layer) / n);
    }
    rep.layer("serve.transport_s", "s", transport_ns as f64 * 1e-9 / n);
    let wall = daemon_wall + local_wall;
    rep.layer(
        "trace.coverage",
        "ratio",
        report::ratio(tr.total_self_secs(), wall),
    );
    rep.layer(
        "trace.overhead",
        "ratio",
        report::ratio(untraced_wall, daemon_wall),
    );
    crate::write_trace(opts, rep, &[("rounds", &tr)]);
    Ok(())
}
