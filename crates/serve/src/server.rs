//! The daemon: listener, bounded work queue, panic-isolated worker
//! pool, drain choreography.
//!
//! The robustness contract, end to end:
//!
//! * **Exactly one reply per request.** Every frame that decodes gets
//!   exactly one reply frame; every batch entry gets exactly one
//!   sub-reply. Panics, sheds and deadline expiries are all *replies*,
//!   never silence.
//! * **Panic isolation.** Workers run each request under
//!   `catch_unwind`; a panicking request (hostile input, the `Boom`
//!   probe, a latent bug) produces an `Error` reply and a bumped panic
//!   counter — the daemon never dies. A panic that somehow escapes the
//!   catch respawns the worker thread via a drop guard.
//! * **Backpressure, not collapse.** The work queue is a bounded
//!   `sync_channel` submitted to with `try_send`; when it is full the
//!   connection thread answers `Shed` immediately instead of queueing
//!   unbounded work. A connection cap sheds whole connections the same
//!   way.
//! * **Graceful drain.** A `Drain` request (or
//!   [`ServerHandle::trigger_drain`], wired to stdin-EOF by the CLI)
//!   stops the accept loop, lets in-flight and queued requests finish
//!   and reply, then stops the workers. Nothing in flight is lost.
//!   `kill -9` needs no cooperation: the cache's atomic writes mean an
//!   uncooperative death can never poison persisted state.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CacheStats, DiskCache};
use crate::engine::{Deadline, Engine};
use crate::protocol::{
    decode_reply_core, decode_request, encode_batch_data, encode_core, encode_reply,
    encode_reply_core, read_frame, reply_frame_len, write_frame, FrameError, Reply, ReplyStatus,
    Request, MAX_FRAME,
};

/// How long connection threads block in a read before re-checking the
/// drain flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Worker threads (clamped to at least 1; honors the
    /// `FLEXSHARD_FORCE_THREADS` override like every other pool in the
    /// workspace).
    pub workers: usize,
    /// Bounded work-queue depth; a full queue sheds.
    pub queue_depth: usize,
    /// Concurrent-connection cap; excess connections are shed.
    pub max_connections: usize,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Deadline applied to requests that carry none (`0` = unlimited).
    pub default_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_connections: 32,
            cache_dir: std::env::temp_dir().join("flexserve-cache"),
            default_deadline_ms: 0,
        }
    }
}

/// A point-in-time snapshot of the daemon's counters (the `status`
/// reply renders exactly these).
#[derive(Debug, Clone, Copy)]
pub struct StatusSnapshot {
    /// Configured worker count.
    pub workers: usize,
    /// Configured queue depth.
    pub queue_depth: usize,
    /// Requests currently queued.
    pub queued: usize,
    /// Requests currently executing.
    pub in_flight: usize,
    /// Open connections.
    pub connections: usize,
    /// Whether a drain is underway.
    pub draining: bool,
    /// Requests received (frames plus batch entries).
    pub requests: u64,
    /// Replies sent (frames plus batch entries).
    pub replies: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Load-shed replies.
    pub sheds: u64,
    /// Panics isolated by workers.
    pub panics: u64,
    /// Deadline-expired replies.
    pub deadlines: u64,
    /// Malformed frames or payloads.
    pub protocol_errors: u64,
}

impl StatusSnapshot {
    /// Render as the stable line-oriented `status` reply text (one
    /// `key value` pair per line; keys are part of the protocol and
    /// greppable by scripts).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "workers {}\nqueue-depth {}\nqueued {}\nin-flight {}\nconnections {}\n\
             draining {}\nrequests {}\nreplies {}\ncache-hits {}\ncache-misses {}\n\
             cache-repairs {}\ncache-writes {}\nsheds {}\npanics {}\n\
             deadline-expired {}\nprotocol-errors {}\n",
            self.workers,
            self.queue_depth,
            self.queued,
            self.in_flight,
            self.connections,
            u8::from(self.draining),
            self.requests,
            self.replies,
            self.cache.hits,
            self.cache.misses,
            self.cache.repairs,
            self.cache.writes,
            self.sheds,
            self.panics,
            self.deadlines,
            self.protocol_errors,
        )
    }
}

enum Job {
    Work {
        request: Request,
        core: Vec<u8>,
        deadline: Deadline,
        reply: mpsc::Sender<Reply>,
    },
    Shutdown,
}

struct Shared {
    cache: DiskCache,
    engine: Engine,
    config: ServeConfig,
    draining: AtomicBool,
    connections: AtomicUsize,
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    requests: AtomicU64,
    replies: AtomicU64,
    sheds: AtomicU64,
    panics: AtomicU64,
    deadlines: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    fn snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            workers: self.config.workers,
            queue_depth: self.config.queue_depth,
            queued: self.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            sheds: self.sheds.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            deadlines: self.deadlines.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Account one outgoing reply (frame-level or batch entry).
    fn note_reply(&self, reply: &Reply) {
        self.replies.fetch_add(1, Ordering::Relaxed);
        match reply.status {
            ReplyStatus::Shed => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
            }
            ReplyStatus::Deadline => {
                self.deadlines.fetch_add(1, Ordering::Relaxed);
            }
            ReplyStatus::Protocol => {
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            ReplyStatus::Ok | ReplyStatus::Error => {}
        }
    }
}

/// Execute one computation with cache, panic isolation and accounting.
/// This is the only path requests take through the engine.
fn run_job(shared: &Shared, request: &Request, core: &[u8], deadline: &Deadline) -> Reply {
    let key = DiskCache::key_for(core);
    if request.cacheable() {
        if let Some(payload) = shared.cache.get(&key) {
            // The payload survived digest verification; a decode failure
            // here would mean a protocol change, handled as a miss. So is
            // an entry too large to send, which recomputing replaces.
            if let Ok(mut reply) = decode_reply_core(&payload) {
                if reply_frame_len(&reply) <= MAX_FRAME {
                    reply.cached = true;
                    return reply;
                }
            }
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.engine.execute(request, deadline)
    }));
    match outcome {
        Ok(reply) => {
            let mut reply = fit_frame(reply);
            // Ok and deterministic Error verdicts are pure functions of
            // the core bytes: cache both. Service conditions are not.
            // Stored entries are provenance-free, and a freshly computed
            // reply is by definition not from the cache.
            if request.cacheable() && matches!(reply.status, ReplyStatus::Ok | ReplyStatus::Error) {
                reply.cached = false;
                shared.cache.put(&key, &encode_reply_core(&reply));
            }
            reply
        }
        Err(_) => {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            Reply::error(format!(
                "request `{}` panicked; the worker isolated it and the daemon is healthy",
                request.kind_name()
            ))
        }
    }
}

/// `reply`, or the deterministic `Error` that stands in for it when its
/// frame would exceed [`MAX_FRAME`]: `write_frame` refuses such a frame,
/// so the client would get end-of-file instead of a reply.
fn fit_frame(reply: Reply) -> Reply {
    let len = reply_frame_len(&reply);
    if len <= MAX_FRAME {
        reply
    } else {
        Reply::error(format!("reply of {len} bytes exceeds the 1 MiB frame"))
    }
}

/// Respawns a worker thread if its loop ever panics outside the
/// per-request `catch_unwind` (which should be impossible, but a dead
/// worker would silently shrink the pool for the daemon's lifetime).
struct RespawnGuard {
    shared: Arc<Shared>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.panics.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&self.rx);
            // The replacement is detached: drain joins workers via the
            // in-flight/queued counters, not thread handles.
            std::thread::spawn(move || worker_loop(&shared, &rx));
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<mpsc::Receiver<Job>>>) {
    let _guard = RespawnGuard {
        shared: Arc::clone(shared),
        rx: Arc::clone(rx),
    };
    loop {
        let job = {
            let receiver = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            receiver.recv()
        };
        match job {
            Ok(Job::Work {
                request,
                core,
                deadline,
                reply,
            }) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                shared.in_flight.fetch_add(1, Ordering::Relaxed);
                let out = run_job(shared, &request, &core, &deadline);
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                // The connection may have died; a lost receiver only
                // drops this reply's delivery, never the worker.
                let _ = reply.send(out);
            }
            Ok(Job::Shutdown) | Err(_) => break,
        }
    }
}

/// Submit one computation, shedding immediately when the queue is full.
/// Returns the receiver to collect the (exactly one) reply, or the shed
/// reply itself.
fn submit(
    shared: &Shared,
    tx: &mpsc::SyncSender<Job>,
    request: Request,
    deadline: Deadline,
) -> Result<mpsc::Receiver<Reply>, Reply> {
    let core = encode_core(&request);
    let (reply_tx, reply_rx) = mpsc::channel();
    shared.queued.fetch_add(1, Ordering::Relaxed);
    match tx.try_send(Job::Work {
        request,
        core,
        deadline,
        reply: reply_tx,
    }) {
        Ok(()) => Ok(reply_rx),
        Err(_) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            Err(Reply::shed("work queue full; retry later"))
        }
    }
}

/// Serve one decoded request from a connection thread. Always returns
/// exactly one reply.
fn serve_request(
    shared: &Arc<Shared>,
    tx: &mpsc::SyncSender<Job>,
    request: Request,
    deadline: Deadline,
) -> Reply {
    match request {
        Request::Status => Reply::ok(shared.snapshot().render()),
        Request::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            Reply::ok("draining: accept loop stopped, in-flight work finishing")
        }
        Request::Batch(subs) => {
            // Fan the batch across the pool without ever blocking on a
            // full queue (a blocking send here could deadlock the pool
            // against itself); a full queue sheds the sub-request.
            shared
                .requests
                .fetch_add(subs.len() as u64, Ordering::Relaxed);
            let mut pending: VecDeque<Result<mpsc::Receiver<Reply>, Reply>> =
                VecDeque::with_capacity(subs.len());
            for sub in subs {
                pending.push_back(submit(shared, tx, sub, deadline));
            }
            let mut replies = Vec::with_capacity(pending.len());
            for slot in pending {
                let reply = match slot {
                    Ok(rx) => rx.recv().unwrap_or_else(|_| {
                        Reply::error("worker lost before replying (daemon shutting down)")
                    }),
                    Err(shed) => shed,
                };
                shared.note_reply(&reply);
                replies.push(reply);
            }
            let cached = replies.iter().filter(|r| r.cached).count();
            let shed = replies
                .iter()
                .filter(|r| r.status == ReplyStatus::Shed)
                .count();
            let text = format!(
                "batch: {} sub-replies ({} cached, {} shed)",
                replies.len(),
                cached,
                shed
            );
            fit_frame(Reply {
                data: encode_batch_data(&replies),
                ..Reply::ok(text)
            })
        }
        other => match submit(shared, tx, other, deadline) {
            Ok(rx) => rx.recv().unwrap_or_else(|_| {
                Reply::error("worker lost before replying (daemon shutting down)")
            }),
            Err(shed) => shed,
        },
    }
}

fn connection_loop(shared: &Arc<Shared>, tx: &mpsc::SyncSender<Job>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => break,
            Err(FrameError::TooLarge(_)) => {
                // The stream is out of sync past an oversized header:
                // shed, then drop the connection.
                let reply = Reply::shed("frame exceeds the 1 MiB cap");
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.note_reply(&reply);
                let _ = write_frame(&mut writer, &encode_reply(&reply));
                break;
            }
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(FrameError::Io(_)) => break,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match decode_request(&payload) {
            Ok(envelope) => {
                let ms = if envelope.deadline_ms == 0 {
                    shared.config.default_deadline_ms
                } else {
                    envelope.deadline_ms
                };
                serve_request(shared, tx, envelope.request, Deadline::in_ms(ms))
            }
            Err(e) => Reply::protocol(e.to_string()),
        };
        shared.note_reply(&reply);
        if write_frame(&mut writer, &encode_reply(&reply)).is_err() {
            break;
        }
    }
}

/// A running daemon: the bound address plus the levers to observe,
/// drain and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tx: mpsc::SyncSender<Job>,
}

impl ServerHandle {
    /// The actual bound address (resolves port `0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> StatusSnapshot {
        self.shared.snapshot()
    }

    /// Begin draining: stop accepting, let in-flight work finish.
    pub fn trigger_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Block until a drain completes — every connection closed, every
    /// queued and in-flight request replied — then stop the workers and
    /// return the final counters. (Blocks until someone triggers the
    /// drain: a `Drain` request, [`trigger_drain`](Self::trigger_drain),
    /// or the CLI's stdin-EOF watcher.)
    pub fn wait(mut self) -> StatusSnapshot {
        while !self.shared.draining.load(Ordering::SeqCst) {
            std::thread::sleep(ACCEPT_POLL);
        }
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        loop {
            let idle = self.shared.connections.load(Ordering::Relaxed) == 0
                && self.shared.queued.load(Ordering::Relaxed) == 0
                && self.shared.in_flight.load(Ordering::Relaxed) == 0;
            if idle {
                break;
            }
            std::thread::sleep(ACCEPT_POLL);
        }
        for _ in &self.workers {
            // The queue is empty and nothing can enqueue: a blocking
            // send cannot stall.
            let _ = self.tx.send(Job::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.snapshot()
    }

    /// [`trigger_drain`](Self::trigger_drain) + [`wait`](Self::wait).
    pub fn drain(self) -> StatusSnapshot {
        self.trigger_drain();
        self.wait()
    }
}

/// Bind, spawn the pool and the accept loop, return immediately.
///
/// # Errors
///
/// Bind or cache-directory failures.
pub fn serve(mut config: ServeConfig) -> std::io::Result<ServerHandle> {
    config.workers = flexshard::effective_threads(config.workers);
    config.queue_depth = config.queue_depth.max(1);
    config.max_connections = config.max_connections.max(1);
    let cache = DiskCache::open(&config.cache_dir)?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        cache,
        engine: Engine::new(),
        config: config.clone(),
        draining: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        queued: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(0),
        requests: AtomicU64::new(0),
        replies: AtomicU64::new(0),
        sheds: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        deadlines: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
    });

    let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker_loop(&shared, &rx))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept_tx = tx.clone();
    let listener_thread = std::thread::spawn(move || {
        accept_loop(&listener, &accept_shared, &accept_tx);
    });

    Ok(ServerHandle {
        addr,
        shared,
        listener: Some(listener_thread),
        workers,
        tx,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, tx: &mpsc::SyncSender<Job>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.connections.load(Ordering::Relaxed) >= shared.config.max_connections {
                    // Shed the whole connection with one unsolicited
                    // reply so the client learns why, then close.
                    let reply = Reply::shed("connection limit reached; retry later");
                    shared.note_reply(&reply);
                    let mut stream = stream;
                    let _ = write_frame(&mut stream, &encode_reply(&reply));
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let conn_tx = tx.clone();
                std::thread::spawn(move || {
                    connection_loop(&conn_shared, &conn_tx, stream);
                    conn_shared.connections.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Spawn a watcher that triggers a drain when the process's stdin hits
/// EOF — the std-only stand-in for a signal handler: a supervising
/// parent closes the pipe (or the operator hits ^D) and the daemon
/// winds down cleanly.
pub fn drain_on_stdin_eof(handle: &ServerHandle) {
    let shared = Arc::clone(&handle.shared);
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        shared.draining.store(true, Ordering::SeqCst);
    });
}
