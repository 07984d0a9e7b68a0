//! The wire protocol: length-prefixed frames carrying a small binary
//! request/reply codec.
//!
//! Every frame is a 4-byte big-endian length followed by that many
//! payload bytes, capped at [`MAX_FRAME`]; an oversized length is
//! rejected *before* any body byte is read, so a hostile peer cannot
//! make the daemon allocate unbounded memory. The payload codec is
//! integer-only and bounds-checked everywhere: arbitrary, truncated or
//! corrupt bytes decode to a [`ProtoError`], never a panic — the
//! `protocol_props` property tests drive this with random frames.
//!
//! A request payload is
//!
//! ```text
//! [version u8][deadline_ms u64be][core]
//! core := [kind u8][kind-specific body]
//! ```
//!
//! The *core* — everything except the volatile deadline header — is the
//! content-addressed cache key material: two requests asking for the
//! same computation encode to the same core bytes and therefore the
//! same SHA-256 key, regardless of their deadlines.

use std::io::{Read, Write};

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on frame payloads in both directions (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Hard cap on sub-requests inside one batch.
pub const MAX_BATCH: usize = 512;

/// Hard cap on scripted simulation inputs.
pub const MAX_INPUTS: usize = 4 * 1024;

/// Request kinds and their payloads. `Status`, `Drain` and `Batch` are
/// service-level; the rest are pure computations and therefore
/// cacheable. `Boom` is the panic-injection probe the robustness soaks
/// (and any chaos-testing client) use to prove worker isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Report queue depth, cache and robustness counters.
    Status,
    /// Stop accepting work, finish in-flight requests, exit cleanly.
    Drain,
    /// Assemble `source` for `(dialect, features)`; reply data is the
    /// program image.
    Assemble {
        /// Dialect name (`fc4`, `fc8`, `xacc`, `xls`).
        dialect: String,
        /// Feature list (empty, `revised`, or comma-separated names).
        features: String,
        /// Assembly source text.
        source: String,
    },
    /// Assemble and run the `flexcheck` analyzer; `deny` is the severity
    /// (0 info, 1 warning, 2 error) at which findings fail the request.
    Check {
        /// Dialect name.
        dialect: String,
        /// Feature list.
        features: String,
        /// Assembly source text.
        source: String,
        /// Deny severity byte (0 info, 1 warning, 2 error).
        deny: u8,
    },
    /// The link-admission gate: assemble and apply [`flexcheck::admit`]
    /// exactly as the field-reprogramming link would before transfer.
    Admit {
        /// Dialect name.
        dialect: String,
        /// Feature list.
        features: String,
        /// Assembly source text.
        source: String,
        /// Deny severity byte (0 info, 1 warning, 2 error).
        deny: u8,
    },
    /// Assemble and execute with scripted inputs; reply data is the
    /// output-port byte stream.
    Simulate {
        /// Dialect name.
        dialect: String,
        /// Feature list.
        features: String,
        /// Assembly source text.
        source: String,
        /// Scripted input-port bytes.
        inputs: Vec<u8>,
        /// Watchdog budget (cycles on fc4/fc8, instructions on the
        /// extended dialects).
        max_cycles: u64,
    },
    /// Fabricate and screen a seeded virtual wafer; optionally run the
    /// partial-yield salvage screen on top.
    Yield {
        /// Design name (`fc4`, `fc8`, `fc4plus`).
        design: String,
        /// Test voltage in millivolts (integer keeps cache keys exact).
        voltage_mv: u64,
        /// Wafer fabrication seed.
        seed: u64,
        /// Test vectors per die.
        cycles: u64,
        /// Also classify failing dies with the salvage screen.
        salvage: bool,
    },
    /// A batch of cacheable sub-requests fanned across the worker pool;
    /// the reply data carries one encoded sub-reply per sub-request, in
    /// order. Batches do not nest.
    Batch(Vec<Request>),
    /// Assemble and run the static fault-vulnerability analysis
    /// (`flexcheck::vuln`); the reply text is the rendered site
    /// classification, the reply data the 8-byte big-endian report
    /// digest.
    Vuln {
        /// Dialect name.
        dialect: String,
        /// Feature list.
        features: String,
        /// Assembly source text.
        source: String,
    },
    /// Panic-injection probe: the worker that picks this up panics.
    Boom,
}

impl Request {
    /// Whether replies to this request are pure functions of the core
    /// bytes and may be cached.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            Request::Assemble { .. }
                | Request::Check { .. }
                | Request::Admit { .. }
                | Request::Simulate { .. }
                | Request::Yield { .. }
                | Request::Vuln { .. }
        )
    }

    /// Short kind name for logs and reports.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Status => "status",
            Request::Drain => "drain",
            Request::Assemble { .. } => "assemble",
            Request::Check { .. } => "check",
            Request::Admit { .. } => "admit",
            Request::Simulate { .. } => "simulate",
            Request::Yield { .. } => "yield",
            Request::Vuln { .. } => "vuln",
            Request::Batch(_) => "batch",
            Request::Boom => "boom",
        }
    }
}

/// A decoded request plus its volatile (non-cache-key) header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Relative deadline in milliseconds; `0` means none.
    pub deadline_ms: u64,
    /// The request itself.
    pub request: Request,
}

/// Reply status. `Ok` and `Error` are deterministic verdicts about the
/// request; `Shed`, `Protocol` and `Deadline` are service conditions
/// and never enter the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The computation succeeded.
    Ok,
    /// The computation failed deterministically (bad source, findings at
    /// the deny severity, unknown names, simulator fault).
    Error,
    /// Load was shed: the work queue or connection limit was full. Retry
    /// later; nothing was computed.
    Shed,
    /// The frame or request bytes were malformed.
    Protocol,
    /// The request's deadline expired before the computation finished.
    Deadline,
}

impl ReplyStatus {
    fn to_byte(self) -> u8 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::Error => 1,
            ReplyStatus::Shed => 2,
            ReplyStatus::Protocol => 3,
            ReplyStatus::Deadline => 4,
        }
    }

    fn from_byte(b: u8) -> Result<ReplyStatus, ProtoError> {
        match b {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::Error),
            2 => Ok(ReplyStatus::Shed),
            3 => Ok(ReplyStatus::Protocol),
            4 => Ok(ReplyStatus::Deadline),
            other => Err(ProtoError::new(format!("unknown reply status {other}"))),
        }
    }

    /// Render for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReplyStatus::Ok => "ok",
            ReplyStatus::Error => "error",
            ReplyStatus::Shed => "shed",
            ReplyStatus::Protocol => "protocol-error",
            ReplyStatus::Deadline => "deadline",
        }
    }
}

/// A reply: status, cache provenance, human-readable text and an
/// optional binary payload (program image, output bytes, batch data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The verdict.
    pub status: ReplyStatus,
    /// `true` when served from the content-addressed cache.
    pub cached: bool,
    /// Human-readable result or error text.
    pub text: String,
    /// Binary payload (empty when the text is the whole answer).
    pub data: Vec<u8>,
}

impl Reply {
    /// An `Ok` reply with text only.
    #[must_use]
    pub fn ok(text: impl Into<String>) -> Reply {
        Reply {
            status: ReplyStatus::Ok,
            cached: false,
            text: text.into(),
            data: Vec::new(),
        }
    }

    /// A deterministic error reply.
    #[must_use]
    pub fn error(text: impl Into<String>) -> Reply {
        Reply {
            status: ReplyStatus::Error,
            cached: false,
            text: text.into(),
            data: Vec::new(),
        }
    }

    /// A load-shed reply.
    #[must_use]
    pub fn shed(text: impl Into<String>) -> Reply {
        Reply {
            status: ReplyStatus::Shed,
            cached: false,
            text: text.into(),
            data: Vec::new(),
        }
    }

    /// A protocol-error reply.
    #[must_use]
    pub fn protocol(text: impl Into<String>) -> Reply {
        Reply {
            status: ReplyStatus::Protocol,
            cached: false,
            text: text.into(),
            data: Vec::new(),
        }
    }

    /// A deadline-expired reply.
    #[must_use]
    pub fn deadline() -> Reply {
        Reply {
            status: ReplyStatus::Deadline,
            cached: false,
            text: "deadline expired before the request finished".to_string(),
            data: Vec::new(),
        }
    }
}

/// A malformed frame or payload. Always a value, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(String);

impl ProtoError {
    fn new(msg: impl Into<String>) -> ProtoError {
        ProtoError(msg.into())
    }
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- codec

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(&(v.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtoError::new(format!("truncated {what}")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let bytes = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_be_bytes(raw))
    }

    fn bytes(&mut self, max: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let raw = self.take(4, what)?;
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(raw);
        let len = u32::from_be_bytes(len4) as usize;
        if len > max {
            return Err(ProtoError::new(format!(
                "{what} length {len} exceeds {max}"
            )));
        }
        self.take(len, what)
    }

    fn str(&mut self, max: usize, what: &str) -> Result<String, ProtoError> {
        let raw = self.bytes(max, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ProtoError::new(format!("{what} is not valid UTF-8")))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn deny_valid(deny: u8) -> Result<u8, ProtoError> {
    if deny <= 2 {
        Ok(deny)
    } else {
        Err(ProtoError::new(format!(
            "deny severity byte {deny} out of range (0 info, 1 warning, 2 error)"
        )))
    }
}

/// Encode a request *core* — the cache-key material: kind byte plus
/// body, without the volatile deadline header.
#[must_use]
pub fn encode_core(request: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    encode_core_into(&mut w, request);
    w.buf
}

fn encode_core_into(w: &mut Writer, request: &Request) {
    match request {
        Request::Status => w.u8(0),
        Request::Drain => w.u8(1),
        Request::Assemble {
            dialect,
            features,
            source,
        } => {
            w.u8(2);
            w.str(dialect);
            w.str(features);
            w.str(source);
        }
        Request::Check {
            dialect,
            features,
            source,
            deny,
        } => {
            w.u8(3);
            w.str(dialect);
            w.str(features);
            w.str(source);
            w.u8(*deny);
        }
        Request::Admit {
            dialect,
            features,
            source,
            deny,
        } => {
            w.u8(4);
            w.str(dialect);
            w.str(features);
            w.str(source);
            w.u8(*deny);
        }
        Request::Simulate {
            dialect,
            features,
            source,
            inputs,
            max_cycles,
        } => {
            w.u8(5);
            w.str(dialect);
            w.str(features);
            w.str(source);
            w.bytes(inputs);
            w.u64(*max_cycles);
        }
        Request::Yield {
            design,
            voltage_mv,
            seed,
            cycles,
            salvage,
        } => {
            w.u8(6);
            w.str(design);
            w.u64(*voltage_mv);
            w.u64(*seed);
            w.u64(*cycles);
            w.u8(u8::from(*salvage));
        }
        Request::Batch(subs) => {
            w.u8(7);
            w.buf.extend_from_slice(&(subs.len() as u32).to_be_bytes());
            for sub in subs {
                let core = encode_core(sub);
                w.bytes(&core);
            }
        }
        Request::Boom => w.u8(8),
        Request::Vuln {
            dialect,
            features,
            source,
        } => {
            w.u8(9);
            w.str(dialect);
            w.str(features);
            w.str(source);
        }
    }
}

fn decode_core_reader(r: &mut Reader<'_>, nested: bool) -> Result<Request, ProtoError> {
    let kind = r.u8("request kind")?;
    match kind {
        0 => Ok(Request::Status),
        1 => Ok(Request::Drain),
        2 => Ok(Request::Assemble {
            dialect: r.str(64, "dialect")?,
            features: r.str(256, "features")?,
            source: r.str(MAX_FRAME, "source")?,
        }),
        3 => Ok(Request::Check {
            dialect: r.str(64, "dialect")?,
            features: r.str(256, "features")?,
            source: r.str(MAX_FRAME, "source")?,
            deny: deny_valid(r.u8("deny severity")?)?,
        }),
        4 => Ok(Request::Admit {
            dialect: r.str(64, "dialect")?,
            features: r.str(256, "features")?,
            source: r.str(MAX_FRAME, "source")?,
            deny: deny_valid(r.u8("deny severity")?)?,
        }),
        5 => Ok(Request::Simulate {
            dialect: r.str(64, "dialect")?,
            features: r.str(256, "features")?,
            source: r.str(MAX_FRAME, "source")?,
            inputs: r.bytes(MAX_INPUTS, "inputs")?.to_vec(),
            max_cycles: r.u64("max_cycles")?,
        }),
        6 => Ok(Request::Yield {
            design: r.str(64, "design")?,
            voltage_mv: r.u64("voltage")?,
            seed: r.u64("seed")?,
            cycles: r.u64("cycles")?,
            salvage: match r.u8("salvage flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(ProtoError::new(format!("salvage flag {other} not 0/1")));
                }
            },
        }),
        7 => {
            if nested {
                return Err(ProtoError::new("batches do not nest"));
            }
            let raw = r.take(4, "batch count")?;
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(raw);
            let count = u32::from_be_bytes(len4) as usize;
            if count > MAX_BATCH {
                return Err(ProtoError::new(format!(
                    "batch of {count} exceeds the {MAX_BATCH}-request cap"
                )));
            }
            let mut subs = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                let core = r.bytes(MAX_FRAME, "batch entry")?;
                let mut sub = Reader::new(core);
                let request = decode_core_reader(&mut sub, true)?;
                if !sub.finished() {
                    return Err(ProtoError::new("trailing bytes after batch entry"));
                }
                subs.push(request);
            }
            Ok(Request::Batch(subs))
        }
        8 => Ok(Request::Boom),
        9 => Ok(Request::Vuln {
            dialect: r.str(64, "dialect")?,
            features: r.str(256, "features")?,
            source: r.str(MAX_FRAME, "source")?,
        }),
        other => Err(ProtoError::new(format!("unknown request kind {other}"))),
    }
}

/// Decode a request core (as produced by [`encode_core`]).
///
/// # Errors
///
/// [`ProtoError`] for any malformed byte sequence.
pub fn decode_core(core: &[u8]) -> Result<Request, ProtoError> {
    let mut r = Reader::new(core);
    let request = decode_core_reader(&mut r, false)?;
    if !r.finished() {
        return Err(ProtoError::new("trailing bytes after request"));
    }
    Ok(request)
}

/// Encode a full request payload: version, deadline header, core.
#[must_use]
pub fn encode_request(deadline_ms: u64, request: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(PROTOCOL_VERSION);
    w.u64(deadline_ms);
    encode_core_into(&mut w, request);
    w.buf
}

/// Decode a full request payload.
///
/// # Errors
///
/// [`ProtoError`] for a version mismatch or any malformed byte
/// sequence — arbitrary bytes never panic the decoder.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, ProtoError> {
    let mut r = Reader::new(payload);
    let version = r.u8("version")?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::new(format!(
            "protocol version {version} (this daemon speaks {PROTOCOL_VERSION})"
        )));
    }
    let deadline_ms = r.u64("deadline")?;
    let request = decode_core_reader(&mut r, false)?;
    if !r.finished() {
        return Err(ProtoError::new("trailing bytes after request"));
    }
    Ok(Envelope {
        deadline_ms,
        request,
    })
}

/// Encode a reply *core*: status, flags, text, data — the form stored
/// in the cache and embedded per-entry in batch replies. `cached` is
/// always encoded as given; cache writers zero it first so stored
/// entries are provenance-free.
#[must_use]
pub fn encode_reply_core(reply: &Reply) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(reply.status.to_byte());
    w.u8(u8::from(reply.cached));
    w.str(&reply.text);
    w.bytes(&reply.data);
    w.buf
}

fn decode_reply_reader(r: &mut Reader<'_>) -> Result<Reply, ProtoError> {
    let status = ReplyStatus::from_byte(r.u8("reply status")?)?;
    let flags = r.u8("reply flags")?;
    if flags > 1 {
        return Err(ProtoError::new(format!("reply flags {flags} out of range")));
    }
    let text = r.str(MAX_FRAME, "reply text")?;
    let data = r.bytes(MAX_FRAME, "reply data")?.to_vec();
    Ok(Reply {
        status,
        cached: flags == 1,
        text,
        data,
    })
}

/// Decode a reply core (as produced by [`encode_reply_core`]).
///
/// # Errors
///
/// [`ProtoError`] for any malformed byte sequence.
pub fn decode_reply_core(core: &[u8]) -> Result<Reply, ProtoError> {
    let mut r = Reader::new(core);
    let reply = decode_reply_reader(&mut r)?;
    if !r.finished() {
        return Err(ProtoError::new("trailing bytes after reply"));
    }
    Ok(reply)
}

/// Encode a full reply payload (version byte + reply core).
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(PROTOCOL_VERSION);
    let core = encode_reply_core(reply);
    w.buf.extend_from_slice(&core);
    w.buf
}

/// The length of [`encode_reply`]`(reply)`, without encoding it:
/// version, status and flag bytes, then the length-prefixed text and
/// data.
#[must_use]
pub fn reply_frame_len(reply: &Reply) -> usize {
    3 + 4 + reply.text.len() + 4 + reply.data.len()
}

/// Decode a full reply payload.
///
/// # Errors
///
/// [`ProtoError`] for a version mismatch or malformed bytes.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut r = Reader::new(payload);
    let version = r.u8("version")?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::new(format!("protocol version {version}")));
    }
    let reply = decode_reply_reader(&mut r)?;
    if !r.finished() {
        return Err(ProtoError::new("trailing bytes after reply"));
    }
    Ok(reply)
}

/// Pack batch sub-replies into batch reply data.
#[must_use]
pub fn encode_batch_data(replies: &[Reply]) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf
        .extend_from_slice(&(replies.len() as u32).to_be_bytes());
    for reply in replies {
        let core = encode_reply_core(reply);
        w.bytes(&core);
    }
    w.buf
}

/// Unpack batch reply data into sub-replies.
///
/// # Errors
///
/// [`ProtoError`] for any malformed byte sequence.
pub fn decode_batch_data(data: &[u8]) -> Result<Vec<Reply>, ProtoError> {
    let mut r = Reader::new(data);
    let raw = r.take(4, "batch reply count")?;
    let mut len4 = [0u8; 4];
    len4.copy_from_slice(raw);
    let count = u32::from_be_bytes(len4) as usize;
    if count > MAX_BATCH {
        return Err(ProtoError::new(format!("batch reply count {count}")));
    }
    let mut replies = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let core = r.bytes(MAX_FRAME, "batch reply entry")?;
        replies.push(decode_reply_core(core)?);
    }
    if !r.finished() {
        return Err(ProtoError::new("trailing bytes after batch reply"));
    }
    Ok(replies)
}

/// A digest over reply cores with the cache-provenance flag cleared:
/// two runs of the same batch — cold or warm — must produce the same
/// digest byte-for-byte. Hex-rendered SHA-256.
#[must_use]
pub fn reply_digest(replies: &[Reply]) -> String {
    let mut material = Vec::new();
    for reply in replies {
        let mut canon = reply.clone();
        canon.cached = false;
        let core = encode_reply_core(&canon);
        material.extend_from_slice(&(core.len() as u32).to_be_bytes());
        material.extend_from_slice(&core);
    }
    hex(&flexlink::crypto::sha256(&material))
}

/// Render bytes as lowercase hex.
#[must_use]
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

// -------------------------------------------------------------- framing

/// How reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly before a new frame started.
    Closed,
    /// The advertised length exceeds [`MAX_FRAME`]; no body byte was
    /// read. The stream is no longer in sync and must be dropped after
    /// an error reply.
    TooLarge(usize),
    /// The stream ended or failed mid-frame.
    Io(std::io::Error),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Io(e) => write!(f, "stream error: {e}"),
        }
    }
}

/// Write one length-prefixed frame.
///
/// # Errors
///
/// Propagates stream IO errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the cap", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame, rejecting oversized lengths before
/// any body byte is read.
///
/// # Errors
///
/// [`FrameError`] for clean close, oversized frames, or stream trouble.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame body",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(request: &Request) {
        let payload = encode_request(17, request);
        let envelope = decode_request(&payload).unwrap();
        assert_eq!(envelope.deadline_ms, 17);
        assert_eq!(&envelope.request, request);
        // the core alone round-trips too, and is a strict suffix of the
        // payload (the cache-key contract)
        let core = encode_core(request);
        assert_eq!(decode_core(&core).unwrap(), *request);
        assert!(payload.ends_with(&core));
    }

    #[test]
    fn every_request_kind_roundtrips() {
        roundtrip(&Request::Status);
        roundtrip(&Request::Drain);
        roundtrip(&Request::Boom);
        roundtrip(&Request::Assemble {
            dialect: "fc4".into(),
            features: String::new(),
            source: "load r0\nhalt\n".into(),
        });
        roundtrip(&Request::Check {
            dialect: "xacc".into(),
            features: "revised".into(),
            source: "halt\n".into(),
            deny: 2,
        });
        roundtrip(&Request::Admit {
            dialect: "xls".into(),
            features: "adc,shift".into(),
            source: "halt\n".into(),
            deny: 0,
        });
        roundtrip(&Request::Simulate {
            dialect: "fc8".into(),
            features: String::new(),
            source: "load r0\nhalt\n".into(),
            inputs: vec![1, 2, 3],
            max_cycles: 100_000,
        });
        roundtrip(&Request::Yield {
            design: "fc4plus".into(),
            voltage_mv: 4_500,
            seed: 0xD1E5,
            cycles: 2_000,
            salvage: true,
        });
        roundtrip(&Request::Vuln {
            dialect: "fc4".into(),
            features: String::new(),
            source: "load r0\nhalt\n".into(),
        });
        roundtrip(&Request::Batch(vec![
            Request::Boom,
            Request::Assemble {
                dialect: "fc4".into(),
                features: String::new(),
                source: "halt\n".into(),
            },
        ]));
    }

    #[test]
    fn replies_roundtrip_and_batch_data_packs() {
        let replies = vec![
            Reply::ok("fine"),
            Reply {
                status: ReplyStatus::Ok,
                cached: true,
                text: "cached".into(),
                data: vec![9, 8, 7],
            },
            Reply::shed("busy"),
        ];
        for reply in &replies {
            let payload = encode_reply(reply);
            assert_eq!(&decode_reply(&payload).unwrap(), reply);
            assert_eq!(reply_frame_len(reply), payload.len());
        }
        let data = encode_batch_data(&replies);
        assert_eq!(decode_batch_data(&data).unwrap(), replies);
    }

    #[test]
    fn reply_digest_ignores_cache_provenance() {
        let cold = vec![Reply::ok("x"), Reply::error("y")];
        let mut warm = cold.clone();
        for r in &mut warm {
            r.cached = true;
        }
        assert_eq!(reply_digest(&cold), reply_digest(&warm));
        let other = vec![Reply::ok("x"), Reply::error("z")];
        assert_ne!(reply_digest(&cold), reply_digest(&other));
    }

    #[test]
    fn nested_batches_and_oversized_counts_are_rejected() {
        let inner = Request::Batch(vec![Request::Boom]);
        let outer = encode_core(&Request::Batch(vec![inner]));
        // the encoder will happily emit it; the decoder must refuse
        assert!(decode_core(&outer).is_err());

        let mut fake = vec![7u8];
        fake.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(decode_core(&fake).is_err());
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let payload = encode_request(
            9,
            &Request::Simulate {
                dialect: "fc4".into(),
                features: String::new(),
                source: "load r0\nhalt\n".into(),
                inputs: vec![4, 5],
                max_cycles: 1_000,
            },
        );
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));

        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(huge);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge(_))
        ));

        let truncated = vec![0, 0, 0, 9, 1, 2];
        let mut cursor = std::io::Cursor::new(truncated);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }
}
