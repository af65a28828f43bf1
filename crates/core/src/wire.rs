//! The serve protocol: a zero-dependency, length-prefixed binary wire
//! encoding of the engine's public query API.
//!
//! [`Request`]/[`Response`] are a thin wire rendering of
//! [`QueryOptions`]/[`QueryOutcome`](crate::QueryOutcome):
//! the protocol *is* the public API — a [`Request::Query`] carries exactly
//! the knobs `EngineSnapshot::query` takes, and a [`Response::Answer`]
//! carries exactly what a [`QueryOutcome`](crate::QueryOutcome) reports
//! (codes, strategy, provenance counts, stage timings). Admin traffic
//! (snapshot swaps, stats, shutdown) rides the same framing.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────────┬───────────────────────────┐
//! │ length: u32 BE │ payload (length bytes)    │
//! └────────────────┴───────────────────────────┘
//! payload = tag: u8, then tag-specific fields:
//!   u8/u32/u64      fixed-width big-endian integers
//!   str             u32 BE byte length + UTF-8 bytes
//!   vec<T>          u32 BE element count + elements
//! ```
//!
//! `length` is bounded by [`MAX_FRAME_LEN`]; a peer announcing more is
//! rejected before any allocation ([`WireError::Oversized`]), so a
//! malicious 4-byte header cannot balloon memory. Every decode is
//! bounds-checked ([`WireError::Truncated`]) and must consume the payload
//! exactly ([`WireError::TrailingBytes`]); decoding arbitrary bytes never
//! panics (fuzzed in `tests/serve_protocol.rs`).

use std::fmt;
use std::io::{Read, Write};

use crate::engine::Strategy;
use crate::snapshot::QueryOptions;

/// Upper bound on a frame payload (64 MiB). Large enough for any batch
/// response over the evaluation corpora, small enough that a hostile
/// length prefix cannot cause an outsized allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended in the middle of a field, or the stream ended in
    /// the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// Unknown message tag.
    BadTag(u8),
    /// Unknown [`Strategy`] or [`Status`] discriminant.
    BadEnum(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload decoded but bytes were left over.
    TrailingBytes(usize),
    /// Transport failure while reading or writing a frame.
    Io(std::io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadEnum(v) => write!(f, "unknown enum discriminant {v}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::Io(kind) => write!(f, "transport: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind())
    }
}

/// Response status, aligned with the CLI's exit-code convention (see
/// [`Status::exit_code`]). One shared mapping serves both surfaces:
/// [`QueryError`](crate::QueryError) renders to a `Status` for the wire
/// and to an exit code for the CLI through this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request succeeded.
    Ok = 0,
    /// No view set answers the query (the CLI's exit 1).
    NotAnswerable = 1,
    /// The request was malformed (bad frame, unknown strategy, bad
    /// argument — the CLI's usage exit 2).
    BadRequest = 2,
    /// The input was unusable (query didn't parse, file unreadable — the
    /// CLI's input exit 3).
    Input = 3,
    /// The engine failed internally (e.g. rewriting over a truncated
    /// materialization).
    Internal = 4,
}

impl Status {
    /// Every status, in discriminant order.
    pub const ALL: [Status; 5] = [
        Status::Ok,
        Status::NotAnswerable,
        Status::BadRequest,
        Status::Input,
        Status::Internal,
    ];

    fn from_u8(v: u8) -> Result<Status, WireError> {
        Status::ALL
            .into_iter()
            .find(|s| *s as u8 == v)
            .ok_or(WireError::BadEnum(v))
    }

    /// The process exit code the CLI maps this status to: `Ok` → 0,
    /// `NotAnswerable` → 1, `BadRequest` → 2, `Input`/`Internal` → 3.
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::NotAnswerable => 1,
            Status::BadRequest => 2,
            Status::Input | Status::Internal => 3,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::NotAnswerable => "not-answerable",
            Status::BadRequest => "bad-request",
            Status::Input => "input-error",
            Status::Internal => "internal-error",
        })
    }
}

/// The query knobs that travel over the wire: exactly
/// [`QueryOptions`] minus `collect_trace` (traces
/// are an in-process introspection hook; servers fold metrics instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Use the snapshot's rewrite cache.
    pub use_cache: bool,
    /// Fold the query's counters into the snapshot's cumulative metrics
    /// (the server folds every served query in, so its stats stay live).
    pub collect_metrics: bool,
}

impl WireOptions {
    /// Wire options for `strategy` with cache on and metrics off — the
    /// same defaults as [`QueryOptions::strategy`].
    pub fn strategy(strategy: Strategy) -> WireOptions {
        WireOptions {
            strategy,
            use_cache: true,
            collect_metrics: false,
        }
    }
}

impl Default for WireOptions {
    /// Mirrors `QueryOptions::default()`: `Hv`, cache on, metrics off.
    fn default() -> WireOptions {
        WireOptions::strategy(Strategy::Hv)
    }
}

impl From<WireOptions> for QueryOptions {
    fn from(w: WireOptions) -> QueryOptions {
        QueryOptions {
            strategy: w.strategy,
            use_cache: w.use_cache,
            collect_trace: false,
            collect_metrics: w.collect_metrics,
        }
    }
}

impl From<QueryOptions> for WireOptions {
    fn from(o: QueryOptions) -> WireOptions {
        WireOptions {
            strategy: o.strategy,
            use_cache: o.use_cache,
            collect_metrics: o.collect_metrics,
        }
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Answer one query.
    Query {
        /// XPath source, parsed against the server's current snapshot.
        query: String,
        /// Strategy + cache/metrics switches.
        options: WireOptions,
    },
    /// Answer a whole workload over the server's worker pool.
    Batch {
        /// XPath sources.
        queries: Vec<String>,
        /// Shared options for every query.
        options: WireOptions,
        /// Requested worker threads (the server clamps this).
        jobs: u32,
    },
    /// Read the cumulative metrics accumulator and server counters.
    Stats,
    /// Admin: register and materialize a new view, then atomically swap a
    /// fresh snapshot in.
    AddView {
        /// XPath source of the view.
        xpath: String,
    },
    /// Admin: load a new document from a server-local path, re-register
    /// every known view against it, and swap the snapshot.
    SwapDoc {
        /// Path to the XML document, resolved on the server's filesystem.
        path: String,
    },
    /// Admin: stop accepting connections and exit the serve loop.
    Shutdown,
    /// Run the view advisor over the server's resident document: propose
    /// a view set for the given workload under a byte budget. Tag
    /// appended after the original seven (pure addition — older clients
    /// interoperate, they just never send it).
    Advise {
        /// Workload queries (duplicates fold into frequencies
        /// server-side).
        queries: Vec<String>,
        /// Total materialized-byte budget for the proposed set.
        budget: u64,
        /// Advisor seed (generalization moves).
        seed: u64,
    },
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A successful single-query answer: the wire rendering of a
    /// [`QueryOutcome`](crate::QueryOutcome).
    Answer {
        /// Answer Dewey codes, rendered (`"0.2.1"`), document order.
        codes: Vec<String>,
        /// Strategy that answered.
        strategy: Strategy,
        /// Distinct views the rewriting consumed.
        views_used: u32,
        /// Candidate views selection considered.
        candidates: u32,
        /// VFILTER wall time, microseconds.
        filter_us: u64,
        /// Selection wall time, microseconds.
        selection_us: u64,
        /// Rewrite (or base evaluation) wall time, microseconds.
        rewrite_us: u64,
    },
    /// Per-query outcomes of a [`Request::Batch`], in input order.
    Batch {
        /// One item per submitted query.
        items: Vec<BatchItem>,
        /// End-to-end wall time of the batch, microseconds.
        wall_us: u64,
        /// Worker threads actually used.
        jobs: u32,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// Snapshot epoch (increments on every swap).
        epoch: u64,
        /// Queries folded into the cumulative accumulator.
        queries: u64,
        /// Of those, answered successfully.
        answered: u64,
        /// Connections accepted since the server started.
        connections: u64,
        /// Requests served since the server started.
        requests: u64,
        /// Human-readable [`MetricsReport`](crate::MetricsReport).
        report: String,
    },
    /// Reply to a successful [`Request::AddView`] / [`Request::SwapDoc`].
    Swapped {
        /// The new snapshot epoch.
        epoch: u64,
        /// Nodes in the (possibly new) document.
        nodes: u64,
        /// Views in the new snapshot.
        views: u32,
    },
    /// The request failed; `status` carries the shared error mapping.
    Error {
        /// Failure class (also the CLI exit code via
        /// [`Status::exit_code`]).
        status: Status,
        /// Human-readable cause.
        message: String,
    },
    /// Reply to [`Request::Shutdown`]: the server stops after this frame.
    ShuttingDown,
    /// Reply to [`Request::Advise`]: the wire rendering of a
    /// [`Proposal`](crate::Proposal).
    Advice {
        /// Proposed views, heaviest first.
        views: Vec<AdviceView>,
        /// Frequency-weighted workload queries the set answers.
        answered_weight: u64,
        /// Total workload weight (the denominator).
        total_weight: u64,
        /// Of `answered_weight`, the weight only the intersection
        /// fallback rescued.
        intersect_weight: u64,
        /// Measured materialized bytes of the proposed set.
        total_bytes: u64,
    },
}

/// One proposed view inside a [`Response::Advice`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdviceView {
    /// The view definition as XPath source.
    pub xpath: String,
    /// Measured materialized bytes over the server's document.
    pub bytes: u64,
    /// Workload weight the view contains on its own.
    pub weight: u64,
}

/// One query's outcome inside a [`Response::Batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchItem {
    /// Outcome class ([`Status::Ok`] means `codes` is the answer).
    pub status: Status,
    /// Rendered answer codes (empty unless `status` is `Ok`).
    pub codes: Vec<String>,
}

// --- request/response tags ----------------------------------------------

const REQ_PING: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_BATCH: u8 = 0x03;
const REQ_STATS: u8 = 0x04;
const REQ_ADD_VIEW: u8 = 0x05;
const REQ_SWAP_DOC: u8 = 0x06;
const REQ_SHUTDOWN: u8 = 0x07;
const REQ_ADVISE: u8 = 0x08;

const RESP_PONG: u8 = 0x81;
const RESP_ANSWER: u8 = 0x82;
const RESP_BATCH: u8 = 0x83;
const RESP_STATS: u8 = 0x84;
const RESP_SWAPPED: u8 = 0x85;
const RESP_ERROR: u8 = 0x86;
const RESP_SHUTTING_DOWN: u8 = 0x87;
const RESP_ADVICE: u8 = 0x88;

fn strategy_to_u8(s: Strategy) -> u8 {
    match s {
        Strategy::Bn => 0,
        Strategy::Bf => 1,
        Strategy::Mn => 2,
        Strategy::Mv => 3,
        Strategy::Hv => 4,
        Strategy::Cb => 5,
        // Appended in PR 8; tags 0-5 are unchanged, so pre-intersection
        // clients interoperate — they just never send 6.
        Strategy::HvIntersect => 6,
    }
}

fn strategy_from_u8(v: u8) -> Result<Strategy, WireError> {
    Strategy::all_extended()
        .into_iter()
        .find(|s| strategy_to_u8(*s) == v)
        .ok_or(WireError::BadEnum(v))
}

// --- encoding primitives ------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_options(out: &mut Vec<u8>, o: &WireOptions) {
    put_u8(out, strategy_to_u8(o.strategy));
    put_u8(
        out,
        u8::from(o.use_cache) | (u8::from(o.collect_metrics) << 1),
    );
}

/// Bounds-checked reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn strings(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.u32()? as usize;
        // Each string costs ≥ 4 bytes (its length prefix), so `n` is
        // bounded by the remaining payload — a hostile count cannot
        // pre-allocate beyond the frame cap.
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| self.str()).collect()
    }

    fn options(&mut self) -> Result<WireOptions, WireError> {
        let strategy = strategy_from_u8(self.u8()?)?;
        let flags = self.u8()?;
        Ok(WireOptions {
            strategy,
            use_cache: flags & 1 != 0,
            collect_metrics: flags & 2 != 0,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        let rest = self.buf.len() - self.pos;
        if rest != 0 {
            return Err(WireError::TrailingBytes(rest));
        }
        Ok(())
    }
}

impl Request {
    /// Encode to a payload (no length prefix; see [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => put_u8(&mut out, REQ_PING),
            Request::Query { query, options } => {
                put_u8(&mut out, REQ_QUERY);
                put_str(&mut out, query);
                put_options(&mut out, options);
            }
            Request::Batch {
                queries,
                options,
                jobs,
            } => {
                put_u8(&mut out, REQ_BATCH);
                put_u32(&mut out, queries.len() as u32);
                for q in queries {
                    put_str(&mut out, q);
                }
                put_options(&mut out, options);
                put_u32(&mut out, *jobs);
            }
            Request::Stats => put_u8(&mut out, REQ_STATS),
            Request::AddView { xpath } => {
                put_u8(&mut out, REQ_ADD_VIEW);
                put_str(&mut out, xpath);
            }
            Request::SwapDoc { path } => {
                put_u8(&mut out, REQ_SWAP_DOC);
                put_str(&mut out, path);
            }
            Request::Shutdown => put_u8(&mut out, REQ_SHUTDOWN),
            Request::Advise {
                queries,
                budget,
                seed,
            } => {
                put_u8(&mut out, REQ_ADVISE);
                put_u32(&mut out, queries.len() as u32);
                for q in queries {
                    put_str(&mut out, q);
                }
                put_u64(&mut out, *budget);
                put_u64(&mut out, *seed);
            }
        }
        out
    }

    /// Decode a payload; the whole slice must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query {
                query: r.str()?,
                options: r.options()?,
            },
            REQ_BATCH => Request::Batch {
                queries: r.strings()?,
                options: r.options()?,
                jobs: r.u32()?,
            },
            REQ_STATS => Request::Stats,
            REQ_ADD_VIEW => Request::AddView { xpath: r.str()? },
            REQ_SWAP_DOC => Request::SwapDoc { path: r.str()? },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_ADVISE => Request::Advise {
                queries: r.strings()?,
                budget: r.u64()?,
                seed: r.u64()?,
            },
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a payload (no length prefix; see [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => put_u8(&mut out, RESP_PONG),
            Response::Answer {
                codes,
                strategy,
                views_used,
                candidates,
                filter_us,
                selection_us,
                rewrite_us,
            } => {
                put_u8(&mut out, RESP_ANSWER);
                put_u32(&mut out, codes.len() as u32);
                for c in codes {
                    put_str(&mut out, c);
                }
                put_u8(&mut out, strategy_to_u8(*strategy));
                put_u32(&mut out, *views_used);
                put_u32(&mut out, *candidates);
                put_u64(&mut out, *filter_us);
                put_u64(&mut out, *selection_us);
                put_u64(&mut out, *rewrite_us);
            }
            Response::Batch {
                items,
                wall_us,
                jobs,
            } => {
                put_u8(&mut out, RESP_BATCH);
                put_u32(&mut out, items.len() as u32);
                for item in items {
                    put_u8(&mut out, item.status as u8);
                    put_u32(&mut out, item.codes.len() as u32);
                    for c in &item.codes {
                        put_str(&mut out, c);
                    }
                }
                put_u64(&mut out, *wall_us);
                put_u32(&mut out, *jobs);
            }
            Response::Stats {
                epoch,
                queries,
                answered,
                connections,
                requests,
                report,
            } => {
                put_u8(&mut out, RESP_STATS);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *queries);
                put_u64(&mut out, *answered);
                put_u64(&mut out, *connections);
                put_u64(&mut out, *requests);
                put_str(&mut out, report);
            }
            Response::Swapped {
                epoch,
                nodes,
                views,
            } => {
                put_u8(&mut out, RESP_SWAPPED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *nodes);
                put_u32(&mut out, *views);
            }
            Response::Error { status, message } => {
                put_u8(&mut out, RESP_ERROR);
                put_u8(&mut out, *status as u8);
                put_str(&mut out, message);
            }
            Response::ShuttingDown => put_u8(&mut out, RESP_SHUTTING_DOWN),
            Response::Advice {
                views,
                answered_weight,
                total_weight,
                intersect_weight,
                total_bytes,
            } => {
                put_u8(&mut out, RESP_ADVICE);
                put_u32(&mut out, views.len() as u32);
                for v in views {
                    put_str(&mut out, &v.xpath);
                    put_u64(&mut out, v.bytes);
                    put_u64(&mut out, v.weight);
                }
                put_u64(&mut out, *answered_weight);
                put_u64(&mut out, *total_weight);
                put_u64(&mut out, *intersect_weight);
                put_u64(&mut out, *total_bytes);
            }
        }
        out
    }

    /// Decode a payload; the whole slice must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_PONG => Response::Pong,
            RESP_ANSWER => Response::Answer {
                codes: r.strings()?,
                strategy: strategy_from_u8(r.u8()?)?,
                views_used: r.u32()?,
                candidates: r.u32()?,
                filter_us: r.u64()?,
                selection_us: r.u64()?,
                rewrite_us: r.u64()?,
            },
            RESP_BATCH => {
                let n = r.u32()? as usize;
                if n > payload.len() / 5 {
                    // Each item costs ≥ 5 bytes (status + code count).
                    return Err(WireError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let status = Status::from_u8(r.u8()?)?;
                    let codes = r.strings()?;
                    items.push(BatchItem { status, codes });
                }
                Response::Batch {
                    items,
                    wall_us: r.u64()?,
                    jobs: r.u32()?,
                }
            }
            RESP_STATS => Response::Stats {
                epoch: r.u64()?,
                queries: r.u64()?,
                answered: r.u64()?,
                connections: r.u64()?,
                requests: r.u64()?,
                report: r.str()?,
            },
            RESP_SWAPPED => Response::Swapped {
                epoch: r.u64()?,
                nodes: r.u64()?,
                views: r.u32()?,
            },
            RESP_ERROR => Response::Error {
                status: Status::from_u8(r.u8()?)?,
                message: r.str()?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_ADVICE => {
                let n = r.u32()? as usize;
                if n > payload.len() / 20 {
                    // Each view costs ≥ 20 bytes (length prefix + two u64s).
                    return Err(WireError::Truncated);
                }
                let mut views = Vec::with_capacity(n);
                for _ in 0..n {
                    views.push(AdviceView {
                        xpath: r.str()?,
                        bytes: r.u64()?,
                        weight: r.u64()?,
                    });
                }
                Response::Advice {
                    views,
                    answered_weight: r.u64()?,
                    total_weight: r.u64()?,
                    intersect_weight: r.u64()?,
                    total_bytes: r.u64()?,
                }
            }
            tag => return Err(WireError::BadTag(tag)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Write one frame: the `u32` big-endian payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized(payload.len() as u64));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. Returns `Ok(None)` on a clean end of stream
/// (EOF exactly at a frame boundary); EOF inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload), Ok(req));
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload), Ok(resp));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::AddView {
            xpath: "//site//item[name]".into(),
        });
        roundtrip_request(Request::SwapDoc {
            path: "/tmp/doc.xml".into(),
        });
        for strategy in Strategy::all_extended() {
            roundtrip_request(Request::Query {
                query: "//a[b]/c".into(),
                options: WireOptions {
                    strategy,
                    use_cache: strategy_to_u8(strategy).is_multiple_of(2),
                    collect_metrics: true,
                },
            });
        }
        roundtrip_request(Request::Batch {
            queries: vec!["//a".into(), String::new(), "//πφ/δ".into()],
            options: WireOptions::strategy(Strategy::Cb),
            jobs: 8,
        });
        roundtrip_request(Request::Advise {
            queries: vec!["//a[b]/c".into(), "//a[b]/c".into(), "//d".into()],
            budget: 1 << 20,
            seed: 42,
        });
        roundtrip_request(Request::Advise {
            queries: vec![],
            budget: u64::MAX,
            seed: 0,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Answer {
            codes: vec!["0.1.2".into(), "0.3".into()],
            strategy: Strategy::Hv,
            views_used: 2,
            candidates: 11,
            filter_us: 7,
            selection_us: 13,
            rewrite_us: 1 << 40,
        });
        roundtrip_response(Response::Batch {
            items: vec![
                BatchItem {
                    status: Status::Ok,
                    codes: vec!["0".into()],
                },
                BatchItem {
                    status: Status::NotAnswerable,
                    codes: vec![],
                },
            ],
            wall_us: 123,
            jobs: 4,
        });
        roundtrip_response(Response::Stats {
            epoch: 3,
            queries: 256,
            answered: 250,
            connections: 5,
            requests: 261,
            report: "queries: 256 (250 answered)\n".into(),
        });
        roundtrip_response(Response::Swapped {
            epoch: 9,
            nodes: 11_000,
            views: 48,
        });
        for status in Status::ALL {
            roundtrip_response(Response::Error {
                status,
                message: format!("{status}"),
            });
        }
        roundtrip_response(Response::Advice {
            views: vec![
                AdviceView {
                    xpath: "//a[b]/c".into(),
                    bytes: 4096,
                    weight: 17,
                },
                AdviceView {
                    xpath: "//πφ/δ".into(),
                    bytes: 0,
                    weight: 1,
                },
            ],
            answered_weight: 18,
            total_weight: 20,
            intersect_weight: 3,
            total_bytes: 4096,
        });
        roundtrip_response(Response::Advice {
            views: vec![],
            answered_weight: 0,
            total_weight: 0,
            intersect_weight: 0,
            total_bytes: 0,
        });
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let full = Request::Query {
            query: "//a[b]/c".into(),
            options: WireOptions::default(),
        }
        .encode();
        // Every proper prefix must fail with Truncated, never panic.
        for cut in 0..full.len() {
            assert_eq!(
                Request::decode(&full[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tags_and_enums_rejected() {
        assert_eq!(Request::decode(&[0x7f]), Err(WireError::BadTag(0x7f)));
        assert_eq!(Response::decode(&[0x01]), Err(WireError::BadTag(0x01)));
        // Query with strategy discriminant 9.
        let mut payload = vec![REQ_QUERY];
        put_str(&mut payload, "//a");
        payload.extend_from_slice(&[9, 1]);
        assert_eq!(Request::decode(&payload), Err(WireError::BadEnum(9)));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut payload = vec![REQ_ADD_VIEW];
        put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&payload), Err(WireError::BadUtf8));
    }

    #[test]
    fn hostile_counts_cannot_overallocate() {
        // A batch claiming 2^32-1 queries in a 9-byte payload.
        let mut payload = vec![REQ_BATCH];
        put_u32(&mut payload, u32::MAX);
        put_u32(&mut payload, 0);
        assert_eq!(Request::decode(&payload), Err(WireError::Truncated));

        // An advice response claiming 2^32-1 views in a tiny payload.
        let mut payload = vec![RESP_ADVICE];
        put_u32(&mut payload, u32::MAX);
        assert_eq!(Response::decode(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_advise_frames_error_cleanly() {
        let full = Request::Advise {
            queries: vec!["//a[b]/c".into(), "//d".into()],
            budget: 1 << 17,
            seed: 7,
        }
        .encode();
        for cut in 0..full.len() {
            assert_eq!(
                Request::decode(&full[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }

        let full = Response::Advice {
            views: vec![AdviceView {
                xpath: "//a[b]/c".into(),
                bytes: 128,
                weight: 3,
            }],
            answered_weight: 3,
            total_weight: 4,
            intersect_weight: 0,
            total_bytes: 128,
        }
        .encode();
        for cut in 1..full.len() {
            assert_eq!(
                Response::decode(&full[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn frame_io_roundtrip_and_limits() {
        let payload = Request::Query {
            query: "//site//item".into(),
            options: WireOptions::default(),
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        // EOF mid-frame.
        let mut cut = &buf[..buf.len() - 1];
        assert_eq!(read_frame(&mut cut), Err(WireError::Truncated));

        // Oversized length prefix is rejected before allocation.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert_eq!(
            read_frame(&mut r),
            Err(WireError::Oversized((MAX_FRAME_LEN + 1) as u64))
        );
    }

    #[test]
    fn status_exit_codes_match_cli_convention() {
        assert_eq!(Status::Ok.exit_code(), 0);
        assert_eq!(Status::NotAnswerable.exit_code(), 1);
        assert_eq!(Status::BadRequest.exit_code(), 2);
        assert_eq!(Status::Input.exit_code(), 3);
        assert_eq!(Status::Internal.exit_code(), 3);
    }

    #[test]
    fn wire_options_convert_to_query_options() {
        let w = WireOptions {
            strategy: Strategy::Mv,
            use_cache: false,
            collect_metrics: true,
        };
        let q: QueryOptions = w.into();
        assert_eq!(q.strategy, Strategy::Mv);
        assert!(!q.use_cache && q.collect_metrics && !q.collect_trace);
        assert_eq!(WireOptions::from(q), w);
    }
}
