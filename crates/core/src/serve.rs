//! The serving layer: a long-running TCP query service over an
//! [`EngineSnapshot`], with hot snapshot swap, plus the matching client
//! and an open-loop load generator.
//!
//! ## Hot swap
//!
//! The server never locks the query path. All traffic reads through a
//! [`SnapshotCell`]: an epoch-counted `Arc<EngineSnapshot>` slot. A query
//! clones the `Arc` out of the cell (a reference-count bump under a
//! momentary read lock) and then runs entirely on that snapshot — so when
//! an admin request swaps a new snapshot in, in-flight queries finish on
//! the old one while every later query sees the new one. There is no torn
//! state in between: a query observes exactly one epoch. The old snapshot
//! is freed when its last in-flight query drops it.
//!
//! ## Protocol
//!
//! One TCP connection carries a sequence of length-prefixed frames (see
//! [`crate::wire`] for the layout); each [`Request`] frame gets exactly
//! one [`Response`] frame, in order. The request/response types are a
//! direct encoding of [`QueryOptions`]/`QueryOutcome`, so the protocol
//! surface and the embedded API cannot drift apart.
//!
//! ## Load generation
//!
//! [`run_load`] drives a server **open-loop**: requests are scheduled on
//! a fixed timeline (`i / qps` after start) regardless of when earlier
//! responses arrive, and latency is measured from the *scheduled* send
//! time. A server that stalls therefore shows the stall in its tail
//! latencies instead of silently slowing the generator down (the
//! coordinated-omission trap closed-loop harnesses fall into). `qps = 0`
//! selects closed-loop mode for maximum-throughput measurement.

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use xvr_pattern::TreePattern;

use crate::advise::{Advisor, AdvisorConfig, Workload};
use crate::engine::Engine;
use crate::error::QueryError;
use crate::snapshot::{EngineSnapshot, QueryOptions};
use crate::wire::{
    read_frame, write_frame, AdviceView, BatchItem, Request, Response, Status, WireError,
    WireOptions,
};

/// An epoch-counted, atomically swappable `Arc<EngineSnapshot>` slot —
/// the hot-swap primitive the server reads through.
///
/// [`SnapshotCell::load`] is a reference-count bump under a momentary
/// read lock; [`SnapshotCell::swap`] replaces the slot and bumps the
/// epoch. Readers that loaded before a swap keep the old snapshot alive
/// until they drop it; readers that load after see the new one. No
/// reader ever observes a mixture.
pub struct SnapshotCell {
    slot: RwLock<Arc<EngineSnapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Wrap `snapshot` at epoch 0.
    pub fn new(snapshot: EngineSnapshot) -> SnapshotCell {
        SnapshotCell {
            slot: RwLock::new(Arc::new(snapshot)),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current snapshot. The returned `Arc` pins that snapshot for
    /// as long as the caller holds it — later swaps don't affect it.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot cell poisoned"))
    }

    /// Publish `snapshot`, returning the new epoch. In-flight loads keep
    /// the previous snapshot; subsequent loads get this one. The write
    /// lock covers only the pointer store: the previous snapshot is
    /// released after the lock, so no `load` waits behind freeing it.
    pub fn swap(&self, snapshot: EngineSnapshot) -> u64 {
        let next = Arc::new(snapshot);
        let (old, epoch) = {
            let mut slot = self.slot.write().expect("snapshot cell poisoned");
            let old = std::mem::replace(&mut *slot, next);
            (old, self.epoch.fetch_add(1, Ordering::AcqRel) + 1)
        };
        drop(old);
        epoch
    }

    /// How many swaps have been published.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Server behaviour knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads used for [`Request::Batch`] fan-out.
    pub jobs: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { jobs: 4 }
    }
}

/// Shared server state: the snapshot cell queries read through, the
/// writer engine admin requests mutate, and the serve counters.
struct ServerState {
    cell: SnapshotCell,
    /// The writer. Locked only by admin requests (`AddView`, `SwapDoc`);
    /// the query path never touches it.
    engine: Mutex<Engine>,
    /// XPath sources of every registered view, in registration order —
    /// what `SwapDoc` replays against a new document.
    view_sources: Mutex<Vec<String>>,
    config: ServerConfig,
    running: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
}

/// A bound (but not yet serving) query server. Call [`Server::run`] to
/// enter the accept loop; it returns after a [`Request::Shutdown`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `engine`. `view_sources` must list the XPath text of the views
    /// already registered in `engine` (in order) — [`Request::SwapDoc`]
    /// replays them against the new document.
    pub fn bind(
        addr: &str,
        engine: Engine,
        view_sources: Vec<String>,
        config: ServerConfig,
    ) -> Result<Server, QueryError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| QueryError::io(format!("bind {addr}"), e))?;
        let state = Arc::new(ServerState {
            cell: SnapshotCell::new(engine.snapshot()),
            engine: Mutex::new(engine),
            view_sources: Mutex::new(view_sources),
            config,
            running: AtomicBool::new(true),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Accept and serve connections until a [`Request::Shutdown`]
    /// arrives. Each connection is served by its own thread; connection
    /// threads exit on client EOF, so `run` returning does not tear down
    /// responses already in flight.
    pub fn run(self) -> Result<(), QueryError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| QueryError::io("listener", e))?;
        while self.state.running.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.state.connections.fetch_add(1, Ordering::Relaxed);
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || serve_connection(stream, &state));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(QueryError::io("accept", e)),
            }
        }
        Ok(())
    }
}

/// Serve one connection: a loop of request frame → response frame.
/// Returns on client EOF, transport failure, framing-level corruption
/// (a malformed frame leaves the stream position undefined, so the only
/// safe move is to drop the connection), or shutdown.
fn serve_connection(stream: TcpStream, state: &ServerState) {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(_) => return,   // truncated/oversized/transport: drop
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        // A frame that arrived intact but doesn't decode is the peer's
        // mistake, not stream corruption: answer with BadRequest and
        // keep the connection.
        let (response, shutdown) = match Request::decode(&payload) {
            Ok(request) => handle_request(request, state),
            Err(e) => (
                Response::Error {
                    status: Status::BadRequest,
                    message: QueryError::from(e).to_string(),
                },
                false,
            ),
        };
        if write_frame(&mut writer, &response.encode()).is_err() {
            return;
        }
        if shutdown {
            state.running.store(false, Ordering::Release);
            return;
        }
    }
}

/// Dispatch one request. Returns the response and whether the server
/// should stop accepting after sending it.
fn handle_request(request: Request, state: &ServerState) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Query { query, options } => (handle_query(&query, options, state), false),
        Request::Batch {
            queries,
            options,
            jobs,
        } => (handle_batch(&queries, options, jobs, state), false),
        Request::Stats => (handle_stats(state), false),
        Request::AddView { xpath } => (
            handle_add_view(&xpath, state).unwrap_or_else(error_response),
            false,
        ),
        Request::SwapDoc { path } => (
            handle_swap_doc(&path, state).unwrap_or_else(error_response),
            false,
        ),
        Request::Shutdown => (Response::ShuttingDown, true),
        Request::Advise {
            queries,
            budget,
            seed,
        } => (
            handle_advise(&queries, budget, seed, state).unwrap_or_else(error_response),
            false,
        ),
    }
}

fn error_response(e: QueryError) -> Response {
    Response::Error {
        status: e.status(),
        message: e.to_string(),
    }
}

/// Client-supplied options with metrics always on: every served query
/// folds into the engine's cumulative metrics, so [`Request::Stats`] is
/// always live (the per-query counter cost is integer additions).
fn served_options(options: WireOptions) -> QueryOptions {
    QueryOptions::from(options).with_metrics()
}

fn handle_query(query: &str, options: WireOptions, state: &ServerState) -> Response {
    // Pin the snapshot once: parse and answer see the same epoch even if
    // a swap lands mid-request.
    let snap = state.cell.load();
    let q = match snap.parse(query) {
        Ok(q) => q,
        Err(e) => return error_response(e.into()),
    };
    let outcome = snap.query(&q, &served_options(options));
    match outcome.answer {
        Ok(answer) => Response::Answer {
            codes: answer.codes.iter().map(|c| c.to_string()).collect(),
            strategy: answer.strategy,
            views_used: answer.views_used.len() as u32,
            candidates: answer.candidates as u32,
            filter_us: answer.timings.filter_us as u64,
            selection_us: answer.timings.selection_us as u64,
            rewrite_us: answer.timings.rewrite_us as u64,
        },
        Err(e) => error_response(e.into()),
    }
}

fn handle_batch(
    queries: &[String],
    options: WireOptions,
    jobs: u32,
    state: &ServerState,
) -> Response {
    let snap = state.cell.load();
    // Per-item parse outcomes: a bad query fails its slot, not the batch.
    let mut items: Vec<BatchItem> = queries
        .iter()
        .map(|_| BatchItem {
            status: Status::Input,
            codes: Vec::new(),
        })
        .collect();
    let mut parsed: Vec<TreePattern> = Vec::new();
    let mut parsed_at: Vec<usize> = Vec::new();
    for (i, src) in queries.iter().enumerate() {
        if let Ok(p) = snap.parse(src) {
            parsed_at.push(i);
            parsed.push(p);
        }
    }
    let jobs = (jobs as usize).clamp(1, state.config.jobs.max(1));
    let batch = snap.query_batch(&parsed, &served_options(options), jobs);
    for (slot, answer) in parsed_at.iter().zip(batch.answers) {
        items[*slot] = match answer {
            Ok(a) => BatchItem {
                status: Status::Ok,
                codes: a.codes.iter().map(|c| c.to_string()).collect(),
            },
            Err(e) => BatchItem {
                status: QueryError::from(e).status(),
                codes: Vec::new(),
            },
        };
    }
    Response::Batch {
        items,
        wall_us: batch.wall_us as u64,
        jobs: batch.jobs as u32,
    }
}

fn handle_stats(state: &ServerState) -> Response {
    let snap = state.cell.load();
    let report = snap.metrics_report();
    Response::Stats {
        epoch: state.cell.epoch(),
        queries: report.queries,
        answered: report.answered,
        connections: state.connections.load(Ordering::Relaxed),
        requests: state.requests.load(Ordering::Relaxed),
        report: report.to_string(),
    }
}

fn swapped_response(state: &ServerState, epoch: u64) -> Response {
    let snap = state.cell.load();
    Response::Swapped {
        epoch,
        nodes: snap.doc().len() as u64,
        views: snap.views().len() as u32,
    }
}

fn handle_add_view(xpath: &str, state: &ServerState) -> Result<Response, QueryError> {
    let mut engine = state.engine.lock().expect("engine poisoned");
    engine.add_view_str(xpath)?;
    state
        .view_sources
        .lock()
        .expect("view sources poisoned")
        .push(xpath.to_string());
    let epoch = state.cell.swap(engine.snapshot());
    Ok(swapped_response(state, epoch))
}

fn handle_swap_doc(path: &str, state: &ServerState) -> Result<Response, QueryError> {
    let xml = std::fs::read_to_string(path).map_err(|e| QueryError::io(path, e))?;
    let doc = xvr_xml::parse_document(&xml)?;
    let mut engine = state.engine.lock().expect("engine poisoned");
    // Build the replacement completely before publishing anything, so a
    // view that no longer parses leaves the old document fully serving.
    let mut next = Engine::new(doc, engine.config().clone());
    next.inherit_metrics(&engine);
    let sources = state.view_sources.lock().expect("view sources poisoned");
    for src in sources.iter() {
        next.add_view_str(src)?;
    }
    drop(sources);
    *engine = next;
    let epoch = state.cell.swap(engine.snapshot());
    Ok(swapped_response(state, epoch))
}

/// Run the view advisor over the resident document. Read-only: the
/// advisor builds its probe/scoring engines from a *clone* of the
/// pinned snapshot's document, so the serving state (and the writer
/// engine) is never touched and queries keep flowing while the advisor
/// runs.
fn handle_advise(
    queries: &[String],
    budget: u64,
    seed: u64,
    state: &ServerState,
) -> Result<Response, QueryError> {
    let snap = state.cell.load();
    let workload = Workload::from_sources(queries.iter().map(String::as_str))?;
    let config = AdvisorConfig {
        budget: usize::try_from(budget).unwrap_or(usize::MAX),
        seed,
        jobs: state.config.jobs.max(1),
        engine: snap.config().clone(),
        ..AdvisorConfig::default()
    };
    let proposal = Advisor::new(config).advise(snap.doc(), &workload)?;
    Ok(Response::Advice {
        views: proposal
            .views
            .iter()
            .map(|v| AdviceView {
                xpath: v.xpath.clone(),
                bytes: v.bytes as u64,
                weight: v.weight,
            })
            .collect(),
        answered_weight: proposal.score.answered_weight,
        total_weight: proposal.score.total_weight,
        intersect_weight: proposal.score.intersect_weight,
        total_bytes: proposal.score.bytes as u64,
    })
}

/// A blocking client for the serve protocol: one TCP connection, one
/// request/response exchange per [`Client::call`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Client, QueryError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| QueryError::io(format!("connect {addr}"), e))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| QueryError::io("clone stream", e))?,
        );
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Connect to `addr`, retrying for up to `timeout` while the server
    /// is still coming up (connection refused / reset).
    pub fn connect_retry(addr: &str, timeout: Duration) -> Result<Client, QueryError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Send `request` and wait for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        self.call_raw(&request.encode())
    }

    /// Send a raw (possibly malformed) payload in a well-formed frame and
    /// wait for the response. Lets tests exercise the server's handling
    /// of undecodable payloads without forging a whole connection.
    pub fn call_raw(&mut self, payload: &[u8]) -> Result<Response, WireError> {
        write_frame(&mut self.writer, payload)?;
        let reply = read_frame(&mut self.reader)?.ok_or(WireError::Truncated)?;
        Response::decode(&reply)
    }

    /// Ask the server's view advisor for a proposal: which views to
    /// materialize for `queries` (duplicates fold into frequencies)
    /// under a total byte `budget`.
    pub fn advise(
        &mut self,
        queries: Vec<String>,
        budget: u64,
        seed: u64,
    ) -> Result<Response, WireError> {
        self.call(&Request::Advise {
            queries,
            budget,
            seed,
        })
    }
}

/// What [`run_load`] should drive.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The query mix; request `i` sends `queries[i % queries.len()]`.
    pub queries: Vec<String>,
    /// Options attached to every query.
    pub options: WireOptions,
    /// Concurrent connections (one worker thread each).
    pub connections: usize,
    /// Offered load in queries/second across all connections; `0.0`
    /// means closed-loop (each worker sends as fast as responses come
    /// back) for maximum-throughput measurement.
    pub qps: f64,
    /// Total requests to send.
    pub total: usize,
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests completed (sum of the three outcome classes).
    pub completed: usize,
    /// Answered successfully.
    pub ok: usize,
    /// Rejected as not answerable (a valid domain outcome).
    pub unanswerable: usize,
    /// Everything else: transport failures, protocol errors, internal
    /// server errors. A healthy run has zero.
    pub errors: usize,
    /// End-to-end wall time of the run, microseconds.
    pub wall_us: u64,
    /// Completed requests per second of wall time.
    pub sustained_qps: f64,
    /// Mean latency, microseconds (open-loop: from *scheduled* send
    /// time, so server stalls surface here instead of vanishing into
    /// generator back-pressure).
    pub mean_us: f64,
    /// Latency percentiles, microseconds.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
}

impl LoadReport {
    /// Render as a JSON object fragment (no trailing newline) for
    /// embedding into benchmark files like `BENCH_serve.json`.
    pub fn json_fragment(&self) -> String {
        format!(
            "{{\"requests\": {}, \"ok\": {}, \"unanswerable\": {}, \"errors\": {}, \
             \"wall_us\": {}, \"sustained_qps\": {:.0}, \
             \"latency_us\": {{\"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}}}}",
            self.completed,
            self.ok,
            self.unanswerable,
            self.errors,
            self.wall_us,
            self.sustained_qps,
            self.mean_us,
            self.p50_us,
            self.p90_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
        )
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} ({} ok, {} unanswerable, {} errors)",
            self.completed, self.ok, self.unanswerable, self.errors
        )?;
        writeln!(
            f,
            "sustained: {:.0} q/s over {}µs",
            self.sustained_qps, self.wall_us
        )?;
        write!(
            f,
            "latency µs: mean {:.1} | p50 {} | p90 {} | p95 {} | p99 {} | max {}",
            self.mean_us, self.p50_us, self.p90_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the value at
/// rank `ceil(p·n/100)` (1-based), clamped into the slice; 0 when empty.
///
/// The rank is computed as `(p * n) / 100`, not `(p / 100) * n`: for
/// integer `p` the product `p·n` is exact in an f64, so the division
/// rounds once and `ceil` lands on the true rational rank. The reversed
/// order misranks whenever `p/100` is unrepresentable — e.g. `p = 7`,
/// `n = 100` computes `7.000000000000001`, ceils to rank 8, and reports
/// the wrong element. The property tests in `tests/proptest_core.rs`
/// hold this against an integer-arithmetic reference.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64) / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drive `addr` with `config.total` requests over
/// `config.connections` worker connections, open-loop at `config.qps`
/// (closed-loop when `0.0`). See the module docs for the latency
/// methodology.
pub fn run_load(addr: &str, config: &LoadConfig) -> Result<LoadReport, QueryError> {
    assert!(!config.queries.is_empty(), "empty workload");
    let connections = config.connections.max(1);
    // Connect everything before starting the clock so ramp-up doesn't
    // count against the measured interval.
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        clients.push(Client::connect_retry(addr, Duration::from_secs(5))?);
    }
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_worker: Vec<(Vec<u64>, usize, usize, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let (mut ok, mut unanswerable, mut errors) = (0usize, 0usize, 0usize);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= config.total {
                            break;
                        }
                        // Open-loop: request i is *due* at t0 + i/qps on
                        // the shared timeline; we wait for the due time
                        // but measure from it.
                        let due = if config.qps > 0.0 {
                            let due = t0 + Duration::from_secs_f64(i as f64 / config.qps);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            due
                        } else {
                            Instant::now()
                        };
                        let request = Request::Query {
                            query: config.queries[i % config.queries.len()].clone(),
                            options: config.options,
                        };
                        match client.call(&request) {
                            Ok(Response::Answer { .. }) => ok += 1,
                            Ok(Response::Error {
                                status: Status::NotAnswerable,
                                ..
                            }) => unanswerable += 1,
                            _ => errors += 1,
                        }
                        latencies.push(due.elapsed().as_micros() as u64);
                    }
                    (latencies, ok, unanswerable, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect()
    });
    let wall_us = t0.elapsed().as_micros() as u64;
    let mut latencies = Vec::with_capacity(config.total);
    let (mut ok, mut unanswerable, mut errors) = (0usize, 0usize, 0usize);
    for (lat, o, u, e) in per_worker {
        latencies.extend(lat);
        ok += o;
        unanswerable += u;
        errors += e;
    }
    latencies.sort_unstable();
    let completed = latencies.len();
    let mean_us = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    Ok(LoadReport {
        completed,
        ok,
        unanswerable,
        errors,
        wall_us,
        sustained_qps: if wall_us == 0 {
            0.0
        } else {
            completed as f64 / (wall_us as f64 / 1e6)
        },
        mean_us,
        p50_us: percentile(&latencies, 50.0),
        p90_us: percentile(&latencies, 90.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use xvr_xml::samples::book_document;

    #[test]
    fn snapshot_cell_swap_bumps_epoch_and_pins_loads() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s[t]/p").unwrap();
        let cell = SnapshotCell::new(engine.snapshot());
        assert_eq!(cell.epoch(), 0);
        let old = cell.load();
        let views_before = old.views().len();

        engine.add_view_str("//s[p]/f").unwrap();
        assert_eq!(cell.swap(engine.snapshot()), 1);
        assert_eq!(cell.epoch(), 1);
        // The pinned Arc still sees the pre-swap catalog; a fresh load
        // sees the new one.
        assert_eq!(old.views().len(), views_before);
        assert_eq!(cell.load().views().len(), views_before + 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 95.0), 0);
    }

    #[test]
    fn load_report_json_fragment_has_the_contract_fields() {
        let report = LoadReport {
            completed: 10,
            ok: 9,
            unanswerable: 1,
            errors: 0,
            wall_us: 1000,
            sustained_qps: 10_000.0,
            mean_us: 81.5,
            p50_us: 70,
            p90_us: 120,
            p95_us: 150,
            p99_us: 190,
            max_us: 200,
        };
        let json = report.json_fragment();
        for field in [
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"sustained_qps\"",
            "\"errors\"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }
}
