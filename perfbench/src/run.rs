//! The untraced run: end-to-end metrics through the stable façade only —
//! `Engine::new`, `Engine::add_view`, `EngineSnapshot::parse`/`query`, and
//! `Server`/`Client`/`Request`.

use std::time::{Duration, Instant};

use xvr_core::{
    AnswerError, Client, Engine, EngineConfig, EngineSnapshot, QueryOptions, Request, Response,
    Server, ServerConfig, Status, Strategy, WireOptions,
};
use xvr_xml::{DeweyCode, Document};

use crate::inputs::{Inputs, Shape, Workload};
use crate::report::{median_f64, mix_percentile, peak_rss_mb, percentile, Metrics, END_TO_END};
use crate::span::nanos;

/// At most this many queries after each write count as post-write.
pub const POST_WRITE_QUERIES: usize = 8;
/// Queries per write on `serve_write`.
const QUERIES_PER_WRITE: usize = 64;
/// Writes in `register_cold`'s probe, in groups spread over its phase.
const PROBE_WRITES: usize = 20;
const PROBE_GROUPS: usize = 4;

/// What one run produced.
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted (gate checks, queries, writes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Wall time per phase, seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// Figures behind the metrics that carry no bound: each set-up, and
    /// the query rate over query time.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// Engine knobs of a workload.
fn engine_config(shape: &Shape) -> EngineConfig {
    EngineConfig {
        fragment_budget: shape.budget,
        ..EngineConfig::default()
    }
}

/// A system under test: in-process snapshot or TCP server.
trait Target {
    /// How answers are compared.
    type Codes: PartialEq;
    /// Answer `query` under `strategy`; `Ok(None)` when no view set
    /// answers it (the caller falls back to `Bn`). Every other error is
    /// a failure.
    fn answer(&mut self, query: &str, strategy: Strategy) -> Result<Option<Self::Codes>, String>;
    /// Register a new view and publish a snapshot with it.
    fn add_view(&mut self, xpath: &str) -> Result<(), String>;
}

/// HV first; `Bn` when HV cannot answer. Returns the codes and whether
/// views answered.
fn ask<T: Target>(target: &mut T, query: &str) -> Result<(T::Codes, bool), String> {
    if let Some(codes) = target.answer(query, Strategy::Hv)? {
        return Ok((codes, true));
    }
    match target.answer(query, Strategy::Bn)? {
        Some(codes) => Ok((codes, false)),
        None => Err(format!("{query}: Bn did not answer")),
    }
}

/// The writer engine and its current snapshot, queried in-process.
struct Local {
    engine: Engine,
    snap: EngineSnapshot,
    cache: bool,
}

impl Target for Local {
    type Codes = Vec<DeweyCode>;

    fn answer(
        &mut self,
        query: &str,
        strategy: Strategy,
    ) -> Result<Option<Vec<DeweyCode>>, String> {
        let q = self
            .snap
            .parse(query)
            .map_err(|e| format!("{query}: {e}"))?;
        let options = QueryOptions::strategy(strategy).with_cache(self.cache);
        match self.snap.query(&q, &options).answer {
            Ok(answer) => Ok(Some(answer.codes)),
            // Only "no view set answers" falls back; a rewrite error
            // after a committed selection is a failure.
            Err(AnswerError::NotAnswerable) if strategy != Strategy::Bn => Ok(None),
            Err(e) => Err(format!("{query}: {e}")),
        }
    }

    fn add_view(&mut self, xpath: &str) -> Result<(), String> {
        let before = self.engine.views().len();
        // The live snapshot makes this write copy-on-write, as under serve.
        self.engine
            .add_view_str(xpath)
            .map_err(|e| format!("{xpath}: {e}"))?;
        if self.engine.views().len() != before + 1 {
            return Err(format!("{xpath}: view count did not grow by one"));
        }
        self.snap = self.engine.snapshot();
        Ok(())
    }
}

/// A query connection and an admin connection to a running server.
struct Remote {
    queries: Client,
    admin: Client,
    cache: bool,
    epoch: u64,
    views: u32,
}

impl Target for Remote {
    type Codes = Vec<String>;

    fn answer(&mut self, query: &str, strategy: Strategy) -> Result<Option<Vec<String>>, String> {
        let request = Request::Query {
            query: query.to_string(),
            options: WireOptions {
                use_cache: self.cache,
                ..WireOptions::strategy(strategy)
            },
        };
        match self.queries.call(&request) {
            Ok(Response::Answer { codes, .. }) => Ok(Some(codes)),
            Ok(Response::Error {
                status: Status::NotAnswerable,
                ..
            }) if strategy != Strategy::Bn => Ok(None),
            Ok(other) => Err(format!("{query}: unexpected response {other:?}")),
            Err(e) => Err(format!("{query}: {e}")),
        }
    }

    fn add_view(&mut self, xpath: &str) -> Result<(), String> {
        let request = Request::AddView {
            xpath: xpath.to_string(),
        };
        match self.admin.call(&request) {
            Ok(Response::Swapped { epoch, views, .. })
                if epoch == self.epoch + 1 && views == self.views + 1 =>
            {
                self.epoch = epoch;
                self.views = views;
                Ok(())
            }
            Ok(other) => Err(format!(
                "{xpath}: expected Swapped to epoch {} with {} views, got {other:?}",
                self.epoch + 1,
                self.views + 1
            )),
            Err(e) => Err(format!("{xpath}: {e}")),
        }
    }
}

/// Samples and tallies of one run.
#[derive(Default)]
struct Tally {
    /// Timed-phase queries that do not follow a write: (distinct query,
    /// latency ns).
    queries: Vec<(usize, u64)>,
    /// The first queries after each write.
    post_write: Vec<(usize, u64)>,
    write_ns: Vec<u64>,
    answered: u64,
    by_views: u64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// The measured plan shared by both targets.
struct Plan<'a> {
    workload: Workload,
    distinct: &'a [String],
    mix: &'a [usize],
    writes: &'a [String],
    seconds: f64,
}

/// Answer every distinct query with the workload's strategy and with
/// `Bn`; returns the `Bn` answers, the ground truth every later answer
/// is checked against.
fn gate<T: Target>(target: &mut T, plan: &Plan, tally: &mut Tally) -> Vec<Option<T::Codes>> {
    let mut truth = Vec::with_capacity(plan.distinct.len());
    for query in plan.distinct {
        tally.attempted += 1;
        let checked =
            ask(target, query).and_then(|(codes, _)| match target.answer(query, Strategy::Bn)? {
                Some(bn) if bn == codes => Ok(bn),
                Some(_) => Err(format!("{query}: answer differs from Bn")),
                None => Err(format!("{query}: Bn did not answer")),
            });
        match checked {
            Ok(bn) => truth.push(Some(bn)),
            Err(e) => {
                tally.fail(e);
                truth.push(None);
            }
        }
    }
    truth
}

/// One checked query; returns its latency in ns.
fn timed_query<T: Target>(
    target: &mut T,
    query: &str,
    truth: &Option<T::Codes>,
    tally: &mut Tally,
) -> u64 {
    tally.attempted += 1;
    let t0 = Instant::now();
    let result = ask(target, query);
    let ns = nanos(t0.elapsed());
    match result {
        Ok((codes, by_views)) if truth.as_ref() == Some(&codes) => {
            tally.answered += 1;
            tally.by_views += u64::from(by_views);
        }
        Ok(_) => tally.fail(format!("{query}: answer differs from Bn")),
        Err(e) => tally.fail(e),
    }
    ns
}

/// One checked write; returns its latency in ns.
fn timed_write<T: Target>(target: &mut T, xpath: &str, tally: &mut Tally) -> u64 {
    tally.attempted += 1;
    let t0 = Instant::now();
    let result = target.add_view(xpath);
    let ns = nanos(t0.elapsed());
    if let Err(e) = result {
        tally.fail(e);
    }
    ns
}

/// Gate, warm up, and run the timed phase against `target`.
fn drive<T: Target>(target: &mut T, plan: &Plan, phases: &mut Vec<(&'static str, f64)>) -> Tally {
    let mut tally = Tally::default();
    let t = Instant::now();
    let truth = gate(target, plan, &mut tally);
    phases.push(("gate", t.elapsed().as_secs_f64()));

    // One untimed pass: fills the rewrite cache where the workload uses it.
    let t = Instant::now();
    for &qi in plan.mix {
        timed_query(target, &plan.distinct[qi], &truth[qi], &mut tally);
    }
    phases.push(("warm", t.elapsed().as_secs_f64()));

    // After a swap, one pass over the distinct queries (at most 8) runs on
    // a cold rewrite cache.
    let post_write = plan.distinct.len().min(POST_WRITE_QUERIES);
    let budget = Duration::from_secs_f64(plan.seconds);
    let mut writes = plan.writes.iter();
    let mut next = 0usize;
    // The next query of the mix: (distinct query, latency ns).
    let mut query = |target: &mut T, tally: &mut Tally| {
        let qi = plan.mix[next % plan.mix.len()];
        next += 1;
        (
            qi,
            timed_query(target, &plan.distinct[qi], &truth[qi], tally),
        )
    };
    let t = Instant::now();
    match plan.workload {
        Workload::ServeWrite => {
            // Closed loop: one write, then 64 queries. Stops early if the
            // write list runs out.
            while t.elapsed() < budget {
                let Some(xpath) = writes.next() else { break };
                let ns = timed_write(target, xpath, &mut tally);
                tally.write_ns.push(ns);
                for j in 0..QUERIES_PER_WRITE {
                    let sample = query(target, &mut tally);
                    if j < post_write {
                        tally.post_write.push(sample);
                    } else {
                        tally.queries.push(sample);
                    }
                }
            }
        }
        Workload::RegisterCold => {
            // Closed loop over whole passes of the mix. The probe writes
            // come in groups spread over the phase, so they sample the
            // whole run rather than its last seconds; the budget counts
            // query time only.
            let mut write_time = Duration::ZERO;
            for group in 1..=PROBE_GROUPS {
                let until = budget.mul_f64(group as f64 / PROBE_GROUPS as f64);
                while t.elapsed().saturating_sub(write_time) < until {
                    for _ in 0..plan.mix.len() {
                        let sample = query(target, &mut tally);
                        tally.queries.push(sample);
                    }
                }
                let w = Instant::now();
                for xpath in writes.by_ref().take(PROBE_WRITES / PROBE_GROUPS) {
                    let ns = timed_write(target, xpath, &mut tally);
                    tally.write_ns.push(ns);
                    for _ in 0..post_write {
                        let sample = query(target, &mut tally);
                        tally.post_write.push(sample);
                    }
                }
                write_time += w.elapsed();
            }
        }
    }
    phases.push(("measure", t.elapsed().as_secs_f64()));
    tally
}

/// Build the writer engine: `Engine::new` plus every catalog view.
pub fn build_engine(doc: Document, views: &[String], shape: &Shape) -> Result<Engine, String> {
    let mut engine = Engine::new(doc, engine_config(shape));
    for xpath in views {
        engine
            .add_view_str(xpath)
            .map_err(|e| format!("view {xpath}: {e}"))?;
    }
    Ok(engine)
}

/// What set-up hands to the timed phases.
enum Ready {
    Served(Server),
    Local(Engine),
}

/// Serve `server` on a scoped thread while `body` runs against its
/// address, then shut it down and wait for it.
pub fn with_server<T>(
    server: Server,
    body: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let result = body(&addr);
        let shutdown = Client::connect(&addr)
            .map_err(|e| format!("shutdown: {e}"))
            .and_then(|mut admin| match admin.call(&Request::Shutdown) {
                Ok(Response::ShuttingDown) => Ok(()),
                other => Err(format!("shutdown: {other:?}")),
            });
        let stopped = serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        stopped.map_err(|e| format!("server: {e}"))?;
        shutdown?;
        result
    })
}

/// Connect to `addr`, waiting while the server comes up.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_retry(addr, Duration::from_secs(10)).map_err(|e| format!("connect: {e}"))
}

/// Run `workload` untraced for `seconds`.
pub fn run(workload: Workload, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let shape = workload.shape();
    let (distinct, mix) = inputs.distinct_queries();
    let plan = Plan {
        workload,
        distinct: &distinct,
        mix: &mix,
        writes: &inputs.writes,
        seconds,
    };
    let mut phases = Vec::new();

    // Set-up, repeated: `Engine::new`, every view, and binding the server.
    let t = Instant::now();
    let mut setups = Vec::with_capacity(workload.setups());
    let mut store_mb = 0.0;
    let mut ready = None;
    for _ in 0..workload.setups() {
        drop(ready.take());
        let doc = inputs.doc.clone();
        let t0 = Instant::now();
        let engine = build_engine(doc, &inputs.views, &shape)?;
        store_mb = engine.store().total_bytes() as f64 / 1e6;
        ready = Some(if workload.served() {
            let sources = inputs.views.clone();
            Ready::Served(
                Server::bind("127.0.0.1:0", engine, sources, ServerConfig::default())
                    .map_err(|e| e.to_string())?,
            )
        } else {
            Ready::Local(engine)
        });
        setups.push(t0.elapsed().as_secs_f64());
    }
    phases.push(("setup", t.elapsed().as_secs_f64()));

    let tally = match ready.ok_or("no set-up ran")? {
        Ready::Served(server) => with_server(server, |addr| {
            let mut remote = Remote {
                queries: connect(addr)?,
                admin: connect(addr)?,
                cache: true,
                epoch: 0,
                views: u32::try_from(inputs.views.len()).map_err(|e| e.to_string())?,
            };
            Ok(drive(&mut remote, &plan, &mut phases))
        })?,
        Ready::Local(engine) => {
            let mut local = Local {
                snap: engine.snapshot(),
                engine,
                cache: false,
            };
            drive(&mut local, &plan, &mut phases)
        }
    };

    // p90, per query and weighted by its share of the mix. On the host
    // these runs were tuned on, the lower part of each query's latencies
    // depends on whether the neighbours leave its data in the shared
    // cache, which flips for seconds to minutes at a time: over sets of
    // ten runs p50 spread up to 0.36 and p75 0.15, p90 at most 0.16.
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", median_f64(&setups));
    metrics.set("query_p90_us", mix_percentile(&tally.queries, 90.0, 1e-3));
    metrics.set("write_p90_ms", percentile(&tally.write_ns, 90.0, 1e-6));
    metrics.set(
        "post_write_query_p90_us",
        mix_percentile(&tally.post_write, 90.0, 1e-3),
    );
    metrics.set(
        "view_answer_share",
        tally.by_views as f64 / tally.answered.max(1) as f64,
    );
    let attempted = tally.attempted.max(1);
    metrics.set(
        "ok_share",
        (attempted - tally.failed.min(attempted)) as f64 / attempted as f64,
    );
    metrics.set("store_mb", store_mb);
    metrics.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    // Queries per second of query time, writes excluded: with one
    // connection in a closed loop this is the reciprocal of the mean
    // latency, so it is a diagnostic, not a metric.
    let timed = tally.queries.iter().chain(&tally.post_write);
    let (count, query_ns) = timed.fold((0u64, 0u64), |(n, ns), &(_, t)| (n + 1, ns + t));
    let query_qps = count as f64 / (query_ns.max(1) as f64 / 1e9);
    Ok(Outcome {
        metrics,
        attempted,
        failed: tally.failed,
        first_error: tally.first_error,
        phases,
        series: vec![("setup_s", setups), ("query_qps", vec![query_qps])],
    })
}
