//! The traced run: per-layer metrics, timed from outside the library.
//!
//! This is the one file that calls the per-stage functions directly; the
//! untraced run uses only the façade. Spans sit around each call:
//!
//! - registration: `NodeIndex`/`PathIndex::build`, `ViewSet::add`,
//!   `Nfa::insert`, `xvr_pattern::eval`, `FragmentSet::materialize`,
//!   `DeweyAssignment::assign`;
//! - writes: `MaterializedStore::clone`, `Engine::add_view` with a live
//!   snapshot, `SnapshotCell::swap`;
//! - queries: `EngineSnapshot::parse`, VFILTER, heuristic selection, the
//!   rewrite entry point, `eval_bn`, answer-code formatting,
//!   `Request`/`Response::encode` and `decode`;
//! - serving: the `Client::call` round trip against a server over the
//!   same engine, whose self time is the round trip minus the in-process
//!   layers of the same query.
//!
//! The in-process query chain runs twice per query, with spans off and
//! on, so `trace.overhead_pct` is the cost of tracing itself; the façade
//! runs the same query once more, untraced, as the reference the query
//! layers must sum to within 10%.

use std::time::Instant;

use xvr_core::filter::filter_views_metered;
use xvr_core::nfa::AcceptEntry;
use xvr_core::{
    rewrite_metered, select_heuristic_metered, AnswerError, Client, Counter, Engine,
    EngineSnapshot, FilterOptions, Nfa, Obligations, QueryOptions, QueryReport, Request, Response,
    RewriteCache, Server, ServerConfig, SnapshotCell, StageCounters, Status, Strategy, ViewSet,
    WireError, WireOptions,
};
use xvr_pattern::{eval, eval_bn, parse_pattern_with};
use xvr_xml::{DeweyAssignment, DeweyCode, FragmentSet, NodeIndex, PathIndex};

use crate::inputs::{Inputs, Workload};
use crate::report::{median_f64, Metrics, PER_LAYER};
use crate::run::{build_engine, connect, with_server, POST_WRITE_QUERIES};
use crate::span::{layer_totals, nanos, self_times, total_self_ns, Span, Tracer};

/// Query id of the registration spans.
const REGISTRATION: u32 = u32::MAX;
/// Query ids of write spans start here.
const WRITE_BASE: u32 = 1 << 30;
/// Traced writes per run.
const TRACED_WRITES: usize = 6;
/// Minimum number of traced queries (whole passes of the mix).
const TRACED_QUERIES: usize = 512;
/// Layer sums must land within this share of their parent span.
const SUM_TOLERANCE: f64 = 0.10;

/// What the traced run produced.
pub struct TraceOutcome {
    /// Per-layer metric values.
    pub metrics: Metrics,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, layer-sum violations included.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

#[derive(Default)]
struct Registration {
    bindings: u64,
    admitted: u64,
    extractions: u64,
    truncated: u64,
}

/// Replay registration of the whole catalog stage by stage.
fn register(tr: &mut Tracer, inputs: &Inputs, budget: usize) -> Result<Registration, String> {
    let doc = &inputs.doc;
    let mut counts = Registration::default();
    let mut labels = doc.labels.clone();
    let mut views = ViewSet::new();
    let mut nfa = Nfa::new();
    let mut store = Vec::with_capacity(inputs.views.len());
    let root = tr.enter("register", REGISTRATION);
    let indexes = tr.span("register.index_build", REGISTRATION, || {
        (
            NodeIndex::build(&doc.tree, &doc.labels),
            PathIndex::build(&doc.tree, &doc.labels),
        )
    });
    for xpath in &inputs.views {
        let pattern = match parse_pattern_with(xpath, &mut labels) {
            Ok(p) => p,
            Err(e) => {
                tr.exit(root);
                return Err(format!("view {xpath}: {e}"));
            }
        };
        let id = tr.span("register.viewset_add", REGISTRATION, || views.add(pattern));
        let view = views.view(id);
        tr.span("register.nfa_insert", REGISTRATION, || {
            for (idx, path) in view.normalized_paths.iter().enumerate() {
                nfa.insert(
                    path,
                    AcceptEntry {
                        view: id,
                        path_idx: idx as u32,
                        path_len: path.len() as u32,
                        attr_mask: view.path_attr_masks[idx],
                    },
                );
            }
        });
        let roots = tr.span("register.eval", REGISTRATION, || {
            eval(&view.pattern, &doc.tree)
        });
        let (fragments, stats) = tr.span("register.extract", REGISTRATION, || {
            FragmentSet::materialize_with_stats(doc, &roots, budget)
        });
        let local: Vec<DeweyAssignment> = tr.span("register.local_dewey", REGISTRATION, || {
            fragments
                .trees()
                .iter()
                .map(|t| DeweyAssignment::assign(t, &doc.fst))
                .collect()
        });
        counts.bindings += roots.len() as u64;
        counts.admitted += stats.admitted as u64;
        counts.extractions += stats.extractions as u64;
        counts.truncated += u64::from(fragments.truncated());
        store.push((fragments, local));
    }
    tr.exit(root);
    drop((store, indexes, nfa));
    Ok(counts)
}

/// One query through the in-process chain.
struct Chain {
    codes: Vec<DeweyCode>,
    fallback: bool,
    selected: u64,
    admitted: u64,
    answer_bytes: u64,
}

/// Parse, filter, select, rewrite (or evaluate on the document), format
/// the codes and round-trip the frames through the codec — what the
/// server and client do for one query, minus the socket.
fn chain(
    tr: &mut Tracer,
    qid: u32,
    snap: &EngineSnapshot,
    src: &str,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
) -> Result<Chain, String> {
    let root = tr.enter("query", qid);
    let result = chain_layers(tr, qid, snap, src, cache, counters);
    tr.exit(root);
    result
}

fn chain_layers(
    tr: &mut Tracer,
    qid: u32,
    snap: &EngineSnapshot,
    src: &str,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
) -> Result<Chain, String> {
    let q = tr
        .span("parse", qid, || snap.parse(src))
        .map_err(|e| format!("{src}: {e}"))?;
    let admitted_before = counters.get(Counter::FilterViewsAdmitted);
    let mut outcome = tr.span("filter", qid, || {
        filter_views_metered(
            &q,
            snap.views(),
            snap.nfa(),
            FilterOptions::default(),
            counters,
        )
    });
    let admitted = counters.get(Counter::FilterViewsAdmitted) - admitted_before;
    let selection = tr.span("select", qid, || {
        // Truncated views cannot answer equivalently: drop them, as the
        // snapshot's own lookup does, then run Algorithm 2.
        let store = snap.store();
        outcome
            .candidates
            .retain(|&v| store.get(v).is_some_and(|m| m.complete()));
        let usable = &outcome.candidates;
        for list in &mut outcome.lists {
            list.retain(|(v, _)| usable.contains(v));
        }
        select_heuristic_metered(&q, snap.views(), &outcome, &Obligations::of(&q), counters)
    });
    let selected = selection.as_ref().map_or(0, |s| s.view_ids().len() as u64);
    // No selection falls back to `Bn`; a rewrite error after a committed
    // selection is a failure.
    let rewritten = match selection {
        Some(selection) => Some(
            tr.span("rewrite", qid, || {
                rewrite_metered(
                    &q,
                    &selection,
                    snap.views(),
                    snap.store(),
                    &snap.doc().fst,
                    cache,
                    counters,
                )
            })
            .map_err(|e| format!("{src}: rewrite: {e}"))?,
        ),
        None => None,
    };
    let fallback = rewritten.is_none();
    let codes = match rewritten {
        Some(codes) => codes,
        None => tr.span("eval", qid, || {
            let doc = snap.doc();
            let mut codes: Vec<DeweyCode> = eval_bn(&q, &doc.tree, snap.node_index())
                .into_iter()
                .map(|n| doc.dewey.code_of(&doc.tree, n))
                .collect();
            codes.sort();
            codes
        }),
    };
    let rendered: Vec<String> = tr.span("encode", qid, || {
        codes.iter().map(ToString::to_string).collect()
    });
    let strategy = if fallback { Strategy::Bn } else { Strategy::Hv };
    let (request, response) = tr.span("wire.encode", qid, || {
        frames(src, strategy, rendered, selected, admitted)
    });
    tr.span("wire.decode", qid, || unframe(&request, &response))
        .map_err(|e| format!("{src}: codec: {e}"))?;
    Ok(Chain {
        codes,
        fallback,
        selected,
        admitted,
        answer_bytes: response.len() as u64,
    })
}

/// The request a client sends for `src` and the answer frame the server
/// sends back, encoded.
fn frames(
    src: &str,
    strategy: Strategy,
    codes: Vec<String>,
    views_used: u64,
    candidates: u64,
) -> (Vec<u8>, Vec<u8>) {
    let request = Request::Query {
        query: src.to_string(),
        options: WireOptions::strategy(strategy),
    };
    let response = Response::Answer {
        codes,
        strategy,
        views_used: views_used as u32,
        candidates: candidates as u32,
        filter_us: 0,
        selection_us: 0,
        rewrite_us: 0,
    };
    (request.encode(), response.encode())
}

/// Decode both frames, as the server and the client do.
fn unframe(request: &[u8], response: &[u8]) -> Result<(), WireError> {
    Request::decode(request).and(Response::decode(response).map(drop))
}

/// One query through the façade, untraced: `EngineSnapshot::parse` and
/// `query` (HV, then `Bn` when no view set answers), then formatting and
/// the codec round trip — the same work as [`chain`], which the traced
/// layer sum is checked against.
fn facade(
    snap: &EngineSnapshot,
    src: &str,
    options: QueryOptions,
) -> Result<(Vec<DeweyCode>, Option<QueryReport>), String> {
    let q = snap.parse(src).map_err(|e| format!("{src}: {e}"))?;
    let mut outcome = snap.query(&q, &options);
    if matches!(outcome.answer, Err(AnswerError::NotAnswerable)) {
        outcome = snap.query(&q, &options.with_strategy(Strategy::Bn));
    }
    let answer = outcome.answer.map_err(|e| format!("{src}: {e}"))?;
    let rendered = answer.codes.iter().map(ToString::to_string).collect();
    let (request, response) = frames(
        src,
        answer.strategy,
        rendered,
        answer.views_used.len() as u64,
        answer.candidates as u64,
    );
    unframe(&request, &response).map_err(|e| format!("{src}: codec: {e}"))?;
    Ok((answer.codes, outcome.report))
}

/// HV over the wire, `Bn` when the views cannot answer; the codes.
fn call(client: &mut Client, src: &str, cache: bool) -> Result<Vec<String>, String> {
    for strategy in [Strategy::Hv, Strategy::Bn] {
        let request = Request::Query {
            query: src.to_string(),
            options: WireOptions {
                use_cache: cache,
                ..WireOptions::strategy(strategy)
            },
        };
        match client.call(&request) {
            Ok(Response::Answer { codes, .. }) => return Ok(codes),
            Ok(Response::Error {
                status: Status::NotAnswerable,
                ..
            }) if strategy == Strategy::Hv => {}
            Ok(other) => return Err(format!("{src}: unexpected response {other:?}")),
            Err(e) => return Err(format!("{src}: {e}")),
        }
    }
    Err(format!("{src}: Bn did not answer"))
}

/// The `Bn` answer of a query, formatted, as the ground truth.
type Truth<'a> = &'a dyn Fn(&str) -> Option<Vec<String>>;

/// Check `codes` against the ground truth of `src`.
fn check(truth: Truth, src: &str, codes: &[DeweyCode]) -> Result<(), String> {
    let rendered: Vec<String> = codes.iter().map(ToString::to_string).collect();
    if truth(src) == Some(rendered) {
        Ok(())
    } else {
        Err(format!("{src}: answer differs from Bn"))
    }
}

/// Copy-on-write writes against a live snapshot, as under serve: the
/// store copy on its own, then `add_view` with the snapshot held, then
/// publishing the new snapshot. After each swap the next queries of the
/// mix (at most 8, as in `post_write_query_p90_us`) run through the
/// façade on the new snapshot; their counters are returned, so the
/// rewrite cache hit ratio is the one a query right after a write sees.
fn writes(
    tr: &mut Tracer,
    engine: &mut Engine,
    xpaths: &[String],
    mix: &[&String],
    options: QueryOptions,
    truth: Truth,
    errors: &mut Vec<String>,
) -> Result<(Vec<f64>, StageCounters), String> {
    let cell = SnapshotCell::new(engine.snapshot());
    let mut clone_mb = Vec::with_capacity(xpaths.len());
    let mut post_write = StageCounters::new();
    let per_write = mix.len().min(POST_WRITE_QUERIES);
    let mut next = mix.iter().cycle();
    for (k, xpath) in xpaths.iter().enumerate() {
        let id = WRITE_BASE + k as u32;
        let copy = tr.span("write.store_clone", id, || engine.store().clone());
        clone_mb.push(copy.total_bytes() as f64 / 1e6);
        drop(copy);
        let pattern = engine.parse(xpath).map_err(|e| format!("{xpath}: {e}"))?;
        let before = engine.views().len();
        tr.span("write.add_view", id, || engine.add_view(pattern));
        let epoch = tr.span("write.swap", id, || cell.swap(engine.snapshot()));
        if epoch != k as u64 + 1 || engine.views().len() != before + 1 {
            errors.push(format!("{xpath}: write did not publish one more view"));
        }
        let snap = cell.load();
        for src in next.by_ref().take(per_write) {
            let answered =
                facade(&snap, src, options.with_metrics()).and_then(|(codes, report)| {
                    if let Some(counters) = report.and_then(|r| r.counters) {
                        post_write.merge(&counters);
                    }
                    check(truth, src, &codes)
                });
            if let Err(e) = answered {
                errors.push(e);
            }
        }
    }
    Ok((clone_mb, post_write))
}

/// Totals of the traced in-process queries.
#[derive(Default)]
struct QueryTotals {
    counters: StageCounters,
    /// Root span duration of each traced query, ns.
    roots: Vec<u64>,
    untraced_ns: u64,
    facade_ns: u64,
    fallbacks: u64,
    selected: u64,
    admitted: u64,
    answer_bytes: u64,
}

/// Every query of `queries` through the in-process chain, untraced and
/// traced, and through the façade, after one warm-up pass; answers are
/// checked against `truth`, and a query that fails is counted in
/// `errors`.
fn queries(
    tr: &mut Tracer,
    snap: &EngineSnapshot,
    queries: &[&String],
    cache: Option<&RewriteCache>,
    options: QueryOptions,
    truth: Truth,
    errors: &mut Vec<String>,
) -> QueryTotals {
    let mut ignored = StageCounters::new();
    for src in queries {
        // Failures show in the measured passes below.
        let _ = chain(&mut Tracer::disabled(), 0, snap, src, cache, &mut ignored);
        let _ = facade(snap, src, options);
    }
    let mut totals = QueryTotals::default();
    for (i, src) in queries.iter().enumerate() {
        let qid = i as u32;
        let mut untraced = || {
            let t = Instant::now();
            let out = chain(&mut Tracer::disabled(), qid, snap, src, cache, &mut ignored);
            (nanos(t.elapsed()), out.map(drop))
        };
        let through_facade = || {
            let t = Instant::now();
            let out = facade(snap, src, options);
            (
                nanos(t.elapsed()),
                out.and_then(|(codes, _)| check(truth, src, &codes)),
            )
        };
        // Alternate the order of the three, so warm caches favour none of
        // them in `trace.overhead_pct` or the layer-sum check.
        let first = tr.spans().len();
        let ((untraced_ns, a), (facade_ns, b), traced) = if i % 2 == 0 {
            let u = untraced();
            let f = through_facade();
            (u, f, chain(tr, qid, snap, src, cache, &mut totals.counters))
        } else {
            let traced = chain(tr, qid, snap, src, cache, &mut totals.counters);
            let f = through_facade();
            (untraced(), f, traced)
        };
        let traced = traced.and_then(|out| check(truth, src, &out.codes).map(|()| out));
        for failed in [a.err(), b.err()].into_iter().flatten() {
            errors.push(failed);
        }
        totals.untraced_ns += untraced_ns;
        totals.facade_ns += facade_ns;
        totals.roots.push(tr.spans()[first].duration_ns());
        let out = match traced {
            Ok(out) => out,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        totals.fallbacks += u64::from(out.fallback);
        totals.selected += out.selected;
        totals.admitted += out.admitted;
        totals.answer_bytes += out.answer_bytes;
    }
    totals
}

/// Round trips of `queries` against `addr`, after one warm-up pass;
/// answers are checked against `truth`. Returns each round trip, ns.
fn round_trips(
    tr: &mut Tracer,
    addr: &str,
    queries: &[&String],
    cache: bool,
    truth: Truth,
    errors: &mut Vec<String>,
) -> Result<Vec<u64>, String> {
    let mut client = connect(addr)?;
    for src in queries {
        // Failures show in the measured pass below.
        let _ = call(&mut client, src, cache);
    }
    let mut rtt_ns = Vec::with_capacity(queries.len());
    for (i, src) in queries.iter().enumerate() {
        let first = tr.spans().len();
        let codes = tr.span("serve.rtt", i as u32, || call(&mut client, src, cache));
        rtt_ns.push(tr.spans()[first].duration_ns());
        match codes {
            Ok(codes) if truth(src).as_ref() == Some(&codes) => {}
            Ok(_) => errors.push(format!("{src}: served answer differs from Bn")),
            Err(e) => errors.push(e),
        }
    }
    Ok(rtt_ns)
}

/// Median duration of the spans named `name`, in `scale` units per ns.
fn median_span(spans: &[Span], name: &str, scale: f64) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * scale)
        .collect();
    median_f64(&durations)
}

/// Run `workload` traced.
pub fn run(workload: Workload, inputs: &Inputs) -> Result<TraceOutcome, String> {
    let shape = workload.shape();
    let cached = workload.served();
    let options = QueryOptions::strategy(Strategy::Hv).with_cache(cached);
    let mut tr = Tracer::new();
    let mut errors: Vec<String> = Vec::new();

    // Registration, stage by stage, on a catalog of its own.
    let reg = register(&mut tr, inputs, shape.budget)?;

    // The workload's engine and the `Bn` ground truth.
    let mut engine = build_engine(inputs.doc.clone(), &inputs.views, &shape)?;
    let mut truth: Vec<(String, Vec<String>)> = Vec::new();
    let snap = engine.snapshot();
    for src in inputs.distinct_queries().0 {
        let q = snap.parse(&src).map_err(|e| format!("{src}: {e}"))?;
        let bn = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .map_err(|e| format!("{src}: {e}"))?;
        truth.push((src, bn.codes.iter().map(ToString::to_string).collect()));
    }
    drop(snap);
    let truth_of = |src: &str| truth.iter().find(|(s, _)| s == src).map(|(_, c)| c.clone());

    // Its writes, then its queries in-process and over a server. Whole
    // passes of the mix, at least `TRACED_QUERIES`.
    let passes = TRACED_QUERIES.div_ceil(inputs.queries.len().max(1));
    let mix: Vec<&String> = (0..passes).flat_map(|_| &inputs.queries).collect();
    let written = inputs.writes.get(..TRACED_WRITES).unwrap_or(&inputs.writes);
    let (clone_mb, post_write) = writes(
        &mut tr,
        &mut engine,
        written,
        &mix,
        options,
        &truth_of,
        &mut errors,
    )?;
    let snap = engine.snapshot();
    let cache = RewriteCache::new();
    let totals = queries(
        &mut tr,
        &snap,
        &mix,
        cached.then_some(&cache),
        options,
        &truth_of,
        &mut errors,
    );
    drop(snap);
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        inputs.views.clone(),
        ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let rtt_ns = with_server(server, |addr| {
        round_trips(&mut tr, addr, &mix, cached, &truth_of, &mut errors)
    })?;

    // Per-layer metrics.
    let mut metrics = Metrics::new(&PER_LAYER);
    let spans = tr.spans();
    let selves = self_times(spans);
    let n = mix.len().max(1) as f64;
    for (metric, layer) in [
        ("parse.us", "parse"),
        ("filter.us", "filter"),
        ("select.us", "select"),
        ("rewrite.us", "rewrite"),
        ("eval.us", "eval"),
        ("encode.us", "encode"),
        ("wire.encode_us", "wire.encode"),
        ("wire.decode_us", "wire.decode"),
    ] {
        metrics.set(
            metric,
            total_self_ns(spans, &selves, layer) as f64 / n / 1e3,
        );
    }
    let counters = &totals.counters;
    for (metric, counter) in [
        ("filter.views_admitted", Counter::FilterViewsAdmitted),
        ("filter.nfa_states", Counter::FilterNfaStates),
        (
            "select.leafcover_attempts",
            Counter::SelectLeafCoverAttempts,
        ),
        ("select.fallback_probes", Counter::SelectFallbackProbes),
        (
            "rewrite.dewey_comparisons",
            Counter::RewriteDeweyComparisons,
        ),
        ("rewrite.gallop_probes", Counter::RewriteGallopProbes),
        ("rewrite.bytes_compared", Counter::RewriteBytesCompared),
        (
            "rewrite.fragments_scanned",
            Counter::RewriteFragmentsScanned,
        ),
    ] {
        metrics.set(metric, counters.get(counter) as f64 / n);
    }
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    metrics.set("filter.precision", ratio(totals.selected, totals.admitted));
    let hits = post_write.get(Counter::RewriteCacheHits);
    let lookups = hits + post_write.get(Counter::RewriteCacheMisses);
    metrics.set("rewrite.cache_hit_ratio", ratio(hits, lookups));
    metrics.set("eval.fallback_share", totals.fallbacks as f64 / n);
    metrics.set("wire.answer_bytes", totals.answer_bytes as f64 / n);
    // Round trips are medians: a single scheduler stall would swamp a
    // mean over a few hundred loopback calls.
    let rtt_us: Vec<f64> = rtt_ns.iter().map(|&t| t as f64 / 1e3).collect();
    metrics.set("serve.rtt_us", median_f64(&rtt_us));
    let self_us: Vec<f64> = rtt_ns
        .iter()
        .zip(&totals.roots)
        .map(|(&rtt, &chain)| (rtt as f64 - chain as f64) / 1e3)
        .collect();
    metrics.set("serve.self_us", median_f64(&self_us));
    metrics.set(
        "write.add_view_ms",
        median_span(spans, "write.add_view", 1e-6),
    );
    metrics.set(
        "write.store_clone_ms",
        median_span(spans, "write.store_clone", 1e-6),
    );
    metrics.set("write.store_clone_mb", median_f64(&clone_mb));
    metrics.set("write.swap_us", median_span(spans, "write.swap", 1e-3));
    for (metric, layer) in [
        ("register.index_build_ms", "register.index_build"),
        ("register.viewset_add_ms", "register.viewset_add"),
        ("register.eval_ms", "register.eval"),
        ("register.extract_ms", "register.extract"),
        ("register.local_dewey_ms", "register.local_dewey"),
        ("register.nfa_insert_ms", "register.nfa_insert"),
    ] {
        metrics.set(metric, total_self_ns(spans, &selves, layer) as f64 / 1e6);
    }
    metrics.set("register.bindings", reg.bindings as f64);
    metrics.set("register.extractions", reg.extractions as f64);
    metrics.set("register.admit_ratio", ratio(reg.admitted, reg.bindings));
    metrics.set("register.truncated_views", reg.truncated as f64);
    let traced_ns: u64 = totals.roots.iter().sum();
    metrics.set(
        "trace.overhead_pct",
        (traced_ns as f64 / totals.untraced_ns.max(1) as f64 - 1.0) * 100.0,
    );
    // The query layers against the façade doing the same work untraced;
    // the registration layers against their own root span, which also
    // holds the view parsing no layer span covers.
    let (_, query_layers) = layer_totals(spans, "query");
    let (register_root, register_layers) = layer_totals(spans, "register");
    for (metric, what, layers, whole) in [
        (
            "trace.layer_sum_ratio",
            "query layers",
            query_layers,
            totals.facade_ns,
        ),
        (
            "trace.register_sum_ratio",
            "registration layers",
            register_layers,
            register_root,
        ),
    ] {
        let ratio = layers as f64 / whole.max(1) as f64;
        metrics.set(metric, ratio);
        if (ratio - 1.0).abs() > SUM_TOLERANCE {
            errors.push(format!(
                "{what} sum to {ratio:.3} of their reference, outside 1 ± {SUM_TOLERANCE}"
            ));
        }
    }
    // Writes and the queries after them; in-process queries (untraced,
    // traced, façade); round trips; the two layer sums.
    let post_write_queries = written.len() * mix.len().min(POST_WRITE_QUERIES);
    let attempted = (written.len() + post_write_queries + 4 * mix.len() + 2) as u64;
    Ok(TraceOutcome {
        metrics,
        tracer: tr,
        attempted,
        failed: errors.len() as u64,
        first_error: errors.into_iter().next(),
    })
}
