//! Rewrite hot-path benchmark: uncached reference rewriter vs. the
//! engine-wide [`RewriteCache`], measured three ways —
//!
//! 1. **rewrite_only** — direct `rewrite()` vs `rewrite_cached()` calls
//!    on a pre-built (query, selection, store) pipeline, isolating the
//!    refinement + join + extraction stage. A sibling **join** section
//!    pits the legacy scan-merge join (`rewrite_scan`) against the
//!    uncached flat-code rewrite on the same pipelines, reporting both
//!    wall-clock and the comparison/probe/skip counters, plus each
//!    selection's unit count and which plan ran: one-unit selections take
//!    the chain plan (`fast_path`), the others the galloping holistic join
//!    (`holistic_joins`).
//! 2. **answer_single** — end-to-end `EngineSnapshot::query` (filter +
//!    selection + rewrite) with the cache on vs.
//!    `QueryOptions::with_cache(false)`.
//! 3. **answer_batch** — repeated-workload batch throughput via
//!    `query_batch`: the same Table III queries submitted over and over,
//!    answered by one snapshot with the cache on vs.
//!    `QueryOptions::with_cache(false)`. A final metered pass records the
//!    per-stage wall-clock split and pipeline counters (`stage_breakdown`
//!    in the JSON).
//!
//! Results are printed and written as JSON (for CI artifacts and the
//! committed baseline), with the host they were measured on
//! ([`xvr_bench::host_json`]), to `BENCH_rewrite.json` at the repo root; override
//! with `XVR_BENCH_OUT`. `XVR_BENCH_FAST=1` shrinks the document, the
//! view set, and the sample counts for smoke runs. `XVR_BENCH_SCALE` and
//! `XVR_BENCH_VIEWS` override the workload size.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::black_box;
use xvr_bench::{paper_document, planted_views, test_queries};
use xvr_core::{
    build_nfa, filter_views, rewrite, rewrite_cached, rewrite_metered, rewrite_scan,
    rewrite_scan_metered, select_heuristic, Counter, Engine, EngineConfig, MaterializedStore,
    Obligations, QueryOptions, RewriteCache, StageCounters, StageTimings, Strategy, ViewSet,
};
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_pattern::{distinct_positive_patterns, parse_pattern_with, TreePattern};
use xvr_xml::{DocStats, Document};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median ns/call over `samples` batched samples (vendored-criterion
/// style: one warm-up call sizes batches to keep each sample ~5 ms).
fn bench_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let est = t0.elapsed().as_nanos().max(1);
    let batch = (5_000_000 / est).clamp(1, 100_000) as usize;
    let mut per_call: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(&mut f)();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[per_call.len() / 2]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// The workload's view set: the planted Table III views plus random
/// positive views, sharing the document's label table.
fn build_views(doc: &Document, n_views: usize) -> ViewSet {
    let mut labels = doc.labels.clone();
    let mut views = ViewSet::new();
    for src in planted_views() {
        views.add(parse_pattern_with(src, &mut labels).expect("planted view parses"));
    }
    for v in distinct_positive_patterns(
        doc,
        QueryConfig::paper_view_workload(42),
        n_views.saturating_sub(views.len()),
    ) {
        views.add(v);
    }
    views
}

struct PairResult {
    name: String,
    uncached_ns: f64,
    cached_ns: f64,
    /// Per-stage wall-clock of one (cached) end-to-end run, when the
    /// measured operation goes through the full pipeline.
    stages: Option<StageTimings>,
}

impl PairResult {
    fn speedup(&self) -> f64 {
        self.uncached_ns / self.cached_ns
    }
}

fn main() {
    let fast = std::env::var("XVR_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = env_f64("XVR_BENCH_SCALE", if fast { 0.003 } else { 0.01 });
    let n_views = env_usize("XVR_BENCH_VIEWS", if fast { 16 } else { 48 });
    let samples = if fast { 5 } else { 20 };
    let batch_repeats = if fast { 16 } else { 64 };
    let jobs = 4;

    let doc = paper_document(scale, 0x5eed);
    let stats = DocStats::compute(&doc.tree, &doc.labels);
    println!(
        "rewrite_hotpath: mode={} scale={scale} nodes={} views={n_views}",
        if fast { "fast" } else { "full" },
        stats.nodes
    );

    // --- 1. rewrite_only: the rewrite stage in isolation. ---------------
    let views = build_views(&doc, n_views);
    let nfa = build_nfa(&views);
    let store = MaterializedStore::materialize_all(&doc, &views, usize::MAX);
    let mut labels = doc.labels.clone();
    let mut rewrite_only: Vec<PairResult> = Vec::new();
    let mut pipelines = Vec::new();
    for tq in test_queries() {
        let q = parse_pattern_with(tq.xpath, &mut labels).expect("test query parses");
        let filter = filter_views(&q, &views, &nfa);
        let ob = Obligations::of(&q);
        let Some(sel) = select_heuristic(&q, &views, &filter, &ob) else {
            println!("rewrite_only/{:<26} skipped (not answerable)", tq.name);
            continue;
        };
        let uncached_ns = bench_ns(samples, || {
            rewrite(&q, &sel, &views, &store, &doc.fst).unwrap();
        });
        let cache = RewriteCache::new();
        rewrite_cached(&q, &sel, &views, &store, &doc.fst, &cache).unwrap();
        let cached_ns = bench_ns(samples, || {
            rewrite_cached(&q, &sel, &views, &store, &doc.fst, &cache).unwrap();
        });
        let r = PairResult {
            name: tq.name.to_string(),
            uncached_ns,
            cached_ns,
            stages: None,
        };
        println!(
            "rewrite_only/{:<26} uncached {:>10} | cached {:>10} | {:.2}x",
            r.name,
            fmt_ns(r.uncached_ns),
            fmt_ns(r.cached_ns),
            r.speedup()
        );
        rewrite_only.push(r);
        pipelines.push((tq.name.to_string(), q, sel));
    }

    // --- 1b. join: legacy scan-merge join vs the flat-code rewrite, -----
    // both uncached, on the identical (query, selection) pipelines. One
    // metered pass each records how much work the joins actually did: the
    // scan join reports Dewey comparisons (binary searches costed as
    // log2(len) + 1), the flat-code rewrite reports comparisons plus its
    // probe/skip/bytes counters and which plan ran. A one-unit selection
    // takes the chain plan, which compares each code once with its
    // predecessor and never gallops.
    let mut join_rows = Vec::new();
    for (name, q, sel) in &pipelines {
        let scan_ns = bench_ns(samples, || {
            rewrite_scan(q, sel, &views, &store, &doc.fst).unwrap();
        });
        let gallop_ns = bench_ns(samples, || {
            rewrite(q, sel, &views, &store, &doc.fst).unwrap();
        });
        let mut scan_c = StageCounters::new();
        rewrite_scan_metered(q, sel, &views, &store, &doc.fst, &mut scan_c).unwrap();
        let mut gallop_c = StageCounters::new();
        rewrite_metered(q, sel, &views, &store, &doc.fst, None, &mut gallop_c).unwrap();
        let (scan_cmp, gallop_cmp) = (
            scan_c.get(Counter::RewriteDeweyComparisons),
            gallop_c.get(Counter::RewriteDeweyComparisons),
        );
        println!(
            "join/{:<34} {} unit(s) | scan {:>10} ({scan_cmp} cmp) | gallop {:>10} ({gallop_cmp} cmp, {} probes, {} skipped) | {:.2}x",
            name,
            sel.units.len(),
            fmt_ns(scan_ns),
            fmt_ns(gallop_ns),
            gallop_c.get(Counter::RewriteGallopProbes),
            gallop_c.get(Counter::RewriteComparisonsSkipped),
            scan_ns / gallop_ns,
        );
        join_rows.push(format!(
            "{{\"name\": \"{name}\", \"units\": {}, \"fast_path\": {}, \"holistic_joins\": {}, \
             \"scan_ns\": {scan_ns:.0}, \"gallop_ns\": {gallop_ns:.0}, \
             \"speedup\": {:.2}, \"scan_comparisons\": {scan_cmp}, \"gallop_comparisons\": {gallop_cmp}, \
             \"gallop_probes\": {}, \"comparisons_skipped\": {}, \"bytes_compared\": {}}}",
            sel.units.len(),
            gallop_c.get(Counter::RewriteFastPath),
            gallop_c.get(Counter::RewriteHolisticJoins),
            scan_ns / gallop_ns,
            gallop_c.get(Counter::RewriteGallopProbes),
            gallop_c.get(Counter::RewriteComparisonsSkipped),
            gallop_c.get(Counter::RewriteBytesCompared),
        ));
    }

    // --- 2. answer_single: end-to-end, one query at a time. -------------
    let mut engine = Engine::new(doc.clone(), EngineConfig::default());
    for src in planted_views() {
        engine.add_view_str(src).expect("planted view parses");
    }
    for v in distinct_positive_patterns(
        &doc,
        QueryConfig::paper_view_workload(42),
        n_views.saturating_sub(planted_views().len()),
    ) {
        engine.add_view(v);
    }
    let queries: Vec<(String, TreePattern)> = test_queries()
        .iter()
        .map(|tq| (tq.name.to_string(), engine.parse(tq.xpath).unwrap()))
        .collect();
    let snap = engine.snapshot();
    let mut answer_single: Vec<PairResult> = Vec::new();
    let cached = QueryOptions::strategy(Strategy::Hv);
    let uncached = QueryOptions::strategy(Strategy::Hv).with_cache(false);
    for (name, q) in &queries {
        if snap.query(q, &cached).answer.is_err() {
            println!("answer_single/{:<25} skipped (not answerable)", name);
            continue;
        }
        let uncached_ns = bench_ns(samples, || {
            snap.query(q, &uncached).answer.unwrap();
        });
        let cached_ns = bench_ns(samples, || {
            snap.query(q, &cached).answer.unwrap();
        });
        // One metered run for the per-stage wall-clock split.
        let stages = snap
            .query(q, &QueryOptions::strategy(Strategy::Hv).with_metrics())
            .report
            .map(|r| r.timings);
        let r = PairResult {
            name: name.clone(),
            uncached_ns,
            cached_ns,
            stages,
        };
        println!(
            "answer_single/{:<25} uncached {:>10} | cached {:>10} | {:.2}x",
            r.name,
            fmt_ns(r.uncached_ns),
            fmt_ns(r.cached_ns),
            r.speedup()
        );
        answer_single.push(r);
    }

    // --- 3. answer_batch: repeated workload throughput. ------------------
    // The same four queries resubmitted over and over — the shape the
    // rewrite cache is built for: every rewrite after the first four
    // is a pure cache hit.
    let batch: Vec<TreePattern> = (0..batch_repeats)
        .flat_map(|_| queries.iter().map(|(_, q)| q.clone()))
        .collect();
    let batch_qps = |use_cache: bool| {
        // Warm once (populates the cache when enabled), then best-of-3.
        let options = QueryOptions::strategy(Strategy::Hv).with_cache(use_cache);
        snap.query_batch(&batch, &options, jobs);
        (0..3)
            .map(|_| snap.query_batch(&batch, &options, jobs).qps())
            .fold(0.0_f64, f64::max)
    };
    let uncached_qps = batch_qps(false);
    let cached_qps = batch_qps(true);
    let batch_speedup = cached_qps / uncached_qps;
    println!(
        "answer_batch/{} queries x{jobs} jobs   uncached {uncached_qps:>8.0} q/s | cached {cached_qps:>8.0} q/s | {batch_speedup:.2}x",
        batch.len()
    );

    // One metered pass over the cached snapshot for the stage-level
    // breakdown: summed per-stage wall-clock plus the pipeline counters
    // that explain where the cache wins (hits vs misses, fast path vs
    // holistic joins).
    let metered = snap.query_batch(
        &batch,
        &QueryOptions::strategy(Strategy::Hv).with_metrics(),
        jobs,
    );
    let stage_total = metered.total;
    let counters = metered.counters.clone();
    println!(
        "stage_breakdown: filter {}µs | selection {}µs | rewrite {}µs (cache {} hit / {} miss, {} fast-path / {} holistic)",
        stage_total.filter_us,
        stage_total.selection_us,
        stage_total.rewrite_us,
        counters.get(Counter::RewriteCacheHits),
        counters.get(Counter::RewriteCacheMisses),
        counters.get(Counter::RewriteFastPath),
        counters.get(Counter::RewriteHolisticJoins),
    );

    // --- 4. coverage: answerable fraction, Hv vs HvIntersect. ------------
    // Each seed builds its own document, view set, and positive-query
    // workload (the oracle's generators) plus one planted intersection
    // probe — a query only two overlapping views answer jointly — so the
    // fallback path is never vacuous. Reported per seed: answered counts
    // and fractions for both strategies, batch wall-clock, the intersect.*
    // counter totals of the fallback, and the hvi batch's holistic joins
    // (an intersection is joined like any other multi-unit selection, so
    // its join work lands in the rewrite.* counters).
    let cov_seeds: u64 = if fast { 3 } else { 6 };
    let cov_queries = if fast { 16 } else { 40 };
    let cov_views = if fast { 12 } else { 24 };
    let mut coverage_rows = Vec::new();
    for seed in 0..cov_seeds {
        let cdoc = xvr_xml::generator::generate(&xvr_xml::generator::Config::tiny(seed));
        let extra = distinct_positive_patterns(
            &cdoc,
            QueryConfig::paper_view_workload(seed ^ 0xA),
            cov_views,
        );
        let mut cengine = Engine::new(cdoc, EngineConfig::default());
        for v in [
            "/site/people/person[phone]//name",
            "/site/people/person[homepage]//name",
        ] {
            cengine.add_view_str(v).expect("planted member view parses");
        }
        for v in extra {
            cengine.add_view(v);
        }
        let csnap = cengine.snapshot();
        let mut cov_batch: Vec<TreePattern> = vec![csnap
            .parse("/site/people/person[phone][homepage]//name")
            .expect("planted probe parses")];
        let mut qgen = QueryGenerator::new(
            &csnap.doc().fst,
            QueryConfig::paper_query_workload(seed ^ 0xB),
        );
        for _ in 0..cov_queries {
            match qgen.generate_positive(csnap.doc(), 20) {
                Some(q) => cov_batch.push(q),
                None => cov_batch.push(qgen.generate()),
            }
        }
        let hv_batch = csnap.query_batch(&cov_batch, &QueryOptions::strategy(Strategy::Hv), 1);
        let hvi_batch = csnap.query_batch(
            &cov_batch,
            &QueryOptions::strategy(Strategy::HvIntersect).with_metrics(),
            1,
        );
        let (hv_n, hvi_n) = (hv_batch.answered(), hvi_batch.answered());
        let total = cov_batch.len();
        let c = &hvi_batch.counters;
        println!(
            "coverage/seed {seed}: hv {hv_n}/{total} | hvi {hvi_n}/{total} (+{}) | {} subsets tried, {} holistic joins | hv {}µs, hvi {}µs",
            hvi_n - hv_n,
            c.get(Counter::IntersectSubsetsTried),
            c.get(Counter::RewriteHolisticJoins),
            hv_batch.wall_us,
            hvi_batch.wall_us,
        );
        coverage_rows.push(format!(
            "{{\"seed\": {seed}, \"queries\": {total}, \"hv_answered\": {hv_n}, \"hvi_answered\": {hvi_n}, \
             \"hv_fraction\": {:.3}, \"hvi_fraction\": {:.3}, \"hv_us\": {}, \"hvi_us\": {}, \
             \"holistic_joins\": {}, \
             \"intersect\": {{\"attempts\": {}, \"subsets_tried\": {}, \"answered\": {}}}}}",
            hv_n as f64 / total as f64,
            hvi_n as f64 / total as f64,
            hv_batch.wall_us,
            hvi_batch.wall_us,
            c.get(Counter::RewriteHolisticJoins),
            c.get(Counter::IntersectAttempts),
            c.get(Counter::IntersectSubsetsTried),
            c.get(Counter::IntersectAnswered),
        ));
    }

    // --- JSON baseline. ---------------------------------------------------
    let mut json = String::new();
    let pair_json = |r: &PairResult| {
        let mut entry = format!(
            "{{\"name\": \"{}\", \"uncached_ns\": {:.0}, \"cached_ns\": {:.0}, \"speedup\": {:.2}",
            r.name,
            r.uncached_ns,
            r.cached_ns,
            r.speedup()
        );
        if let Some(t) = &r.stages {
            let _ = write!(
                entry,
                ", \"stages\": {{\"filter_us\": {}, \"selection_us\": {}, \"rewrite_us\": {}}}",
                t.filter_us, t.selection_us, t.rewrite_us
            );
        }
        entry.push('}');
        entry
    };
    let join = |rs: &[PairResult]| {
        rs.iter()
            .map(pair_json)
            .collect::<Vec<_>>()
            .join(",\n      ")
    };
    let stage_breakdown = format!(
        "{{\"filter_us\": {}, \"selection_us\": {}, \"rewrite_us\": {}, \"total_us\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"fast_path\": {}, \"holistic_joins\": {}, \
         \"dewey_comparisons\": {}, \"gallop_probes\": {}, \"comparisons_skipped\": {}, \
         \"bytes_compared\": {}}}",
        stage_total.filter_us,
        stage_total.selection_us,
        stage_total.rewrite_us,
        stage_total.total_us(),
        counters.get(Counter::RewriteCacheHits),
        counters.get(Counter::RewriteCacheMisses),
        counters.get(Counter::RewriteFastPath),
        counters.get(Counter::RewriteHolisticJoins),
        counters.get(Counter::RewriteDeweyComparisons),
        counters.get(Counter::RewriteGallopProbes),
        counters.get(Counter::RewriteComparisonsSkipped),
        counters.get(Counter::RewriteBytesCompared),
    );
    write!(
        json,
        "{{\n  \"benchmark\": \"rewrite_hotpath\",\n  \"mode\": \"{}\",\n  \"host\": {},\n  \"doc\": {{\"scale\": {scale}, \"nodes\": {}}},\n  \"views\": {},\n  \"strategy\": \"HV\",\n  \"results\": {{\n    \"rewrite_only\": [\n      {}\n    ],\n    \"join\": [\n      {}\n    ],\n    \"answer_single\": [\n      {}\n    ],\n    \"answer_batch\": {{\"queries\": {}, \"jobs\": {jobs}, \"uncached_qps\": {uncached_qps:.0}, \"cached_qps\": {cached_qps:.0}, \"speedup\": {batch_speedup:.2}, \"stage_breakdown\": {}}},\n    \"coverage\": [\n      {}\n    ]\n  }}\n}}\n",
        if fast { "fast" } else { "full" },
        xvr_bench::host_json(),
        stats.nodes,
        views.len(),
        join(&rewrite_only),
        join_rows.join(",\n      "),
        join(&answer_single),
        batch.len(),
        stage_breakdown,
        coverage_rows.join(",\n      "),
    )
    .unwrap();

    let out = std::env::var("XVR_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_rewrite.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write benchmark baseline");
    println!("wrote {out}");
}
