//! Advisor benchmark: does a workload-driven view set beat naive ones?
//!
//! Over the paper's XMark-style document, three view sets compete under
//! the **same total byte budget**:
//!
//! 1. **advised** — the [`Advisor`]'s proposal for a frequency-weighted
//!    workload (the Table III queries hot, the XMark approximations
//!    warm).
//! 2. **random** — workload-blind views from the paper's view-workload
//!    generator, greedily admitted until the budget is full. The
//!    Section VI baseline: lots of materialized bytes, no idea what the
//!    queries are.
//! 3. **seed** — the hand-planted views the benchmarks ship with
//!    (`planted_views`), which answer Q1–Q4 by multi-view joins but know
//!    nothing of the rest of the workload.
//!
//! Each set is replayed as a frequency-expanded batch: queries the set
//! answers run `HvIntersect` (views only); everything else falls back to
//! direct evaluation (`Bn`), the paper's own production fallback — so a
//! set that covers the workload earns its throughput and a set that
//! doesn't pays for every miss. The headline number is batch QPS per
//! set; CI gates `advised >= random` (fast mode) and the committed
//! baseline shows advised beating both under the full workload.
//!
//! Output JSON goes to `BENCH_advise.json` at the repo root (override
//! with `XVR_BENCH_OUT`); `XVR_BENCH_FAST=1` shrinks the document and
//! replay for CI smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use xvr_bench::{answering_strategy, paper_document, planted_views, test_queries, xmark_queries};
use xvr_core::{
    Advisor, AdvisorConfig, Engine, EngineConfig, EngineSnapshot, QueryOptions, Strategy, Workload,
};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::QueryConfig;
use xvr_xml::Document;

/// The benchmark workload: the Table III queries dominate (hot), the
/// XMark approximations trail (warm) — a skewed mix the advisor can
/// exploit and a uniform random catalog cannot.
fn workload_sources(hot: u64, warm: u64) -> Vec<String> {
    let mut sources = Vec::new();
    for tq in test_queries() {
        for _ in 0..hot {
            sources.push(tq.xpath.to_string());
        }
    }
    for (_, src) in xmark_queries() {
        for _ in 0..warm {
            sources.push(src.to_string());
        }
    }
    sources
}

/// Greedily admit views (in the given order) whose measured bytes fit
/// the remaining budget; returns the admitted sources.
fn admit_under_budget(doc: &Document, candidates: &[String], budget: usize) -> Vec<String> {
    let mut engine = Engine::new(doc.clone(), EngineConfig::default());
    let mut admitted = Vec::new();
    let mut spent = 0usize;
    for src in candidates {
        let Ok(id) = engine.add_view_str(src) else {
            continue;
        };
        let mv = engine.store().get(id).expect("view materialized");
        let bytes = mv.size_bytes();
        if mv.complete() && spent + bytes <= budget {
            spent += bytes;
            admitted.push(src.clone());
        }
        // Over-budget views stay registered in the probe engine but are
        // not admitted; their cost is measurement-only.
    }
    admitted
}

struct SetReport {
    name: &'static str,
    views: usize,
    bytes: usize,
    answered_weight: u64,
    total_weight: u64,
    qps: f64,
}

/// Replay the workload against a view set: answerable queries (probed
/// once, untimed) run `HvIntersect` as a frequency-expanded batch,
/// misses fall back to `Bn` — one wall clock over both.
fn replay(snap: &EngineSnapshot, workload: &Workload, jobs: usize) -> (u64, f64) {
    let hvi = QueryOptions::strategy(Strategy::HvIntersect);
    let bn = QueryOptions::strategy(Strategy::Bn);
    let mut covered = Vec::new();
    let mut missed = Vec::new();
    let mut answered_weight = 0u64;
    for entry in workload.entries() {
        // Re-parse against the set engine's own label table.
        let Ok(q) = snap.parse(&entry.source) else {
            continue;
        };
        let strategy = answering_strategy(snap, &q, Strategy::HvIntersect)
            .unwrap_or_else(|e| panic!("{}: HVI rewrite failed: {e}", entry.source));
        if strategy == Strategy::HvIntersect {
            answered_weight += entry.freq;
            for _ in 0..entry.freq {
                covered.push(q.clone());
            }
        } else {
            for _ in 0..entry.freq {
                missed.push(q.clone());
            }
        }
    }
    let total = covered.len() + missed.len();
    let t0 = Instant::now();
    if !covered.is_empty() {
        snap.query_batch(&covered, &hvi, jobs);
    }
    if !missed.is_empty() {
        snap.query_batch(&missed, &bn, jobs);
    }
    let wall = t0.elapsed().as_secs_f64();
    (answered_weight, total as f64 / wall.max(1e-9))
}

fn measure(
    name: &'static str,
    doc: &Document,
    views: &[String],
    workload: &Workload,
    jobs: usize,
) -> SetReport {
    let mut engine = Engine::new(doc.clone(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).expect("set view parses");
    }
    let bytes = engine.store().total_bytes();
    let snap = engine.snapshot();
    let (answered_weight, qps) = replay(&snap, workload, jobs);
    println!(
        "  {name:<8} {:>3} view(s) {:>10} B  coverage {answered_weight}/{}  {qps:>9.0} q/s",
        views.len(),
        bytes,
        workload.total_weight()
    );
    SetReport {
        name,
        views: views.len(),
        bytes,
        answered_weight,
        total_weight: workload.total_weight(),
        qps,
    }
}

fn main() {
    let fast = std::env::var("XVR_BENCH_FAST").is_ok_and(|v| v == "1");
    let seed = 42u64;
    let scale = if fast { 0.002 } else { 0.01 };
    let budget: usize = if fast { 512 << 10 } else { 8 << 20 };
    let (hot, warm) = if fast { (4, 1) } else { (16, 4) };
    let jobs = 4usize;

    println!("== advise_bench (scale {scale}, budget {budget} B, seed {seed}) ==");
    let doc = paper_document(scale, seed);
    let sources = workload_sources(hot, warm);
    let workload =
        Workload::from_sources(sources.iter().map(String::as_str)).expect("workload parses");
    println!(
        "document: {} nodes; workload: {} distinct queries, weight {}",
        doc.len(),
        workload.len(),
        workload.total_weight()
    );

    // 1. Advised: the proposal under the shared budget.
    let t0 = Instant::now();
    let proposal = Advisor::new(AdvisorConfig {
        budget,
        seed,
        jobs,
        ..AdvisorConfig::default()
    })
    .advise(&doc, &workload)
    .expect("advisor runs");
    let advise_ms = t0.elapsed().as_secs_f64() * 1e3;
    let advised: Vec<String> = proposal.views.iter().map(|v| v.xpath.clone()).collect();
    println!(
        "advisor: {} view(s) from {} candidates over {} clusters in {advise_ms:.0} ms",
        advised.len(),
        proposal.candidates,
        proposal.clusters
    );

    // 2. Random: workload-blind views from the paper's view generator,
    //    admitted under the same budget.
    let pool = distinct_positive_patterns(
        &doc,
        QueryConfig::paper_view_workload(seed.wrapping_add(1)),
        if fast { 48 } else { 160 },
    );
    let rendered: Vec<String> = pool
        .iter()
        .map(|p| p.display(&doc.labels).to_string())
        .collect();
    let random = admit_under_budget(&doc, &rendered, budget);

    // 3. Seed: the planted views, under the same budget.
    let planted: Vec<String> = planted_views().iter().map(|s| s.to_string()).collect();
    let seed_set = admit_under_budget(&doc, &planted, budget);

    let reports = [
        measure("advised", &doc, &advised, &workload, jobs),
        measure("random", &doc, &random, &workload, jobs),
        measure("seed", &doc, &seed_set, &workload, jobs),
    ];

    let mut json = String::new();
    let set_objs: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"views\": {}, \"bytes\": {}, \"answered_weight\": {}, \"total_weight\": {}, \"qps\": {:.0}}}",
                r.name, r.views, r.bytes, r.answered_weight, r.total_weight, r.qps
            )
        })
        .collect();
    write!(
        json,
        "{{\n  \"benchmark\": \"advise_bench\",\n  \"mode\": \"{}\",\n  \"seed\": {seed},\n  \"scale\": {scale},\n  \"budget_bytes\": {budget},\n  \"workload\": {{\"distinct\": {}, \"weight\": {}}},\n  \"advise_ms\": {advise_ms:.0},\n  \"sets\": [\n    {}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        workload.len(),
        workload.total_weight(),
        set_objs.join(",\n    ")
    )
    .unwrap();

    let out = std::env::var("XVR_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_advise.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write benchmark baseline");
    println!("wrote {out}");
}
