//! Corpus-scaling benchmark: document storage footprint, streaming view
//! materialization throughput, and answer latency as the XMark-style
//! document grows from scale 0.01 to 1.0 — the workload the compact
//! struct-of-arrays node layout and the front-coded Dewey arena exist for.
//!
//! Per scale the benchmark reports:
//!
//! 1. **storage** — generated node count, resident heap bytes of the
//!    struct-of-arrays tree, and bytes/node, next to a `legacy_bytes_per_node`
//!    estimate of the pre-refactor array-of-structs layout (88-byte
//!    `XmlNode` with per-node child `Vec`, inline `Option<String>` text and
//!    attribute `Vec`) computed over the *same* tree, so the savings are a
//!    like-for-like comparison CI can gate on.
//! 2. **materialization** — wall-clock to register + materialize the view
//!    catalog (planted views plus thousands of generated patterns at scale
//!    1.0) under a per-view fragment budget, with `MaterializeStats`-backed
//!    totals: fragments admitted, materialized nodes/second (nodes counted
//!    once per view that holds them), and the store's accounted bytes next
//!    to its resident bytes (a subtree shared by several views counted
//!    once). The streaming admission path sizes each candidate from the
//!    document's footprint column *before* extraction, so rejected
//!    fragments are neither walked nor copied.
//! 3. **answer latency** — median per-query microseconds for the Table III
//!    queries (Q1–Q4) against a snapshot: HV when the views answer, with a
//!    direct-evaluation (BN) fallback when budget truncation defeats the
//!    rewrite; the JSON records which strategy answered.
//!
//! Results are printed and written as JSON to `BENCH_scale.json` at the
//! repo root, with the host they were measured on (CPUs, the commit from
//! `XVR_COMMIT`, build profile); override the path with `XVR_BENCH_OUT`.
//! `XVR_BENCH_FAST=1` runs only scale 0.01 with a small catalog for CI
//! smoke runs. `XVR_BENCH_SCALES` (comma-separated) and `XVR_BENCH_VIEWS`
//! override the workload size.

use std::fmt::Write as _;
use std::time::Instant;

use xvr_bench::{answering_strategy, planted_views, test_queries};
use xvr_core::{Engine, EngineConfig, QueryOptions, Strategy};
use xvr_pattern::distinct_patterns;
use xvr_pattern::generator::QueryConfig;
use xvr_xml::generator::{generate, Config};
use xvr_xml::tree::XmlTree;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Heap footprint the pre-refactor array-of-structs layout would need for
/// this tree: one 88-byte `XmlNode` per element (`label` + `Option<NodeId>`
/// parent + children `Vec` header + `Option<String>` text + attrs `Vec`
/// header), plus 4 heap bytes per child edge, the text payload, and a
/// 32-byte `(Label, String)` tuple + value payload per attribute.
fn legacy_heap_estimate(tree: &XmlTree) -> usize {
    const LEGACY_NODE_BYTES: usize = 88;
    let mut total = tree.len() * LEGACY_NODE_BYTES;
    for id in tree.iter() {
        total += 4 * tree.child_count(id);
        if let Some(t) = tree.text(id) {
            total += t.len();
        }
        for (_, v) in tree.attrs(id) {
            total += 32 + v.len();
        }
    }
    total
}

struct ScaleReport {
    scale: f64,
    nodes: usize,
    gen_ms: f64,
    doc_heap_bytes: usize,
    doc_bytes_per_node: f64,
    legacy_bytes_per_node: f64,
    layout_savings_pct: f64,
    views: usize,
    truncated_views: usize,
    materialize_ms: f64,
    fragments: usize,
    materialized_nodes: usize,
    mat_nodes_per_sec: f64,
    store_bytes: usize,
    resident_bytes: usize,
    query_rows: Vec<String>,
}

fn run_scale(scale: f64, n_views: usize, budget: usize, reps: usize, seed: u64) -> ScaleReport {
    let t0 = Instant::now();
    let doc = generate(&Config::scale(scale).with_seed(seed));
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let nodes = doc.len();

    let doc_heap_bytes = doc.tree.heap_size();
    let doc_bytes_per_node = doc_heap_bytes as f64 / nodes as f64;
    let legacy_bytes = legacy_heap_estimate(&doc.tree);
    let legacy_bytes_per_node = legacy_bytes as f64 / nodes as f64;
    let layout_savings_pct = 100.0 * (1.0 - doc_heap_bytes as f64 / legacy_bytes as f64);

    // View catalog: the planted (answerable) views first, then generated
    // patterns from the paper's view workload to fill the catalog.
    let bulk = distinct_patterns(
        &doc.fst,
        &doc.labels,
        QueryConfig::paper_view_workload(seed),
        n_views.saturating_sub(planted_views().len()),
    );
    let mut engine = Engine::new(
        doc,
        EngineConfig {
            fragment_budget: budget,
            ..EngineConfig::default()
        },
    );

    let t0 = Instant::now();
    let mut ids = Vec::new();
    for src in planted_views() {
        ids.push(engine.add_view_str(src).expect("planted view parses"));
    }
    for p in bulk {
        ids.push(engine.add_view(p));
    }
    let materialize_ms = t0.elapsed().as_secs_f64() * 1e3;

    let store = engine.store();
    let mut fragments = 0usize;
    let mut materialized_nodes = 0usize;
    let mut truncated_views = 0usize;
    for &id in &ids {
        let mv = store.get(id).expect("view materialized");
        fragments += mv.fragments.len();
        materialized_nodes += mv.fragments.trees().iter().map(|t| t.len()).sum::<usize>();
        if !mv.complete() {
            truncated_views += 1;
        }
    }
    let store_bytes = store.total_bytes();
    let resident_bytes = store.resident_bytes();
    let mat_nodes_per_sec = materialized_nodes as f64 / (materialize_ms / 1e3);

    let queries: Vec<_> = test_queries()
        .into_iter()
        .map(|tq| {
            let p = engine.parse(tq.xpath).expect("test query parses");
            (tq, p)
        })
        .collect();
    let snap = engine.snapshot();
    let mut query_rows = Vec::new();
    for (tq, pattern) in queries {
        // HV first; when the fragment budget truncated the covering views
        // the query is (correctly) not answerable, and a production path
        // falls back to direct evaluation — time whichever strategy answers.
        let strategy = answering_strategy(&snap, &pattern, Strategy::Hv)
            .unwrap_or_else(|e| panic!("{}: HV rewrite failed: {e}", tq.name));
        let options = QueryOptions::strategy(strategy);
        let mut times_us: Vec<f64> = Vec::with_capacity(reps);
        let mut answered = true;
        for _ in 0..reps {
            let t0 = Instant::now();
            let outcome = snap.query(&pattern, &options);
            times_us.push(t0.elapsed().as_secs_f64() * 1e6);
            answered &= outcome.answer.is_ok();
        }
        times_us.sort_by(|a, b| a.total_cmp(b));
        let median_us = times_us[times_us.len() / 2];
        println!(
            "    {:<4} median {:>10.1} µs  strategy={} answered={answered}",
            tq.name,
            median_us,
            strategy.as_str()
        );
        query_rows.push(format!(
            "{{\"id\": \"{}\", \"strategy\": \"{}\", \"median_us\": {median_us:.1}, \"answered\": {answered}}}",
            tq.name,
            strategy.as_str()
        ));
    }

    ScaleReport {
        scale,
        nodes,
        gen_ms,
        doc_heap_bytes,
        doc_bytes_per_node,
        legacy_bytes_per_node,
        layout_savings_pct,
        views: ids.len(),
        truncated_views,
        materialize_ms,
        fragments,
        materialized_nodes,
        mat_nodes_per_sec,
        store_bytes,
        resident_bytes,
        query_rows,
    }
}

fn main() {
    let fast = std::env::var("XVR_BENCH_FAST").is_ok_and(|v| v == "1");
    let seed = 42u64;
    let scales: Vec<f64> = std::env::var("XVR_BENCH_SCALES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<f64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| {
            if fast {
                vec![0.01]
            } else {
                vec![0.01, 0.1, 1.0]
            }
        });

    let mut rows = Vec::new();
    for &scale in &scales {
        // Catalog grows with the document: hundreds of views at the small
        // scales, thousands at scale 1.0.
        let default_views = if fast {
            64
        } else if scale < 0.05 {
            400
        } else if scale < 0.5 {
            1000
        } else {
            2400
        };
        let n_views = env_usize("XVR_BENCH_VIEWS", default_views);
        let budget = if fast { 64 << 10 } else { 512 << 10 };
        let reps = if fast {
            3
        } else if scale < 0.5 {
            9
        } else {
            5
        };

        println!("== scale {scale} ({n_views} views, {budget} B/view budget) ==");
        let r = run_scale(scale, n_views, budget, reps, seed);
        println!(
            "  {} nodes generated in {:.0} ms; tree {:.1} B/node (legacy est. {:.1} B/node, {:.1}% smaller)",
            r.nodes, r.gen_ms, r.doc_bytes_per_node, r.legacy_bytes_per_node, r.layout_savings_pct
        );
        println!(
            "  {} views ({} truncated) materialized in {:.0} ms: {} fragments, {} nodes, {:.0} nodes/s, store {} B ({} B resident)",
            r.views,
            r.truncated_views,
            r.materialize_ms,
            r.fragments,
            r.materialized_nodes,
            r.mat_nodes_per_sec,
            r.store_bytes,
            r.resident_bytes
        );
        rows.push(r);
    }

    let mut json = String::new();
    let scale_objs: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\n      \"scale\": {}, \"nodes\": {}, \"gen_ms\": {:.1},\n      \"doc_heap_bytes\": {}, \"doc_bytes_per_node\": {:.2}, \"legacy_bytes_per_node\": {:.2}, \"layout_savings_pct\": {:.1},\n      \"views\": {}, \"truncated_views\": {}, \"materialize_ms\": {:.1},\n      \"fragments\": {}, \"materialized_nodes\": {}, \"mat_nodes_per_sec\": {:.0}, \"store_bytes\": {}, \"resident_bytes\": {},\n      \"queries\": [{}]\n    }}",
                r.scale,
                r.nodes,
                r.gen_ms,
                r.doc_heap_bytes,
                r.doc_bytes_per_node,
                r.legacy_bytes_per_node,
                r.layout_savings_pct,
                r.views,
                r.truncated_views,
                r.materialize_ms,
                r.fragments,
                r.materialized_nodes,
                r.mat_nodes_per_sec,
                r.store_bytes,
                r.resident_bytes,
                r.query_rows.join(", ")
            )
        })
        .collect();
    write!(
        json,
        "{{\n  \"benchmark\": \"scale_bench\",\n  \"mode\": \"{}\",\n  \"host\": {},\n  \"seed\": {seed},\n  \"node_bytes\": 20,\n  \"scales\": [\n    {}\n  ]\n}}\n",
        if fast { "fast" } else { "full" },
        xvr_bench::host_json(),
        scale_objs.join(",\n    ")
    )
    .unwrap();

    let out = std::env::var("XVR_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write benchmark baseline");
    println!("wrote {out}");
}
