//! Serve benchmark: sustained throughput, open-loop latency percentiles,
//! and hot-swap-under-load for `xvr serve`, measured in three phases —
//!
//! 1. **max_throughput** — closed-loop: 4 connections send the committed
//!    256-query XMark workload (`workloads/serve_xmark.txt`) back-to-back
//!    as fast as responses return; sustained q/s over the wall clock.
//! 2. **open_loop** — the same workload offered at ~75% of the measured
//!    maximum on a fixed timeline; latency is measured from each
//!    request's *scheduled* send time, so server stalls land in the tail
//!    percentiles instead of silently slowing the generator
//!    (coordinated-omission-free).
//! 3. **hot_swap** — the closed-loop load runs again while an admin
//!    connection swaps a new snapshot in every few milliseconds
//!    (`add-view` requests). The run must complete with **zero** errors:
//!    in-flight queries finish on the old snapshot, later ones see the
//!    new one.
//!
//! Results are printed and written as JSON to `BENCH_serve.json` at the
//! repo root; override with `XVR_BENCH_OUT`. `XVR_BENCH_FAST=1` shrinks
//! the document, view set, and request counts for smoke runs.
//! `XVR_BENCH_SCALE` and `XVR_BENCH_VIEWS` override the workload size.

use std::time::Duration;

use xvr_bench::{paper_document, planted_views, xmark_queries};
use xvr_core::{
    run_load, Client, Engine, EngineConfig, LoadConfig, LoadReport, Request, Response, Server,
    ServerConfig, Strategy, WireOptions,
};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::QueryConfig;
use xvr_xml::DocStats;

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

fn print_report(label: &str, r: &LoadReport) {
    println!(
        "{label:<16} {:>8.0} q/s | p50 {:>6}µs p95 {:>6}µs p99 {:>6}µs max {:>6}µs | {} ok, {} unanswerable, {} errors",
        r.sustained_qps, r.p50_us, r.p95_us, r.p99_us, r.max_us, r.ok, r.unanswerable, r.errors
    );
}

fn main() {
    let fast = std::env::var("XVR_BENCH_FAST").is_ok_and(|v| v == "1");
    let scale = env_f64("XVR_BENCH_SCALE", if fast { 0.003 } else { 0.01 });
    let n_views = env_usize("XVR_BENCH_VIEWS", if fast { 16 } else { 48 });
    let connections = 4usize;
    let jobs = 4usize;
    let repeats = if fast { 2 } else { 8 };

    // The committed workload file is the source of truth for the query
    // mix (the same 4 Table III queries x64 the rewrite benchmarks batch).
    let workload_path = format!(
        "{}/../../workloads/serve_xmark.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut workload: Vec<String> = std::fs::read_to_string(&workload_path)
        .expect("read workloads/serve_xmark.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    assert_eq!(workload.len(), 256, "committed workload is 256 queries");
    if fast {
        workload.truncate(64);
    }

    let doc = paper_document(scale, 0x5eed);
    let stats = DocStats::compute(&doc.tree, &doc.labels);
    println!(
        "serve_bench: mode={} scale={scale} nodes={} views={n_views} connections={connections}",
        if fast { "fast" } else { "full" },
        stats.nodes
    );

    // Planted Table III views (these answer the workload) plus random
    // positive views up to `n_views`, mirroring rewrite_hotpath.
    let mut engine = Engine::new(doc.clone(), EngineConfig::default());
    let mut sources: Vec<String> = Vec::new();
    for src in planted_views() {
        engine.add_view_str(src).expect("planted view parses");
        sources.push(src.to_string());
    }
    for v in distinct_positive_patterns(
        &doc,
        QueryConfig::paper_view_workload(42),
        n_views.saturating_sub(sources.len()),
    ) {
        engine.add_view(v);
    }
    let views_at_start = engine.views().len();

    let server = Server::bind("127.0.0.1:0", engine, sources, ServerConfig { jobs })
        .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let total = workload.len() * repeats;
    let base = LoadConfig {
        queries: workload.clone(),
        options: WireOptions::strategy(Strategy::Hv),
        connections,
        qps: 0.0,
        total,
    };

    // --- 1. Closed-loop maximum throughput. -----------------------------
    // One warm-up pass populates the rewrite cache, then measure.
    run_load(&addr, &base).expect("warm-up load");
    let max = run_load(&addr, &base).expect("closed-loop load");
    print_report("max_throughput", &max);

    // --- 2. Open-loop latency at ~75% of the measured maximum. ----------
    let offered = (max.sustained_qps * 0.75).max(1.0);
    let open = run_load(
        &addr,
        &LoadConfig {
            qps: offered,
            ..base.clone()
        },
    )
    .expect("open-loop load");
    print_report("open_loop", &open);

    // --- 3. Hot swap under load. ----------------------------------------
    // Closed-loop load runs while an admin connection publishes a new
    // snapshot every ~5ms; the XMark query approximations double as new
    // views. Zero errors required: that's the swap-atomicity contract.
    let swap_views: Vec<String> = xmark_queries()
        .into_iter()
        .map(|(_, src)| src.to_string())
        .collect();
    let (hot, swaps, epoch_after) = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_load(&addr, &base).expect("hot-swap load"));
        let mut admin = Client::connect_retry(&addr, Duration::from_secs(5)).expect("admin");
        let mut swaps = 0u64;
        let mut epoch = 0u64;
        while !load.is_finished() {
            let xpath = swap_views[swaps as usize % swap_views.len()].clone();
            match admin.call(&Request::AddView { xpath }).expect("add-view") {
                Response::Swapped { epoch: e, .. } => {
                    swaps += 1;
                    epoch = e;
                }
                other => panic!("add-view answered {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (load.join().expect("load thread"), swaps, epoch)
    });
    print_report("hot_swap", &hot);
    println!("hot_swap: {swaps} snapshot swap(s), epoch {epoch_after}");
    assert!(swaps > 0, "load finished before any swap landed");
    assert_eq!(hot.errors, 0, "queries failed across snapshot swaps");
    assert_eq!(
        hot.completed, total,
        "requests dropped across snapshot swaps"
    );

    // --- Server-side stats, then shut down. ------------------------------
    let mut admin = Client::connect_retry(&addr, Duration::from_secs(5)).expect("admin");
    let stats_resp = admin.call(&Request::Stats).expect("stats");
    if let Response::Stats {
        epoch,
        queries,
        connections: conns,
        requests,
        ..
    } = stats_resp
    {
        println!(
            "server stats: epoch {epoch}, {queries} queries on current snapshot, {conns} connections, {requests} requests"
        );
    }
    assert!(matches!(
        admin.call(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    ));
    server_thread.join().expect("server thread");

    // --- JSON baseline. ---------------------------------------------------
    let json = format!(
        "{{\n  \"benchmark\": \"serve\",\n  \"mode\": \"{}\",\n  \"doc\": {{\"scale\": {scale}, \"nodes\": {}}},\n  \
         \"views\": {views_at_start},\n  \"strategy\": \"HV\",\n  \
         \"workload\": {{\"source\": \"workloads/serve_xmark.txt\", \"queries\": {}, \"repeats\": {repeats}, \"requests\": {total}}},\n  \
         \"connections\": {connections},\n  \"jobs\": {jobs},\n  \"results\": {{\n    \
         \"max_throughput\": {},\n    \
         \"open_loop\": {{\"offered_qps\": {offered:.0}, \"load\": {}}},\n    \
         \"hot_swap\": {{\"swaps\": {swaps}, \"epoch\": {epoch_after}, \"load\": {}}}\n  }}\n}}\n",
        if fast { "fast" } else { "full" },
        stats.nodes,
        workload.len(),
        max.json_fragment(),
        open.json_fragment(),
        hot.json_fragment(),
    );
    let out = std::env::var("XVR_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write benchmark baseline");
    println!("wrote {out}");
}
