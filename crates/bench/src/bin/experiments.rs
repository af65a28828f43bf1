//! Regenerate every figure of the paper's evaluation (Section VI) and print
//! a markdown report: paper-reported values next to measured ones.
//!
//! ```text
//! experiments [--scale F] [--views N] [--sets a,b,c] [--reps N] [--quick]
//! ```
//!
//! * `--scale`  document scale factor (default 0.01 ≈ 1/50 of the paper's
//!   56.2 MB document, same structural shape; 0.5 reproduces its size)
//! * `--views`  number of materialized views for Figures 8/9 (default 1000)
//! * `--sets`   view-set sizes for Figures 10/11/12 (default the paper's
//!   1000..8000)
//! * `--reps`   timing repetitions per measurement (default 15)
//! * `--quick`  small everything, for smoke runs
//!
//! Absolute numbers differ from the paper (different hardware, language,
//! document size); the *shapes* — who wins, by what factor, where growth
//! flattens — are the reproduction target. See EXPERIMENTS.md.

use std::time::Instant;

use xvr_bench::{build_paper_engine, paper_document, test_queries, view_sets};
use xvr_core::filter::{build_nfa, build_nfa_raw, filter_views, filter_views_opts, FilterOptions};
use xvr_core::{QueryOptions, Strategy, ViewSet};
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_positive_patterns, exists_hom, parse_pattern_with, TreePattern};
use xvr_xml::{Document, NodeIndex, PathIndex};

struct Args {
    scale: f64,
    views: usize,
    sets: Vec<usize>,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.01,
        views: 1000,
        sets: vec![1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000],
        reps: 15,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = argv[i].parse().expect("--scale F");
            }
            "--views" => {
                i += 1;
                args.views = argv[i].parse().expect("--views N");
            }
            "--sets" => {
                i += 1;
                args.sets = argv[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sets a,b,c"))
                    .collect();
            }
            "--reps" => {
                i += 1;
                args.reps = argv[i].parse().expect("--reps N");
            }
            "--quick" => {
                args.scale = 0.002;
                args.views = 200;
                args.sets = vec![200, 400, 800, 1600];
                args.reps = 5;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Median wall time of `f` over `reps` runs, in microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.1} µs", us)
    }
}

fn main() {
    let args = parse_args();
    println!("# Experiment report — XPath rewriting with multiple materialized views\n");
    println!(
        "Parameters: scale={}, views={}, sets={:?}, reps={}\n",
        args.scale, args.views, args.sets, args.reps
    );

    let t0 = Instant::now();
    let doc = paper_document(args.scale, 0x5eed);
    println!(
        "Document: {} element nodes, height {}, generated in {:.1}s",
        doc.len(),
        doc.tree.height(),
        t0.elapsed().as_secs_f64()
    );

    index_report(&doc);

    let t0 = Instant::now();
    let workload = build_paper_engine(doc.clone(), args.views, 42, usize::MAX);
    println!(
        "Materialized {} views ({} bytes total) in {:.1}s\n",
        workload.engine.views().len(),
        workload.engine.store().total_bytes(),
        t0.elapsed().as_secs_f64()
    );

    table_iii(&workload);
    fig8(&workload, args.reps);
    fig9(&workload, args.reps);
    throughput(&workload, args.reps);

    let sets = view_sets(&doc, &args.sets, 0xF1);
    fig10(&doc, &sets, &args.sets);
    fig11(&sets, &args.sets);
    fig12(&doc, &sets, &args.sets, args.reps);
    ablations(&doc, &workload, &sets[0], args.reps);
}

/// Ablation studies: what each design choice buys.
fn ablations(doc: &Document, w: &xvr_bench::PaperWorkload, set: &ViewSet, reps: usize) {
    println!("## Ablations\n");

    // (a) Normalization (Section III-C): false negatives without it, on a
    // wildcard/descendant-dense workload (where the equivalent-spelling
    // problem actually arises).
    let mut dense_cfg = QueryConfig::paper_view_workload(0xDE);
    dense_cfg.prob_wild = 0.5;
    dense_cfg.prob_desc = 0.5;
    let dense = xvr_pattern::distinct_patterns(&doc.fst, &doc.labels, dense_cfg, 500);
    let mut dense_set = ViewSet::new();
    for v in &dense {
        dense_set.add(v.clone());
    }
    let normalized = build_nfa(&dense_set);
    let raw = build_nfa_raw(&dense_set);
    let queries: Vec<&TreePattern> = dense_set.iter().map(|v| &v.pattern).take(200).collect();
    // Tree homomorphisms cannot witness the containments normalization
    // exists for, so ground-truth them directly: count (query, view) pairs
    // only the normalized filter keeps, then confirm a sample with the
    // complete canonical-model test.
    let mut hom_misses = 0usize;
    let mut hom_checked = 0usize;
    let mut norm_only: Vec<(TreePattern, TreePattern)> = Vec::new();
    for q in &queries {
        let with = filter_views(q, &dense_set, &normalized);
        let without = filter_views_opts(
            q,
            &dense_set,
            &raw,
            FilterOptions {
                normalize_queries: false,
                ..FilterOptions::default()
            },
        );
        for view in dense_set.iter() {
            if exists_hom(&view.pattern, q) {
                hom_checked += 1;
                assert!(
                    with.candidates.contains(&view.id),
                    "normalized filter must not miss"
                );
                if !without.candidates.contains(&view.id) {
                    hom_misses += 1;
                }
            } else if with.candidates.contains(&view.id)
                && !without.candidates.contains(&view.id)
                && norm_only.len() < 64
            {
                norm_only.push((view.pattern.clone(), (*q).clone()));
            }
        }
    }
    // How many of the normalized-only pairs are *true* containments?
    let verified: Vec<bool> = norm_only
        .iter()
        .filter_map(|(v, q)| xvr_pattern::try_contains_complete(v, q, &doc.labels))
        .collect();
    let confirmed = verified.iter().filter(|&&b| b).count();
    println!(
        "* **Normalization (Sec. III-C)**: on a wildcard-dense workload the raw \
         automaton misses {hom_misses} of {hom_checked} homomorphism-containing pairs; \
         beyond those, the normalized filter keeps {} extra (query, view) pairs the raw \
         one drops, of which {confirmed}/{} verifiable samples are *true* containments — \
         false negatives the paper's normalization (and ours) eliminates.",
        norm_only.len(),
        verified.len()
    );
    let _ = set;

    // (b) Attribute-aware pruning (Section VII extension) on an
    // attribute-heavy workload.
    let id = doc.labels.get("id");
    if let Some(id) = id {
        let attr_labels: Vec<_> = [
            "person",
            "item",
            "open_auction",
            "closed_auction",
            "category",
        ]
        .iter()
        .filter_map(|n| doc.labels.get(n))
        .collect();
        let cfg = QueryConfig::paper_view_workload(0xAB).with_attrs(0.6, id, attr_labels.clone());
        let attr_views = distinct_positive_patterns(doc, cfg, 300);
        let mut attr_set = ViewSet::new();
        for v in &attr_views {
            attr_set.add(v.clone());
        }
        let nfa = build_nfa(&attr_set);
        let qcfg = QueryConfig::paper_query_workload(0xAC);
        let attr_queries = distinct_positive_patterns(doc, qcfg, 100);
        let (mut with_sum, mut without_sum) = (0usize, 0usize);
        for q in &attr_queries {
            with_sum += filter_views(q, &attr_set, &nfa).candidates.len();
            without_sum += filter_views_opts(
                q,
                &attr_set,
                &nfa,
                FilterOptions {
                    attr_pruning: false,
                    ..FilterOptions::default()
                },
            )
            .candidates
            .len();
        }
        println!(
            "* **Attribute pruning (Sec. VII extension)**: {} attribute-free queries against \
             {} attribute-carrying views — avg candidates {:.1} without vs **{:.1}** with \
             pruning ({:.0}% fewer).",
            attr_queries.len(),
            attr_set.len(),
            without_sum as f64 / attr_queries.len().max(1) as f64,
            with_sum as f64 / attr_queries.len().max(1) as f64,
            100.0 * (1.0 - with_sum as f64 / without_sum.max(1) as f64)
        );
    }

    // (c) Prefix sharing in the automaton.
    let unshared: usize = dense_set
        .iter()
        .flat_map(|v| v.normalized_paths.iter())
        .map(|p| {
            // One state per step plus one hub per descendant edge + start.
            1 + p.steps().len()
                + p.steps()
                    .iter()
                    .filter(|s| s.axis == xvr_pattern::Axis::Descendant)
                    .count()
        })
        .sum();
    println!(
        "* **Prefix sharing**: {} states shared vs ~{} without sharing ({:.1}× smaller).",
        normalized.state_count(),
        unshared,
        unshared as f64 / normalized.state_count().max(1) as f64
    );

    // (d) Selection objective: CB (cost model) vs MV (fewest views) vs HV
    // (smallest fragments) on the test queries.
    println!("\n| query | MV time | HV time | CB time | MV views | HV views | CB views |");
    println!("|---|---|---|---|---|---|---|");
    for (tq, q) in &w.queries {
        let mut times = Vec::new();
        let mut used = Vec::new();
        for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
            match w.engine.answer(q, strategy) {
                Ok(a) => {
                    let us = time_us(reps, || w.engine.answer(q, strategy).unwrap().codes.len());
                    times.push(fmt_us(us));
                    used.push(a.views_used.len().to_string());
                }
                Err(_) => {
                    times.push("—".into());
                    used.push("—".into());
                }
            }
        }
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            tq.name, times[0], times[1], times[2], used[0], used[1], used[2]
        );
    }
    println!();
}

/// The BN-vs-BF storage trade-off the paper reports (150 MB vs 635 MB for
/// the 56.2 MB document).
fn index_report(doc: &Document) {
    let t0 = Instant::now();
    let nidx = NodeIndex::build(&doc.tree, &doc.labels);
    let t_n = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let pidx = PathIndex::build(&doc.tree, &doc.labels);
    let t_p = t0.elapsed().as_secs_f64();
    println!("\n## Index storage (paper: BN 150 MB vs BF 635 MB for 56.2 MB)\n");
    println!("| index | heap bytes | build time |");
    println!("|---|---|---|");
    println!("| BN (label index) | {} | {:.2}s |", nidx.heap_size(), t_n);
    println!(
        "| BF (path index, {} distinct paths) | {} | {:.2}s |",
        pidx.path_count(),
        pidx.heap_size(),
        t_p
    );
    println!();
}

fn table_iii(w: &xvr_bench::PaperWorkload) {
    println!("## Table III — test queries\n");
    println!("| query | xpath | views used (HV) | paper |");
    println!("|---|---|---|---|");
    for (tq, q) in &w.queries {
        let used = w
            .engine
            .answer(q, Strategy::Hv)
            .map(|a| a.views_used.len().to_string())
            .unwrap_or_else(|_| "—".to_owned());
        println!(
            "| {} | `{}` | {} | {} |",
            tq.name, tq.xpath, used, tq.expected_views
        );
    }
    println!();
}

fn fig8(w: &xvr_bench::PaperWorkload, reps: usize) {
    println!("## Figure 8 — query processing time (paper: BN ≫ BF > MN > MV ≥ HV)\n");
    print!("| query |");
    for s in Strategy::all() {
        print!(" {s} |");
    }
    println!("\n|---|---|---|---|---|---|");
    for (tq, q) in &w.queries {
        print!("| {} |", tq.name);
        for strategy in Strategy::all() {
            if w.engine.answer(q, strategy).is_err() {
                print!(" — |");
                continue;
            }
            let us = time_us(reps, || w.engine.answer(q, strategy).unwrap().codes.len());
            print!(" {} |", fmt_us(us));
        }
        println!();
    }
    println!();
}

fn fig9(w: &xvr_bench::PaperWorkload, reps: usize) {
    println!("## Figure 9 — lookup time (paper: MN ≫ MV ≈ HV)\n");
    println!("| query | MN | MV | HV |");
    println!("|---|---|---|---|");
    let snap = w.engine.snapshot();
    for (tq, q) in &w.queries {
        print!("| {} |", tq.name);
        for strategy in [Strategy::Mn, Strategy::Mv, Strategy::Hv] {
            let us = time_us(reps, || {
                let (sel, _, _) = snap.lookup(q, strategy);
                sel.map(|s| s.units.len()).unwrap_or(0)
            });
            print!(" {} |", fmt_us(us));
        }
        println!();
    }
    println!();
}

/// Not in the paper: batch-answering throughput of one frozen
/// `EngineSnapshot` shared by N worker threads, versus sequential. The
/// pipeline is read-only per query, so scaling is bounded only by memory
/// bandwidth and scheduler overhead.
fn throughput(w: &xvr_bench::PaperWorkload, reps: usize) {
    println!("## Batch throughput — one snapshot, N worker threads\n");
    let snap = w.engine.snapshot();
    let base: Vec<TreePattern> = w.queries.iter().map(|(_, q)| q.clone()).collect();
    let batch: Vec<TreePattern> = base.iter().cycle().take(256).cloned().collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs_list: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&j| j == 1 || j <= cores.max(2))
        .collect();
    println!(
        "Batch of {} queries (Table III set, cycled); host reports {} hardware threads.\n",
        batch.len(),
        cores
    );
    print!("| strategy |");
    for j in &jobs_list {
        print!(" jobs={j} |");
    }
    println!(" speedup |");
    print!("|---|");
    for _ in &jobs_list {
        print!("---|");
    }
    println!("---|");
    for strategy in [Strategy::Bf, Strategy::Hv, Strategy::Cb] {
        let wall: Vec<f64> = jobs_list
            .iter()
            .map(|&jobs| {
                time_us(reps, || {
                    snap.query_batch(&batch, &QueryOptions::strategy(strategy), jobs)
                        .answered()
                })
            })
            .collect();
        print!("| {strategy} |");
        for us in &wall {
            let qps = batch.len() as f64 / (us / 1e6);
            print!(" {} ({qps:.0} q/s) |", fmt_us(*us));
        }
        println!(" {:.2}× |", wall[0] / wall.last().unwrap().max(1e-9));
    }
    println!();
}

/// Figure 10: utility U(Q) = |V''| / |V_Q| where V'' is VFILTER's output
/// and V_Q the set of views with a homomorphism into Q. The test query set
/// is the first view set, as in the paper.
fn fig10(doc: &Document, sets: &[ViewSet], sizes: &[usize]) {
    println!("## Figure 10 — VFILTER utility (paper: avg ≈ 1, max 3–16)\n");
    println!("| |V| | avg U(Q) | max U(Q) | max |V''| |");
    println!("|---|---|---|---|");
    let queries: Vec<TreePattern> = sets[0].iter().map(|v| v.pattern.clone()).collect();
    let sample: Vec<&TreePattern> = queries.iter().take(250).collect();
    let _ = doc;
    for (set, size) in sets.iter().zip(sizes) {
        let nfa = build_nfa(set);
        let mut sum = 0.0f64;
        let mut count = 0usize;
        let mut max_u = 0.0f64;
        let mut max_candidates = 0usize;
        for q in &sample {
            let outcome = filter_views(q, set, &nfa);
            let v_q = set.iter().filter(|v| exists_hom(&v.pattern, q)).count();
            if v_q == 0 {
                continue;
            }
            let u = outcome.candidates.len() as f64 / v_q as f64;
            sum += u;
            count += 1;
            if u > max_u {
                max_u = u;
            }
            max_candidates = max_candidates.max(outcome.candidates.len());
        }
        println!(
            "| {} | {:.3} | {:.1} | {} |",
            size,
            sum / count.max(1) as f64,
            max_u,
            max_candidates
        );
    }
    println!();
}

fn fig11(sets: &[ViewSet], sizes: &[usize]) {
    println!("## Figure 11 — VFILTER size scaling (paper: S8/S1 ≈ 3.09, sublinear)\n");
    println!("| |V| | states | transitions | bytes | S_i/S_1 |");
    println!("|---|---|---|---|---|");
    let mut s1 = None;
    for (set, size) in sets.iter().zip(sizes) {
        let nfa = build_nfa(set);
        let bytes = nfa.serialized_size();
        let base = *s1.get_or_insert(bytes);
        println!(
            "| {} | {} | {} | {} | {:.2} |",
            size,
            nfa.state_count(),
            nfa.transition_count(),
            bytes,
            bytes as f64 / base as f64
        );
    }
    println!();
}

fn fig12(doc: &Document, sets: &[ViewSet], sizes: &[usize], reps: usize) {
    println!("## Figure 12 — filtering time vs |V| (paper: 15–150 µs, sublinear growth)\n");
    let mut labels = doc.labels.clone();
    let queries: Vec<(&'static str, TreePattern)> = test_queries()
        .into_iter()
        .map(|tq| (tq.name, parse_pattern_with(tq.xpath, &mut labels).unwrap()))
        .collect();
    print!("| |V| |");
    for (name, _) in &queries {
        print!(" {name} |");
    }
    println!("\n|---|---|---|---|---|");
    for (set, size) in sets.iter().zip(sizes) {
        let nfa = build_nfa(set);
        print!("| {size} |");
        for (_, q) in &queries {
            let us = time_us(reps.max(50), || filter_views(q, set, &nfa).candidates.len());
            print!(" {} |", fmt_us(us));
        }
        println!();
    }
    println!();
}
