//! Ablation benches: evaluation engines across indexes, selection
//! objectives, and the attribute-pruning filter extension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xvr_bench::{build_paper_engine, paper_document};
use xvr_core::filter::{filter_views, filter_views_opts, FilterOptions};
use xvr_core::Strategy;
use xvr_pattern::{eval, eval_bf, eval_bn, parse_pattern_with};
use xvr_xml::{NodeIndex, PathIndex};

fn engines(c: &mut Criterion) {
    let doc = paper_document(0.005, 0x5eed);
    let nidx = NodeIndex::build(&doc.tree, &doc.labels);
    let pidx = PathIndex::build(&doc.tree, &doc.labels);
    let mut labels = doc.labels.clone();
    let queries = [
        ("shallow", "//person/name"),
        ("branching", "//open_auction[bidder][seller]/current"),
        ("deep", "//item/description/parlist/listitem//text"),
    ];
    let mut group = c.benchmark_group("engines");
    for (name, src) in queries {
        let q = parse_pattern_with(src, &mut labels).unwrap();
        group.bench_with_input(BenchmarkId::new("naive", name), &q, |b, q| {
            b.iter(|| eval(q, &doc.tree).len())
        });
        group.bench_with_input(BenchmarkId::new("bn_label_index", name), &q, |b, q| {
            b.iter(|| eval_bn(q, &doc.tree, &nidx).len())
        });
        group.bench_with_input(BenchmarkId::new("bf_path_index", name), &q, |b, q| {
            b.iter(|| eval_bf(q, &doc, &pidx).len())
        });
    }
    group.finish();
}

fn selection_objectives(c: &mut Criterion) {
    let doc = paper_document(0.005, 0x5eed);
    let w = build_paper_engine(doc, 300, 42, usize::MAX);
    let mut group = c.benchmark_group("selection_objectives");
    group.sample_size(10);
    for (tq, q) in &w.queries {
        for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
            if w.engine.answer(q, strategy).is_err() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(strategy.as_str(), tq.name), q, |b, q| {
                b.iter(|| w.engine.answer(q, strategy).unwrap().codes.len())
            });
        }
    }
    group.finish();
}

fn attr_pruning(c: &mut Criterion) {
    let doc = paper_document(0.005, 0x5eed);
    let w = build_paper_engine(doc, 300, 42, usize::MAX);
    let mut group = c.benchmark_group("attr_pruning");
    let q = &w.queries[0].1;
    let views = w.engine.views();
    let nfa = w.engine.nfa();
    group.bench_function("on", |b| {
        b.iter(|| filter_views(q, views, nfa).candidates.len())
    });
    group.bench_function("off", |b| {
        b.iter(|| {
            filter_views_opts(
                q,
                views,
                nfa,
                FilterOptions {
                    attr_pruning: false,
                    ..FilterOptions::default()
                },
            )
            .candidates
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, engines, selection_objectives, attr_pruning);
criterion_main!(benches);
