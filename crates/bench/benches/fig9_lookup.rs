//! Figure 9: view-set lookup time (filter + selection, no rewriting) of
//! Q1–Q4 under MN, MV, HV over 1000 materialized views.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xvr_bench::{build_paper_engine, paper_document, PaperWorkload};
use xvr_core::Strategy;

fn workload() -> PaperWorkload {
    let scale = std::env::var("XVR_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let views = std::env::var("XVR_BENCH_VIEWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let doc = paper_document(scale, 0x5eed);
    build_paper_engine(doc, views, 42, usize::MAX)
}

fn fig9(c: &mut Criterion) {
    let w = workload();
    let snap = w.engine.snapshot();
    let mut group = c.benchmark_group("fig9_lookup");
    group.sample_size(10);
    for (tq, q) in &w.queries {
        for strategy in [Strategy::Mn, Strategy::Mv, Strategy::Hv] {
            group.bench_with_input(BenchmarkId::new(strategy.as_str(), tq.name), q, |b, q| {
                b.iter(|| {
                    let (sel, _, _) = snap.lookup(q, strategy);
                    sel.map(|s| s.units.len()).unwrap_or(0)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig9);
criterion_main!(benches);
