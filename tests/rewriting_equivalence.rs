//! The headline correctness property: whenever the system answers a query
//! from materialized views, the answer equals direct evaluation on the base
//! document — across random documents, view sets, and queries.

use proptest::prelude::*;

use xvr_core::{AnswerError, Engine, EngineConfig, QueryOptions, Strategy};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_xml::generator::{generate, Config};

fn run_trial(doc_seed: u64, view_seed: u64, query_seed: u64, n_views: usize) -> (usize, usize) {
    let doc = generate(&Config::tiny(doc_seed));
    let views =
        distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(view_seed), n_views);
    let mut engine = Engine::new(doc, EngineConfig::default());
    for v in views {
        engine.add_view(v);
    }
    let doc = engine.doc().clone();
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(query_seed));
    let mut answered = 0usize;
    let mut total = 0usize;
    for _ in 0..8 {
        let Some(q) = gen.generate_positive(&doc, 30) else {
            continue;
        };
        total += 1;
        let reference = engine.answer(&q, Strategy::Bn).unwrap().codes;
        for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
            match engine.answer(&q, strategy) {
                Ok(a) => {
                    assert_eq!(
                        a.codes,
                        reference,
                        "{strategy} wrong on {} (doc {doc_seed}, views {view_seed})",
                        q.display(&doc.labels)
                    );
                    answered += 1;
                }
                Err(AnswerError::NotAnswerable) => {}
                Err(e) => panic!("{strategy}: {e}"),
            }
        }
    }
    (answered, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads: view answers must equal direct evaluation.
    #[test]
    fn view_answers_equal_direct_evaluation(
        doc_seed in 0u64..1000,
        view_seed in 0u64..1000,
        query_seed in 0u64..1000,
    ) {
        run_trial(doc_seed, view_seed, query_seed, 30);
    }
}

/// Join differential: the galloping flat-code join and the legacy
/// scan-merge join are byte-identical over random workloads. Both joins run
/// on the *same* `Mv` and `Hv` selections, and the snapshot's cached
/// pipeline answer must match the scan join too. The oracle sweeps the same
/// property as `join_equivalence` over full XMark-like cases in CI.
#[test]
fn galloping_and_scan_joins_agree() {
    let mut checked = 0usize;
    for seed in 0..6u64 {
        let doc = generate(&Config::tiny(seed));
        let views =
            distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(seed + 31), 30);
        let mut engine = Engine::new(doc, EngineConfig::default());
        for v in views {
            engine.add_view(v);
        }
        let snap = engine.snapshot();
        let doc = snap.doc();
        let mut gen = QueryGenerator::new(
            &doc.fst,
            QueryConfig::paper_query_workload(seed.wrapping_add(62)),
        );
        for _ in 0..8 {
            let Some(q) = gen.generate_positive(doc, 30) else {
                continue;
            };
            let shown = q.display(&doc.labels);
            for strategy in [Strategy::Mv, Strategy::Hv] {
                let answer = snap.query(&q, &QueryOptions::strategy(strategy)).answer;
                let Some(sel) = snap.lookup(&q, strategy).0 else {
                    assert_eq!(
                        answer.unwrap_err(),
                        AnswerError::NotAnswerable,
                        "{strategy} on {shown} (seed {seed})"
                    );
                    continue;
                };
                let scan =
                    xvr_core::rewrite_scan(&q, &sel, snap.views(), snap.store(), &doc.fst).unwrap();
                let gallop =
                    xvr_core::rewrite(&q, &sel, snap.views(), snap.store(), &doc.fst).unwrap();
                assert_eq!(
                    gallop, scan,
                    "{strategy} joins disagree on {shown} (seed {seed})"
                );
                assert_eq!(
                    answer.unwrap().codes,
                    scan,
                    "{strategy} pipeline disagrees with the scan join on {shown} (seed {seed})"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "differential never exercised the joins");
}

/// Aggregate sanity: across many seeds, a healthy fraction of queries is
/// actually answered from views (guards against vacuous success).
#[test]
fn answering_rate_is_nontrivial() {
    let mut answered = 0usize;
    let mut total = 0usize;
    for seed in 0..12u64 {
        let (a, t) = run_trial(seed, seed.wrapping_add(77), seed.wrapping_add(154), 40);
        answered += a;
        total += t;
    }
    assert!(total >= 50, "generator starved: {total}");
    assert!(
        answered * 10 >= total,
        "answered only {answered} of {total} strategy-queries"
    );
}
