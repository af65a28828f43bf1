//! Intersection-aware rewriting (`Strategy::HvIntersect`): deterministic
//! fixed cases for the coverage gain, the soundness boundary, budget
//! truncation, and cache byte-identity — plus a seeded differential
//! asserting the strategy equals `Bn` ground truth on every case where it
//! claims answerability, and answers at least everything `Hv` answers.

use xvr_core::{
    rewrite_scan, AnswerError, Counter, Engine, EngineConfig, QueryOptions, StageCounters, Strategy,
};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_xml::generator::{generate, Config};
use xvr_xml::parse_document;

/// The canonical coverage-gain document: only the first `b` carries both
/// an `x` and a `y`, so `/a/b[x][y]//c` selects exactly the two `c`
/// descendants under it.
const GAIN_DOC: &str = "<a>\
     <b><x/><y/><d><c>1</c></d><c>2</c></b>\
     <b><x/><d><c>3</c></d></b>\
     <b><y/><c>4</c></b>\
     <b><c>5</c></b>\
     </a>";

fn engine_with(doc: &str, views: &[&str], budget: usize) -> Engine {
    let doc = parse_document(doc).expect("fixed document parses");
    let mut engine = Engine::new(
        doc,
        EngineConfig {
            fragment_budget: budget,
            ..EngineConfig::default()
        },
    );
    for v in views {
        engine.add_view_str(v).expect("fixed view parses");
    }
    engine
}

/// Two overlapping views whose intersection answers a query neither view
/// (nor any standard multi-view cover) answers alone: the descendant edge
/// `b//c` defeats suffix pinning, and each view misses one branch.
#[test]
fn intersection_answers_where_every_standard_strategy_fails() {
    let engine = engine_with(GAIN_DOC, &["/a/b[x]//c", "/a/b[y]//c"], usize::MAX);
    let snap = engine.snapshot();
    let q = snap.parse("/a/b[x][y]//c").unwrap();
    let ground = snap
        .query(&q, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .unwrap()
        .codes;
    assert_eq!(ground.len(), 2, "the first b holds exactly two c's");
    for starved in [Strategy::Mn, Strategy::Mv, Strategy::Hv, Strategy::Cb] {
        assert_eq!(
            snap.query(&q, &QueryOptions::strategy(starved))
                .answer
                .err(),
            Some(AnswerError::NotAnswerable),
            "{starved:?} must not answer: each view misses a branch"
        );
    }
    let hvi = snap
        .query(&q, &QueryOptions::strategy(Strategy::HvIntersect))
        .answer
        .expect("the view intersection answers the query");
    assert_eq!(hvi.codes, ground);
}

/// The worked-example shape of Cautis et al. (child-only prefixes, one
/// predicate per view): whatever path answers it, the result must be
/// ground truth, and `HvIntersect` must answer it.
#[test]
fn cautis_worked_example_shape_is_answered_exactly() {
    let doc = "<a>\
         <b/><e/>\
         <d>keep</d>\
         </a>";
    let engine = engine_with(doc, &["/a[b]/d", "/a[e]/d"], usize::MAX);
    let snap = engine.snapshot();
    let q = snap.parse("/a[b][e]/d").unwrap();
    let ground = snap
        .query(&q, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .unwrap()
        .codes;
    assert_eq!(ground.len(), 1);
    let hvi = snap
        .query(&q, &QueryOptions::strategy(Strategy::HvIntersect))
        .answer
        .expect("jointly the two views cover both predicates");
    assert_eq!(hvi.codes, ground);
}

/// The classic unsound shape: `//`-anchored members whose per-document
/// witnesses may sit at *different* `a` nodes. Unioning the two solo
/// covers would wrongly answer a non-empty set here; the prefix-pinning
/// cover test must refuse the rewrite instead.
#[test]
fn ancestor_ambiguous_intersection_is_refused() {
    // No single `a` has both x and y, but the nested pair makes the inner
    // `c` a member of both view answer sets.
    let doc = "<a><x/><a><y/><c/></a></a>";
    let engine = engine_with(doc, &["//a[x]//c", "//a[y]//c"], usize::MAX);
    let snap = engine.snapshot();
    let q = snap.parse("//a[x][y]//c").unwrap();
    let ground = snap
        .query(&q, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .unwrap()
        .codes;
    assert!(ground.is_empty(), "no a node carries both branches");
    match snap
        .query(&q, &QueryOptions::strategy(Strategy::HvIntersect))
        .answer
    {
        Err(AnswerError::NotAnswerable) => {}
        Ok(a) => assert_eq!(
            a.codes, ground,
            "if the strategy answers at all it must agree with Bn"
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// A zero byte budget truncates every member view; incomplete
/// materializations must disqualify the intersection, not corrupt it.
#[test]
fn truncated_member_views_disable_the_intersection() {
    let engine = engine_with(GAIN_DOC, &["/a/b[x]//c", "/a/b[y]//c"], 0);
    let snap = engine.snapshot();
    let q = snap.parse("/a/b[x][y]//c").unwrap();
    assert_eq!(
        snap.query(&q, &QueryOptions::strategy(Strategy::HvIntersect))
            .answer
            .err(),
        Some(AnswerError::NotAnswerable),
        "empty stores leave no usable members"
    );
}

/// The cached and uncached intersection paths must be byte-identical,
/// including on repeat queries that hit every cache layer.
#[test]
fn cached_and_uncached_intersections_are_byte_identical() {
    let engine = engine_with(GAIN_DOC, &["/a/b[x]//c", "/a/b[y]//c"], usize::MAX);
    let snap = engine.snapshot();
    let q = snap.parse("/a/b[x][y]//c").unwrap();
    let uncached = snap
        .query(
            &q,
            &QueryOptions::strategy(Strategy::HvIntersect).with_cache(false),
        )
        .answer
        .unwrap()
        .codes;
    for round in 0..3 {
        let cached = snap
            .query(&q, &QueryOptions::strategy(Strategy::HvIntersect))
            .answer
            .unwrap()
            .codes;
        assert_eq!(cached, uncached, "round {round}");
    }
}

/// The planted member pair and probe of the rewrite hot-path bench: each
/// view keeps one branch of the probe, so only their intersection (or a
/// random view that happens to cover both branches) answers it.
const PLANTED_MEMBERS: [&str; 2] = [
    "/site/people/person[phone]//name",
    "/site/people/person[homepage]//name",
];
const PLANTED_PROBE: &str = "/site/people/person[phone][homepage]//name";

/// Seeded differential: on randomized documents, view sets, and positive
/// query workloads — plus the planted member pair and probe, so the
/// intersection path is really taken — every `HvIntersect` answer equals
/// `Bn` ground truth cached (cold and warm) and uncached, the legacy scan
/// join over the same selection agrees, and `HvIntersect` answers every
/// query `Hv` answers (the heuristic runs first, so its coverage is a
/// lower bound).
#[test]
fn seeded_differential_matches_ground_truth() {
    let mut checked = 0usize;
    let mut answered = 0usize;
    let mut counters = StageCounters::new();
    for seed in 0..6u64 {
        let doc = generate(&Config::tiny(seed));
        let views =
            distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(seed ^ 0x1), 14);
        let mut engine = Engine::new(doc, EngineConfig::default());
        for v in PLANTED_MEMBERS {
            engine.add_view_str(v).expect("planted member view parses");
        }
        for v in views {
            engine.add_view(v);
        }
        let snap = engine.snapshot();
        let doc = snap.doc().clone();
        let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(seed ^ 0x2));
        let mut queries = vec![snap.parse(PLANTED_PROBE).expect("planted probe parses")];
        queries.extend((0..8).filter_map(|_| gen.generate_positive(&doc, 30)));
        for q in &queries {
            checked += 1;
            let shown = q.display(snap.labels());
            let run = |options: QueryOptions| snap.query(q, &options);
            let ground = run(QueryOptions::strategy(Strategy::Bn))
                .answer
                .unwrap()
                .codes;
            let hv = run(QueryOptions::strategy(Strategy::Hv)).answer;
            let hvi = QueryOptions::strategy(Strategy::HvIntersect);
            let cold = run(hvi.with_metrics());
            counters.merge(cold.report.unwrap().counters.as_ref().unwrap());
            let warm = run(hvi).answer;
            let uncached = run(hvi.with_cache(false)).answer;
            if hv.is_ok() {
                assert!(
                    cold.answer.is_ok(),
                    "coverage regression: Hv answered but HvIntersect did not for {shown}"
                );
            }
            match cold.answer {
                Ok(a) => {
                    answered += 1;
                    assert_eq!(a.codes, ground, "HvIntersect diverged from Bn on {shown}");
                    assert_eq!(
                        warm.unwrap().codes,
                        ground,
                        "warm cache diverged on {shown}"
                    );
                    assert_eq!(
                        uncached.unwrap().codes,
                        ground,
                        "uncached diverged on {shown}"
                    );
                    let (selection, _, _) = snap.lookup(q, Strategy::HvIntersect);
                    let selection = selection.expect("an answered query has a selection");
                    let scan = rewrite_scan(q, &selection, snap.views(), snap.store(), &doc.fst);
                    assert_eq!(scan.unwrap(), ground, "scan join diverged on {shown}");
                }
                Err(AnswerError::NotAnswerable) => {
                    assert_eq!(warm.err(), Some(AnswerError::NotAnswerable), "{shown}");
                    assert_eq!(uncached.err(), Some(AnswerError::NotAnswerable), "{shown}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    assert!(checked >= 20, "workload generation went vacuous");
    assert!(answered > 0, "HvIntersect never answered — vacuous sweep");
    assert!(
        counters.get(Counter::IntersectAnswered) > 0,
        "the intersection path was never taken"
    );
}
