//! Cross-thread determinism of the read path: one `EngineSnapshot` shared
//! by many threads must produce byte-identical answers to sequential
//! execution, for every strategy, on the XMark workload.

use xvr_bench::{build_paper_engine, paper_document, xmark_queries};
use xvr_core::{AnswerError, Engine, EngineConfig, EngineSnapshot, QueryOptions, Strategy};
use xvr_pattern::TreePattern;
use xvr_xml::samples::book_document;
use xvr_xml::{CodeStability, DeweyCode};

/// Hand-rolled compile-time proof that the snapshot crosses threads: if
/// `EngineSnapshot` ever loses `Send + Sync`, this file stops compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<&EngineSnapshot>();
};

fn xmark_snapshot() -> (EngineSnapshot, Vec<TreePattern>) {
    let doc = paper_document(0.002, 7);
    let workload = build_paper_engine(doc, 60, 11, usize::MAX);
    let mut engine = workload.engine;
    // Answer the XMark approximations plus Table III's Q1–Q4; every XMark
    // query is also registered as a view so the view strategies can cover
    // queries the planted views alone cannot.
    let mut queries: Vec<TreePattern> = Vec::new();
    for (_, src) in xmark_queries() {
        let q = engine.parse(src).unwrap();
        engine.add_view(q.clone());
        queries.push(q);
    }
    queries.extend(workload.queries.into_iter().map(|(_, q)| q));
    (engine.snapshot(), queries)
}

fn codes_of(outcomes: &[Result<xvr_core::Answer, AnswerError>]) -> Vec<Option<Vec<String>>> {
    outcomes
        .iter()
        .map(|o| {
            o.as_ref()
                .ok()
                .map(|a| a.codes.iter().map(|c| c.to_string()).collect())
        })
        .collect()
}

/// `query_batch` with `jobs >= 2` returns exactly what sequential
/// execution returns, in the same order, for all six strategies.
#[test]
fn batch_answers_are_deterministic_across_jobs() {
    let (snap, queries) = xmark_snapshot();
    for strategy in Strategy::all_extended() {
        let sequential = snap.query_batch(&queries, &QueryOptions::strategy(strategy), 1);
        assert_eq!(sequential.jobs, 1);
        for jobs in [2, 4, 7] {
            let parallel = snap.query_batch(&queries, &QueryOptions::strategy(strategy), jobs);
            assert_eq!(parallel.jobs, jobs.min(queries.len()));
            assert_eq!(
                codes_of(&parallel.answers),
                codes_of(&sequential.answers),
                "{strategy} with jobs={jobs}"
            );
        }
    }
}

/// N independent threads hammering one shared snapshot (not through
/// `query_batch` — each thread runs the whole query set itself) all see
/// the sequential answers.
#[test]
fn threads_sharing_one_snapshot_agree() {
    let (snap, queries) = xmark_snapshot();
    for strategy in [Strategy::Bn, Strategy::Hv, Strategy::Cb] {
        let expected: Vec<_> = queries
            .iter()
            .map(|q| {
                snap.query(q, &QueryOptions::strategy(strategy))
                    .answer
                    .map(|a| a.codes)
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    for (q, want) in queries.iter().zip(&expected) {
                        let got = snap
                            .query(q, &QueryOptions::strategy(strategy))
                            .answer
                            .map(|a| a.codes);
                        match (&got, want) {
                            (Ok(g), Ok(w)) => assert_eq!(g, w, "{strategy}"),
                            (Err(g), Err(w)) => assert_eq!(g, w, "{strategy}"),
                            _ => panic!("{strategy}: outcome diverged across threads"),
                        }
                    }
                });
            }
        });
    }
}

/// Snapshot clones are as shareable as the original and observe the same
/// frozen state even while the engine keeps mutating on the main thread.
#[test]
fn clones_stay_frozen_while_engine_moves_on() {
    let doc = paper_document(0.002, 7);
    let workload = build_paper_engine(doc, 20, 11, usize::MAX);
    let mut engine = workload.engine;
    let q = engine
        .parse("/site/people/person[address/city][profile/age]/name")
        .unwrap();
    let snap = engine.snapshot();
    let clone = snap.clone();
    let want = snap
        .query(&q, &QueryOptions::strategy(Strategy::Hv))
        .answer
        .unwrap()
        .codes;

    let handle = std::thread::spawn(move || {
        clone
            .query(&q, &QueryOptions::strategy(Strategy::Hv))
            .answer
            .unwrap()
            .codes
    });
    // Meanwhile the writer keeps going; the spawned reader must not care.
    engine.add_view_str("//person[profile]/name").unwrap();
    assert_eq!(handle.join().unwrap(), want);
}

fn book_snapshot(views: &[&str], queries: &[&str]) -> (EngineSnapshot, Vec<TreePattern>) {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    let queries = queries
        .iter()
        .map(|src| engine.parse(src).unwrap())
        .collect();
    (engine.snapshot(), queries)
}

/// Degenerate `jobs` values: an empty query slice spawns nothing, `jobs = 0`
/// runs inline like `jobs = 1`, and `jobs` far beyond the query count is
/// clamped to it — all with identical answers.
#[test]
fn batch_jobs_edge_values_are_clamped() {
    let (snap, queries) = book_snapshot(&["//s[t]/p"], &["//s[t]/p", "/b//p", "//s/t"]);

    let empty = snap.query_batch(&[], &QueryOptions::strategy(Strategy::Hv), 8);
    assert!(empty.answers.is_empty());
    assert_eq!(empty.jobs, 1);
    assert_eq!(empty.answered(), 0);

    let zero = snap.query_batch(&queries, &QueryOptions::strategy(Strategy::Hv), 0);
    assert_eq!(zero.jobs, 1);

    let oversubscribed = snap.query_batch(
        &queries,
        &QueryOptions::strategy(Strategy::Hv),
        queries.len() + 61,
    );
    assert_eq!(oversubscribed.jobs, queries.len());
    assert_eq!(codes_of(&oversubscribed.answers), codes_of(&zero.answers));
}

/// A query erroring mid-batch must not disturb its neighbours: outcomes stay
/// in input order with errors in exactly the slots of the failing queries,
/// at every `jobs` level.
#[test]
fn batch_keeps_input_order_when_queries_error() {
    // The only view answers `p` nodes, so the `//f/i` queries are not
    // answerable by rewriting and fail under every view strategy.
    let (snap, queries) = book_snapshot(
        &["//s[t]/p"],
        &["//s[t]/p", "//f/i", "/b/s[t]/p", "//s//p", "/b//s[t]/p"],
    );
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            snap.query(q, &QueryOptions::strategy(Strategy::Hv))
                .answer
                .map(|a| a.codes)
        })
        .collect();
    assert!(expected[0].is_ok() && expected[2].is_ok() && expected[4].is_ok());
    assert_eq!(expected[1], Err(AnswerError::NotAnswerable));
    assert_eq!(expected[3], Err(AnswerError::NotAnswerable));

    for jobs in [1, 2, 3, 5] {
        let batch = snap.query_batch(&queries, &QueryOptions::strategy(Strategy::Hv), jobs);
        assert_eq!(batch.answers.len(), queries.len());
        assert_eq!(batch.answered(), 3, "jobs={jobs}");
        for (i, (got, want)) in batch.answers.iter().zip(&expected).enumerate() {
            match (got, want) {
                (Ok(a), Ok(w)) => assert_eq!(&a.codes, w, "slot {i}, jobs={jobs}"),
                (Err(e), Err(w)) => assert_eq!(e, w, "slot {i}, jobs={jobs}"),
                _ => panic!("slot {i}, jobs={jobs}: outcome moved out of input order"),
            }
        }
    }
}

/// Every strategy's answer (or error) to every query, rendered.
fn rendered_answers(snap: &EngineSnapshot, queries: &[&str], use_cache: bool) -> Vec<String> {
    let mut out = Vec::new();
    for strategy in Strategy::all_extended() {
        for src in queries {
            let q = snap.parse(src).unwrap();
            let options = QueryOptions::strategy(strategy).with_cache(use_cache);
            let answer = match snap.query(&q, &options).answer {
                Ok(a) => a
                    .codes
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
                Err(e) => e.to_string(),
            };
            out.push(format!("{strategy} {src}: {answer}"));
        }
    }
    out
}

/// A write copies only what it changes. After several view registrations
/// and one document append, a snapshot taken before them answers exactly
/// as it did, under every strategy, cached and uncached. It still shares
/// every view definition and every materialization with the newest
/// snapshot, except the materializations the append redid.
#[test]
fn old_snapshot_survives_writes_and_shares_untouched_views() {
    let queries = [
        "//s[f//i][t]/p",
        "//s[t]/p",
        "/b/s//p",
        "//s[p]/f",
        "//f/i",
        "//s[.//i]",
        "//nosuchlabel",
    ];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in ["//s[t]/p", "//s[p]/f", "//f/i", "//s//p", "//s[.//i]"] {
        engine.add_view_str(v).unwrap();
    }
    let old = engine.snapshot();
    let before = rendered_answers(&old, &queries, true);
    assert_eq!(rendered_answers(&old, &queries, false), before);

    for v in ["//s/t", "//p", "/b/s[f]", "//i", "//*[i]"] {
        engine.add_view_str(v).unwrap();
    }
    let added = engine.snapshot();
    // Section 0.8.2 has paragraphs already, so the append keeps every code.
    let stats = engine
        .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Stable);
    let new = engine.snapshot();

    assert_eq!(rendered_answers(&old, &queries, true), before);
    assert_eq!(rendered_answers(&old, &queries, false), before);

    // The append redoes exactly the views that mention `p` or a wildcard,
    // and those with a fragment containing the insertion point.
    let p = new.labels().get("p").unwrap();
    let at = "0.8.2".parse::<DeweyCode>().unwrap();
    let redone = |snap: &EngineSnapshot, id| {
        let pattern = &snap.views().view(id).pattern;
        pattern
            .ids()
            .any(|n| pattern.label(n).label().is_none_or(|l| l == p))
            || snap.store().get(id).unwrap().fragments.contains_node(&at)
    };
    for (snap, what) in [(&old, "old"), (&added, "pre-append")] {
        let mut unshared = 0;
        for view in snap.views().iter() {
            let id = view.id;
            assert!(
                std::ptr::eq(view, new.views().view(id)),
                "{what} snapshot: view {id:?} definition was copied"
            );
            let shared = std::ptr::eq(snap.store().get(id).unwrap(), new.store().get(id).unwrap());
            assert_eq!(
                shared,
                !redone(snap, id),
                "{what} snapshot: view {id:?} shared={shared}"
            );
            unshared += usize::from(!shared);
        }
        if what == "pre-append" {
            assert_eq!(unshared, stats.views_rematerialized);
            assert_eq!(snap.views().len() - unshared, stats.views_skipped);
        }
    }
    assert!(
        stats.views_rematerialized > 0 && stats.views_skipped > 0,
        "{stats:?}"
    );
}

const RACE_VIEWS: [&str; 6] = ["//s[t]/p", "//s[p]/f", "//f/i", "//s//p", "/b/s", "//*[i]"];
const RACE_QUERIES: [&str; 7] = [
    "//s[f//i][t]/p",
    "//s//p",
    "/b/s//p",
    "//s[p]/f",
    "/b/s[p]",
    "//f/i",
    "//s[.//i]",
];

/// An engine over the book document with [`RACE_VIEWS`], and the append
/// the race tests run: a paragraph under section 0.8.2, which keeps every
/// code and re-materializes the views naming `p` or a wildcard.
fn race_engine() -> Engine {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in RACE_VIEWS {
        engine.add_view_str(v).unwrap();
    }
    engine
}

fn race_append(engine: &mut Engine) {
    let stats = engine
        .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Stable);
    assert!(stats.views_rematerialized > 0 && stats.views_skipped > 0);
}

/// What a fresh engine over `engine`'s document, with the same views,
/// answers to [`RACE_QUERIES`] (uncached).
fn fresh_answers(engine: &Engine) -> Vec<String> {
    let mut fresh = Engine::new(engine.doc().clone(), EngineConfig::default());
    for v in RACE_VIEWS {
        fresh.add_view_str(v).unwrap();
    }
    rendered_answers(&fresh.snapshot(), &RACE_QUERIES, false)
}

/// The rewrite cache is shared by every snapshot of an engine and kept
/// across writes. A snapshot pinned before an append still answers from
/// its old fragments and inserts entries computed from them *after* the
/// append evicted the stale ones; the snapshot taken after the append
/// must never read those entries.
#[test]
fn pinned_snapshot_cannot_leak_stale_cache_entries_across_an_append() {
    let mut engine = race_engine();
    let s0 = engine.snapshot();
    race_append(&mut engine);
    let s1 = engine.snapshot();
    let want = fresh_answers(&engine);

    // The old snapshot answers first, cached: entries of the old
    // generations land in the shared cache.
    let old = rendered_answers(&s0, &RACE_QUERIES, true);
    assert_ne!(old, want, "the append must change some answer");
    assert!(!s1.rewrite_cache().is_empty());

    // The new snapshot, cold for its new generations and then warm, and
    // uncached, answers exactly as a fresh engine does.
    for pass in 0..2 {
        assert_eq!(
            rendered_answers(&s1, &RACE_QUERIES, true),
            want,
            "cached pass {pass}"
        );
    }
    assert_eq!(rendered_answers(&s1, &RACE_QUERIES, false), want);
    // And the old snapshot still answers from its own fragments.
    assert_eq!(rendered_answers(&s0, &RACE_QUERIES, true), old);
}

/// [`pinned_snapshot_cannot_leak_stale_cache_entries_across_an_append`]
/// with the old snapshot's readers running on other threads while the
/// append and the swap happen, and while the new snapshot answers.
#[test]
fn readers_of_an_old_snapshot_race_an_append_without_leaking() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let mut engine = race_engine();
    let s0 = engine.snapshot();
    let old = rendered_answers(&s0, &RACE_QUERIES, false);
    let stop = AtomicBool::new(false);
    let diverged = AtomicBool::new(false);
    let rounds = AtomicUsize::new(0);
    // Nothing in the scope asserts: a failing check must still stop the
    // readers, or the scope would wait for them forever.
    let (want, passes) = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if rendered_answers(&s0, &RACE_QUERIES, true) != old {
                        diverged.store(true, Ordering::Relaxed);
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while rounds.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        race_append(&mut engine);
        let s1 = engine.snapshot();
        let want = fresh_answers(&engine);
        let seen = rounds.load(Ordering::Relaxed);
        // Answer until the readers have finished at least two more
        // rounds against the shared cache.
        let mut passes = Vec::new();
        while passes.len() < 3 || rounds.load(Ordering::Relaxed) < seen + 2 {
            passes.push(rendered_answers(&s1, &RACE_QUERIES, true));
            if passes.len() >= 1000 {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        passes.push(rendered_answers(&s1, &RACE_QUERIES, false));
        (want, passes)
    });
    assert_ne!(old, want, "the append must change some answer");
    for (i, got) in passes.iter().enumerate() {
        assert_eq!(got, &want, "pass {i} (the last one uncached)");
    }
    assert!(
        !diverged.load(Ordering::Relaxed),
        "the old snapshot's answers changed"
    );
}
