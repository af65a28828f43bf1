//! Document updates with incremental view maintenance: answers after
//! appends must equal a freshly built engine's, and unaffected views must
//! not be re-materialized.

use xvr_core::{Engine, EngineConfig, QueryOptions, Strategy};
use xvr_xml::samples::book_document;
use xvr_xml::{CodeStability, DeweyCode};

fn fresh_reference(engine: &Engine, views: &[&str], qsrc: &str) -> Vec<String> {
    // Rebuild an engine over the *updated* document and answer from views.
    let mut fresh = Engine::new(engine.doc().clone(), EngineConfig::default());
    for v in views {
        fresh.add_view_str(v).unwrap();
    }
    let q = fresh.parse(qsrc).unwrap();
    fresh
        .answer(&q, Strategy::Hv)
        .unwrap()
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect()
}

#[test]
fn stable_append_updates_affected_views_only() {
    let views = ["//s[t]/p", "//s[p]/f", "//f/i"];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    // Append a paragraph under section 0.8.2 (which had no figure): known
    // label pair → stable codes.
    let stats = engine
        .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Stable);
    // Views mentioning p or s are affected; //f/i is not (no p, s labels).
    assert_eq!(stats.views_rematerialized, 2, "{stats:?}");
    assert_eq!(stats.views_skipped, 1);
    // Answers equal a fresh engine over the updated document.
    for qsrc in ["//s[t]/p", "//s[f//i][t]/p"] {
        let q = engine.parse(qsrc).unwrap();
        let got: Vec<String> = engine
            .answer(&q, Strategy::Hv)
            .unwrap()
            .codes
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(got, fresh_reference(&engine, &views, qsrc), "{qsrc}");
        // And equal direct evaluation.
        let direct: Vec<String> = engine
            .answer(&q, Strategy::Bn)
            .unwrap()
            .codes
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(got, direct, "{qsrc}");
    }
}

#[test]
fn alphabet_growing_append_rematerializes_everything() {
    let views = ["//s[t]/p", "//f/i"];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    // An author under a section: new (s, a) pair → re-encode.
    let stats = engine
        .append_xml(&"0.8".parse::<DeweyCode>().unwrap(), "<a>New Author</a>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Reencoded);
    assert_eq!(stats.views_rematerialized, 2);
    assert_eq!(stats.views_skipped, 0);
    for qsrc in ["//s[t]/p", "//f/i", "//s[a]/p"] {
        let q = engine.parse(qsrc).unwrap();
        let hv = engine.answer(&q, Strategy::Hv);
        let direct = engine.answer(&q, Strategy::Bn).unwrap().codes;
        if let Ok(a) = hv {
            assert_eq!(a.codes, direct, "{qsrc}");
        }
    }
    // The section now has an author: //s[a]/p is non-empty.
    let q = engine.parse("//s[a]/p").unwrap();
    assert!(!engine.answer(&q, Strategy::Bn).unwrap().codes.is_empty());
}

#[test]
fn repeated_appends_stay_consistent() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    let root_code: DeweyCode = "0".parse().unwrap();
    for i in 0..5 {
        let xml = format!("<s><t>new {i}</t><p>body {i}</p></s>");
        engine.append_xml(&root_code, &xml).unwrap();
    }
    let q = engine.parse("//s[t]/p").unwrap();
    let direct = engine.answer(&q, Strategy::Bn).unwrap().codes;
    let via_views = engine.answer(&q, Strategy::Hv).unwrap().codes;
    assert_eq!(via_views, direct);
    assert_eq!(direct.len(), 8 + 5);
}

/// Label-table sync across `append_xml`: a snapshot taken *before* an
/// append that interns a brand-new label must keep decoding the old label
/// space unchanged, while the writer resolves the new label immediately.
/// (Regression guard: the writer mutates its label table via
/// `Arc::make_mut`, which must copy-on-write rather than mutate the table
/// the frozen snapshot shares.)
#[test]
fn append_with_new_label_leaves_snapshot_frozen() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    let frozen = engine.snapshot();
    let q_old = frozen.parse("//s[t]/p").unwrap();
    let before: Vec<String> = frozen
        .query(&q_old, &QueryOptions::strategy(Strategy::Hv))
        .answer
        .unwrap()
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect();

    // `z` is not in the book alphabet: the append interns a new label.
    let root: DeweyCode = "0".parse().unwrap();
    engine.append_xml(&root, "<z><p>appendix</p></z>").unwrap();

    // The frozen snapshot neither sees the appended subtree nor the new
    // label: its answers are byte-identical, and parsing `//z` resolves to
    // a fresh non-matching label, so it evaluates to the empty answer.
    let after: Vec<String> = frozen
        .query(&q_old, &QueryOptions::strategy(Strategy::Hv))
        .answer
        .unwrap()
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect();
    assert_eq!(after, before);
    let q_new = frozen.parse("//z/p").unwrap();
    assert!(frozen
        .query(&q_new, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .unwrap()
        .codes
        .is_empty());

    // The writer resolves the new label: direct evaluation finds the
    // appended node, and a post-append snapshot decodes it too.
    let q_new = engine.parse("//z/p").unwrap();
    assert_eq!(engine.answer(&q_new, Strategy::Bn).unwrap().codes.len(), 1);
    let thawed = engine.snapshot();
    assert_eq!(
        thawed
            .query(&q_new, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .unwrap()
            .codes
            .len(),
        1
    );
    // And the old query now also covers the appended <p> via its view
    // (the append rematerializes affected views in the writer).
    let q_old_w = engine.parse("//s[t]/p").unwrap();
    assert_eq!(
        engine.answer(&q_old_w, Strategy::Hv).unwrap().codes,
        engine.answer(&q_old_w, Strategy::Bn).unwrap().codes
    );
}

#[test]
fn update_errors() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    let bad_code: DeweyCode = "9.9.9".parse().unwrap();
    assert!(matches!(
        engine.append_xml(&bad_code, "<p/>"),
        Err(xvr_core::UpdateError::NoSuchNode(_))
    ));
    let root: DeweyCode = "0".parse().unwrap();
    assert!(matches!(
        engine.append_xml(&root, "<unclosed>"),
        Err(xvr_core::UpdateError::Parse(_))
    ));
}

/// After appends the arena no longer lists nodes in document order. Every
/// view the appends re-materialize must still equal a fresh engine's
/// materialization of the same document, and its fragment roots must be
/// the dense reference evaluator's bindings.
#[test]
fn rematerialized_views_equal_a_fresh_engine() {
    let views = [
        "//s[t]/p",
        "//s[p]/f",
        "//f/i",
        "//s//*",
        "/b/s",
        "//*[i]",
        "//s[f//i][t]/p",
    ];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    for (code, xml) in [
        ("0.8.2", "<p>inserted</p>"),
        ("0.8", "<s><t>new</t><p>q</p><f><i/></f></s>"),
        ("0", "<s><t>tail</t><s><p>deep</p></s></s>"),
    ] {
        let stats = engine
            .append_xml(&code.parse::<DeweyCode>().unwrap(), xml)
            .unwrap();
        assert!(stats.views_rematerialized > 0, "{code}: {stats:?}");
    }
    let doc = engine.doc();
    let order: Vec<_> = doc.tree.iter().collect();
    assert!(
        order.windows(2).any(|w| w[0] > w[1]),
        "appends should leave arena order unlike document order"
    );
    let mut fresh = Engine::new(doc.clone(), EngineConfig::default());
    for v in views {
        fresh.add_view_str(v).unwrap();
    }
    let fragments = |e: &Engine, id| {
        let mv = e.store().get(id).unwrap();
        let codes: Vec<String> = mv.fragments.codes().map(|c| c.to_string()).collect();
        let trees: Vec<String> = mv
            .fragments
            .trees()
            .iter()
            .map(|t| xvr_xml::serialize(t, e.labels()))
            .collect();
        (codes, trees, mv.complete())
    };
    for id in engine.views().ids() {
        let pattern = &engine.views().view(id).pattern;
        let shown = pattern.display(engine.labels()).to_string();
        let got = fragments(&engine, id);
        assert_eq!(got, fragments(&fresh, id), "{shown}");
        let dense: Vec<String> = xvr_pattern::eval_restricted(pattern, &doc.tree, &|_, _| true)
            .into_iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n).to_string())
            .collect();
        assert!(!dense.is_empty(), "{shown}");
        assert_eq!(got.0, dense, "{shown}");
    }
}

/// A view's fragments are whole subtrees, so an append inside one changes
/// the view's materialization even when its pattern names none of the
/// appended labels. Each case appends `<p>new</p>` under section 0.8.2,
/// inside fragments of a view that mentions only `b` and `s`; the query
/// then reaches the new paragraph through that view. Every strategy must
/// agree with `Bn` and with a fresh engine over the updated document.
#[test]
fn append_inside_a_fragment_rematerializes_the_view() {
    for (view, qsrc) in [("/b/s", "/b/s//p"), ("//s", "//s/p"), ("/b/s", "/b/s/s/p")] {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str(view).unwrap();
        let stats = engine
            .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
            .unwrap();
        assert_eq!(stats.stability, CodeStability::Stable);
        assert_eq!(
            (stats.views_rematerialized, stats.views_skipped),
            (1, 0),
            "{view}"
        );
        let mut fresh = Engine::new(engine.doc().clone(), EngineConfig::default());
        fresh.add_view_str(view).unwrap();
        let q = engine.parse(qsrc).unwrap();
        let direct = engine.answer(&q, Strategy::Bn).unwrap().codes;
        assert!(
            direct.contains(&"0.8.2.5".parse().unwrap()),
            "{qsrc}: the appended paragraph is an answer"
        );
        let fq = fresh.parse(qsrc).unwrap();
        for strategy in Strategy::all_extended() {
            let got = engine.answer(&q, strategy).map(|a| a.codes);
            assert_eq!(
                got,
                fresh.answer(&fq, strategy).map(|a| a.codes),
                "{view} / {qsrc} under {strategy}: fresh engine"
            );
            if strategy == Strategy::Hv {
                assert!(got.is_ok(), "{view} answers {qsrc}");
            }
            if let Ok(codes) = got {
                assert_eq!(codes, direct, "{view} / {qsrc} under {strategy}: Bn");
            }
        }
    }
}
