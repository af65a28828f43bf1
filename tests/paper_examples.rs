//! Every numbered example of the paper, end-to-end.

use xvr_core::{Engine, EngineConfig, Strategy, ViewId};
use xvr_pattern::{
    decompose, normalize, parse_pattern_with, path_contains, PathPattern, TreePattern,
};
use xvr_xml::samples::book_document;
use xvr_xml::LabelTable;

/// Example 2.1: the extended Dewey code `0.8.6` decodes to `b/s/s`, and
/// `t4 (0.8.6.0)` / `p3 (0.8.6.1)` share two `s`-labelled ancestors.
#[test]
fn example_2_1() {
    let doc = book_document();
    let names: Vec<&str> = doc
        .fst
        .decode(&[0, 8, 6])
        .unwrap()
        .into_iter()
        .map(|l| doc.labels.name(l))
        .collect();
    assert_eq!(names, ["b", "s", "s"]);
    let t4 = xvr_xml::DeweyCode(vec![0, 8, 6, 0]);
    let p3 = xvr_xml::DeweyCode(vec![0, 8, 6, 1]);
    let lca = t4.lca(&p3);
    assert_eq!(lca.components(), &[0, 8, 6]);
    let s = doc.labels.get("s").unwrap();
    let lca_path = doc.fst.decode(lca.components()).unwrap();
    assert_eq!(lca_path.iter().filter(|&&l| l == s).count(), 2);
}

/// Section II: the embedding `b[a]/t` into Figure 2.
#[test]
fn section_2_embedding() {
    let doc = book_document();
    let mut labels = doc.labels.clone();
    let p = parse_pattern_with("/b[a]/t", &mut labels).unwrap();
    let result = xvr_pattern::eval(&p, &doc.tree);
    assert_eq!(result.len(), 1, "the book has exactly one title child");
}

/// Section I example: //b/c answers //b/c/d but not //b//d//c or //a//b//c.
#[test]
fn section_1_rewriting_limits() {
    let mut labels = LabelTable::new();
    let path = |src: &str, labels: &mut LabelTable| -> PathPattern {
        let t = parse_pattern_with(src, labels).unwrap();
        PathPattern::try_from(&t).unwrap()
    };
    let view = path("//b/c", &mut labels);
    assert!(path_contains(&view, &path("//b/c/d", &mut labels)));
    assert!(!path_contains(&view, &path("//b//d//c", &mut labels)));
    assert!(!path_contains(&view, &path("//a//b//c", &mut labels)));
}

/// Examples 3.2 and 3.3: `s/*//t` is a false negative without
/// normalization; `N(s/*//t) = s//*/t` fixes it.
#[test]
fn examples_3_2_and_3_3() {
    let mut labels = LabelTable::new();
    let t = parse_pattern_with("/s/*//t", &mut labels).unwrap();
    let p = PathPattern::try_from(&t).unwrap();
    let n = normalize(&p);
    // The paper's normal form is s//*/t; ours is the equivalent
    // all-descendant spelling (see xvr-pattern::normalize docs).
    assert_eq!(n.display(&labels).to_string(), "/s//*//t");
    // Proposition 3.2: equivalent paths share a normal form.
    let t2 = parse_pattern_with("/s//*/t", &mut labels).unwrap();
    let p2 = PathPattern::try_from(&t2).unwrap();
    assert_eq!(n, normalize(&p2));
}

/// Example 3.4 + Example 4.3: filtering and heuristic selection for
/// `Q_e = s[f//i][t]/p` over Table I's views.
#[test]
fn examples_3_4_and_4_3() {
    // Table I (reconstructed): V1 = s[t]/p, V2 = s[.//*/t][f//i]//f,
    // V3 = s/p/*, V4 = s[p]/f (its Example 5.1 form). Example 3.4 keeps
    // {V1, V4} as candidates (V3 filtered) and Example 4.3 selects
    // {V1, V4} for rewriting.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    let v1 = engine.add_view_str("//s[t]/p").unwrap();
    let _v2 = engine.add_view_str("//s[.//*/t][f//i]//f").unwrap();
    let _v3 = engine.add_view_str("//s/p/*").unwrap();
    let v4 = engine.add_view_str("//s[p]/f").unwrap();
    let q = engine.parse("//s[f//i][t]/p").unwrap();

    let filtered = engine.snapshot().filter(&q);
    assert!(filtered.candidates.contains(&v1));
    assert!(
        !filtered.candidates.contains(&ViewId(2)),
        "V3 must be filtered"
    );

    let answer = engine.answer(&q, Strategy::Hv).unwrap();
    assert_eq!(answer.views_used, vec![v1, v4]);
}

/// Example 5.1: rewriting `s[f//i][t]/p` with V1 = s[t]/p and V2 = s[p]/f
/// over Figure 2 yields `{p3, p4, p5, p6, p7}` without touching the base
/// document.
#[test]
fn example_5_1() {
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    engine.add_view_str("//s[p]/f").unwrap();
    let q = engine.parse("//s[f//i][t]/p").unwrap();
    let a = engine.answer(&q, Strategy::Hv).unwrap();
    let codes: Vec<String> = a.codes.iter().map(|c| c.to_string()).collect();
    // p3 = 0.8.6.1, p4 = 0.8.6.5; p5/p6/p7 live in section 2's subtree.
    assert_eq!(codes.len(), 5);
    assert!(codes.contains(&"0.8.6.1".to_string()));
    assert!(codes.contains(&"0.8.6.5".to_string()));
    // p1 (0.8.1) and p2 (0.8.2.1) are filtered by the join.
    assert!(!codes.contains(&"0.8.1".to_string()));
    assert!(!codes.contains(&"0.8.2.1".to_string()));
    // Same answer as every baseline.
    let reference = engine.answer(&q, Strategy::Bn).unwrap();
    assert_eq!(a.codes, reference.codes);
}

/// Section III-A: the decomposition example D(Q_e) for Q_e = b[*//f//*]//*.
#[test]
fn section_3_decomposition() {
    let mut labels = LabelTable::new();
    let q: TreePattern = parse_pattern_with("/b[*//f//*]//*", &mut labels).unwrap();
    let d = decompose(&q);
    assert_eq!(d.len(), 2);
    let shown: Vec<String> = d
        .paths
        .iter()
        .map(|p| p.display(&labels).to_string())
        .collect();
    assert!(shown.contains(&"/b/*//f//*".to_string()), "{shown:?}");
    assert!(shown.contains(&"/b//*".to_string()), "{shown:?}");
}

/// The paper's intro example: `a[./b/d]/c ⊑ a[./b]/c`, and the containment
/// is witnessed by a homomorphism.
#[test]
fn intro_containment() {
    let mut labels = LabelTable::new();
    let view = parse_pattern_with("/a[b]/c", &mut labels).unwrap();
    let query = parse_pattern_with("/a[b/d]/c", &mut labels).unwrap();
    assert!(xvr_pattern::contains(&view, &query));
    assert!(xvr_pattern::contains_complete(&view, &query, &labels));
    assert!(!xvr_pattern::contains(&query, &view));
}
