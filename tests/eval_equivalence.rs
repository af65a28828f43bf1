//! The sparse whole-document evaluator against the dense reference:
//! `eval` (candidates from a pre-order walk) and `eval_bn` (candidates
//! from the label index) must return exactly the bindings of
//! `eval_restricted` with an always-true predicate, in the same order.

use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_pattern::{distinct_positive_patterns, eval, eval_bn, eval_restricted, TreePattern};
use xvr_xml::generator::{generate, Config};
use xvr_xml::samples::book_document;
use xvr_xml::{Document, NodeIndex};

/// Every pattern agrees three ways; returns the total number of bindings.
fn check_all(doc: &Document, patterns: &[TreePattern]) -> usize {
    let index = NodeIndex::build(&doc.tree, &doc.labels);
    let mut total = 0;
    for p in patterns {
        let dense = eval_restricted(p, &doc.tree, &|_, _| true);
        let shown = p.display(&doc.labels);
        assert_eq!(eval(p, &doc.tree), dense, "eval {shown}");
        assert_eq!(eval_bn(p, &doc.tree, &index), dense, "eval_bn {shown}");
        total += dense.len();
    }
    total
}

/// Views from the paper's view workload plus queries from the paper's
/// query workload and the adversarial one (deeper, more wildcards; not
/// filtered for positivity, so empty answers are covered too).
fn workload(doc: &Document, seed: u64, n: usize) -> Vec<TreePattern> {
    let mut patterns = distinct_positive_patterns(doc, QueryConfig::paper_view_workload(seed), n);
    for config in [
        QueryConfig::paper_query_workload(seed ^ 0x51),
        QueryConfig::adversarial_workload(seed ^ 0xad),
    ] {
        let mut gen = QueryGenerator::new(&doc.fst, config);
        patterns.extend((0..n).map(|_| gen.generate()));
    }
    patterns
}

#[test]
fn sparse_eval_matches_dense_on_xmark() {
    let doc = generate(&Config::scale(0.01));
    let patterns = workload(&doc, 7, 100);
    assert!(check_all(&doc, &patterns) > 0);
}

#[test]
fn sparse_eval_matches_dense_on_small_xmark_seeds() {
    for seed in 0..6 {
        let doc = generate(&Config::tiny(seed));
        let patterns = workload(&doc, seed, 60);
        assert!(check_all(&doc, &patterns) > 0, "seed {seed}");
    }
}

#[test]
fn sparse_eval_matches_dense_on_book_document() {
    let doc = book_document();
    let patterns = workload(&doc, 3, 40);
    assert!(check_all(&doc, &patterns) > 0);
}
