//! Holistic structural joins over extended Dewey codes, and the `BF`
//! (path-index) evaluation engine built on them.
//!
//! This is the TJFast-flavoured machinery of Section V: because extended
//! Dewey codes are prefix-closed and lexicographically document-ordered,
//! every structural relationship (`child`, `descendant`, common ancestor)
//! between two nodes is decidable from their codes alone. [`twig_join`]
//! joins per-pattern-node candidate code lists into answer bindings in one
//! bottom-up plus one top-down pass; [`eval_bf`] feeds it candidate lists
//! obtained from the path index (the paper's "full index" baseline).

use std::collections::{HashMap, HashSet};

use xvr_xml::{DeweyCode, Document, NodeId, PathIndex};

use crate::paths::PathPattern;
use crate::paths::Step;
use crate::pattern::{Axis, TreePattern};

/// Binary-search the sub-slice of `codes` (sorted) having `prefix` as a
/// proper-or-equal prefix.
fn prefix_range<'a>(codes: &'a [DeweyCode], prefix: &DeweyCode) -> &'a [DeweyCode] {
    let lo = codes.partition_point(|c| c < prefix);
    let hi = codes.partition_point(|c| {
        // c < upper bound: still shares the prefix or sorts before its
        // successor.
        let n = prefix.len();
        if c.components().len() <= n {
            c.components() <= prefix.components()
        } else {
            c.components()[..n] <= prefix.components()[..n]
        }
    });
    &codes[lo..hi.max(lo)]
}

/// Does `codes` (sorted) contain a child of `parent`?
fn has_child_in(codes: &[DeweyCode], parent: &DeweyCode) -> bool {
    prefix_range(codes, parent)
        .iter()
        .any(|c| c.len() == parent.len() + 1)
}

/// Does `codes` (sorted) contain a proper descendant of `anc`?
fn has_descendant_in(codes: &[DeweyCode], anc: &DeweyCode) -> bool {
    prefix_range(codes, anc).iter().any(|c| c.len() > anc.len())
}

/// Join candidate code lists (one **sorted** list per pattern node, indexed
/// by [`PNodeId`](crate::PNodeId)) into the set of answer-node binding
/// codes.
///
/// The label constraints are assumed already enforced on the candidate
/// lists; this join enforces the positional constraints: `/`-edges bind
/// parent/child codes, `//`-edges bind proper ancestor/descendant codes, a
/// `/`-anchored root binds the document element (code length 1).
pub fn twig_join(pattern: &TreePattern, lists: &[Vec<DeweyCode>]) -> Vec<DeweyCode> {
    assert_eq!(lists.len(), pattern.len());
    // Bottom-up: filter each node's list to codes whose subtree constraints
    // are satisfiable.
    let mut filtered: Vec<Vec<DeweyCode>> = vec![Vec::new(); pattern.len()];
    for &pn in &pattern.postorder() {
        let mut keep: Vec<DeweyCode> = Vec::new();
        'outer: for code in &lists[pn.index()] {
            for &pc in pattern.children(pn) {
                let ok = match pattern.axis(pc) {
                    Axis::Child => has_child_in(&filtered[pc.index()], code),
                    Axis::Descendant => has_descendant_in(&filtered[pc.index()], code),
                };
                if !ok {
                    continue 'outer;
                }
            }
            keep.push(code.clone());
        }
        filtered[pn.index()] = keep;
    }
    // Top-down along the trunk.
    let trunk = pattern.trunk();
    let mut allowed: HashSet<&[u32]> = filtered[trunk[0].index()]
        .iter()
        .filter(|c| pattern.axis(pattern.root()) == Axis::Descendant || c.len() == 1)
        .map(|c| c.components())
        .collect();
    for win in trunk.windows(2) {
        let next = win[1];
        let mut next_allowed: HashSet<&[u32]> = HashSet::new();
        for code in &filtered[next.index()] {
            let comps = code.components();
            let ok = match pattern.axis(next) {
                Axis::Child => comps.len() >= 2 && allowed.contains(&comps[..comps.len() - 1]),
                Axis::Descendant => (1..comps.len()).any(|k| allowed.contains(&comps[..k])),
            };
            if ok {
                next_allowed.insert(comps);
            }
        }
        allowed = next_allowed;
    }
    let mut out: Vec<DeweyCode> = allowed.into_iter().map(|c| DeweyCode(c.to_vec())).collect();
    out.sort();
    out
}

/// Evaluate `pattern` over `doc` using the path index — the paper's `BF`
/// ("full index") baseline.
///
/// For every pattern node, the candidate set is the union of all nodes whose
/// *root label-path* matches the pattern's root path to that node; the
/// candidates are then joined positionally with [`twig_join`].
pub fn eval_bf(pattern: &TreePattern, doc: &Document, pidx: &PathIndex) -> Vec<NodeId> {
    let mut lists: Vec<Vec<DeweyCode>> = vec![Vec::new(); pattern.len()];
    let mut answer_nodes: HashMap<DeweyCode, NodeId> = HashMap::new();
    for pn in pattern.ids() {
        let steps: Vec<Step> = pattern
            .root_path(pn)
            .into_iter()
            .map(|n| Step {
                axis: pattern.axis(n),
                label: pattern.label(n),
            })
            .collect();
        let pp = PathPattern::new(steps);
        let mut codes = Vec::new();
        // Match the path pattern against each distinct label-path once, then
        // pull all nodes of the matching paths.
        for pid in matching_paths(&pp, pidx) {
            for &node in pidx.nodes_of(pid) {
                // Attribute predicates are not indexed; check directly.
                let ok = pattern.node(pn).attrs.iter().all(|pred| match &pred.value {
                    None => doc.tree.attr(node, pred.name).is_some(),
                    Some(v) => doc.tree.attr(node, pred.name) == Some(v.as_str()),
                });
                if !ok {
                    continue;
                }
                let code = doc.dewey.code_of(&doc.tree, node);
                if pn == pattern.answer() {
                    answer_nodes.insert(code.clone(), node);
                }
                codes.push(code);
            }
        }
        codes.sort();
        lists[pn.index()] = codes;
    }
    // `twig_join` returns codes sorted lexicographically, i.e. in document
    // order — which is what evaluation promises (arena ids are insertion
    // order and may differ).
    twig_join(pattern, &lists)
        .into_iter()
        .map(|c| answer_nodes[&c])
        .collect()
}

/// Path ids whose label sequence matches `pp`.
fn matching_paths(pp: &PathPattern, pidx: &PathIndex) -> Vec<xvr_xml::index::PathId> {
    let tail = pp.last_label();
    let candidates: Vec<xvr_xml::index::PathId> = match tail {
        crate::pattern::PLabel::Lab(l) => pidx.paths_ending_with(l).to_vec(),
        crate::pattern::PLabel::Wild => pidx.path_ids().collect(),
    };
    candidates
        .into_iter()
        .filter(|&pid| pp.matches_labels(&pidx.path(pid)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse_pattern_with;
    use xvr_xml::generator::{generate, Config};
    use xvr_xml::samples::book_document;

    #[test]
    fn prefix_range_behaviour() {
        let codes: Vec<DeweyCode> = vec![
            DeweyCode(vec![0]),
            DeweyCode(vec![0, 1]),
            DeweyCode(vec![0, 1, 2]),
            DeweyCode(vec![0, 2]),
            DeweyCode(vec![1]),
        ];
        let r = prefix_range(&codes, &DeweyCode(vec![0, 1]));
        assert_eq!(r.len(), 2);
        assert!(has_child_in(&codes, &DeweyCode(vec![0, 1])));
        assert!(has_descendant_in(&codes, &DeweyCode(vec![0])));
        assert!(!has_child_in(&codes, &DeweyCode(vec![1])));
        assert!(!has_descendant_in(&codes, &DeweyCode(vec![1])));
    }

    #[test]
    fn bf_matches_naive_on_book() {
        let doc = book_document();
        let pidx = PathIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        for src in [
            "//s[t]/p",
            "//s[f//i][t]/p",
            "/b//f",
            "//s/s",
            "/b[a]/t",
            "//*[i]",
            "//s[.//i]",
            "/b/*",
            "//s[p]/f",
        ] {
            let p = parse_pattern_with(src, &mut labels).unwrap();
            assert_eq!(eval(&p, &doc.tree), eval_bf(&p, &doc, &pidx), "{src}");
        }
    }

    #[test]
    fn bf_matches_naive_on_generated() {
        let doc = generate(&Config::tiny(42));
        let pidx = PathIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        for src in [
            "//person[address]/name",
            "//open_auction[bidder]//increase",
            "//item[.//parlist]//text",
            "//annotation//listitem/text",
            "/site/people/person[profile/interest]",
            "//person[@id]",
        ] {
            let p = parse_pattern_with(src, &mut labels).unwrap();
            assert_eq!(eval(&p, &doc.tree), eval_bf(&p, &doc, &pidx), "{src}");
        }
    }

    #[test]
    fn twig_join_child_vs_descendant() {
        let doc = book_document();
        let pidx = PathIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        let child = parse_pattern_with("//s/p", &mut labels).unwrap();
        let desc = parse_pattern_with("//s//p", &mut labels).unwrap();
        assert_eq!(eval_bf(&child, &doc, &pidx).len(), 8);
        assert_eq!(eval_bf(&desc, &doc, &pidx).len(), 8);
        let nested = parse_pattern_with("/b/s/s/p", &mut labels).unwrap();
        assert_eq!(eval_bf(&nested, &doc, &pidx).len(), 6);
    }

    #[test]
    fn root_anchoring_respected() {
        let doc = book_document();
        let pidx = PathIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        let p = parse_pattern_with("/s/p", &mut labels).unwrap();
        assert!(eval_bf(&p, &doc, &pidx).is_empty());
    }
}
