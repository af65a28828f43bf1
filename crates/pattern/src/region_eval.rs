//! Structural-join evaluation over region (containment) labels — the
//! stack-tree / TwigStack lineage the paper cites next to TJFast.
//!
//! Candidate lists per pattern node come from the label index; structural
//! predicates are answered on sorted `(start, end, level)` regions: a
//! descendant probe is one binary search into the start-sorted list, a
//! child probe additionally constrains the level via per-level sublists.
//! The pass structure mirrors [`crate::eval`](mod@crate::eval): bottom-up
//! candidate filtering, then a top-down sweep along the trunk.
//!
//! This engine exists (a) as a second, independently derived implementation
//! to cross-check the Dewey-based engines against, and (b) to benchmark the
//! two classic encoding schemes side by side.

use std::collections::HashMap;

use xvr_xml::region::{Region, RegionEncoding};
use xvr_xml::{NodeId, NodeIndex, XmlTree};

use crate::pattern::{Axis, PLabel, TreePattern};

/// A filtered candidate list: regions sorted by `start`, with per-level
/// start indexes for parent/child probes.
struct CandidateList {
    nodes: Vec<NodeId>,
    regions: Vec<Region>,
    by_level: HashMap<u16, Vec<u32>>,
}

impl CandidateList {
    fn build(mut items: Vec<(NodeId, Region)>) -> CandidateList {
        items.sort_by_key(|(_, r)| r.start);
        let mut by_level: HashMap<u16, Vec<u32>> = HashMap::new();
        for (_, r) in &items {
            by_level.entry(r.level).or_default().push(r.start);
        }
        // Each level list is start-sorted because `items` is.
        let (nodes, regions) = items.into_iter().unzip();
        CandidateList {
            nodes,
            regions,
            by_level,
        }
    }

    /// Any candidate strictly inside `anc`?
    fn has_descendant_in(&self, anc: &Region) -> bool {
        let i = self.regions.partition_point(|r| r.start <= anc.start);
        self.regions
            .get(i)
            .map(|r| r.end <= anc.end)
            .unwrap_or(false)
    }

    /// Any candidate that is a child of `parent`?
    fn has_child_of(&self, parent: &Region) -> bool {
        let Some(level) = self.by_level.get(&(parent.level + 1)) else {
            return false;
        };
        let i = level.partition_point(|&s| s <= parent.start);
        level.get(i).map(|&s| s < parent.end).unwrap_or(false)
    }
}

/// Evaluate `pattern` over `tree` using region labels; returns answer
/// bindings in document order.
pub fn eval_region(
    pattern: &TreePattern,
    tree: &XmlTree,
    index: &NodeIndex,
    enc: &RegionEncoding,
) -> Vec<NodeId> {
    if tree.is_empty() {
        return Vec::new();
    }
    // Bottom-up: filter each pattern node's candidates.
    let mut filtered: Vec<Option<CandidateList>> = (0..pattern.len()).map(|_| None).collect();
    for &pn in &pattern.postorder() {
        let raw: Vec<(NodeId, Region)> = match pattern.label(pn) {
            PLabel::Lab(l) => index.nodes(l).iter().map(|&n| (n, enc.region(n))).collect(),
            PLabel::Wild => tree.iter().map(|n| (n, enc.region(n))).collect(),
        };
        let keep: Vec<(NodeId, Region)> = raw
            .into_iter()
            .filter(|(n, r)| {
                // Attribute predicates.
                for pred in &pattern.node(pn).attrs {
                    let ok = match &pred.value {
                        None => tree.attr(*n, pred.name).is_some(),
                        Some(v) => tree.attr(*n, pred.name) == Some(v.as_str()),
                    };
                    if !ok {
                        return false;
                    }
                }
                pattern.children(pn).iter().all(|&pc| {
                    let list = filtered[pc.index()].as_ref().expect("postorder");
                    match pattern.axis(pc) {
                        Axis::Child => list.has_child_of(r),
                        Axis::Descendant => list.has_descendant_in(r),
                    }
                })
            })
            .collect();
        filtered[pn.index()] = Some(CandidateList::build(keep));
    }
    // Top-down along the trunk: each node needs an admissible parent or
    // ancestor binding (regions make both checks one containment test).
    let trunk = pattern.trunk();
    let root_list = filtered[trunk[0].index()].as_ref().unwrap();
    let anchored = pattern.axis(pattern.root()) == Axis::Child;
    let mut allowed: Vec<(NodeId, Region)> = root_list
        .nodes
        .iter()
        .zip(root_list.regions.iter())
        .filter(|(&n, _)| !anchored || n == tree.root())
        .map(|(&n, &r)| (n, r))
        .collect();
    for win in trunk.windows(2) {
        let next = win[1];
        let list = filtered[next.index()].as_ref().unwrap();
        let axis = pattern.axis(next);
        // `allowed` is start-sorted; for each candidate, check whether some
        // allowed region contains it appropriately (scan with two-pointer +
        // stack of open ancestors).
        let mut next_allowed: Vec<(NodeId, Region)> = Vec::new();
        let mut open: Vec<Region> = Vec::new();
        let mut ai = 0usize;
        for (&n, &r) in list.nodes.iter().zip(list.regions.iter()) {
            // Push newly opened allowed regions that start before r.
            while ai < allowed.len() && allowed[ai].1.start < r.start {
                open.push(allowed[ai].1);
                ai += 1;
            }
            // Pop closed ones.
            while let Some(top) = open.last() {
                if top.end < r.start {
                    open.pop();
                } else {
                    break;
                }
            }
            let ok = match axis {
                Axis::Descendant => open.iter().any(|a| a.contains(&r)),
                Axis::Child => open.iter().any(|a| a.is_parent_of(&r)),
            };
            if ok {
                next_allowed.push((n, r));
            }
        }
        allowed = next_allowed;
    }
    let mut out: Vec<(Region, NodeId)> = allowed.into_iter().map(|(n, r)| (r, n)).collect();
    out.sort_by_key(|(r, _)| r.start);
    out.into_iter().map(|(_, n)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parse::parse_pattern_with;
    use xvr_xml::generator::{generate, Config};
    use xvr_xml::samples::book_document;

    fn check(doc: &xvr_xml::Document, srcs: &[&str]) {
        let index = NodeIndex::build(&doc.tree, &doc.labels);
        let enc = RegionEncoding::assign(&doc.tree);
        let mut labels = doc.labels.clone();
        for src in srcs {
            let p = parse_pattern_with(src, &mut labels).unwrap();
            let reference = eval(&p, &doc.tree);
            let mut got = eval_region(&p, &doc.tree, &index, &enc);
            // Region order is document order; reference is arena pre-order
            // (identical for these documents) — compare as sets + order.
            let mut reference_sorted = reference.clone();
            reference_sorted.sort_by_key(|&n| enc.region(n).start);
            got.sort_by_key(|&n| enc.region(n).start);
            assert_eq!(got, reference_sorted, "{src}");
        }
    }

    #[test]
    fn agrees_with_eval_on_book() {
        let doc = book_document();
        check(
            &doc,
            &[
                "//s[t]/p",
                "//s[f//i][t]/p",
                "/b//f",
                "//s/s",
                "/b[a]/t",
                "//*[i]",
                "//s[.//i]",
                "/b/*",
                "/s/p",
                "//p",
            ],
        );
    }

    #[test]
    fn agrees_with_eval_on_generated() {
        let doc = generate(&Config::tiny(77));
        check(
            &doc,
            &[
                "//person[address]/name",
                "//open_auction[bidder]//increase",
                "//item[.//parlist]//text",
                "/site/people/person[profile/interest]",
                "//person[@id]",
                "//annotation//listitem/text",
            ],
        );
    }

    #[test]
    fn random_queries_agree() {
        let doc = generate(&Config::tiny(78));
        let index = NodeIndex::build(&doc.tree, &doc.labels);
        let enc = RegionEncoding::assign(&doc.tree);
        let mut gen = crate::generator::QueryGenerator::new(
            &doc.fst,
            crate::generator::QueryConfig::paper_view_workload(5),
        );
        for _ in 0..40 {
            let q = gen.generate();
            let mut reference = eval(&q, &doc.tree);
            reference.sort_by_key(|&n| enc.region(n).start);
            let got = eval_region(&q, &doc.tree, &index, &enc);
            assert_eq!(got, reference, "{}", q.display(&doc.labels));
        }
    }
}
