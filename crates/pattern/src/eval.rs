//! Tree-pattern evaluation over documents.
//!
//! Whole-document evaluation ([`eval`], [`eval_bn`]) runs one sparse core
//! over one candidate list per pattern node, in document order:
//!
//! * bottom-up, each edge marks in a bitset the tree nodes that can host
//!   its parent end — the parents of the child's matches for `/`, their
//!   ancestors for `//` (walked up until the first node already marked,
//!   so the set stays ancestor-closed) — and a candidate survives when its
//!   attribute predicates and every edge bit hold;
//! * top-down along the trunk, each step's matches are filtered against
//!   the step above: parent membership for `/`, a memoised ancestor walk
//!   for `//`.
//!
//! The cost is proportional to the candidates and the ancestors they
//! reach, not to `|P| · |T|`. [`eval_bn`] takes its candidates from the
//! label index — the paper's `BN` ("basic node index") baseline, and what
//! view materialization runs; [`eval`] builds them with one pre-order
//! walk. The path-index-assisted `BF` engine lives in [`crate::holistic`].
//!
//! The fragment-local entry points ([`eval_anchored_in`],
//! [`matches_anchored_in`], [`eval_restricted_in`]) keep the dense
//! `O(|P| · |T|)` match-set computation over small fragment trees, with
//! reusable scratch buffers; [`eval_restricted`] with an always-true
//! predicate is the dense reference the sparse core is tested against.

use xvr_xml::{NodeId, NodeIndex, XmlTree};

use crate::pattern::{AttrPred, Axis, PLabel, PNodeId, TreePattern};

/// Reusable scratch buffers for the dense match-set computation.
///
/// Every dense evaluation allocates `O(|P|)` boolean vectors of length `|T|`;
/// in hot loops (the rewriter refining hundreds of fragments with the
/// same compensating pattern) those allocations dominate. A scratch pool
/// keeps the vectors alive across calls: pass the same `EvalScratch` to
/// the `*_in` entry points ([`eval_anchored_in`], [`matches_anchored_in`],
/// [`eval_restricted_in`]) and steady-state evaluation becomes
/// allocation-free. The pool is plain data — create one per thread.
#[derive(Default)]
pub struct EvalScratch {
    pool: Vec<Vec<bool>>,
}

impl EvalScratch {
    /// Fresh, empty pool.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Borrow a zeroed boolean vector of length `n`.
    fn take(&mut self, n: usize) -> Vec<bool> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, false);
                v
            }
            None => vec![false; n],
        }
    }

    /// Return a vector to the pool.
    fn give(&mut self, v: Vec<bool>) {
        self.pool.push(v);
    }

    /// Return a whole match-set table to the pool.
    fn give_all(&mut self, d: Vec<Vec<bool>>) {
        for v in d {
            self.pool.push(v);
        }
    }
}

/// Evaluate `pattern` over `tree`, returning answer-node bindings in
/// document order. Candidates come from one pre-order walk.
pub fn eval(pattern: &TreePattern, tree: &XmlTree) -> Vec<NodeId> {
    let mut cands: Vec<Vec<NodeId>> = vec![Vec::new(); pattern.len()];
    for x in tree.iter() {
        let l = tree.label(x);
        for pn in pattern.ids() {
            if pattern.label(pn).matches(l) {
                cands[pn.index()].push(x);
            }
        }
    }
    let slices: Vec<&[NodeId]> = cands.iter().map(Vec::as_slice).collect();
    eval_sparse(pattern, tree, &slices)
}

/// Evaluate with candidates taken from a label index (`BN` baseline).
/// Wildcard nodes fall back to one pre-order walk, shared between them.
/// `index` must have been built over `tree`.
pub fn eval_bn(pattern: &TreePattern, tree: &XmlTree, index: &NodeIndex) -> Vec<NodeId> {
    let all: Vec<NodeId> = if pattern.ids().any(|pn| pattern.label(pn) == PLabel::Wild) {
        tree.iter().collect()
    } else {
        Vec::new()
    };
    let cands: Vec<&[NodeId]> = pattern
        .ids()
        .map(|pn| match pattern.label(pn) {
            PLabel::Lab(l) => index.nodes(l),
            PLabel::Wild => all.as_slice(),
        })
        .collect();
    eval_sparse(pattern, tree, &cands)
}

/// Boolean evaluation: does the pattern match the tree at all?
pub fn matches_boolean(pattern: &TreePattern, tree: &XmlTree) -> bool {
    !eval(pattern, tree).is_empty()
}

/// A fixed-size bitset over tree node ids.
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    #[inline]
    fn get(&self, x: NodeId) -> bool {
        let i = x.index();
        self.0[i >> 6] & (1 << (i & 63)) != 0
    }

    /// Set the bit of `x`; true when it was not set before.
    #[inline]
    fn insert(&mut self, x: NodeId) -> bool {
        let i = x.index();
        let (word, bit) = (&mut self.0[i >> 6], 1u64 << (i & 63));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// The sparse core: `cands[pn]` lists, in document order, the tree nodes
/// whose label matches pattern node `pn`. Returns the answer bindings in
/// document order.
fn eval_sparse(pattern: &TreePattern, tree: &XmlTree, cands: &[&[NodeId]]) -> Vec<NodeId> {
    let mut matches: Vec<Vec<NodeId>> = vec![Vec::new(); pattern.len()];
    for pn in pattern.postorder() {
        let edges: Vec<Bits> = pattern
            .children(pn)
            .iter()
            .map(|&pc| parent_ends(tree, pattern.axis(pc), &matches[pc.index()]))
            .collect();
        let attrs = &pattern.node(pn).attrs;
        let kept: Vec<NodeId> = cands[pn.index()]
            .iter()
            .copied()
            .filter(|&x| attrs_hold(tree, x, attrs) && edges.iter().all(|e| e.get(x)))
            .collect();
        if kept.is_empty() {
            return Vec::new(); // some pattern node embeds nowhere
        }
        matches[pn.index()] = kept;
    }
    let root = pattern.root();
    let mut allowed = std::mem::take(&mut matches[root.index()]);
    if pattern.axis(root) == Axis::Child {
        allowed.retain(|&x| x == tree.root());
    }
    for &next in &pattern.trunk()[1..] {
        let mut marked = Bits::new(tree.len());
        for &x in &allowed {
            marked.insert(x);
        }
        let step = std::mem::take(&mut matches[next.index()]);
        allowed = match pattern.axis(next) {
            Axis::Child => step
                .into_iter()
                .filter(|&x| tree.parent(x).is_some_and(|p| marked.get(p)))
                .collect(),
            Axis::Descendant => {
                // Walk up to the first marked ancestor. Every node passed
                // on the way shares the walk's verdict, so it joins
                // `marked` (a hit) or `clear` (a miss) and no later walk
                // passes it again.
                let mut clear = Bits::new(tree.len());
                let mut path = Vec::new();
                step.into_iter()
                    .filter(|&x| {
                        path.clear();
                        let mut up = tree.parent(x);
                        let hit = loop {
                            match up {
                                Some(p) if marked.get(p) => break true,
                                Some(p) if !clear.get(p) => {
                                    path.push(p);
                                    up = tree.parent(p);
                                }
                                _ => break false,
                            }
                        };
                        let memo = if hit { &mut marked } else { &mut clear };
                        for &p in &path {
                            memo.insert(p);
                        }
                        hit
                    })
                    .collect()
            }
        };
    }
    allowed
}

/// The tree nodes that can host the parent end of an edge of `axis` whose
/// child end matched `matches`: their parents for `/`, all their proper
/// ancestors for `//`.
fn parent_ends(tree: &XmlTree, axis: Axis, matches: &[NodeId]) -> Bits {
    let mut bits = Bits::new(tree.len());
    for &y in matches {
        let mut up = tree.parent(y);
        // Under `//` the marked set is ancestor-closed, so the walk stops
        // at the first ancestor some earlier match already marked.
        while let Some(p) = up {
            if !bits.insert(p) || axis == Axis::Child {
                break;
            }
            up = tree.parent(p);
        }
    }
    bits
}

/// Do the attribute predicates `preds` hold at `x`?
fn attrs_hold(tree: &XmlTree, x: NodeId, preds: &[AttrPred]) -> bool {
    preds.iter().all(|pred| match &pred.value {
        None => tree.attr(x, pred.name).is_some(),
        Some(v) => tree.attr(x, pred.name) == Some(v.as_str()),
    })
}

/// Evaluate with the pattern root pinned to `root_binding` (the root's own
/// axis is ignored). Used to run compensating queries *inside* materialized
/// fragments, where the fragment root plays the part of the pattern root.
pub fn eval_anchored(pattern: &TreePattern, tree: &XmlTree, root_binding: NodeId) -> Vec<NodeId> {
    eval_anchored_in(pattern, tree, root_binding, &mut EvalScratch::new())
}

/// [`eval_anchored`] with caller-provided scratch buffers (see
/// [`EvalScratch`]).
pub fn eval_anchored_in(
    pattern: &TreePattern,
    tree: &XmlTree,
    root_binding: NodeId,
    scratch: &mut EvalScratch,
) -> Vec<NodeId> {
    if tree.is_empty() {
        return Vec::new();
    }
    let d = match_sets(pattern, tree, &|_, _| true, scratch);
    if !d[pattern.root().index()][root_binding.index()] {
        scratch.give_all(d);
        return Vec::new();
    }
    let mut allowed = scratch.take(tree.len());
    allowed[root_binding.index()] = true;
    let out = refine_trunk(pattern, tree, &d, allowed, scratch);
    scratch.give_all(d);
    out
}

/// Boolean form of [`eval_anchored`]: does the pattern match with its root
/// bound to `root_binding`?
pub fn matches_anchored(pattern: &TreePattern, tree: &XmlTree, root_binding: NodeId) -> bool {
    matches_anchored_in(pattern, tree, root_binding, &mut EvalScratch::new())
}

/// [`matches_anchored`] with caller-provided scratch buffers.
pub fn matches_anchored_in(
    pattern: &TreePattern,
    tree: &XmlTree,
    root_binding: NodeId,
    scratch: &mut EvalScratch,
) -> bool {
    !tree.is_empty() && {
        let d = match_sets(pattern, tree, &|_, _| true, scratch);
        let hit = d[pattern.root().index()][root_binding.index()];
        scratch.give_all(d);
        hit
    }
}

/// Evaluate with an extra per-(pattern node, tree node) admissibility
/// predicate ANDed into the match sets. Used by the rewriter to restrict
/// view answer positions to materialized fragment roots when joining over
/// the code prefix tree.
pub fn eval_restricted(
    pattern: &TreePattern,
    tree: &XmlTree,
    admissible: &dyn Fn(PNodeId, NodeId) -> bool,
) -> Vec<NodeId> {
    eval_restricted_in(pattern, tree, admissible, &mut EvalScratch::new())
}

/// [`eval_restricted`] with caller-provided scratch buffers.
pub fn eval_restricted_in(
    pattern: &TreePattern,
    tree: &XmlTree,
    admissible: &dyn Fn(PNodeId, NodeId) -> bool,
    scratch: &mut EvalScratch,
) -> Vec<NodeId> {
    if tree.is_empty() {
        return Vec::new();
    }
    let d = match_sets(pattern, tree, admissible, scratch);
    let mut allowed = scratch.take(tree.len());
    let anchored = pattern.axis(pattern.root()) == Axis::Child;
    let root_set = &d[pattern.root().index()];
    for x in tree.iter() {
        if root_set[x.index()] && (!anchored || x == tree.root()) {
            allowed[x.index()] = true;
        }
    }
    let out = refine_trunk(pattern, tree, &d, allowed, scratch);
    scratch.give_all(d);
    out
}

/// Dense match sets for every pattern node: `d[pn][x]` = the subtree of
/// `pattern` rooted at `pn` embeds with `pn ↦ x`, and `admissible(pn, x)`
/// holds at `pn ↦ x`. Generic so that the always-true predicate of the
/// anchored entry points compiles away.
fn match_sets<F: Fn(PNodeId, NodeId) -> bool + ?Sized>(
    pattern: &TreePattern,
    tree: &XmlTree,
    admissible: &F,
    scratch: &mut EvalScratch,
) -> Vec<Vec<bool>> {
    let mut d: Vec<Vec<bool>> = vec![Vec::new(); pattern.len()];
    for &pn in &pattern.postorder() {
        let mut set = scratch.take(tree.len());
        // Precompute "has proper descendant matching pc" arrays for the
        // descendant-axis children of pn.
        let mut desc_flags: Vec<(PNodeId, Vec<bool>)> = Vec::new();
        for &pc in pattern.children(pn) {
            if pattern.axis(pc) == Axis::Descendant {
                desc_flags.push((pc, has_descendant_in(tree, &d[pc.index()], scratch)));
            }
        }
        'cand: for x in tree.iter() {
            if !pattern.label(pn).matches(tree.label(x))
                || !admissible(pn, x)
                || !attrs_hold(tree, x, &pattern.node(pn).attrs)
            {
                continue;
            }
            for &pc in pattern.children(pn) {
                let ok = match pattern.axis(pc) {
                    Axis::Child => tree.children(x).any(|y| d[pc.index()][y.index()]),
                    Axis::Descendant => desc_flags
                        .iter()
                        .find(|(id, _)| *id == pc)
                        .map(|(_, flags)| flags[x.index()])
                        .unwrap_or(false),
                };
                if !ok {
                    continue 'cand;
                }
            }
            set[x.index()] = true;
        }
        for (_, flags) in desc_flags {
            scratch.give(flags);
        }
        d[pn.index()] = set;
    }
    d
}

/// `out[x]` = some proper descendant `y` of `x` has `set[y]`.
fn has_descendant_in(tree: &XmlTree, set: &[bool], scratch: &mut EvalScratch) -> Vec<bool> {
    let mut out = scratch.take(tree.len());
    // Post-order via reversed pre-order (children have larger arena ids than
    // parents is NOT guaranteed in general trees built by hand, so walk
    // explicitly).
    let mut order: Vec<NodeId> = tree.iter().collect();
    order.reverse();
    for x in order {
        for c in tree.children(x) {
            if set[c.index()] || out[c.index()] {
                out[x.index()] = true;
                break;
            }
        }
    }
    out
}

/// Top-down refinement along the trunk only: branch conditions are already
/// folded into the match sets. `allowed` holds the admissible root bindings
/// (taken from `scratch`, and returned to it before this function exits).
fn refine_trunk(
    pattern: &TreePattern,
    tree: &XmlTree,
    d: &[Vec<bool>],
    mut allowed: Vec<bool>,
    scratch: &mut EvalScratch,
) -> Vec<NodeId> {
    let trunk = pattern.trunk();
    for win in trunk.windows(2) {
        let (_prev, next) = (win[0], win[1]);
        let mut next_allowed = scratch.take(tree.len());
        match pattern.axis(next) {
            Axis::Child => {
                for x in tree.iter() {
                    if d[next.index()][x.index()] {
                        if let Some(p) = tree.parent(x) {
                            if allowed[p.index()] {
                                next_allowed[x.index()] = true;
                            }
                        }
                    }
                }
            }
            Axis::Descendant => {
                // under[x] = some proper ancestor of x is allowed.
                let mut under = scratch.take(tree.len());
                for x in tree.iter() {
                    if let Some(p) = tree.parent(x) {
                        under[x.index()] = allowed[p.index()] || under[p.index()];
                    }
                }
                for x in tree.iter() {
                    if d[next.index()][x.index()] && under[x.index()] {
                        next_allowed[x.index()] = true;
                    }
                }
                scratch.give(under);
            }
        }
        scratch.give(std::mem::replace(&mut allowed, next_allowed));
    }
    let out = tree.iter().filter(|x| allowed[x.index()]).collect();
    scratch.give(allowed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_pattern_with;
    use xvr_xml::samples::book_document;
    use xvr_xml::Document;

    fn run(doc: &Document, src: &str) -> Vec<String> {
        let mut labels = doc.labels.clone();
        let p = parse_pattern_with(src, &mut labels).unwrap();
        eval(&p, &doc.tree)
            .into_iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n).to_string())
            .collect()
    }

    #[test]
    fn simple_child_paths() {
        let doc = book_document();
        assert_eq!(run(&doc, "/b").len(), 1);
        assert_eq!(run(&doc, "/b/t").len(), 1);
        assert_eq!(run(&doc, "/b/a").len(), 3);
        assert_eq!(run(&doc, "/b/s").len(), 2);
    }

    #[test]
    fn descendants_and_wildcards() {
        let doc = book_document();
        assert_eq!(run(&doc, "//p").len(), 8);
        assert_eq!(run(&doc, "//s//p").len(), 8);
        assert_eq!(run(&doc, "//s/s/p").len(), 6);
        assert_eq!(run(&doc, "/b/*").len(), 6);
        assert_eq!(run(&doc, "//f/i").len(), 3);
        assert_eq!(run(&doc, "//*/i").len(), 3);
    }

    #[test]
    fn branch_predicates() {
        let doc = book_document();
        // s nodes with a figure child: s3 (0.8.6), s4 (0.11), s5 (0.11.6).
        assert_eq!(run(&doc, "//s[f]").len(), 3);
        // V1 = s[t]/p: all 8 paragraphs (every section has a title).
        assert_eq!(run(&doc, "//s[t]/p").len(), 8);
        // V2 = s[p]/f: figures whose section has a paragraph: all 3.
        assert_eq!(run(&doc, "//s[p]/f").len(), 3);
    }

    #[test]
    fn example_5_1_query() {
        let doc = book_document();
        // Q_e = s[f//i][t]/p → {p3, p4, p5, p6, p7}.
        let mut got = run(&doc, "//s[f//i][t]/p");
        got.sort();
        assert_eq!(got.len(), 5);
        // p3 = 0.8.6.1 and p4 = 0.8.6.5 are in section 0.8.6.
        assert!(got.contains(&"0.8.6.1".to_string()));
        assert!(got.contains(&"0.8.6.5".to_string()));
    }

    #[test]
    fn root_anchoring() {
        let doc = book_document();
        assert_eq!(run(&doc, "/s").len(), 0); // document element is b
        assert_eq!(run(&doc, "//s").len(), 6);
        assert_eq!(run(&doc, "/*").len(), 1);
        assert_eq!(run(&doc, "//*").len(), 34);
    }

    #[test]
    fn answer_node_mid_pattern() {
        let doc = book_document();
        // Sections that contain (somewhere) an image: s1, s3, s4, s5.
        assert_eq!(run(&doc, "//s[.//i]").len(), 4);
    }

    /// `eval`, `eval_bn` and the dense reference (`eval_restricted` with an
    /// always-true predicate) give the same bindings for `src` over `doc`;
    /// returns how many.
    fn agree(doc: &Document, src: &str) -> usize {
        let idx = NodeIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        let p = parse_pattern_with(src, &mut labels).unwrap();
        let dense = eval_restricted(&p, &doc.tree, &|_, _| true);
        assert_eq!(eval(&p, &doc.tree), dense, "eval {src}");
        assert_eq!(eval_bn(&p, &doc.tree, &idx), dense, "eval_bn {src}");
        dense.len()
    }

    #[test]
    fn sparse_matches_dense_on_book_document() {
        let doc = book_document();
        for (src, n) in [
            // `*` at the root, inside the pattern, and as the answer node.
            ("//*", 34),
            ("/*", 1),
            ("/*/s//p", 8),
            ("//*/i", 3),
            ("//s/*/i", 3),
            ("//s[*/i]/p", 5),
            ("//s//*//i", 3),
            ("/b/s/*", 9),
            ("//f/*", 6),
            ("//s[f]/*", 13),
            // `/`-anchored roots.
            ("/b/s/s/p", 6),
            ("/b[t]//p", 8),
            ("/s", 0),
            ("/b", 1),
            // Chained `//` edges.
            ("//s//s//p", 6),
            ("/b//s//f//i", 3),
            ("//b//s[.//i]//p", 8),
            ("//s//s/p", 6),
            // Example 5.1's views and query.
            ("//s[t]/p", 8),
            ("//s[p]/f", 3),
            ("//s[f//i][t]/p", 5),
            // A label the document (and so the index) does not have.
            ("//zz", 0),
            ("//s[zz]/p", 0),
            ("//s//zz", 0),
            ("/b[zz]", 0),
        ] {
            assert_eq!(agree(&doc, src), n, "{src}");
        }
    }

    #[test]
    fn sparse_matches_dense_with_attribute_predicates() {
        let doc = xvr_xml::parse_document(
            r#"<a><b id="1"><c k="x"/></b><b id="2"><c/><b id="3"><c k="y"/></b></b><b/></a>"#,
        )
        .unwrap();
        for (src, n) in [
            ("//b[@id]", 3),
            (r#"//b[@id="2"]//c"#, 2),
            (r#"//b[@id="2"]/c"#, 1),
            ("//*[@k]", 2),
            (r#"//b[c[@k="y"]]"#, 1),
            ("/a/b[@id]/c[@k]", 1),
            (r#"//*[@id="3"]/*"#, 1),
            (r#"//b[@id="9"]"#, 0),
            ("//b[@zz]", 0),
        ] {
            assert_eq!(agree(&doc, src), n, "{src}");
        }
    }

    #[test]
    fn sparse_matches_dense_on_an_empty_tree() {
        let mut labels = xvr_xml::LabelTable::new();
        let p = parse_pattern_with("//a[b]//*", &mut labels).unwrap();
        let tree = XmlTree::new();
        let idx = NodeIndex::build(&tree, &labels);
        assert!(eval(&p, &tree).is_empty());
        assert!(eval_bn(&p, &tree, &idx).is_empty());
        assert!(eval_restricted(&p, &tree, &|_, _| true).is_empty());
        assert!(!matches_boolean(&p, &tree));
    }

    /// Deep chains make the `//` walks long; random parents make arena
    /// order differ from document order.
    #[test]
    fn sparse_matches_dense_on_deep_and_shuffled_trees() {
        let mut chain = String::new();
        for i in 0..300 {
            chain.push_str(if i % 7 == 3 { "<b>" } else { "<a>" });
        }
        chain.push_str("<c/>");
        for i in (0..300).rev() {
            chain.push_str(if i % 7 == 3 { "</b>" } else { "</a>" });
        }
        let deep = xvr_xml::parse_document(&chain).unwrap();
        let srcs = [
            "//a//a//c",
            "/a//b//a/a//c",
            "//b/a//b",
            "//a[b]//b[.//c]",
            "//*//b/*",
            "//b//*[c]",
            "/a/a/a//c",
            "//c//a",
        ];
        let deep_hits: usize = srcs.iter().map(|src| agree(&deep, src)).sum();
        assert!(deep_hits > 0);
        let mut labels = xvr_xml::LabelTable::new();
        let names = ["a", "b", "c"].map(|n| labels.intern(n));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut shuffled_hits = 0;
        for _ in 0..20 {
            let mut tree = XmlTree::new();
            tree.add_root(names[0]);
            for i in 1..400 {
                let parent = NodeId(next(i) as u32);
                tree.add_child(parent, names[next(3)]);
            }
            let doc = Document::from_tree(labels.clone(), tree);
            shuffled_hits += srcs.iter().map(|src| agree(&doc, src)).sum::<usize>();
        }
        assert!(shuffled_hits > 0);
    }

    #[test]
    fn bn_matches_naive() {
        let doc = book_document();
        let idx = NodeIndex::build(&doc.tree, &doc.labels);
        let mut labels = doc.labels.clone();
        for src in [
            "//s[t]/p",
            "//s[f//i][t]/p",
            "/b//f",
            "//s/s",
            "//*[i]",
            "/b[a]/t",
        ] {
            let p = parse_pattern_with(src, &mut labels).unwrap();
            assert_eq!(eval(&p, &doc.tree), eval_bn(&p, &doc.tree, &idx), "{src}");
        }
    }

    #[test]
    fn boolean_matching() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let yes = parse_pattern_with("/b[a]/t", &mut labels).unwrap();
        assert!(matches_boolean(&yes, &doc.tree));
        let no = parse_pattern_with("/b/i", &mut labels).unwrap();
        assert!(!matches_boolean(&no, &doc.tree));
    }

    #[test]
    fn attr_predicates_filter() {
        let doc = xvr_xml::parse_document(r#"<a><b id="1"/><b id="2"/><b/></a>"#).unwrap();
        let mut labels = doc.labels.clone();
        let p1 = parse_pattern_with("/a/b[@id]", &mut labels).unwrap();
        assert_eq!(eval(&p1, &doc.tree).len(), 2);
        let p2 = parse_pattern_with(r#"/a/b[@id="2"]"#, &mut labels).unwrap();
        assert_eq!(eval(&p2, &doc.tree).len(), 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut scratch = EvalScratch::new();
        let root = doc.tree.root();
        for src in ["//s[t]/p", "//s[f//i][t]/p", "/b//f", "//*[i]", "/b[a]/t"] {
            let p = parse_pattern_with(src, &mut labels).unwrap();
            // Run twice through the same pool: second pass recycles buffers.
            for _ in 0..2 {
                assert_eq!(
                    eval_anchored_in(&p, &doc.tree, root, &mut scratch),
                    eval_anchored(&p, &doc.tree, root),
                    "{src}"
                );
                assert_eq!(
                    matches_anchored_in(&p, &doc.tree, root, &mut scratch),
                    matches_anchored(&p, &doc.tree, root),
                    "{src}"
                );
                let all = |_: PNodeId, _: NodeId| true;
                assert_eq!(
                    eval_restricted_in(&p, &doc.tree, &all, &mut scratch),
                    eval_restricted(&p, &doc.tree, &all),
                    "{src}"
                );
            }
        }
        assert!(!scratch.pool.is_empty(), "buffers returned to the pool");
    }

    #[test]
    fn results_in_document_order() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let p = parse_pattern_with("//p", &mut labels).unwrap();
        let results = eval(&p, &doc.tree);
        for w in results.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
