//! Materialized view fragments.
//!
//! A materialized XPath view stores, for every binding of its answer node,
//! the **XML fragment** (subtree) rooted there together with the root's
//! extended Dewey code. The code is what lets the rewriting stage join
//! fragments of different views and reason about their ancestor label-paths
//! without touching the base document (Section V of the paper).
//!
//! Storage layout: the subtree copies are immutable [`XmlTree`]s behind
//! [`Arc`]s (struct-of-arrays inside each tree), and the root codes live
//! front-coded in a [`PackedCodes`] arena, sorted in document order and in
//! lockstep with the tree list. Materialization is **streaming**: each
//! candidate root's full storage footprint is read from the document's
//! footprint column ([`Document::subtree_footprint`]) *before* any subtree
//! is copied, so sizing costs O(1) per root and a fragment the budget
//! rejects is never walked or extracted at all.
//!
//! Views over one document overlap: the same subtree is the answer of many
//! of them. A [`SubtreeMemo`] passed across materializations lets each
//! root be extracted once and its tree shared by every view that admits
//! it. Sharing changes what is resident, not what is accounted: each
//! view's [`FragmentSet::total_bytes`] still charges every fragment it
//! holds, which is what the per-view budget caps.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use crate::dewey::DeweyCode;
use crate::flat::{decode_code, encode_code, encode_components, flat_cmp};
use crate::packed::PackedCodes;
use crate::tree::{Document, NodeId, XmlTree};

/// Fixed per-node tree storage: the five `u32` columns of
/// [`XmlTree`](crate::XmlTree)'s struct-of-arrays layout.
pub const NODE_BYTES: usize = 20;

/// Per-node charge for the local extended-Dewey component the engine
/// assigns to every fragment tree (`MaterializedView::local_dewey`).
pub const LOCAL_DEWEY_BYTES: usize = 4;

/// Per-fragment slack for the packed code arena's entry headers, restart
/// offsets, and tail buffer (a few bytes each, amortized).
pub const FRAGMENT_SLACK_BYTES: usize = 8;

/// Full storage footprint the fragment rooted at `node` *would* occupy if
/// materialized, computed from the base document without extracting
/// anything: the subtree's tree heap and per-node local Dewey component
/// (one read of [`Document::subtree_footprint`]), the encoded root code,
/// and the arena slack.
pub fn fragment_footprint(doc: &Document, node: NodeId) -> usize {
    doc.subtree_footprint(node)
        + encode_code(&doc.dewey.code_of(&doc.tree, node)).len()
        + FRAGMENT_SLACK_BYTES
}

/// What [`FragmentSet::materialize_with_stats`] did: how many candidate
/// roots were offered, sized, admitted — and how many subtrees were
/// actually copied. A rejected root is never copied, and an admitted root
/// whose tree the [`SubtreeMemo`] already holds is shared instead, so
/// `extractions <= admitted`, with equality under a fresh memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Candidate roots offered (length of the binding list).
    pub candidates: usize,
    /// Fragments admitted under the budget.
    pub admitted: usize,
    /// Fragments sized and refused (at most 1: the first refusal stops the
    /// pass, leaving later candidates unsized).
    pub rejected: usize,
    /// Subtree deep-copies performed (admitted roots the memo did not
    /// already hold).
    pub extractions: usize,
}

/// Fragment trees already extracted from one document, by root node, so
/// that every view admitting the same root shares one tree.
///
/// Entries are [`Weak`]: the memo never keeps a tree alive that no
/// fragment set holds any more. A memo is valid for one version of one
/// document; clear it when the document changes, since an append changes
/// the subtree of every ancestor of the insertion point.
#[derive(Debug, Default)]
pub struct SubtreeMemo {
    trees: HashMap<NodeId, Weak<XmlTree>>,
}

impl SubtreeMemo {
    /// An empty memo.
    pub fn new() -> SubtreeMemo {
        SubtreeMemo::default()
    }

    /// Forget every tree (after the document changed).
    pub fn clear(&mut self) {
        self.trees.clear();
    }

    /// The tree of `root`: shared when a live one is remembered, else
    /// extracted from `doc` (counted in `stats.extractions`) and
    /// remembered.
    fn tree(&mut self, doc: &Document, root: NodeId, stats: &mut MaterializeStats) -> Arc<XmlTree> {
        if let Some(tree) = self.trees.get(&root).and_then(Weak::upgrade) {
            return tree;
        }
        stats.extractions += 1;
        let tree = Arc::new(doc.tree.extract_subtree(root));
        self.trees.insert(root, Arc::downgrade(&tree));
        tree
    }
}

/// All fragments of one materialized view, sorted by root code (document
/// order): shared subtree trees plus a front-coded arena of their root
/// codes.
#[derive(Clone, Debug, Default)]
pub struct FragmentSet {
    /// Fragment trees, in ascending root-code order. Immutable once built,
    /// and shared with every other set materialized through the same
    /// [`SubtreeMemo`] that admitted the same root.
    trees: Vec<Arc<XmlTree>>,
    /// Root codes, front-coded, in lockstep with `trees`. The rewriting
    /// stage's holistic join gallops over this arena (restart points keep
    /// the exponential-probe primitive intact).
    packed: PackedCodes,
    total_bytes: usize,
    /// True when materialization stopped early because of the size budget.
    truncated: bool,
}

impl FragmentSet {
    /// Materialize fragments for `roots` (answer-node bindings, document
    /// order), stopping once `byte_budget` would be exceeded — the paper
    /// caps each view's materialization at 128 KB.
    ///
    /// The budget is a hard cap: a fragment is admitted only if the set's
    /// total stays at or under `byte_budget` (an exact fit is admitted).
    /// Any rejected fragment — including the very first one, and including
    /// `byte_budget == 0`, which stores nothing — marks the set truncated,
    /// so `total_bytes() <= byte_budget` holds unconditionally and
    /// `!truncated()` really means "every binding is here".
    ///
    /// Sizing reads the document's footprint column
    /// ([`fragment_footprint`]) before any copy is made: a rejected
    /// fragment costs O(1), never a subtree walk or an extraction.
    ///
    /// Returns the set even when truncated; check [`FragmentSet::truncated`]
    /// before using a truncated set for *equivalent* rewriting.
    pub fn materialize(doc: &Document, roots: &[NodeId], byte_budget: usize) -> FragmentSet {
        FragmentSet::materialize_with_stats(doc, roots, byte_budget).0
    }

    /// [`FragmentSet::materialize`] plus a work tally. Extracts every
    /// admitted root (a fresh [`SubtreeMemo`]); see
    /// [`FragmentSet::materialize_shared`] to share trees across views.
    pub fn materialize_with_stats(
        doc: &Document,
        roots: &[NodeId],
        byte_budget: usize,
    ) -> (FragmentSet, MaterializeStats) {
        FragmentSet::materialize_shared(doc, roots, byte_budget, &mut SubtreeMemo::new())
    }

    /// [`FragmentSet::materialize_with_stats`] that takes each admitted
    /// root's tree from `memo` when an earlier materialization over the
    /// same `doc` already extracted it, and remembers the trees it
    /// extracts. Admission, order, codes and `total_bytes` do not depend
    /// on the memo; only `stats.extractions` does.
    pub fn materialize_shared(
        doc: &Document,
        roots: &[NodeId],
        byte_budget: usize,
        memo: &mut SubtreeMemo,
    ) -> (FragmentSet, MaterializeStats) {
        let mut stats = MaterializeStats {
            candidates: roots.len(),
            ..MaterializeStats::default()
        };
        let mut admitted: Vec<(Vec<u8>, NodeId)> = Vec::new();
        let mut total_bytes = 0usize;
        let mut truncated = false;
        for &r in roots {
            let code = encode_code(&doc.dewey.code_of(&doc.tree, r));
            let sz = doc.subtree_footprint(r) + code.len() + FRAGMENT_SLACK_BYTES;
            if total_bytes + sz > byte_budget {
                truncated = true;
                stats.rejected += 1;
                break;
            }
            total_bytes += sz;
            admitted.push((code, r));
            stats.admitted += 1;
        }
        // Sort by code first (byte order = document order), then extract:
        // the packed arena is append-only and must be built in order.
        admitted.sort_by(|a, b| flat_cmp(&a.0, &b.0));
        let mut set = FragmentSet {
            trees: Vec::with_capacity(admitted.len()),
            packed: PackedCodes::new(),
            total_bytes,
            truncated,
        };
        for (code, r) in &admitted {
            set.packed.push(code);
            set.trees.push(memo.tree(doc, *r, &mut stats));
        }
        (set, stats)
    }

    /// Assemble a set from externally produced parts (e.g. loaded from
    /// disk); fragments are sorted by code and footprints recomputed from
    /// the trees themselves.
    pub fn from_parts(codes: Vec<DeweyCode>, trees: Vec<XmlTree>, truncated: bool) -> FragmentSet {
        assert_eq!(codes.len(), trees.len());
        let mut pairs: Vec<(Vec<u8>, XmlTree)> = codes.iter().map(encode_code).zip(trees).collect();
        pairs.sort_by(|a, b| flat_cmp(&a.0, &b.0));
        let mut set = FragmentSet {
            trees: Vec::with_capacity(pairs.len()),
            packed: PackedCodes::new(),
            total_bytes: 0,
            truncated,
        };
        for (code, tree) in pairs {
            set.total_bytes += tree.heap_size()
                + tree.len() * LOCAL_DEWEY_BYTES
                + code.len()
                + FRAGMENT_SLACK_BYTES;
            set.packed.push(&code);
            set.trees.push(Arc::new(tree));
        }
        set
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when no fragment was materialized.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Full storage footprint in bytes across fragments: tree heaps,
    /// per-node local Dewey components, and the code arena (with slack).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Whether the byte budget cut materialization short.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The fragment trees, in document order of their roots.
    pub fn trees(&self) -> &[Arc<XmlTree>] {
        &self.trees
    }

    /// Tree of fragment `i`.
    pub fn tree(&self, i: usize) -> &XmlTree {
        &self.trees[i]
    }

    /// Root code of fragment `i`, decoded (costs one bounded block decode
    /// in the packed arena plus the component decode).
    pub fn code(&self, i: usize) -> DeweyCode {
        decode_code(&self.packed.get(i)).expect("packed arena holds only canonical codes")
    }

    /// Root codes in document order (sequential decode, O(1) amortized).
    pub fn codes(&self) -> Codes<'_> {
        Codes {
            cursor: self.packed.cursor(),
        }
    }

    /// `(root code, fragment tree)` pairs in document order.
    pub fn entries(&self) -> impl Iterator<Item = (DeweyCode, &XmlTree)> {
        self.codes().zip(self.trees.iter().map(|t| &**t))
    }

    /// Index of the fragment rooted at exactly `code`, if any.
    pub fn index_of_code(&self, code: &DeweyCode) -> Option<usize> {
        self.packed.binary_search(&encode_code(code)).ok()
    }

    /// True when some fragment's tree contains the node at `code`: a
    /// fragment is rooted at `code` or at one of its ancestors. One
    /// arena search per prefix of `code`.
    pub fn contains_node(&self, code: &DeweyCode) -> bool {
        let comps = code.components();
        (1..=comps.len()).any(|k| {
            self.packed
                .binary_search(&encode_components(&comps[..k]))
                .is_ok()
        })
    }

    /// Root codes in front-coded byte-comparable form (ascending, in
    /// lockstep with [`FragmentSet::trees`]).
    pub fn packed_codes(&self) -> &PackedCodes {
        &self.packed
    }

    /// Retain only fragments whose index passes `keep`; preserves order
    /// and recomputes the footprint over the survivors.
    pub fn retain_indices(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.trees.len());
        let mut packed = PackedCodes::new();
        let mut total_bytes = 0usize;
        let mut cur = self.packed.cursor();
        let mut i = 0usize;
        while let Some(code) = cur.advance() {
            if keep[i] {
                packed.push(code);
                total_bytes += self.trees[i].heap_size()
                    + self.trees[i].len() * LOCAL_DEWEY_BYTES
                    + code.len()
                    + FRAGMENT_SLACK_BYTES;
            }
            i += 1;
        }
        let mut j = 0usize;
        self.trees.retain(|_| {
            let k = keep[j];
            j += 1;
            k
        });
        self.packed = packed;
        self.total_bytes = total_bytes;
    }
}

/// Iterator over a set's root codes; see [`FragmentSet::codes`].
pub struct Codes<'a> {
    cursor: crate::packed::Cursor<'a>,
}

impl Iterator for Codes<'_> {
    type Item = DeweyCode;

    fn next(&mut self) -> Option<DeweyCode> {
        self.cursor
            .advance()
            .map(|bytes| decode_code(bytes).expect("packed arena holds only canonical codes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::book_document;

    fn p_nodes(doc: &Document) -> Vec<NodeId> {
        let p = doc.labels.get("p").unwrap();
        doc.tree
            .iter()
            .filter(|&n| doc.tree.label(n) == p)
            .collect()
    }

    #[test]
    fn materializes_all_roots_when_budget_allows() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, 128 * 1024);
        assert_eq!(set.len(), 8);
        assert!(!set.truncated());
        assert!(set.total_bytes() > 0);
    }

    #[test]
    fn budget_truncates() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, 80);
        assert!(set.truncated());
        assert!(set.len() < 8);
        assert!(set.total_bytes() <= 80, "budget is a hard cap");
    }

    #[test]
    fn budget_zero_stores_nothing_and_truncates() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, 0);
        assert!(set.is_empty(), "budget 0 must admit no fragment");
        assert_eq!(set.total_bytes(), 0);
        assert!(set.truncated(), "an empty-by-budget set is incomplete");
    }

    /// Regression (streaming materialization): a budget that admits
    /// nothing must copy nothing. The pre-streaming implementation
    /// extracted every candidate subtree *before* checking the budget.
    #[test]
    fn budget_zero_performs_zero_extractions() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let (set, stats) = FragmentSet::materialize_with_stats(&doc, &roots, 0);
        assert!(set.is_empty());
        assert_eq!(
            stats.extractions, 0,
            "rejected fragments must not be cloned"
        );
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected, 1, "sizing stops at the first refusal");
        assert_eq!(stats.candidates, roots.len());
        // And when the budget admits everything, the tallies agree.
        let (full, full_stats) = FragmentSet::materialize_with_stats(&doc, &roots, usize::MAX);
        assert_eq!(full_stats.extractions, full.len());
        assert_eq!(full_stats.admitted, roots.len());
        assert_eq!(full_stats.rejected, 0);
    }

    /// Regression (footprint accounting): the reported total must cover
    /// every backing buffer — tree heaps, the packed code arena, and the
    /// per-node local-Dewey provision — not just the serialized text size.
    #[test]
    fn size_bytes_covers_all_backing_buffers() {
        let doc = book_document();
        let s = doc.labels.get("s").unwrap();
        let roots: Vec<NodeId> = doc
            .tree
            .iter()
            .filter(|&n| doc.tree.label(n) == s)
            .collect();
        let set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        let tree_heap: usize = set.trees().iter().map(|t| t.heap_size()).sum();
        let local_dewey: usize = set
            .trees()
            .iter()
            .map(|t| t.len() * LOCAL_DEWEY_BYTES)
            .sum();
        let backing = tree_heap + local_dewey + set.packed_codes().heap_size();
        assert!(
            set.total_bytes() >= backing,
            "total_bytes {} undercounts backing buffers {}",
            set.total_bytes(),
            backing
        );
    }

    #[test]
    fn footprint_matches_extracted_tree_exactly() {
        let doc = book_document();
        for n in doc.tree.iter() {
            let predicted = fragment_footprint(&doc, n);
            let tree = doc.tree.extract_subtree(n);
            let code = encode_code(&doc.dewey.code_of(&doc.tree, n));
            assert_eq!(
                predicted,
                tree.heap_size()
                    + tree.len() * LOCAL_DEWEY_BYTES
                    + code.len()
                    + FRAGMENT_SLACK_BYTES,
                "node {n:?}"
            );
        }
    }

    #[test]
    fn single_oversized_fragment_flags_truncated() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let first_sz = fragment_footprint(&doc, roots[0]);
        assert!(first_sz > 1);
        // Budget below the first fragment: nothing stored, truncated set.
        let set = FragmentSet::materialize(&doc, &roots, first_sz - 1);
        assert!(set.is_empty());
        assert!(
            set.truncated(),
            "a rejected first fragment must not report a complete set"
        );
    }

    #[test]
    fn exact_fit_budget_is_complete() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let full = FragmentSet::materialize(&doc, &roots, usize::MAX);
        assert!(!full.truncated());
        // total_bytes == byte_budget admits everything and stays complete.
        let exact = FragmentSet::materialize(&doc, &roots, full.total_bytes());
        assert_eq!(exact.len(), full.len());
        assert_eq!(exact.total_bytes(), full.total_bytes());
        assert!(!exact.truncated());
        // One byte less drops the last fragment and flags truncation.
        let short = FragmentSet::materialize(&doc, &roots, full.total_bytes() - 1);
        assert!(short.len() < full.len());
        assert!(short.truncated());
    }

    #[test]
    fn fragments_sorted_by_code() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        let codes: Vec<_> = set.codes().collect();
        assert_eq!(codes.len(), set.len());
        for w in codes.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(set.packed_codes().is_strictly_sorted());
    }

    #[test]
    fn fragment_preserves_subtree() {
        let doc = book_document();
        let s = doc.labels.get("s").unwrap();
        let sections: Vec<NodeId> = doc
            .tree
            .iter()
            .filter(|&n| doc.tree.label(n) == s)
            .collect();
        let set = FragmentSet::materialize(&doc, &sections, usize::MAX);
        for (tree, &src) in set.trees().iter().zip(sections.iter()) {
            // Sorted order equals input order here (sections collected in
            // document order), so pairing is valid.
            assert_eq!(tree.len(), doc.tree.subtree_size(src));
            assert_eq!(tree.label(tree.root()), s);
        }
    }

    #[test]
    fn packed_arena_tracks_fragments() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let mut set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        let check = |set: &FragmentSet| {
            assert_eq!(set.packed_codes().len(), set.len());
            assert!(set.packed_codes().is_strictly_sorted());
            for (i, code) in set.codes().enumerate() {
                assert_eq!(set.code(i), code);
                assert_eq!(set.index_of_code(&code), Some(i));
            }
            assert_eq!(set.entries().count(), set.len());
        };
        check(&set);
        // Mutators keep the arena in lockstep and re-account the total.
        let before = set.total_bytes();
        let keep: Vec<bool> = (0..set.len()).map(|i| i % 2 == 0).collect();
        set.retain_indices(&keep);
        check(&set);
        assert_eq!(set.len(), 4);
        assert!(set.total_bytes() < before);
        let trees = set.trees().iter().map(|t| XmlTree::clone(t)).collect();
        let rebuilt = FragmentSet::from_parts(set.codes().collect(), trees, false);
        check(&rebuilt);
        assert_eq!(rebuilt.total_bytes(), set.total_bytes());
    }

    /// Two overlapping views through one memo: the second shares every
    /// tree the first extracted and copies only the roots it adds, while
    /// its set equals an unshared materialization.
    #[test]
    fn overlapping_views_share_trees_and_extract_only_new_roots() {
        let doc = book_document();
        let s = doc.labels.get("s").unwrap();
        let all: Vec<NodeId> = doc
            .tree
            .iter()
            .filter(|&n| doc.tree.label(n) == s)
            .collect();
        let half = &all[..all.len() / 2];
        let mut memo = SubtreeMemo::new();
        let (first, first_stats) =
            FragmentSet::materialize_shared(&doc, half, usize::MAX, &mut memo);
        assert_eq!(first_stats.extractions, half.len());
        let (second, stats) = FragmentSet::materialize_shared(&doc, &all, usize::MAX, &mut memo);
        assert_eq!(stats.admitted, all.len());
        assert_eq!(stats.extractions, all.len() - half.len(), "only new roots");
        for (i, code) in first.codes().enumerate() {
            let j = second.index_of_code(&code).unwrap();
            assert!(Arc::ptr_eq(&first.trees()[i], &second.trees()[j]));
        }
        let (unshared, fresh) = FragmentSet::materialize_with_stats(&doc, &all, usize::MAX);
        assert_eq!(fresh.extractions, all.len());
        assert_eq!(unshared.total_bytes(), second.total_bytes());
        assert_eq!(unshared.trees(), second.trees());
        assert!(unshared.codes().eq(second.codes()));
    }

    /// The memo holds its trees weakly: once no set keeps a tree, the
    /// next materialization extracts it again.
    #[test]
    fn memo_does_not_keep_dropped_trees_alive() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let mut memo = SubtreeMemo::new();
        let (set, _) = FragmentSet::materialize_shared(&doc, &roots, usize::MAX, &mut memo);
        drop(set);
        let (_, stats) = FragmentSet::materialize_shared(&doc, &roots, usize::MAX, &mut memo);
        assert_eq!(stats.extractions, roots.len());
    }

    #[test]
    fn contains_node_finds_fragments_rooted_at_ancestors_or_self() {
        let doc = book_document();
        let s = doc.labels.get("s").unwrap();
        // Top-level sections only: `/b/s`.
        let roots: Vec<NodeId> = doc
            .tree
            .children(doc.tree.root())
            .filter(|&n| doc.tree.label(n) == s)
            .collect();
        let set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            let inside = roots.iter().any(|&r| doc.tree.is_ancestor_or_self(r, n));
            assert_eq!(set.contains_node(&code), inside, "{code}");
        }
    }

    #[test]
    fn fragment_code_decodes_to_base_path() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        let p = doc.labels.get("p").unwrap();
        for code in set.codes() {
            let path = doc.fst.decode(code.components()).unwrap();
            assert_eq!(*path.last().unwrap(), p);
        }
    }
}
