//! Materialized view fragments.
//!
//! A materialized XPath view stores, for every binding of its answer node,
//! the **XML fragment** (subtree) rooted there together with the root's
//! extended Dewey code. The code is what lets the rewriting stage join
//! fragments of different views and reason about their ancestor label-paths
//! without touching the base document (Section V of the paper).
//!
//! Storage layout: the subtree copies are immutable [`XmlTree`]s behind
//! [`Arc`]s (struct-of-arrays inside each tree), and the root codes live in
//! one exact-size [`FlatCodes`] arena, sorted in document order and in
//! lockstep with the tree list. Readers (the holistic join's refinement,
//! global-code translation, code lookups) borrow a root code straight out
//! of the arena as a byte slice.
//!
//! Materialization is **streaming**: each candidate root's full storage
//! footprint is read from the document's footprint column
//! ([`Document::subtree_footprint`]) *before* any subtree is copied, so
//! sizing costs O(1) per root and a fragment the budget rejects is never
//! walked or extracted at all.
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
use crate::flat::{components, decode_code, encode_code, flat_cmp, FlatCodes};
use crate::tree::{Document, NodeId, XmlTree};

/// Fixed per-node tree storage: the five `u32` columns of
/// [`XmlTree`]'s struct-of-arrays layout.
pub const NODE_BYTES: usize = 20;

/// Per-node charge for the local extended-Dewey component the engine
/// assigns to every fragment tree (`MaterializedView::local_dewey`).
pub const LOCAL_DEWEY_BYTES: usize = 4;

/// Per-fragment slack for the code arena: the fragment's 4-byte offset
/// entry, with room to spare.
pub const FRAGMENT_SLACK_BYTES: usize = 8;

/// Full storage footprint the fragment rooted at `node` *would* occupy if
/// materialized, computed from the base document without extracting
/// anything: the subtree's tree heap and per-node local Dewey component
/// (one read of [`Document::subtree_footprint`]), the encoded root code,
/// and the arena slack.
pub fn fragment_footprint(doc: &Document, node: NodeId) -> usize {
    let code = encode_code(&doc.dewey.code_of(&doc.tree, node));
    fragment_charge(doc.subtree_footprint(node), &code)
}

/// What the budget charges one fragment: its tree footprint (tree heap
/// plus [`LOCAL_DEWEY_BYTES`] per node, as [`Document::subtree_footprint`]
/// reads it), its encoded root code, and [`FRAGMENT_SLACK_BYTES`].
fn fragment_charge(tree_footprint: usize, code: &[u8]) -> usize {
    tree_footprint + code.len() + FRAGMENT_SLACK_BYTES
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
/// order): shared subtree trees plus one flat arena of their root codes.
#[derive(Clone, Debug, Default)]
pub struct FragmentSet {
    /// Fragment trees, in ascending root-code order. Immutable once built,
    /// and shared with every other set materialized through the same
    /// [`SubtreeMemo`] that admitted the same root.
    trees: Vec<Arc<XmlTree>>,
    /// Root codes, strictly ascending, in lockstep with `trees`. Built at
    /// its exact size. The rewriting stage slices refined code lists and
    /// global codes out of it; lookups binary-search it.
    codes: FlatCodes,
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
            let sz = fragment_charge(doc.subtree_footprint(r), &code);
            if total_bytes + sz > byte_budget {
                truncated = true;
                stats.rejected += 1;
                break;
            }
            total_bytes += sz;
            admitted.push((code, r));
            stats.admitted += 1;
        }
        // Sort by code (byte order = document order), then extract in
        // that order, so the arena and the tree list stay in lockstep.
        admitted.sort_by(|a, b| flat_cmp(&a.0, &b.0));
        let set = FragmentSet {
            codes: exact_arena(&admitted),
            trees: admitted
                .iter()
                .map(|&(_, r)| memo.tree(doc, r, &mut stats))
                .collect(),
            total_bytes,
            truncated,
        };
        (set, stats)
    }

    /// Assemble a set from externally produced parts (e.g. loaded from
    /// disk); fragments are sorted by code and footprints recomputed from
    /// the trees themselves. `Err` names a root code listed twice: the
    /// arena must be strictly sorted for lookups and the join to hold.
    pub fn from_parts(
        codes: Vec<DeweyCode>,
        trees: Vec<XmlTree>,
        truncated: bool,
    ) -> Result<FragmentSet, DeweyCode> {
        assert_eq!(codes.len(), trees.len());
        let mut pairs: Vec<(Vec<u8>, XmlTree)> = codes.iter().map(encode_code).zip(trees).collect();
        pairs.sort_by(|a, b| flat_cmp(&a.0, &b.0));
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(decode_code(&w[0].0).expect("encoded from a DeweyCode"));
        }
        let total_bytes = pairs
            .iter()
            .map(|(code, tree)| {
                fragment_charge(tree.heap_size() + tree.len() * LOCAL_DEWEY_BYTES, code)
            })
            .sum();
        Ok(FragmentSet {
            codes: exact_arena(&pairs),
            trees: pairs.into_iter().map(|(_, tree)| Arc::new(tree)).collect(),
            total_bytes,
            truncated,
        })
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
    /// For a non-empty set this covers the arena's actual heap, which is
    /// built at its exact size.
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

    /// Root code of fragment `i`, decoded out of the arena.
    pub fn code(&self, i: usize) -> DeweyCode {
        decode(self.codes.get(i))
    }

    /// Root codes in document order, decoded.
    pub fn codes(&self) -> impl Iterator<Item = DeweyCode> + '_ {
        self.codes.iter().map(decode)
    }

    /// `(root code, fragment tree)` pairs in document order.
    pub fn entries(&self) -> impl Iterator<Item = (DeweyCode, &XmlTree)> {
        self.codes().zip(self.trees.iter().map(|t| &**t))
    }

    /// Root codes in byte-comparable flat form: strictly ascending, in
    /// lockstep with [`FragmentSet::trees`].
    pub fn flat_codes(&self) -> &FlatCodes {
        &self.codes
    }

    /// Index of the fragment rooted at exactly `code`, if any.
    pub fn index_of_code(&self, code: &DeweyCode) -> Option<usize> {
        self.codes.binary_search(&encode_code(code)).ok()
    }

    /// True when some fragment's tree contains the node at `code`: a
    /// fragment is rooted at `code` or at one of its ancestors. One
    /// arena search per prefix of `code`; each prefix of the encoded code
    /// is the encoded code of that ancestor.
    pub fn contains_node(&self, code: &DeweyCode) -> bool {
        let bytes = encode_code(code);
        components(&bytes).any(|(_, end)| self.codes.binary_search(&bytes[..end]).is_ok())
    }
}

/// Decode a root code the arena holds (always canonical: it was encoded
/// from a [`DeweyCode`]).
fn decode(bytes: &[u8]) -> DeweyCode {
    decode_code(bytes).expect("the code arena holds only canonical codes")
}

/// The codes of sorted `(code, _)` pairs in an arena of exactly their
/// size, so that its heap is what [`FragmentSet::total_bytes`] charges.
fn exact_arena<T>(pairs: &[(Vec<u8>, T)]) -> FlatCodes {
    let bytes = pairs.iter().map(|(code, _)| code.len()).sum();
    let mut arena = FlatCodes::with_capacity(pairs.len(), bytes);
    for (code, _) in pairs {
        arena.push_encoded(code);
    }
    arena
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
    /// every backing buffer — tree heaps, the code arena, and the
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
        let backing = tree_heap + local_dewey + set.flat_codes().heap_size();
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
        assert!(set.flat_codes().is_strictly_sorted());
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
    fn code_arena_tracks_fragments() {
        let doc = book_document();
        let roots = p_nodes(&doc);
        let set = FragmentSet::materialize(&doc, &roots, usize::MAX);
        let check = |set: &FragmentSet| {
            assert_eq!(set.flat_codes().len(), set.len());
            assert!(set.flat_codes().is_strictly_sorted());
            for (i, code) in set.codes().enumerate() {
                assert_eq!(set.code(i), code);
                assert_eq!(set.index_of_code(&code), Some(i));
            }
            assert_eq!(set.entries().count(), set.len());
        };
        check(&set);
        // Reassembled from its parts in reverse, the set is the same.
        let mut codes: Vec<DeweyCode> = set.codes().collect();
        let mut trees: Vec<XmlTree> = set.trees().iter().map(|t| XmlTree::clone(t)).collect();
        codes.reverse();
        trees.reverse();
        let rebuilt = FragmentSet::from_parts(codes.clone(), trees.clone(), false).unwrap();
        check(&rebuilt);
        assert_eq!(rebuilt.flat_codes(), set.flat_codes());
        assert_eq!(rebuilt.total_bytes(), set.total_bytes());
        // A root code listed twice is refused, and named.
        codes.push(codes[2].clone());
        trees.push(trees[2].clone());
        assert_eq!(
            FragmentSet::from_parts(codes.clone(), trees, false).unwrap_err(),
            codes[2]
        );
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
