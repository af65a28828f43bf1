//! Struct-of-arrays XML tree and the [`Document`] bundle.
//!
//! The paper models XML data as an unordered tree whose nodes carry a label
//! over a finite alphabet. We additionally keep text content and attributes
//! (needed for the paper's "comparison predicates" extension) but all
//! structural algorithms operate on labels only.
//!
//! # Storage layout
//!
//! The tree is stored as parallel arrays indexed by [`NodeId`]: one `Label`
//! plus four `u32` links (`parent`, `first_child`, `last_child`,
//! `next_sibling`) per node — 20 bytes of fixed cost instead of the ~88-byte
//! node struct (with a per-node child `Vec` and two more heap boxes) of the
//! original arena. Text and attributes are *sparse* in real corpora (XMark
//! leaves carry text; almost nothing carries attributes), so they live in
//! side maps keyed by node id rather than as per-node `Option`/`Vec` fields.
//! Child lists are implied by the `first_child`/`next_sibling` chain;
//! [`XmlTree::children`] is an iterator over that chain, and every traversal
//! in the crate works from the chain without materializing child vectors.

use std::collections::HashMap;

use crate::dewey::DeweyAssignment;
use crate::fragment::{LOCAL_DEWEY_BYTES, NODE_BYTES};
use crate::fst::Fst;
use crate::label::{Label, LabelTable};

/// Index of a node inside an [`XmlTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "no node" in the link arrays.
const NONE: u32 = u32::MAX;

/// An arena forming a single rooted tree, laid out struct-of-arrays.
///
/// The tree does not own a [`LabelTable`]; callers thread the table
/// alongside so that documents, fragments, and patterns can share one label
/// space (the paper's alphabet `L`).
///
/// Equality compares the columns and side maps, so two trees are equal
/// when they have the same labels, shape and payload under the same node
/// numbering (as two extractions of one subtree do).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct XmlTree {
    /// Element label per node, interned in the document's [`LabelTable`].
    labels: Vec<Label>,
    /// Parent link per node; `NONE` for the root.
    parents: Vec<u32>,
    /// First child in document order; `NONE` for leaves.
    first_child: Vec<u32>,
    /// Last child in document order; `NONE` for leaves (O(1) appends).
    last_child: Vec<u32>,
    /// Next sibling in document order; `NONE` for last children.
    next_sibling: Vec<u32>,
    /// Concatenated text content directly under an element. Sparse: most
    /// interior nodes carry no text, so this is a side map, not a column.
    texts: HashMap<u32, String>,
    /// Attributes as (name-label, value) pairs. Sparse like `texts`.
    attrs: HashMap<u32, Vec<(Label, String)>>,
}

#[inline]
fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

/// Heap bytes charged for one text entry: 4-byte map key + 24-byte
/// `String` header + payload.
#[inline]
fn text_entry_bytes(text: &str) -> usize {
    4 + 24 + text.len()
}

/// Heap bytes charged for one attribute-list entry: 4-byte map key +
/// 24-byte `Vec` header, then 4-byte label + 24-byte `String` header +
/// payload per attribute.
#[inline]
fn attrs_entry_bytes(attrs: &[(Label, String)]) -> usize {
    4 + 24 + attrs.iter().map(|(_, v)| 4 + 24 + v.len()).sum::<usize>()
}

impl XmlTree {
    /// Create an empty tree (no root yet).
    pub fn new() -> XmlTree {
        XmlTree::default()
    }

    /// Root node id.
    ///
    /// # Panics
    /// Panics on an empty tree.
    pub fn root(&self) -> NodeId {
        assert!(!self.labels.is_empty(), "empty XmlTree has no root");
        NodeId(0)
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the tree has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of `id`.
    #[inline]
    pub fn label(&self, id: NodeId) -> Label {
        self.labels[id.index()]
    }

    /// Parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.parents[id.index()])
    }

    /// First child of `id` in document order.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        link(self.first_child[id.index()])
    }

    /// Last child of `id` in document order.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        link(self.last_child[id.index()])
    }

    /// Next sibling of `id` in document order.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        link(self.next_sibling[id.index()])
    }

    /// Children of `id` in document order (walks the sibling chain).
    #[inline]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: self.first_child(id),
        }
    }

    /// Number of children of `id` (walks the sibling chain).
    pub fn child_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// True iff `id` has at least one child.
    #[inline]
    pub fn has_children(&self, id: NodeId) -> bool {
        self.first_child[id.index()] != NONE
    }

    /// `i`-th child of `id` in document order, if present.
    pub fn child_at(&self, id: NodeId, i: usize) -> Option<NodeId> {
        self.children(id).nth(i)
    }

    /// Add the root element. Must be the first node added.
    pub fn add_root(&mut self, label: Label) -> NodeId {
        assert!(self.labels.is_empty(), "root already present");
        self.push_node(label, NONE);
        NodeId(0)
    }

    /// Append a child element under `parent`.
    pub fn add_child(&mut self, parent: NodeId, label: Label) -> NodeId {
        let id = self.push_node(label, parent.0);
        let prev_last = self.last_child[parent.index()];
        if prev_last == NONE {
            self.first_child[parent.index()] = id.0;
        } else {
            self.next_sibling[prev_last as usize] = id.0;
        }
        self.last_child[parent.index()] = id.0;
        id
    }

    fn push_node(&mut self, label: Label, parent: u32) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.parents.push(parent);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.next_sibling.push(NONE);
        id
    }

    /// Set the text content of `id` (replacing any previous text).
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) {
        self.texts.insert(id.0, text.into());
    }

    /// Text content of `id`, if any.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        self.texts.get(&id.0).map(String::as_str)
    }

    /// Append an attribute to `id`.
    pub fn add_attr(&mut self, id: NodeId, name: Label, value: impl Into<String>) {
        self.attrs
            .entry(id.0)
            .or_default()
            .push((name, value.into()));
    }

    /// Attributes of `id` as (name-label, value) pairs, document order.
    #[inline]
    pub fn attrs(&self, id: NodeId) -> &[(Label, String)] {
        self.attrs.get(&id.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Attribute value of `name` on `id`, if present.
    pub fn attr(&self, id: NodeId, name: Label) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Depth of `id`: the root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Iterate over `id` and its ancestors up to the root, nearest first.
    pub fn ancestors_or_self(&self, id: NodeId) -> AncestorsOrSelf<'_> {
        AncestorsOrSelf {
            tree: self,
            next: Some(id),
        }
    }

    /// True iff `anc` is a proper ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.parent(n);
        }
        false
    }

    /// True iff `anc` is `desc` or a proper ancestor of it.
    pub fn is_ancestor_or_self(&self, anc: NodeId, desc: NodeId) -> bool {
        anc == desc || self.is_ancestor(anc, desc)
    }

    /// Labels on the path from the root down to `id` (inclusive).
    pub fn label_path(&self, id: NodeId) -> Vec<Label> {
        let mut path: Vec<Label> = self.ancestors_or_self(id).map(|n| self.label(n)).collect();
        path.reverse();
        path
    }

    /// Pre-order (document-order) traversal of the subtree rooted at `id`.
    ///
    /// O(1) space: the successor of a node is its first child, else the
    /// next sibling of its nearest ancestor-or-self below `id`.
    pub fn descendants_or_self(&self, id: NodeId) -> DescendantsOrSelf<'_> {
        DescendantsOrSelf {
            tree: self,
            next: Some(id),
            top: id,
        }
    }

    /// Pre-order traversal of the whole tree.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let next = if self.is_empty() {
            None
        } else {
            Some(self.root())
        };
        DescendantsOrSelf {
            tree: self,
            next,
            top: NodeId(0),
        }
    }

    fn copy_payload(&mut self, dst: NodeId, src_tree: &XmlTree, src: NodeId) {
        if let Some(t) = src_tree.text(src) {
            self.set_text(dst, t);
        }
        let a = src_tree.attrs(src);
        if !a.is_empty() {
            self.attrs.insert(dst.0, a.to_vec());
        }
    }

    /// Deep-copy the subtree rooted at `root` into a fresh tree.
    ///
    /// Labels keep their identity (the label table is shared); the returned
    /// tree's root is the copy of `root`. Used to materialize view fragments.
    pub fn extract_subtree(&self, root: NodeId) -> XmlTree {
        let mut out = XmlTree::new();
        let new_root = out.add_root(self.label(root));
        out.copy_payload(new_root, self, root);
        // (source node, destination parent): pushing the sibling before the
        // first child makes the LIFO pop order exactly pre-order, so ids in
        // `out` are assigned in document order.
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        if let Some(fc) = self.first_child(root) {
            stack.push((fc, new_root));
        }
        while let Some((src, dst_parent)) = stack.pop() {
            let d = out.add_child(dst_parent, self.label(src));
            out.copy_payload(d, self, src);
            if let Some(sib) = self.next_sibling(src) {
                stack.push((sib, dst_parent));
            }
            if let Some(fc) = self.first_child(src) {
                stack.push((fc, d));
            }
        }
        out
    }

    /// Append a deep copy of `sub` (rooted at its root) as the last child
    /// of `parent`; returns the new child's id.
    pub fn append_subtree(&mut self, parent: NodeId, sub: &XmlTree) -> NodeId {
        let src_root = sub.root();
        let new_root = self.add_child(parent, sub.label(src_root));
        self.copy_payload(new_root, sub, src_root);
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        if let Some(fc) = sub.first_child(src_root) {
            stack.push((fc, new_root));
        }
        while let Some((src, dst_parent)) = stack.pop() {
            let d = self.add_child(dst_parent, sub.label(src));
            self.copy_payload(d, sub, src);
            if let Some(sib) = sub.next_sibling(src) {
                stack.push((sib, dst_parent));
            }
            if let Some(fc) = sub.first_child(src) {
                stack.push((fc, d));
            }
        }
        new_root
    }

    /// Count of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants_or_self(id).count()
    }

    /// Maximum depth over all nodes (root = 0); 0 for single-node trees.
    pub fn height(&self) -> usize {
        self.iter().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Total number of bytes of text content across all nodes.
    pub fn text_bytes(&self) -> usize {
        self.texts.values().map(String::len).sum()
    }

    /// Total attribute payload bytes (values only) across all nodes.
    pub fn attr_bytes(&self) -> usize {
        self.attrs
            .values()
            .flat_map(|v| v.iter())
            .map(|(_, val)| val.len())
            .sum()
    }

    /// Heap footprint of this tree in bytes.
    ///
    /// Deterministic accounting over the backing buffers (`len`-based, not
    /// `capacity`-based, so two structurally identical trees report the
    /// same size): 20 bytes per node for the five fixed columns, plus the
    /// sparse text/attribute maps charged at entry granularity (key +
    /// header + payload).
    pub fn heap_size(&self) -> usize {
        let texts: usize = self.texts.values().map(|t| text_entry_bytes(t)).sum();
        let attrs: usize = self.attrs.values().map(|a| attrs_entry_bytes(a)).sum();
        self.labels.len() * NODE_BYTES + texts + attrs
    }

    /// The share of [`XmlTree::heap_size`] that node `id` alone accounts
    /// for: its columns plus its text and attribute entries.
    fn node_heap_bytes(&self, id: NodeId) -> usize {
        NODE_BYTES
            + self.text(id).map_or(0, text_entry_bytes)
            + self.attrs.get(&id.0).map_or(0, |a| attrs_entry_bytes(a))
    }
}

/// Whether an append left previously issued extended Dewey codes valid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodeStability {
    /// Existing codes unchanged; only new nodes got fresh components.
    Stable,
    /// A child alphabet grew: moduli changed, the document was re-encoded,
    /// and all previously issued codes (including materialized fragments)
    /// are stale.
    Reencoded,
}

/// Iterator over the children of one node, in document order.
#[derive(Clone)]
pub struct Children<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.next_sibling(cur);
        Some(cur)
    }
}

/// Iterator over a node and its ancestors, nearest first.
pub struct AncestorsOrSelf<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl Iterator for AncestorsOrSelf<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

/// Pre-order iterator over a subtree, O(1) space via the sibling chain.
pub struct DescendantsOrSelf<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
    /// Subtree root: traversal never escapes it.
    top: NodeId,
}

impl Iterator for DescendantsOrSelf<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = if let Some(fc) = self.tree.first_child(cur) {
            Some(fc)
        } else {
            let mut n = cur;
            loop {
                if n == self.top {
                    break None;
                }
                if let Some(sib) = self.tree.next_sibling(n) {
                    break Some(sib);
                }
                n = self.tree.parent(n).expect("non-root node has a parent");
            }
        };
        Some(cur)
    }
}

/// A parsed-and-encoded XML document: the tree plus everything derived from
/// it that the rewriting machinery needs (label table, extended Dewey codes,
/// and the decoding FST).
#[derive(Clone, Debug)]
pub struct Document {
    /// Shared label space.
    pub labels: LabelTable,
    /// The element tree. Grow it only through [`Document::append_subtree`],
    /// which keeps the derived columns below in step.
    pub tree: XmlTree,
    /// Extended Dewey components per node.
    pub dewey: DeweyAssignment,
    /// Finite state transducer decoding Dewey codes to label-paths.
    pub fst: Fst,
    /// Subtree footprint per node; see [`Document::subtree_footprint`].
    footprints: Vec<usize>,
}

impl Document {
    /// Build a document from a tree and its label table, computing the
    /// extended Dewey assignment, the FST and the subtree footprints.
    pub fn from_tree(labels: LabelTable, tree: XmlTree) -> Document {
        let fst = Fst::from_tree(&tree, &labels);
        let dewey = DeweyAssignment::assign(&tree, &fst);
        let mut footprints = Vec::with_capacity(tree.len());
        extend_footprints(&tree, &mut footprints);
        Document {
            labels,
            tree,
            dewey,
            fst,
            footprints,
        }
    }

    /// Bytes the subtree rooted at `node` occupies as a materialized
    /// fragment tree, read from a column instead of walking the subtree:
    /// the tree heap, with the same per-entry accounting as
    /// [`XmlTree::heap_size`], plus the local Dewey component of every node
    /// (`LOCAL_DEWEY_BYTES`). It equals
    /// `extract_subtree(node).heap_size() + LOCAL_DEWEY_BYTES * size`.
    #[inline]
    pub fn subtree_footprint(&self, node: NodeId) -> usize {
        self.footprints[node.index()]
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the document has no elements.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The root's label.
    pub fn root_label(&self) -> Label {
        self.tree.label(self.tree.root())
    }

    /// Append a subtree under `parent`, maintaining the extended Dewey
    /// encoding. Returns the new node and whether existing codes survived:
    ///
    /// * if every (parent label, child label) pair of the update was
    ///   already in the FST's alphabets, existing components are stable —
    ///   only the new nodes received (larger) components;
    /// * otherwise a child alphabet grew, the moduli changed, and the
    ///   whole document was re-encoded — all previously issued codes are
    ///   invalid (the classic extended-Dewey update caveat).
    pub fn append_subtree(&mut self, parent: NodeId, sub: &XmlTree) -> (NodeId, CodeStability) {
        // Does the update introduce new child-alphabet entries?
        let mut grows = self
            .fst
            .child_index(self.tree.label(parent), sub.label(sub.root()))
            .is_none();
        if !grows {
            'outer: for n in sub.iter() {
                for c in sub.children(n) {
                    if self.fst.child_index(sub.label(n), sub.label(c)).is_none() {
                        grows = true;
                        break 'outer;
                    }
                }
            }
        }
        let new_node = self.tree.append_subtree(parent, sub);
        // The new subtree's footprints, then its total added to every
        // ancestor-or-self of the insertion point.
        extend_footprints(&self.tree, &mut self.footprints);
        let added = self.footprints[new_node.index()];
        for a in self.tree.ancestors_or_self(parent) {
            self.footprints[a.index()] += added;
        }
        if grows {
            self.fst = Fst::from_tree(&self.tree, &self.labels);
            self.dewey = DeweyAssignment::assign(&self.tree, &self.fst);
            (new_node, CodeStability::Reencoded)
        } else {
            // Stable path: extend the assignment for the new nodes only.
            self.dewey
                .extend_for_append(&self.tree, &self.fst, parent, new_node);
            (new_node, CodeStability::Stable)
        }
    }

    /// Locate a node by its extended Dewey code, walking component by
    /// component from the root. `None` when the code addresses no node of
    /// this document.
    pub fn node_by_code(&self, code: &crate::dewey::DeweyCode) -> Option<NodeId> {
        let comps = code.components();
        if comps.is_empty() || self.is_empty() {
            return None;
        }
        let mut cur = self.tree.root();
        if self.dewey.component(cur) != comps[0] {
            return None;
        }
        for &target in &comps[1..] {
            cur = self
                .tree
                .children(cur)
                .find(|&c| self.dewey.component(c) == target)?;
        }
        Some(cur)
    }
}

/// Extend the footprint column `col` to the nodes of `tree` it does not
/// cover yet, which must form one subtree (the whole tree, or one
/// appended subtree): each new node's own bytes, then, highest id first,
/// each added into its parent's within the subtree. Every node is created
/// after its parent (`add_child` pushes), so a parent's id is below its
/// children's and the descending pass sums whole subtrees bottom-up.
fn extend_footprints(tree: &XmlTree, col: &mut Vec<usize>) {
    let first = col.len();
    col.extend(
        (first..tree.len()).map(|n| tree.node_heap_bytes(NodeId(n as u32)) + LOCAL_DEWEY_BYTES),
    );
    for n in (first + 1..tree.len()).rev() {
        let p = tree.parents[n] as usize;
        debug_assert!(first <= p && p < n, "a parent precedes its children");
        col[p] += col[n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (LabelTable, XmlTree) {
        let mut t = LabelTable::new();
        let (a, b, c) = (t.intern("a"), t.intern("b"), t.intern("c"));
        let mut x = XmlTree::new();
        let r = x.add_root(a);
        let n1 = x.add_child(r, b);
        let _n2 = x.add_child(r, c);
        let _n3 = x.add_child(n1, c);
        (t, x)
    }

    #[test]
    fn build_and_navigate() {
        let (t, x) = small();
        let r = x.root();
        assert_eq!(x.len(), 4);
        assert_eq!(x.child_count(r), 2);
        let b = x.child_at(r, 0).unwrap();
        assert_eq!(t.name(x.label(b)), "b");
        assert_eq!(x.parent(b), Some(r));
        assert_eq!(x.depth(b), 1);
        let c_under_b = x.child_at(b, 0).unwrap();
        assert_eq!(x.depth(c_under_b), 2);
        assert_eq!(x.first_child(r), Some(b));
        assert_eq!(x.last_child(r), x.child_at(r, 1));
        assert_eq!(x.next_sibling(b), x.child_at(r, 1));
        assert_eq!(x.next_sibling(c_under_b), None);
    }

    #[test]
    fn ancestor_checks() {
        let (_, x) = small();
        let r = x.root();
        let b = x.child_at(r, 0).unwrap();
        let cb = x.child_at(b, 0).unwrap();
        assert!(x.is_ancestor(r, cb));
        assert!(x.is_ancestor(b, cb));
        assert!(!x.is_ancestor(cb, b));
        assert!(x.is_ancestor_or_self(cb, cb));
        assert!(!x.is_ancestor(cb, cb));
    }

    #[test]
    fn label_path_is_root_to_node() {
        let (t, x) = small();
        let b = x.child_at(x.root(), 0).unwrap();
        let cb = x.child_at(b, 0).unwrap();
        let names: Vec<&str> = x.label_path(cb).into_iter().map(|l| t.name(l)).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn preorder_is_document_order() {
        let (t, x) = small();
        let order: Vec<&str> = x.iter().map(|n| t.name(x.label(n))).collect();
        assert_eq!(order, vec!["a", "b", "c", "c"]);
    }

    #[test]
    fn descendants_stay_inside_subtree() {
        let (_, x) = small();
        let b = x.child_at(x.root(), 0).unwrap();
        // b's subtree is {b, c-under-b}; the traversal must not leak into
        // b's next sibling.
        let got: Vec<NodeId> = x.descendants_or_self(b).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], b);
        assert_eq!(got[1], x.child_at(b, 0).unwrap());
    }

    #[test]
    fn extract_subtree_copies_structure() {
        let (t, x) = small();
        let b = x.child_at(x.root(), 0).unwrap();
        let sub = x.extract_subtree(b);
        assert_eq!(sub.len(), 2);
        assert_eq!(t.name(sub.label(sub.root())), "b");
        let child = sub.child_at(sub.root(), 0).unwrap();
        assert_eq!(t.name(sub.label(child)), "c");
        assert_eq!(sub.parent(child), Some(sub.root()));
    }

    #[test]
    fn extract_subtree_assigns_preorder_ids() {
        let doc = crate::samples::book_document();
        let sub = doc.tree.extract_subtree(doc.tree.root());
        assert_eq!(sub.len(), doc.tree.len());
        // Pre-order position == id order in a freshly extracted tree.
        let order: Vec<NodeId> = sub.iter().collect();
        for (i, n) in order.iter().enumerate() {
            assert_eq!(n.index(), i);
        }
        // Labels match position-by-position with the source pre-order.
        let src_labels: Vec<Label> = doc.tree.iter().map(|n| doc.tree.label(n)).collect();
        let dst_labels: Vec<Label> = sub.iter().map(|n| sub.label(n)).collect();
        assert_eq!(src_labels, dst_labels);
    }

    #[test]
    fn attributes_and_text() {
        let mut t = LabelTable::new();
        let a = t.intern("a");
        let id = t.intern("id");
        let mut x = XmlTree::new();
        let r = x.add_root(a);
        x.add_attr(r, id, "k1");
        x.set_text(r, "hello");
        assert_eq!(x.attr(r, id), Some("k1"));
        assert_eq!(x.text(r), Some("hello"));
        assert_eq!(x.attr(r, a), None);
        assert_eq!(x.attrs(r).len(), 1);
    }

    #[test]
    fn heap_size_tracks_nodes_and_payload() {
        let (_, x) = small();
        assert_eq!(x.heap_size(), 4 * 20);
        let mut y = x.clone();
        y.set_text(y.root(), "hi");
        assert_eq!(y.heap_size(), 4 * 20 + 4 + 24 + 2);
    }

    #[test]
    fn node_by_code_round_trips() {
        let (t, x) = small();
        let doc = Document::from_tree(t, x);
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            assert_eq!(doc.node_by_code(&code), Some(n));
        }
        assert_eq!(doc.node_by_code(&crate::dewey::DeweyCode(vec![9, 9])), None);
        assert_eq!(doc.node_by_code(&crate::dewey::DeweyCode(vec![])), None);
    }

    #[test]
    fn append_with_known_labels_keeps_codes_stable() {
        let doc0 = crate::samples::book_document();
        let mut doc = doc0.clone();
        // Append another paragraph under section 0.8 — p is already in
        // CT(s), so existing codes must survive.
        let s_node = doc
            .node_by_code(&crate::dewey::DeweyCode(vec![0, 8]))
            .unwrap();
        let mut sub = XmlTree::new();
        sub.add_root(doc.labels.get("p").unwrap());
        let (new_node, stability) = doc.append_subtree(s_node, &sub);
        assert_eq!(stability, CodeStability::Stable);
        assert_eq!(doc.len(), doc0.len() + 1);
        // All old nodes keep their codes.
        for n in doc0.tree.iter() {
            assert_eq!(
                doc0.dewey.code_of(&doc0.tree, n),
                doc.dewey.code_of(&doc.tree, n)
            );
        }
        // The new node's code decodes correctly and sorts after siblings.
        let code = doc.dewey.code_of(&doc.tree, new_node);
        assert_eq!(
            doc.fst.decode(code.components()).unwrap(),
            doc.tree.label_path(new_node)
        );
        let n_sib = doc.tree.child_count(s_node);
        let prev = doc.tree.child_at(s_node, n_sib - 2).unwrap();
        assert!(doc.dewey.code_of(&doc.tree, prev) < code);
    }

    #[test]
    fn append_with_new_label_pair_reencodes() {
        let mut doc = crate::samples::book_document();
        // An author under a section is a new (s, a) pair → moduli change.
        let s_node = doc
            .node_by_code(&crate::dewey::DeweyCode(vec![0, 8]))
            .unwrap();
        let mut sub = XmlTree::new();
        sub.add_root(doc.labels.get("a").unwrap());
        let (_, stability) = doc.append_subtree(s_node, &sub);
        assert_eq!(stability, CodeStability::Reencoded);
        // Codes still decode correctly after the re-encode.
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            assert_eq!(
                doc.fst.decode(code.components()).unwrap(),
                doc.tree.label_path(n)
            );
        }
    }

    #[test]
    fn append_deep_subtree() {
        let mut doc = crate::samples::book_document();
        // Append a full section subtree (all label pairs known).
        let book = doc.tree.root();
        let existing_s = doc.tree.child_at(book, 4).unwrap();
        let sub = doc.tree.extract_subtree(existing_s);
        let (new_node, stability) = doc.append_subtree(book, &sub);
        assert_eq!(stability, CodeStability::Stable);
        // Every node (old and new) decodes correctly.
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            assert_eq!(
                doc.fst.decode(code.components()).unwrap(),
                doc.tree.label_path(n),
                "node {n:?}"
            );
        }
        assert_eq!(doc.tree.subtree_size(new_node), sub.len());
    }

    #[test]
    fn subtree_size_and_height() {
        let (_, x) = small();
        assert_eq!(x.subtree_size(x.root()), 4);
        assert_eq!(x.height(), 2);
        let b = x.child_at(x.root(), 0).unwrap();
        assert_eq!(x.subtree_size(b), 2);
    }
}
