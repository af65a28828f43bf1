//! Extended Dewey codes (Lu et al., VLDB 2005).
//!
//! Every node gets an integer component; the full code of a node is the
//! sequence of components on the path from the root. Components are chosen
//! so that `component mod |CT(parent label)|` equals the index of the node's
//! label within the parent's child alphabet — which is exactly what lets the
//! [`Fst`] decode a code back into a label-path. Components also
//! increase strictly across siblings, so lexicographic code order is document
//! order, the property the holistic joins rely on.

use std::cmp::Ordering;
use std::fmt;

use crate::fst::Fst;
use crate::tree::{NodeId, XmlTree};

/// A full extended Dewey code: one component per node on the root path.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DeweyCode(pub Vec<u32>);

impl DeweyCode {
    /// Components, root first.
    pub fn components(&self) -> &[u32] {
        &self.0
    }

    /// Number of components = depth + 1.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the (impossible in practice) empty code.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Code of the parent node, or `None` for the root code.
    pub fn parent(&self) -> Option<DeweyCode> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(DeweyCode(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// True iff `self` is a proper prefix of `other`, i.e. `self`'s node is a
    /// proper ancestor of `other`'s node.
    pub fn is_proper_ancestor_of(&self, other: &DeweyCode) -> bool {
        self.0.len() < other.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// True iff `self`'s node is `other`'s node or an ancestor of it.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyCode) -> bool {
        self.0.len() <= other.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Length of the longest common prefix with `other` — the code of the
    /// lowest common ancestor.
    pub fn common_prefix_len(&self, other: &DeweyCode) -> usize {
        self.0
            .iter()
            .zip(other.0.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The lowest common ancestor's code.
    pub fn lca(&self, other: &DeweyCode) -> DeweyCode {
        DeweyCode(self.0[..self.common_prefix_len(other)].to_vec())
    }
}

impl PartialOrd for DeweyCode {
    fn partial_cmp(&self, other: &DeweyCode) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeweyCode {
    /// Lexicographic order = document order (ancestors before descendants).
    fn cmp(&self, other: &DeweyCode) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl fmt::Debug for DeweyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for DeweyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", c)?;
        }
        Ok(())
    }
}

impl From<Vec<u32>> for DeweyCode {
    fn from(v: Vec<u32>) -> DeweyCode {
        DeweyCode(v)
    }
}

impl std::str::FromStr for DeweyCode {
    type Err = std::num::ParseIntError;

    /// Parse the dotted display form, e.g. `"0.8.6"`.
    fn from_str(s: &str) -> Result<DeweyCode, Self::Err> {
        s.split('.')
            .map(str::parse)
            .collect::<Result<Vec<u32>, _>>()
            .map(DeweyCode)
    }
}

/// The per-node component assignment for a whole document.
///
/// Only the node's *own* component is stored (4 bytes/node); full codes are
/// assembled on demand by walking the parent chain.
#[derive(Clone, Debug)]
pub struct DeweyAssignment {
    components: Vec<u32>,
}

impl DeweyAssignment {
    /// Assign extended Dewey components to every node of `tree` under the
    /// child alphabets of `fst`.
    ///
    /// For each parent `p` with `m = |CT(label(p))|`, the `i`-th child with
    /// label index `k` receives the smallest value that is `≡ k (mod m)` and
    /// strictly greater than the previous sibling's value (or the smallest
    /// non-negative such value for the first child).
    pub fn assign(tree: &XmlTree, fst: &Fst) -> DeweyAssignment {
        let mut components = vec![0u32; tree.len()];
        if tree.is_empty() {
            return DeweyAssignment { components };
        }
        for node in tree.iter() {
            let m = fst.fanout(tree.label(node));
            let mut prev: Option<u32> = None;
            for child in tree.children(node) {
                let k = fst
                    .child_index(tree.label(node), tree.label(child))
                    .expect("FST must cover every parent/child label pair in the tree");
                debug_assert!(m > 0);
                let value = match prev {
                    None => k,
                    Some(p) => {
                        // Smallest x > p with x ≡ k (mod m).
                        let base = p + 1;
                        base + (k + m - (base % m)) % m
                    }
                };
                components[child.index()] = value;
                prev = Some(value);
            }
        }
        DeweyAssignment { components }
    }

    /// Extend the assignment after an append that kept the FST alphabets
    /// unchanged: assign components to `new_root` (the appended child of
    /// `parent`) and its subtree. Existing components are untouched.
    pub fn extend_for_append(
        &mut self,
        tree: &XmlTree,
        fst: &Fst,
        parent: NodeId,
        new_root: NodeId,
    ) {
        self.components.resize(tree.len(), 0);
        // The appended node is the last child: its component must exceed
        // its predecessor's and hit the right residue.
        debug_assert_eq!(tree.last_child(parent), Some(new_root));
        let m = fst.fanout(tree.label(parent));
        let k = fst
            .child_index(tree.label(parent), tree.label(new_root))
            .expect("stable append requires a known label pair");
        let mut prev_sib: Option<NodeId> = None;
        for c in tree.children(parent) {
            if c == new_root {
                break;
            }
            prev_sib = Some(c);
        }
        let value = match prev_sib {
            None => k,
            Some(prev) => {
                let base = self.components[prev.index()] + 1;
                base + (k + m - (base % m)) % m
            }
        };
        self.components[new_root.index()] = value;
        // Fresh assignment inside the new subtree.
        for node in tree.descendants_or_self(new_root) {
            let m = fst.fanout(tree.label(node));
            let mut prev: Option<u32> = None;
            for child in tree.children(node) {
                let k = fst
                    .child_index(tree.label(node), tree.label(child))
                    .expect("stable append requires known label pairs");
                let value = match prev {
                    None => k,
                    Some(p) => {
                        let base = p + 1;
                        base + (k + m - (base % m)) % m
                    }
                };
                self.components[child.index()] = value;
                prev = Some(value);
            }
        }
    }

    /// The single component of `node` (the last component of its code).
    pub fn component(&self, node: NodeId) -> u32 {
        self.components[node.index()]
    }

    /// Assemble the full code of `node`.
    pub fn code_of(&self, tree: &XmlTree, node: NodeId) -> DeweyCode {
        let mut comps: Vec<u32> = tree
            .ancestors_or_self(node)
            .map(|n| self.component(n))
            .collect();
        comps.reverse();
        DeweyCode(comps)
    }

    /// Heap footprint in bytes.
    pub fn heap_size(&self) -> usize {
        self.components.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::book_document;

    #[test]
    fn sibling_components_strictly_increase() {
        let doc = book_document();
        for node in doc.tree.iter() {
            let mut prev: Option<u32> = None;
            for c in doc.tree.children(node) {
                let v = doc.dewey.component(c);
                if let Some(p) = prev {
                    assert!(v > p, "sibling components must strictly increase");
                }
                prev = Some(v);
            }
        }
    }

    #[test]
    fn component_mod_matches_child_index() {
        let doc = book_document();
        for node in doc.tree.iter() {
            let m = doc.fst.fanout(doc.tree.label(node));
            for c in doc.tree.children(node) {
                let k = doc
                    .fst
                    .child_index(doc.tree.label(node), doc.tree.label(c))
                    .unwrap();
                assert_eq!(doc.dewey.component(c) % m, k);
            }
        }
    }

    #[test]
    fn decode_recovers_label_path_for_every_node() {
        let doc = book_document();
        for node in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, node);
            let decoded = doc.fst.decode(code.components()).unwrap();
            assert_eq!(decoded, doc.tree.label_path(node), "node {:?}", node);
        }
    }

    #[test]
    fn code_order_is_document_order() {
        let doc = book_document();
        let codes: Vec<DeweyCode> = doc
            .tree
            .iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n))
            .collect();
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn ancestor_relations_via_codes() {
        let doc = book_document();
        let root_code = doc.dewey.code_of(&doc.tree, doc.tree.root());
        for node in doc.tree.iter().skip(1) {
            let code = doc.dewey.code_of(&doc.tree, node);
            assert!(root_code.is_proper_ancestor_of(&code));
            assert!(root_code.is_ancestor_or_self_of(&code));
            assert!(!code.is_proper_ancestor_of(&root_code));
            assert_eq!(
                code.parent().unwrap(),
                doc.dewey.code_of(&doc.tree, doc.tree.parent(node).unwrap())
            );
        }
    }

    #[test]
    fn lca_matches_tree_lca() {
        let doc = book_document();
        // Pick two leaves under the same grandparent and check the LCA code.
        let nodes: Vec<_> = doc.tree.iter().collect();
        for &a in nodes.iter().take(20) {
            for &b in nodes.iter().take(20) {
                let ca = doc.dewey.code_of(&doc.tree, a);
                let cb = doc.dewey.code_of(&doc.tree, b);
                let lca_code = ca.lca(&cb);
                // Find tree LCA by walking up.
                let mut anc = a;
                while !doc.tree.is_ancestor_or_self(anc, b) {
                    anc = doc.tree.parent(anc).unwrap();
                }
                assert_eq!(lca_code, doc.dewey.code_of(&doc.tree, anc));
            }
        }
    }

    #[test]
    fn display_and_parse_shape() {
        let code = DeweyCode(vec![0, 8, 6]);
        assert_eq!(code.to_string(), "0.8.6");
        assert_eq!(code.len(), 3);
        assert_eq!("0.8.6".parse::<DeweyCode>().unwrap(), code);
        assert!("0.x.6".parse::<DeweyCode>().is_err());
        assert!("".parse::<DeweyCode>().is_err());
    }
}
