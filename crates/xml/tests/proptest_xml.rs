//! Property tests for the XML substrate: parser/serializer round-trips and
//! the extended-Dewey/FST invariants over random trees.

use proptest::prelude::*;

use xvr_xml::serializer::{serialize, serialize_pretty};
use xvr_xml::{
    parse_document, CodeStability, DeweyCode, Document, FragmentSet, LabelTable, NodeId, XmlTree,
};

/// A random tree over a small alphabet, as a recursive shape description.
#[derive(Debug, Clone)]
enum Shape {
    Leaf(u8, Option<String>),
    Node(u8, Vec<Shape>),
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = (0u8..5, prop::option::of("[a-z<&\" ]{0,8}")).prop_map(|(l, t)| Shape::Leaf(l, t));
    leaf.prop_recursive(4, 32, 4, |inner| {
        (0u8..5, prop::collection::vec(inner, 1..4)).prop_map(|(l, c)| Shape::Node(l, c))
    })
}

fn build(shape: &Shape) -> (LabelTable, XmlTree) {
    let mut labels = LabelTable::new();
    for name in ["a", "b", "c", "d", "e", "id"] {
        labels.intern(name);
    }
    let mut tree = XmlTree::new();
    fn add(tree: &mut XmlTree, labels: &LabelTable, parent: Option<xvr_xml::NodeId>, s: &Shape) {
        let names = ["a", "b", "c", "d", "e"];
        match s {
            Shape::Leaf(l, text) => {
                let label = labels.get(names[*l as usize % 5]).unwrap();
                let n = match parent {
                    Some(p) => tree.add_child(p, label),
                    None => tree.add_root(label),
                };
                if let Some(t) = text {
                    if !t.trim().is_empty() {
                        tree.set_text(n, t.trim());
                    }
                }
            }
            Shape::Node(l, children) => {
                let label = labels.get(names[*l as usize % 5]).unwrap();
                let n = match parent {
                    Some(p) => tree.add_child(p, label),
                    None => tree.add_root(label),
                };
                for c in children {
                    add(tree, labels, Some(n), c);
                }
            }
        }
    }
    add(&mut tree, &labels, None, shape);
    (labels, tree)
}

/// Structural signature: (label-path names, text) per node in preorder.
fn signature(labels: &LabelTable, tree: &XmlTree) -> Vec<(Vec<String>, Option<String>)> {
    tree.iter()
        .map(|n| {
            (
                tree.label_path(n)
                    .iter()
                    .map(|&l| labels.name(l).to_owned())
                    .collect(),
                tree.text(n).map(str::to_owned),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → parse is the identity on structure and text.
    #[test]
    fn serialize_parse_round_trip(s in shape()) {
        let (labels, tree) = build(&s);
        let xml = serialize(&tree, &labels);
        let doc = parse_document(&xml).unwrap();
        prop_assert_eq!(
            signature(&labels, &tree),
            signature(&doc.labels, &doc.tree)
        );
    }

    /// The pretty serializer parses back to the same structure too.
    #[test]
    fn pretty_round_trip(s in shape()) {
        let (labels, tree) = build(&s);
        let xml = serialize_pretty(&tree, &labels);
        let doc = parse_document(&xml).unwrap();
        prop_assert_eq!(tree.len(), doc.tree.len());
    }

    /// Extended Dewey: decode(code(n)) equals the label path of n, and
    /// lexicographic code order equals document order, on random trees.
    #[test]
    fn dewey_invariants(s in shape()) {
        let (labels, tree) = build(&s);
        let doc = Document::from_tree(labels, tree);
        let mut prev: Option<xvr_xml::DeweyCode> = None;
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            prop_assert_eq!(
                doc.fst.decode(code.components()).unwrap(),
                doc.tree.label_path(n)
            );
            if let Some(p) = &prev {
                prop_assert!(p < &code, "{} !< {}", p, code);
            }
            prev = Some(code);
        }
    }

    /// Fragment extraction preserves subtree structure for every node, and
    /// the document's footprint column equals the extraction accounting
    /// for every node: after `from_tree`, after an append that keeps the
    /// codes, and after one that re-encodes the document.
    #[test]
    fn subtree_extraction(s in shape()) {
        let (labels, tree) = build(&s);
        let mut doc = Document::from_tree(labels, tree);
        check_footprints(&doc)?;
        // Stable: a copy of a child subtree under its own parent uses only
        // known label pairs.
        let parent = doc.tree.iter().find(|&n| doc.tree.has_children(n));
        if let Some(n) = parent {
            let copy = doc.tree.extract_subtree(doc.tree.last_child(n).unwrap());
            let (_, stability) = doc.append_subtree(n, &copy);
            prop_assert_eq!(stability, CodeStability::Stable);
            check_footprints(&doc)?;
        }
        // Re-encoding: a label never seen under any parent, with text and
        // attributes, under a node deep in the tree.
        let z = doc.labels.intern("z");
        let id = doc.labels.get("id").unwrap();
        let mut sub = XmlTree::new();
        let r = sub.add_root(z);
        sub.add_attr(r, id, "k1");
        sub.add_attr(r, id, "second");
        let c = sub.add_child(r, z);
        sub.set_text(c, "payload");
        let deep = doc.tree.iter().max_by_key(|&n| doc.tree.depth(n)).unwrap();
        let (_, stability) = doc.append_subtree(deep, &sub);
        prop_assert_eq!(stability, CodeStability::Reencoded);
        check_footprints(&doc)?;
    }

    /// A view's fragment code arena against the roots it admitted, over
    /// random documents and budgets: strictly sorted, decoding to the
    /// admitted roots' codes in document order, and answering
    /// `index_of_code` and `contains_node` for every node of the document
    /// as a linear scan over the admitted roots does, with `total_bytes`
    /// covering every buffer the set holds.
    #[test]
    fn fragment_code_lookups_match_linear_scan(
        s in shape(),
        label in 0u8..5,
        budget in prop::option::of(0usize..2048),
    ) {
        use xvr_xml::fragment::LOCAL_DEWEY_BYTES;
        let (labels, tree) = build(&s);
        let doc = Document::from_tree(labels, tree);
        let l = doc.labels.get(["a", "b", "c", "d", "e"][label as usize]).unwrap();
        let roots: Vec<NodeId> = doc.tree.iter().filter(|&n| doc.tree.label(n) == l).collect();
        let set = FragmentSet::materialize(&doc, &roots, budget.unwrap_or(usize::MAX));
        prop_assert!(set.flat_codes().is_strictly_sorted());
        // Admission stops at the first refusal, so it keeps a prefix of
        // the roots, which are in document order.
        let admitted = &roots[..set.len()];
        let codes: Vec<DeweyCode> = admitted
            .iter()
            .map(|&r| doc.dewey.code_of(&doc.tree, r))
            .collect();
        prop_assert_eq!(set.codes().collect::<Vec<_>>(), codes.clone());
        // The budget's charge covers every buffer the set holds, the
        // exact-size arena included.
        if !set.is_empty() {
            let trees: usize = set
                .trees()
                .iter()
                .map(|t| t.heap_size() + t.len() * LOCAL_DEWEY_BYTES)
                .sum();
            prop_assert!(set.total_bytes() >= trees + set.flat_codes().heap_size());
        }
        for n in doc.tree.iter() {
            let code = doc.dewey.code_of(&doc.tree, n);
            prop_assert_eq!(set.index_of_code(&code), codes.iter().position(|c| *c == code));
            let inside = admitted.iter().any(|&r| doc.tree.is_ancestor_or_self(r, n));
            prop_assert_eq!(set.contains_node(&code), inside, "node {}", code);
        }
    }
}

/// Every node's column entry and [`xvr_xml::fragment_footprint`] against
/// the extracted subtree's own accounting.
fn check_footprints(doc: &Document) -> Result<(), TestCaseError> {
    use xvr_xml::fragment::{FRAGMENT_SLACK_BYTES, LOCAL_DEWEY_BYTES};
    for n in doc.tree.iter() {
        let sub = doc.tree.extract_subtree(n);
        prop_assert_eq!(sub.len(), doc.tree.subtree_size(n));
        prop_assert_eq!(sub.label(sub.root()), doc.tree.label(n));
        let tree_bytes = sub.heap_size() + sub.len() * LOCAL_DEWEY_BYTES;
        prop_assert_eq!(doc.subtree_footprint(n), tree_bytes);
        prop_assert_eq!(
            xvr_xml::fragment_footprint(doc, n),
            tree_bytes
                + xvr_xml::encode_code(&doc.dewey.code_of(&doc.tree, n)).len()
                + FRAGMENT_SLACK_BYTES
        );
    }
    Ok(())
}

/// One Dewey component spanning every varint class of the flat encoding:
/// a class draw picks the byte width, a raw draw the value within it
/// (small single-byte components stay the most likely, as in real codes).
fn component() -> impl Strategy<Value = u32> {
    (0u8..8, 0u32..u32::MAX).prop_map(|(class, raw)| match class {
        0..=3 => raw % (1 << 7),
        4 => (1 << 7) + raw % ((1 << 14) - (1 << 7)),
        5 => (1 << 14) + raw % ((1 << 21) - (1 << 14)),
        6 => (1 << 21) + raw % ((1 << 28) - (1 << 21)),
        _ => (1u32 << 28).wrapping_add(raw % (u32::MAX - (1 << 28))),
    })
}

/// A full code: empty codes are in-domain on purpose (edge case of the
/// prefix/ordering laws).
fn code() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(component(), 0..12)
}

/// A pair of codes biased toward shared prefixes and siblings — the cases
/// where a broken encoding would misorder or misjudge ancestry.
fn related_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (code(), code(), code(), any::<bool>()).prop_map(|(common, s1, s2, sibling)| {
        let mut a = common.clone();
        let mut b = common;
        a.extend_from_slice(&s1);
        if sibling {
            // Perturb the first divergent component to force a sibling
            // split right at the shared-prefix boundary.
            b.extend(s2.iter().map(|&c| c ^ 1));
        } else {
            b.extend_from_slice(&s2);
        }
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flat encoding round-trips: components → flat bytes → components.
    #[test]
    fn flat_roundtrip(comps in code()) {
        let bytes = xvr_xml::flat::encode_components(&comps);
        prop_assert_eq!(xvr_xml::flat::decode_components(&bytes), Some(comps.clone()));
        // The incremental iterator agrees and yields prefix boundaries.
        let parts: Vec<(u32, usize)> = xvr_xml::flat::components(&bytes).collect();
        prop_assert_eq!(parts.iter().map(|&(v, _)| v).collect::<Vec<u32>>(), comps.clone());
        for (k, &(_, end)) in parts.iter().enumerate() {
            prop_assert_eq!(
                xvr_xml::flat::decode_components(&bytes[..end]),
                Some(comps[..=k].to_vec())
            );
        }
    }

    /// Flat byte comparison equals the reference per-component comparator,
    /// and byte-prefix equals ancestor-or-self, on arbitrary pairs.
    #[test]
    fn flat_comparator_equivalence(a in code(), b in code()) {
        let (ca, cb) = (xvr_xml::DeweyCode(a), xvr_xml::DeweyCode(b));
        let (fa, fb) = (xvr_xml::encode_code(&ca), xvr_xml::encode_code(&cb));
        prop_assert_eq!(xvr_xml::flat_cmp(&fa, &fb), ca.cmp(&cb));
        prop_assert_eq!(xvr_xml::flat_is_prefix(&fa, &fb), ca.is_ancestor_or_self_of(&cb));
        prop_assert_eq!(xvr_xml::flat_is_prefix(&fb, &fa), cb.is_ancestor_or_self_of(&ca));
    }

    /// Same laws on pairs engineered to share prefixes or split as
    /// siblings at the boundary.
    #[test]
    fn flat_comparator_equivalence_related(pair in related_pair()) {
        let (ca, cb) = (xvr_xml::DeweyCode(pair.0), xvr_xml::DeweyCode(pair.1));
        let (fa, fb) = (xvr_xml::encode_code(&ca), xvr_xml::encode_code(&cb));
        prop_assert_eq!(xvr_xml::flat_cmp(&fa, &fb), ca.cmp(&cb));
        prop_assert_eq!(xvr_xml::flat_cmp(&fb, &fa), cb.cmp(&ca));
        prop_assert_eq!(xvr_xml::flat_is_prefix(&fa, &fb), ca.is_ancestor_or_self_of(&cb));
        prop_assert_eq!(xvr_xml::flat_is_prefix(&fb, &fa), cb.is_ancestor_or_self_of(&ca));
    }

    /// Galloping lower bound equals the linear lower bound on sorted
    /// arenas, from any valid starting point.
    #[test]
    fn gallop_equals_linear_lower_bound(
        mut codes in prop::collection::vec(code(), 0..40),
        key in code(),
    ) {
        codes.sort();
        codes.dedup();
        let arena: xvr_xml::FlatCodes = codes.iter().cloned().collect();
        let flat_key = xvr_xml::flat::encode_components(&key);
        let want = codes.iter().position(|c| c >= &key).unwrap_or(codes.len());
        let mut stats = xvr_xml::CmpStats::default();
        for from in 0..=want {
            prop_assert_eq!(arena.gallop_lower_bound(from, &flat_key, &mut stats), want);
        }
    }
}

/// A tree from a parent draw per node: seven draws in eight hang the node
/// under the previous one, so paths often run deeper than `STACK_DEPTH`;
/// the rest hang it under any earlier node.
fn drawn_tree(nodes: &[(usize, u8)]) -> (LabelTable, XmlTree) {
    let mut labels = LabelTable::new();
    let names = ["a", "b", "c"].map(|n| labels.intern(n));
    let mut tree = XmlTree::new();
    let mut ids = vec![tree.add_root(names[0])];
    for (k, &(draw, label)) in nodes.iter().enumerate() {
        let k = k + 1;
        let parent = if draw % 8 != 0 { k - 1 } else { (draw / 8) % k };
        ids.push(tree.add_child(ids[parent], names[label as usize % 3]));
    }
    (labels, tree)
}

/// `code_of` for every node against the ancestor walk, reversed; each code
/// sits in one exact-size allocation, and codes ascend in document order.
fn check_codes(doc: &Document) -> Result<(), TestCaseError> {
    let mut prev: Option<DeweyCode> = None;
    for n in doc.tree.iter() {
        let mut want: Vec<u32> = doc
            .tree
            .ancestors_or_self(n)
            .map(|a| doc.dewey.component(a))
            .collect();
        want.reverse();
        let code = doc.dewey.code_of(&doc.tree, n);
        prop_assert_eq!(code.components(), &want[..]);
        prop_assert_eq!(code.0.capacity(), code.len());
        if let Some(p) = &prev {
            prop_assert!(p < &code, "{} !< {}", p, code);
        }
        prev = Some(code);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `code_of` equals the ancestor-walk reference for every node: on
    /// trees deeper than its stack buffer, after an append that keeps the
    /// codes and after one that re-encodes the document. Appending under
    /// an inner node gives the new nodes the largest ids but not the last
    /// places in document order.
    #[test]
    fn code_of_matches_ancestor_walk(
        nodes in prop::collection::vec((0usize..1000, 0u8..3), 0..100),
        at in 0usize..1000,
    ) {
        let (labels, tree) = drawn_tree(&nodes);
        let mut doc = Document::from_tree(labels, tree);
        check_codes(&doc)?;
        let inner: Vec<NodeId> = doc.tree.iter().filter(|&n| doc.tree.has_children(n)).collect();
        if !inner.is_empty() {
            let n = inner[at % inner.len()];
            let copy = doc.tree.extract_subtree(doc.tree.last_child(n).unwrap());
            let (_, stability) = doc.append_subtree(n, &copy);
            prop_assert_eq!(stability, CodeStability::Stable);
            check_codes(&doc)?;
        }
        let z = doc.labels.intern("z");
        let mut sub = XmlTree::new();
        let r = sub.add_root(z);
        sub.add_child(r, z);
        let n = NodeId((at % doc.tree.len()) as u32);
        let (_, stability) = doc.append_subtree(n, &sub);
        prop_assert_eq!(stability, CodeStability::Reencoded);
        check_codes(&doc)?;
    }
}

/// A path longer than the stack buffer spills without losing a component.
#[test]
fn code_of_spills_past_the_stack_buffer() {
    let depth = 3 * xvr_xml::dewey::STACK_DEPTH;
    let nodes: Vec<(usize, u8)> = (0..depth).map(|k| (1, (k % 3) as u8)).collect();
    let (labels, tree) = drawn_tree(&nodes);
    let doc = Document::from_tree(labels, tree);
    let leaf = NodeId(depth as u32);
    assert_eq!(doc.tree.depth(leaf), depth);
    let code = doc.dewey.code_of(&doc.tree, leaf);
    assert_eq!(code.len(), depth + 1);
    assert_eq!(
        doc.fst.decode(code.components()).unwrap(),
        doc.tree.label_path(leaf)
    );
    check_codes(&doc).unwrap();
}
