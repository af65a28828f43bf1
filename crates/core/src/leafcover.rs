//! Leaf-cover and the multiple-view answerability criterion (Section IV-A).
//!
//! For a view `V` with a homomorphism `h : V → Q` mapping the view's answer
//! node to `m = h(RET(V))`, the *leaf-cover* `LC(V, Q)` says which parts of
//! `Q` can be verified from `V`'s materialized fragments alone:
//!
//! * `Δ` (the answer obligation) is covered iff `m` is an ancestor-or-self
//!   of `RET(Q)` — the query result can then be extracted from `V`'s
//!   fragments (condition 1 of the paper).
//! * an obligation node `n` (a leaf, or any node carrying attribute
//!   predicates) is covered iff
//!   - `n` is a descendant-or-self of `m`: the whole subtree under the
//!     fragment root is materialized, so every predicate under `m` can be
//!     checked directly (condition 2, first half); or
//!   - the predicates for `n` "hold on the view" (condition 2, second
//!     half), which we implement with a *sound* pinning rule — see below.
//!
//! A view set answers `Q` iff the union of its leaf-covers equals the
//! obligation set (the paper's `⋃ LC(V,Q) = LF(Q)` criterion).
//!
//! ### The pinning rule (soundness of "holds on view")
//!
//! The paper's Example 4.2 shows the trap: a view may guarantee that *some*
//! binding satisfies a branch predicate, while the query needs it at the
//! *joined* position. Our rule only claims coverage when the bindings are
//! forced to coincide: the branch must attach (in `Q`) at a node `q_att` on
//! the chain `root → m` that is connected to `m` by child edges only, and
//! the view must have a trunk node `v_att` connected to `RET(V)` by child
//! edges only **at the same distance** — then both bind to the unique
//! ancestor of the fragment root at that distance. From the attachment
//! downwards, the view must guarantee the branch pointwise: equal labels
//! (`*` in the query is free; `*` in the view guarantees nothing concrete),
//! view child edges may serve child or descendant query edges, view
//! descendant edges only descendant ones, and attribute predicates must be
//! implied. This never claims a coverage that can fail, at the price of
//! occasionally selecting one view more than strictly necessary.

use xvr_pattern::{homomorphisms_capped, Axis, PLabel, PNodeId, TreePattern};

/// What must be covered for a query to be answerable: its leaves, every
/// node with attribute predicates, and the answer (`Δ`).
#[derive(Clone, Debug)]
pub struct Obligations {
    /// Node obligations: leaves plus attribute-predicate carriers, deduped.
    pub nodes: Vec<PNodeId>,
}

impl Obligations {
    /// Compute the obligation set `LF(Q)` (extended with attribute
    /// carriers; the `Δ` obligation is implicit).
    pub fn of(q: &TreePattern) -> Obligations {
        let mut nodes = q.leaves();
        for n in q.ids() {
            if !q.node(n).attrs.is_empty() && !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        nodes.sort();
        Obligations { nodes }
    }

    /// Number of node obligations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always at least one (the root is a leaf in a 1-node pattern).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// An individual obligation (used in reporting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Obligation {
    /// The `Δ` obligation: the answer must be extractable.
    Answer,
    /// A node obligation.
    Node(PNodeId),
}

/// The leaf-cover of one view w.r.t. a query, for one answer-image `m`.
#[derive(Clone, Debug)]
pub struct LeafCover {
    /// `m = h(RET(V))`: the query node the view's answers bind to.
    pub m: PNodeId,
    /// Whether `Δ` is covered (the view can serve as the rewriting anchor).
    pub covers_answer: bool,
    /// Covered node obligations (subset of [`Obligations::nodes`]) under
    /// the *composable* pinning rule — safe to union across views.
    pub covered: Vec<PNodeId>,
    /// Covered obligations under the *solo* rule (trunk alignment,
    /// condition 3 of the paper): a superset of `covered`, valid **only**
    /// when this `(view, m)` unit answers the query alone.
    pub covered_solo: Vec<PNodeId>,
}

impl LeafCover {
    /// Number of composably covered obligations including `Δ`.
    pub fn coverage_size(&self) -> usize {
        self.covered.len() + usize::from(self.covers_answer)
    }

    /// Does this unit, used alone, answer a query with these obligations?
    pub fn answers_alone(&self, obligations: &Obligations) -> bool {
        self.covers_answer
            && obligations
                .nodes
                .iter()
                .all(|n| self.covered_solo.contains(n))
    }
}

/// All distinct leaf-covers of `v` w.r.t. `q` (one per distinct answer
/// image `m` over all homomorphisms `v → q`).
pub fn leaf_covers(v: &TreePattern, q: &TreePattern, obligations: &Obligations) -> Vec<LeafCover> {
    let mut images: Vec<PNodeId> = homomorphisms_capped(v, q, 512)
        .into_iter()
        .map(|h| h.image(v.answer()))
        .collect();
    images.sort();
    images.dedup();
    images
        .into_iter()
        .map(|m| leaf_cover(v, q, m, obligations))
        .collect()
}

/// The leaf-cover of `v` w.r.t. `q` for a specific answer image `m`.
///
/// `m` must be the image of `RET(v)` under some homomorphism `v → q`
/// (callers normally go through [`leaf_covers`]).
pub fn leaf_cover(
    v: &TreePattern,
    q: &TreePattern,
    m: PNodeId,
    obligations: &Obligations,
) -> LeafCover {
    let covers_answer = q.is_ancestor_or_self(m, q.answer());
    let covered: Vec<PNodeId> = obligations
        .nodes
        .iter()
        .copied()
        .filter(|&n| node_covered(v, q, m, n, false))
        .collect();
    let covered_solo: Vec<PNodeId> = obligations
        .nodes
        .iter()
        .copied()
        .filter(|&n| covered.contains(&n) || node_covered(v, q, m, n, true))
        .collect();
    LeafCover {
        m,
        covers_answer,
        covered,
        covered_solo,
    }
}

/// The leaf-cover of `v` used as a member of an *intersection* rewrite:
/// the answer image is pinned to `m = RET(Q)` itself, and coverage may
/// additionally use the **document-anchored prefix pinning** rule (see
/// `prefix_pinned_covered`), which is unavailable to the per-obligation
/// composable rule the greedy selection runs on. Returns `None` when no
/// homomorphism `v → q` maps `RET(v)` onto `RET(Q)` — the completeness
/// precondition of intersection rewriting (each member must contain the
/// query at the answer position, so its refined fragment-root set is a
/// superset of `ans(Q)`).
pub fn intersect_cover(
    v: &TreePattern,
    q: &TreePattern,
    obligations: &Obligations,
) -> Option<LeafCover> {
    let m = q.answer();
    let preserves_answer = homomorphisms_capped(v, q, 512)
        .iter()
        .any(|h| h.image(v.answer()) == m);
    if !preserves_answer {
        return None;
    }
    let covered: Vec<PNodeId> = obligations
        .nodes
        .iter()
        .copied()
        .filter(|&n| node_covered(v, q, m, n, false) || prefix_pinned_covered(v, q, m, n))
        .collect();
    Some(LeafCover {
        m,
        covers_answer: true,
        covered: covered.clone(),
        // The solo rule is never consulted on the intersection path; keep
        // the invariant `covered ⊆ covered_solo` without widening it.
        covered_solo: covered,
    })
}

/// Document-anchored prefix pinning, sound when every member of the join
/// binds its fragment root to the *same* node `x` (the intersection
/// setting, where all units share `m = RET(Q)`):
///
/// In any embedding of the chain `root → m` with `m ↦ x`, every chain node
/// binds an ancestor of `x`. If the query prefix `root → q_att` is
/// `/`-anchored and child-edge-only, `q_att` therefore binds the *unique*
/// ancestor of `x` at depth `d` in every such embedding. A member view
/// whose trunk prefix `root → trunk[d]` is likewise `/`-anchored and
/// child-edge-only has its `trunk[d]` bound to that same node, so a branch
/// (or attribute predicate) the view guarantees there holds exactly where
/// the query needs it — no label alignment between the two prefixes is
/// required, because the binding is pinned by depth alone.
fn prefix_pinned_covered(v: &TreePattern, q: &TreePattern, m: PNodeId, n: PNodeId) -> bool {
    if q.is_ancestor_or_self(m, n) {
        return true;
    }
    let m_chain = q.root_path(m);
    let n_chain = q.root_path(n);
    let mut att_depth = 0;
    while att_depth + 1 < m_chain.len()
        && att_depth + 1 < n_chain.len()
        && m_chain[att_depth + 1] == n_chain[att_depth + 1]
    {
        att_depth += 1;
    }
    // Query prefix root → q_att: `/`-anchored (the root's axis is the
    // anchor) and child edges throughout.
    if m_chain[..=att_depth]
        .iter()
        .any(|&c| q.axis(c) != Axis::Child)
    {
        return false;
    }
    // View trunk prefix of the same depth, `/`-anchored and child-only.
    let trunk = v.trunk();
    if trunk.len() <= att_depth {
        return false;
    }
    if trunk[..=att_depth]
        .iter()
        .any(|&t| v.axis(t) != Axis::Child)
    {
        return false;
    }
    let v_att = trunk[att_depth];
    let branch = &n_chain[att_depth + 1..];
    if branch.is_empty() {
        attr_guaranteed(v, v_att, q, n)
    } else {
        branch_guaranteed(v, v_att, q, branch)
    }
}

fn node_covered(v: &TreePattern, q: &TreePattern, m: PNodeId, n: PNodeId, solo: bool) -> bool {
    // (A) Below (or at) the answer image: the fragment materializes the
    // whole subtree, so everything is checkable.
    if q.is_ancestor_or_self(m, n) {
        return true;
    }
    // Attachment point: the deepest ancestor-or-self of `n` on the chain
    // root → m.
    let m_chain = q.root_path(m);
    let n_chain = q.root_path(n);
    let mut att_depth = 0;
    while att_depth + 1 < m_chain.len()
        && att_depth + 1 < n_chain.len()
        && m_chain[att_depth + 1] == n_chain[att_depth + 1]
    {
        att_depth += 1;
    }
    let q_att = m_chain[att_depth];
    debug_assert!(q.is_ancestor_or_self(q_att, n));
    let branch = &n_chain[att_depth + 1..];
    // Candidate attachment anchors in the view whose binding provably
    // coincides with the query attachment's binding.
    let mut anchors: Vec<PNodeId> = Vec::new();
    // (1) Fragment-root pinning: child edges q_att → m and a view trunk
    // node at the same child distance above RET(V). Both bind the unique
    // ancestor of the fragment root at distance k.
    if let Some(k) = pinned_distance(q, att_depth, &m_chain) {
        if let Some(v_att) = pinned_trunk_ancestor(v, k) {
            anchors.push(v_att);
        }
    }
    // (2) Document-root pinning: both roots are `/`-anchored, so both bind
    // the unique document element.
    if q_att == q.root() && q.axis(q.root()) == Axis::Child && v.axis(v.root()) == Axis::Child {
        anchors.push(v.root());
    }
    // (3) Solo-only: full trunk alignment (the paper's single-view
    // condition 3). The view's whole embedding doubles as the query-chain
    // binding, so the branch is guaranteed at the view's own attachment —
    // sound only when no other view's join must agree with it.
    if solo {
        if let Some(v_att) = trunk_aligned_anchor(v, q, &m_chain, att_depth) {
            anchors.push(v_att);
        }
    }
    anchors.sort();
    anchors.dedup();
    anchors.into_iter().any(|v_att| {
        if branch.is_empty() {
            // `n == q_att`: structure is verified by the code join; only
            // attribute predicates need the view guarantee.
            attr_guaranteed(v, v_att, q, n)
        } else {
            branch_guaranteed(v, v_att, q, branch)
        }
    })
}

/// Solo rule: align the view trunk `root → RET(V)` 1:1 onto the query
/// chain `root → m` with pointwise guarantees; on success return the view
/// node aligned with `m_chain[att_depth]`.
fn trunk_aligned_anchor(
    v: &TreePattern,
    q: &TreePattern,
    m_chain: &[PNodeId],
    att_depth: usize,
) -> Option<PNodeId> {
    let trunk = v.trunk();
    if trunk.len() != m_chain.len() {
        return None;
    }
    // Root anchoring: the view's root binding must satisfy the query's.
    let root_ok = match (v.axis(v.root()), q.axis(q.root())) {
        (_, Axis::Descendant) => true,
        (Axis::Child, Axis::Child) => true,
        (Axis::Descendant, Axis::Child) => false,
    };
    if !root_ok {
        return None;
    }
    for (i, (&vn, &qn)) in trunk.iter().zip(m_chain.iter()).enumerate() {
        if !label_guaranteed(v.label(vn), q.label(qn)) {
            return None;
        }
        if i > 0 && !axis_guaranteed(v.axis(vn), q.axis(qn)) {
            return None;
        }
    }
    Some(trunk[att_depth])
}

/// Child-edge-only distance from `chain[att_depth]` down to the chain end;
/// `None` when a descendant edge intervenes.
fn pinned_distance(q: &TreePattern, att_depth: usize, m_chain: &[PNodeId]) -> Option<usize> {
    for &node in &m_chain[att_depth + 1..] {
        if q.axis(node) != Axis::Child {
            return None;
        }
    }
    Some(m_chain.len() - 1 - att_depth)
}

/// The view trunk node exactly `k` child edges above `RET(V)`, if the whole
/// segment uses child edges.
fn pinned_trunk_ancestor(v: &TreePattern, k: usize) -> Option<PNodeId> {
    let mut cur = v.answer();
    for _ in 0..k {
        if v.axis(cur) != Axis::Child {
            return None;
        }
        cur = v.parent(cur)?;
    }
    Some(cur)
}

/// Does the view guarantee the query node's attribute predicates at the
/// attachment binding?
fn attr_guaranteed(v: &TreePattern, v_att: PNodeId, q: &TreePattern, q_node: PNodeId) -> bool {
    q.node(q_node)
        .attrs
        .iter()
        .all(|qa| v.node(v_att).attrs.iter().any(|va| va.implies(qa)))
}

/// Does the view label guarantee the query label? (`*` on the query side is
/// free; `*` on the view side guarantees nothing concrete.)
fn label_guaranteed(vl: PLabel, ql: PLabel) -> bool {
    match (vl, ql) {
        (_, PLabel::Wild) => true,
        (PLabel::Lab(a), PLabel::Lab(b)) => a == b,
        (PLabel::Wild, PLabel::Lab(_)) => false,
    }
}

/// Does the view edge axis guarantee the query edge axis?
fn axis_guaranteed(va: Axis, qa: Axis) -> bool {
    match (va, qa) {
        (Axis::Child, _) => true,
        (Axis::Descendant, Axis::Descendant) => true,
        (Axis::Descendant, Axis::Child) => false,
    }
}

/// Search for a view chain below `v_att` that guarantees the query branch
/// `branch` pointwise (label, axis, attributes).
///
/// Note there is no point in letting *stronger* view branches witness
/// weaker query edges (`a[b/c]` does imply `a[.//c]`): such a view cannot
/// contain the query in the first place, so it is never a candidate for
/// *equivalent* rewriting — subset answers from stronger views belong to
/// the maximal-contained-rewriting setting the paper defers to future
/// work.
fn branch_guaranteed(v: &TreePattern, v_att: PNodeId, q: &TreePattern, branch: &[PNodeId]) -> bool {
    let Some((&b, rest)) = branch.split_first() else {
        return true;
    };
    v.children(v_att).iter().any(|&u| {
        axis_guaranteed(v.axis(u), q.axis(b))
            && label_guaranteed(v.label(u), q.label(b))
            && attr_guaranteed(v, u, q, b)
            && branch_guaranteed(v, u, q, rest)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_pattern::parse_pattern_with;
    use xvr_xml::LabelTable;

    struct Setup {
        labels: LabelTable,
    }

    impl Setup {
        fn new() -> Setup {
            Setup {
                labels: LabelTable::new(),
            }
        }

        fn pat(&mut self, src: &str) -> TreePattern {
            parse_pattern_with(src, &mut self.labels).unwrap()
        }
    }

    /// Names of covered obligation leaves, for readable assertions.
    fn covered_names(cover: &LeafCover, q: &TreePattern, labels: &LabelTable) -> Vec<String> {
        cover
            .covered
            .iter()
            .map(|&n| match q.label(n) {
                PLabel::Wild => "*".to_owned(),
                PLabel::Lab(l) => labels.name(l).to_owned(),
            })
            .collect()
    }

    /// Best (largest) cover over all answer images.
    fn best_cover(v: &TreePattern, q: &TreePattern) -> LeafCover {
        let ob = Obligations::of(q);
        leaf_covers(v, q, &ob)
            .into_iter()
            .max_by_key(|c| c.coverage_size())
            .expect("at least one homomorphism")
    }

    #[test]
    fn single_view_answers_itself() {
        let mut s = Setup::new();
        let q = s.pat("/s[f//i][t]/p");
        let cover = best_cover(&q.clone(), &q);
        let ob = Obligations::of(&q);
        assert!(cover.covers_answer);
        assert_eq!(cover.covered.len(), ob.len());
    }

    #[test]
    fn example_4_3_covers() {
        let mut s = Setup::new();
        let q = s.pat("/s[f//i][t]/p");
        // V4 = s[p]/f: answers bind to f; covers i (below f... no —
        // V4's answer f maps to q's f node; i is below f) and p via the
        // pinned branch? The paper gets LC(V4,Qe) = {i, p}.
        let v4 = s.pat("/s[p]/f");
        let c4 = best_cover(&v4, &q);
        assert!(!c4.covers_answer);
        let names = covered_names(&c4, &q, &s.labels);
        assert!(names.contains(&"i".to_owned()), "{names:?}");
        assert!(names.contains(&"p".to_owned()), "{names:?}");
        assert!(!names.contains(&"t".to_owned()), "{names:?}");
        // V1 = s[t]/p: LC(V1,Qe) = {Δ, t, p}.
        let v1 = s.pat("/s[t]/p");
        let c1 = best_cover(&v1, &q);
        assert!(c1.covers_answer);
        let names1 = covered_names(&c1, &q, &s.labels);
        assert!(names1.contains(&"t".to_owned()), "{names1:?}");
        assert!(names1.contains(&"p".to_owned()), "{names1:?}");
        assert!(!names1.contains(&"i".to_owned()), "{names1:?}");
    }

    #[test]
    fn example_4_2_unsound_coverage_rejected() {
        // Q asks for d-nodes whose parent b has child c; a view returning
        // d-nodes via a descendant edge cannot guarantee WHICH b had the c.
        let mut s = Setup::new();
        let q = s.pat("/a/b[c]/d");
        let v = s.pat("/a//b[c]//d");
        let ob = Obligations::of(&q);
        for cover in leaf_covers(&v, &q, &ob) {
            let names = covered_names(&cover, &q, &s.labels);
            assert!(
                !names.contains(&"c".to_owned()),
                "descendant-pinned branch must not be claimed: {names:?}"
            );
        }
        // Whereas the child-edge view pins the attachment and covers c.
        let v2 = s.pat("/a/b[c]/d");
        let c2 = best_cover(&v2, &q);
        let names2 = covered_names(&c2, &q, &s.labels);
        assert!(names2.contains(&"c".to_owned()), "{names2:?}");
    }

    #[test]
    fn wildcard_view_guarantees_nothing_concrete() {
        let mut s = Setup::new();
        let q = s.pat("/a[b]/d");
        let v = s.pat("/a[*]/d");
        let c = best_cover(&v, &q);
        let names = covered_names(&c, &q, &s.labels);
        assert!(!names.contains(&"b".to_owned()), "{names:?}");
        // The reverse: a query wildcard is guaranteed by any concrete view
        // node at the pinned position — here the trunk `d` itself witnesses
        // the `[*]` branch.
        let q2 = s.pat("/a[*]/d");
        let v2 = s.pat("/a/d");
        let c2 = best_cover(&v2, &q2);
        assert_eq!(c2.covered.len(), 2, "d witnesses * (plus d itself)");
    }

    #[test]
    fn view_descendant_branch_serves_query_descendant_edge() {
        let mut s = Setup::new();
        let q = s.pat("/a[.//c]/d");
        let v = s.pat("/a[.//c]/d");
        let c = best_cover(&v, &q);
        let names = covered_names(&c, &q, &s.labels);
        assert!(names.contains(&"c".to_owned()), "{names:?}");
        // A view descendant edge can NOT serve a query child edge.
        let q2 = s.pat("/a[c]/d");
        let v2 = s.pat("/a[.//c]/d");
        let c2 = best_cover(&v2, &q2);
        let names2 = covered_names(&c2, &q2, &s.labels);
        assert!(!names2.contains(&"c".to_owned()), "{names2:?}");
    }

    #[test]
    fn answer_coverage_requires_ancestor_image() {
        let mut s = Setup::new();
        let q = s.pat("/s[t]/p");
        // View returning t-nodes: its m is the t branch, no Δ.
        let v = s.pat("/s/t");
        let ob = Obligations::of(&q);
        let covers: Vec<LeafCover> = leaf_covers(&v, &q, &ob);
        assert!(covers.iter().all(|c| !c.covers_answer));
        // View returning s-nodes: m = s (ancestor of p) → Δ.
        let v2 = s.pat("//s[t]");
        let c2 = best_cover(&v2, &q);
        assert!(c2.covers_answer);
    }

    #[test]
    fn attribute_obligations() {
        let mut s = Setup::new();
        let q = s.pat(r#"/a[@id="7"]/b"#);
        let ob = Obligations::of(&q);
        assert_eq!(ob.len(), 2); // leaf b + attr node a
                                 // A view whose trunk pins `a` and carries the same predicate covers
                                 // the attr obligation.
        let v = s.pat(r#"/a[@id="7"]/b"#);
        let c = best_cover(&v, &q);
        assert_eq!(c.covered.len(), 2);
        // Existence-only predicate does not guarantee equality.
        let v2 = s.pat("/a[@id]/b");
        let c2 = best_cover(&v2, &q);
        assert_eq!(c2.covered.len(), 1, "only the leaf b");
        // A view with no predicate at all covers only the leaf too.
        let v3 = s.pat("/a/b");
        let c3 = best_cover(&v3, &q);
        assert_eq!(c3.covered.len(), 1);
    }

    #[test]
    fn stronger_views_are_not_candidates() {
        // `a[b/c]/d` implies `a[.//c]/d` but does not *contain* it, so it
        // has no homomorphism into the query and yields no cover at all —
        // equivalent rewriting may only use containing views.
        let mut s = Setup::new();
        let q = s.pat("/a[.//c]/d");
        let v = s.pat("/a[b/c]/d");
        let ob = Obligations::of(&q);
        assert!(leaf_covers(&v, &q, &ob).is_empty());
    }

    #[test]
    fn multiple_answer_images_yield_multiple_covers() {
        let mut s = Setup::new();
        let q = s.pat("/s[s/p]/s/p");
        let v = s.pat("//s/p");
        let ob = Obligations::of(&q);
        let covers = leaf_covers(&v, &q, &ob);
        assert!(covers.len() >= 2, "p occurs at two query positions");
        assert!(covers.iter().any(|c| c.covers_answer));
        assert!(covers.iter().any(|c| !c.covers_answer));
    }

    #[test]
    fn intersect_cover_uses_prefix_pinning() {
        // Q = /a/b[x][y]//c: the b → c edge is a descendant edge, so the
        // composable suffix rule cannot pin b, and b is not the root — the
        // ordinary covers claim neither branch. The intersection cover pins
        // b as the depth-1 ancestor of the shared fragment root.
        let mut s = Setup::new();
        let q = s.pat("/a/b[x][y]//c");
        let ob = Obligations::of(&q);
        let v1 = s.pat("/a/b[x]//c");
        let plain = best_cover(&v1, &q);
        let plain_names = covered_names(&plain, &q, &s.labels);
        assert!(!plain_names.contains(&"x".to_owned()), "{plain_names:?}");
        let ic = intersect_cover(&v1, &q, &ob).expect("answer-preserving hom");
        assert!(ic.covers_answer);
        let names = covered_names(&ic, &q, &s.labels);
        assert!(names.contains(&"x".to_owned()), "{names:?}");
        assert!(names.contains(&"c".to_owned()), "below m: {names:?}");
        assert!(!names.contains(&"y".to_owned()), "{names:?}");
    }

    #[test]
    fn intersect_cover_rejects_unpinned_prefixes() {
        let mut s = Setup::new();
        // Descendant edge in the query prefix: the attachment is ambiguous.
        let q = s.pat("//b[x]//c");
        let ob = Obligations::of(&q);
        let v = s.pat("//b[x]//c");
        let ic = intersect_cover(&v, &q, &ob).expect("self-hom");
        let names = covered_names(&ic, &q, &s.labels);
        assert!(!names.contains(&"x".to_owned()), "{names:?}");
        // Descendant edge in the view trunk prefix: the view's witness
        // ancestor need not sit at the pinned depth.
        let q2 = s.pat("/a/b[x]//c");
        let ob2 = Obligations::of(&q2);
        let v2 = s.pat("/a//b[x]//c");
        if let Some(ic2) = intersect_cover(&v2, &q2, &ob2) {
            let names2 = covered_names(&ic2, &q2, &s.labels);
            assert!(!names2.contains(&"x".to_owned()), "{names2:?}");
        }
    }

    #[test]
    fn intersect_cover_requires_answer_preserving_hom() {
        let mut s = Setup::new();
        let q = s.pat("/a/b[x][y]//c");
        let ob = Obligations::of(&q);
        // Maps into q, but its answer lands on x, not on q's answer c.
        let v = s.pat("/a/b/x");
        assert!(intersect_cover(&v, &q, &ob).is_none());
        // No homomorphism at all.
        let v2 = s.pat("/a/b[z]//c");
        assert!(intersect_cover(&v2, &q, &ob).is_none());
    }

    #[test]
    fn obligations_of_paths() {
        let mut s = Setup::new();
        let q = s.pat("/a/b/c");
        let ob = Obligations::of(&q);
        assert_eq!(ob.len(), 1);
        let q2 = s.pat("/a[x][y/z]/c");
        assert_eq!(Obligations::of(&q2).len(), 3);
    }
}
