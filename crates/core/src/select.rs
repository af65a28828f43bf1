//! Multiple-view selection (Section IV-B).
//!
//! * [`select_minimum`] — the paper's exhaustive "minimum rewriting": try
//!   view subsets in increasing cardinality until one satisfies the
//!   answerability criterion. Worst case `O(2^|V|)`; we cap the subset size
//!   (the paper's own queries need ≤ 3 views) and bail out beyond it.
//! * [`select_heuristic`] — Algorithm 2: repeatedly pick an uncovered leaf,
//!   walk the leaf's `LIST(P)` (sorted by containing-path length, so the
//!   compensating query runs over the *smallest* fragments first), select
//!   the first view that covers the leaf, and finally drop redundant views.
//!   The result is a *minimal* (not necessarily minimum) set.
//!
//! Both return a [`Selection`]: one or more `(view, m)` units — the same
//! view may be joined at several query positions — with a designated
//! *anchor* unit whose `m` is an ancestor-or-self of the query's answer
//! node (the `Δ` obligation), from whose fragments the result is extracted.

use std::collections::HashMap;

use xvr_pattern::{decompose, TreePattern};

use crate::filter::FilterOutcome;
use crate::leafcover::{intersect_cover, leaf_covers, LeafCover, Obligations};
use crate::metrics::{Counter, StageCounters};
use crate::view::{ViewId, ViewSet};

/// One selected `(view, answer-image)` unit with its leaf-cover.
#[derive(Clone, Debug)]
pub struct SelectedView {
    /// The materialized view to join.
    pub view: ViewId,
    /// Its leaf-cover (contains `m`, the query node its fragments bind to).
    pub cover: LeafCover,
}

/// A set of views that answers the query.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Selected units; `units[anchor]` is the anchor.
    pub units: Vec<SelectedView>,
    /// Index of the anchor unit (its cover has `covers_answer`).
    pub anchor: usize,
    /// `true` for a selection produced by [`select_intersection_metered`]:
    /// every unit binds `m = RET(Q)`. The rewriting needs no special case,
    /// because the holistic join ANDs the restrictions of units on the
    /// same query node, and that AND is the intersection of their refined
    /// fragment-root sets. The flag only counts `intersect.answered`.
    pub intersection: bool,
}

impl Selection {
    /// Ids of the distinct views used.
    pub fn view_ids(&self) -> Vec<ViewId> {
        let mut ids: Vec<ViewId> = self.units.iter().map(|u| u.view).collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// Does this unit multiset cover all obligations (and provide an anchor)?
///
/// A single unit may use its *solo* cover (the paper's single-view
/// condition 3); multiple units must compose, so only the pinned covers
/// count.
fn covers_all(units: &[&SelectedView], obligations: &Obligations) -> bool {
    if let [unit] = units {
        return unit.cover.answers_alone(obligations);
    }
    if !units.iter().any(|u| u.cover.covers_answer) {
        return false;
    }
    obligations
        .nodes
        .iter()
        .all(|n| units.iter().any(|u| u.cover.covered.contains(n)))
}

/// Pick an anchor index and drop redundant units, preserving coverage.
fn finalize(mut units: Vec<SelectedView>, obligations: &Obligations) -> Option<Selection> {
    {
        let refs: Vec<&SelectedView> = units.iter().collect();
        if !covers_all(&refs, obligations) {
            return None;
        }
    }
    // Greedy redundancy elimination (Algorithm 2, line 20): try dropping
    // units one at a time, preferring to drop those with smaller covers.
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| units[i].cover.coverage_size());
    let mut removed = vec![false; units.len()];
    for &i in &order {
        removed[i] = true;
        let refs: Vec<&SelectedView> = units
            .iter()
            .enumerate()
            .filter(|(j, _)| !removed[*j])
            .map(|(_, u)| u)
            .collect();
        if !covers_all(&refs, obligations) {
            removed[i] = false;
        }
    }
    let mut kept: Vec<SelectedView> = Vec::new();
    for (i, u) in units.drain(..).enumerate() {
        if !removed[i] {
            kept.push(u);
        }
    }
    let anchor = kept.iter().position(|u| u.cover.covers_answer)?;
    Some(Selection {
        units: kept,
        anchor,
        intersection: false,
    })
}

/// All leaf-covers of every candidate view, cached per view.
fn covers_of(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    counters: &mut StageCounters,
) -> HashMap<ViewId, Vec<LeafCover>> {
    counters.add(Counter::SelectLeafCoverAttempts, candidates.len() as u64);
    candidates
        .iter()
        .map(|&v| (v, leaf_covers(&views.view(v).pattern, q, obligations)))
        .collect()
}

/// Exhaustive minimum selection over `candidates`.
///
/// Tries subsets in increasing cardinality up to `max_views`; within a
/// chosen subset every `(view, m)` unit of its views participates (the
/// redundancy pass then trims unused units). Returns `None` when no subset
/// within the cap answers the query.
pub fn select_minimum(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    max_views: usize,
) -> Option<Selection> {
    select_minimum_metered(
        q,
        views,
        candidates,
        obligations,
        max_views,
        &mut StageCounters::new(),
    )
}

/// [`select_minimum`] recording observability counters (leaf-cover
/// attempts, subsets tried).
pub fn select_minimum_metered(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    max_views: usize,
    counters: &mut StageCounters,
) -> Option<Selection> {
    counters.bump(Counter::SelectExhaustiveRuns);
    let cover_map = covers_of(q, views, candidates, obligations, counters);
    // Views with no homomorphism at all can never participate.
    let usable: Vec<ViewId> = candidates
        .iter()
        .copied()
        .filter(|v| !cover_map[v].is_empty())
        .collect();
    // Single-view answering first (condition 3: solo covers allowed).
    for &v in &usable {
        for c in &cover_map[&v] {
            if c.answers_alone(obligations) {
                return Some(Selection {
                    units: vec![SelectedView {
                        view: v,
                        cover: c.clone(),
                    }],
                    anchor: 0,
                    intersection: false,
                });
            }
        }
    }
    let usable = &usable;
    let cover_map = &cover_map;
    for size in 1..=max_views.min(usable.len()) {
        let mut found: Option<Selection> = None;
        for_each_combination(usable.len(), size, &mut |combo| {
            if found.is_some() {
                return;
            }
            counters.bump(Counter::SelectSubsetsTried);
            let units: Vec<SelectedView> = combo
                .iter()
                .flat_map(|&i| {
                    cover_map[&usable[i]].iter().map(move |c| SelectedView {
                        view: usable[i],
                        cover: c.clone(),
                    })
                })
                .collect();
            let refs: Vec<&SelectedView> = units.iter().collect();
            if covers_all(&refs, obligations) {
                found = finalize(units, obligations);
            }
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Invoke `f` with every `k`-combination of `0..n` (lexicographic order).
fn for_each_combination(n: usize, k: usize, f: &mut dyn FnMut(&[usize])) {
    fn rec(start: usize, n: usize, k: usize, combo: &mut Vec<usize>, f: &mut dyn FnMut(&[usize])) {
        if combo.len() == k {
            f(combo);
            return;
        }
        let remaining = k - combo.len();
        for i in start..=n.saturating_sub(remaining) {
            combo.push(i);
            rec(i + 1, n, k, combo, f);
            combo.pop();
        }
    }
    if k <= n {
        rec(0, n, k, &mut Vec::with_capacity(k), f);
    }
}

/// Cost-based selection — the model the paper sketches but "omits due to
/// space limitation" (Section IV-B): combine the two factors, number of
/// views and size of the view fragments, into one cost. We implement it as
/// greedy weighted set cover: repeatedly pick the `(view, m)` unit with the
/// lowest cost per newly covered obligation, where
///
/// `cost(unit) = fragment_bytes(view) + view_overhead` (the overhead is
/// charged once per distinct view), then drop redundant units most-costly
/// first. `fragment_bytes` is typically the materialized size from the
/// store; `view_overhead` trades off "fewer views" (the minimum
/// objective) against "smaller fragments" (the heuristic's objective).
pub fn select_cost_based(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    fragment_bytes: &dyn Fn(ViewId) -> usize,
    view_overhead: usize,
) -> Option<Selection> {
    select_cost_based_metered(
        q,
        views,
        candidates,
        obligations,
        fragment_bytes,
        view_overhead,
        &mut StageCounters::new(),
    )
}

/// [`select_cost_based`] recording observability counters.
#[allow(clippy::too_many_arguments)]
pub fn select_cost_based_metered(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    fragment_bytes: &dyn Fn(ViewId) -> usize,
    view_overhead: usize,
    counters: &mut StageCounters,
) -> Option<Selection> {
    counters.bump(Counter::SelectCostRuns);
    let cover_map = covers_of(q, views, candidates, obligations, counters);
    // Cheapest solo answer (condition 3), to be compared against the
    // greedy multi-view plan by total cost.
    let solo = candidates
        .iter()
        .flat_map(|&v| cover_map[&v].iter().map(move |c| (v, c)))
        .filter(|(_, c)| c.answers_alone(obligations))
        .min_by_key(|(v, _)| fragment_bytes(*v))
        .map(|(view, cover)| Selection {
            units: vec![SelectedView {
                view,
                cover: cover.clone(),
            }],
            anchor: 0,
            intersection: false,
        });
    // Greedy weighted cover over composable units.
    let mut pending: Vec<xvr_pattern::PNodeId> = obligations.nodes.clone();
    let mut need_anchor = true;
    let mut units: Vec<SelectedView> = Vec::new();
    let mut selected_views: Vec<ViewId> = Vec::new();
    loop {
        if pending.is_empty() && !need_anchor {
            break;
        }
        let mut best: Option<(f64, ViewId, &LeafCover)> = None;
        for &v in candidates {
            for c in &cover_map[&v] {
                let gain = c.covered.iter().filter(|n| pending.contains(n)).count()
                    + usize::from(need_anchor && c.covers_answer);
                if gain == 0 {
                    continue;
                }
                let overhead = if selected_views.contains(&v) {
                    0
                } else {
                    view_overhead + fragment_bytes(v)
                };
                let cost = (overhead + 1) as f64 / gain as f64;
                if best.as_ref().map(|(b, _, _)| cost < *b).unwrap_or(true) {
                    best = Some((cost, v, c));
                }
            }
        }
        let Some((_, view, cover)) = best else {
            // Some obligation is not composably coverable; fall back to the
            // solo plan if one exists.
            return solo;
        };
        pending.retain(|n| !cover.covered.contains(n));
        if cover.covers_answer {
            need_anchor = false;
        }
        if !selected_views.contains(&view) {
            selected_views.push(view);
        }
        units.push(SelectedView {
            view,
            cover: cover.clone(),
        });
    }
    let greedy = finalize(units, obligations);
    // Pick the cheaper of the solo and greedy plans under the cost model.
    let total_cost = |sel: &Selection| -> usize {
        sel.view_ids()
            .iter()
            .map(|&v| fragment_bytes(v) + view_overhead)
            .sum()
    };
    match (solo, greedy) {
        (Some(s), Some(g)) => Some(if total_cost(&s) <= total_cost(&g) {
            s
        } else {
            g
        }),
        (s, g) => s.or(g),
    }
}

/// Algorithm 2: heuristic minimal selection driven by the filter's sorted
/// lists.
pub fn select_heuristic(
    q: &TreePattern,
    views: &ViewSet,
    filter: &FilterOutcome,
    obligations: &Obligations,
) -> Option<Selection> {
    select_heuristic_metered(q, views, filter, obligations, &mut StageCounters::new())
}

/// [`select_heuristic`] recording observability counters (leaf-cover
/// attempts, probes that fell back past `LIST(P)`).
pub fn select_heuristic_metered(
    q: &TreePattern,
    views: &ViewSet,
    filter: &FilterOutcome,
    obligations: &Obligations,
    counters: &mut StageCounters,
) -> Option<Selection> {
    counters.bump(Counter::SelectHeuristicRuns);
    let d = decompose(q);
    let mut cover_cache: HashMap<ViewId, Vec<LeafCover>> = HashMap::new();
    let mut pending: Vec<xvr_pattern::PNodeId> = obligations.nodes.clone();
    let mut units: Vec<SelectedView> = Vec::new();
    while let Some(&u) = pending.first() {
        // The query path containing this obligation: for leaves, their own
        // path; for internal (attribute) obligations, the path of any
        // descendant leaf.
        let path_idx = d
            .path_of_leaf(u)
            .or_else(|| {
                d.leaf_paths
                    .iter()
                    .find(|(leaf, _)| q.is_ancestor_or_self(u, *leaf))
                    .map(|&(_, i)| i)
            })
            .expect("every obligation lies on some root-to-leaf path");
        let mut chosen: Option<SelectedView> = None;
        // Algorithm 2 walks LIST(P): the views whose paths contain u's
        // path, longest first. Coverage can also come from views outside
        // that list (fragment coverage below m, attribute obligations), so
        // fall back to the full candidate set when the list yields nothing.
        let list: Vec<ViewId> = filter.lists[path_idx].iter().map(|&(v, _)| v).collect();
        let fallback: Vec<ViewId> = filter
            .candidates
            .iter()
            .copied()
            .filter(|v| !list.contains(v))
            .collect();
        let probes = list
            .into_iter()
            .map(|v| (v, false))
            .chain(fallback.into_iter().map(|v| (v, true)));
        for (view, is_fallback) in probes {
            if is_fallback {
                counters.bump(Counter::SelectFallbackProbes);
            }
            if !cover_cache.contains_key(&view) {
                counters.bump(Counter::SelectLeafCoverAttempts);
            }
            let covers = cover_cache
                .entry(view)
                .or_insert_with(|| leaf_covers(&views.view(view).pattern, q, obligations));
            // Condition 3 short-circuit: a probed view answering alone wins
            // outright.
            if let Some(c) = covers.iter().find(|c| c.answers_alone(obligations)) {
                return Some(Selection {
                    units: vec![SelectedView {
                        view,
                        cover: c.clone(),
                    }],
                    anchor: 0,
                    intersection: false,
                });
            }
            // Otherwise the best composable cover of this view covering `u`.
            if let Some(c) = covers
                .iter()
                .filter(|c| c.covered.contains(&u))
                .max_by_key(|c| c.coverage_size())
            {
                chosen = Some(SelectedView {
                    view,
                    cover: c.clone(),
                });
                break;
            }
        }
        let unit = chosen?; // some leaf uncovered by every candidate
        pending.retain(|n| !unit.cover.covered.contains(n));
        units.push(unit);
    }
    // Ensure an anchor (Δ): Algorithm 2 implicitly requires the result to
    // be extractable from some selected view.
    if !units.iter().any(|u| u.cover.covers_answer) {
        let anchor_unit = filter.candidates.iter().find_map(|&view| {
            if !cover_cache.contains_key(&view) {
                counters.bump(Counter::SelectLeafCoverAttempts);
            }
            let covers = cover_cache
                .entry(view)
                .or_insert_with(|| leaf_covers(&views.view(view).pattern, q, obligations));
            covers
                .iter()
                .filter(|c| c.covers_answer)
                .max_by_key(|c| c.coverage_size())
                .map(|c| SelectedView {
                    view,
                    cover: c.clone(),
                })
        })?;
        units.push(anchor_unit);
    }
    finalize(units, obligations)
}

/// Intersection selection (the `HvIntersect` fallback): when per-obligation
/// leaf-cover answerability fails, enumerate small subsets (size 2–3) of
/// the usable candidates whose *intersection covers* — leaf-covers pinned
/// to `m = RET(Q)`, extended with document-anchored prefix pinning (see
/// [`intersect_cover`]) — jointly cover every obligation. All members of
/// the returned selection bind the answer node, so the rewriting intersects
/// their refined fragment-root sets; completeness holds because each member
/// contains the query at the answer position, soundness because every
/// coverage claim is pinned to the shared binding.
pub fn select_intersection(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
) -> Option<Selection> {
    select_intersection_metered(q, views, candidates, obligations, &mut StageCounters::new())
}

/// [`select_intersection`] recording observability counters
/// (`intersect.attempts`, `intersect.subsets_tried`).
pub fn select_intersection_metered(
    q: &TreePattern,
    views: &ViewSet,
    candidates: &[ViewId],
    obligations: &Obligations,
    counters: &mut StageCounters,
) -> Option<Selection> {
    counters.bump(Counter::IntersectAttempts);
    // Member candidates: views containing the query at the answer position,
    // with their intersection covers.
    let members: Vec<(ViewId, LeafCover)> = candidates
        .iter()
        .filter_map(|&v| {
            counters.bump(Counter::SelectLeafCoverAttempts);
            intersect_cover(&views.view(v).pattern, q, obligations).map(|c| (v, c))
        })
        .collect();
    // Quick refutation: an obligation no member covers can never be
    // covered by a subset union.
    if obligations
        .nodes
        .iter()
        .any(|n| !members.iter().any(|(_, c)| c.covered.contains(n)))
    {
        return None;
    }
    let mut found: Option<Vec<usize>> = None;
    for size in 2..=3usize.min(members.len()) {
        for_each_combination(members.len(), size, &mut |combo| {
            if found.is_some() {
                return;
            }
            counters.bump(Counter::IntersectSubsetsTried);
            let jointly_covered = obligations
                .nodes
                .iter()
                .all(|n| combo.iter().any(|&i| members[i].1.covered.contains(n)));
            if jointly_covered {
                found = Some(combo.to_vec());
            }
        });
        if found.is_some() {
            break;
        }
    }
    let combo = found?;
    Some(Selection {
        units: combo
            .iter()
            .map(|&i| SelectedView {
                view: members[i].0,
                cover: members[i].1.clone(),
            })
            .collect(),
        anchor: 0,
        intersection: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{build_nfa, filter_views};
    use xvr_pattern::parse_pattern_with;
    use xvr_xml::LabelTable;

    fn setup(view_srcs: &[&str], qsrc: &str) -> (ViewSet, TreePattern, FilterOutcome, Obligations) {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        for src in view_srcs {
            views.add(parse_pattern_with(src, &mut labels).unwrap());
        }
        let q = parse_pattern_with(qsrc, &mut labels).unwrap();
        let nfa = build_nfa(&views);
        let filter = filter_views(&q, &views, &nfa);
        let ob = Obligations::of(&q);
        (views, q, filter, ob)
    }

    #[test]
    fn example_4_3_heuristic() {
        // Candidates {V1, V4} for Q_e = s[f//i][t]/p; Algorithm 2 returns
        // both (V1 anchors, V4 covers i).
        let (views, q, filter, ob) = setup(&["/s[t]/p", "/s[p]/f"], "/s[f//i][t]/p");
        let sel = select_heuristic(&q, &views, &filter, &ob).expect("answerable");
        assert_eq!(sel.view_ids(), vec![ViewId(0), ViewId(1)]);
        assert!(sel.units[sel.anchor].cover.covers_answer);
    }

    #[test]
    fn single_view_selection() {
        let (views, q, filter, ob) = setup(&["/s[t][f//i]/p"], "/s[f//i][t]/p");
        let sel = select_heuristic(&q, &views, &filter, &ob).expect("answerable");
        assert_eq!(sel.view_ids(), vec![ViewId(0)]);
        let sel_min = select_minimum(&q, &views, &filter.candidates, &ob, 4).unwrap();
        assert_eq!(sel_min.view_ids(), vec![ViewId(0)]);
    }

    #[test]
    fn minimum_is_no_larger_than_heuristic() {
        let (views, q, filter, ob) = setup(
            &["/s[t]/p", "/s[p]/f", "/s[t][f//i]/p", "//s//p"],
            "/s[f//i][t]/p",
        );
        let h = select_heuristic(&q, &views, &filter, &ob).unwrap();
        let m = select_minimum(&q, &views, &filter.candidates, &ob, 4).unwrap();
        assert!(m.view_ids().len() <= h.view_ids().len());
        assert_eq!(m.view_ids().len(), 1); // the exact view answers alone
    }

    #[test]
    fn unanswerable_returns_none() {
        // No view covers the f//i branch.
        let (views, q, filter, ob) = setup(&["/s[t]/p", "//s//p"], "/s[f//i][t]/p");
        assert!(select_heuristic(&q, &views, &filter, &ob).is_none());
        assert!(select_minimum(&q, &views, &filter.candidates, &ob, 4).is_none());
    }

    #[test]
    fn anchor_required() {
        // Views cover all leaves but none can extract the answer p.
        let (views, q, filter, ob) = setup(&["/s/t", "/s[t][p]/f"], "/s[t]/p");
        // /s/t covers t; /s[t][p]/f covers... its answers bind to f; p is a
        // sibling branch — may cover p but Δ never holds.
        assert!(select_heuristic(&q, &views, &filter, &ob).is_none());
        assert!(select_minimum(&q, &views, &filter.candidates, &ob, 4).is_none());
    }

    #[test]
    fn heuristic_is_minimal() {
        // Redundancy pass: the exact-match view makes the others redundant.
        let (views, q, filter, ob) =
            setup(&["/s[t]/p", "/s[f//i][t]/p", "/s[p]/f"], "/s[f//i][t]/p");
        let sel = select_heuristic(&q, &views, &filter, &ob).unwrap();
        // Whatever was picked, no proper subset of the units may cover.
        for skip in 0..sel.units.len() {
            let subset: Vec<&SelectedView> = sel
                .units
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, u)| u)
                .collect();
            assert!(!covers_all(&subset, &ob), "unit {skip} is redundant");
        }
    }

    #[test]
    fn same_view_joined_at_two_positions() {
        // One view (//s/p) serves both the branch p and the answer p.
        let (views, q, filter, ob) = setup(&["//s/p"], "/s[s/p]/s/p");
        let sel = select_minimum(&q, &views, &filter.candidates, &ob, 2).expect("answerable");
        assert_eq!(sel.view_ids(), vec![ViewId(0)]);
        assert!(!sel.units.is_empty());
    }

    #[test]
    fn cost_based_prefers_small_fragments() {
        // Two views answer alone; the cost model must pick the cheaper one.
        let (views, q, filter, ob) =
            setup(&["/s[f//i][t]/p", "//*[.//i][.//t]//p"], "/s[f//i][t]/p");
        let sizes = [100usize, 1_000_000usize];
        let sel = select_cost_based(
            &q,
            &views,
            &filter.candidates,
            &ob,
            &|v| sizes[v.index()],
            1024,
        )
        .expect("answerable");
        assert_eq!(sel.view_ids(), vec![ViewId(0)]);
    }

    #[test]
    fn cost_based_overhead_trades_views_for_bytes() {
        // Either one big exact view, or two tiny partial views.
        let (views, q, filter, ob) =
            setup(&["/s[f//i][t]/p", "/s[t]/p", "/s[p]/f"], "/s[f//i][t]/p");
        let sizes = [10_000usize, 10usize, 10usize];
        // Low per-view overhead: the two tiny views win.
        let cheap = select_cost_based(
            &q,
            &views,
            &filter.candidates,
            &ob,
            &|v| sizes[v.index()],
            1,
        )
        .expect("answerable");
        assert_eq!(cheap.view_ids(), vec![ViewId(1), ViewId(2)]);
        // Huge per-view overhead: fewer views win despite the bytes.
        let few = select_cost_based(
            &q,
            &views,
            &filter.candidates,
            &ob,
            &|v| sizes[v.index()],
            1_000_000,
        )
        .expect("answerable");
        assert_eq!(few.view_ids(), vec![ViewId(0)]);
    }

    #[test]
    fn cost_based_agrees_on_answerability() {
        let (views, q, filter, ob) = setup(&["/s[t]/p", "//s//p"], "/s[f//i][t]/p");
        assert!(select_heuristic(&q, &views, &filter, &ob).is_none());
        assert!(select_cost_based(&q, &views, &filter.candidates, &ob, &|_| 1, 1).is_none());
    }

    #[test]
    fn intersection_selection_recovers_heuristic_miss() {
        // Neither view covers the other's branch under the composable rule
        // (descendant edge b → c defeats suffix pinning), so every
        // per-obligation strategy fails; the intersection pair succeeds.
        let (views, q, filter, ob) = setup(&["/a/b[x]//c", "/a/b[y]//c"], "/a/b[x][y]//c");
        assert!(select_heuristic(&q, &views, &filter, &ob).is_none());
        assert!(select_minimum(&q, &views, &filter.candidates, &ob, 4).is_none());
        let sel = select_intersection(&q, &views, &filter.candidates, &ob).expect("answerable");
        assert!(sel.intersection);
        assert_eq!(sel.view_ids(), vec![ViewId(0), ViewId(1)]);
        assert_eq!(sel.units.len(), 2);
        assert!(sel.units.iter().all(|u| u.cover.m == q.answer()));
        assert!(sel.units[sel.anchor].cover.covers_answer);
    }

    #[test]
    fn intersection_selection_size_three() {
        let (views, q, filter, ob) = setup(
            &["/a/b[x]//c", "/a/b[y]//c", "/a/b[z]//c"],
            "/a/b[x][y][z]//c",
        );
        assert!(select_heuristic(&q, &views, &filter, &ob).is_none());
        let sel = select_intersection(&q, &views, &filter.candidates, &ob).expect("answerable");
        assert_eq!(sel.units.len(), 3);
        assert!(sel.intersection);
    }

    #[test]
    fn intersection_selection_rejects_uncoverable() {
        // The y branch is guaranteed by no member: unanswerable.
        let (views, q, filter, ob) = setup(&["/a/b[x]//c", "/a/b//c"], "/a/b[x][y]//c");
        assert!(select_intersection(&q, &views, &filter.candidates, &ob).is_none());
        // An unpinned query prefix (descendant to b) is also rejected.
        let (views2, q2, filter2, ob2) = setup(&["//b[x]//c", "//b[y]//c"], "//b[x][y]//c");
        assert!(select_intersection(&q2, &views2, &filter2.candidates, &ob2).is_none());
    }

    #[test]
    fn minimum_respects_cap() {
        let (views, q, filter, ob) = setup(&["/s/t", "/s/p", "/s//f//i"], "/s[f//i][t]/p");
        // Needs 3 views; cap 2 must fail, cap 3 succeed (if answerable).
        let capped = select_minimum(&q, &views, &filter.candidates, &ob, 2);
        let full = select_minimum(&q, &views, &filter.candidates, &ob, 3);
        if let Some(sel) = &full {
            assert_eq!(sel.view_ids().len(), 3);
            assert!(capped.is_none());
        }
    }
}
