//! View filtering — Algorithm 1 of the paper (`VIEWFILTERING`).
//!
//! Decompose the query, normalize each path, feed its `STR` form to the
//! VFILTER automaton, and keep exactly those views **all** of whose path
//! patterns contain some path pattern of the query (Proposition 3.1). The
//! algorithm also maintains, per query path `P_i`, the sorted list
//! `LIST(P_i)` of `(view, length)` pairs that the heuristic selection of
//! Section IV-B consumes.
//!
//! Deviation from the paper's pseudo-code, documented in DESIGN.md: instead
//! of the counter `NUM(V)` (which can over-count when two query paths hit
//! the same view path, producing a spurious false negative), we track the
//! *set* of matched view-path indices — the exact condition of
//! Proposition 3.1. The filter thus keeps the paper's guarantee: false
//! positives allowed, false negatives never.

use xvr_pattern::{decompose, normalize, PathPattern, TreePattern};

use crate::metrics::{Counter, StageCounters};
use crate::nfa::{AcceptEntry, Nfa};
use crate::view::{View, ViewId, ViewSet};

/// Result of filtering a query against a view set.
#[derive(Clone, Debug)]
pub struct FilterOutcome {
    /// Views that survived the filter (every view path contains some query
    /// path), ascending by id.
    pub candidates: Vec<ViewId>,
    /// `LIST(P_i)` for each query path (indexed like the query's
    /// decomposition): candidate views that contain `P_i`, each with the
    /// largest length of a containing view path, sorted by length
    /// descending.
    pub lists: Vec<Vec<(ViewId, u32)>>,
    /// `|D(Q)|`, for reporting.
    pub query_path_count: usize,
}

/// Build a VFILTER automaton over all (normalized) paths of `views`.
pub fn build_nfa(views: &ViewSet) -> Nfa {
    let mut nfa = Nfa::new();
    for view in views.iter() {
        insert_view_paths(&mut nfa, view, &view.normalized_paths);
    }
    nfa
}

/// Insert `paths` — one per path of `view`'s decomposition, normalized or
/// raw — into `nfa`, each accepting with the view's id, the path's index
/// and length, and its attribute signature.
pub(crate) fn insert_view_paths(nfa: &mut Nfa, view: &View, paths: &[PathPattern]) {
    for (idx, path) in paths.iter().enumerate() {
        nfa.insert(
            path,
            AcceptEntry {
                view: view.id,
                path_idx: idx as u32,
                path_len: path.len() as u32,
                attr_mask: view.path_attr_masks[idx],
            },
        );
    }
}

/// Filtering knobs, mainly for ablation studies. The defaults are what
/// [`filter_views`] uses (and what the correctness guarantees assume).
#[derive(Clone, Copy, Debug)]
pub struct FilterOptions {
    /// Attribute-signature pruning (Section VII extension): an accepting
    /// view path additionally requires the query path to *provide* every
    /// attribute name the view path requires (Bloom signatures; collisions
    /// err on the keep side, preserving the no-false-negative guarantee).
    pub attr_pruning: bool,
    /// Normalize query paths before reading them (Section III-C). Turning
    /// this off (together with [`build_nfa_raw`]) reintroduces the false
    /// negatives normalization exists to eliminate — ablation only.
    pub normalize_queries: bool,
}

impl Default for FilterOptions {
    fn default() -> FilterOptions {
        FilterOptions {
            attr_pruning: true,
            normalize_queries: true,
        }
    }
}

/// Build a VFILTER over the **raw** (unnormalized) view paths — ablation
/// partner of [`FilterOptions::normalize_queries`].
pub fn build_nfa_raw(views: &ViewSet) -> Nfa {
    let mut nfa = Nfa::new();
    for view in views.iter() {
        insert_view_paths(&mut nfa, view, &view.decomposition.paths);
    }
    nfa
}

/// Algorithm 1: filter `views` down to candidates for answering `q`,
/// with the default options.
pub fn filter_views(q: &TreePattern, views: &ViewSet, nfa: &Nfa) -> FilterOutcome {
    filter_views_opts(q, views, nfa, FilterOptions::default())
}

/// [`filter_views`] with explicit [`FilterOptions`].
pub fn filter_views_opts(
    q: &TreePattern,
    views: &ViewSet,
    nfa: &Nfa,
    options: FilterOptions,
) -> FilterOutcome {
    filter_views_metered(q, views, nfa, options, &mut StageCounters::new())
}

/// [`filter_views_opts`] recording observability counters: views
/// admitted/rejected, NFA state activations, query path count, and the
/// per-path candidate list sizes (see [`crate::metrics`]).
pub fn filter_views_metered(
    q: &TreePattern,
    views: &ViewSet,
    nfa: &Nfa,
    options: FilterOptions,
    counters: &mut StageCounters,
) -> FilterOutcome {
    counters.bump(Counter::FilterRuns);
    let d = decompose(q);
    counters.add(Counter::FilterQueryPaths, d.paths.len() as u64);
    // Matched view-path indices per view, as bitmasks (a minimized pattern
    // with > 64 root-to-leaf paths does not occur in practice; the
    // registration path asserts it). Dense arrays beat hash maps here: the
    // automaton produces many hits per query path. `hit` lists each view
    // the first time any of its paths matches, so deciding candidates
    // costs the number of hit views, not the size of the catalog.
    let mut matched: Vec<u64> = vec![0; views.len()];
    let mut hit: Vec<ViewId> = Vec::new();
    let mut lists: Vec<Vec<(ViewId, u32)>> = Vec::with_capacity(d.paths.len());
    let mut best_len: Vec<u32> = vec![0; views.len()];
    let mut touched: Vec<ViewId> = Vec::new();
    for (path, &provided) in d.paths.iter().zip(d.attr_masks.iter()) {
        let symbols = if options.normalize_queries {
            normalize(path).symbols()
        } else {
            path.symbols()
        };
        let states = nfa.run(&symbols, |entry| {
            if options.attr_pruning && entry.attr_mask & !provided != 0 {
                return; // the query path cannot supply a required attribute
            }
            let mask = &mut matched[entry.view.index()];
            if *mask == 0 {
                hit.push(entry.view);
            }
            *mask |= 1u64 << (entry.path_idx.min(63));
            let slot = &mut best_len[entry.view.index()];
            if *slot == 0 {
                touched.push(entry.view);
            }
            *slot = (*slot).max(entry.path_len);
        });
        counters.add(Counter::FilterNfaStates, states);
        lists.push(
            touched
                .drain(..)
                .map(|v| {
                    let len = best_len[v.index()];
                    best_len[v.index()] = 0;
                    (v, len)
                })
                .collect(),
        );
    }
    let mut candidates: Vec<ViewId> = hit
        .into_iter()
        .filter(|v| matched[v.index()].count_ones() as usize == views.view(*v).path_count())
        .collect();
    candidates.sort_unstable();
    counters.add(Counter::FilterViewsAdmitted, candidates.len() as u64);
    counters.add(
        Counter::FilterViewsRejected,
        (views.len() - candidates.len()) as u64,
    );
    // Lines 22–26: drop filtered views from the per-path lists, marking
    // candidates in `best_len` (all zero again after the loop above). The
    // sort order is total, so sorting after the drop gives the same lists.
    for &v in &candidates {
        best_len[v.index()] = 1;
    }
    for list in &mut lists {
        list.retain(|(v, _)| best_len[v.index()] != 0);
        list.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counters.add(Counter::FilterListEntries, list.len() as u64);
        counters.list_sizes.record(list.len() as u64);
    }
    FilterOutcome {
        candidates,
        lists,
        query_path_count: d.paths.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_pattern::parse_pattern_with;
    use xvr_xml::LabelTable;

    /// Table I's four views.
    fn table_i(labels: &mut LabelTable) -> ViewSet {
        let mut set = ViewSet::new();
        for src in ["/s[t]/p", "/s[.//*/t][f//i]//f", "/s/p/*", "/s[.//p]//f"] {
            set.add(parse_pattern_with(src, labels).unwrap());
        }
        set
    }

    #[test]
    fn example_3_4() {
        // Query Q_e = s[f//i][t]/p → candidates {V1, V4}... with our Table I
        // reconstruction, V1 (= s[t]/p) must survive and V3 (= s/p/*) must
        // be filtered (its path s/p/* contains no path of Q_e).
        let mut labels = LabelTable::new();
        let views = table_i(&mut labels);
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("/s[f//i][t]/p", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert!(out.candidates.contains(&ViewId(0)), "{:?}", out.candidates);
        assert!(!out.candidates.contains(&ViewId(2)), "{:?}", out.candidates);
        assert_eq!(out.query_path_count, 3);
    }

    #[test]
    fn no_false_negatives_vs_homomorphism() {
        // Any view with a homomorphism into the query must survive.
        let mut labels = LabelTable::new();
        let view_srcs = [
            "/s[t]/p",
            "/s//p",
            "/s[.//p]//f",
            "//p",
            "/s",
            "//*",
            "/s[f]/p",
            "/s/t",
            "/s//f",
            "/s[.//i][t]/p",
        ];
        let mut views = ViewSet::new();
        for src in view_srcs {
            views.add(parse_pattern_with(src, &mut labels).unwrap());
        }
        let nfa = build_nfa(&views);
        for qsrc in ["/s[f//i][t]/p", "/s[t]/p", "/s/p"] {
            let q = parse_pattern_with(qsrc, &mut labels).unwrap();
            let out = filter_views(&q, &views, &nfa);
            for (i, vsrc) in view_srcs.iter().enumerate() {
                let v = parse_pattern_with(vsrc, &mut labels).unwrap();
                if xvr_pattern::contains(&v, &q) {
                    assert!(
                        out.candidates.contains(&ViewId(i as u32)),
                        "view {vsrc} contains query {qsrc} but was filtered"
                    );
                }
            }
        }
    }

    #[test]
    fn filters_unrelated_views() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        views.add(parse_pattern_with("/x/y", &mut labels).unwrap());
        views.add(parse_pattern_with("/s/q", &mut labels).unwrap());
        views.add(parse_pattern_with("/s/p", &mut labels).unwrap());
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("/s[t]/p", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert_eq!(out.candidates, vec![ViewId(2)]);
    }

    #[test]
    fn lists_sorted_by_length_desc() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        views.add(parse_pattern_with("/s", &mut labels).unwrap()); // len 1
        views.add(parse_pattern_with("/s/p", &mut labels).unwrap()); // len 2
        views.add(parse_pattern_with("//p", &mut labels).unwrap()); // len 1
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("/s/p", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert_eq!(out.lists.len(), 1);
        let lens: Vec<u32> = out.lists[0].iter().map(|&(_, l)| l).collect();
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(lens, sorted);
        assert_eq!(out.lists[0][0], (ViewId(1), 2));
    }

    #[test]
    fn filtered_views_removed_from_lists() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        // This view's second path (s/z) matches no query path, so the view
        // is filtered — and must not linger in any list.
        views.add(parse_pattern_with("/s[z]/p", &mut labels).unwrap());
        views.add(parse_pattern_with("/s/p", &mut labels).unwrap());
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("/s/p", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert_eq!(out.candidates, vec![ViewId(1)]);
        for list in &out.lists {
            assert!(list.iter().all(|&(v, _)| v == ViewId(1)));
        }
    }

    #[test]
    fn multiple_query_paths_matching_one_view_path() {
        // The NUM(V) literal reading would over-count here; the set-based
        // implementation keeps the view.
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        views.add(parse_pattern_with("/a[.//b]//c", &mut labels).unwrap());
        let nfa = build_nfa(&views);
        // Query with three paths: two contained in a//b, one in a//c.
        let q = parse_pattern_with("/a[b][x/b]//c", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert_eq!(out.candidates, vec![ViewId(0)]);
    }

    #[test]
    fn attribute_pruning_drops_unusable_views() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        // Requires @id on a; a query without @id can never be contained.
        views.add(parse_pattern_with("//a[@id]/b", &mut labels).unwrap());
        views.add(parse_pattern_with("//a/b", &mut labels).unwrap());
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("//a[c]/b", &mut labels).unwrap();
        let with = filter_views(&q, &views, &nfa);
        let without = filter_views_opts(
            &q,
            &views,
            &nfa,
            FilterOptions {
                attr_pruning: false,
                ..FilterOptions::default()
            },
        );
        assert_eq!(with.candidates, vec![ViewId(1)], "attr view pruned");
        assert_eq!(without.candidates, vec![ViewId(0), ViewId(1)]);
    }

    #[test]
    fn attribute_pruning_keeps_satisfiable_views() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        views.add(parse_pattern_with("//a[@id]/b", &mut labels).unwrap());
        let nfa = build_nfa(&views);
        // Query provides @id (by equality, which implies existence).
        let q = parse_pattern_with(r#"//a[@id="7"]/b"#, &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert_eq!(out.candidates, vec![ViewId(0)]);
    }

    #[test]
    fn normalization_ablation_reintroduces_false_negatives() {
        let mut labels = LabelTable::new();
        let mut views = ViewSet::new();
        // s//*/t ≡ s/*//t: without normalization the automaton misses one
        // spelling (Example 3.2).
        views.add(parse_pattern_with("/s/*//t", &mut labels).unwrap());
        let q = parse_pattern_with("/s//*/t", &mut labels).unwrap();
        let normalized = build_nfa(&views);
        assert_eq!(
            filter_views(&q, &views, &normalized).candidates,
            vec![ViewId(0)]
        );
        let raw = build_nfa_raw(&views);
        let out = filter_views_opts(
            &q,
            &views,
            &raw,
            FilterOptions {
                normalize_queries: false,
                ..FilterOptions::default()
            },
        );
        assert!(out.candidates.is_empty(), "raw automaton must miss it");
    }

    #[test]
    fn empty_view_set() {
        let mut labels = LabelTable::new();
        let views = ViewSet::new();
        let nfa = build_nfa(&views);
        let q = parse_pattern_with("/a/b", &mut labels).unwrap();
        let out = filter_views(&q, &views, &nfa);
        assert!(out.candidates.is_empty());
    }
}
