//! The store-and-query façade, including the paper's five evaluation
//! strategies (Section VI): `BN`, `BF`, `MN`, `MV`, `HV`.
//!
//! | Strategy | Meaning |
//! |---|---|
//! | [`Strategy::Bn`] | evaluate on the base document, label index only |
//! | [`Strategy::Bf`] | evaluate on the base document, full path index |
//! | [`Strategy::Mn`] | minimum view set, **no** VFILTER (homomorphisms against every view) |
//! | [`Strategy::Mv`] | minimum view set over VFILTER candidates |
//! | [`Strategy::Hv`] | heuristic (Algorithm 2) over VFILTER candidates |
//!
//! Every answer carries per-stage timings so the benchmark harness can
//! regenerate the paper's Figures 8, 9 and 12.
//!
//! The engine is the **writer** half of a writer/reader split: it owns all
//! mutation (view registration, document appends, label growth) and hands
//! out immutable [`EngineSnapshot`]s that carry the whole read path and
//! can be shared freely across threads. The engine's one query method,
//! `answer`, is a convenience that delegates to an ephemeral snapshot;
//! `filter`, `lookup` and `explain` live on [`EngineSnapshot`] only.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use xvr_pattern::{parse_pattern_with, PLabel, PatternParseError, TreePattern};
use xvr_xml::{
    CodeStability, DeweyCode, Document, Label, LabelTable, NodeIndex, PathIndex, SubtreeMemo,
};

use crate::filter::{build_nfa, insert_view_paths};
use crate::materialize::MaterializedStore;
use crate::metrics::SnapshotMetrics;
use crate::nfa::Nfa;
use crate::rewrite::{view_gen, RewriteCache, RewriteError};
use crate::snapshot::{EngineSnapshot, QueryOptions};
use crate::view::{ViewId, ViewSet};

/// Evaluation strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Base document with the label ("basic node") index.
    Bn,
    /// Base document with the full path index.
    Bf,
    /// Minimum view set without VFILTER.
    Mn,
    /// Minimum view set over VFILTER candidates.
    Mv,
    /// Heuristic view set over VFILTER candidates.
    Hv,
    /// Cost-based view set over VFILTER candidates (the cost model the
    /// paper sketches in Section IV-B but omits: fragment bytes plus a
    /// per-view overhead, greedily minimized per covered obligation).
    Cb,
    /// Heuristic view set, falling back to an intersection rewrite over
    /// small subsets of VFILTER candidates when leaf-cover answerability
    /// fails (Cautis et al., "Rewriting XPath Queries using View
    /// Intersections"): every member binds the answer node, so the
    /// holistic join ANDs the members' refined fragment roots there while
    /// it verifies the query's root-path chain. Answers every query `Hv`
    /// answers.
    HvIntersect,
}

impl Strategy {
    /// The paper's abbreviation.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Bn => "BN",
            Strategy::Bf => "BF",
            Strategy::Mn => "MN",
            Strategy::Mv => "MV",
            Strategy::Hv => "HV",
            Strategy::Cb => "CB",
            Strategy::HvIntersect => "HVI",
        }
    }

    /// Parse the paper's abbreviation (case-insensitive): `bn`, `bf`,
    /// `mn`, `mv`, `hv`, `cb`, `hvi`.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.to_ascii_lowercase().as_str() {
            "bn" => Some(Strategy::Bn),
            "bf" => Some(Strategy::Bf),
            "mn" => Some(Strategy::Mn),
            "mv" => Some(Strategy::Mv),
            "hv" => Some(Strategy::Hv),
            "cb" => Some(Strategy::Cb),
            "hvi" => Some(Strategy::HvIntersect),
            _ => None,
        }
    }

    /// The paper's five strategies, in Figure 8 order.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::Bn,
            Strategy::Bf,
            Strategy::Mn,
            Strategy::Mv,
            Strategy::Hv,
        ]
    }

    /// The paper's strategies plus the cost-based and intersection
    /// extensions.
    pub fn all_extended() -> [Strategy; 7] {
        [
            Strategy::Bn,
            Strategy::Bf,
            Strategy::Mn,
            Strategy::Mv,
            Strategy::Hv,
            Strategy::Cb,
            Strategy::HvIntersect,
        ]
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Wall-clock timings of the answer pipeline stages, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// VFILTER time (zero for strategies that skip it).
    pub filter_us: u128,
    /// View-set selection time (homomorphisms + covering).
    pub selection_us: u128,
    /// Refinement + join + extraction time (or base evaluation time).
    pub rewrite_us: u128,
}

impl StageTimings {
    /// Filter + selection: the paper's Figure 9 "lookup time".
    pub fn lookup_us(&self) -> u128 {
        self.filter_us + self.selection_us
    }

    /// End-to-end: the paper's Figure 8 "query processing time".
    pub fn total_us(&self) -> u128 {
        self.filter_us + self.selection_us + self.rewrite_us
    }
}

/// A query answer with provenance and timings.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Answer-node extended Dewey codes, document order, deduplicated.
    pub codes: Vec<DeweyCode>,
    /// Strategy used.
    pub strategy: Strategy,
    /// Stage timings.
    pub timings: StageTimings,
    /// Distinct views used (empty for base strategies).
    pub views_used: Vec<ViewId>,
    /// Number of candidate views considered by selection.
    pub candidates: usize,
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnswerError {
    /// No view subset covers the query (view strategies only).
    NotAnswerable,
    /// The rewriting stage failed (e.g. truncated materialization).
    Rewrite(RewriteError),
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::NotAnswerable => write!(f, "no view set answers the query"),
            AnswerError::Rewrite(e) => write!(f, "rewriting failed: {e}"),
        }
    }
}

impl std::error::Error for AnswerError {}

/// Outcome of [`Engine::append_xml`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateStats {
    /// Whether existing codes (and fragments) survived.
    pub stability: CodeStability,
    /// Views re-materialized because the update could affect them.
    pub views_rematerialized: usize,
    /// Views proven unaffected: no label overlap, no wildcard, and no
    /// fragment containing the insertion point.
    pub views_skipped: usize,
}

/// Why an update failed.
#[derive(Debug)]
pub enum UpdateError {
    /// The inserted XML did not parse.
    Parse(xvr_xml::ParseError),
    /// No node carries the given code.
    NoSuchNode(DeweyCode),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Parse(e) => write!(f, "update XML: {e}"),
            UpdateError::NoSuchNode(c) => write!(f, "no node at code {c}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Can the view's result change when nodes with `labels` are inserted?
/// (Conservative: any wildcard counts as overlap.)
fn view_mentions(pattern: &TreePattern, labels: &HashSet<Label>) -> bool {
    pattern.ids().any(|n| match pattern.label(n) {
        PLabel::Wild => true,
        PLabel::Lab(l) => labels.contains(&l),
    })
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Per-view materialization budget in bytes (the paper uses 128 KB).
    pub fragment_budget: usize,
    /// Cap on the exhaustive minimum-selection subset size.
    pub max_minimum_views: usize,
    /// Per-view overhead (in byte-equivalents) charged by the cost-based
    /// strategy for each additional distinct view.
    pub cost_view_overhead: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            fragment_budget: usize::MAX,
            max_minimum_views: 4,
            cost_view_overhead: 1024,
        }
    }
}

/// The full system: document, indexes, view catalog, materializations, and
/// the VFILTER automaton (maintained incrementally as views are added).
///
/// Every component lives behind an [`Arc`] so that [`Engine::snapshot`]
/// is practically free; mutation goes through [`Arc::make_mut`], which
/// clones a component only while a snapshot still holds the old version
/// (copy-on-write). The catalog and the store keep each view behind an
/// `Arc` of its own, so such a clone copies pointers, not fragments: a
/// write costs what it changes.
///
/// Two components are shared rather than frozen: the [`RewriteCache`] and
/// the cumulative [`SnapshotMetrics`]. Every snapshot of the engine holds
/// the same instance of each, and writes keep them, so a write neither
/// empties the readers' cache nor resets their counts.
///
/// One component is the writer's alone: the [`SubtreeMemo`] of fragment
/// trees already extracted from the current document, through which every
/// view registration shares the subtrees earlier views admitted.
pub struct Engine {
    doc: Arc<Document>,
    labels: Arc<LabelTable>,
    views: Arc<ViewSet>,
    store: Arc<MaterializedStore>,
    nfa: Arc<Nfa>,
    node_index: Arc<NodeIndex>,
    /// Fragment trees extracted from `doc` so far, by root; cleared
    /// whenever `doc` changes.
    subtrees: SubtreeMemo,
    path_index: Arc<PathIndex>,
    config: EngineConfig,
    rewrite_cache: Arc<RewriteCache>,
    metrics: Arc<SnapshotMetrics>,
}

impl Engine {
    /// The construction knobs this engine was built with (a rebuilt
    /// engine — e.g. a server swapping documents — reuses them so the
    /// new snapshot behaves identically).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Build an engine over `doc` (indexes are constructed eagerly).
    pub fn new(doc: Document, config: EngineConfig) -> Engine {
        let node_index = NodeIndex::build(&doc.tree, &doc.labels);
        let path_index = PathIndex::build(&doc.tree, &doc.labels);
        let labels = doc.labels.clone();
        Engine {
            doc: Arc::new(doc),
            labels: Arc::new(labels),
            views: Arc::new(ViewSet::new()),
            store: Arc::new(MaterializedStore::new()),
            nfa: Arc::new(Nfa::new()),
            node_index: Arc::new(node_index),
            subtrees: SubtreeMemo::new(),
            path_index: Arc::new(path_index),
            config,
            rewrite_cache: Arc::new(RewriteCache::new()),
            metrics: Arc::new(SnapshotMetrics::new()),
        }
    }

    /// Share `previous`'s cumulative metrics from now on, so the counts
    /// survive replacing one engine with another (a server swapping
    /// documents). The rewrite cache is not shared: its entries belong to
    /// `previous`'s materializations.
    pub fn inherit_metrics(&mut self, previous: &Engine) {
        self.metrics = Arc::clone(&previous.metrics);
    }

    /// Freeze the current state into an immutable, `Send + Sync`
    /// [`EngineSnapshot`] carrying the full read path.
    ///
    /// Costs nine reference-count bumps — no data is copied. Later
    /// engine mutations copy-on-write only the components they touch, so
    /// outstanding snapshots keep observing exactly the state they froze.
    /// Every snapshot shares the engine's one [`RewriteCache`] and
    /// [`SnapshotMetrics`]. Sharing the cache across writes is safe
    /// because its keys carry each materialization's generation: a
    /// snapshot only ever reads entries computed from its own fragments.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            doc: Arc::clone(&self.doc),
            labels: Arc::clone(&self.labels),
            views: Arc::clone(&self.views),
            store: Arc::clone(&self.store),
            nfa: Arc::clone(&self.nfa),
            node_index: Arc::clone(&self.node_index),
            path_index: Arc::clone(&self.path_index),
            config: self.config.clone(),
            rewrite_cache: Arc::clone(&self.rewrite_cache),
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The (growing) label space shared by document, views and queries.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The view catalog.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The materialization store.
    pub fn store(&self) -> &MaterializedStore {
        &self.store
    }

    /// The VFILTER automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The label index (BN baseline).
    pub fn node_index(&self) -> &NodeIndex {
        &self.node_index
    }

    /// The path index (BF baseline).
    pub fn path_index(&self) -> &PathIndex {
        &self.path_index
    }

    /// Parse a pattern in the engine's label space, interning labels the
    /// query introduces. (Read-only parsing against a frozen table lives
    /// on [`EngineSnapshot::parse`].)
    pub fn parse(&mut self, src: &str) -> Result<TreePattern, PatternParseError> {
        parse_pattern_with(src, Arc::make_mut(&mut self.labels))
    }

    /// Register and materialize a view; updates VFILTER incrementally.
    pub fn add_view(&mut self, pattern: TreePattern) -> ViewId {
        let views = Arc::make_mut(&mut self.views);
        let id = views.add(pattern);
        let view = views.view(id);
        insert_view_paths(Arc::make_mut(&mut self.nfa), view, &view.normalized_paths);
        Arc::make_mut(&mut self.store).materialize(
            &self.doc,
            &self.node_index,
            &mut self.subtrees,
            &self.views,
            id,
            self.config.fragment_budget,
        );
        id
    }

    /// Parse-and-register convenience.
    pub fn add_view_str(&mut self, src: &str) -> Result<ViewId, PatternParseError> {
        let p = self.parse(src)?;
        Ok(self.add_view(p))
    }

    /// Rebuild the VFILTER automaton from scratch (used by size benchmarks).
    pub fn rebuild_nfa(&mut self) {
        self.nfa = Arc::new(build_nfa(&self.views));
    }

    /// Append an XML subtree under the node addressed by `parent_code`,
    /// maintaining indexes and materialized views **incrementally**. A
    /// view is re-materialized when its bindings can change — its pattern
    /// names a label of the inserted subtree, or a wildcard — or when one
    /// of its fragments contains the insertion point, since a fragment is
    /// the whole subtree under its root. Other views keep their fragments,
    /// unless the append grew a child alphabet, which re-encodes the
    /// document and stales every fragment (see [`CodeStability`]).
    ///
    /// A re-materialized view gets a new generation, so no snapshot can
    /// read rewrite-cache entries of its old fragments; they are evicted
    /// here to free their memory.
    pub fn append_xml(
        &mut self,
        parent_code: &DeweyCode,
        xml: &str,
    ) -> Result<UpdateStats, UpdateError> {
        let sub = xvr_xml::parser::parse_tree_with(xml, Arc::make_mut(&mut self.labels))
            .map_err(UpdateError::Parse)?;
        let parent = self
            .doc
            .node_by_code(parent_code)
            .ok_or_else(|| UpdateError::NoSuchNode(parent_code.clone()))?;
        let doc = Arc::make_mut(&mut self.doc);
        // The label table may have grown; copy over only the new suffix
        // (tables grow monotonically) so FST rebuilds see every label —
        // without re-cloning the whole table on each update.
        doc.labels.sync_from(&self.labels);
        let update_labels: HashSet<Label> = sub.iter().map(|n| sub.label(n)).collect();
        let (_, stability) = doc.append_subtree(parent, &sub);
        // Base indexes always refresh (the document changed), before any
        // view is re-materialized: materialization reads the label index.
        self.node_index = Arc::new(NodeIndex::build(&doc.tree, &doc.labels));
        self.path_index = Arc::new(PathIndex::build(&doc.tree, &doc.labels));
        let mut stats = UpdateStats {
            stability,
            views_rematerialized: 0,
            views_skipped: 0,
        };
        // Every subtree above the insertion point grew: no tree extracted
        // before the append may be shared after it.
        self.subtrees.clear();
        let store = Arc::make_mut(&mut self.store);
        let mut stale = HashSet::new();
        for id in self.views.ids() {
            let must = stability == CodeStability::Reencoded
                || view_mentions(&self.views.view(id).pattern, &update_labels)
                || store
                    .get(id)
                    .is_some_and(|mv| mv.fragments.contains_node(parent_code));
            if must {
                stale.extend(store.get(id).map(view_gen));
                store.materialize(
                    &self.doc,
                    &self.node_index,
                    &mut self.subtrees,
                    &self.views,
                    id,
                    self.config.fragment_budget,
                );
                stats.views_rematerialized += 1;
            } else {
                stats.views_skipped += 1;
            }
        }
        self.rewrite_cache.evict(&stale);
        Ok(stats)
    }

    /// Persist all materialized views to `dir` (see
    /// [`MaterializedStore::save`]).
    pub fn save_views(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.store.save(&self.views, &self.labels, dir)
    }

    /// Load previously saved views from `dir`, registering them and
    /// installing their fragments without touching the base document.
    pub fn load_views(&mut self, dir: &std::path::Path) -> std::io::Result<Vec<ViewId>> {
        let store = Arc::make_mut(&mut self.store);
        let views = Arc::make_mut(&mut self.views);
        let labels = Arc::make_mut(&mut self.labels);
        let ids = store.load(&self.doc, views, labels, dir)?;
        self.rebuild_nfa();
        Ok(ids)
    }

    /// Answer `q` under `strategy`.
    pub fn answer(&self, q: &TreePattern, strategy: Strategy) -> Result<Answer, AnswerError> {
        self.snapshot()
            .query(q, &QueryOptions::strategy(strategy))
            .answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_xml::samples::book_document;

    fn engine_with_views(view_srcs: &[&str]) -> Engine {
        let mut e = Engine::new(book_document(), EngineConfig::default());
        for src in view_srcs {
            e.add_view_str(src).unwrap();
        }
        e
    }

    #[test]
    fn all_strategies_agree() {
        let mut e = engine_with_views(&["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]"]);
        let q = e.parse("//s[f//i][t]/p").unwrap();
        let reference = e.answer(&q, Strategy::Bn).unwrap().codes;
        assert_eq!(reference.len(), 5);
        for strategy in Strategy::all_extended() {
            let a = e.answer(&q, strategy).unwrap();
            assert_eq!(a.codes, reference, "{strategy}");
        }
    }

    #[test]
    fn view_strategies_report_views_used() {
        let mut e = engine_with_views(&["//s[t]/p", "//s[p]/f"]);
        let q = e.parse("//s[f//i][t]/p").unwrap();
        let a = e.answer(&q, Strategy::Hv).unwrap();
        assert_eq!(a.views_used.len(), 2);
        assert!(a.candidates >= 2);
        let b = e.answer(&q, Strategy::Bf).unwrap();
        assert!(b.views_used.is_empty());
    }

    #[test]
    fn not_answerable_without_views() {
        let mut e = engine_with_views(&["//s/t"]);
        let q = e.parse("//s[f//i][t]/p").unwrap();
        assert_eq!(
            e.answer(&q, Strategy::Hv).unwrap_err(),
            AnswerError::NotAnswerable
        );
        // Base strategies always work.
        assert!(e.answer(&q, Strategy::Bn).is_ok());
    }

    #[test]
    fn truncated_views_are_skipped_in_selection() {
        let mut e = Engine::new(
            book_document(),
            EngineConfig {
                fragment_budget: 100,
                ..EngineConfig::default()
            },
        );
        e.add_view_str("//s[t]/p").unwrap();
        let q = e.parse("//s[t]/p").unwrap();
        // The only view is truncated → not answerable (instead of wrong).
        assert_eq!(
            e.answer(&q, Strategy::Hv).unwrap_err(),
            AnswerError::NotAnswerable
        );
    }

    #[test]
    fn incremental_nfa_matches_rebuild() {
        let mut e = engine_with_views(&["//s[t]/p", "//s[p]/f", "//s//p"]);
        let q = e.parse("//s[f//i][t]/p").unwrap();
        let before = e.snapshot().filter(&q).candidates;
        e.rebuild_nfa();
        assert_eq!(e.snapshot().filter(&q).candidates, before);
    }

    #[test]
    fn save_and_load_views_round_trip() {
        let mut e = engine_with_views(&["//s[t]/p", "//s[p]/f"]);
        let q = e.parse("//s[f//i][t]/p").unwrap();
        let want = e.answer(&q, Strategy::Hv).unwrap().codes;
        let dir = std::env::temp_dir().join(format!("xvr-engine-save-{}", std::process::id()));
        e.save_views(&dir).unwrap();

        let mut e2 = Engine::new(book_document(), EngineConfig::default());
        let loaded = e2.load_views(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let q2 = e2.parse("//s[f//i][t]/p").unwrap();
        let got = e2.answer(&q2, Strategy::Hv).unwrap().codes;
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Hits and misses of one metered query.
    fn cache_lookups(snap: &EngineSnapshot, q: &TreePattern) -> (u64, u64) {
        let options = QueryOptions::strategy(Strategy::Hv).with_metrics();
        let counters = snap.query(q, &options).report.unwrap().counters.unwrap();
        (
            counters.get(crate::Counter::RewriteCacheHits),
            counters.get(crate::Counter::RewriteCacheMisses),
        )
    }

    #[test]
    fn add_view_keeps_the_rewrite_cache_and_append_evicts_stale_entries() {
        let mut e = engine_with_views(&["//s[t]/p", "//s[p]/f", "//f/i"]);
        let join = e.parse("//s[f//i][t]/p").unwrap();
        let single = e.parse("//f/i").unwrap();
        let s0 = e.snapshot();
        assert_eq!(cache_lookups(&s0, &join).0, 0, "cold cache");
        cache_lookups(&s0, &single);
        let warm = e.rewrite_cache.len();
        assert!(warm > 0);

        // A new view leaves every existing entry valid: the next snapshot
        // answers the same queries from the cache alone.
        e.add_view_str("//s//p").unwrap();
        let s1 = e.snapshot();
        assert!(std::ptr::eq(s0.rewrite_cache(), s1.rewrite_cache()));
        assert_eq!(e.rewrite_cache.len(), warm);
        for q in [&join, &single] {
            let (hits, misses) = cache_lookups(&s1, q);
            assert!(hits > 0 && misses == 0, "{hits} hits, {misses} misses");
        }

        // The append re-materializes the views naming `p` and keeps
        // `//f/i`: only the entries of the redone views go.
        e.append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
            .unwrap();
        let s2 = e.snapshot();
        assert!(e.rewrite_cache.len() < warm);
        assert_eq!(cache_lookups(&s2, &single), (2, 0));
        let (_, misses) = cache_lookups(&s2, &join);
        assert!(misses > 0);
        assert_eq!(
            e.answer(&join, Strategy::Hv).unwrap().codes,
            e.answer(&join, Strategy::Bn).unwrap().codes
        );
    }

    #[test]
    fn metrics_survive_writes_and_engine_replacement() {
        let mut e = engine_with_views(&["//s[t]/p"]);
        let q = e.parse("//s[t]/p").unwrap();
        let options = QueryOptions::strategy(Strategy::Hv).with_metrics();
        e.snapshot().query(&q, &options);
        e.add_view_str("//f/i").unwrap();
        e.snapshot().query(&q, &options);
        assert_eq!(e.snapshot().metrics().queries(), 2);

        let mut next = engine_with_views(&["//s[t]/p"]);
        next.inherit_metrics(&e);
        next.snapshot().query(&q, &options);
        assert_eq!(e.snapshot().metrics().queries(), 3);
        // The rewrite cache is not inherited: its entries belong to the
        // old engine's materializations.
        assert!(!std::ptr::eq(
            e.snapshot().rewrite_cache(),
            next.snapshot().rewrite_cache()
        ));
    }

    #[test]
    fn rewrite_cache_stays_under_its_cap_and_answers_equal_uncached() {
        const CAP: usize = 4 * 1024;
        let mut e = engine_with_views(&[
            "//s[t]/p",
            "//s[p]/f",
            "//f/i",
            "//s//p",
            "//s[.//i]",
            "/b/s",
            "//*[i]",
            "//p",
        ]);
        e.rewrite_cache = Arc::new(RewriteCache::with_cap(CAP));
        let queries: Vec<TreePattern> = [
            "//s[f//i][t]/p",
            "//s[t]/p",
            "/b/s//p",
            "//s[p]/f",
            "//f/i",
            "//s[.//i]",
            "//s//p",
            "/b/s[t]/p",
            "//s/s/p",
            "//s[f]/p",
            "/b//p",
            "//s[p]/t",
            "//s[i]",
            "/b/s[f//i]",
            "//s[t][p]",
            "//s[f/i]/p",
            "//p",
            "//s[.//p]/t",
            "/b/s/p",
        ]
        .iter()
        .map(|src| e.parse(src).unwrap())
        .collect();
        let snap = e.snapshot();
        let mut evictions = 0;
        for round in 0..2 {
            for q in &queries {
                for strategy in Strategy::all_extended() {
                    let options = QueryOptions::strategy(strategy).with_metrics();
                    let cached = snap.query(q, &options);
                    evictions += cached
                        .report
                        .unwrap()
                        .counters
                        .unwrap()
                        .get(crate::Counter::RewriteCacheEvictions);
                    assert!(snap.rewrite_cache().bytes() <= CAP);
                    let uncached = snap.query(q, &options.with_cache(false)).answer;
                    match (cached.answer, uncached) {
                        (Ok(a), Ok(b)) => assert_eq!(a.codes, b.codes, "{strategy} round {round}"),
                        (a, b) => assert_eq!(a.err(), b.err(), "{strategy} round {round}"),
                    }
                }
            }
        }
        assert!(evictions > 0, "the workload must overflow the cap");
        assert!(!snap.rewrite_cache().is_empty());
        let report = snap.metrics_report();
        assert_eq!(report.cache_bytes, snap.rewrite_cache().bytes() as u64);
        assert_eq!(report.cache_entries, snap.rewrite_cache().len() as u64);
        assert_eq!(
            report.counters.get(crate::Counter::RewriteCacheEvictions),
            evictions
        );
    }

    /// The fragment trees of `view`, by root code.
    fn trees_by_code(
        snap: &EngineSnapshot,
        view: ViewId,
    ) -> std::collections::HashMap<DeweyCode, Arc<xvr_xml::XmlTree>> {
        let set = &snap.store().get(view).unwrap().fragments;
        set.codes().zip(set.trees().iter().cloned()).collect()
    }

    #[test]
    fn overlapping_views_share_fragment_trees() {
        let mut e = engine_with_views(&["//s", "/b/s"]);
        let snap = e.snapshot();
        let (all, top) = (ViewId(0), ViewId(1));
        let all_trees = trees_by_code(&snap, all);
        let top_trees = trees_by_code(&snap, top);
        assert!(top_trees.len() < all_trees.len());
        for (code, tree) in &top_trees {
            assert!(Arc::ptr_eq(tree, &all_trees[code]), "{code}");
        }
        // The budget still charges each view for every fragment it holds;
        // the store holds each shared tree once.
        let store = e.store();
        let shared: usize = top_trees.values().map(|t| t.heap_size()).sum();
        assert_eq!(store.resident_bytes(), store.total_bytes() - shared);
        let report = snap.metrics_report();
        assert_eq!(report.store_bytes, store.total_bytes() as u64);
        assert_eq!(report.resident_bytes, store.resident_bytes() as u64);
        assert!(report.to_string().contains(&format!(
            "store: {} bytes accounted per view, {} bytes resident",
            report.store_bytes, report.resident_bytes
        )));
        // A view registered later shares too.
        let late = e.add_view_str("//s[t]").unwrap();
        let late_trees = trees_by_code(&e.snapshot(), late);
        assert!(!late_trees.is_empty());
        for (code, tree) in &late_trees {
            assert!(Arc::ptr_eq(tree, &all_trees[code]), "{code}");
        }
    }

    /// An append grows the fragments that contain its insertion point. A
    /// snapshot pinned before it keeps its own trees, unchanged; the
    /// engine's re-materialized views get new trees, which views
    /// registered after the append share.
    #[test]
    fn pinned_snapshot_keeps_its_trees_across_an_append() {
        let mut e = engine_with_views(&["/b/s", "//f/i"]);
        let pinned = e.snapshot();
        let (top, figures) = (ViewId(0), ViewId(1));
        let before = trees_by_code(&pinned, top);
        let section: DeweyCode = "0.8".parse().unwrap();
        let size = before[&section].len();
        e.append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
            .unwrap();
        for (code, tree) in trees_by_code(&pinned, top) {
            assert!(Arc::ptr_eq(&tree, &before[&code]), "{code}");
        }
        assert_eq!(before[&section].len(), size);
        let now = e.snapshot();
        let after = trees_by_code(&now, top);
        assert_eq!(after[&section].len(), size + 1);
        assert!(!Arc::ptr_eq(&after[&section], &before[&section]));
        // `//f/i` holds no fragment above the insertion point: kept whole.
        assert!(std::ptr::eq(
            pinned.store().get(figures).unwrap(),
            now.store().get(figures).unwrap()
        ));
        let late = e.add_view_str("//s").unwrap();
        let late_trees = trees_by_code(&e.snapshot(), late);
        for (code, tree) in &after {
            assert!(Arc::ptr_eq(tree, &late_trees[code]), "{code}");
        }
    }

    #[test]
    fn timings_populate() {
        let mut e = engine_with_views(&["//s[t]/p"]);
        let q = e.parse("//s[t]/p").unwrap();
        let a = e.answer(&q, Strategy::Hv).unwrap();
        assert!(a.timings.total_us() >= a.timings.lookup_us());
    }
}
