//! The read side of the writer/reader split: an immutable, cheaply
//! cloneable, `Send + Sync` view of the engine.
//!
//! [`Engine`](crate::Engine) owns mutation (view registration, document
//! appends, label-table growth); [`EngineSnapshot`] freezes the engine's
//! state — document, indexes, view catalog, materializations, and the
//! VFILTER automaton, all behind [`Arc`]s — and exposes the full query
//! pipeline (`parse`, `filter`, `lookup`, `explain`, `query`). Because
//! the paper's pipeline is per-query pure once views are materialized,
//! every snapshot method takes `&self`, so one snapshot can serve any
//! number of threads concurrently; [`EngineSnapshot::query_batch`] does
//! exactly that with scoped worker threads.
//!
//! Answering goes through the single entry point
//! [`EngineSnapshot::query`]: [`QueryOptions`] pick the strategy, cache
//! use, and whether to collect the observability payload — stage
//! timings, [`StageCounters`], and the
//! [`AnswerTrace`] — returned as a
//! [`QueryReport`] inside the
//! [`QueryOutcome`]. `query` and `query_batch` are the *only* answering
//! entry points — the pre-redesign `answer*` methods are gone — and the
//! serve wire protocol ([`crate::wire`]) is a direct encoding of
//! [`QueryOptions`]/[`QueryOutcome`], so a served query and an embedded
//! one take the same path.
//!
//! Snapshots are copy-on-write: taking one is nine reference-count bumps,
//! and later engine mutations clone only the components they touch
//! (`Arc::make_mut`), leaving outstanding snapshots untouched. Two parts
//! are shared instead of frozen: the engine's [`RewriteCache`] and its
//! cumulative [`SnapshotMetrics`].
//!
//! The one subtlety is parsing: the classic parse path interns unseen
//! labels into the shared table, a write. Snapshots parse with
//! [`parse_pattern_in`] instead — unknown query labels resolve to fresh
//! non-matching labels, so the query parses, evaluates to the empty
//! answer, and the frozen table is never mutated.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xvr_pattern::{eval_bf, eval_bn, parse_pattern_in, PatternParseError, TreePattern};
use xvr_xml::{DeweyCode, Document, LabelTable, NodeIndex, PathIndex};

use crate::engine::{Answer, AnswerError, EngineConfig, StageTimings, Strategy};
use crate::filter::{filter_views_metered, FilterOptions, FilterOutcome};
use crate::leafcover::Obligations;
use crate::materialize::MaterializedStore;
use crate::metrics::{Counter, MetricsReport, QueryReport, SnapshotMetrics, StageCounters};
use crate::nfa::Nfa;
use crate::rewrite::{rewrite_metered, RewriteCache};
use crate::select::{
    select_cost_based_metered, select_heuristic_metered, select_intersection_metered,
    select_minimum_metered, Selection,
};
use crate::view::{ViewId, ViewSet};

/// An immutable snapshot of an [`Engine`](crate::Engine): the complete
/// read path, shareable across threads.
///
/// Obtained from [`Engine::snapshot`](crate::Engine::snapshot). Cloning a
/// snapshot is cheap (reference counts only), and a clone observes the
/// exact same state forever — updates applied to the engine afterwards are
/// invisible to it.
#[derive(Clone)]
pub struct EngineSnapshot {
    pub(crate) doc: Arc<Document>,
    pub(crate) labels: Arc<LabelTable>,
    pub(crate) views: Arc<ViewSet>,
    pub(crate) store: Arc<MaterializedStore>,
    pub(crate) nfa: Arc<Nfa>,
    pub(crate) node_index: Arc<NodeIndex>,
    pub(crate) path_index: Arc<PathIndex>,
    pub(crate) config: EngineConfig,
    /// Rewrite memoization (see [`RewriteCache`]): the engine's one
    /// cache, shared by all of its snapshots and kept across its writes.
    /// Keys carry materialization generations, so this snapshot reads
    /// only entries computed from its own fragments.
    pub(crate) rewrite_cache: Arc<RewriteCache>,
    /// Cumulative observability accumulator; queries run with
    /// [`QueryOptions::collect_metrics`] fold their counters in here.
    /// The engine's one accumulator, shared by all of its snapshots.
    pub(crate) metrics: Arc<SnapshotMetrics>,
}

// Compile-time guarantee: the snapshot is shareable across threads. If a
// future field loses `Send + Sync` (an `Rc`, a raw pointer, interior
// mutability without a lock), this stops compiling right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
};

/// Provenance of one answering attempt: which views the pipeline was
/// allowed to touch and which ones the rewriting actually consumed.
///
/// This is the introspection hook of the differential/metamorphic oracle
/// (`xvr_bench::oracle`): VFILTER soundness is checked as "every unit the
/// rewriting joined appears among the usable candidates", and answerability
/// invariants compare `selection_found` across strategies. For the base
/// strategies (`Bn`, `Bf`) every field is empty.
#[derive(Clone, Debug, Default)]
pub struct AnswerTrace {
    /// Views selection was allowed to use: filter survivors (all views for
    /// `Mn`) that have a complete materialization, ascending by id.
    pub usable: Vec<ViewId>,
    /// The `(view, m)` units the selected rewriting joins — each selected
    /// view paired with the query node its answers bind to. A view joined
    /// at two positions appears twice.
    pub units: Vec<(ViewId, xvr_pattern::PNodeId)>,
    /// Index into `units` of the anchor unit (the one whose fragments the
    /// final answer is extracted from), when a selection exists.
    pub anchor: Option<usize>,
}

impl AnswerTrace {
    /// Whether selection produced a rewriting plan.
    pub fn selection_found(&self) -> bool {
        self.anchor.is_some()
    }

    /// Every view a unit consumed is among the usable candidates.
    pub fn units_within_candidates(&self) -> bool {
        self.units.iter().all(|(v, _)| self.usable.contains(v))
    }
}

/// How [`EngineSnapshot::query`] should answer a query: the strategy
/// plus cache and observability switches.
///
/// Build with the fluent constructor:
/// `QueryOptions::strategy(Strategy::Mv).with_trace().with_metrics()`,
/// or from the default (`Hv`, cache on, no observability):
/// `QueryOptions::default().with_strategy(Strategy::Cb)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Use the engine's shared [`RewriteCache`] (view strategies only);
    /// `false` forces the uncached reference rewriter. Defaults to `true`.
    pub use_cache: bool,
    /// Return the [`AnswerTrace`] in the report. Defaults to `false`.
    pub collect_trace: bool,
    /// Return [`StageCounters`] in the report *and* fold them into the
    /// snapshot's cumulative [`SnapshotMetrics`]. Defaults to `false`;
    /// when off, no counter is recorded anywhere.
    pub collect_metrics: bool,
}

impl Default for QueryOptions {
    /// The paper's headline strategy with production defaults: `Hv`,
    /// cache on, no trace, no metrics.
    fn default() -> QueryOptions {
        QueryOptions::strategy(Strategy::Hv)
    }
}

impl QueryOptions {
    /// Options for `strategy` with the defaults: cache on, no trace, no
    /// metrics.
    pub fn strategy(strategy: Strategy) -> QueryOptions {
        QueryOptions {
            strategy,
            use_cache: true,
            collect_trace: false,
            collect_metrics: false,
        }
    }

    /// Set [`Self::strategy`], keeping every other switch.
    pub fn with_strategy(mut self, strategy: Strategy) -> QueryOptions {
        self.strategy = strategy;
        self
    }

    /// Set [`Self::use_cache`].
    pub fn with_cache(mut self, use_cache: bool) -> QueryOptions {
        self.use_cache = use_cache;
        self
    }

    /// Request the [`AnswerTrace`] in the report.
    pub fn with_trace(mut self) -> QueryOptions {
        self.collect_trace = true;
        self
    }

    /// Request [`StageCounters`] in the report and fold them into the
    /// snapshot's cumulative metrics.
    pub fn with_metrics(mut self) -> QueryOptions {
        self.collect_metrics = true;
        self
    }
}

/// Result of [`EngineSnapshot::query`]: the answer (or failure) plus the
/// requested observability payload.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The answer, exactly as the old `answer` method returned it.
    pub answer: Result<Answer, AnswerError>,
    /// Stage timings, counters, and trace — `Some` iff
    /// [`QueryOptions::collect_trace`] or
    /// [`QueryOptions::collect_metrics`] was set.
    pub report: Option<QueryReport>,
}

/// Result of [`EngineSnapshot::query_batch`]: per-query outcomes plus
/// aggregate accounting.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One outcome per input query, in input order (independent of which
    /// worker thread answered it).
    pub answers: Vec<Result<Answer, AnswerError>>,
    /// Per-stage timings summed over the successfully answered queries.
    /// With `jobs > 1` the stages overlap in wall time, so this measures
    /// total work, not elapsed time — compare against [`Self::wall_us`]
    /// for parallel speedup.
    pub total: StageTimings,
    /// Pipeline counters merged across all queries of the batch
    /// (commutative addition, so worker scheduling cannot change them).
    /// All-zero unless the batch ran with
    /// [`QueryOptions::collect_metrics`].
    pub counters: StageCounters,
    /// End-to-end wall time of the whole batch, in microseconds.
    pub wall_us: u128,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl BatchResult {
    /// Number of queries answered successfully.
    pub fn answered(&self) -> usize {
        self.answers.iter().filter(|a| a.is_ok()).count()
    }

    /// Batch throughput in queries per second (counting every query,
    /// answered or not, against wall time).
    pub fn qps(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.answers.len() as f64 / (self.wall_us as f64 / 1e6)
    }
}

impl EngineSnapshot {
    /// The underlying document.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The frozen label space shared by document, views and queries.
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

    /// The construction knobs the snapshot was taken under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Parse a pattern against the frozen label space, without mutating
    /// it. Unknown element names resolve to fresh non-matching labels, so
    /// such queries parse and answer with the empty result.
    pub fn parse(&self, src: &str) -> Result<TreePattern, PatternParseError> {
        parse_pattern_in(src, &self.labels)
    }

    /// Run VFILTER only (Figure 12's measured operation).
    pub fn filter(&self, q: &TreePattern) -> FilterOutcome {
        filter_views_metered(
            q,
            &self.views,
            &self.nfa,
            FilterOptions::default(),
            &mut StageCounters::new(),
        )
    }

    /// The cumulative metrics accumulator: every query run with
    /// [`QueryOptions::collect_metrics`] folds its counters and stage
    /// timings in here (thread-safe; shared by every snapshot of the
    /// engine, so writes do not reset it). Read it with
    /// [`Self::metrics_report`], or [`SnapshotMetrics::report`] for the
    /// counts alone.
    pub fn metrics(&self) -> &SnapshotMetrics {
        &self.metrics
    }

    /// The cumulative metrics plus the current size of the rewrite cache
    /// and of the materialized store (accounted and resident).
    pub fn metrics_report(&self) -> MetricsReport {
        let mut report = self.metrics.report();
        report.cache_entries = self.rewrite_cache.len() as u64;
        report.cache_bytes = self.rewrite_cache.bytes() as u64;
        report.store_bytes = self.store.total_bytes() as u64;
        report.resident_bytes = self.store.resident_bytes() as u64;
        report
    }

    /// The rewrite cache this snapshot shares with its engine.
    pub fn rewrite_cache(&self) -> &RewriteCache {
        &self.rewrite_cache
    }

    /// Run selection only — filter (unless `Mn`) plus view-set search.
    /// Returns the selection and the timings of both stages (Figure 9's
    /// "lookup").
    pub fn lookup(
        &self,
        q: &TreePattern,
        strategy: Strategy,
    ) -> (Option<Selection>, StageTimings, usize) {
        let (selection, timings, usable) =
            self.lookup_metered(q, strategy, &mut StageCounters::new());
        (selection, timings, usable.len())
    }

    /// [`Self::lookup`] returning the usable candidate list itself rather
    /// than its size (the oracle's trace needs the ids), recording
    /// observability counters.
    fn lookup_metered(
        &self,
        q: &TreePattern,
        strategy: Strategy,
        counters: &mut StageCounters,
    ) -> (Option<Selection>, StageTimings, Vec<ViewId>) {
        let obligations = Obligations::of(q);
        let mut timings = StageTimings::default();
        let (candidates, lists): (Vec<ViewId>, Option<FilterOutcome>) = match strategy {
            Strategy::Mn => (self.views.ids().collect(), None),
            Strategy::Mv | Strategy::Hv | Strategy::Cb | Strategy::HvIntersect => {
                let t0 = Instant::now();
                let outcome = filter_views_metered(
                    q,
                    &self.views,
                    &self.nfa,
                    FilterOptions::default(),
                    counters,
                );
                timings.filter_us = t0.elapsed().as_micros();
                (outcome.candidates.clone(), Some(outcome))
            }
            Strategy::Bn | Strategy::Bf => panic!("lookup is a view-strategy operation"),
        };
        // Skip views whose materialization was truncated: they cannot
        // support equivalent rewriting.
        let usable: Vec<ViewId> = candidates
            .into_iter()
            .filter(|&v| self.store.get(v).map(|m| m.complete()).unwrap_or(false))
            .collect();
        let t0 = Instant::now();
        let selection = match strategy {
            Strategy::Mn | Strategy::Mv => select_minimum_metered(
                q,
                &self.views,
                &usable,
                &obligations,
                self.config.max_minimum_views,
                counters,
            ),
            Strategy::Hv | Strategy::HvIntersect => {
                let mut outcome = lists.expect("Hv always filters");
                outcome.candidates = usable.clone();
                for list in &mut outcome.lists {
                    list.retain(|(v, _)| usable.contains(v));
                }
                let heuristic =
                    select_heuristic_metered(q, &self.views, &outcome, &obligations, counters);
                // HvIntersect = Hv plus an intersection fallback: only when
                // leaf-cover answerability fails, search small subsets of
                // the usable candidates whose intersection covers answer.
                if heuristic.is_none() && strategy == Strategy::HvIntersect {
                    select_intersection_metered(q, &self.views, &usable, &obligations, counters)
                } else {
                    heuristic
                }
            }
            Strategy::Cb => select_cost_based_metered(
                q,
                &self.views,
                &usable,
                &obligations,
                &|v| self.store.get(v).map(|m| m.size_bytes()).unwrap_or(0),
                self.config.cost_view_overhead,
                counters,
            ),
            _ => unreachable!(),
        };
        timings.selection_us = t0.elapsed().as_micros();
        (selection, timings, usable)
    }

    /// Produce a human-readable plan for answering `q` under a view
    /// strategy (errors for base strategies and unanswerable queries).
    pub fn explain(
        &self,
        q: &TreePattern,
        strategy: Strategy,
    ) -> Result<crate::explain::Explanation, AnswerError> {
        assert!(
            !matches!(strategy, Strategy::Bn | Strategy::Bf),
            "explain applies to view strategies"
        );
        let (selection, _, candidates) = self.lookup(q, strategy);
        let selection = selection.ok_or(AnswerError::NotAnswerable)?;
        Ok(crate::explain::explain_selection(
            strategy,
            q,
            &selection,
            &self.views,
            &self.store,
            &self.labels,
            candidates,
        ))
    }

    /// Answer `q` according to `options` — the single entry point of the
    /// answering pipeline.
    ///
    /// `QueryOptions::strategy(s)` alone reproduces the old `answer`
    /// method exactly; [`QueryOptions::with_cache`]`(false)` the old
    /// `answer_uncached`; [`QueryOptions::with_trace`] the old
    /// `answer_traced` (the trace rides in
    /// [`QueryOutcome::report`]). [`QueryOptions::with_metrics`]
    /// additionally returns the pipeline's [`StageCounters`] and folds
    /// them — together with the stage timings — into the snapshot's
    /// cumulative [`SnapshotMetrics`] (see [`Self::metrics`]).
    ///
    /// When neither trace nor metrics is requested the report is `None`
    /// and no counter is recorded anywhere: the only residue of the
    /// observability layer is stack-local integer additions.
    pub fn query(&self, q: &TreePattern, options: &QueryOptions) -> QueryOutcome {
        let mut counters = StageCounters::new();
        let (answer, trace, timings) =
            self.run_pipeline(q, options.strategy, options.use_cache, &mut counters);
        if options.collect_metrics {
            self.metrics.record(answer.is_ok(), &timings, &counters);
        }
        let report = (options.collect_trace || options.collect_metrics).then(|| QueryReport {
            timings,
            counters: options.collect_metrics.then(|| counters.clone()),
            trace: options.collect_trace.then_some(trace),
        });
        QueryOutcome { answer, report }
    }

    /// The shared pipeline body behind [`Self::query`]: evaluate, build
    /// the trace, and time each stage, accumulating counters into
    /// `counters` (the caller decides whether they are kept).
    fn run_pipeline(
        &self,
        q: &TreePattern,
        strategy: Strategy,
        use_cache: bool,
        counters: &mut StageCounters,
    ) -> (Result<Answer, AnswerError>, AnswerTrace, StageTimings) {
        match strategy {
            Strategy::Bn | Strategy::Bf => {
                let t0 = Instant::now();
                let nodes = match strategy {
                    Strategy::Bn => eval_bn(q, &self.doc.tree, &self.node_index),
                    _ => eval_bf(q, &self.doc, &self.path_index),
                };
                let rewrite_us = t0.elapsed().as_micros();
                let mut codes: Vec<DeweyCode> = nodes
                    .into_iter()
                    .map(|n| self.doc.dewey.code_of(&self.doc.tree, n))
                    .collect();
                codes.sort();
                counters.add(Counter::AnswerCodes, codes.len() as u64);
                let timings = StageTimings {
                    rewrite_us,
                    ..StageTimings::default()
                };
                let answer = Answer {
                    codes,
                    strategy,
                    timings,
                    views_used: Vec::new(),
                    candidates: 0,
                };
                (Ok(answer), AnswerTrace::default(), timings)
            }
            Strategy::Mn | Strategy::Mv | Strategy::Hv | Strategy::Cb | Strategy::HvIntersect => {
                let (selection, mut timings, usable) = self.lookup_metered(q, strategy, counters);
                let mut trace = AnswerTrace {
                    usable,
                    units: Vec::new(),
                    anchor: None,
                };
                let Some(selection) = selection else {
                    return (Err(AnswerError::NotAnswerable), trace, timings);
                };
                trace.units = selection
                    .units
                    .iter()
                    .map(|u| (u.view, u.cover.m))
                    .collect();
                trace.anchor = Some(selection.anchor);
                counters.add(Counter::SelectUnits, selection.units.len() as u64);
                counters.add(Counter::SelectViews, selection.view_ids().len() as u64);
                let candidates = trace.usable.len();
                let t0 = Instant::now();
                let result = rewrite_metered(
                    q,
                    &selection,
                    &self.views,
                    &self.store,
                    &self.doc.fst,
                    use_cache.then_some(self.rewrite_cache.as_ref()),
                    counters,
                );
                let codes = match result {
                    Ok(codes) => codes,
                    Err(e) => return (Err(AnswerError::Rewrite(e)), trace, timings),
                };
                if selection.intersection {
                    counters.bump(Counter::IntersectAnswered);
                }
                timings.rewrite_us = t0.elapsed().as_micros();
                counters.add(Counter::AnswerCodes, codes.len() as u64);
                let answer = Answer {
                    codes,
                    strategy,
                    timings,
                    views_used: selection.view_ids(),
                    candidates,
                };
                (Ok(answer), trace, timings)
            }
        }
    }

    /// Answer every query in `queries` under the same `options`, fanning
    /// the work out over `jobs` scoped worker threads.
    ///
    /// Results come back in input order regardless of which thread
    /// answered which query, and are identical to answering sequentially
    /// (the pipeline is per-query pure). `jobs` is clamped to
    /// `1..=queries.len()`; `jobs <= 1` runs inline with no threads
    /// spawned. Work is distributed by an atomic cursor, so long queries
    /// don't stall short ones behind a static partition.
    ///
    /// With [`QueryOptions::collect_metrics`] the per-query counters are
    /// merged into [`BatchResult::counters`]; merging is commutative
    /// addition, so the merged counters are identical for every `jobs`
    /// value and worker interleaving.
    pub fn query_batch(
        &self,
        queries: &[TreePattern],
        options: &QueryOptions,
        jobs: usize,
    ) -> BatchResult {
        let t0 = Instant::now();
        let jobs = jobs.clamp(1, queries.len().max(1));
        let outcomes: Vec<QueryOutcome> = if jobs <= 1 {
            queries.iter().map(|q| self.query(q, options)).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(q) = queries.get(i) else { break };
                                local.push((i, self.query(q, options)));
                            }
                            local
                        })
                    })
                    .collect();
                for worker in workers {
                    for (i, r) in worker.join().expect("batch worker panicked") {
                        slots[i] = Some(r);
                    }
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("atomic cursor covers every query"))
                .collect()
        };
        let mut total = StageTimings::default();
        let mut counters = StageCounters::new();
        let mut answers = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            if let Some(report) = &outcome.report {
                if let Some(c) = &report.counters {
                    counters.merge(c);
                }
            }
            if let Ok(a) = &outcome.answer {
                total.filter_us += a.timings.filter_us;
                total.selection_us += a.timings.selection_us;
                total.rewrite_us += a.timings.rewrite_us;
            }
            answers.push(outcome.answer);
        }
        BatchResult {
            answers,
            total,
            counters,
            wall_us: t0.elapsed().as_micros(),
            jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use xvr_xml::samples::book_document;

    fn snapshot_with_views(view_srcs: &[&str]) -> EngineSnapshot {
        let mut e = Engine::new(book_document(), EngineConfig::default());
        for src in view_srcs {
            e.add_view_str(src).unwrap();
        }
        e.snapshot()
    }

    #[test]
    fn snapshot_answers_match_engine() {
        let mut e = Engine::new(book_document(), EngineConfig::default());
        for src in ["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]"] {
            e.add_view_str(src).unwrap();
        }
        let q = e.parse("//s[f//i][t]/p").unwrap();
        let snap = e.snapshot();
        for strategy in Strategy::all_extended() {
            let want = e.answer(&q, strategy).unwrap().codes;
            let got = snap
                .query(&q, &QueryOptions::strategy(strategy))
                .answer
                .unwrap()
                .codes;
            assert_eq!(got, want, "{strategy}");
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let mut e = Engine::new(book_document(), EngineConfig::default());
        e.add_view_str("//s[t]/p").unwrap();
        let snap = e.snapshot();
        let before_views = snap.views().len();
        e.add_view_str("//s[p]/f").unwrap();
        let code = e
            .answer(&e.snapshot().parse("/b/s").unwrap(), Strategy::Bn)
            .unwrap()
            .codes[0]
            .clone();
        e.append_xml(&code, "<freshlabel/>").unwrap();
        // The old snapshot still sees the original state.
        assert_eq!(snap.views().len(), before_views);
        assert!(snap.labels().get("freshlabel").is_none());
        assert!(e.labels().get("freshlabel").is_some());
        assert_eq!(e.views().len(), before_views + 1);
    }

    #[test]
    fn snapshot_parse_handles_unknown_labels() {
        let snap = snapshot_with_views(&["//s[t]/p"]);
        let before = snap.labels().len();
        let q = snap.parse("//nosuchlabel[other]/more").unwrap();
        assert_eq!(snap.labels().len(), before, "parse must not grow the table");
        let a = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .unwrap();
        assert!(a.codes.is_empty());
        let b = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bf))
            .answer
            .unwrap();
        assert!(b.codes.is_empty());
        assert_eq!(
            snap.query(&q, &QueryOptions::strategy(Strategy::Hv))
                .answer
                .unwrap_err(),
            AnswerError::NotAnswerable
        );
    }

    #[test]
    fn cached_answers_byte_identical_to_uncached_across_strategies() {
        let snap = snapshot_with_views(&["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]", "//*[i]"]);
        let queries = [
            "//s[f//i][t]/p",
            "//s[t]/p",
            "/b/s//p",
            "//s[p]/f",
            "//s[.//i]",
            "//nosuchlabel",
        ];
        for strategy in Strategy::all_extended() {
            for qsrc in queries {
                let q = snap.parse(qsrc).unwrap();
                let uncached = snap
                    .query(&q, &QueryOptions::strategy(strategy).with_cache(false))
                    .answer;
                // Twice: cold cache, then warm cache.
                for pass in 0..2 {
                    match (
                        &snap.query(&q, &QueryOptions::strategy(strategy)).answer,
                        &uncached,
                    ) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.codes, b.codes, "{strategy} {qsrc} (pass {pass})");
                            let render = |c: &[DeweyCode]| -> Vec<String> {
                                c.iter().map(|x| x.to_string()).collect()
                            };
                            assert_eq!(render(&a.codes), render(&b.codes), "{strategy} {qsrc}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{strategy} {qsrc} (pass {pass})"),
                        (a, b) => panic!("{strategy} {qsrc}: cached {a:?} vs uncached {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_matches_sequential_for_all_jobs() {
        let snap = snapshot_with_views(&["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]"]);
        let queries: Vec<TreePattern> = ["//s[f//i][t]/p", "//s[t]/p", "/b/s//p", "//s[p]/f"]
            .iter()
            .map(|src| snap.parse(src).unwrap())
            .collect();
        for strategy in Strategy::all_extended() {
            let options = QueryOptions::strategy(strategy);
            let sequential = snap.query_batch(&queries, &options, 1);
            for jobs in [2, 3, 8] {
                let parallel = snap.query_batch(&queries, &options, jobs);
                assert_eq!(parallel.answers.len(), sequential.answers.len());
                for (s, p) in sequential.answers.iter().zip(&parallel.answers) {
                    match (s, p) {
                        (Ok(a), Ok(b)) => assert_eq!(a.codes, b.codes, "{strategy}"),
                        (Err(a), Err(b)) => assert_eq!(a, b, "{strategy}"),
                        _ => panic!("{strategy}: sequential/parallel outcome mismatch"),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_reports_throughput_accounting() {
        let snap = snapshot_with_views(&["//s[t]/p"]);
        let queries: Vec<TreePattern> = (0..8).map(|_| snap.parse("//s[t]/p").unwrap()).collect();
        let batch = snap.query_batch(&queries, &QueryOptions::strategy(Strategy::Hv), 4);
        assert_eq!(batch.jobs, 4);
        assert_eq!(batch.answered(), 8);
        assert!(batch.qps() > 0.0);
        assert!(batch.total.total_us() >= batch.total.lookup_us());
    }

    #[test]
    fn batch_on_empty_input() {
        let snap = snapshot_with_views(&["//s[t]/p"]);
        let batch = snap.query_batch(&[], &QueryOptions::strategy(Strategy::Hv), 4);
        assert!(batch.answers.is_empty());
        assert_eq!(batch.answered(), 0);
    }

    #[test]
    fn snapshot_shares_state_across_threads() {
        let snap = snapshot_with_views(&["//s[t]/p", "//s[p]/f"]);
        let q = snap.parse("//s[f//i][t]/p").unwrap();
        let options = QueryOptions::strategy(Strategy::Hv);
        let want = snap.query(&q, &options).answer.unwrap().codes;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let got = snap.query(&q, &options).answer.unwrap().codes;
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn report_present_only_when_requested() {
        let snap = snapshot_with_views(&["//s[t]/p", "//s[p]/f"]);
        let q = snap.parse("//s[t]/p").unwrap();
        let plain = snap.query(&q, &QueryOptions::strategy(Strategy::Hv));
        assert!(plain.report.is_none());
        assert!(
            snap.metrics().is_empty(),
            "no metrics recorded unless asked"
        );

        let traced = snap.query(&q, &QueryOptions::strategy(Strategy::Hv).with_trace());
        let report = traced.report.expect("trace requested");
        assert!(report.counters.is_none());
        let trace = report.trace.expect("trace requested");
        assert!(trace.selection_found());
        assert!(snap.metrics().is_empty(), "trace alone records no metrics");

        // Counters are per query: every metered query runs VFILTER exactly
        // once, also when the rewrite cache already holds its answer.
        let options = QueryOptions::strategy(Strategy::Hv).with_metrics();
        let metered = snap.query(&q, &options);
        let report = metered.report.expect("metrics requested");
        let counters = report.counters.expect("metrics requested");
        assert_eq!(counters.get(Counter::FilterRuns), 1);
        assert!(counters.get(Counter::RewriteRuns) >= 1);
        assert!(report.trace.is_none());
        assert_eq!(snap.metrics().queries(), 1);
        assert!(!snap.metrics().report().is_empty());

        let repeat = snap.query(&q, &options);
        let counters = repeat
            .report
            .and_then(|r| r.counters)
            .expect("metrics requested");
        assert_eq!(counters.get(Counter::FilterRuns), 1);
        assert_eq!(repeat.answer.unwrap().codes, metered.answer.unwrap().codes);
        assert_eq!(snap.metrics().queries(), 2);
    }

    #[test]
    fn batch_counters_identical_across_job_counts() {
        let snap = snapshot_with_views(&["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]"]);
        let queries: Vec<TreePattern> = ["//s[f//i][t]/p", "//s[t]/p", "/b/s//p", "//s[p]/f"]
            .iter()
            .map(|src| snap.parse(src).unwrap())
            .collect();
        // Uncached so warm-cache effects cannot differ between runs.
        let options = QueryOptions::strategy(Strategy::Hv)
            .with_cache(false)
            .with_metrics();
        let reference = snap.query_batch(&queries, &options, 1).counters;
        assert!(!reference.is_zero());
        for jobs in [2, 3, 33] {
            let merged = snap.query_batch(&queries, &options, jobs).counters;
            assert_eq!(merged, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn query_options_default_and_with_strategy() {
        let d = QueryOptions::default();
        assert_eq!(d, QueryOptions::strategy(Strategy::Hv));
        assert!(d.use_cache && !d.collect_trace && !d.collect_metrics);
        // with_strategy swaps only the strategy, preserving switches.
        let o = QueryOptions::default()
            .with_cache(false)
            .with_metrics()
            .with_strategy(Strategy::Cb);
        assert_eq!(o.strategy, Strategy::Cb);
        assert!(!o.use_cache && o.collect_metrics && !o.collect_trace);
    }
}
