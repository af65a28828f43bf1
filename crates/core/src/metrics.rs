//! Pipeline observability: per-query stage counters, cheap log2-bucket
//! histograms, and an engine-wide atomic accumulator.
//!
//! The design keeps instrumentation off the critical path:
//!
//! * During a single query the pipeline increments a stack-local
//!   [`StageCounters`] — plain `u64` adds, no atomics, no allocation
//!   beyond the struct itself. When metrics collection is disabled the
//!   counters are simply dropped; nothing is folded anywhere and the
//!   accumulator is untouched (the regression tests guard this
//!   zero-cost claim).
//! * With [`QueryOptions::collect_metrics`](crate::QueryOptions) set, the
//!   finished counters are folded into the engine's [`SnapshotMetrics`]
//!   (relaxed atomic adds) and returned inside the
//!   [`QueryReport`], so both per-query and cumulative views exist.
//! * Merging is plain addition and therefore commutative: `query_batch`
//!   workers can fold in any order and the totals are identical for
//!   `jobs = 1` and oversubscribed runs (tested).
//!
//! Everything here is dependency-free `std`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::StageTimings;
use crate::snapshot::AnswerTrace;

/// One named pipeline counter. The discriminant doubles as the index into
/// [`StageCounters`]' dense array, so bumping a counter is an array add.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// VFILTER invocations.
    FilterRuns,
    /// Views surviving the filter (every view path contains a query path).
    FilterViewsAdmitted,
    /// Views discarded by the filter.
    FilterViewsRejected,
    /// NFA state activations while reading the query paths (the automaton
    /// work the paper's Figure 12 measures indirectly via filter time).
    FilterNfaStates,
    /// Root-to-leaf paths of the decomposed query, `|D(Q)|`.
    FilterQueryPaths,
    /// Total entries across the per-path `LIST(P_i)` candidate lists.
    FilterListEntries,
    /// Exhaustive minimum selections attempted (`Mn`/`Mv`).
    SelectExhaustiveRuns,
    /// Heuristic (Algorithm 2) selections attempted (`Hv`).
    SelectHeuristicRuns,
    /// Cost-based selections attempted (`Cb`).
    SelectCostRuns,
    /// `leaf_covers` computations (per candidate view probed).
    SelectLeafCoverAttempts,
    /// View subsets tested by the exhaustive search.
    SelectSubsetsTried,
    /// Heuristic probes that fell back past `LIST(P)` to the full
    /// candidate set (the "greedy fallback" path).
    SelectFallbackProbes,
    /// `(view, m)` units in the final selections.
    SelectUnits,
    /// Distinct views in the final selections.
    SelectViews,
    /// Rewrite-stage invocations (view strategies only).
    RewriteRuns,
    /// [`RewriteCache`](crate::RewriteCache) lookups that hit.
    RewriteCacheHits,
    /// [`RewriteCache`](crate::RewriteCache) lookups that missed and
    /// computed.
    RewriteCacheMisses,
    /// [`RewriteCache`](crate::RewriteCache) entries evicted to keep the
    /// cache under its byte cap, by the inserts of this query's misses.
    RewriteCacheEvictions,
    /// Materialized fragments scanned during refinement.
    RewriteFragmentsScanned,
    /// Single-unit rewrites on the chain plan (no prefix tree, no
    /// holistic join), cached or not.
    RewriteFastPath,
    /// Holistic joins over the code prefix tree.
    RewriteHolisticJoins,
    /// Dewey code comparisons actually performed: flat byte-comparable
    /// code compares in the galloping join and extraction, plus one
    /// common-prefix compare per code in a chain-verdict pass. Memoized
    /// join state legitimately records none on warm repeats.
    RewriteDeweyComparisons,
    /// Galloping probes (exponential doubling + window binary search)
    /// issued while merging sorted flat-code lists.
    RewriteGallopProbes,
    /// List entries a linear scan-merge would have visited that galloping
    /// skipped without comparing.
    RewriteComparisonsSkipped,
    /// Bytes compared across all flat-code comparisons (`min(len)` per
    /// ordering compare, the bytes read per common-prefix compare) — the
    /// join's memory traffic.
    RewriteBytesCompared,
    /// Answer codes produced (all strategies, including `Bn`/`Bf`).
    AnswerCodes,
    /// Intersection fallbacks attempted (`HvIntersect` after leaf-cover
    /// answerability failed).
    IntersectAttempts,
    /// View subsets (size 2-3) probed by the intersection cover test.
    IntersectSubsetsTried,
    /// Queries answered through the intersection fallback (as opposed to
    /// the plain heuristic path of `HvIntersect`).
    IntersectAnswered,
}

impl Counter {
    /// Number of counters (the dense array size).
    pub const COUNT: usize = 29;

    /// Every counter, in declaration (= index) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::FilterRuns,
        Counter::FilterViewsAdmitted,
        Counter::FilterViewsRejected,
        Counter::FilterNfaStates,
        Counter::FilterQueryPaths,
        Counter::FilterListEntries,
        Counter::SelectExhaustiveRuns,
        Counter::SelectHeuristicRuns,
        Counter::SelectCostRuns,
        Counter::SelectLeafCoverAttempts,
        Counter::SelectSubsetsTried,
        Counter::SelectFallbackProbes,
        Counter::SelectUnits,
        Counter::SelectViews,
        Counter::RewriteRuns,
        Counter::RewriteCacheHits,
        Counter::RewriteCacheMisses,
        Counter::RewriteCacheEvictions,
        Counter::RewriteFragmentsScanned,
        Counter::RewriteFastPath,
        Counter::RewriteHolisticJoins,
        Counter::RewriteDeweyComparisons,
        Counter::RewriteGallopProbes,
        Counter::RewriteComparisonsSkipped,
        Counter::RewriteBytesCompared,
        Counter::AnswerCodes,
        Counter::IntersectAttempts,
        Counter::IntersectSubsetsTried,
        Counter::IntersectAnswered,
    ];

    /// Stable dotted name, `stage.metric`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FilterRuns => "filter.runs",
            Counter::FilterViewsAdmitted => "filter.views_admitted",
            Counter::FilterViewsRejected => "filter.views_rejected",
            Counter::FilterNfaStates => "filter.nfa_states_touched",
            Counter::FilterQueryPaths => "filter.query_paths",
            Counter::FilterListEntries => "filter.list_entries",
            Counter::SelectExhaustiveRuns => "select.exhaustive_runs",
            Counter::SelectHeuristicRuns => "select.heuristic_runs",
            Counter::SelectCostRuns => "select.cost_runs",
            Counter::SelectLeafCoverAttempts => "select.leafcover_attempts",
            Counter::SelectSubsetsTried => "select.subsets_tried",
            Counter::SelectFallbackProbes => "select.fallback_probes",
            Counter::SelectUnits => "select.units",
            Counter::SelectViews => "select.views",
            Counter::RewriteRuns => "rewrite.runs",
            Counter::RewriteCacheHits => "rewrite.cache_hits",
            Counter::RewriteCacheMisses => "rewrite.cache_misses",
            Counter::RewriteCacheEvictions => "rewrite.cache_evictions",
            Counter::RewriteFragmentsScanned => "rewrite.fragments_scanned",
            Counter::RewriteFastPath => "rewrite.fast_path",
            Counter::RewriteHolisticJoins => "rewrite.holistic_joins",
            Counter::RewriteDeweyComparisons => "rewrite.dewey_comparisons",
            Counter::RewriteGallopProbes => "rewrite.gallop_probes",
            Counter::RewriteComparisonsSkipped => "rewrite.comparisons_skipped",
            Counter::RewriteBytesCompared => "rewrite.bytes_compared",
            Counter::AnswerCodes => "answer.codes",
            Counter::IntersectAttempts => "intersect.attempts",
            Counter::IntersectSubsetsTried => "intersect.subsets_tried",
            Counter::IntersectAnswered => "intersect.answered",
        }
    }
}

/// A 16-bucket log2 histogram over `u64` samples: bucket 0 holds the
/// value 0, bucket `b ≥ 1` holds `[2^(b-1), 2^b)`, the last bucket is
/// open-ended. Recording is a `leading_zeros` plus an array add.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Raw bucket counts.
    pub buckets: [u64; Hist::BUCKETS],
}

impl Hist {
    /// Number of buckets.
    pub const BUCKETS: usize = 16;

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(Hist::BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Hist::bucket_of(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold another histogram in (plain bucket-wise addition).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Human-readable label of bucket `b` (its value range).
    pub fn bucket_label(b: usize) -> String {
        match b {
            0 => "0".to_string(),
            1 => "1".to_string(),
            _ if b + 1 == Hist::BUCKETS => format!("≥{}", 1u64 << (b - 1)),
            _ => format!("{}-{}", 1u64 << (b - 1), (1u64 << b) - 1),
        }
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; Hist::BUCKETS],
        }
    }
}

impl fmt::Display for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "[{}]={n}", Hist::bucket_label(b))?;
            first = false;
        }
        if first {
            f.write_str("(empty)")?;
        }
        Ok(())
    }
}

/// Per-query pipeline counters: a dense `u64` array indexed by
/// [`Counter`] plus a histogram of per-path candidate list sizes.
///
/// The pipeline threads one of these through filter → selection →
/// rewriting as plain mutable state; merging (for batches and the
/// snapshot accumulator) is commutative addition, so fold order never
/// changes totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    counts: [u64; Counter::COUNT],
    /// Sizes of the filter's per-path `LIST(P_i)` candidate lists.
    pub list_sizes: Hist,
}

impl StageCounters {
    /// Fresh all-zero counters.
    pub fn new() -> StageCounters {
        StageCounters::default()
    }

    /// Increment `c` by one.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.counts[c as usize] += 1;
    }

    /// Increment `c` by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Fold `other` in (commutative addition, bucket-wise for the
    /// histogram).
    pub fn merge(&mut self, other: &StageCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.list_sizes.merge(&other.list_sizes);
    }

    /// No counter was ever incremented and no histogram sample recorded.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0) && self.list_sizes.count() == 0
    }

    /// Non-zero counters with their names, in declaration order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(move |&c| (c, self.get(c)))
            .filter(|&(_, v)| v != 0)
    }
}

impl fmt::Display for StageCounters {
    /// One line per pipeline stage, non-zero counters only.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut current_stage = "";
        let mut first_in_stage = true;
        for (c, v) in self.nonzero() {
            let name = c.name();
            let (stage, metric) = name.split_once('.').unwrap_or(("", name));
            if stage != current_stage {
                if !current_stage.is_empty() {
                    writeln!(f)?;
                }
                write!(f, "  {stage:<9}")?;
                current_stage = stage;
                first_in_stage = true;
            }
            if !first_in_stage {
                f.write_str("  ")?;
            }
            write!(f, "{metric}={v}")?;
            first_in_stage = false;
        }
        if current_stage.is_empty() {
            write!(f, "  (no counters recorded)")?;
        }
        if self.list_sizes.count() != 0 {
            write!(f, "\n  list-size histogram: {}", self.list_sizes)?;
        }
        Ok(())
    }
}

/// Per-query report carried by
/// [`QueryOutcome`](crate::QueryOutcome): stage wall-clock spans, the
/// pipeline counters (when metrics collection was requested), and the
/// provenance trace (when tracing was requested).
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// Wall-clock spans of filter / selection / rewrite.
    pub timings: StageTimings,
    /// Pipeline counters; `Some` iff
    /// [`QueryOptions::collect_metrics`](crate::QueryOptions) was set.
    pub counters: Option<StageCounters>,
    /// Provenance trace; `Some` iff
    /// [`QueryOptions::collect_trace`](crate::QueryOptions) was set.
    pub trace: Option<AnswerTrace>,
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stages: filter {}µs | selection {}µs | rewrite {}µs | total {}µs",
            self.timings.filter_us,
            self.timings.selection_us,
            self.timings.rewrite_us,
            self.timings.total_us()
        )?;
        if let Some(c) = &self.counters {
            write!(f, "\n{c}")?;
        }
        if let Some(t) = &self.trace {
            write!(
                f,
                "\n  trace: usable={} units={} anchor={}",
                t.usable.len(),
                t.units.len(),
                t.anchor
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "-".into()),
            )?;
        }
        Ok(())
    }
}

/// Cumulative, thread-safe metrics accumulator of an
/// [`Engine`](crate::Engine), read through its
/// [`EngineSnapshot`](crate::EngineSnapshot)s.
///
/// Queries run with `collect_metrics` fold their finished
/// [`StageCounters`] in with relaxed atomic adds; queries run without it
/// never touch the accumulator. Every snapshot of one engine shares the
/// same accumulator (behind an `Arc`), so `query_batch` workers all feed
/// one instance and engine writes do not reset the counts;
/// [`Engine::inherit_metrics`](crate::Engine::inherit_metrics) carries it
/// into a replacement engine.
#[derive(Debug)]
pub struct SnapshotMetrics {
    queries: AtomicU64,
    answered: AtomicU64,
    filter_us: AtomicU64,
    selection_us: AtomicU64,
    rewrite_us: AtomicU64,
    counts: [AtomicU64; Counter::COUNT],
    hist: [AtomicU64; Hist::BUCKETS],
}

impl SnapshotMetrics {
    /// Fresh all-zero accumulator.
    pub fn new() -> SnapshotMetrics {
        SnapshotMetrics {
            queries: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            filter_us: AtomicU64::new(0),
            selection_us: AtomicU64::new(0),
            rewrite_us: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Fold one finished query in.
    pub(crate) fn record(&self, answered: bool, timings: &StageTimings, counters: &StageCounters) {
        const R: Ordering = Ordering::Relaxed;
        self.queries.fetch_add(1, R);
        if answered {
            self.answered.fetch_add(1, R);
        }
        self.filter_us.fetch_add(timings.filter_us as u64, R);
        self.selection_us.fetch_add(timings.selection_us as u64, R);
        self.rewrite_us.fetch_add(timings.rewrite_us as u64, R);
        for (slot, &c) in self.counts.iter().zip(counters.counts.iter()) {
            if c != 0 {
                slot.fetch_add(c, R);
            }
        }
        for (slot, &c) in self.hist.iter().zip(counters.list_sizes.buckets.iter()) {
            if c != 0 {
                slot.fetch_add(c, R);
            }
        }
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.report().is_empty()
    }

    /// A consistent-enough point-in-time readout (individual fields are
    /// loaded independently; concurrent recording may skew them by a
    /// query).
    pub fn report(&self) -> MetricsReport {
        const R: Ordering = Ordering::Relaxed;
        let mut counters = StageCounters::new();
        for (dst, src) in counters.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(R);
        }
        for (dst, src) in counters.list_sizes.buckets.iter_mut().zip(self.hist.iter()) {
            *dst = src.load(R);
        }
        MetricsReport {
            queries: self.queries.load(R),
            answered: self.answered.load(R),
            timings: StageTimings {
                filter_us: self.filter_us.load(R) as u128,
                selection_us: self.selection_us.load(R) as u128,
                rewrite_us: self.rewrite_us.load(R) as u128,
            },
            counters,
            cache_entries: 0,
            cache_bytes: 0,
            store_bytes: 0,
            resident_bytes: 0,
        }
    }
}

impl Default for SnapshotMetrics {
    fn default() -> SnapshotMetrics {
        SnapshotMetrics::new()
    }
}

/// Plain (non-atomic) readout of a [`SnapshotMetrics`] accumulator.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Queries recorded (with `collect_metrics` on).
    pub queries: u64,
    /// Of those, how many answered successfully.
    pub answered: u64,
    /// Stage wall-clock spans summed over recorded queries.
    pub timings: StageTimings,
    /// Pipeline counters summed over recorded queries.
    pub counters: StageCounters,
    /// Live entries of the rewrite cache. A gauge of the cache, not of
    /// the accumulator: [`EngineSnapshot::metrics_report`] fills it,
    /// [`SnapshotMetrics::report`] leaves it 0.
    ///
    /// [`EngineSnapshot::metrics_report`]: crate::EngineSnapshot::metrics_report
    pub cache_entries: u64,
    /// Accounted bytes of the rewrite cache (a gauge, like
    /// [`Self::cache_entries`]).
    pub cache_bytes: u64,
    /// Materialized bytes in the per-view accounting the fragment budget
    /// caps ([`MaterializedStore::total_bytes`]; a gauge, like
    /// [`Self::cache_entries`]).
    ///
    /// [`MaterializedStore::total_bytes`]: crate::MaterializedStore::total_bytes
    pub store_bytes: u64,
    /// Bytes the store holds, each fragment tree shared across views
    /// counted once ([`MaterializedStore::resident_bytes`]; a gauge).
    ///
    /// [`MaterializedStore::resident_bytes`]: crate::MaterializedStore::resident_bytes
    pub resident_bytes: u64,
}

impl MetricsReport {
    /// Nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.queries == 0 && self.counters.is_zero()
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queries: {} ({} answered)", self.queries, self.answered)?;
        writeln!(
            f,
            "stage totals: filter {}µs | selection {}µs | rewrite {}µs | total {}µs",
            self.timings.filter_us,
            self.timings.selection_us,
            self.timings.rewrite_us,
            self.timings.total_us()
        )?;
        writeln!(
            f,
            "rewrite cache: {} entries, {} bytes",
            self.cache_entries, self.cache_bytes
        )?;
        writeln!(
            f,
            "store: {} bytes accounted per view, {} bytes resident",
            self.store_bytes, self.resident_bytes
        )?;
        write!(f, "{}", self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_match_declaration_order() {
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        // Names are unique and dotted.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        assert!(Counter::ALL.iter().all(|c| c.name().contains('.')));
    }

    #[test]
    fn hist_buckets_values() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), Hist::BUCKETS - 1);
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 100, 1 << 60] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = StageCounters::new();
        a.bump(Counter::FilterRuns);
        a.add(Counter::RewriteDeweyComparisons, 41);
        a.list_sizes.record(3);
        let mut b = StageCounters::new();
        b.add(Counter::FilterRuns, 2);
        b.bump(Counter::AnswerCodes);
        b.list_sizes.record(0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(Counter::FilterRuns), 3);
        assert_eq!(ab.list_sizes.count(), 2);
    }

    #[test]
    fn snapshot_metrics_accumulate_and_report() {
        let m = SnapshotMetrics::new();
        assert!(m.is_empty());
        let mut c = StageCounters::new();
        c.bump(Counter::FilterRuns);
        c.add(Counter::AnswerCodes, 5);
        let t = StageTimings {
            filter_us: 10,
            selection_us: 20,
            rewrite_us: 30,
        };
        m.record(true, &t, &c);
        m.record(false, &t, &c);
        let r = m.report();
        assert_eq!(r.queries, 2);
        assert_eq!(r.answered, 1);
        assert_eq!(r.timings.total_us(), 120);
        assert_eq!(r.counters.get(Counter::AnswerCodes), 10);
        assert!(!r.is_empty());
    }

    #[test]
    fn display_renders_nonzero_only() {
        let mut c = StageCounters::new();
        c.bump(Counter::FilterRuns);
        c.add(Counter::RewriteCacheHits, 7);
        let s = format!("{c}");
        assert!(s.contains("runs=1"), "{s}");
        assert!(s.contains("cache_hits=7"), "{s}");
        assert!(!s.contains("views_admitted"), "{s}");
    }
}
