//! Equivalent rewriting using multiple views (Section V of the paper).
//!
//! Given a [`Selection`] — `(view, m)` units covering every obligation of
//! the query, with a designated anchor — the rewriter produces the query's
//! exact answer **without touching the base document**, in three stages
//! mirroring the paper's pipeline:
//!
//! 1. **Refinement** ("pushing selection"): for each unit, the compensating
//!    pattern — the full query subtree rooted at `m` — is evaluated inside
//!    each materialized fragment, anchored at the fragment root. Fragments
//!    failing their compensating predicates are dropped before the join.
//! 2. **Holistic join on encodings**: the *skeleton* of the query (the
//!    union of the chains `root → m_i`) is matched against the **prefix
//!    tree** of the surviving fragment codes. Every prefix of an extended
//!    Dewey code decodes to a concrete ancestor label via the FST, so the
//!    prefix tree is an exact fragment of the base document's structure —
//!    joining there is the paper's "join using the encoding scheme". Unit
//!    positions `m_i` are restricted to that unit's surviving codes.
//! 3. **Extraction**: the query's answer bindings are read out of the
//!    anchor unit's fragments (the answer node lies at-or-below the
//!    anchor's `m`), translated back to global codes.
//!
//! The join runs entirely on **flat byte-comparable codes**
//! ([`xvr_xml::flat`]): codes live in struct-of-arrays arenas
//! ([`FlatCodes`]), comparisons are chunked memcmp-style byte compares, and
//! sorted code lists are merged with **galloping** (exponential-probe +
//! binary-search) skip pointers instead of per-candidate binary searches.
//! Unit restrictions become bitmaps over prefix-tree nodes — built once by
//! a galloping merge-intersection and memoized in the [`RewriteCache`] —
//! so the `admissible` test inside pattern evaluation is a single bit
//! probe. The legacy per-component scan-merge join is preserved verbatim as
//! [`rewrite_scan`], a test reference that no engine path runs; the
//! oracle's `JoinEquivalence` invariant (`xvr_bench::oracle`) and the
//! join-differential tests hold it byte-identical to the galloping join.
//!
//! Together with the soundness of the leaf-cover rule (see
//! [`crate::leafcover`]) this yields an *equivalent* rewriting: the output
//! equals direct evaluation of the query on the base document — the
//! property the integration suite checks end-to-end.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use xvr_pattern::{
    eval_anchored_in, eval_restricted_in, matches_anchored_in, Axis, EvalScratch, PNodeId,
    TreePattern,
};
use xvr_xml::flat::{self, flat_cmp};
use xvr_xml::{intersect_many, CmpStats, DeweyCode, FlatCodes, Fst, Label, NodeId, XmlTree};

use crate::materialize::{MaterializedStore, MaterializedView};
use crate::metrics::{Counter, StageCounters};
use crate::select::Selection;
use crate::view::{ViewId, ViewSet};

/// Rewriting failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// A selected view has no materialization in the store.
    NotMaterialized(crate::view::ViewId),
    /// A selected view's materialization was truncated by the byte budget,
    /// so equivalent rewriting is impossible.
    IncompleteMaterialization(crate::view::ViewId),
    /// A fragment code could not be decoded under the document FST
    /// (fragments belong to a different document).
    UndecodableCode(DeweyCode),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NotMaterialized(v) => write!(f, "view {v:?} is not materialized"),
            RewriteError::IncompleteMaterialization(v) => {
                write!(f, "view {v:?} was truncated by the byte budget")
            }
            RewriteError::UndecodableCode(c) => write!(f, "code {c} does not decode under FST"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrite `q` using the selected views; returns the answer codes in
/// document order.
///
/// This is the uncached path: every call re-refines fragments and rebuilds
/// the code prefix tree from scratch (the join itself still gallops over
/// flat codes). The hot path used by [`crate::EngineSnapshot`] is
/// [`rewrite_cached`]; the two are checked byte-identical by the
/// determinism tests and the oracle's `CacheDeterminism` invariant, and
/// both against the legacy scan join ([`rewrite_scan`]) by
/// `JoinEquivalence`.
pub fn rewrite(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
) -> Result<Vec<DeweyCode>, RewriteError> {
    rewrite_impl(
        q,
        selection,
        views,
        store,
        fst,
        None,
        &mut StageCounters::new(),
    )
}

/// [`rewrite`] with a [`RewriteCache`]: refinement results,
/// code prefix trees, restriction bitmaps, and single-unit chain verdicts
/// are memoized across calls, so repeated query shapes skip the comparison
/// work entirely.
pub fn rewrite_cached(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
    cache: &RewriteCache,
) -> Result<Vec<DeweyCode>, RewriteError> {
    rewrite_impl(
        q,
        selection,
        views,
        store,
        fst,
        Some(cache),
        &mut StageCounters::new(),
    )
}

/// [`rewrite`] / [`rewrite_cached`] recording observability counters:
/// cache hits/misses, fragments scanned during refinement, fast-path vs.
/// holistic-join dispatch, and the flat-comparison work — comparisons,
/// galloping probes, entries skipped, bytes compared (see
/// [`crate::metrics`]). Pass `cache: None` for the uncached path.
#[allow(clippy::too_many_arguments)]
pub fn rewrite_metered(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
) -> Result<Vec<DeweyCode>, RewriteError> {
    rewrite_impl(q, selection, views, store, fst, cache, counters)
}

/// Anchor-unit refinement: surviving fragment codes (flat, ascending by
/// code) with, per surviving fragment, the global answer codes extracted
/// from it and its index within the view's fragment store (the handle the
/// fast path's chain bitmap is tested with).
struct Anchors {
    codes: FlatCodes,
    answers: Vec<Vec<DeweyCode>>,
    frag: Vec<u32>,
}

/// A unit's refined codes: non-anchor units carry the bare code list,
/// the anchor carries the full extraction pairs.
enum Refined {
    Plain(Arc<FlatCodes>),
    Anchor(Arc<Anchors>),
}

impl Refined {
    fn codes(&self) -> &FlatCodes {
        match self {
            Refined::Plain(c) => c,
            Refined::Anchor(a) => &a.codes,
        }
    }
}

/// Byte cap of a [`RewriteCache`]: the accounted size of its entries —
/// keys, values and per-entry bookkeeping — never exceeds it.
pub const REWRITE_CACHE_BYTES: usize = 64 << 20;

/// A materialization's identity in cache keys: the view and the generation
/// [`MaterializedStore::install`] stamped on its fragments.
pub(crate) type ViewGen = (ViewId, u64);

pub(crate) fn view_gen(mv: &MaterializedView) -> ViewGen {
    (mv.view, mv.generation())
}

/// What a cache entry memoizes, and over which inputs. Fingerprints are
/// [`TreePattern::fingerprint`]s; a tree key is the sorted distinct
/// materializations of a selection. Shared parts sit behind `Arc`s, so
/// building a key for a lookup copies no string or list.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    /// Non-anchor refinement: (materialization, compensating pattern).
    Refined(ViewGen, Arc<str>),
    /// Anchor refinement plus extraction: (materialization, compensating
    /// pattern).
    Anchors(ViewGen, Arc<str>),
    /// Superset prefix tree over every fragment code of a view set.
    Tree(Arc<[ViewGen]>),
    /// Restriction bitmap: (tree key, refined materialization,
    /// compensating pattern).
    Restriction(Arc<[ViewGen]>, ViewGen, Arc<str>),
    /// Single-unit chain verdicts: (materialization, bare trunk chain).
    Chain(ViewGen, Arc<str>),
}

impl Key {
    /// Was this entry computed from one of the `stale` materializations?
    fn mentions(&self, stale: &HashSet<ViewGen>) -> bool {
        match self {
            Key::Refined(v, _) | Key::Anchors(v, _) | Key::Chain(v, _) => stale.contains(v),
            Key::Tree(views) => views.iter().any(|v| stale.contains(v)),
            Key::Restriction(views, v, _) => {
                stale.contains(v) || views.iter().any(|v| stale.contains(v))
            }
        }
    }

    /// Heap bytes of the key's own data (shared parts counted in full:
    /// an over-count, never an under-count).
    fn heap_size(&self) -> usize {
        let views = |vs: &[ViewGen]| std::mem::size_of_val(vs);
        match self {
            Key::Refined(_, fp) | Key::Anchors(_, fp) | Key::Chain(_, fp) => fp.len(),
            Key::Tree(vs) => views(vs),
            Key::Restriction(vs, _, fp) => views(vs) + fp.len(),
        }
    }
}

/// A memoized value; the variant is fixed by the key's.
#[derive(Clone)]
enum Value {
    Codes(Arc<FlatCodes>),
    Anchors(Arc<Anchors>),
    Tree(Arc<PrefixTree>),
    Bits(Arc<Vec<u64>>),
}

/// A type the cache memoizes: how it sits in a [`Value`] and its size.
trait Memo: Sized {
    fn wrap(v: Arc<Self>) -> Value;
    fn unwrap(v: &Value) -> Option<&Arc<Self>>;
    fn heap_size(&self) -> usize;
}

impl Memo for FlatCodes {
    fn wrap(v: Arc<Self>) -> Value {
        Value::Codes(v)
    }
    fn unwrap(v: &Value) -> Option<&Arc<Self>> {
        match v {
            Value::Codes(c) => Some(c),
            _ => None,
        }
    }
    fn heap_size(&self) -> usize {
        FlatCodes::heap_size(self)
    }
}

impl Memo for Anchors {
    fn wrap(v: Arc<Self>) -> Value {
        Value::Anchors(v)
    }
    fn unwrap(v: &Value) -> Option<&Arc<Self>> {
        match v {
            Value::Anchors(a) => Some(a),
            _ => None,
        }
    }
    fn heap_size(&self) -> usize {
        let code = std::mem::size_of::<DeweyCode>();
        let answers: usize = self
            .answers
            .iter()
            .map(|a| a.capacity() * code + a.iter().map(|c| c.0.capacity() * 4).sum::<usize>())
            .sum();
        self.codes.heap_size()
            + self.answers.capacity() * std::mem::size_of::<Vec<DeweyCode>>()
            + answers
            + self.frag.capacity() * 4
    }
}

impl Memo for PrefixTree {
    fn wrap(v: Arc<Self>) -> Value {
        Value::Tree(v)
    }
    fn unwrap(v: &Value) -> Option<&Arc<Self>> {
        match v {
            Value::Tree(t) => Some(t),
            _ => None,
        }
    }
    fn heap_size(&self) -> usize {
        self.tree.heap_size() + self.codes.heap_size()
    }
}

impl Memo for Vec<u64> {
    fn wrap(v: Arc<Self>) -> Value {
        Value::Bits(v)
    }
    fn unwrap(v: &Value) -> Option<&Arc<Self>> {
        match v {
            Value::Bits(b) => Some(b),
            _ => None,
        }
    }
    fn heap_size(&self) -> usize {
        self.capacity() * 8
    }
}

/// One cache entry. `referenced` is CLOCK's second-chance bit: a hit sets
/// it under the read lock, the hand clears it.
struct Slot {
    key: Key,
    value: Value,
    bytes: usize,
    referenced: AtomicBool,
}

/// Bookkeeping charged to every entry on top of its key and value data:
/// the slot, the index's copy of the key and its slot number, and the
/// shared allocation headers. An estimate, rounded up.
const ENTRY_OVERHEAD: usize =
    std::mem::size_of::<Slot>() + std::mem::size_of::<(Key, usize)>() + 64;

/// No code panics while holding the cache's lock.
const POISONED: &str = "rewrite cache lock poisoned";

/// The cache's one map: a slot arena swept by the CLOCK hand, indexed by
/// key.
#[derive(Default)]
struct Clock {
    index: HashMap<Key, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    bytes: usize,
}

impl Clock {
    fn remove(&mut self, i: usize) {
        let slot = self.slots[i].take().expect("removed slots are live");
        self.index.remove(&slot.key);
        self.bytes -= slot.bytes;
        self.free.push(i);
    }

    /// Evict until `need` more bytes fit under `cap`: the hand skips and
    /// clears referenced slots and evicts the first unreferenced one.
    /// Returns the number of entries evicted. Requires `need <= cap`, so
    /// the loop only runs while some entry is live.
    fn make_room(&mut self, need: usize, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + need > cap {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            let Some(slot) = &mut self.slots[i] else {
                continue;
            };
            if std::mem::take(slot.referenced.get_mut()) {
                continue;
            }
            self.remove(i);
            evicted += 1;
        }
        evicted
    }

    fn insert(&mut self, key: Key, value: Value, bytes: usize) {
        let slot = Slot {
            key: key.clone(),
            value,
            bytes,
            // A second chance is earned by a hit, not by the insert.
            referenced: AtomicBool::new(false),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.index.insert(key, i);
        self.bytes += bytes;
    }
}

/// Memoization for the rewriting stage, shared by every snapshot of one
/// [`Engine`](crate::Engine) and kept across its writes.
///
/// Every entry is keyed by the `(view, generation)` of each
/// materialization it was computed from ([`MaterializedView::generation`]).
/// A view keeps its id and fragments when other views are added, so its
/// entries stay valid across [`Engine::add_view`](crate::Engine::add_view);
/// a re-materialized view gets a new generation, so a snapshot can never
/// read an entry computed from fragments other than its own — not even
/// one an older snapshot inserts after the write. Correctness rests on the
/// keys alone; [`Engine::append_xml`](crate::Engine::append_xml) evicts
/// the stale entries only to reclaim their memory.
///
/// * **Refinement** (`Refined`, `Anchors`) — keyed by (materialization,
///   compensating-pattern fingerprint): the fragment codes surviving the
///   compensating predicate (and, for anchor use, the answer codes
///   extracted per fragment). Repeated queries stop re-evaluating
///   identical predicates over the same fragments.
/// * **Prefix trees** (`Tree`) — keyed by the *sorted distinct
///   materializations* of a selection, built over **all** fragment codes
///   of those views. That superset tree is query-independent yet
///   join-equivalent: every skeleton binding in a valid embedding is an
///   ancestor-or-self of a unit binding, unit bindings are restricted to
///   refined codes, and all prefixes of refined codes exist in both the
///   superset tree and the per-query tree — so restricting the join (the
///   `admissible` predicate) yields identical anchors.
/// * **Restriction bitmaps** (`Restriction`) — keyed by (tree key,
///   refinement key): which prefix-tree nodes carry a refined code,
///   precomputed by a galloping merge-intersection. Warm joins never
///   compare codes; the `admissible` probe is a bit test.
/// * **Chain verdicts** (`Chain`) — keyed by (materialization, trunk-chain
///   fingerprint): a bitmap over the view's fragments recording which
///   FST-decoded ancestor paths embed the single-unit trunk chain. Warm
///   fast-path rewrites reduce to bit probes over the anchor pairs.
///
/// All five kinds live in one map bounded by [`REWRITE_CACHE_BYTES`] of
/// accounted size, evicted by CLOCK: a hit only sets the entry's
/// reference bit under the read lock; an insert that would pass the cap
/// sweeps the hand, giving referenced entries a second chance. An entry
/// larger than the cap is computed but not kept.
///
/// Concurrent misses may compute a value twice; the first insert wins and
/// every thread observes that one (the computation is deterministic, so
/// the race is benign).
pub struct RewriteCache {
    clock: RwLock<Clock>,
    cap: usize,
}

impl Default for RewriteCache {
    fn default() -> RewriteCache {
        RewriteCache::new()
    }
}

impl RewriteCache {
    /// Fresh, empty cache bounded by [`REWRITE_CACHE_BYTES`].
    pub fn new() -> RewriteCache {
        RewriteCache {
            clock: RwLock::default(),
            cap: REWRITE_CACHE_BYTES,
        }
    }

    /// Fresh, empty cache with a smaller cap, so tests reach eviction.
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> RewriteCache {
        RewriteCache {
            cap,
            ..RewriteCache::new()
        }
    }

    /// Accounted bytes of the live entries (at most the cache's cap).
    pub fn bytes(&self) -> usize {
        self.clock.read().expect(POISONED).bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.clock.read().expect(POISONED).index.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry computed from one of the `stale` materializations.
    pub(crate) fn evict(&self, stale: &HashSet<ViewGen>) {
        let mut clock = self.clock.write().expect(POISONED);
        for i in 0..clock.slots.len() {
            if clock.slots[i]
                .as_ref()
                .is_some_and(|s| s.key.mentions(stale))
            {
                clock.remove(i);
            }
        }
    }

    fn get<T: Memo>(&self, key: &Key) -> Option<Arc<T>> {
        let clock = self.clock.read().expect(POISONED);
        let slot = clock.slots[*clock.index.get(key)?]
            .as_ref()
            .expect("indexed slots are live");
        slot.referenced.store(true, Ordering::Relaxed);
        Some(Arc::clone(
            T::unwrap(&slot.value).expect("a key's kind fixes its value's"),
        ))
    }

    /// Keep `value` under `key`, unless a concurrent miss got there first:
    /// then return that entry's value instead.
    fn put<T: Memo>(&self, key: Key, value: Arc<T>, counters: &mut StageCounters) -> Arc<T> {
        let bytes = ENTRY_OVERHEAD + key.heap_size() + value.heap_size();
        let mut clock = self.clock.write().expect(POISONED);
        if let Some(&i) = clock.index.get(&key) {
            let slot = clock.slots[i].as_ref().expect("indexed slots are live");
            return Arc::clone(T::unwrap(&slot.value).expect("a key's kind fixes its value's"));
        }
        if bytes <= self.cap {
            let evicted = clock.make_room(bytes, self.cap);
            counters.add(Counter::RewriteCacheEvictions, evicted);
            clock.insert(key, T::wrap(Arc::clone(&value)), bytes);
        }
        value
    }
}

/// `compute`, memoized under the key when a cache is given: a hit returns
/// the cached value, a miss computes and inserts it.
fn memo<T: Memo>(
    keyed: Option<(&RewriteCache, Key)>,
    counters: &mut StageCounters,
    compute: impl FnOnce(&mut StageCounters) -> Result<T, RewriteError>,
) -> Result<Arc<T>, RewriteError> {
    let Some((cache, key)) = keyed else {
        return compute(counters).map(Arc::new);
    };
    if let Some(hit) = cache.get(&key) {
        counters.bump(Counter::RewriteCacheHits);
        return Ok(hit);
    }
    counters.bump(Counter::RewriteCacheMisses);
    let value = Arc::new(compute(counters)?);
    Ok(cache.put(key, value, counters))
}

/// The superset prefix tree of a cached join: every fragment code of the
/// views in `key`.
fn superset_tree(
    key: &[ViewGen],
    store: &MaterializedStore,
    fst: &Fst,
) -> Result<PrefixTree, RewriteError> {
    let mut all: Vec<&[u8]> = Vec::new();
    for &(v, _) in key {
        let mv = store.get(v).expect("selected views are materialized");
        all.extend(mv.fragments.flat_codes().iter());
    }
    all.sort_unstable_by(|a, b| flat_cmp(a, b));
    all.dedup();
    PrefixTree::build_sorted(all, fst)
}

/// Which fragments of `mv` have an FST-decoded ancestor path embedding the
/// trunk chain — the single-unit join verdict.
fn chain_bits(
    q: &TreePattern,
    chain: &[PNodeId],
    mv: &MaterializedView,
    fst: &Fst,
    counters: &mut StageCounters,
) -> Result<Vec<u64>, RewriteError> {
    let mut bits = vec![0u64; mv.fragments.len().div_ceil(64)];
    let mut comps: Vec<u32> = Vec::new();
    for (fi, code) in mv.fragments.flat_codes().iter().enumerate() {
        comps.clear();
        comps.extend(flat::components(code).map(|(c, _)| c));
        let path = fst
            .decode(&comps)
            .ok_or_else(|| RewriteError::UndecodableCode(mv.fragments.code(fi)))?;
        // The positional DP walks the decoded ancestor path once per
        // chain node.
        counters.add(
            Counter::RewriteDeweyComparisons,
            (path.len() * chain.len()) as u64,
        );
        if chain_matches(q, chain, &path) {
            bits[fi / 64] |= 1 << (fi % 64);
        }
    }
    Ok(bits)
}

/// A compensating pattern that constrains nothing beyond its root label:
/// a single node with no attribute predicates. Refinement then reduces to
/// a label check on the fragment root.
fn is_trivial(compensating: &TreePattern) -> bool {
    compensating.len() == 1 && compensating.node(compensating.root()).attrs.is_empty()
}

/// Non-anchor refinement: fragment codes surviving the compensating
/// pattern, ascending (fragments are stored code-sorted). The flat bytes
/// are sliced straight out of the view's arena — no re-encoding.
fn compute_refined(
    compensating: &TreePattern,
    mv: &MaterializedView,
    scratch: &mut EvalScratch,
    counters: &mut StageCounters,
) -> FlatCodes {
    let label = compensating.label(compensating.root());
    let mut codes = FlatCodes::new();
    counters.add(Counter::RewriteFragmentsScanned, mv.fragments.len() as u64);
    let fragments = &mv.fragments;
    for (tree, code) in fragments.trees().iter().zip(fragments.flat_codes().iter()) {
        let keep = if is_trivial(compensating) {
            // matches_anchored on a single attr-free node is exactly a
            // root label check.
            label.matches(tree.label(tree.root()))
        } else {
            matches_anchored_in(compensating, tree, tree.root(), scratch)
        };
        if keep {
            codes.push_encoded(code);
        }
    }
    codes
}

/// Anchor refinement + extraction: surviving codes paired with the global
/// answer codes found inside each fragment, ascending by fragment code.
fn compute_anchor_pairs(
    compensating: &TreePattern,
    mv: &MaterializedView,
    scratch: &mut EvalScratch,
    counters: &mut StageCounters,
) -> Anchors {
    let label = compensating.label(compensating.root());
    let trivial_answer_is_root =
        is_trivial(compensating) && compensating.answer() == compensating.root();
    let mut anchors = Anchors {
        codes: FlatCodes::new(),
        answers: Vec::new(),
        frag: Vec::new(),
    };
    counters.add(Counter::RewriteFragmentsScanned, mv.fragments.len() as u64);
    let fragments = &mv.fragments;
    let codes = fragments.flat_codes().iter();
    for (fi, (tree, code)) in fragments.trees().iter().zip(codes).enumerate() {
        let globals: Vec<DeweyCode> = if trivial_answer_is_root {
            if !label.matches(tree.label(tree.root())) {
                continue;
            }
            vec![mv.global_code(fi, tree.root())]
        } else {
            let answers = eval_anchored_in(compensating, tree, tree.root(), scratch);
            if answers.is_empty() {
                continue;
            }
            answers.into_iter().map(|n| mv.global_code(fi, n)).collect()
        };
        anchors.codes.push_encoded(code);
        anchors.answers.push(globals);
        anchors.frag.push(fi as u32);
    }
    anchors
}

/// Does the trunk chain `root → m` (as `chain`, from [`TreePattern::root_path`])
/// embed into the label path `path` with the last chain node bound to the
/// final position? Equivalent to the holistic join for single-unit
/// selections: the decoded code path *is* the fragment root's ancestor
/// chain in the base document.
fn chain_matches(q: &TreePattern, chain: &[PNodeId], path: &[Label]) -> bool {
    let n = path.len();
    if n == 0 {
        return false;
    }
    // cur[i] = the current chain node can bind path position i.
    let first = chain[0];
    let mut cur = vec![false; n];
    match q.axis(first) {
        // Root axis `/` anchors at the document element = position 0.
        Axis::Child => cur[0] = q.label(first).matches(path[0]),
        Axis::Descendant => {
            for (i, &l) in path.iter().enumerate() {
                cur[i] = q.label(first).matches(l);
            }
        }
    }
    for &s in &chain[1..] {
        let mut next = vec![false; n];
        match q.axis(s) {
            Axis::Child => {
                for i in 0..n - 1 {
                    if cur[i] && q.label(s).matches(path[i + 1]) {
                        next[i + 1] = true;
                    }
                }
            }
            Axis::Descendant => {
                // Any strictly later position after an occupied one.
                let mut seen = false;
                for i in 0..n {
                    if seen && q.label(s).matches(path[i]) {
                        next[i] = true;
                    }
                    seen = seen || cur[i];
                }
            }
        }
        cur = next;
    }
    cur[n - 1]
}

/// Cache key of a single-unit trunk chain: the fingerprint of the chain
/// re-rooted as a bare pattern (axes + labels only — `chain_matches` never
/// reads attributes, so two queries with the same trunk share the verdict
/// bitmap).
fn chain_key(q: &TreePattern, chain: &[PNodeId]) -> Arc<str> {
    let mut p = TreePattern::with_root(q.axis(chain[0]), q.label(chain[0]));
    let mut cur = p.root();
    for &n in &chain[1..] {
        cur = p.add_child(cur, q.axis(n), q.label(n));
    }
    p.set_answer(cur);
    p.fingerprint().into()
}

/// Bit test over a `Vec<u64>` bitmap.
#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Mark, in a bitmap over `haystack` indices, every haystack code that
/// also occurs in `needles` — a galloping merge-intersection of two
/// sorted, distinct flat-code lists. The cursor only moves forward, so
/// dense needle lists degrade to a plain linear merge and sparse ones
/// skip in `O(log gap)` probes.
fn intersect_bits(haystack: &FlatCodes, needles: &FlatCodes, stats: &mut CmpStats) -> Vec<u64> {
    let mut bits = vec![0u64; haystack.len().div_ceil(64)];
    let mut pos = 0usize;
    for key in needles.iter() {
        pos = haystack.gallop_lower_bound(pos, key, stats);
        if pos >= haystack.len() {
            break;
        }
        if stats.eq(haystack.get(pos), key) {
            bits[pos / 64] |= 1 << (pos % 64);
            pos += 1;
        }
    }
    bits
}

#[allow(clippy::too_many_arguments)]
fn rewrite_impl(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
) -> Result<Vec<DeweyCode>, RewriteError> {
    let _ = views; // selection already carries everything pattern-level
    counters.bump(Counter::RewriteRuns);
    let mut stats = CmpStats::default();
    let result = rewrite_gallop(q, selection, store, fst, cache, counters, &mut stats);
    counters.add(Counter::RewriteDeweyComparisons, stats.comparisons);
    counters.add(Counter::RewriteGallopProbes, stats.probes);
    counters.add(Counter::RewriteComparisonsSkipped, stats.skipped);
    counters.add(Counter::RewriteBytesCompared, stats.bytes);
    result
}

/// The galloping flat-code rewrite (all three stages); `stats` collects
/// the comparison work for the caller to fold into the counters.
fn rewrite_gallop(
    q: &TreePattern,
    selection: &Selection,
    store: &MaterializedStore,
    fst: &Fst,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
    stats: &mut CmpStats,
) -> Result<Vec<DeweyCode>, RewriteError> {
    let mut scratch = EvalScratch::new();
    // Stage 1: refine each unit's fragments with its compensating pattern.
    let mut refined: Vec<Refined> = Vec::with_capacity(selection.units.len());
    // Per unit, its materialization and (with a cache) the compensating
    // fingerprint: the unit's part of every cache key below.
    let mut unit_keys: Vec<(ViewGen, Option<Arc<str>>)> = Vec::with_capacity(selection.units.len());
    let mut anchor_ref: Option<Arc<Anchors>> = None;
    for (i, unit) in selection.units.iter().enumerate() {
        let mv = store
            .get(unit.view)
            .ok_or(RewriteError::NotMaterialized(unit.view))?;
        if !mv.complete() {
            return Err(RewriteError::IncompleteMaterialization(unit.view));
        }
        let compensating = q.subtree_pattern(unit.cover.m, Axis::Descendant);
        let vg = view_gen(mv);
        let fp: Option<Arc<str>> = cache.map(|_| compensating.fingerprint().into());
        let keyed = cache.zip(fp.clone());
        if i == selection.anchor {
            let pairs = memo(
                keyed.map(|(c, fp)| (c, Key::Anchors(vg, fp))),
                counters,
                |counters| {
                    Ok(compute_anchor_pairs(
                        &compensating,
                        mv,
                        &mut scratch,
                        counters,
                    ))
                },
            )?;
            refined.push(Refined::Anchor(Arc::clone(&pairs)));
            anchor_ref = Some(pairs);
        } else {
            let codes = memo(
                keyed.map(|(c, fp)| (c, Key::Refined(vg, fp))),
                counters,
                |counters| Ok(compute_refined(&compensating, mv, &mut scratch, counters)),
            )?;
            refined.push(Refined::Plain(codes));
        }
        unit_keys.push((vg, fp));
    }
    let anchors = anchor_ref.expect("selection has an anchor unit");

    // Fast path: a single unit needs no holistic join — the skeleton is
    // the bare trunk chain, so each surviving fragment passes iff the
    // chain embeds into its FST-decoded ancestor label path. The verdict
    // depends only on (view, chain shape), so it is computed once per
    // view's fragments and memoized as a bitmap; warm repeats are pure
    // bit probes with zero code comparisons.
    if let Some(c) = cache {
        if selection.units.len() == 1 {
            counters.bump(Counter::RewriteFastPath);
            let unit = &selection.units[0];
            let mv = store.get(unit.view).expect("checked above");
            let chain = q.root_path(unit.cover.m);
            let bits = memo(
                Some((c, Key::Chain(unit_keys[0].0, chain_key(q, &chain)))),
                counters,
                |counters| chain_bits(q, &chain, mv, fst, counters),
            )?;
            let mut out: Vec<DeweyCode> = Vec::new();
            for (i, &fi) in anchors.frag.iter().enumerate() {
                if bit(&bits, fi as usize) {
                    out.extend(anchors.answers[i].iter().cloned());
                }
            }
            out.sort();
            out.dedup();
            return Ok(out);
        }
    }

    // Stage 2: join over the code prefix tree.
    counters.bump(Counter::RewriteHolisticJoins);
    let skeleton = Skeleton::build(q, selection);
    let (prefix_tree, tree_key): (Arc<PrefixTree>, Option<Arc<[ViewGen]>>) = match cache {
        Some(c) => {
            let mut views: Vec<ViewGen> = unit_keys.iter().map(|(vg, _)| *vg).collect();
            views.sort();
            views.dedup();
            let key: Arc<[ViewGen]> = views.into();
            let tree = memo(Some((c, Key::Tree(Arc::clone(&key)))), counters, |_| {
                superset_tree(&key, store, fst)
            })?;
            (tree, Some(key))
        }
        None => {
            let mut all: Vec<&[u8]> = refined.iter().flat_map(|r| r.codes().iter()).collect();
            all.sort_unstable_by(|a, b| flat_cmp(a, b));
            all.dedup();
            (Arc::new(PrefixTree::build_sorted(all, fst)?), None)
        }
    };
    if prefix_tree.tree.is_empty() {
        return Ok(Vec::new());
    }
    // Per-skeleton-node admissibility bitmaps: each unit pins its `m` to
    // the prefix-tree nodes carrying one of its refined codes (a galloping
    // intersection of two sorted lists, memoized per (tree, refinement));
    // several units on the same node AND together.
    let mut node_bits: HashMap<PNodeId, Vec<u64>> = HashMap::new();
    for ((unit, r), (vg, fp)) in selection.units.iter().zip(&refined).zip(&unit_keys) {
        let s = skeleton.q_to_s[&unit.cover.m];
        let keyed = cache.zip(tree_key.clone()).zip(fp.clone());
        let bits: Arc<Vec<u64>> = memo(
            keyed.map(|((c, tree), fp)| (c, Key::Restriction(tree, *vg, fp))),
            counters,
            |_| Ok(intersect_bits(&prefix_tree.codes, r.codes(), stats)),
        )?;
        match node_bits.entry(s) {
            Entry::Vacant(e) => {
                e.insert(bits.as_ref().clone());
            }
            Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(bits.iter()) {
                    *a &= *b;
                }
            }
        }
    }
    let admissible = |s: PNodeId, x: NodeId| -> bool {
        match node_bits.get(&s) {
            None => true,
            Some(b) => bit(b, x.index()),
        }
    };
    let anchor_nodes = eval_restricted_in(
        &skeleton.pattern,
        &prefix_tree.tree,
        &admissible,
        &mut scratch,
    );

    // Stage 3: extract from the anchor's fragments — prefix-tree node ids
    // ascend in code order, so sorting the anchor bindings turns the
    // lookup into one forward galloping merge over the anchor pairs.
    let mut idxs: Vec<usize> = anchor_nodes.iter().map(|n| n.index()).collect();
    idxs.sort_unstable();
    let mut out: Vec<DeweyCode> = Vec::new();
    let mut pos = 0usize;
    for i in idxs {
        let code = prefix_tree.codes.get(i);
        pos = anchors.codes.gallop_lower_bound(pos, code, stats);
        if pos < anchors.codes.len() && stats.eq(anchors.codes.get(pos), code) {
            out.extend(anchors.answers[pos].iter().cloned());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Intersection rewrite (the `HvIntersect` fallback): every unit of the
/// selection binds `m = RET(Q)`, so the join degenerates into a set
/// intersection of the units' refined fragment-root code lists — computed
/// with the multi-way galloping merge [`intersect_many`] over the flat
/// arenas — followed by the existing prefix-tree chain evaluation over the
/// intersected set and extraction from the anchor unit's fragments.
///
/// Counter accounting: the multi-way merge's comparison work lands in the
/// `intersect.*` counters ([`Counter::IntersectJoins`],
/// [`Counter::IntersectComparisons`], [`Counter::IntersectGallopProbes`]);
/// refinement and the chain evaluation report through the usual `rewrite.*`
/// counters, so the marginal cost of intersecting is directly readable.
///
/// Refinement is memoized through `cache` when given (the per-member
/// refined code lists and the anchor's extraction pairs share the cache
/// keys of the general rewriter).
pub fn rewrite_intersect_metered(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
    cache: Option<&RewriteCache>,
    counters: &mut StageCounters,
) -> Result<Vec<DeweyCode>, RewriteError> {
    let _ = views;
    debug_assert!(selection.intersection, "selection must be an intersection");
    debug_assert!(
        selection.units.iter().all(|u| u.cover.m == q.answer()),
        "every intersection member binds the answer node"
    );
    counters.bump(Counter::RewriteRuns);
    let mut scratch = EvalScratch::new();
    // Stage 1: refine each member with the shared compensating pattern
    // (the query subtree below the answer), exactly as the general path.
    let compensating = q.subtree_pattern(q.answer(), Axis::Descendant);
    let fp: Option<Arc<str>> = cache.map(|_| compensating.fingerprint().into());
    let mut member_codes: Vec<Arc<FlatCodes>> = Vec::new();
    let mut anchor_ref: Option<Arc<Anchors>> = None;
    for (i, unit) in selection.units.iter().enumerate() {
        let mv = store
            .get(unit.view)
            .ok_or(RewriteError::NotMaterialized(unit.view))?;
        if !mv.complete() {
            return Err(RewriteError::IncompleteMaterialization(unit.view));
        }
        let keyed = cache.zip(fp.clone());
        if i == selection.anchor {
            let pairs = memo(
                keyed.map(|(c, fp)| (c, Key::Anchors(view_gen(mv), fp))),
                counters,
                |counters| {
                    Ok(compute_anchor_pairs(
                        &compensating,
                        mv,
                        &mut scratch,
                        counters,
                    ))
                },
            )?;
            anchor_ref = Some(pairs);
        } else {
            let codes = memo(
                keyed.map(|(c, fp)| (c, Key::Refined(view_gen(mv), fp))),
                counters,
                |counters| Ok(compute_refined(&compensating, mv, &mut scratch, counters)),
            )?;
            member_codes.push(codes);
        }
    }
    let anchors = anchor_ref.expect("selection has an anchor unit");

    // Stage 2: multi-way galloping intersection over the flat arenas.
    counters.bump(Counter::IntersectJoins);
    let mut join_stats = CmpStats::default();
    let mut lists: Vec<&FlatCodes> = Vec::with_capacity(selection.units.len());
    lists.push(&anchors.codes);
    lists.extend(member_codes.iter().map(|c| c.as_ref()));
    let intersected = intersect_many(&lists, &mut join_stats);
    counters.add(Counter::IntersectComparisons, join_stats.comparisons);
    counters.add(Counter::IntersectGallopProbes, join_stats.probes);

    // Stage 3: the existing prefix-tree evaluation, restricted to the
    // intersected set, verifies the chain `root → RET(Q)` against the
    // FST-decoded ancestor labels; extraction then reads the anchor pairs.
    let mut stats = CmpStats::default();
    let result = (|| {
        let stats = &mut stats;
        let tree = PrefixTree::build_sorted(intersected.iter(), fst)?;
        if tree.tree.is_empty() {
            return Ok(Vec::new());
        }
        let skeleton = Skeleton::build(q, selection);
        let bits = intersect_bits(&tree.codes, &intersected, stats);
        let s_answer = skeleton.q_to_s[&q.answer()];
        let admissible = |s: PNodeId, x: NodeId| -> bool { s != s_answer || bit(&bits, x.index()) };
        let anchor_nodes =
            eval_restricted_in(&skeleton.pattern, &tree.tree, &admissible, &mut scratch);
        let mut idxs: Vec<usize> = anchor_nodes.iter().map(|n| n.index()).collect();
        idxs.sort_unstable();
        let mut out: Vec<DeweyCode> = Vec::new();
        let mut pos = 0usize;
        for i in idxs {
            let code = tree.codes.get(i);
            pos = anchors.codes.gallop_lower_bound(pos, code, stats);
            if pos < anchors.codes.len() && stats.eq(anchors.codes.get(pos), code) {
                out.extend(anchors.answers[pos].iter().cloned());
            }
        }
        out.sort();
        out.dedup();
        Ok(out)
    })();
    counters.add(Counter::RewriteDeweyComparisons, stats.comparisons);
    counters.add(Counter::RewriteGallopProbes, stats.probes);
    counters.add(Counter::RewriteComparisonsSkipped, stats.skipped);
    counters.add(Counter::RewriteBytesCompared, stats.bytes);
    result
}

/// The query skeleton: the union of the chains `root → m_i`, as a pattern
/// whose answer node is the anchor's `m`. Attribute predicates are *not*
/// copied — codes carry no attributes; attribute obligations are discharged
/// by the leaf-cover rule (fragment content or view guarantee).
struct Skeleton {
    pattern: TreePattern,
    /// Skeleton node of each query node included.
    q_to_s: HashMap<PNodeId, PNodeId>,
}

impl Skeleton {
    fn build(q: &TreePattern, selection: &Selection) -> Skeleton {
        // Collect the prefix-closed set of query nodes on any root→m chain.
        let mut include: Vec<bool> = vec![false; q.len()];
        for unit in &selection.units {
            for n in q.root_path(unit.cover.m) {
                include[n.index()] = true;
            }
        }
        let mut pattern = TreePattern::with_root(q.axis(q.root()), q.label(q.root()));
        let mut q_to_s: HashMap<PNodeId, PNodeId> = HashMap::new();
        q_to_s.insert(q.root(), pattern.root());
        // Query ids are parent-before-child.
        for n in q.ids().skip(1) {
            if !include[n.index()] {
                continue;
            }
            let parent_s = q_to_s[&q.parent(n).expect("non-root")];
            let s = pattern.add_child(parent_s, q.axis(n), q.label(n));
            q_to_s.insert(n, s);
        }
        let anchor_m = selection.units[selection.anchor].cover.m;
        pattern.set_answer(q_to_s[&anchor_m]);
        Skeleton { pattern, q_to_s }
    }

    /// Per-skeleton-node code restrictions as plain slices — used by the
    /// legacy scan join; several units on the same node all apply.
    fn restrictions<'a>(
        &self,
        selection: &Selection,
        refined: &'a [Vec<DeweyCode>],
    ) -> HashMap<PNodeId, Vec<&'a [DeweyCode]>> {
        let mut map: HashMap<PNodeId, Vec<&'a [DeweyCode]>> = HashMap::new();
        for (unit, codes) in selection.units.iter().zip(refined.iter()) {
            let s = self.q_to_s[&unit.cover.m];
            map.entry(s).or_default().push(codes.as_slice());
        }
        map
    }
}

/// The prefix-closure of a set of extended Dewey codes, materialized as a
/// labelled tree via the FST. An exact structural fragment of the base
/// document: node = code prefix, label = FST decode, edges = real
/// parent/child relations. Node ids ascend in flat-code order (the input
/// is sorted), which is what lets the join treat per-node code lookups as
/// a sorted-merge problem.
struct PrefixTree {
    tree: XmlTree,
    /// Flat code of each tree node (dense by node index, ascending).
    codes: FlatCodes,
}

impl PrefixTree {
    /// Build from flat codes in ascending [`flat_cmp`] order (duplicates
    /// tolerated). Because the input is sorted, the current root path is a
    /// stack: each new code pops to the common byte prefix — component
    /// boundaries coincide on common prefixes by the prefix-free encoding
    /// — and extends with fresh FST steps from there.
    fn build_sorted<'a, I: IntoIterator<Item = &'a [u8]>>(
        codes: I,
        fst: &Fst,
    ) -> Result<PrefixTree, RewriteError> {
        let mut tree = XmlTree::new();
        let mut node_codes = FlatCodes::new();
        // (byte length of the node's code, node) along the current path.
        let mut stack: Vec<(usize, NodeId)> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        for code in codes {
            debug_assert!(
                cur.is_empty() || flat_cmp(&cur, code) != std::cmp::Ordering::Greater,
                "build_sorted requires ascending codes"
            );
            let mut comps = flat::components(code);
            let Some((_, first_end)) = comps.next() else {
                return Err(RewriteError::UndecodableCode(code_for_err(code)));
            };
            if tree.is_empty() {
                let r = tree.add_root(fst.root_label());
                node_codes.push_encoded(&code[..first_end]);
                stack.push((first_end, r));
                cur = code[..first_end].to_vec();
            }
            // Pop to the common byte prefix (always at component
            // boundaries of both codes).
            let common = cur
                .iter()
                .zip(code.iter())
                .take_while(|(a, b)| a == b)
                .count();
            while stack.last().is_some_and(|&(len, _)| len > common) {
                stack.pop();
            }
            let Some(&(base, parent)) = stack.last() else {
                // First component disagrees with the root's — codes from a
                // different document.
                return Err(RewriteError::UndecodableCode(code_for_err(code)));
            };
            // Extend with the remaining components (`end` offsets are
            // cumulative within the `&code[base..]` slice).
            let mut parent = parent;
            let mut done = base;
            for (comp, end) in flat::components(&code[base..]) {
                let label = fst
                    .step(tree.label(parent), comp)
                    .ok_or_else(|| RewriteError::UndecodableCode(code_for_err(code)))?;
                let n = tree.add_child(parent, label);
                node_codes.push_encoded(&code[..base + end]);
                stack.push((base + end, n));
                parent = n;
                done = base + end;
            }
            if done != code.len() {
                // Trailing bytes that decode to no component.
                return Err(RewriteError::UndecodableCode(code_for_err(code)));
            }
            cur.clear();
            cur.extend_from_slice(code);
        }
        debug_assert!(node_codes.is_strictly_sorted());
        Ok(PrefixTree {
            tree,
            codes: node_codes,
        })
    }
}

/// Best-effort [`DeweyCode`] for error reporting from flat bytes (partial
/// decode on malformed input).
fn code_for_err(bytes: &[u8]) -> DeweyCode {
    DeweyCode(flat::components(bytes).map(|(v, _)| v).collect())
}

// ---------------------------------------------------------------------------
// Legacy scan-merge join — the pre-galloping reference implementation.
// ---------------------------------------------------------------------------

/// Cost, in code-component comparisons, of one binary search over a
/// sorted list of `len` codes — `⌈log2(len)⌉ + 1`, the quantity the scan
/// join folds into [`Counter::RewriteDeweyComparisons`].
fn bsearch_cost(len: usize) -> u64 {
    (usize::BITS - len.leading_zeros()) as u64
}

/// The legacy scan-merge holistic join, kept as an independent reference
/// implementation for the galloping join: per-component [`DeweyCode`]
/// comparators, hash-built prefix tree, a full binary search per candidate
/// node and restriction list, no fast path and no memoization. No engine
/// path runs it: it is the test reference held byte-identical to
/// [`rewrite`] / [`rewrite_cached`] by the oracle's `JoinEquivalence`
/// invariant, the join-differential tests and the CI join gate.
pub fn rewrite_scan(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
) -> Result<Vec<DeweyCode>, RewriteError> {
    rewrite_scan_metered(q, selection, views, store, fst, &mut StageCounters::new())
}

/// [`rewrite_scan`] recording observability counters (binary searches
/// counted as `log2(len) + 1` Dewey comparisons, as the scan join always
/// did; the galloping counters stay zero on this path).
pub fn rewrite_scan_metered(
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &MaterializedStore,
    fst: &Fst,
    counters: &mut StageCounters,
) -> Result<Vec<DeweyCode>, RewriteError> {
    let _ = views;
    counters.bump(Counter::RewriteRuns);
    let mut scratch = EvalScratch::new();
    // Stage 1: refinement, on per-component codes.
    let mut refined: Vec<Vec<DeweyCode>> = Vec::with_capacity(selection.units.len());
    let mut anchor_pairs: Option<Vec<(DeweyCode, Vec<DeweyCode>)>> = None;
    for (i, unit) in selection.units.iter().enumerate() {
        let mv = store
            .get(unit.view)
            .ok_or(RewriteError::NotMaterialized(unit.view))?;
        if !mv.complete() {
            return Err(RewriteError::IncompleteMaterialization(unit.view));
        }
        let compensating = q.subtree_pattern(unit.cover.m, Axis::Descendant);
        let label = compensating.label(compensating.root());
        let trivial = is_trivial(&compensating);
        counters.add(Counter::RewriteFragmentsScanned, mv.fragments.len() as u64);
        if i == selection.anchor {
            let trivial_answer_is_root = trivial && compensating.answer() == compensating.root();
            let mut pairs: Vec<(DeweyCode, Vec<DeweyCode>)> = Vec::new();
            for (fi, (code, tree)) in mv.fragments.entries().enumerate() {
                if trivial_answer_is_root {
                    if label.matches(tree.label(tree.root())) {
                        let global = mv.global_code(fi, tree.root());
                        pairs.push((code, vec![global]));
                    }
                    continue;
                }
                let answers = eval_anchored_in(&compensating, tree, tree.root(), &mut scratch);
                if answers.is_empty() {
                    continue;
                }
                let globals: Vec<DeweyCode> =
                    answers.into_iter().map(|n| mv.global_code(fi, n)).collect();
                pairs.push((code, globals));
            }
            refined.push(pairs.iter().map(|(c, _)| c.clone()).collect());
            anchor_pairs = Some(pairs);
        } else {
            let mut codes: Vec<DeweyCode> = Vec::new();
            for (code, tree) in mv.fragments.entries() {
                let keep = if trivial {
                    label.matches(tree.label(tree.root()))
                } else {
                    matches_anchored_in(&compensating, tree, tree.root(), &mut scratch)
                };
                if keep {
                    codes.push(code);
                }
            }
            refined.push(codes);
        }
    }
    let anchor_pairs = anchor_pairs.expect("selection has an anchor unit");

    // Stage 2: join over a hash-built code prefix tree, one binary search
    // per candidate node per restriction list.
    counters.bump(Counter::RewriteHolisticJoins);
    let skeleton = Skeleton::build(q, selection);
    let (tree, node_codes) = scan_prefix_tree(refined.iter().flat_map(|c| c.iter()), fst)?;
    if tree.is_empty() {
        return Ok(Vec::new());
    }
    let restrictions = skeleton.restrictions(selection, &refined);
    // `admissible` is a shared-borrow closure; tally its binary-search
    // work through a cell and fold it into the counters afterwards.
    let join_comparisons = std::cell::Cell::new(0u64);
    let admissible = |s: PNodeId, x: NodeId| -> bool {
        match restrictions.get(&s) {
            None => true,
            Some(lists) => {
                let code = &node_codes[x.index()];
                join_comparisons.set(
                    join_comparisons.get()
                        + lists.iter().map(|l| bsearch_cost(l.len())).sum::<u64>(),
                );
                lists.iter().all(|&list| list.binary_search(code).is_ok())
            }
        }
    };
    let anchors = eval_restricted_in(&skeleton.pattern, &tree, &admissible, &mut scratch);
    counters.add(Counter::RewriteDeweyComparisons, join_comparisons.get());

    // Stage 3: extract from the anchor's fragments.
    let mut out: Vec<DeweyCode> = Vec::new();
    for a in anchors {
        let code = &node_codes[a.index()];
        counters.add(
            Counter::RewriteDeweyComparisons,
            bsearch_cost(anchor_pairs.len()),
        );
        if let Ok(idx) = anchor_pairs.binary_search_by(|(c, _)| c.cmp(code)) {
            out.extend(anchor_pairs[idx].1.iter().cloned());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// The legacy prefix-closure construction: insertion-order hash map over
/// component-vector prefixes.
fn scan_prefix_tree<'a, I: Iterator<Item = &'a DeweyCode>>(
    codes: I,
    fst: &Fst,
) -> Result<(XmlTree, Vec<DeweyCode>), RewriteError> {
    let mut tree = XmlTree::new();
    let mut node_codes: Vec<DeweyCode> = Vec::new();
    let mut by_prefix: HashMap<Vec<u32>, NodeId> = HashMap::new();
    for code in codes {
        let comps = code.components();
        if comps.is_empty() {
            return Err(RewriteError::UndecodableCode(code.clone()));
        }
        // Root prefix.
        if tree.is_empty() {
            let r = tree.add_root(fst.root_label());
            by_prefix.insert(comps[..1].to_vec(), r);
            node_codes.push(DeweyCode(comps[..1].to_vec()));
        }
        let mut cur = *by_prefix
            .get(&comps[..1])
            .ok_or_else(|| RewriteError::UndecodableCode(code.clone()))?;
        for k in 2..=comps.len() {
            let prefix = &comps[..k];
            cur = match by_prefix.get(prefix) {
                Some(&n) => n,
                None => {
                    let parent_label = tree.label(cur);
                    let label = fst
                        .step(parent_label, comps[k - 1])
                        .ok_or_else(|| RewriteError::UndecodableCode(code.clone()))?;
                    let n = tree.add_child(cur, label);
                    by_prefix.insert(prefix.to_vec(), n);
                    node_codes.push(DeweyCode(prefix.to_vec()));
                    n
                }
            };
        }
    }
    Ok((tree, node_codes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{build_nfa, filter_views};
    use crate::leafcover::Obligations;
    use crate::materialize::MaterializedStore;
    use crate::select::{select_heuristic, select_minimum};
    use crate::view::ViewSet;
    use xvr_pattern::{eval, parse_pattern_with};
    use xvr_xml::samples::book_document;
    use xvr_xml::Document;

    fn direct_codes(doc: &Document, q: &TreePattern) -> Vec<String> {
        eval(q, &doc.tree)
            .into_iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n).to_string())
            .collect()
    }

    /// Full pipeline on the book document: filter → select → rewrite.
    fn answer_with_views(
        doc: &Document,
        view_srcs: &[&str],
        qsrc: &str,
        heuristic: bool,
    ) -> Option<Vec<String>> {
        let mut labels = doc.labels.clone();
        let mut views = ViewSet::new();
        for src in view_srcs {
            views.add(parse_pattern_with(src, &mut labels).unwrap());
        }
        let q = parse_pattern_with(qsrc, &mut labels).unwrap();
        let nfa = build_nfa(&views);
        let filter = filter_views(&q, &views, &nfa);
        let ob = Obligations::of(&q);
        let selection = if heuristic {
            select_heuristic(&q, &views, &filter, &ob)?
        } else {
            select_minimum(&q, &views, &filter.candidates, &ob, 4)?
        };
        let store = MaterializedStore::materialize_all(doc, &views, usize::MAX);
        let codes = rewrite(&q, &selection, &views, &store, &doc.fst).unwrap();
        Some(codes.into_iter().map(|c| c.to_string()).collect())
    }

    #[test]
    fn example_5_1_end_to_end() {
        // V1 = s[t]/p, V2 = s[p]/f answer Q_e = s[f//i][t]/p, yielding
        // {p3, p4, p5, p6, p7}.
        let doc = book_document();
        let got = answer_with_views(&doc, &["//s[t]/p", "//s[p]/f"], "//s[f//i][t]/p", true)
            .expect("answerable");
        let want = direct_codes(&doc, &{
            let mut labels = doc.labels.clone();
            parse_pattern_with("//s[f//i][t]/p", &mut labels).unwrap()
        });
        assert_eq!(got, want);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn single_view_rewriting() {
        let doc = book_document();
        for qsrc in ["//s[t]/p", "//s/p", "//f/i", "/b//p"] {
            let got = answer_with_views(&doc, &[qsrc], qsrc, true).expect("self-answerable");
            let mut labels = doc.labels.clone();
            let q = parse_pattern_with(qsrc, &mut labels).unwrap();
            assert_eq!(got, direct_codes(&doc, &q), "{qsrc}");
        }
    }

    #[test]
    fn minimum_and_heuristic_agree_on_answers() {
        let doc = book_document();
        let views = ["//s[t]/p", "//s[p]/f", "//s//p", "//s[.//i]"];
        for qsrc in ["//s[f//i][t]/p", "//s[t]/p"] {
            let h = answer_with_views(&doc, &views, qsrc, true);
            let m = answer_with_views(&doc, &views, qsrc, false);
            assert_eq!(h, m, "{qsrc}");
            let mut labels = doc.labels.clone();
            let q = parse_pattern_with(qsrc, &mut labels).unwrap();
            assert_eq!(h.unwrap(), direct_codes(&doc, &q), "{qsrc}");
        }
    }

    #[test]
    fn empty_result_when_predicates_fail() {
        let doc = book_document();
        // Sections with an author child do not exist.
        let got = answer_with_views(&doc, &["//s[a]/p", "//s[t]/p"], "//s[a]/p", true);
        if let Some(codes) = got {
            assert!(codes.is_empty());
        }
    }

    #[test]
    fn anchored_answer_below_view_root() {
        // Anchor view returns sections; query answer is a paragraph below.
        let doc = book_document();
        let got = answer_with_views(&doc, &["//s[t]", "//s[p]/f"], "//s[f//i][t]/p", true)
            .expect("answerable");
        let mut labels = doc.labels.clone();
        let q = parse_pattern_with("//s[f//i][t]/p", &mut labels).unwrap();
        assert_eq!(got, direct_codes(&doc, &q));
    }

    #[test]
    fn rewrite_errors_on_truncated_view() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut views = ViewSet::new();
        let q = parse_pattern_with("//s[t]/p", &mut labels).unwrap();
        views.add(q.clone());
        let nfa = build_nfa(&views);
        let filter = filter_views(&q, &views, &nfa);
        let ob = Obligations::of(&q);
        let selection = select_heuristic(&q, &views, &filter, &ob).unwrap();
        let store = MaterializedStore::materialize_all(&doc, &views, 60);
        let err = rewrite(&q, &selection, &views, &store, &doc.fst).unwrap_err();
        assert!(matches!(err, RewriteError::IncompleteMaterialization(_)));
        let err = rewrite_scan(&q, &selection, &views, &store, &doc.fst).unwrap_err();
        assert!(matches!(err, RewriteError::IncompleteMaterialization(_)));
    }

    /// Like [`answer_with_views`] but returning the raw pipeline pieces so
    /// tests can call both rewrite paths on the same selection.
    fn pipeline(
        doc: &Document,
        view_srcs: &[&str],
        qsrc: &str,
    ) -> Option<(TreePattern, Selection, ViewSet, MaterializedStore)> {
        let mut labels = doc.labels.clone();
        let mut views = ViewSet::new();
        for src in view_srcs {
            views.add(parse_pattern_with(src, &mut labels).unwrap());
        }
        let q = parse_pattern_with(qsrc, &mut labels).unwrap();
        let nfa = build_nfa(&views);
        let filter = filter_views(&q, &views, &nfa);
        let ob = Obligations::of(&q);
        let selection = select_heuristic(&q, &views, &filter, &ob)?;
        let store = MaterializedStore::materialize_all(doc, &views, usize::MAX);
        Some((q, selection, views, store))
    }

    /// Join shapes exercised by the differential tests: multi-unit joins,
    /// single-unit fast path (trivial and non-trivial compensating
    /// patterns), wildcard views, anchored answers below the view root.
    const JOIN_CASES: [(&[&str], &str); 6] = [
        (&["//s[t]/p", "//s[p]/f"], "//s[f//i][t]/p"),
        (&["//s[t]/p"], "//s[t]/p"),
        (&["//s//p"], "//s/s/p"),
        (&["//s[.//i]"], "//s[.//i]"),
        (&["//s[t]", "//s[p]/f"], "//s[f//i][t]/p"),
        (&["//f/i"], "//f/i"),
    ];

    #[test]
    fn cached_rewrite_is_byte_identical_to_uncached() {
        let doc = book_document();
        let mut memoized_anchors = false;
        let mut memoized_chains = false;
        for (views_src, qsrc) in JOIN_CASES {
            let Some((q, sel, views, store)) = pipeline(&doc, views_src, qsrc) else {
                panic!("{qsrc}: expected answerable");
            };
            // One cache per view set: cache keys embed `ViewId`s, which are
            // only meaningful within one snapshot's `ViewSet` (each case
            // here builds its own).
            let cache = RewriteCache::new();
            let want = rewrite(&q, &sel, &views, &store, &doc.fst).unwrap();
            // Cold and warm cache must both reproduce the reference.
            for pass in 0..2 {
                let got = rewrite_cached(&q, &sel, &views, &store, &doc.fst, &cache).unwrap();
                assert_eq!(got, want, "{qsrc} (pass {pass})");
            }
            let holds = |kind: fn(&Key) -> bool| cache.clock.read().unwrap().index.keys().any(kind);
            memoized_anchors |= holds(|k| matches!(k, Key::Anchors(..)));
            memoized_chains |= holds(|k| matches!(k, Key::Chain(..)));
        }
        // The sweep must have exercised both the anchor memoization and
        // the single-unit chain bitmaps.
        assert!(memoized_anchors);
        assert!(memoized_chains);
    }

    #[test]
    fn galloping_join_matches_scan_join() {
        // The join differential at the unit level: legacy scan-merge vs.
        // galloping flat-code join, uncached and cached, cold and warm.
        let doc = book_document();
        for (views_src, qsrc) in JOIN_CASES {
            let Some((q, sel, views, store)) = pipeline(&doc, views_src, qsrc) else {
                panic!("{qsrc}: expected answerable");
            };
            let cache = RewriteCache::new();
            let scan = rewrite_scan(&q, &sel, &views, &store, &doc.fst).unwrap();
            let gallop = rewrite(&q, &sel, &views, &store, &doc.fst).unwrap();
            assert_eq!(scan, gallop, "{qsrc} (uncached)");
            for pass in 0..2 {
                let cached = rewrite_cached(&q, &sel, &views, &store, &doc.fst, &cache).unwrap();
                assert_eq!(scan, cached, "{qsrc} (cached pass {pass})");
            }
        }
    }

    #[test]
    fn warm_cache_skips_comparisons() {
        // The point of the memoized bitmaps: a warm repeat of a join-heavy
        // query performs zero Dewey comparisons.
        let doc = book_document();
        let cache = RewriteCache::new();
        let (q, sel, views, store) =
            pipeline(&doc, &["//s[t]/p", "//s[p]/f"], "//s[f//i][t]/p").unwrap();
        let mut cold = StageCounters::new();
        rewrite_metered(&q, &sel, &views, &store, &doc.fst, Some(&cache), &mut cold).unwrap();
        assert!(cold.get(Counter::RewriteDeweyComparisons) > 0);
        assert!(cold.get(Counter::RewriteGallopProbes) > 0);
        let mut warm = StageCounters::new();
        rewrite_metered(&q, &sel, &views, &store, &doc.fst, Some(&cache), &mut warm).unwrap();
        assert!(
            warm.get(Counter::RewriteDeweyComparisons) < cold.get(Counter::RewriteDeweyComparisons),
            "warm repeat must reuse memoized join state"
        );
    }

    #[test]
    fn chain_fast_path_respects_root_anchoring() {
        let doc = book_document();
        let cache = RewriteCache::new();
        // `/s` never matches (document element is b) even though the `//s`
        // view has fragments everywhere — the chain must pin `/` roots to
        // position 0 of the decoded path.
        let (q, sel, views, store) = pipeline(&doc, &["//s"], "/s").unwrap();
        let got = rewrite_cached(&q, &sel, &views, &store, &doc.fst, &cache).unwrap();
        assert_eq!(got, rewrite(&q, &sel, &views, &store, &doc.fst).unwrap());
        assert!(got.is_empty());
    }

    #[test]
    fn clock_evicts_the_unreferenced_entry_and_respects_the_cap() {
        let bits = |n: usize| Arc::new(vec![0u64; n]);
        let key = |name: &str| Key::Chain((ViewId(0), 0), name.into());
        let size = ENTRY_OVERHEAD + 1 + 8 * 8;
        let cache = RewriteCache::with_cap(2 * size);
        let mut counters = StageCounters::new();
        cache.put(key("a"), bits(8), &mut counters);
        cache.put(key("b"), bits(8), &mut counters);
        assert_eq!((cache.len(), cache.bytes()), (2, 2 * size));
        // A hit earns `a` a second chance, so the hand passes it over
        // and evicts `b` to fit `c`.
        assert!(cache.get::<Vec<u64>>(&key("a")).is_some());
        cache.put(key("c"), bits(8), &mut counters);
        assert_eq!(counters.get(Counter::RewriteCacheEvictions), 1);
        assert!(cache.get::<Vec<u64>>(&key("a")).is_some());
        assert!(cache.get::<Vec<u64>>(&key("b")).is_none());
        assert!(cache.get::<Vec<u64>>(&key("c")).is_some());
        assert_eq!(cache.bytes(), 2 * size);
        // A value larger than the cap is returned but not kept.
        let big = cache.put(key("d"), bits(1024), &mut counters);
        assert_eq!(big.len(), 1024);
        assert!(cache.get::<Vec<u64>>(&key("d")).is_none());
        assert_eq!(cache.len(), 2);
        // Eviction by materialization drops exactly the entries naming it.
        cache.put(
            Key::Chain((ViewId(1), 7), "e".into()),
            bits(1),
            &mut counters,
        );
        cache.evict(&HashSet::from([(ViewId(0), 0)]));
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() < size);
    }

    /// Build a flat PrefixTree from component vectors (sorted here, as the
    /// join does).
    fn flat_tree(doc: &Document, codes: &[&[u32]]) -> PrefixTree {
        let mut encoded: Vec<Vec<u8>> = codes
            .iter()
            .map(|c| xvr_xml::flat::encode_components(c))
            .collect();
        encoded.sort_unstable_by(|a, b| flat_cmp(a, b));
        encoded.dedup();
        PrefixTree::build_sorted(encoded.iter().map(|c| c.as_slice()), &doc.fst).unwrap()
    }

    #[test]
    fn prefix_tree_is_structural_fragment() {
        let doc = book_document();
        let pt = flat_tree(&doc, &[&[0, 8, 6, 1], &[0, 8, 6, 3], &[0, 11]]);
        // Prefix closure: 0 / 0.8 / 0.8.6 / 0.8.6.1 / 0.8.6.3 / 0.11.
        assert_eq!(pt.tree.len(), 6);
        // Labels decode correctly: node 0.8.6 is labelled `s`.
        let s = doc.labels.get("s").unwrap();
        let want = xvr_xml::flat::encode_components(&[0, 8, 6]);
        let idx = pt.codes.iter().position(|c| c == want.as_slice()).unwrap();
        assert_eq!(pt.tree.label(xvr_xml::NodeId(idx as u32)), s);
    }

    #[test]
    fn prefix_closure_duplicate_prefixes_share_nodes() {
        // Many codes under one deep branch: shared prefixes must map to
        // the same node, and literal duplicates add nothing.
        let doc = book_document();
        let pt = flat_tree(
            &doc,
            &[&[0, 8, 6, 1], &[0, 8, 6, 1], &[0, 8, 6, 3], &[0, 8, 6]],
        );
        // Closure: 0 / 0.8 / 0.8.6 / 0.8.6.1 / 0.8.6.3 — five nodes, not
        // one per input.
        assert_eq!(pt.tree.len(), 5);
        assert_eq!(pt.codes.len(), 5);
        assert!(pt.codes.is_strictly_sorted());
    }

    #[test]
    fn prefix_closure_root_only_code() {
        let doc = book_document();
        let pt = flat_tree(&doc, &[&[0]]);
        assert_eq!(pt.tree.len(), 1);
        assert_eq!(pt.tree.label(pt.tree.root()), doc.fst.root_label());
        assert_eq!(
            xvr_xml::flat::decode_components(pt.codes.get(0)),
            Some(vec![0])
        );
        // An empty input yields an empty tree (the join returns nothing).
        let empty = PrefixTree::build_sorted(std::iter::empty(), &doc.fst).unwrap();
        assert!(empty.tree.is_empty());
        assert!(empty.codes.is_empty());
    }

    #[test]
    fn prefix_closure_deep_chain() {
        // A single deep code materializes its whole ancestor chain, in
        // order, with parent links following the code prefixes. Use the
        // deepest real node so every prefix decodes under the FST.
        let doc = book_document();
        let deep: Vec<u32> = doc
            .tree
            .iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n).components().to_vec())
            .max_by_key(|c| c.len())
            .unwrap();
        assert!(deep.len() >= 4, "book document has a deep path");
        let pt = flat_tree(&doc, &[&deep]);
        assert_eq!(pt.tree.len(), deep.len());
        for i in 0..deep.len() {
            assert_eq!(
                xvr_xml::flat::decode_components(pt.codes.get(i)),
                Some(deep[..=i].to_vec())
            );
            if i > 0 {
                let n = xvr_xml::NodeId(i as u32);
                assert_eq!(pt.tree.parent(n), Some(xvr_xml::NodeId(i as u32 - 1)));
            }
        }
    }

    #[test]
    fn prefix_closure_matches_scan_construction() {
        // Node-set equivalence with the legacy hash-built closure on the
        // real document's fragment codes.
        let doc = book_document();
        let (_, _, _, store) = pipeline(&doc, &["//s//p", "//s[t]"], "//s//p").unwrap();
        let mut dewey: Vec<DeweyCode> = Vec::new();
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for v in [0u32, 1] {
            let mv = store.get(crate::view::ViewId(v)).unwrap();
            for code in mv.fragments.codes() {
                encoded.push(xvr_xml::encode_code(&code));
                dewey.push(code);
            }
        }
        let (scan_tree, scan_codes) = scan_prefix_tree(dewey.iter(), &doc.fst).unwrap();
        encoded.sort_unstable_by(|a, b| flat_cmp(a, b));
        encoded.dedup();
        let flat =
            PrefixTree::build_sorted(encoded.iter().map(|c| c.as_slice()), &doc.fst).unwrap();
        assert_eq!(scan_tree.len(), flat.tree.len());
        let mut scan_set: Vec<String> = scan_codes.iter().map(|c| c.to_string()).collect();
        scan_set.sort();
        let mut flat_set: Vec<String> = flat
            .codes
            .iter()
            .map(|c| xvr_xml::flat::decode_code(c).unwrap().to_string())
            .collect();
        flat_set.sort();
        assert_eq!(scan_set, flat_set);
    }
}
