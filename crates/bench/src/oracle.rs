//! Differential + metamorphic oracle for the seven answering strategies.
//!
//! The paper's central claim is *equivalent* rewriting: whatever a view
//! strategy answers must be byte-identical to direct evaluation on the
//! base document, and VFILTER must never filter a view that could have
//! participated. This module cross-checks all of that at scale, over
//! randomized XMark-like documents, view sets, and query workloads, all
//! derived from a seed:
//!
//! * **Differential**: every strategy's answer is diffed against the `Bn`
//!   ground truth ([`Invariant::Differential`]).
//! * **Metamorphic** — properties needing no external oracle:
//!   - VFILTER soundness: a view with a homomorphism into the query must
//!     survive filtering ([`Invariant::FilterSoundness`]), and a filtered
//!     view must never be consumed by a rewriting
//!     ([`Invariant::FilteredViewUsed`], via [`AnswerTrace`]).
//!   - Leaf-cover answerability ⇒ rewriting success: once selection finds
//!     a plan over complete materializations, the rewrite stage must not
//!     fail ([`Invariant::AnswerableMustRewrite`]).
//!   - Minimal ⊆ exhaustive: if the VFILTER-restricted minimum strategy
//!     (`Mv`) answers, the unrestricted one (`Mn`) must too — its
//!     candidate set is a superset ([`Invariant::MinimumMonotonicity`]).
//!     (The result-set inclusion direction is subsumed by the
//!     differential check: both must *equal* ground truth.)
//!   - Containment monotonicity: relaxing the query ([`relax`]) may only
//!     grow the answer ([`Invariant::ContainmentMonotonicity`]).
//!   - Snapshot determinism: [`EngineSnapshot::query_batch`] returns the
//!     same outcomes at every `jobs` level
//!     ([`Invariant::JobsDeterminism`]).
//!   - Cache determinism: the cached rewrite path must be byte-identical
//!     to the uncached reference rewriter for every view strategy, with
//!     the same trace (usable views, units, anchor)
//!     ([`Invariant::CacheDeterminism`]).
//!   - Join equivalence: the galloping flat-code holistic join must be
//!     byte-identical to the legacy scan-merge join on the same selection
//!     ([`Invariant::JoinEquivalence`]).
//!   - Intersection soundness: every code an `HvIntersect` answer emits
//!     must appear in the `Bn` ground truth — the multi-way intersect
//!     join may only narrow, never invent
//!     ([`Invariant::IntersectionSoundness`]).
//!   - Coverage monotonicity: `HvIntersect` runs the `Hv` heuristic first
//!     and falls back to intersection only on failure, so it must answer
//!     every query `Hv` answers ([`Invariant::CoverageMonotonic`]).
//!   - Eval equivalence: the sparse evaluators (`eval`, `eval_bn`) return
//!     exactly the dense reference's bindings for the query and for every
//!     view ([`Invariant::EvalEquivalence`]). The `Bn` ground truth and
//!     view materialization share the sparse core, so a bug there would
//!     show on both sides of the differential check and cancel out.
//!   - Cache carry: an engine's one rewrite cache survives its writes.
//!     Warmed on half the views, carried across `add_view` of the rest
//!     and one `append_xml` (with a snapshot pinned before the append
//!     still answering, and inserting, after it), the final snapshot
//!     answers every query byte-identically to a fresh engine over the
//!     final document, cached and uncached, under every strategy
//!     ([`Invariant::CacheCarry`]).
//!   - Shared fragments: the engine extracts each subtree once and shares
//!     the tree across every view that admits its root, so each view's
//!     fragment set must equal an unshared materialization of that view —
//!     same codes, trees, truncation and accounted bytes — once the views
//!     are registered, and again after the cache-carry append
//!     ([`Invariant::SharedFragments`]).
//!
//! Cases additionally sweep the per-view **byte budget** (ample, zero, a
//! tight constant, exact fit — the budget resolved to precisely the
//! largest view's unbounded size — and near fit, one byte under it, which
//! forces the footprint accounting itself to decide the truncation
//! boundary), so truncation edges are exercised continuously; the
//! resolved budget is recorded in reproducers and is a shrinking
//! dimension of its own.
//!
//! On a violation the oracle **shrinks** the failing case — dropping
//! views, pruning query branches, truncating the document — and emits a
//! self-contained text [`Reproducer`] that `tests/oracle_corpus.rs`
//! replays forever after. [`Injection`] plants deliberate bugs so the
//! oracle (and its shrinker) can be tested against a known-broken
//! pipeline.

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use xvr_pattern::generator::{relax, QueryConfig, QueryGenerator};
use xvr_pattern::{contains, eval, eval_bn, eval_restricted, parse_pattern, TreePattern};
use xvr_xml::generator::{generate, Config};
use xvr_xml::{DeweyCode, FragmentSet};

use xvr_core::engine::{AnswerError, Engine, EngineConfig, Strategy};
use xvr_core::snapshot::{AnswerTrace, EngineSnapshot, QueryOptions};

/// Which property a violation breaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// A strategy's answer differs from `Bn` direct evaluation.
    Differential,
    /// A view with a homomorphism into the query was filtered out.
    FilterSoundness,
    /// A rewriting consumed a view that was not a usable candidate.
    FilteredViewUsed,
    /// Selection found a plan but the rewrite stage failed.
    AnswerableMustRewrite,
    /// `Mv` answered but `Mn` (superset candidates) did not.
    MinimumMonotonicity,
    /// Relaxing the query lost answers: `ans(q) ⊄ ans(relax(q))`.
    ContainmentMonotonicity,
    /// `query_batch` outcomes differ across `jobs` levels.
    JobsDeterminism,
    /// The cached rewrite path disagrees with the uncached reference.
    CacheDeterminism,
    /// The galloping flat-code join disagrees with the legacy scan-merge
    /// join on the same selection.
    JoinEquivalence,
    /// An `HvIntersect` answer contained a code absent from the `Bn`
    /// ground truth: the intersect join invented an answer.
    IntersectionSoundness,
    /// `Hv` answered but `HvIntersect` (heuristic-first fallback) did not.
    CoverageMonotonic,
    /// `eval` or `eval_bn` disagrees with the dense reference evaluator on
    /// the query or on a view.
    EvalEquivalence,
    /// A snapshot whose rewrite cache was carried across `add_view`s and
    /// an `append_xml` answers differently from a fresh engine's.
    CacheCarry,
    /// A view's fragment set, built with trees shared across views,
    /// differs from an unshared materialization of the same view.
    SharedFragments,
}

impl Invariant {
    /// Stable snake-case name used in reproducer files.
    pub fn as_str(self) -> &'static str {
        match self {
            Invariant::Differential => "differential",
            Invariant::FilterSoundness => "filter_soundness",
            Invariant::FilteredViewUsed => "filtered_view_used",
            Invariant::AnswerableMustRewrite => "answerable_must_rewrite",
            Invariant::MinimumMonotonicity => "minimum_monotonicity",
            Invariant::ContainmentMonotonicity => "containment_monotonicity",
            Invariant::JobsDeterminism => "jobs_determinism",
            Invariant::CacheDeterminism => "cache_determinism",
            Invariant::JoinEquivalence => "join_equivalence",
            Invariant::IntersectionSoundness => "intersection_soundness",
            Invariant::CoverageMonotonic => "coverage_monotonic",
            Invariant::EvalEquivalence => "eval_equivalence",
            Invariant::CacheCarry => "cache_carry",
            Invariant::SharedFragments => "shared_fragments",
        }
    }

    /// Inverse of [`Invariant::as_str`].
    pub fn parse(s: &str) -> Option<Invariant> {
        [
            Invariant::Differential,
            Invariant::FilterSoundness,
            Invariant::FilteredViewUsed,
            Invariant::AnswerableMustRewrite,
            Invariant::MinimumMonotonicity,
            Invariant::ContainmentMonotonicity,
            Invariant::JobsDeterminism,
            Invariant::CacheDeterminism,
            Invariant::JoinEquivalence,
            Invariant::IntersectionSoundness,
            Invariant::CoverageMonotonic,
            Invariant::EvalEquivalence,
            Invariant::CacheCarry,
            Invariant::SharedFragments,
        ]
        .into_iter()
        .find(|i| i.as_str() == s)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deliberately planted bug, for testing the oracle itself (mutation
/// check): the oracle must catch each of these and shrink the case.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Injection {
    /// No bug: the real pipeline.
    #[default]
    None,
    /// Drop the last code from every non-empty `Hv` answer — a rewriting
    /// that silently loses an answer node.
    DropLastCode,
    /// Pretend the `Hv` rewriting joined a view VFILTER rejected.
    ClaimFilteredView,
    /// Drop the last code from every non-empty `HvIntersect` answer — an
    /// intersect join that silently loses its final fragment root.
    DropLastIntersect,
}

/// One self-contained failing (or once-failing) case: everything needed
/// to rebuild the document, the view set, and the query from scratch.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// Document generator parameters (seeded, deterministic).
    pub doc: Config,
    /// View definitions, as XPath.
    pub views: Vec<String>,
    /// The query, as XPath.
    pub query: String,
    /// Per-view materialization budget in bytes (`usize::MAX` = ample,
    /// the historical default; omitted from the text format when ample).
    pub budget: usize,
    /// The invariant that failed.
    pub invariant: Invariant,
    /// Strategy involved, when the invariant is strategy-specific.
    pub strategy: Option<Strategy>,
    /// Human-readable description of the original failure.
    pub detail: String,
}

/// One observed invariant violation, carrying its reproducer.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The reproducing case.
    pub repro: Reproducer,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {} [query {}, {} views, doc seed {}]",
            self.repro.invariant,
            self.repro
                .strategy
                .map(|s| s.as_str())
                .unwrap_or("strategy-independent"),
            self.repro.detail,
            self.repro.query,
            self.repro.views.len(),
            self.repro.doc.seed,
        )
    }
}

impl Reproducer {
    /// Serialize to the corpus text format (parsed by
    /// [`Reproducer::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# xvr-oracle reproducer — replayed by tests/oracle_corpus.rs\n");
        out.push_str(&format!("invariant: {}\n", self.invariant));
        if let Some(s) = self.strategy {
            out.push_str(&format!("strategy: {}\n", s.as_str().to_ascii_lowercase()));
        }
        if !self.detail.is_empty() {
            out.push_str(&format!("detail: {}\n", self.detail.replace('\n', " ")));
        }
        out.push_str(&format!("doc.seed: {}\n", self.doc.seed));
        out.push_str(&format!("doc.people: {}\n", self.doc.people));
        out.push_str(&format!("doc.items: {}\n", self.doc.items));
        out.push_str(&format!("doc.open_auctions: {}\n", self.doc.open_auctions));
        out.push_str(&format!(
            "doc.closed_auctions: {}\n",
            self.doc.closed_auctions
        ));
        out.push_str(&format!("doc.categories: {}\n", self.doc.categories));
        if self.budget != usize::MAX {
            out.push_str(&format!("budget: {}\n", self.budget));
        }
        for v in &self.views {
            out.push_str(&format!("view: {v}\n"));
        }
        out.push_str(&format!("query: {}\n", self.query));
        out
    }

    /// Parse the corpus text format.
    pub fn from_text(text: &str) -> Result<Reproducer, String> {
        let mut doc = Config {
            people: 0,
            items: 0,
            open_auctions: 0,
            closed_auctions: 0,
            categories: 0,
            seed: 0,
        };
        let mut views = Vec::new();
        let mut query = None;
        let mut budget = usize::MAX;
        let mut invariant = None;
        let mut strategy = None;
        let mut detail = String::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected `key: value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_num = |v: &str| {
                v.parse::<usize>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            match key {
                "invariant" => {
                    invariant = Some(
                        Invariant::parse(value)
                            .ok_or_else(|| format!("unknown invariant `{value}`"))?,
                    )
                }
                "strategy" => {
                    strategy = Some(
                        Strategy::parse(value)
                            .ok_or_else(|| format!("unknown strategy `{value}`"))?,
                    )
                }
                "detail" => detail = value.to_string(),
                "doc.seed" => doc.seed = parse_num(value)? as u64,
                "doc.people" => doc.people = parse_num(value)?,
                "doc.items" => doc.items = parse_num(value)?,
                "doc.open_auctions" => doc.open_auctions = parse_num(value)?,
                "doc.closed_auctions" => doc.closed_auctions = parse_num(value)?,
                "doc.categories" => doc.categories = parse_num(value)?,
                "budget" => budget = parse_num(value)?,
                "view" => views.push(value.to_string()),
                "query" => query = Some(value.to_string()),
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        Ok(Reproducer {
            doc,
            views,
            query: query.ok_or("missing `query:` line")?,
            budget,
            invariant: invariant.ok_or("missing `invariant:` line")?,
            strategy,
            detail,
        })
    }

    /// A stable, content-derived corpus file name.
    pub fn file_name(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_text().bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        format!("{}-{:08x}.case", self.invariant, hash as u32)
    }

    /// Write into `dir` (created if absent); returns the path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

/// Load every `*.case` file under `dir` (sorted by file name). A missing
/// directory is an empty corpus.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<(PathBuf, Reproducer)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let repro = Reproducer::from_text(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?;
        out.push((path, repro));
    }
    Ok(out)
}

/// Oracle knobs.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Strategies to cross-check (default: all seven).
    pub strategies: Vec<Strategy>,
    /// Engine construction knobs for every rebuilt case.
    pub engine: EngineConfig,
    /// Planted bug, for testing the oracle itself.
    pub injection: Injection,
    /// Parallelism level compared against sequential in the
    /// jobs-determinism check (0 disables the check).
    pub jobs: usize,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            strategies: Strategy::all_extended().to_vec(),
            engine: EngineConfig::default(),
            injection: Injection::None,
            jobs: 4,
        }
    }
}

/// Per-view byte-budget regime of a case, resolved to a concrete budget
/// by [`run_case`] (exact fit needs the generated document to measure).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BudgetSpec {
    /// Unlimited (`usize::MAX`): every view materializes completely.
    #[default]
    Ample,
    /// Zero bytes: every view is empty and truncated.
    Zero,
    /// A small constant that truncates most non-trivial views.
    Tight,
    /// Exactly the largest view's unbounded size: every view fits, with
    /// the biggest one landing precisely on the boundary.
    ExactFit,
    /// One byte under the largest view's unbounded size: the footprint
    /// accounting alone decides which view(s) truncate — exactly the
    /// largest — so an under-counting size model (the pre-streaming
    /// `size_bytes` bug) shifts the truncation set and trips the
    /// strategy-agreement invariants.
    NearFit,
}

/// One randomized (document, view set, query workload) instance.
#[derive(Clone, Debug)]
pub struct CaseSpec {
    /// Document generator parameters.
    pub doc: Config,
    /// Seed of the view-set generator.
    pub view_seed: u64,
    /// Seed of the query generator.
    pub query_seed: u64,
    /// Views to materialize.
    pub n_views: usize,
    /// Queries to generate (each is one (doc, views, query) case).
    pub n_queries: usize,
    /// Materialization budget regime.
    pub budget: BudgetSpec,
}

/// SplitMix64, used to derive independent sub-seeds from a master seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CaseSpec {
    /// Derive the `index`-th case of `master_seed`: independent document,
    /// view, and query seeds, with the document size cycling through three
    /// variants and the byte budget through five ([`BudgetSpec`]; index 0
    /// is always ample, so single-case callers stay non-vacuous). The
    /// cycles are coprime: 15 consecutive indices cover every combination.
    pub fn derive(master_seed: u64, index: usize, n_views: usize, n_queries: usize) -> CaseSpec {
        let base = mix(master_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut doc = Config::tiny(mix(base));
        match index % 3 {
            0 => {}
            1 => {
                // Slimmer: fewer deep auction subtrees, denser people.
                doc.people = 40;
                doc.items = 15;
                doc.open_auctions = 8;
                doc.closed_auctions = 5;
                doc.categories = 4;
            }
            _ => {
                // Wider: more recursion-heavy items.
                doc.people = 15;
                doc.items = 60;
                doc.open_auctions = 30;
                doc.closed_auctions = 20;
                doc.categories = 10;
            }
        }
        let budget = match index % 5 {
            0 => BudgetSpec::Ample,
            1 => BudgetSpec::Zero,
            2 => BudgetSpec::Tight,
            3 => BudgetSpec::ExactFit,
            _ => BudgetSpec::NearFit,
        };
        CaseSpec {
            doc,
            view_seed: mix(base ^ 1),
            query_seed: mix(base ^ 2),
            n_views,
            n_queries,
            budget,
        }
    }
}

/// Byte budget [`BudgetSpec::Tight`] resolves to: small enough to truncate
/// most non-trivial views on the oracle's documents, large enough to keep
/// some fragments so the truncated-view paths are non-vacuous.
const TIGHT_BUDGET: usize = 512;

/// Outcome of checking one [`CaseSpec`] (or one replayed reproducer).
#[derive(Clone, Debug, Default)]
pub struct CaseOutcome {
    /// (document, view set, query) triples checked.
    pub queries: usize,
    /// Per-strategy successful view answers (guards against vacuity).
    pub answered: usize,
    /// Queries the `Hv` heuristic answered (coverage baseline).
    pub hv_answered: usize,
    /// Queries `HvIntersect` answered (≥ `hv_answered`: the intersection
    /// strategy tries the heuristic first).
    pub hvi_answered: usize,
    /// Views VFILTER admitted, summed over queries (FP-rate denominator).
    pub filter_candidates: usize,
    /// Admitted views with *no* homomorphism into the query — VFILTER
    /// false positives (harmless for correctness, the paper tolerates
    /// them; measured here so regressions in filter precision are
    /// visible).
    pub filter_false_positives: usize,
    /// Invariant violations, each with a reproducer.
    pub violations: Vec<Violation>,
}

impl CaseOutcome {
    fn merge(&mut self, other: CaseOutcome) {
        self.queries += other.queries;
        self.answered += other.answered;
        self.hv_answered += other.hv_answered;
        self.hvi_answered += other.hvi_answered;
        self.filter_candidates += other.filter_candidates;
        self.filter_false_positives += other.filter_false_positives;
        self.violations.extend(other.violations);
    }
}

/// One-line rendering of an answer outcome, for violation details.
fn describe(r: &Result<xvr_core::engine::Answer, AnswerError>) -> String {
    match r {
        Ok(a) => format!("{} codes", a.codes.len()),
        Err(e) => format!("{e}"),
    }
}

/// One-line rendering of an outcome's codes, for violation details.
fn describe_codes(r: &Result<Vec<DeweyCode>, AnswerError>) -> String {
    match r {
        Ok(codes) => format!("{} codes", codes.len()),
        Err(e) => format!("{e}"),
    }
}

/// Whether two traces record the same plan: usable views, units, anchor.
fn same_plan(a: &AnswerTrace, b: &AnswerTrace) -> bool {
    a.usable == b.usable && a.units == b.units && a.anchor == b.anchor
}

fn describe_plan(t: &AnswerTrace) -> String {
    format!(
        "{} usable, {} units, anchor {:?}",
        t.usable.len(),
        t.units.len(),
        t.anchor
    )
}

/// Apply the planted bug to the targeted strategy's result/trace pair
/// (`Hv` for the classic injections, `HvIntersect` for the intersect one).
fn inject(
    injection: Injection,
    strategy: Strategy,
    result: &mut Result<xvr_core::engine::Answer, AnswerError>,
    trace: &mut AnswerTrace,
    all_views: &[xvr_core::view::ViewId],
) {
    let target = match injection {
        Injection::DropLastIntersect => Strategy::HvIntersect,
        _ => Strategy::Hv,
    };
    if strategy != target {
        return;
    }
    match injection {
        Injection::None => {}
        Injection::DropLastCode | Injection::DropLastIntersect => {
            if let Ok(a) = result {
                a.codes.pop();
            }
        }
        Injection::ClaimFilteredView => {
            if result.is_ok() {
                // Claim a unit on some view selection was *not* allowed to
                // use; if every view is usable there is nothing to claim.
                if let Some(&v) = all_views.iter().find(|v| !trace.usable.contains(v)) {
                    let m = trace
                        .units
                        .first()
                        .map(|u| u.1)
                        .unwrap_or(xvr_pattern::PNodeId(0));
                    trace.units.push((v, m));
                }
            }
        }
    }
}

/// Eval equivalence for one pattern: `eval` and `eval_bn` against the
/// dense reference (`eval_restricted` with an always-true predicate).
/// Returns a description of the disagreement, if any.
fn eval_mismatch(snap: &EngineSnapshot, p: &TreePattern) -> Option<String> {
    let tree = &snap.doc().tree;
    let dense = eval_restricted(p, tree, &|_, _| true);
    let walk = eval(p, tree);
    let indexed = eval_bn(p, tree, snap.node_index());
    (walk != dense || indexed != dense).then(|| {
        format!(
            "{}: eval {} / eval_bn {} bindings, dense reference {}",
            p.display(snap.labels()),
            walk.len(),
            indexed.len(),
            dense.len()
        )
    })
}

/// Eval equivalence for every view of the snapshot, checked once per case;
/// `query` only completes the reproducer.
fn check_view_evals(
    snap: &EngineSnapshot,
    doc_cfg: &Config,
    view_srcs: &[String],
    budget: usize,
    query: &TreePattern,
) -> Vec<Violation> {
    snap.views()
        .iter()
        .filter_map(|view| eval_mismatch(snap, &view.pattern))
        .map(|detail| Violation {
            repro: Reproducer {
                doc: doc_cfg.clone(),
                views: view_srcs.to_vec(),
                query: query.display(snap.labels()).to_string(),
                budget,
                invariant: Invariant::EvalEquivalence,
                strategy: None,
                detail: format!("view {detail}"),
            },
        })
        .collect()
}

/// Shared fragments ([`Invariant::SharedFragments`]): every view's
/// fragment set in `snap` against a fresh, unshared
/// [`FragmentSet::materialize_with_stats`] of the view over the snapshot's
/// document under `budget`. `when` names the engine state in the detail;
/// `query` only completes the reproducer.
fn check_shared_fragments(
    snap: &EngineSnapshot,
    doc_cfg: &Config,
    view_srcs: &[String],
    budget: usize,
    query: &str,
    when: &str,
) -> Vec<Violation> {
    let doc = snap.doc();
    snap.views()
        .iter()
        .filter_map(|view| {
            let shared = &snap.store().get(view.id)?.fragments;
            let roots = eval_bn(&view.pattern, &doc.tree, snap.node_index());
            let (fresh, _) = FragmentSet::materialize_with_stats(doc, &roots, budget);
            let differs = [
                (shared.flat_codes() != fresh.flat_codes(), "codes"),
                (shared.trees() != fresh.trees(), "trees"),
                (shared.truncated() != fresh.truncated(), "truncation"),
                (shared.total_bytes() != fresh.total_bytes(), "total bytes"),
            ];
            let what: Vec<&str> = differs.iter().filter(|d| d.0).map(|d| d.1).collect();
            (!what.is_empty()).then(|| Violation {
                repro: Reproducer {
                    doc: doc_cfg.clone(),
                    views: view_srcs.to_vec(),
                    query: query.to_string(),
                    budget,
                    invariant: Invariant::SharedFragments,
                    strategy: None,
                    detail: format!(
                        "{when}: view {} differs from an unshared materialization in {} \
                         ({} fragments, {} bytes; unshared {} fragments, {} bytes)",
                        view.pattern.display(snap.labels()),
                        what.join(", "),
                        shared.len(),
                        shared.total_bytes(),
                        fresh.len(),
                        fresh.total_bytes()
                    ),
                },
            })
        })
        .collect()
}

/// The append of the cache-carry check: a copy of a small subtree of
/// `doc`, under the subtree's own parent (found from `seed`), so the
/// append keeps every code and re-materializes only the views naming a
/// label it copies.
fn carry_append(doc: &xvr_xml::Document, seed: u64) -> Option<(DeweyCode, String)> {
    let nodes: Vec<xvr_xml::NodeId> = doc.tree.iter().collect();
    let start = seed as usize % nodes.len().max(1);
    nodes[start..].iter().chain(&nodes[..start]).find_map(|&n| {
        let child = doc.tree.first_child(n)?;
        let xml = xvr_xml::serializer::serialize_subtree(&doc.tree, &doc.labels, child);
        (xml.len() <= 512).then(|| (doc.dewey.code_of(&doc.tree, n), xml))
    })
}

/// Every strategy's outcome for the query `src` on `snap`.
fn outcomes(
    snap: &EngineSnapshot,
    src: &str,
    strategies: &[Strategy],
    cached: bool,
) -> Result<Vec<Result<Vec<DeweyCode>, AnswerError>>, String> {
    let q = snap.parse(src).map_err(|e| format!("query `{src}`: {e}"))?;
    Ok(strategies
        .iter()
        .map(|&s| {
            let options = QueryOptions::strategy(s).with_cache(cached);
            snap.query(&q, &options).answer.map(|a| a.codes)
        })
        .collect())
}

/// Cache carry ([`Invariant::CacheCarry`]): register the first half of
/// the views and warm the cache with every query, add the rest and warm
/// again, then append (see [`carry_append`]) with the last snapshot
/// pinned and answering after the append. The engine's final snapshot,
/// cached and uncached, must answer like a fresh engine over the final
/// document with the same views.
fn check_cache_carry(
    doc: &xvr_xml::Document,
    doc_cfg: &Config,
    view_srcs: &[String],
    budget: usize,
    query_srcs: &[String],
    cfg: &OracleConfig,
) -> Result<Vec<Violation>, String> {
    let Some((parent, xml)) = carry_append(doc, doc_cfg.seed) else {
        return Ok(Vec::new());
    };
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.fragment_budget = budget;
    let mut engine = Engine::new(doc.clone(), engine_cfg.clone());
    let (first, rest) = view_srcs.split_at(view_srcs.len() / 2);
    let warm = |snap: &EngineSnapshot| -> Result<(), String> {
        for src in query_srcs {
            outcomes(snap, src, &cfg.strategies, true)?;
        }
        Ok(())
    };
    for (i, batch) in [first, rest].into_iter().enumerate() {
        for v in batch {
            engine
                .add_view_str(v)
                .map_err(|e| format!("view `{v}`: {e}"))?;
        }
        if i == 0 {
            warm(&engine.snapshot())?;
        }
    }
    let pinned = engine.snapshot();
    warm(&pinned)?;
    engine
        .append_xml(&parent, &xml)
        .map_err(|e| format!("append under {parent}: {e}"))?;
    let carried = engine.snapshot();
    warm(&pinned)?;
    let mut fresh = Engine::new(engine.doc().clone(), engine_cfg);
    for v in view_srcs {
        fresh
            .add_view_str(v)
            .map_err(|e| format!("view `{v}`: {e}"))?;
    }
    let fresh = fresh.snapshot();
    let mut violations = check_shared_fragments(
        &carried,
        doc_cfg,
        view_srcs,
        budget,
        query_srcs.first().map_or("", String::as_str),
        "after the append",
    );
    for src in query_srcs {
        let want = outcomes(&fresh, src, &cfg.strategies, false)?;
        for cached in [true, false] {
            let got = outcomes(&carried, src, &cfg.strategies, cached)?;
            let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) else {
                continue;
            };
            violations.push(Violation {
                repro: Reproducer {
                    doc: doc_cfg.clone(),
                    views: view_srcs.to_vec(),
                    query: src.clone(),
                    budget,
                    invariant: Invariant::CacheCarry,
                    strategy: Some(cfg.strategies[i]),
                    detail: format!(
                        "carried snapshot ({}): {}; fresh engine: {}",
                        if cached { "cached" } else { "uncached" },
                        describe_codes(&got[i]),
                        describe_codes(&want[i])
                    ),
                },
            });
        }
    }
    Ok(violations)
}

/// Run every check for a single query against a prepared snapshot.
/// `view_srcs` are the XPath renderings used for reproducers.
fn check_query(
    snap: &EngineSnapshot,
    doc_cfg: &Config,
    view_srcs: &[String],
    budget: usize,
    q: &TreePattern,
    relax_seed: u64,
    cfg: &OracleConfig,
) -> CaseOutcome {
    let labels = snap.labels();
    let query_src = q.display(labels).to_string();
    let mut out = CaseOutcome {
        queries: 1,
        ..CaseOutcome::default()
    };
    let fail = |invariant: Invariant, strategy: Option<Strategy>, detail: String| Violation {
        repro: Reproducer {
            doc: doc_cfg.clone(),
            views: view_srcs.to_vec(),
            query: query_src.clone(),
            budget,
            invariant,
            strategy,
            detail,
        },
    };
    let ground = snap
        .query(q, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .expect("Bn always answers")
        .codes;
    if let Some(detail) = eval_mismatch(snap, q) {
        out.violations.push(fail(
            Invariant::EvalEquivalence,
            None,
            format!("query {detail}"),
        ));
    }

    // VFILTER soundness: any view with a homomorphism into the query must
    // survive the filter. While we have the per-view containment verdicts
    // anyway, also measure the filter's false-positive rate: admitted
    // views with no homomorphism into the query.
    let filter = snap.filter(q);
    out.filter_candidates += filter.candidates.len();
    for view in snap.views().iter() {
        let admitted = filter.candidates.contains(&view.id);
        let containing = contains(&view.pattern, q);
        if containing && !admitted {
            out.violations.push(fail(
                Invariant::FilterSoundness,
                None,
                format!(
                    "view {} contains the query but was filtered",
                    view.pattern.display(labels)
                ),
            ));
        }
        out.filter_false_positives += usize::from(admitted && !containing);
    }

    let all_ids: Vec<xvr_core::view::ViewId> = snap.views().ids().collect();
    let mut answerable = [false; 7];
    let strategy_slot = |s: Strategy| Strategy::all_extended().iter().position(|&x| x == s);
    for &s in &cfg.strategies {
        if s == Strategy::Bn {
            continue; // the ground truth itself
        }
        let outcome = snap.query(q, &QueryOptions::strategy(s).with_trace());
        let mut result = outcome.answer;
        let mut trace = outcome.report.and_then(|r| r.trace).unwrap_or_default();
        // Cache determinism: the cached path (just taken above) must
        // agree with the uncached reference pipeline, in answer and in
        // trace (usable views, units, anchor). Checked against the
        // pre-injection result, on purpose: injections model pipeline bugs
        // and should trip only their own invariant.
        if !matches!(s, Strategy::Bf) {
            let uncached = snap.query(q, &QueryOptions::strategy(s).with_cache(false).with_trace());
            let uncached_trace = uncached.report.and_then(|r| r.trace).unwrap_or_default();
            let same_answer = match (&result, &uncached.answer) {
                (Ok(a), Ok(b)) => a.codes == b.codes,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same_answer || !same_plan(&trace, &uncached_trace) {
                out.violations.push(fail(
                    Invariant::CacheDeterminism,
                    Some(s),
                    format!(
                        "cached rewrite ({}; {}) disagrees with uncached reference ({}; {})",
                        describe(&result),
                        describe_plan(&trace),
                        describe(&uncached.answer),
                        describe_plan(&uncached_trace)
                    ),
                ));
            }
        }
        // Join equivalence: the galloping flat-code join must agree with
        // the legacy scan-merge join on the same selection. Checked on one
        // strategy (the joins are selection-level, not strategy-level) and
        // pre-injection, like CacheDeterminism.
        if s == Strategy::Hv {
            if let (Some(selection), _, _) = snap.lookup(q, s) {
                let scan = xvr_core::rewrite::rewrite_scan(
                    q,
                    &selection,
                    snap.views(),
                    snap.store(),
                    &snap.doc().fst,
                );
                let same = match (&result, &scan) {
                    (Ok(a), Ok(b)) => &a.codes == b,
                    (Err(AnswerError::Rewrite(a)), Err(b)) => a == b,
                    _ => false,
                };
                if !same {
                    out.violations.push(fail(
                        Invariant::JoinEquivalence,
                        Some(s),
                        format!(
                            "galloping join ({}) disagrees with scan join ({})",
                            describe(&result),
                            match &scan {
                                Ok(codes) => format!("{} codes", codes.len()),
                                Err(e) => format!("error: {e}"),
                            }
                        ),
                    ));
                }
            }
        }
        inject(cfg.injection, s, &mut result, &mut trace, &all_ids);
        if !trace.units_within_candidates() {
            out.violations.push(fail(
                Invariant::FilteredViewUsed,
                Some(s),
                "rewriting consumed a view outside the usable candidates".into(),
            ));
        }
        match result {
            Ok(a) => {
                if let Some(i) = strategy_slot(s) {
                    answerable[i] = true;
                }
                out.answered += usize::from(!matches!(s, Strategy::Bf));
                out.hv_answered += usize::from(s == Strategy::Hv);
                out.hvi_answered += usize::from(s == Strategy::HvIntersect);
                // Intersection soundness: the intersect join may only
                // narrow the member answer sets, so every emitted code must
                // already be a ground-truth answer. (The differential check
                // subsumes this for equality; a dedicated invariant keeps
                // unsound joins distinguishable from incomplete ones.)
                if s == Strategy::HvIntersect {
                    if let Some(extra) = a.codes.iter().find(|c| !ground.contains(c)) {
                        out.violations.push(fail(
                            Invariant::IntersectionSoundness,
                            Some(s),
                            format!(
                                "intersection answer emits code {extra} absent from direct evaluation"
                            ),
                        ));
                    }
                }
                if a.codes != ground {
                    out.violations.push(fail(
                        Invariant::Differential,
                        Some(s),
                        format!(
                            "answer has {} codes, direct evaluation {}",
                            a.codes.len(),
                            ground.len()
                        ),
                    ));
                }
            }
            Err(AnswerError::NotAnswerable) => {}
            Err(AnswerError::Rewrite(e)) => {
                // Selection committed to a plan; with complete
                // materializations the rewrite stage must not fail.
                if trace.selection_found() {
                    out.violations.push(fail(
                        Invariant::AnswerableMustRewrite,
                        Some(s),
                        format!("selection found a plan but rewriting failed: {e}"),
                    ));
                }
            }
        }
    }

    // Minimal ⊆ exhaustive (answerability direction): Mv's candidates are
    // a subset of Mn's, so Mv answering implies Mn answering.
    let (mv, mn) = (strategy_slot(Strategy::Mv), strategy_slot(Strategy::Mn));
    if let (Some(mv), Some(mn)) = (mv, mn) {
        if answerable[mv]
            && !answerable[mn]
            && cfg.strategies.contains(&Strategy::Mv)
            && cfg.strategies.contains(&Strategy::Mn)
        {
            out.violations.push(fail(
                Invariant::MinimumMonotonicity,
                Some(Strategy::Mn),
                "Mv answered but Mn (superset candidates) did not".into(),
            ));
        }
    }

    // Coverage monotonicity: HvIntersect runs the Hv heuristic first and
    // falls back to intersection only when it fails, so its answerable set
    // is a superset of Hv's by construction — any regression here means
    // the fallback broke the primary path.
    let (hv, hvi) = (
        strategy_slot(Strategy::Hv),
        strategy_slot(Strategy::HvIntersect),
    );
    if let (Some(hv), Some(hvi)) = (hv, hvi) {
        if answerable[hv]
            && !answerable[hvi]
            && cfg.strategies.contains(&Strategy::Hv)
            && cfg.strategies.contains(&Strategy::HvIntersect)
        {
            out.violations.push(fail(
                Invariant::CoverageMonotonic,
                Some(Strategy::HvIntersect),
                "Hv answered but HvIntersect (heuristic-first fallback) did not".into(),
            ));
        }
    }

    // Containment monotonicity: a sound generalization of the query may
    // only grow the answer set.
    if let Some(wider) = relax(q, relax_seed) {
        if contains(&wider, q) {
            let wide: BTreeSet<DeweyCode> = snap
                .query(&wider, &QueryOptions::strategy(Strategy::Bn))
                .answer
                .expect("Bn always answers")
                .codes
                .into_iter()
                .collect();
            if let Some(lost) = ground.iter().find(|c| !wide.contains(c)) {
                out.violations.push(fail(
                    Invariant::ContainmentMonotonicity,
                    Some(Strategy::Bn),
                    format!(
                        "code {lost} answers {} but not the relaxation {}",
                        query_src,
                        wider.display(labels)
                    ),
                ));
            }
        }
    }
    out
}

/// Batch determinism: for each strategy, `query_batch` at `jobs` must
/// reproduce the sequential outcomes exactly, in input order.
fn check_jobs_determinism(
    snap: &EngineSnapshot,
    doc_cfg: &Config,
    view_srcs: &[String],
    budget: usize,
    queries: &[TreePattern],
    cfg: &OracleConfig,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if cfg.jobs <= 1 || queries.is_empty() {
        return violations;
    }
    for &s in &cfg.strategies {
        // Answers: the default (cached) path, like production batches.
        let sequential = snap.query_batch(queries, &QueryOptions::strategy(s), 1);
        let parallel = snap.query_batch(queries, &QueryOptions::strategy(s), cfg.jobs);
        // Counters: the uncached path — cache hit/miss counts legitimately
        // depend on which worker warms an entry first, so only the
        // cache-free counters are required to be scheduling-independent.
        let metered = QueryOptions::strategy(s).with_cache(false).with_metrics();
        let counters_seq = snap.query_batch(queries, &metered, 1).counters;
        let counters_par = snap.query_batch(queries, &metered, cfg.jobs).counters;
        if counters_seq != counters_par {
            violations.push(Violation {
                repro: Reproducer {
                    doc: doc_cfg.clone(),
                    views: view_srcs.to_vec(),
                    query: queries
                        .first()
                        .map(|q| q.display(snap.labels()).to_string())
                        .unwrap_or_default(),
                    budget,
                    invariant: Invariant::JobsDeterminism,
                    strategy: Some(s),
                    detail: format!(
                        "merged batch counters differ between jobs=1 and jobs={}",
                        cfg.jobs
                    ),
                },
            });
        }
        for (i, (a, b)) in sequential.answers.iter().zip(&parallel.answers).enumerate() {
            let same = match (a, b) {
                (Ok(x), Ok(y)) => x.codes == y.codes,
                (Err(x), Err(y)) => x == y,
                _ => false,
            };
            if !same {
                violations.push(Violation {
                    repro: Reproducer {
                        doc: doc_cfg.clone(),
                        views: view_srcs.to_vec(),
                        query: queries[i].display(snap.labels()).to_string(),
                        budget,
                        invariant: Invariant::JobsDeterminism,
                        strategy: Some(s),
                        detail: format!("jobs=1 and jobs={} disagree", cfg.jobs),
                    },
                });
            }
        }
    }
    violations
}

/// Resolve a [`BudgetSpec`] to concrete bytes. Exact fit measures each
/// view's unbounded materialization and takes the maximum, so every view
/// fits and the largest lands exactly on the boundary.
fn resolve_budget(spec: BudgetSpec, doc: &xvr_xml::Document, views: &[TreePattern]) -> usize {
    match spec {
        BudgetSpec::Ample => usize::MAX,
        BudgetSpec::Zero => 0,
        BudgetSpec::Tight => TIGHT_BUDGET,
        BudgetSpec::ExactFit => largest_view_bytes(doc, views),
        // One under exact fit: the largest view truncates, everything
        // else fits, and where that line falls is decided entirely by
        // the footprint accounting.
        BudgetSpec::NearFit => largest_view_bytes(doc, views).saturating_sub(1),
    }
}

/// The largest view's unbounded materialization size over `views`.
fn largest_view_bytes(doc: &xvr_xml::Document, views: &[TreePattern]) -> usize {
    let mut set = xvr_core::view::ViewSet::new();
    for v in views {
        set.add(v.clone());
    }
    let store = xvr_core::materialize::MaterializedStore::materialize_all(doc, &set, usize::MAX);
    set.ids()
        .filter_map(|id| store.get(id).map(|mv| mv.fragments.total_bytes()))
        .max()
        .unwrap_or(0)
}

/// Run all checks for one [`CaseSpec`]: generate the document, the view
/// set (paper workload), and `n_queries` queries (alternating the paper's
/// workload with the adversarial one), then cross-check every strategy.
pub fn run_case(spec: &CaseSpec, cfg: &OracleConfig) -> CaseOutcome {
    let doc = generate(&spec.doc);
    let views = xvr_pattern::distinct_positive_patterns(
        &doc,
        QueryConfig::paper_view_workload(spec.view_seed),
        spec.n_views,
    );
    let view_srcs: Vec<String> = views
        .iter()
        .map(|v| v.display(&doc.labels).to_string())
        .collect();
    let budget = resolve_budget(spec.budget, &doc, &views);
    let mut paper =
        QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(spec.query_seed));
    let mut adversarial = QueryGenerator::new(
        &doc.fst,
        QueryConfig::adversarial_workload(mix(spec.query_seed)),
    );
    let mut queries: Vec<TreePattern> = Vec::with_capacity(spec.n_queries);
    for i in 0..spec.n_queries {
        let gen = if i % 2 == 0 {
            &mut paper
        } else {
            &mut adversarial
        };
        // Prefer positive queries; keep negatives occasionally (empty
        // answers are a legitimate differential case).
        match gen.generate_positive(&doc, 20) {
            Some(q) => queries.push(q),
            None => queries.push(gen.generate()),
        }
    }
    let query_srcs: Vec<String> = queries
        .iter()
        .map(|q| q.display(&doc.labels).to_string())
        .collect();
    let mut out = CaseOutcome::default();
    match check_cache_carry(&doc, &spec.doc, &view_srcs, budget, &query_srcs, cfg) {
        Ok(violations) => out.violations.extend(violations),
        Err(e) => panic!("cache carry: generated views must register: {e}"),
    }
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.fragment_budget = budget;
    let mut engine = Engine::new(doc, engine_cfg);
    for v in views {
        engine.add_view(v);
    }
    let snap = engine.snapshot();
    if let Some(q) = queries.first() {
        out.violations
            .extend(check_view_evals(&snap, &spec.doc, &view_srcs, budget, q));
        out.violations.extend(check_shared_fragments(
            &snap,
            &spec.doc,
            &view_srcs,
            budget,
            &query_srcs[0],
            "after registration",
        ));
    }
    for (i, q) in queries.iter().enumerate() {
        out.merge(check_query(
            &snap,
            &spec.doc,
            &view_srcs,
            budget,
            q,
            mix(spec.query_seed ^ (i as u64)),
            cfg,
        ));
    }
    out.violations.extend(check_jobs_determinism(
        &snap, &spec.doc, &view_srcs, budget, &queries, cfg,
    ));
    out
}

/// Replay a reproducer: rebuild its document, views, and query, and re-run
/// every check. Returns the violations observed (empty = the case holds,
/// i.e. the regression stays fixed).
pub fn replay(repro: &Reproducer, cfg: &OracleConfig) -> Result<Vec<Violation>, String> {
    let doc = generate(&repro.doc);
    let carry = check_cache_carry(
        &doc,
        &repro.doc,
        &repro.views,
        repro.budget,
        std::slice::from_ref(&repro.query),
        cfg,
    )?;
    // The recorded budget is part of the case: it overrides whatever the
    // caller's engine config says.
    let mut engine_cfg = cfg.engine.clone();
    engine_cfg.fragment_budget = repro.budget;
    let mut engine = Engine::new(doc, engine_cfg);
    for v in &repro.views {
        engine
            .add_view_str(v)
            .map_err(|e| format!("view `{v}`: {e}"))?;
    }
    let q = engine
        .parse(&repro.query)
        .map_err(|e| format!("query `{}`: {e}", repro.query))?;
    let snap = engine.snapshot();
    let mut out = check_query(
        &snap,
        &repro.doc,
        &repro.views,
        repro.budget,
        &q,
        repro.doc.seed,
        cfg,
    );
    out.violations.extend(check_view_evals(
        &snap,
        &repro.doc,
        &repro.views,
        repro.budget,
        &q,
    ));
    out.violations.extend(check_shared_fragments(
        &snap,
        &repro.doc,
        &repro.views,
        repro.budget,
        &repro.query,
        "after registration",
    ));
    out.violations.extend(carry);
    // Exercise batch determinism too (duplicate the query so jobs > 1
    // actually fans out).
    let batch: Vec<TreePattern> = vec![q.clone(), q.clone(), q];
    out.violations.extend(check_jobs_determinism(
        &snap,
        &repro.doc,
        &repro.views,
        repro.budget,
        &batch,
        cfg,
    ));
    Ok(out.violations)
}

/// Does replaying `repro` still violate its recorded invariant?
fn still_fails(repro: &Reproducer, cfg: &OracleConfig) -> bool {
    replay(repro, cfg)
        .map(|vs| vs.iter().any(|v| v.repro.invariant == repro.invariant))
        .unwrap_or(false)
}

/// Shrink a failing reproducer: greedily drop views, truncate the
/// document, and prune query branches, keeping every step that still
/// violates the same invariant. Deterministic and bounded.
pub fn shrink(repro: &Reproducer, cfg: &OracleConfig) -> Reproducer {
    let mut best = repro.clone();
    // Pass 1 + 4: drop views one at a time until a fixpoint.
    let drop_views = |best: &mut Reproducer| loop {
        let mut progressed = false;
        let mut i = 0;
        while i < best.views.len() {
            if best.views.len() == 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.views.remove(i);
            if still_fails(&candidate, cfg) {
                *best = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            break;
        }
    };
    drop_views(&mut best);
    // Budget pass: prefer the simplest budget that still reproduces —
    // ample (drops the budget line from the reproducer entirely), else
    // zero (empty stores). Failing both, the recorded budget stays.
    for probe in [usize::MAX, 0] {
        if best.budget == probe {
            break; // already the simplest reproducing form
        }
        let mut candidate = best.clone();
        candidate.budget = probe;
        if still_fails(&candidate, cfg) {
            best = candidate;
            break;
        }
    }
    // Pass 2: truncate the document (halving each knob, then floor 1).
    let fields: [fn(&mut Config) -> &mut usize; 5] = [
        |c| &mut c.people,
        |c| &mut c.items,
        |c| &mut c.open_auctions,
        |c| &mut c.closed_auctions,
        |c| &mut c.categories,
    ];
    loop {
        let mut progressed = false;
        for field in fields {
            loop {
                let current = {
                    let mut probe = best.doc.clone();
                    *field(&mut probe)
                };
                if current <= 1 {
                    break;
                }
                let mut candidate = best.clone();
                *field(&mut candidate.doc) = (current / 2).max(1);
                if still_fails(&candidate, cfg) {
                    best = candidate;
                    progressed = true;
                } else {
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // Pass 3: prune query branches (subtrees off the answer's root path).
    if let Ok((q, labels)) = parse_pattern(&best.query) {
        let mut q = q;
        loop {
            let prunable: Vec<_> = q
                .ids()
                .filter(|&n| n != q.root() && !q.is_ancestor_or_self(n, q.answer()))
                .collect();
            let mut progressed = false;
            for n in prunable {
                let candidate_pattern = q.without_subtree(n);
                let mut candidate = best.clone();
                candidate.query = candidate_pattern.display(&labels).to_string();
                if still_fails(&candidate, cfg) {
                    best = candidate;
                    q = candidate_pattern;
                    progressed = true;
                    break; // node ids shifted; re-enumerate
                }
            }
            if !progressed {
                break;
            }
        }
    }
    drop_views(&mut best);
    best
}

/// Summary of a whole seed sweep.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Case specs (documents × view sets) built.
    pub cases: usize,
    /// (document, view set, query) triples checked.
    pub queries: usize,
    /// Successful view-strategy answers across all triples.
    pub answered: usize,
    /// Triples the `Hv` heuristic answered (coverage baseline).
    pub hv_answered: usize,
    /// Triples `HvIntersect` answered (coverage including the
    /// intersection fallback; always ≥ `hv_answered`).
    pub hvi_answered: usize,
    /// Views VFILTER admitted, summed over all triples.
    pub filter_candidates: usize,
    /// Admitted views with no homomorphism into their query (see
    /// [`CaseOutcome::filter_false_positives`]).
    pub filter_false_positives: usize,
    /// Violations, already shrunk.
    pub violations: Vec<Violation>,
}

impl RunSummary {
    /// Measured VFILTER false-positive rate: admitted-but-non-containing
    /// views over all admitted views. `None` when nothing was admitted.
    pub fn filter_fp_rate(&self) -> Option<f64> {
        (self.filter_candidates > 0)
            .then(|| self.filter_false_positives as f64 / self.filter_candidates as f64)
    }
}

/// Sweep one master seed: `docs` derived cases, each with its own view
/// set and `queries`-query workload. Violations are shrunk before being
/// returned (at most `max_shrunk` are shrunk; the rest are returned
/// as-is to bound runtime on catastrophic regressions).
pub fn run_seed(
    master_seed: u64,
    docs: usize,
    n_views: usize,
    n_queries: usize,
    cfg: &OracleConfig,
) -> RunSummary {
    let mut summary = RunSummary::default();
    const MAX_SHRUNK: usize = 4;
    for index in 0..docs {
        let spec = CaseSpec::derive(master_seed, index, n_views, n_queries);
        let outcome = run_case(&spec, cfg);
        summary.cases += 1;
        summary.queries += outcome.queries;
        summary.answered += outcome.answered;
        summary.hv_answered += outcome.hv_answered;
        summary.hvi_answered += outcome.hvi_answered;
        summary.filter_candidates += outcome.filter_candidates;
        summary.filter_false_positives += outcome.filter_false_positives;
        for v in outcome.violations {
            if summary.violations.len() < MAX_SHRUNK {
                summary.violations.push(Violation {
                    repro: shrink(&v.repro, cfg),
                });
            } else {
                summary.violations.push(v);
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> OracleConfig {
        OracleConfig::default()
    }

    fn small_spec(seed: u64) -> CaseSpec {
        CaseSpec::derive(seed, 0, 12, 6)
    }

    #[test]
    fn clean_pipeline_has_no_violations() {
        for seed in [1u64, 2, 3] {
            let outcome = run_case(&small_spec(seed), &small_cfg());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {}",
                outcome.violations[0]
            );
            assert_eq!(outcome.queries, 6);
        }
    }

    #[test]
    fn oracle_answers_are_nonvacuous() {
        let mut answered = 0;
        for seed in 0..4u64 {
            answered += run_case(&small_spec(seed), &small_cfg()).answered;
        }
        assert!(answered > 0, "no query was ever answered from views");
    }

    #[test]
    fn injected_rewriting_bug_is_caught_and_shrunk() {
        let cfg = OracleConfig {
            injection: Injection::DropLastCode,
            ..OracleConfig::default()
        };
        let mut caught = None;
        for seed in 0..12u64 {
            let outcome = run_case(&small_spec(seed), &cfg);
            if let Some(v) = outcome
                .violations
                .iter()
                .find(|v| v.repro.invariant == Invariant::Differential)
            {
                caught = Some(v.clone());
                break;
            }
        }
        let v = caught.expect("DropLastCode must trip the differential check");
        assert_eq!(v.repro.strategy, Some(Strategy::Hv));
        let shrunk = shrink(&v.repro, &cfg);
        assert!(shrunk.views.len() <= v.repro.views.len());
        assert!(
            still_fails(&shrunk, &cfg),
            "shrunk case no longer reproduces"
        );
        // The same case must pass once the bug is gone — corpus semantics.
        assert!(
            !still_fails(&shrunk, &small_cfg()),
            "case fails even without the injection"
        );
    }

    #[test]
    fn injected_intersect_bug_is_caught_and_shrunk() {
        let cfg = OracleConfig {
            injection: Injection::DropLastIntersect,
            ..OracleConfig::default()
        };
        let mut caught = None;
        for seed in 0..12u64 {
            let outcome = run_case(&small_spec(seed), &cfg);
            if let Some(v) = outcome
                .violations
                .iter()
                .find(|v| v.repro.invariant == Invariant::Differential)
            {
                caught = Some(v.clone());
                break;
            }
        }
        let v = caught.expect("DropLastIntersect must trip the differential check");
        assert_eq!(v.repro.strategy, Some(Strategy::HvIntersect));
        let shrunk = shrink(&v.repro, &cfg);
        assert!(shrunk.views.len() <= v.repro.views.len());
        assert!(
            still_fails(&shrunk, &cfg),
            "shrunk case no longer reproduces"
        );
        assert!(
            !still_fails(&shrunk, &small_cfg()),
            "case fails even without the injection"
        );
    }

    #[test]
    fn coverage_accounting_is_monotone_and_nonvacuous() {
        let mut hv = 0;
        let mut hvi = 0;
        for seed in 0..4u64 {
            let outcome = run_case(&small_spec(seed), &small_cfg());
            assert!(
                outcome.hvi_answered >= outcome.hv_answered,
                "seed {seed}: HvIntersect coverage {} below Hv coverage {}",
                outcome.hvi_answered,
                outcome.hv_answered
            );
            hv += outcome.hv_answered;
            hvi += outcome.hvi_answered;
        }
        assert!(hv > 0, "Hv never answered — coverage accounting vacuous");
        assert!(hvi >= hv);
    }

    #[test]
    fn injected_filter_claim_is_caught() {
        let cfg = OracleConfig {
            injection: Injection::ClaimFilteredView,
            ..OracleConfig::default()
        };
        let caught = (0..12u64).any(|seed| {
            run_case(&small_spec(seed), &cfg)
                .violations
                .iter()
                .any(|v| v.repro.invariant == Invariant::FilteredViewUsed)
        });
        assert!(caught, "ClaimFilteredView must trip the usage check");
    }

    #[test]
    fn derive_cycles_budget_with_index_zero_ample() {
        let budgets: Vec<BudgetSpec> = (0..4)
            .map(|i| CaseSpec::derive(1, i, 1, 1).budget)
            .collect();
        assert_eq!(
            budgets,
            [
                BudgetSpec::Ample,
                BudgetSpec::Zero,
                BudgetSpec::Tight,
                BudgetSpec::ExactFit
            ]
        );
    }

    #[test]
    fn clean_pipeline_is_clean_across_budget_regimes() {
        for index in 0..4 {
            let spec = CaseSpec::derive(5, index, 10, 4);
            let outcome = run_case(&spec, &small_cfg());
            assert!(
                outcome.violations.is_empty(),
                "budget {:?}: {}",
                spec.budget,
                outcome.violations[0]
            );
        }
    }

    #[test]
    fn reproducer_budget_round_trips_and_defaults_ample() {
        let mut repro = Reproducer {
            doc: Config::tiny(3),
            views: vec!["//person/name".into()],
            query: "//person/name".into(),
            budget: 1234,
            invariant: Invariant::CacheDeterminism,
            strategy: Some(Strategy::Hv),
            detail: String::new(),
        };
        let text = repro.to_text();
        assert!(text.contains("budget: 1234"), "{text}");
        assert_eq!(Reproducer::from_text(&text).unwrap().budget, 1234);
        // Ample budgets are omitted, so pre-budget corpus files (no
        // `budget:` line) keep parsing — and default to ample.
        repro.budget = usize::MAX;
        let text = repro.to_text();
        assert!(!text.contains("budget:"), "{text}");
        assert_eq!(Reproducer::from_text(&text).unwrap().budget, usize::MAX);
    }

    #[test]
    fn reproducer_text_round_trips() {
        let repro = Reproducer {
            doc: Config::tiny(99),
            views: vec!["//site//item[name]/location".into(), "//person/name".into()],
            query: "/site/people/person[profile/age]/name".into(),
            budget: usize::MAX,
            invariant: Invariant::Differential,
            strategy: Some(Strategy::Hv),
            detail: "answer has 3 codes, direct evaluation 4".into(),
        };
        let text = repro.to_text();
        let back = Reproducer::from_text(&text).unwrap();
        assert_eq!(back.to_text(), text);
        assert_eq!(back.invariant, Invariant::Differential);
        assert_eq!(back.strategy, Some(Strategy::Hv));
        assert_eq!(back.views, repro.views);
        assert_eq!(back.doc.seed, 99);
    }

    #[test]
    fn replay_of_clean_case_is_clean() {
        // Any reproducer built from a healthy pipeline must replay clean.
        let spec = small_spec(7);
        let doc = generate(&spec.doc);
        let views = xvr_pattern::distinct_positive_patterns(
            &doc,
            QueryConfig::paper_view_workload(spec.view_seed),
            8,
        );
        let srcs: Vec<String> = views
            .iter()
            .map(|v| v.display(&doc.labels).to_string())
            .collect();
        let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(3));
        let q = gen.generate_positive(&doc, 50).unwrap();
        let repro = Reproducer {
            doc: spec.doc.clone(),
            views: srcs,
            query: q.display(&doc.labels).to_string(),
            budget: usize::MAX,
            invariant: Invariant::Differential,
            strategy: Some(Strategy::Hv),
            detail: String::new(),
        };
        let violations = replay(&repro, &small_cfg()).unwrap();
        assert!(violations.is_empty(), "{}", violations[0]);
    }

    #[test]
    fn eval_equivalence_reproducer_round_trips_and_replays_clean() {
        let dir = std::env::temp_dir().join(format!("xvr-oracle-eval-{}", std::process::id()));
        let repro = Reproducer {
            doc: Config::tiny(12),
            views: vec!["//*[name]/*".into(), "/site//item[@id]/name".into()],
            query: "//site//*[name]//*".into(),
            budget: TIGHT_BUDGET,
            invariant: Invariant::EvalEquivalence,
            strategy: None,
            detail: "query //site//*[name]//*: eval 3 / eval_bn 2 bindings, dense reference 3"
                .into(),
        };
        assert_eq!(
            Invariant::parse("eval_equivalence"),
            Some(Invariant::EvalEquivalence)
        );
        let path = repro.write_to(&dir).unwrap();
        assert!(path.ends_with(repro.file_name()));
        assert!(repro.file_name().starts_with("eval_equivalence-"));
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.to_text(), repro.to_text());
        assert_eq!(loaded[0].1.invariant, Invariant::EvalEquivalence);
        assert_eq!(loaded[0].1.strategy, None);
        std::fs::remove_dir_all(&dir).unwrap();
        let violations = replay(&loaded[0].1, &small_cfg()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn cache_carry_reproducer_round_trips_and_replays_clean() {
        let dir = std::env::temp_dir().join(format!("xvr-oracle-carry-{}", std::process::id()));
        let repro = Reproducer {
            doc: Config::tiny(21),
            views: vec![
                "//item[name]/description".into(),
                "//person/name".into(),
                "//*[name]".into(),
                "/site/regions//item".into(),
            ],
            query: "//item[name]/description".into(),
            budget: usize::MAX,
            invariant: Invariant::CacheCarry,
            strategy: Some(Strategy::Hv),
            detail: "carried snapshot (cached): 1 codes; fresh engine: 2 codes".into(),
        };
        assert_eq!(Invariant::parse("cache_carry"), Some(Invariant::CacheCarry));
        let path = repro.write_to(&dir).unwrap();
        assert!(path.ends_with(repro.file_name()));
        assert!(repro.file_name().starts_with("cache_carry-"));
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.to_text(), repro.to_text());
        assert_eq!(loaded[0].1.invariant, Invariant::CacheCarry);
        std::fs::remove_dir_all(&dir).unwrap();
        let violations = replay(&loaded[0].1, &small_cfg()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn shared_fragments_reproducer_round_trips_and_replays_clean() {
        let dir = std::env::temp_dir().join(format!("xvr-oracle-shared-{}", std::process::id()));
        let repro = Reproducer {
            doc: Config::tiny(33),
            views: vec![
                "//item".into(),
                "/site/regions//item".into(),
                "//item[name]".into(),
                "//*[name]".into(),
            ],
            query: "//item/name".into(),
            budget: TIGHT_BUDGET,
            invariant: Invariant::SharedFragments,
            strategy: None,
            detail: "after registration: view //item[name] differs from an unshared \
                     materialization in trees"
                .into(),
        };
        assert_eq!(
            Invariant::parse("shared_fragments"),
            Some(Invariant::SharedFragments)
        );
        let path = repro.write_to(&dir).unwrap();
        assert!(repro.file_name().starts_with("shared_fragments-"));
        assert!(path.ends_with(repro.file_name()));
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1.to_text(), repro.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
        let violations = replay(&loaded[0].1, &small_cfg()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn cache_carry_appends_a_stable_subtree_that_redoes_some_views() {
        for seed in [1u64, 2, 3] {
            let spec = small_spec(seed);
            let doc = generate(&spec.doc);
            let (parent, xml) = carry_append(&doc, spec.doc.seed).expect("a small subtree");
            let mut engine = Engine::new(doc.clone(), EngineConfig::default());
            for v in ["//*", "//nosuchlabel"] {
                engine.add_view_str(v).unwrap();
            }
            let stats = engine.append_xml(&parent, &xml).unwrap();
            assert_eq!(
                stats.stability,
                xvr_xml::CodeStability::Stable,
                "seed {seed}"
            );
            assert_eq!(
                (stats.views_rematerialized, stats.views_skipped),
                (1, 1),
                "seed {seed}"
            );
            assert!(engine.doc().len() > doc.len());
        }
    }

    #[test]
    fn corpus_io_round_trips() {
        let dir = std::env::temp_dir().join(format!("xvr-oracle-corpus-{}", std::process::id()));
        let repro = Reproducer {
            doc: Config::tiny(5),
            views: vec!["//site//name".into()],
            query: "//site//name".into(),
            budget: usize::MAX,
            invariant: Invariant::JobsDeterminism,
            strategy: Some(Strategy::Mv),
            detail: String::new(),
        };
        let path = repro.write_to(&dir).unwrap();
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, path);
        assert_eq!(loaded[0].1.to_text(), repro.to_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
