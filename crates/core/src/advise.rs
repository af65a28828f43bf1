//! Workload-driven view advisor: given a query workload and a storage
//! budget, propose the materialized view set to answer it from.
//!
//! The paper answers queries from a *given* view set; choosing the set
//! is the production half of the problem (ROADMAP item 4). The advisor
//! closes the loop with the machinery this system already has:
//!
//! 1. **Cluster** the workload by structural similarity of the queries'
//!    normalized tree patterns ([`xvr_pattern::similarity()`]) — the
//!    query-clustering shape of Mahboubi et al.
//! 2. **Generalize** each cluster's representative into a candidate view
//!    with repeated applications of the sound [`xvr_pattern::relax`]
//!    move (every step only widens the pattern, so `q ⊑ q'` is
//!    guaranteed), stopping as soon as the candidate contains every
//!    member; the members themselves are also candidates (a self-view is
//!    always the exact fallback).
//! 3. **Admit** candidates greedily under the *total* byte budget, using
//!    each candidate's measured materialization size over the real
//!    document — not an estimate — and its workload weight (the summed
//!    frequency of the queries it contains).
//! 4. **Score** each assembled set by replaying the workload through a
//!    real [`EngineSnapshot`](crate::EngineSnapshot) with
//!    `Strategy::HvIntersect` and metrics on, reading the per-query
//!    [`StageCounters`](crate::StageCounters): the frequency-weighted
//!    answered count is the primary score and the `intersect.answered`
//!    coverage (queries only the intersection fallback rescued) both
//!    informs the ranking and is reported in the proposal.
//!
//! Everything that determines the [`Proposal`] — clustering, relax
//! seeds, admission order, per-query answered/intersect flags — is
//! deterministic: the same workload and seed produce the identical
//! proposal at any `jobs` setting (wall-clock only ever lands in the
//! informational `measured_qps` field, which is excluded from
//! [`Proposal::fingerprint`]).

use std::collections::HashMap;
use std::fmt;

use xvr_pattern::{contains, relax, similarity, TreePattern};
use xvr_xml::{Document, LabelTable};

use crate::catalog::clean_lines;
use crate::engine::{Engine, EngineConfig, Strategy};
use crate::error::QueryError;
use crate::metrics::Counter;
use crate::snapshot::QueryOptions;

/// One distinct workload query with its observed frequency.
#[derive(Clone, Debug)]
pub struct WorkloadEntry {
    /// The query as written.
    pub source: String,
    /// The parsed pattern (labels interned in the workload's own table).
    pub pattern: TreePattern,
    /// How many times the query appeared.
    pub freq: u64,
}

/// A parsed query workload: distinct queries with frequencies, in
/// first-appearance order, plus the label table their patterns intern
/// into (self-contained — independent of any document).
#[derive(Clone, Debug, Default)]
pub struct Workload {
    entries: Vec<WorkloadEntry>,
    labels: LabelTable,
}

impl Workload {
    /// Parse a workload file's text: one XPath per line, blank lines and
    /// `#` comments skipped, CRLF tolerated, duplicate queries folded
    /// into the first occurrence's frequency (see
    /// [`clean_lines`] for the line rules).
    pub fn parse(text: &str) -> Result<Workload, QueryError> {
        Workload::from_sources(clean_lines(text))
    }

    /// Build a workload from query strings, folding duplicates into
    /// frequencies exactly like [`Workload::parse`].
    pub fn from_sources<'a>(
        sources: impl IntoIterator<Item = &'a str>,
    ) -> Result<Workload, QueryError> {
        let mut labels = LabelTable::new();
        let mut entries: Vec<WorkloadEntry> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for src in sources {
            let src = src.trim();
            if src.is_empty() {
                continue;
            }
            if let Some(&i) = index.get(src) {
                entries[i].freq += 1;
                continue;
            }
            let pattern = xvr_pattern::parse_pattern_with(src, &mut labels)
                .map_err(|e| QueryError::input(format!("workload query `{src}`: {e}")))?;
            index.insert(src.to_owned(), entries.len());
            entries.push(WorkloadEntry {
                source: src.to_owned(),
                pattern,
                freq: 1,
            });
        }
        Ok(Workload { entries, labels })
    }

    /// The distinct queries, in first-appearance order.
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight: the sum of all frequencies (the original line count
    /// net of blanks/comments).
    pub fn total_weight(&self) -> u64 {
        self.entries.iter().map(|e| e.freq).sum()
    }

    /// The label table the workload's patterns are interned in.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }
}

/// Advisor knobs. `budget` is the **total** byte budget across the whole
/// proposed view set (measured materialized bytes), unlike
/// [`EngineConfig::fragment_budget`] which caps a single view.
#[derive(Clone, Debug)]
pub struct AdvisorConfig {
    /// Total materialized-byte budget for the proposed set.
    pub budget: usize,
    /// Seed for the generalization moves (and anything else randomized).
    pub seed: u64,
    /// Worker threads for the informational throughput replay. Never
    /// affects the proposal itself.
    pub jobs: usize,
    /// Cap on the candidate pool fed to set assembly.
    pub max_candidates: usize,
    /// Similarity threshold for workload clustering (see
    /// [`xvr_pattern::similarity::cluster`]).
    pub similarity_threshold: f64,
    /// Base engine configuration for the scoring engines.
    pub engine: EngineConfig,
}

impl Default for AdvisorConfig {
    fn default() -> AdvisorConfig {
        AdvisorConfig {
            budget: usize::MAX,
            seed: 42,
            jobs: 1,
            max_candidates: 32,
            similarity_threshold: 0.35,
            engine: EngineConfig::default(),
        }
    }
}

/// Deterministic score of one candidate view set against a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SetScore {
    /// Frequency-weighted queries answered (`Strategy::HvIntersect`).
    pub answered_weight: u64,
    /// Of `answered_weight`, the weight only the intersection fallback
    /// rescued (per-query `intersect.answered` counter).
    pub intersect_weight: u64,
    /// Total workload weight (the denominator).
    pub total_weight: u64,
    /// Measured materialized bytes of the set.
    pub bytes: usize,
    /// Number of views in the set.
    pub views: usize,
    /// Measured replay throughput (queries/s, frequency-expanded batch).
    /// Informational only: never ranked on, never fingerprinted.
    pub measured_qps: f64,
}

impl SetScore {
    /// Ranking key, best-first under `>`: more answered weight, then
    /// more weight answered *directly* (intersection joins cost more per
    /// query), then fewer bytes, then fewer views.
    fn rank_key(&self) -> (u64, u64, std::cmp::Reverse<usize>, std::cmp::Reverse<usize>) {
        (
            self.answered_weight,
            self.answered_weight - self.intersect_weight,
            std::cmp::Reverse(self.bytes),
            std::cmp::Reverse(self.views),
        )
    }

    /// Fraction of the workload weight answered, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        self.answered_weight as f64 / self.total_weight as f64
    }
}

/// One proposed view definition.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposedView {
    /// The view as an XPath source, ready for `add_view_str` /
    /// `--view` / the serve `add-view` request.
    pub xpath: String,
    /// Measured materialized size over the document.
    pub bytes: usize,
    /// Workload weight the view contains (summed frequency of the
    /// queries it can serve on its own, by pattern containment).
    pub weight: u64,
}

/// The advisor's output: the chosen view definitions (heaviest first)
/// with the deterministic score they earned.
#[derive(Clone, Debug)]
pub struct Proposal {
    /// Chosen views, ranked by contained workload weight.
    pub views: Vec<ProposedView>,
    /// Score of the chosen set.
    pub score: SetScore,
    /// How many workload clusters were formed.
    pub clusters: usize,
    /// Candidate pool size after dedup/measurement.
    pub candidates: usize,
    /// The byte budget the proposal was assembled under.
    pub budget: usize,
    /// The seed that produced it.
    pub seed: u64,
}

impl Proposal {
    /// A stable digest of every deterministic field — identical for
    /// identical (document, workload, config seed/budget) inputs at any
    /// `jobs` setting. Timing (`measured_qps`) is deliberately excluded.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "seed={} budget={} clusters={} candidates={} answered={}/{} intersect={} bytes={} views=[",
            self.seed,
            self.budget,
            self.clusters,
            self.candidates,
            self.score.answered_weight,
            self.score.total_weight,
            self.score.intersect_weight,
            self.score.bytes,
        );
        for (i, v) in self.views.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            let _ = write!(out, "{}|{}|{}", v.xpath, v.bytes, v.weight);
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Proposal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "proposal: {} view(s), {} B of {} budget, workload coverage {}/{} ({:.0}%)",
            self.views.len(),
            self.score.bytes,
            if self.budget == usize::MAX {
                "unbounded".to_string()
            } else {
                self.budget.to_string()
            },
            self.score.answered_weight,
            self.score.total_weight,
            100.0 * self.score.coverage(),
        )?;
        if self.score.intersect_weight > 0 {
            writeln!(
                f,
                "  intersection fallback rescues weight {}",
                self.score.intersect_weight
            )?;
        }
        for v in &self.views {
            writeln!(
                f,
                "  {:>10} B  weight {:>6}  {}",
                v.bytes, v.weight, v.xpath
            )?;
        }
        write!(
            f,
            "  measured replay: {:.0} queries/s ({} clusters, {} candidates)",
            self.score.measured_qps, self.clusters, self.candidates
        )
    }
}

/// A measured candidate view (internal to set assembly).
#[derive(Clone, Debug)]
struct Candidate {
    xpath: String,
    bytes: usize,
    weight: u64,
}

/// The advisor. See the module docs for the pipeline.
#[derive(Clone, Debug, Default)]
pub struct Advisor {
    config: AdvisorConfig,
}

impl Advisor {
    /// An advisor with the given configuration.
    pub fn new(config: AdvisorConfig) -> Advisor {
        Advisor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// Propose a view set for `workload` over `doc`.
    pub fn advise(&self, doc: &Document, workload: &Workload) -> Result<Proposal, QueryError> {
        if workload.is_empty() {
            return Err(QueryError::input("workload is empty"));
        }
        let entries = workload.entries();
        let patterns: Vec<TreePattern> = entries.iter().map(|e| e.pattern.clone()).collect();

        // 1. Cluster by structural similarity (deterministic leader pass).
        let clusters = similarity::cluster(&patterns, self.config.similarity_threshold);

        // 2. Candidate definitions: per cluster, a relax-generalized
        // representative that contains every member (when one is
        // reachable), plus every member as its own exact self-view.
        let mut cand_patterns: Vec<TreePattern> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut push = |p: TreePattern, cand_patterns: &mut Vec<TreePattern>| {
            if seen.insert(p.fingerprint()) {
                cand_patterns.push(p);
            }
        };
        for (ci, members) in clusters.iter().enumerate() {
            if members.len() > 1 {
                // Representative: the heaviest member (ties → earliest).
                let rep = *members
                    .iter()
                    .max_by_key(|&&i| (entries[i].freq, std::cmp::Reverse(i)))
                    .expect("cluster is non-empty");
                let mut general = patterns[rep].clone();
                for step in 0..16u64 {
                    if members.iter().all(|&i| contains(&general, &patterns[i])) {
                        push(general.clone(), &mut cand_patterns);
                        break;
                    }
                    let move_seed = self
                        .config
                        .seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((ci as u64) << 8)
                        .wrapping_add(step);
                    match relax(&general, move_seed) {
                        Some(g) => general = g,
                        None => break,
                    }
                }
            }
            for &i in members {
                push(patterns[i].clone(), &mut cand_patterns);
            }
        }

        // 3. Measure every candidate over the real document in one probe
        // engine; drop anything the budget truncates (selection would
        // never use it) and anything bigger than the whole budget.
        let mut probe_cfg = self.config.engine.clone();
        probe_cfg.fragment_budget = probe_cfg.fragment_budget.min(self.config.budget);
        let mut probe = Engine::new(doc.clone(), probe_cfg);
        let mut candidates: Vec<Candidate> = Vec::new();
        for p in &cand_patterns {
            let xpath = p.display(workload.labels()).to_string();
            let Ok(id) = probe.add_view_str(&xpath) else {
                continue; // display always re-parses; defensive only
            };
            let mv = probe.store().get(id).expect("view just materialized");
            if !mv.complete() || mv.size_bytes() > self.config.budget {
                continue;
            }
            let weight: u64 = entries
                .iter()
                .filter(|e| contains(p, &e.pattern))
                .map(|e| e.freq)
                .sum();
            candidates.push(Candidate {
                xpath,
                bytes: mv.size_bytes(),
                weight,
            });
        }
        // Deterministic pool cap: keep the heaviest (then smallest).
        candidates.sort_by(|a, b| {
            b.weight
                .cmp(&a.weight)
                .then(a.bytes.cmp(&b.bytes))
                .then(a.xpath.cmp(&b.xpath))
        });
        candidates.truncate(self.config.max_candidates);
        let n_candidates = candidates.len();
        drop(probe);

        // 4. Assemble alternative sets under the total budget and keep
        // the best-scoring one.
        let mut sets: Vec<Vec<&Candidate>> = Vec::new();
        // (a) Greedy by weight (candidates are already weight-sorted).
        sets.push(admit(candidates.iter(), self.config.budget));
        // (b) Greedy by weight per byte.
        let mut by_density: Vec<&Candidate> = candidates.iter().collect();
        by_density.sort_by(|a, b| {
            let da = a.weight as f64 / a.bytes.max(1) as f64;
            let db = b.weight as f64 / b.bytes.max(1) as f64;
            db.total_cmp(&da)
                .then(b.weight.cmp(&a.weight))
                .then(a.xpath.cmp(&b.xpath))
        });
        sets.push(admit(by_density.into_iter(), self.config.budget));
        // Dedup identical assemblies.
        sets.dedup_by(|a, b| a.iter().map(|c| &c.xpath).eq(b.iter().map(|c| &c.xpath)));

        let mut best: Option<(Vec<&Candidate>, SetScore)> = None;
        for set in sets {
            let xpaths: Vec<String> = set.iter().map(|c| c.xpath.clone()).collect();
            let score = self.score_set(doc, workload, &xpaths)?;
            let better = match &best {
                None => true,
                Some((_, s)) => score.rank_key() > s.rank_key(),
            };
            if better {
                best = Some((set, score));
            }
        }
        let (set, score) = best.expect("at least one (possibly empty) set was scored");

        let mut views: Vec<ProposedView> = set
            .iter()
            .map(|c| ProposedView {
                xpath: c.xpath.clone(),
                bytes: c.bytes,
                weight: c.weight,
            })
            .collect();
        views.sort_by(|a, b| {
            b.weight
                .cmp(&a.weight)
                .then(a.bytes.cmp(&b.bytes))
                .then(a.xpath.cmp(&b.xpath))
        });
        Ok(Proposal {
            views,
            score,
            clusters: clusters.len(),
            candidates: n_candidates,
            budget: self.config.budget,
            seed: self.config.seed,
        })
    }

    /// Score one concrete view set (given as XPath sources) against the
    /// workload: build a real engine over `doc`, replay every distinct
    /// query with `Strategy::HvIntersect` and metrics on, and weight the
    /// outcomes by frequency. The deterministic fields come from the
    /// sequential metered pass; `measured_qps` comes from a separate
    /// frequency-expanded `query_batch` replay at `config.jobs`.
    pub fn score_set(
        &self,
        doc: &Document,
        workload: &Workload,
        views: &[String],
    ) -> Result<SetScore, QueryError> {
        let mut cfg = self.config.engine.clone();
        cfg.fragment_budget = cfg.fragment_budget.min(self.config.budget);
        let mut engine = Engine::new(doc.clone(), cfg);
        for v in views {
            engine
                .add_view_str(v)
                .map_err(|e| QueryError::input(format!("view `{v}`: {e}")))?;
        }
        let bytes = engine.store().total_bytes();
        let snap = engine.snapshot();

        let options = QueryOptions::strategy(Strategy::HvIntersect).with_metrics();
        let mut answered_weight = 0u64;
        let mut intersect_weight = 0u64;
        let mut total_weight = 0u64;
        let mut replay: Vec<TreePattern> = Vec::new();
        for e in workload.entries() {
            total_weight += e.freq;
            let q = match snap.parse(&e.source) {
                Ok(q) => q,
                Err(_) => continue, // unparsable against this doc: unanswered
            };
            let outcome = snap.query(&q, &options);
            if outcome.answer.is_ok() {
                answered_weight += e.freq;
                let intersected = outcome
                    .report
                    .as_ref()
                    .and_then(|r| r.counters.as_ref())
                    .map(|c| c.get(Counter::IntersectAnswered) > 0)
                    .unwrap_or(false);
                if intersected {
                    intersect_weight += e.freq;
                }
            }
            // Frequency-expanded replay list for the throughput
            // measurement (capped so pathological frequencies cannot
            // make scoring quadratic).
            for _ in 0..e.freq.min(64) {
                replay.push(q.clone());
            }
        }
        let measured_qps = if replay.is_empty() {
            0.0
        } else {
            let batch = snap.query_batch(
                &replay,
                &QueryOptions::strategy(Strategy::HvIntersect),
                self.config.jobs.max(1),
            );
            batch.qps()
        };
        Ok(SetScore {
            answered_weight,
            intersect_weight,
            total_weight,
            bytes,
            views: views.len(),
            measured_qps,
        })
    }
}

/// Greedily admit candidates (in the given order) while the running
/// byte total stays within `budget`.
fn admit<'a>(ordered: impl Iterator<Item = &'a Candidate>, budget: usize) -> Vec<&'a Candidate> {
    let mut total = 0usize;
    let mut out = Vec::new();
    for c in ordered {
        if c.weight == 0 {
            continue; // contains no workload query; dead weight
        }
        match total.checked_add(c.bytes) {
            Some(t) if t <= budget => {
                total = t;
                out.push(c);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_xml::samples::book_document;

    #[test]
    fn workload_parser_skips_blanks_comments_and_crlf() {
        let text = "//s[t]/p\r\n\n# heavy hitter\n//s[t]/p\n  //s[p]/f\t\r\n\n#//s\n";
        let w = Workload::parse(text).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.entries()[0].source, "//s[t]/p");
        assert_eq!(w.entries()[0].freq, 2, "duplicates fold into frequency");
        assert_eq!(w.entries()[1].source, "//s[p]/f");
        assert_eq!(w.entries()[1].freq, 1);
        assert_eq!(w.total_weight(), 3);
    }

    #[test]
    fn workload_parse_empty_and_error_cases() {
        assert!(Workload::parse("").unwrap().is_empty());
        assert!(Workload::parse("\n# only comments\n\r\n")
            .unwrap()
            .is_empty());
        let err = Workload::parse("//s[\n").unwrap_err();
        assert!(err.to_string().contains("workload query `//s[`"), "{err}");
    }

    #[test]
    fn advise_rejects_empty_workload() {
        let advisor = Advisor::default();
        let err = advisor
            .advise(&book_document(), &Workload::default())
            .unwrap_err();
        assert!(err.to_string().contains("workload is empty"), "{err}");
    }

    #[test]
    fn advise_covers_a_simple_workload() {
        let doc = book_document();
        let w = Workload::parse("//s[t]/p\n//s[t]/p\n//s[p]/f\n").unwrap();
        let advisor = Advisor::default();
        let p = advisor.advise(&doc, &w).unwrap();
        assert_eq!(p.score.total_weight, 3);
        assert_eq!(
            p.score.answered_weight, 3,
            "self-views must cover the whole workload: {p}"
        );
        assert!(!p.views.is_empty());
        assert!(p.score.bytes > 0);
        // Heaviest view first.
        assert!(p.views.windows(2).all(|w| w[0].weight >= w[1].weight));
    }

    #[test]
    fn budget_zero_proposes_nothing() {
        let doc = book_document();
        let w = Workload::parse("//s[t]/p\n").unwrap();
        let advisor = Advisor::new(AdvisorConfig {
            budget: 0,
            ..AdvisorConfig::default()
        });
        let p = advisor.advise(&doc, &w).unwrap();
        assert!(p.views.is_empty());
        assert_eq!(p.score.answered_weight, 0);
        assert_eq!(p.score.bytes, 0);
    }

    #[test]
    fn proposal_fingerprint_is_stable_across_jobs() {
        let doc = book_document();
        let w = Workload::parse("//s[t]/p\n//s[p]/f\n//s//p\n//s[t]/p\n").unwrap();
        let base = AdvisorConfig::default();
        let a = Advisor::new(AdvisorConfig {
            jobs: 1,
            ..base.clone()
        })
        .advise(&doc, &w)
        .unwrap();
        let b = Advisor::new(AdvisorConfig { jobs: 33, ..base })
            .advise(&doc, &w)
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
