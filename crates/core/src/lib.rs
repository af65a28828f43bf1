//! Answering XPath queries using multiple materialized views — a Rust
//! reproduction of *"Multiple Materialized View Selection for XPath Query
//! Rewriting"* (Tang, Yu, Özsu, Choi, Wong; ICDE 2008).
//!
//! The pipeline, mirroring the paper's Figure 1:
//!
//! 1. **View filtering** ([`nfa`], [`filter`]): an NFA (VFILTER) over the
//!    normalized root-to-leaf path patterns of all views discards views that
//!    cannot contain the query. No false negatives; few false positives.
//! 2. **Multiple-view selection** ([`leafcover`], [`select`]): the
//!    *leaf-cover* criterion decides whether a set of views can answer the
//!    query; an exhaustive search finds the *minimum* set, the paper's
//!    greedy heuristic (Algorithm 2) a *minimal* one.
//! 3. **Rewriting** ([`materialize`], [`rewrite`](mod@rewrite)): per-view
//!    fragment refinement (compensating predicates pushed down), a holistic
//!    join of fragment roots purely over extended Dewey codes + the FST, and
//!    final answer extraction from the anchor view's fragments. The base
//!    document is never touched.
//!
//! [`engine`] wires everything into a store-and-query façade with per-stage
//! timing, including the paper's evaluation baselines (`BN`, `BF`, `MN`,
//! `MV`, `HV`) and the cost-based extension (`CB`). The API is split into
//! a **writer** — [`Engine`], which owns all mutation — and a **reader** —
//! [`EngineSnapshot`] ([`snapshot`]), an immutable `Send + Sync` freeze of
//! the engine that carries the whole query pipeline and fans batches out
//! over worker threads with [`EngineSnapshot::query_batch`]. Every query
//! goes through one entry point, [`EngineSnapshot::query`], whose
//! [`QueryOptions`] select the strategy, cache use, and the observability
//! payload ([`metrics`]) returned as a [`QueryReport`].
//!
//! ```
//! use xvr_core::{Engine, EngineConfig, QueryOptions, Strategy};
//!
//! let doc = xvr_xml::parse_document(
//!     "<site><a><t>x</t><p/></a><a><t>y</t></a><a><p/></a></site>",
//! )?;
//! let mut engine = Engine::new(doc, EngineConfig::default());
//!
//! // Materialize two views (writes go through the engine).
//! engine.add_view_str("//a[t]/t")?;
//! engine.add_view_str("//a[p]/t")?;
//!
//! // Freeze a snapshot: an immutable, thread-shareable read path.
//! let snapshot = engine.snapshot();
//!
//! // Answer a query from the views alone — never touching the document.
//! let q = snapshot.parse("//a[p]/t")?;
//! let answer = snapshot
//!     .query(&q, &QueryOptions::strategy(Strategy::Hv))
//!     .answer
//!     .unwrap();
//! assert_eq!(answer.codes.len(), 1);
//! assert_eq!(answer.codes[0].to_string(), "0.0.0");
//!
//! // Every strategy returns the same answer.
//! let direct = snapshot
//!     .query(&q, &QueryOptions::strategy(Strategy::Bn))
//!     .answer
//!     .unwrap();
//! assert_eq!(answer.codes, direct.codes);
//!
//! // Ask for the observability payload: stage timings + counters + trace.
//! let outcome = snapshot.query(
//!     &q,
//!     &QueryOptions::strategy(Strategy::Hv).with_trace().with_metrics(),
//! );
//! let report = outcome.report.expect("requested");
//! assert!(report.counters.is_some() && report.trace.is_some());
//!
//! // Batches fan out over scoped worker threads, results in input order.
//! let queries = vec![q.clone(), q];
//! let batch = snapshot.query_batch(&queries, &QueryOptions::strategy(Strategy::Hv), 2);
//! assert_eq!(batch.answered(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod advise;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod explain;
pub mod filter;
pub mod leafcover;
pub mod materialize;
pub mod metrics;
pub mod nfa;
pub mod rewrite;
pub mod select;
pub mod serve;
pub mod snapshot;
pub mod view;
pub mod wire;

pub use advise::{
    Advisor, AdvisorConfig, Proposal, ProposedView, SetScore, Workload, WorkloadEntry,
};
pub use catalog::{clean_lines, parse_budget, parse_views_text, ViewCatalog, ViewSetSpec};
pub use engine::{
    Answer, AnswerError, Engine, EngineConfig, StageTimings, Strategy, UpdateError, UpdateStats,
};
pub use error::QueryError;
pub use explain::{Explanation, UnitExplanation};
pub use filter::{
    build_nfa, build_nfa_raw, filter_views, filter_views_metered, filter_views_opts, FilterOptions,
    FilterOutcome,
};
pub use leafcover::{intersect_cover, leaf_cover, leaf_covers, LeafCover, Obligation, Obligations};
pub use materialize::{MaterializedStore, MaterializedView};
pub use metrics::{Counter, Hist, MetricsReport, QueryReport, SnapshotMetrics, StageCounters};
pub use nfa::Nfa;
pub use rewrite::{
    rewrite, rewrite_cached, rewrite_intersect_metered, rewrite_metered, rewrite_scan,
    rewrite_scan_metered, RewriteCache, RewriteError,
};
pub use select::{
    select_cost_based, select_cost_based_metered, select_heuristic, select_heuristic_metered,
    select_intersection, select_intersection_metered, select_minimum, select_minimum_metered,
    SelectedView, Selection,
};
pub use serve::{run_load, Client, LoadConfig, LoadReport, Server, ServerConfig, SnapshotCell};
pub use snapshot::{AnswerTrace, BatchResult, EngineSnapshot, QueryOptions, QueryOutcome};
pub use view::{View, ViewId, ViewSet};
pub use wire::{
    read_frame, write_frame, AdviceView, BatchItem, Request, Response, Status, WireError,
    WireOptions, MAX_FRAME_LEN,
};
