//! Shared benchmark/experiment harness for regenerating the paper's
//! evaluation (Section VI): workloads, the four test queries of Table III,
//! and engine builders used by the Criterion benches, the `experiments`
//! binary, and the integration tests. [`oracle`] is the differential +
//! metamorphic oracle behind the `oracle` binary and the corpus replay
//! test.

pub mod oracle;
pub mod workload;

pub use workload::{
    build_paper_engine, paper_document, planted_views, test_queries, view_sets, xmark_queries,
    PaperWorkload, TestQuery,
};

use xvr_core::{AnswerError, EngineSnapshot, QueryOptions, Strategy};
use xvr_pattern::TreePattern;

/// The strategy a bench times for `q`: `preferred` when it answers, `Bn`
/// (direct evaluation) when no view set covers the query. Any other error
/// — a rewrite failure after a committed selection — is returned, so a
/// broken rewrite fails the run instead of being timed as a `Bn` answer.
pub fn answering_strategy(
    snap: &EngineSnapshot,
    q: &TreePattern,
    preferred: Strategy,
) -> Result<Strategy, AnswerError> {
    match snap.query(q, &QueryOptions::strategy(preferred)).answer {
        Ok(_) => Ok(preferred),
        Err(AnswerError::NotAnswerable) => Ok(Strategy::Bn),
        Err(e) => Err(e),
    }
}

/// The `"host"` JSON object a `BENCH_*.json` baseline records:
/// `{"cpus": N, "commit": "…", "profile": "release"}`. `cpus` counts the
/// machine's CPUs (`cpuN` lines of `/proc/stat`, else the CPUs this
/// process may use); the commit comes from `XVR_COMMIT` (e.g.
/// `XVR_COMMIT=$(git describe --always --dirty)`), keeping only
/// alphanumerics and `-`, and reads `unknown` without it.
pub fn host_json() -> String {
    let online = std::fs::read_to_string("/proc/stat").map_or(0, |stat| {
        stat.lines()
            .filter(|l| l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit()))
            .count()
    });
    let allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut commit: String = std::env::var("XVR_COMMIT")
        .unwrap_or_default()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    if commit.is_empty() {
        commit = "unknown".into();
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cpus\": {}, \"commit\": \"{commit}\", \"profile\": \"{profile}\"}}",
        online.max(allowed)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_core::{Engine, EngineConfig};
    use xvr_xml::samples::book_document;

    #[test]
    fn host_json_names_cpus_commit_and_profile() {
        let host = host_json();
        assert!(host.starts_with("{\"cpus\": "), "{host}");
        assert!(host.contains("\"commit\": \""), "{host}");
        assert!(
            host.ends_with("\"profile\": \"debug\"}")
                || host.ends_with("\"profile\": \"release\"}"),
            "{host}"
        );
    }

    #[test]
    fn answering_strategy_keeps_preferred_on_answer() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s[t]/p").unwrap();
        let snap = engine.snapshot();
        let q = snap.parse("//s[t]/p").unwrap();
        assert_eq!(
            answering_strategy(&snap, &q, Strategy::Hv),
            Ok(Strategy::Hv)
        );
    }

    #[test]
    fn answering_strategy_falls_back_to_bn_when_not_answerable() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s/t").unwrap();
        let snap = engine.snapshot();
        let q = snap.parse("//s[f//i][t]/p").unwrap();
        assert_eq!(
            answering_strategy(&snap, &q, Strategy::HvIntersect),
            Ok(Strategy::Bn)
        );
    }
}
