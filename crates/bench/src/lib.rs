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

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_core::{Engine, EngineConfig};
    use xvr_xml::samples::book_document;

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
