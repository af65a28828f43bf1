//! Replays every reproducer under `tests/corpus/` against the clean
//! pipeline. Each `.case` file is a shrunk counterexample the oracle
//! harness (`cargo run -p xvr-bench --bin oracle`) once caught — either
//! from an injected bug or a real one. Replaying them in CI turns the
//! corpus into a permanent regression suite: a case that fails here
//! means a previously-fixed (or previously-demonstrated) bug is back.

use std::path::Path;

use xvr_bench::oracle::{load_corpus, replay, OracleConfig};

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"))
}

#[test]
fn corpus_cases_replay_clean() {
    let cases = load_corpus(corpus_dir()).expect("corpus directory should be readable");
    assert!(
        !cases.is_empty(),
        "tests/corpus should ship at least one reproducer"
    );
    let cfg = OracleConfig::default();
    let mut failures = Vec::new();
    for (path, repro) in &cases {
        match replay(repro, &cfg) {
            Ok(violations) if violations.is_empty() => {}
            Ok(violations) => {
                for v in violations {
                    failures.push(format!("{}: {v}", path.display()));
                }
            }
            Err(e) => failures.push(format!("{}: replay error: {e}", path.display())),
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus case(s) regressed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn corpus_files_round_trip_through_text_format() {
    for (path, repro) in load_corpus(corpus_dir()).expect("corpus directory should be readable") {
        let text = repro.to_text();
        let back = xvr_bench::oracle::Reproducer::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", path.display()));
        assert_eq!(
            back.to_text(),
            text,
            "{}: text format should round-trip",
            path.display()
        );
    }
}
