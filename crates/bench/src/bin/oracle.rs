//! Differential + metamorphic oracle harness.
//!
//! Sweeps randomized (document, view-set, query) cases for each master
//! seed, cross-checking all seven answering strategies against the `Bn`
//! ground truth plus the metamorphic invariants of `xvr_bench::oracle`.
//! On a violation the failing case is shrunk and written to the corpus
//! directory as a self-contained reproducer, which `tests/oracle_corpus.rs`
//! replays in CI from then on.
//!
//! ```text
//! cargo run --release -p xvr-bench --bin oracle -- \
//!     --seeds 0,1,2 --docs 15 --views 30 --queries 45 \
//!     --corpus-dir tests/corpus
//! ```
//!
//! `--replay` re-checks the existing corpus before sweeping. `--inject`
//! plants a deliberate bug (`drop-last-code`, `claim-filtered-view`,
//! `drop-last-intersect`) to demonstrate that the oracle catches and
//! shrinks it.
//!
//! The closing summary also counts, per view strategy, the queries it
//! answered that `Hv` did not: what each strategy adds over the heuristic.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use xvr_bench::oracle::{load_corpus, replay, run_seed, Injection, OracleConfig};
use xvr_core::Strategy;

struct Args {
    seeds: Vec<u64>,
    docs: usize,
    views: usize,
    queries: usize,
    jobs: usize,
    corpus_dir: PathBuf,
    replay_corpus: bool,
    write_corpus: bool,
    injection: Injection,
}

fn usage() -> ! {
    eprintln!(
        "usage: oracle [--seeds 0,1,2] [--docs N] [--views N] [--queries N] [--jobs N]\n\
         \x20             [--corpus-dir DIR] [--replay] [--no-write]\n\
         \x20             [--inject none|drop-last-code|claim-filtered-view|drop-last-intersect]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: vec![0, 1, 2],
        docs: 15,
        views: 30,
        queries: 45,
        jobs: 4,
        corpus_dir: PathBuf::from("tests/corpus"),
        replay_corpus: false,
        write_corpus: true,
        injection: Injection::None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seeds" => {
                let v = value(&argv, &mut i);
                args.seeds = v
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--docs" => args.docs = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--views" => args.views = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => args.queries = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => args.jobs = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--corpus-dir" => args.corpus_dir = PathBuf::from(value(&argv, &mut i)),
            "--replay" => args.replay_corpus = true,
            "--no-write" => args.write_corpus = false,
            "--inject" => {
                args.injection = match value(&argv, &mut i).as_str() {
                    "none" => Injection::None,
                    "drop-last-code" => Injection::DropLastCode,
                    "claim-filtered-view" => Injection::ClaimFilteredView,
                    "drop-last-intersect" => Injection::DropLastIntersect,
                    _ => usage(),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let cfg = OracleConfig {
        injection: args.injection,
        jobs: args.jobs,
        ..OracleConfig::default()
    };
    let mut failed = false;

    if args.replay_corpus {
        let cases = match load_corpus(&args.corpus_dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("corpus load failed: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "replaying {} corpus case(s) from {}",
            cases.len(),
            args.corpus_dir.display()
        );
        for (path, repro) in cases {
            match replay(&repro, &OracleConfig::default()) {
                Ok(violations) if violations.is_empty() => {
                    println!("  ok    {}", path.display());
                }
                Ok(violations) => {
                    failed = true;
                    println!("  FAIL  {}", path.display());
                    for v in violations {
                        println!("        {v}");
                    }
                }
                Err(e) => {
                    failed = true;
                    println!("  ERROR {}: {e}", path.display());
                }
            }
        }
    }

    println!(
        "sweep: {} seed(s) x {} doc(s) x {} quer{} ({} views each, jobs {}{})",
        args.seeds.len(),
        args.docs,
        args.queries,
        if args.queries == 1 { "y" } else { "ies" },
        args.views,
        args.jobs,
        match args.injection {
            Injection::None => String::new(),
            other => format!(", INJECTED BUG {other:?}"),
        }
    );
    let mut total_cases = 0usize;
    let mut total_answered = 0usize;
    let mut total_violations = 0usize;
    let mut total_candidates = 0usize;
    let mut total_false_positives = 0usize;
    let mut total_hv = 0usize;
    let mut total_hvi = 0usize;
    let mut beyond_hv = [0usize; 7];
    for &seed in &args.seeds {
        let t0 = Instant::now();
        let summary = run_seed(seed, args.docs, args.views, args.queries, &cfg);
        total_cases += summary.queries;
        total_answered += summary.answered;
        total_violations += summary.violations.len();
        total_candidates += summary.filter_candidates;
        total_false_positives += summary.filter_false_positives;
        total_hv += summary.hv_answered;
        total_hvi += summary.hvi_answered;
        for (total, n) in beyond_hv.iter_mut().zip(summary.beyond_hv) {
            *total += n;
        }
        println!(
            "seed {seed:>4}: {} cases, {} view answers, coverage hv {} / hvi {}, {} violation(s), vfilter fp {}/{} ({}), {:.1}s",
            summary.queries,
            summary.answered,
            summary.hv_answered,
            summary.hvi_answered,
            summary.violations.len(),
            summary.filter_false_positives,
            summary.filter_candidates,
            summary
                .filter_fp_rate()
                .map(|r| format!("{:.2}%", r * 100.0))
                .unwrap_or_else(|| "n/a".into()),
            t0.elapsed().as_secs_f64()
        );
        for v in &summary.violations {
            failed = true;
            println!("  VIOLATION {v}");
            if args.write_corpus {
                match v.repro.write_to(&args.corpus_dir) {
                    Ok(path) => println!("  reproducer written to {}", path.display()),
                    Err(e) => eprintln!("  could not write reproducer: {e}"),
                }
            }
        }
    }
    let fp_rate = if total_candidates > 0 {
        format!(
            "{:.2}%",
            total_false_positives as f64 / total_candidates as f64 * 100.0
        )
    } else {
        "n/a".into()
    };
    println!(
        "total: {total_cases} cases, {total_answered} view answers, coverage hv {total_hv} / hvi {total_hvi}, \
         {total_violations} violation(s), \
         measured vfilter false-positive rate {fp_rate} ({total_false_positives}/{total_candidates} admitted views)"
    );
    // The view strategies other than Hv itself.
    let beyond: Vec<String> = Strategy::all_extended()
        .iter()
        .zip(beyond_hv)
        .filter(|(s, _)| !matches!(s, Strategy::Bn | Strategy::Bf | Strategy::Hv))
        .map(|(s, n)| format!("{} {n}", s.as_str().to_lowercase()))
        .collect();
    println!("answered where hv did not: {}", beyond.join(", "));
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
