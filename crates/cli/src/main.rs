//! `xvr` — command-line front end for the view-rewriting engine.
//!
//! ```text
//! xvr info        --doc FILE
//! xvr eval        --doc FILE [--engine naive|bn|bf] QUERY
//! xvr answer      --doc FILE [(--view XPATH)...] [--views-file FILE]
//!                 [--views-dir DIR] [--strategy bn|bf|mn|mv|hv|cb|hvi]
//!                 [--budget BYTES] [--show] [--explain]
//!                 (QUERY | --queries-file FILE [--jobs N])
//! xvr filter      --doc FILE [--views-file FILE] (--view XPATH)... QUERY
//! xvr materialize --doc FILE (--view XPATH)... [--views-file FILE]
//!                 [--budget BYTES] --out DIR
//! xvr generate    [--scale F] [--seed N] [--out FILE]
//! xvr advise      --doc FILE --workload FILE [--budget BYTES]
//!                 [--seed N] [--jobs N]
//! xvr serve       --doc FILE [(--view XPATH)...] [--views-file FILE]
//!                 [--views-dir DIR] [--budget BYTES]
//!                 [--addr HOST:PORT] [--jobs N]
//! xvr loadgen     --addr HOST:PORT --queries-file FILE
//!                 [--connections N] [--qps F] [--requests N]
//!                 [--strategy bn|bf|mn|mv|hv|cb|hvi] [--no-cache] [--out FILE]
//! ```
//!
//! `--views-file` and `--queries-file` are text files with one XPath per
//! line (blank lines and `#` comments ignored). `answer --queries-file`
//! freezes an [`EngineSnapshot`] and fans the batch out over `--jobs`
//! worker threads. The base strategies `bn`/`bf` answer straight from the
//! document and need no views. `serve` keeps a snapshot hot behind a TCP
//! listener and swaps it atomically on admin requests; `loadgen` drives
//! it open-loop and reports latency percentiles. Exit codes: 0 success,
//! 1 query not answerable, 2 usage error, 3 input error — the shared
//! [`xvr_core::QueryError`] mapping, identical to the serve protocol's
//! status codes.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use xvr_core::{
    parse_budget, Advisor, AdvisorConfig, Engine, EngineConfig, EngineSnapshot, QueryError,
    QueryOptions, Strategy, ViewCatalog, ViewSetSpec, Workload,
};
use xvr_xml::serializer::serialize_subtree;
use xvr_xml::{parse_document, DocStats, Document};

mod args;

use args::{ArgError, Parsed};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&argv).and_then(|code| {
        // Surface a broken pipe hiding in the stdout buffer before
        // claiming success.
        match std::io::stdout().flush() {
            Ok(()) => Ok(code),
            Err(e) => Err(CliError::from_io(e)),
        }
    });
    match result {
        Ok(code) => code,
        // Downstream closed its end (e.g. `xvr eval ... | head -1`).
        // That's how pipelines normally end — exit 0, print nothing.
        Err(CliError::Pipe) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", USAGE);
            ExitCode::from(2)
        }
        Err(CliError::Input(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
        // The consolidated pipeline error: its own status() decides the
        // exit code, the same mapping the serve protocol uses.
        Err(CliError::Query(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  xvr info        --doc FILE
  xvr eval        --doc FILE [--engine naive|bn|bf] QUERY
  xvr answer      --doc FILE [(--view XPATH)...] [--views-file FILE]
                  [--views-dir DIR] [--strategy bn|bf|mn|mv|hv|cb|hvi]
                  [--budget BYTES] [--show] [--explain] [--report]
                  (QUERY | --queries-file FILE [--jobs N])
  xvr stats       --doc FILE [(--view XPATH)...] [--views-file FILE]
                  [--views-dir DIR] [--strategy bn|bf|mn|mv|hv|cb|hvi]
                  [--budget BYTES] --queries-file FILE [--jobs N]
  xvr filter      --doc FILE [--views-file FILE] (--view XPATH)... QUERY
  xvr materialize --doc FILE (--view XPATH)... [--views-file FILE]
                  [--budget BYTES] --out DIR
  xvr append      --doc FILE --at CODE --xml XML [--out FILE]
  xvr generate    [--scale F] [--seed N] [--out FILE]
  xvr advise      --doc FILE --workload FILE [--budget BYTES]
                  [--seed N] [--jobs N]
  xvr serve       --doc FILE [(--view XPATH)...] [--views-file FILE]
                  [--views-dir DIR] [--budget BYTES]
                  [--addr HOST:PORT] [--jobs N]
  xvr loadgen     --addr HOST:PORT --queries-file FILE
                  [--connections N] [--qps F] [--requests N]
                  [--strategy bn|bf|mn|mv|hv|cb|hvi] [--no-cache] [--out FILE]";

enum CliError {
    Usage(String),
    Input(String),
    /// Any pipeline failure, classified by [`QueryError::status`]; the
    /// exit code comes from the same shared mapping the serve protocol
    /// uses for its status codes.
    Query(QueryError),
    /// Stdout's reader went away (`EPIPE`). Not an error: pipelines like
    /// `xvr eval ... | head -1` close our pipe as soon as they have what
    /// they need, so this maps to a quiet, successful exit.
    Pipe,
}

impl CliError {
    fn from_io(e: std::io::Error) -> CliError {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError::Pipe
        } else {
            CliError::Input(format!("stdout: {e}"))
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Usage(e.0)
    }
}

impl From<QueryError> for CliError {
    fn from(e: QueryError) -> CliError {
        CliError::Query(e)
    }
}

/// Write to stdout, mapping io errors (notably `EPIPE`) into [`CliError`]
/// instead of the panic `outln!` raises.
fn out_fmt(args: std::fmt::Arguments<'_>, newline: bool) -> Result<(), CliError> {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let res = if newline {
        lock.write_fmt(format_args!("{args}\n"))
    } else {
        lock.write_fmt(args)
    };
    res.map_err(CliError::from_io)
}

/// `outln!` onto stdout that propagates a closed pipe as
/// [`CliError::Pipe`] (use inside functions returning `Result<_, CliError>`).
macro_rules! outln {
    ($($arg:tt)*) => { out_fmt(format_args!($($arg)*), true)? };
}

/// `out!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => { out_fmt(format_args!($($arg)*), false)? };
}

mod loadgen;
mod serve;

fn run(argv: &[String]) -> Result<ExitCode, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match command.as_str() {
        "info" => info(rest),
        "eval" => eval(rest),
        "answer" => answer(rest),
        "stats" => stats(rest),
        "filter" => filter(rest),
        "generate" => generate(rest),
        "materialize" => materialize(rest),
        "append" => append(rest),
        "advise" => advise(rest),
        "serve" => serve::serve(rest),
        "loadgen" => loadgen::loadgen(rest),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Read a workload file: one XPath per line, blank lines and `#`
/// comments ignored (the shared [`xvr_core::clean_lines`] format).
/// Shared by `answer --queries-file`, `stats`, `advise`, and `loadgen`.
fn read_workload(path: &str) -> Result<Vec<String>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    Ok(xvr_core::parse_views_text(&text))
}

fn load_doc(path: &str) -> Result<Document, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    parse_document(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))
}

/// The shared `--view`/`--views-file`/`--views-dir`/`--budget` flags as
/// a declarative [`ViewSetSpec`] — the one place the CLI's view-set
/// vocabulary is interpreted, whichever subcommand accepts it.
fn view_spec(parsed: &Parsed) -> Result<ViewSetSpec, CliError> {
    let mut spec = ViewSetSpec::new();
    spec.inline = parsed.multi("view").to_vec();
    if let Some(file) = parsed.opt("views-file") {
        spec = spec.with_views_file(file);
    }
    if let Some(dir) = parsed.opt("views-dir") {
        spec = spec.with_views_dir(dir);
    }
    if let Some(b) = parsed.opt("budget") {
        spec = spec.with_budget(parse_budget(b)?);
    }
    Ok(spec)
}

/// Views from repeated `--view` flags plus an optional `--views-file`,
/// resolved through the catalog (one line format, one error surface).
fn collect_views(parsed: &Parsed) -> Result<Vec<String>, CliError> {
    Ok(view_spec(parsed)?.resolve()?.sources().to_vec())
}

fn info(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(argv, &["doc"], &[], &[], &[])?;
    let doc = load_doc(parsed.req("doc")?)?;
    let stats = DocStats::compute(&doc.tree, &doc.labels);
    outln!("nodes:            {}", stats.nodes);
    outln!("height:           {}", stats.height);
    outln!("avg depth:        {:.2}", stats.avg_depth);
    outln!("leaves:           {}", stats.leaves);
    outln!("max fanout:       {}", stats.max_fanout);
    outln!("avg fanout:       {:.2}", stats.avg_fanout);
    outln!("text nodes:       {}", stats.text_nodes);
    outln!("attributed nodes: {}", stats.attributed_nodes);
    outln!("distinct labels:  {}", stats.label_histogram.len());
    outln!("top labels:");
    for &(label, count) in stats.label_histogram.iter().take(10) {
        outln!("  {:<20} {}", doc.labels.name(label), count);
    }
    Ok(ExitCode::SUCCESS)
}

fn eval(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(argv, &["doc"], &["engine"], &[], &[])?;
    let doc = load_doc(parsed.req("doc")?)?;
    let query_src = parsed.positional()?;
    let mut labels = doc.labels.clone();
    let q = xvr_pattern::parse_pattern_with(query_src, &mut labels)
        .map_err(|e| CliError::Input(format!("query: {e}")))?;
    let nodes = match parsed.opt("engine").unwrap_or("naive") {
        "naive" => xvr_pattern::eval(&q, &doc.tree),
        "bn" => {
            let idx = xvr_xml::NodeIndex::build(&doc.tree, &doc.labels);
            xvr_pattern::eval_bn(&q, &doc.tree, &idx)
        }
        "bf" => {
            let idx = xvr_xml::PathIndex::build(&doc.tree, &doc.labels);
            xvr_pattern::eval_bf(&q, &doc, &idx)
        }
        other => return Err(CliError::Usage(format!("unknown engine `{other}`"))),
    };
    for n in &nodes {
        outln!(
            "{}\t{}",
            doc.dewey.code_of(&doc.tree, *n),
            serialize_subtree(&doc.tree, &doc.labels, *n)
        );
    }
    eprintln!("{} result(s)", nodes.len());
    Ok(ExitCode::SUCCESS)
}

/// The strategy vocabulary, for the near-miss suggestions below.
const STRATEGY_NAMES: [&str; 7] = ["bn", "bf", "mn", "mv", "hv", "cb", "hvi"];

/// Levenshtein distance, for suggesting a strategy on a typo. Inputs are
/// tiny (strategy names), so the quadratic DP is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row.push(subst.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Parse a strategy name: whitespace- and case-insensitive, with a
/// "did you mean" suggestion when the name is one edit away from a
/// valid one (`"MV"`, `"mv "`, `"nv"` all resolve or explain themselves).
fn strategy_of(name: &str) -> Result<Strategy, CliError> {
    let canon = name.trim().to_ascii_lowercase();
    if let Some(s) = Strategy::parse(&canon) {
        return Ok(s);
    }
    let mut msg = format!(
        "unknown strategy `{name}` (expected one of {})",
        STRATEGY_NAMES.join(", ")
    );
    let near = STRATEGY_NAMES
        .iter()
        .map(|c| (edit_distance(&canon, c), *c))
        .min()
        .filter(|&(d, _)| d <= 1);
    if let Some((_, suggestion)) = near {
        let _ = write!(msg, " — did you mean `{suggestion}`?");
    }
    Err(CliError::Usage(msg))
}

/// Build an engine from the shared `--doc`/`--view`/`--views-file`/
/// `--views-dir`/`--budget` flags through a [`ViewCatalog`] (used by
/// `answer`, `stats`, and `serve`). The returned catalog carries the
/// replayable view sources (`serve` hands them to `swap-doc`).
fn engine_with_views(parsed: &Parsed) -> Result<(Engine, ViewCatalog), CliError> {
    let doc = load_doc(parsed.req("doc")?)?;
    let catalog = view_spec(parsed)?.resolve()?;
    let (engine, dir_loads) = catalog.build_engine(doc, EngineConfig::default())?;
    for (dir, loaded) in &dir_loads {
        eprintln!("loaded {} view(s) from {}", loaded.len(), dir.display());
    }
    Ok((engine, catalog))
}

fn answer(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(
        argv,
        &["doc"],
        &[
            "strategy",
            "budget",
            "views-file",
            "views-dir",
            "queries-file",
            "jobs",
        ],
        &["view"],
        &["show", "explain", "report"],
    )?;
    let strategy = strategy_of(parsed.opt("strategy").unwrap_or("hv"))?;
    let (engine, _) = engine_with_views(&parsed)?;
    let base = matches!(strategy, Strategy::Bn | Strategy::Bf);
    if engine.views().is_empty() && !base {
        return Err(CliError::Usage(
            "answer needs --view, --views-file or --views-dir \
             (only bn/bf answer from the document alone)"
                .into(),
        ));
    }
    let snap = engine.snapshot();
    match parsed.opt("queries-file") {
        Some(file) => answer_batch(&parsed, &snap, strategy, file),
        None => answer_single(&parsed, &snap, strategy),
    }
}

fn answer_single(
    parsed: &Parsed,
    snap: &EngineSnapshot,
    strategy: Strategy,
) -> Result<ExitCode, CliError> {
    let query_src = parsed.positional()?;
    let q = snap
        .parse(query_src)
        .map_err(|e| CliError::Query(e.into()))?;
    if parsed.flag("explain") && !matches!(strategy, Strategy::Bn | Strategy::Bf) {
        match snap.explain(&q, strategy) {
            Ok(ex) => eprintln!("{ex}"),
            Err(xvr_core::AnswerError::NotAnswerable) => {}
            Err(e) => return Err(CliError::Query(e.into())),
        }
    }
    let mut options = QueryOptions::strategy(strategy);
    if parsed.flag("report") {
        options = options.with_trace().with_metrics();
    }
    let outcome = snap.query(&q, &options);
    if let Some(report) = &outcome.report {
        eprintln!("{report}");
    }
    match outcome.answer {
        Ok(a) => {
            let doc = snap.doc();
            for code in &a.codes {
                if parsed.flag("show") {
                    let shown = doc
                        .node_by_code(code)
                        .map(|n| serialize_subtree(&doc.tree, &doc.labels, n))
                        .unwrap_or_default();
                    outln!("{code}\t{shown}");
                } else {
                    outln!("{code}");
                }
            }
            let mut summary = String::new();
            let _ = write!(
                summary,
                "{} result(s) via {} using {} view(s)",
                a.codes.len(),
                a.strategy,
                a.views_used.len()
            );
            if !a.views_used.is_empty() {
                let names: Vec<String> = a
                    .views_used
                    .iter()
                    .map(|&v| {
                        snap.views()
                            .view(v)
                            .pattern
                            .display(snap.labels())
                            .to_string()
                    })
                    .collect();
                let _ = write!(summary, ": {}", names.join(", "));
            }
            let _ = write!(
                summary,
                " ({}µs filter + {}µs select + {}µs rewrite)",
                a.timings.filter_us, a.timings.selection_us, a.timings.rewrite_us
            );
            eprintln!("{summary}");
            Ok(ExitCode::SUCCESS)
        }
        // NotAnswerable exits 1, rewrite failures 3 — the shared
        // QueryError mapping decides, not this command.
        Err(e) => Err(CliError::Query(e.into())),
    }
}

/// `--queries-file` mode: answer every query in the file over one shared
/// snapshot, fanned out over `--jobs` worker threads. One stdout line per
/// query: `QUERY<TAB>COUNT<TAB>codes…` (or `unanswerable`).
fn answer_batch(
    parsed: &Parsed,
    snap: &EngineSnapshot,
    strategy: Strategy,
    file: &str,
) -> Result<ExitCode, CliError> {
    if parsed.positional().is_ok() {
        return Err(CliError::Usage(
            "--queries-file replaces the positional query; give one or the other".into(),
        ));
    }
    let jobs: usize = match parsed.opt("jobs") {
        Some(j) => j
            .parse()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| CliError::Usage("--jobs must be a positive integer".into()))?,
        None => 1,
    };
    let sources = read_workload(file)?;
    let queries: Vec<_> = sources
        .iter()
        .map(|src| {
            snap.parse(src)
                .map_err(|e| CliError::Input(format!("query `{src}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let mut options = QueryOptions::strategy(strategy);
    // HvIntersect always meters, so the coverage line below can say how
    // many answers came through the intersection fallback.
    if parsed.flag("report") || strategy == Strategy::HvIntersect {
        options = options.with_metrics();
    }
    let batch = snap.query_batch(&queries, &options, jobs);
    let mut unanswerable = 0usize;
    for (src, outcome) in sources.iter().zip(&batch.answers) {
        match outcome {
            Ok(a) => {
                let codes: Vec<String> = a.codes.iter().map(|c| c.to_string()).collect();
                outln!("{src}\t{}\t{}", a.codes.len(), codes.join(" "));
            }
            Err(xvr_core::AnswerError::NotAnswerable) => {
                unanswerable += 1;
                outln!("{src}\tunanswerable\t");
            }
            Err(e) => return Err(CliError::Query(e.clone().into())),
        }
    }
    eprintln!(
        "{}/{} answered via {} with {} job(s) in {}µs ({:.0} q/s; work: {}µs filter + {}µs select + {}µs rewrite)",
        batch.answered(),
        batch.answers.len(),
        strategy,
        batch.jobs,
        batch.wall_us,
        batch.qps(),
        batch.total.filter_us,
        batch.total.selection_us,
        batch.total.rewrite_us,
    );
    if strategy == Strategy::HvIntersect {
        eprintln!(
            "coverage: {}/{} answered, {} via the intersection fallback",
            batch.answered(),
            batch.answers.len(),
            batch.counters.get(xvr_core::Counter::IntersectAnswered),
        );
    }
    if parsed.flag("report") {
        eprintln!("batch counters (merged across {} job(s)):", batch.jobs);
        eprintln!("{}", batch.counters);
    }
    Ok(if unanswerable == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `xvr stats`: run a query workload with metrics collection on, then
/// print the snapshot's cumulative [`xvr_core::MetricsReport`] — query
/// counts, mean stage timings, and the full counter inventory.
fn stats(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(
        argv,
        &["doc", "queries-file"],
        &["strategy", "budget", "views-file", "views-dir", "jobs"],
        &["view"],
        &[],
    )?;
    let strategy = strategy_of(parsed.opt("strategy").unwrap_or("hv"))?;
    let (engine, _) = engine_with_views(&parsed)?;
    let base = matches!(strategy, Strategy::Bn | Strategy::Bf);
    if engine.views().is_empty() && !base {
        return Err(CliError::Usage(
            "stats needs --view, --views-file or --views-dir \
             (only bn/bf answer from the document alone)"
                .into(),
        ));
    }
    let jobs: usize = match parsed.opt("jobs") {
        Some(j) => j
            .parse()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| CliError::Usage("--jobs must be a positive integer".into()))?,
        None => 1,
    };
    let snap = engine.snapshot();
    let queries: Vec<_> = read_workload(parsed.req("queries-file")?)?
        .iter()
        .map(|src| {
            snap.parse(src)
                .map_err(|e| CliError::Input(format!("query `{src}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let options = QueryOptions::strategy(strategy).with_metrics();
    let batch = snap.query_batch(&queries, &options, jobs);
    outln!(
        "workload: {} quer{} via {strategy}, {} answered, {} job(s), {}µs wall",
        batch.answers.len(),
        if batch.answers.len() == 1 { "y" } else { "ies" },
        batch.answered(),
        batch.jobs,
        batch.wall_us
    );
    if strategy == Strategy::HvIntersect {
        outln!(
            "coverage: {}/{} answered, {} via the intersection fallback",
            batch.answered(),
            batch.answers.len(),
            batch.counters.get(xvr_core::Counter::IntersectAnswered),
        );
    }
    outln!("{}", snap.metrics_report());
    Ok(ExitCode::SUCCESS)
}

fn filter(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(argv, &["doc"], &["views-file"], &["view"], &[])?;
    let doc = load_doc(parsed.req("doc")?)?;
    let query_src = parsed.positional()?;
    let views = collect_views(&parsed)?;
    let mut engine = Engine::new(doc, EngineConfig::default());
    for v in &views {
        engine
            .add_view_str(v)
            .map_err(|e| CliError::Input(format!("view `{v}`: {e}")))?;
    }
    let q = engine
        .parse(query_src)
        .map_err(|e| CliError::Input(format!("query: {e}")))?;
    let outcome = engine.snapshot().filter(&q);
    outln!(
        "{} of {} views survive filtering:",
        outcome.candidates.len(),
        engine.views().len()
    );
    for &v in &outcome.candidates {
        outln!(
            "  {}",
            engine.views().view(v).pattern.display(engine.labels())
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn materialize(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(
        argv,
        &["doc", "out"],
        &["budget", "views-file"],
        &["view"],
        &[],
    )?;
    let doc = load_doc(parsed.req("doc")?)?;
    let views = collect_views(&parsed)?;
    if views.is_empty() {
        return Err(CliError::Usage(
            "materialize needs --view or --views-file".into(),
        ));
    }
    let budget = match parsed.opt("budget") {
        Some(b) => parse_budget(b)?,
        None => usize::MAX,
    };
    let mut engine = Engine::new(
        doc,
        EngineConfig {
            fragment_budget: budget,
            ..EngineConfig::default()
        },
    );
    for v in &views {
        let id = engine
            .add_view_str(v)
            .map_err(|e| CliError::Input(format!("view `{v}`: {e}")))?;
        let mv = engine.store().get(id).unwrap();
        eprintln!(
            "{v}: {} fragment(s), {} bytes{}",
            mv.fragments.len(),
            mv.size_bytes(),
            if mv.complete() { "" } else { " (TRUNCATED)" }
        );
    }
    let out = parsed.req("out")?;
    engine
        .save_views(std::path::Path::new(out))
        .map_err(|e| CliError::Input(format!("saving to {out}: {e}")))?;
    eprintln!("saved {} view(s) to {out}", views.len());
    Ok(ExitCode::SUCCESS)
}

fn append(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(argv, &["doc", "at", "xml"], &["out"], &[], &[])?;
    let doc = load_doc(parsed.req("doc")?)?;
    let code: xvr_xml::DeweyCode = parsed
        .req("at")?
        .parse()
        .map_err(|e| CliError::Usage(format!("--at: {e}")))?;
    let mut engine = Engine::new(doc, EngineConfig::default());
    let stats = engine
        .append_xml(&code, parsed.req("xml")?)
        .map_err(|e| CliError::Input(e.to_string()))?;
    eprintln!(
        "appended under {code}: {:?} (document now {} nodes)",
        stats.stability,
        engine.doc().len()
    );
    let out = parsed.opt("out").map(str::to_owned);
    let target = out.as_deref().unwrap_or(parsed.req("doc")?);
    let xml = xvr_xml::serializer::serialize_pretty(&engine.doc().tree, engine.labels());
    std::fs::write(target, xml)
        .map_err(|e| CliError::Input(format!("cannot write {target}: {e}")))?;
    eprintln!("wrote {target}");
    Ok(ExitCode::SUCCESS)
}

/// `xvr advise`: propose a view set for a workload under a byte budget.
///
/// Reads the workload (one XPath per line, duplicates fold into
/// frequencies), runs the [`Advisor`] over the document, and prints the
/// winning proposal: one stdout line per view — `XPATH<TAB>BYTES<TAB>
/// WEIGHT`, ready to paste into a `--views-file` — with the scored
/// summary on stderr. Exit 1 when the proposal covers none of the
/// workload (nothing materializable under the budget helps).
fn advise(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(
        argv,
        &["doc", "workload"],
        &["budget", "seed", "jobs"],
        &[],
        &[],
    )?;
    let doc = load_doc(parsed.req("doc")?)?;
    let path = parsed.req("workload")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    let workload = Workload::parse(&text)?;
    let mut config = AdvisorConfig::default();
    if let Some(b) = parsed.opt("budget") {
        config.budget = parse_budget(b)?;
    }
    if let Some(s) = parsed.opt("seed") {
        config.seed = s
            .parse()
            .map_err(|_| CliError::Usage("--seed must be an integer".into()))?;
    }
    if let Some(j) = parsed.opt("jobs") {
        config.jobs = j
            .parse()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| CliError::Usage("--jobs must be a positive integer".into()))?;
    }
    let proposal = Advisor::new(config).advise(&doc, &workload)?;
    for v in &proposal.views {
        outln!("{}\t{}\t{}", v.xpath, v.bytes, v.weight);
    }
    eprintln!("{proposal}");
    Ok(if proposal.score.answered_weight > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn generate(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(argv, &[], &["scale", "seed", "out"], &[], &[])?;
    let scale: f64 = parsed
        .opt("scale")
        .unwrap_or("0.001")
        .parse()
        .map_err(|_| CliError::Usage("--scale must be a number".into()))?;
    let seed: u64 = parsed
        .opt("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::Usage("--seed must be an integer".into()))?;
    let doc =
        xvr_xml::generator::generate(&xvr_xml::generator::Config::scale(scale).with_seed(seed));
    let xml = xvr_xml::serializer::serialize_pretty(&doc.tree, &doc.labels);
    match parsed.opt("out") {
        Some(path) => {
            std::fs::write(path, xml)
                .map_err(|e| CliError::Input(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {} nodes to {path}", doc.len());
        }
        None => out!("{xml}"),
    }
    Ok(ExitCode::SUCCESS)
}
