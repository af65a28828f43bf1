//! End-to-end tests of the `xvr` binary.

use std::process::Command;

fn xvr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xvr"))
}

fn write_doc() -> tempfile::TempPath {
    let doc = r#"<library>
        <shelf><book><title>A</title><author>X</author></book></shelf>
        <shelf><book><title>B</title></book></shelf>
    </library>"#;
    tempfile::write(doc)
}

/// Tiny stand-in for the tempfile crate: unique files under the target
/// temp dir, removed on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempPath(PathBuf);

    impl TempPath {
        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "xvr-cli-test-{}-{}.xml",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, content).unwrap();
        TempPath(p)
    }
}

#[test]
fn info_reports_stats() {
    let doc = write_doc();
    let out = xvr()
        .args(["info", "--doc"])
        .arg(doc.path())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nodes:            8"), "{stdout}");
    assert!(stdout.contains("book"), "{stdout}");
}

#[test]
fn eval_prints_codes_and_fragments() {
    let doc = write_doc();
    let out = xvr()
        .args(["eval", "--doc"])
        .arg(doc.path())
        .arg("//book/title")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stdout.contains("<title>A</title>"), "{stdout}");
}

#[test]
fn answer_from_views_matches_eval() {
    let doc = write_doc();
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--strategy", "hv"])
        .arg("//book[author]/title")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("via HV using 1 view(s)"), "{stderr}");
}

#[test]
fn unanswerable_exits_1() {
    let doc = write_doc();
    // //book/title alone cannot certify the [author] predicate.
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book/title"])
        .arg("//book[author]/title")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn usage_errors_exit_2() {
    let out = xvr().args(["answer", "--doc"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = xvr().args(["bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn input_errors_exit_3() {
    let out = xvr()
        .args(["info", "--doc", "/nonexistent/file.xml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn generate_then_query_round_trip() {
    let out = xvr()
        .args(["generate", "--scale", "0.0005", "--seed", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let xml = String::from_utf8_lossy(&out.stdout);
    assert!(xml.starts_with("<site"), "{}", &xml[..60.min(xml.len())]);
    let doc = tempfile::write(&xml);
    let out = xvr()
        .args(["eval", "--doc"])
        .arg(doc.path())
        .args(["--engine", "bf"])
        .arg("//person/name")
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn materialize_then_answer_from_disk() {
    let doc = write_doc();
    let dir = std::env::temp_dir().join(format!("xvr-cli-views-{}", std::process::id()));
    let out = xvr()
        .args(["materialize", "--doc"])
        .arg(doc.path())
        .args([
            "--view",
            "//book[author]/title",
            "--view",
            "//shelf[book]/book",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .arg("--views-dir")
        .arg(&dir)
        .arg("//shelf[book]/book[author]/title")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_prints_plan() {
    let doc = write_doc();
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--explain"])
        .arg("//book[author]/title")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plan (HV)"), "{stderr}");
    assert!(stderr.contains("(anchor)"), "{stderr}");
}

#[test]
fn answer_base_strategies_need_no_views() {
    let doc = write_doc();
    for strategy in ["bn", "bf"] {
        let out = xvr()
            .args(["answer", "--doc"])
            .arg(doc.path())
            .args(["--strategy", strategy])
            .arg("//book[author]/title")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), 1, "{strategy}: {stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("via {} using 0 view(s)", strategy.to_uppercase())),
            "{strategy}: {stderr}"
        );
    }
    // View strategies still demand views.
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--strategy", "hv"])
        .arg("//book/title")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn answer_strategies_agree() {
    let doc = write_doc();
    let mut lines: Vec<String> = Vec::new();
    for strategy in ["bn", "bf", "mn", "mv", "hv", "cb"] {
        let out = xvr()
            .args(["answer", "--doc"])
            .arg(doc.path())
            .args(["--view", "//book[author]/title", "--strategy", strategy])
            .arg("//book[author]/title")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        lines.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert!(lines.windows(2).all(|w| w[0] == w[1]), "{lines:?}");
}

#[test]
fn answer_batch_over_queries_file() {
    let doc = write_doc();
    let queries =
        tempfile::write("# a comment\n//book[author]/title\n\n//shelf/book\n//book/missing\n");
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--view", "//shelf/book"])
        .args(["--queries-file"])
        .arg(queries.path())
        .args(["--jobs", "3"])
        .output()
        .unwrap();
    // //book/missing is not answerable from the views, so the batch exits 1.
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].starts_with("//book[author]/title\t1\t"),
        "{stdout}"
    );
    assert!(lines[1].starts_with("//shelf/book\t2\t"), "{stdout}");
    assert!(
        lines[2].starts_with("//book/missing\tunanswerable"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2/3 answered via HV with 3 job(s)"),
        "{stderr}"
    );
    assert!(stderr.contains("q/s"), "{stderr}");
}

#[test]
fn answer_batch_rejects_positional_query() {
    let doc = write_doc();
    let queries = tempfile::write("//book/title\n");
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book/title", "--queries-file"])
        .arg(queries.path())
        .arg("//book/title")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn broken_pipe_exits_zero() {
    use std::io::Read as _;
    use std::process::Stdio;

    // A document big enough that `xvr eval` emits far more than the
    // 64 KiB pipe buffer, so the write hits EPIPE once we close our end.
    let gen = xvr()
        .args(["generate", "--scale", "0.02", "--seed", "7"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let doc = tempfile::write(&String::from_utf8_lossy(&gen.stdout));

    for argv in [
        vec!["eval", "--engine", "bf", "//*"],
        vec!["generate", "--scale", "0.02", "--seed", "7"],
    ] {
        let mut cmd = xvr();
        if argv[0] == "eval" {
            cmd.args(["eval", "--doc"]).arg(doc.path()).args(&argv[1..]);
        } else {
            cmd.args(&argv);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Read a single byte (head -1 style), then drop our end of the pipe.
        let mut stdout = child.stdout.take().unwrap();
        let mut byte = [0u8; 1];
        stdout.read_exact(&mut byte).unwrap();
        drop(stdout);
        let status = child.wait().unwrap();
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .ok();
        assert_eq!(status.code(), Some(0), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panic"), "{argv:?}: {stderr}");
    }
}

#[test]
fn strategy_parsing_is_case_and_whitespace_insensitive() {
    let doc = write_doc();
    // "MV" and "mv " (trailing space) must both resolve to Mv.
    for strategy in ["MV", "mv ", " Hv", "CB"] {
        let out = xvr()
            .args(["answer", "--doc"])
            .arg(doc.path())
            .args(["--view", "//book[author]/title", "--strategy", strategy])
            .arg("//book[author]/title")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{strategy:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_strategy_suggests_near_miss() {
    let doc = write_doc();
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book/title", "--strategy", "mb"])
        .arg("//book/title")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown strategy `mb`"), "{stderr}");
    assert!(stderr.contains("did you mean"), "{stderr}");
    // Nowhere near any strategy: no suggestion offered.
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book/title", "--strategy", "zzzzz"])
        .arg("//book/title")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

#[test]
fn answer_report_prints_stage_breakdown() {
    let doc = write_doc();
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--report"])
        .arg("//book[author]/title")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stages: filter"), "{stderr}");
    assert!(
        stderr.contains("filter") && stderr.contains("runs=1"),
        "{stderr}"
    );
    assert!(stderr.contains("trace: usable="), "{stderr}");
}

#[test]
fn stats_prints_metrics_report() {
    let doc = write_doc();
    let queries = tempfile::write("//book[author]/title\n//shelf/book\n");
    let out = xvr()
        .args(["stats", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--view", "//shelf/book"])
        .arg("--queries-file")
        .arg(queries.path())
        .args(["--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workload: 2 queries via HV"), "{stdout}");
    assert!(stdout.contains("queries: 2 (2 answered)"), "{stdout}");
    assert!(stdout.contains("stage totals: filter"), "{stdout}");
    assert!(stdout.contains("rewrite"), "{stdout}");
    // The store line: accounted per-view bytes, then resident bytes.
    let store: Vec<u64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("store: "))
        .unwrap_or_else(|| panic!("no store line: {stdout}"))
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(store.len(), 2, "{stdout}");
    assert!(store[0] >= store[1] && store[1] > 0, "{stdout}");
}

#[test]
fn filter_lists_candidates() {
    let doc = write_doc();
    let out = xvr()
        .args(["filter", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book/title", "--view", "//shelf/x"])
        .arg("//book[author]/title")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 of 2 views"), "{stdout}");
}

/// Kills the serve child on drop so a failing assertion cannot leak a
/// listener into later tests.
struct ServeGuard(std::process::Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `xvr serve` on an ephemeral port and return the guard plus the
/// kernel-assigned address parsed from the announced `listening on` line.
fn spawn_serve(doc: &std::path::Path, views: &[&str]) -> (ServeGuard, String) {
    use std::io::BufRead;
    let mut cmd = xvr();
    cmd.args(["serve", "--doc"]).arg(doc);
    for v in views {
        cmd.args(["--view", v]);
    }
    let mut child = cmd
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (ServeGuard(child), addr)
}

/// `xvr serve` announces its port, answers queries and admin requests
/// over the wire protocol, and exits cleanly on a shutdown request.
#[test]
fn serve_answers_over_tcp_and_shuts_down() {
    use std::time::Duration;
    use xvr_core::{Client, Request, Response, Status, WireOptions};

    let doc = write_doc();
    let (mut guard, addr) = spawn_serve(doc.path(), &["//book[author]/title"]);
    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();

    let resp = client
        .call(&Request::Query {
            query: "//book[author]/title".into(),
            options: WireOptions::default(),
        })
        .unwrap();
    match resp {
        Response::Answer {
            codes, views_used, ..
        } => {
            assert_eq!(codes.len(), 1, "{codes:?}");
            assert_eq!(views_used, 1);
        }
        other => panic!("expected an answer, got {other:?}"),
    }

    // Unanswerable until add-view publishes a new snapshot.
    let probe = Request::Query {
        query: "//shelf/book".into(),
        options: WireOptions::default(),
    };
    assert!(matches!(
        client.call(&probe).unwrap(),
        Response::Error {
            status: Status::NotAnswerable,
            ..
        }
    ));
    assert!(matches!(
        client
            .call(&Request::AddView {
                xpath: "//shelf/book".into()
            })
            .unwrap(),
        Response::Swapped { epoch: 1, .. }
    ));
    assert!(matches!(
        client.call(&probe).unwrap(),
        Response::Answer { .. }
    ));

    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    let status = guard.0.wait().unwrap();
    assert!(status.success(), "{status:?}");
}

/// `xvr loadgen` drives a served workload and writes the latency/
/// throughput JSON with the documented fields; exit code 0 when every
/// request succeeds.
#[test]
fn loadgen_writes_latency_json() {
    use std::time::Duration;
    use xvr_core::{Client, Request, Response};

    let doc = write_doc();
    let (mut guard, addr) = spawn_serve(doc.path(), &["//book[author]/title"]);
    let queries = tempfile::write("# workload\n//book[author]/title\n");
    let json_out = tempfile::write("");

    let out = xvr()
        .args(["loadgen", "--addr", &addr, "--queries-file"])
        .arg(queries.path())
        .args(["--connections", "2", "--requests", "16", "--out"])
        .arg(json_out.path())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(json_out.path()).unwrap();
    for field in [
        "\"benchmark\": \"loadgen\"",
        "\"mode\": \"closed_loop\"",
        "\"strategy\": \"HV\"",
        "\"requests\": 16",
        "\"ok\": 16",
        "\"errors\": 0",
        "\"sustained_qps\"",
        "\"p50\"",
        "\"p95\"",
        "\"p99\"",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }

    let mut admin = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    assert!(matches!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    assert!(guard.0.wait().unwrap().success());
}

/// `xvr advise` proposes a view set for a workload file and prints it as
/// `XPATH<TAB>BYTES<TAB>WEIGHT` lines; the proposed views, fed back as a
/// `--views-file`, answer the whole workload.
#[test]
fn advise_proposes_views_that_answer_the_workload() {
    let doc = write_doc();
    // Duplicates fold into frequencies; comments/CRLF are tolerated.
    let workload = tempfile::write(
        "# workload\n//book[author]/title\r\n//book[author]/title\n\n//shelf/book\n",
    );
    let out = xvr()
        .args(["advise", "--doc"])
        .arg(doc.path())
        .arg("--workload")
        .arg(workload.path())
        .args(["--seed", "42"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut views_file = String::new();
    for line in stdout.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 3, "expected XPATH\\tBYTES\\tWEIGHT: {line:?}");
        cols[1].parse::<u64>().expect("bytes column");
        cols[2].parse::<u64>().expect("weight column");
        views_file.push_str(cols[0]);
        views_file.push('\n');
    }
    assert!(!views_file.is_empty(), "no views proposed: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("proposal:"), "{stderr}");
    assert!(stderr.contains("coverage 3/3"), "{stderr}");

    // Round trip: the proposal is a valid --views-file for answer.
    let views = tempfile::write(&views_file);
    let queries = tempfile::write("//book[author]/title\n//shelf/book\n");
    let out = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .arg("--views-file")
        .arg(views.path())
        .arg("--queries-file")
        .arg(queries.path())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Same seed, same workload ⇒ byte-identical advise output, at any
/// `--jobs` setting (throughput measurement never leaks into the
/// proposal).
#[test]
fn advise_is_deterministic_across_jobs() {
    let doc = write_doc();
    let workload = tempfile::write("//book[author]/title\n//shelf/book\n");
    let run = |jobs: &str| {
        let out = xvr()
            .args(["advise", "--doc"])
            .arg(doc.path())
            .arg("--workload")
            .arg(workload.path())
            .args(["--seed", "7", "--jobs", jobs])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run("1"), run("8"));
}

/// The catalog refactor keeps the shared view flags working together:
/// --view, --views-file (with comments/CRLF), and --budget combine, and
/// answers stay identical to registering the same views one by one.
#[test]
fn answer_combines_view_flags_through_the_catalog() {
    let doc = write_doc();
    let views = tempfile::write("# file views\n//shelf/book\r\n");
    let query = "//shelf/book[author]/title";
    let combined = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--views-file"])
        .arg(views.path())
        .args(["--budget", "1048576"])
        .arg(query)
        .output()
        .unwrap();
    assert!(
        combined.status.success(),
        "{}",
        String::from_utf8_lossy(&combined.stderr)
    );
    let inline_only = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//book[author]/title", "--view", "//shelf/book"])
        .arg(query)
        .output()
        .unwrap();
    assert!(inline_only.status.success());
    assert_eq!(combined.stdout, inline_only.stdout, "answers diverged");
}

/// One --budget vocabulary everywhere: a malformed budget is an input
/// error (exit 3) with the offending value named, identically for
/// answer and advise.
#[test]
fn budget_errors_are_uniform_across_commands() {
    let doc = write_doc();
    let workload = tempfile::write("//shelf/book\n");
    let answer = xvr()
        .args(["answer", "--doc"])
        .arg(doc.path())
        .args(["--view", "//shelf/book", "--budget", "12k"])
        .arg("//shelf/book")
        .output()
        .unwrap();
    let advise = xvr()
        .args(["advise", "--doc"])
        .arg(doc.path())
        .arg("--workload")
        .arg(workload.path())
        .args(["--budget", "12k"])
        .output()
        .unwrap();
    for out in [&answer, &advise] {
        assert_eq!(out.status.code(), Some(3));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("budget `12k` is not an integer byte count"),
            "{stderr}"
        );
    }
}
