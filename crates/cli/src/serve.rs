//! `xvr serve`: the long-running query service.
//!
//! Builds an engine exactly like `xvr answer` (shared `--doc`/`--view`/
//! `--views-file`/`--views-dir`/`--budget` flags), binds a TCP listener,
//! prints `listening on ADDR` on stdout (scripts wait for that line and
//! read the actual port back when `--addr` ends in `:0`), then serves the
//! length-prefixed wire protocol until a `shutdown` request arrives.
//! Queries run on an atomically swappable snapshot: `add-view` and
//! `swap-doc` admin requests publish a new snapshot without interrupting
//! in-flight queries.

use std::process::ExitCode;

use xvr_core::{Server, ServerConfig};

use crate::args::Parsed;
use crate::{engine_with_views, out_fmt, CliError};

pub fn serve(argv: &[String]) -> Result<ExitCode, CliError> {
    let parsed = Parsed::parse(
        argv,
        &["doc"],
        &["addr", "jobs", "budget", "views-file", "views-dir"],
        &["view"],
        &[],
    )?;
    // The catalog carries the replayable view sources for swap-doc: the
    // --view/--views-file text. Views loaded from --views-dir are
    // materialized artifacts without source text and are not replayed
    // across a document swap.
    let (engine, catalog) = engine_with_views(&parsed)?;
    let view_sources = catalog.sources().to_vec();
    let jobs: usize = match parsed.opt("jobs") {
        Some(j) => j
            .parse()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| CliError::Usage("--jobs must be a positive integer".into()))?,
        None => 4,
    };
    let addr = parsed.opt("addr").unwrap_or("127.0.0.1:7878");
    let server = Server::bind(addr, engine, view_sources, ServerConfig { jobs })?;
    // Stdout (stderr carries diagnostics): wrappers parse this line for
    // the kernel-assigned port. Rust's stdout is line-buffered, so the
    // newline flushes it before the accept loop blocks.
    outln!("listening on {}", server.local_addr());
    eprintln!("serving with {jobs} batch job(s); send a shutdown request to stop");
    server.run()?;
    eprintln!("server stopped");
    Ok(ExitCode::SUCCESS)
}
