//! `xvr-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_write --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the façade;
//! `--trace 1` runs the traced run and reports the per-layer metrics. The
//! last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the
//! line before it carries provenance (host, seed, steal ticks, phase
//! times, a host speed probe before and after). See `perfbench/README.md`.

mod inputs;
mod report;
mod run;
mod span;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use inputs::{Inputs, Workload};
use report::{host_probe_ms, json_number, json_string, result_line, steal_ticks, Host, Metrics};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin to one CPU; running unpinned");
    }
    // A run that printed its result exits 0, correct or not: the result
    // line says which.
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::from(3)
        }
    }
}

/// Pin this thread, and so every thread it starts later, to the lowest CPU
/// the process may run on; returns that CPU.
///
/// On a 2-vCPU KVM guest an unpinned run lost 20–45% of its time to steal
/// and its query p90 swung between 0.6 and 1.0 ms from run to run; pinned
/// runs interleaved with them lost 5–10% and held p90 within ±6%. The
/// client and the server's connection thread take turns on the one CPU,
/// as a closed loop over one connection has them do anyway.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// Run one workload; prints the metric table, provenance and the result
/// line.
fn bench(args: &Args) -> Result<(), String> {
    let steal_before = steal_ticks();
    let probe_before = host_probe_ms();
    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, &args.workload.shape(), args.seed);
    let mut phases = vec![("inputs", t.elapsed().as_secs_f64())];
    let mut series = Vec::new();

    let (metrics, attempted, failed, first_error) = if args.trace {
        let t = Instant::now();
        let out = traced::run(args.workload, &inputs)?;
        phases.push(("trace", t.elapsed().as_secs_f64()));
        write_spans(args, &out.tracer);
        (out.metrics, out.attempted, out.failed, out.first_error)
    } else {
        let out = run::run(args.workload, &inputs, args.seconds)?;
        phases.extend(out.phases);
        series = out.series;
        (out.metrics, out.attempted, out.failed, out.first_error)
    };
    if let Some(e) = &first_error {
        eprintln!("perfbench: {failed} failed; first: {e}");
    }
    let missing = metrics.missing();
    if !missing.is_empty() {
        return Err(format!("metrics without a value: {}", missing.join(", ")));
    }
    let correct = failed == 0;
    series.push(("host_probe_ms", vec![probe_before, host_probe_ms()]));

    print_table(args, &metrics);
    let steal = match (steal_before, steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".to_string(),
    };
    let phase_json: Vec<String> = phases
        .iter()
        .map(|(name, s)| format!("\"{name}\": {}", json_number(*s)))
        .collect();
    let series_json: String = series
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
            format!(", \"{name}\": [{}]", values.join(", "))
        })
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"diagnostics\": {{\"steal_ticks\": {steal}, \"phase_s\": {{{}}}{series_json}}}}}}}",
        json_string(args.workload.name()),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        Host::detect().json(),
        phase_json.join(", ")
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn print_table(args: &Args, metrics: &Metrics) {
    println!(
        "# {} seed={} {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for (m, v) in metrics.iter() {
        println!("{:<28} {:>16.4} {}", m.name, v, m.unit);
    }
}

/// Write the traced run's spans under `perfbench/traces/`. Failure to
/// write is reported but does not fail the run.
fn write_spans(args: &Args, tracer: &span::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_tsv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
