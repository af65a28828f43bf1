//! The metric catalog, the result line, and run provenance.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric: stable name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, e.g. `us`, `ms`, `s`, `1/s`, `MB`, `count`, `ratio`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees: reported by the untraced run
/// (`--trace 0`) on every workload.
pub const END_TO_END: [Metric; 8] = [
    m("setup_s", "s"),
    m("query_p90_us", "us"),
    m("write_p90_ms", "ms"),
    m("post_write_query_p90_us", "us"),
    m("view_answer_share", "ratio"),
    m("ok_share", "ratio"),
    m("store_mb", "MB"),
    m("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run (`--trace 1`). Query-path times
/// are mean self time per traced query; counts are per traced query;
/// `register.*` figures are totals over one registration of the whole
/// catalog; `write.*` figures are medians over the traced writes.
pub const PER_LAYER: [Metric; 39] = [
    m("parse.us", "us"),
    m("filter.us", "us"),
    m("filter.views_admitted", "count"),
    m("filter.nfa_states", "count"),
    m("filter.precision", "ratio"),
    m("select.us", "us"),
    m("select.leafcover_attempts", "count"),
    m("select.fallback_probes", "count"),
    m("rewrite.us", "us"),
    m("rewrite.dewey_comparisons", "count"),
    m("rewrite.gallop_probes", "count"),
    m("rewrite.bytes_compared", "bytes"),
    m("rewrite.fragments_scanned", "count"),
    m("rewrite.cache_hit_ratio", "ratio"),
    m("eval.us", "us"),
    m("eval.fallback_share", "ratio"),
    m("encode.us", "us"),
    m("wire.encode_us", "us"),
    m("wire.decode_us", "us"),
    m("wire.answer_bytes", "bytes"),
    m("serve.rtt_us", "us"),
    m("serve.self_us", "us"),
    m("write.add_view_ms", "ms"),
    m("write.store_clone_ms", "ms"),
    m("write.store_clone_mb", "MB"),
    m("write.swap_us", "us"),
    m("register.index_build_ms", "ms"),
    m("register.viewset_add_ms", "ms"),
    m("register.eval_ms", "ms"),
    m("register.bindings", "count"),
    m("register.extract_ms", "ms"),
    m("register.extractions", "count"),
    m("register.admit_ratio", "ratio"),
    m("register.local_dewey_ms", "ms"),
    m("register.nfa_insert_ms", "ms"),
    m("register.truncated_views", "count"),
    m("trace.overhead_pct", "%"),
    m("trace.layer_sum_ratio", "ratio"),
    m("trace.register_sum_ratio", "ratio"),
];

/// Nearest-rank percentile of nanosecond samples, in `scale` units per
/// nanosecond (e.g. `1e-3` for µs); 0 when there are no samples.
pub fn percentile(samples_ns: &[u64], p: f64, scale: f64) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    xvr_core::serve::percentile(&sorted, p) as f64 * scale
}

/// Percentile of a query mix, taken per query: the nearest-rank `p`-th
/// percentile of each distinct query's own samples, weighted by that
/// query's share of all samples. Pooling a mix of equally weighted
/// queries instead puts p50 on the boundary between two queries' costs,
/// where noise flips it from one to the other.
pub fn mix_percentile(samples: &[(usize, u64)], p: f64, scale: f64) -> f64 {
    let mut by_query: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(query, ns) in samples {
        by_query.entry(query).or_default().push(ns);
    }
    let total = samples.len().max(1) as f64;
    by_query
        .values()
        .map(|ns| percentile(ns, p, scale) * ns.len() as f64 / total)
        .sum()
}

/// Median of `values` (upper median for even counts, as nearest rank).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Values for a fixed metric catalog.
pub struct Metrics {
    catalog: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `catalog`.
    pub fn new(catalog: &'static [Metric]) -> Metrics {
        Metrics {
            catalog,
            values: vec![None; catalog.len()],
        }
    }

    /// Set metric `name`, which must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalog
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values[i] = Some(value);
    }

    /// Catalog names that have no finite value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.catalog
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(m, _)| m.name)
            .collect()
    }

    /// `(metric, value)` for every set value, in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&Metric, f64)> {
        self.catalog
            .iter()
            .zip(&self.values)
            .filter_map(|(m, v)| v.map(|v| (m, v)))
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite f64 as a JSON number with all its digits; non-finite → 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

/// The host a result was measured on.
pub struct Host {
    /// CPUs of the machine (`cpuN` lines of `/proc/stat`).
    pub cpus: usize,
    /// CPUs this process may run on (`available_parallelism`, which
    /// follows the affinity mask `taskset` sets).
    pub cpus_allowed: usize,
    /// Commit of the measured tree, when known.
    pub commit: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Host {
    /// Describe this host. The commit comes from `XVR_COMMIT` (e.g.
    /// `XVR_COMMIT=$(git rev-parse HEAD)`); without it the result says
    /// `unknown`, since the benchmark may run from an exported tree.
    pub fn detect() -> Host {
        let commit = std::env::var("XVR_COMMIT")
            .ok()
            .filter(|c| !c.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
        let online = std::fs::read_to_string("/proc/stat").map_or(0, |stat| {
            stat.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit())
                })
                .count()
        });
        Host {
            cpus: online.max(allowed),
            cpus_allowed: allowed,
            commit,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The `"host"` JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"cpus_allowed\": {}, \"commit\": {}, \"profile\": \"{}\"}}",
            self.cpus,
            self.cpus_allowed,
            json_string(&self.commit),
            self.profile
        )
    }
}

/// Steal ticks summed over all CPUs (`/proc/stat`, 8th field of the
/// `cpu` line); `None` where the file is unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Host speed probe, in ms: the median of nine timed walks of 200,000
/// independent loads over a 16 MB table, the kind of memory traffic the
/// query paths make. Taken before and after a run, it shows a host that
/// was in its slow state; on the host the benchmark was tuned on it read
/// about 1.7 times higher in the slow state than in the fast one.
pub fn host_probe_ms() -> f64 {
    const LEN: u64 = 2 << 20;
    let table: Vec<u64> = (0..LEN).collect();
    let walks: Vec<f64> = (0..9)
        .map(|_| {
            let t = std::time::Instant::now();
            let (mut i, mut sum) = (7u64, 0u64);
            for _ in 0..200_000 {
                i = (i.wrapping_mul(2_654_435_761) + 12_345) % LEN;
                sum = sum.wrapping_add(table[i as usize]);
            }
            std::hint::black_box(sum);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_f64(&walks)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is `name` a valid metric name?
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Is `unit` a valid unit?
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} for {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("query p50"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\": ").count();
        let workloads = crate::inputs::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in crate::inputs::Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ns: Vec<u64> = (1..=10).rev().map(|v| v * 1000).collect();
        assert_eq!(percentile(&ns, 50.0, 1e-3), 5.0);
        assert_eq!(percentile(&ns, 90.0, 1e-3), 9.0);
        assert_eq!(percentile(&ns, 100.0, 1e-3), 10.0);
        assert_eq!(percentile(&[], 50.0, 1.0), 0.0);
        // p·n/100 = 7 exactly: rank 7, not 8.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 7.0, 1.0), 7.0);
    }

    #[test]
    fn mix_percentile_weights_each_query_by_its_share() {
        // Two queries at 100 and 200 ns, equally often: pooled nearest-rank
        // p50 is 100 (the boundary); per query it is their mean.
        let samples: Vec<(usize, u64)> = (0..10).flat_map(|_| [(0, 100), (1, 200)]).collect();
        let pooled: Vec<u64> = samples.iter().map(|&(_, ns)| ns).collect();
        assert_eq!(percentile(&pooled, 50.0, 1.0), 100.0);
        assert_eq!(mix_percentile(&samples, 50.0, 1.0), 150.0);
        // Three to one: weights follow the shares.
        let skewed = [(0, 100), (0, 100), (0, 100), (1, 500)];
        assert_eq!(mix_percentile(&skewed, 50.0, 1.0), 200.0);
        assert_eq!(mix_percentile(&[], 50.0, 1.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new(&END_TO_END);
        assert_eq!(metrics.missing().len(), END_TO_END.len());
        metrics.set("setup_s", 0.8127);
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
