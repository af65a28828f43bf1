//! In-memory spans for the traced run: record, compute self time, check
//! that layers add up, and write them out at exit.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one query share that query's id. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `filter` or `register.eval`.
    pub name: &'static str,
    /// Id shared by every span of one query (or one registration).
    pub query: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans as a stack: `enter` opens a child of the innermost open
/// span, `exit` closes it. A disabled recorder records nothing, so the
/// same instrumented code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder whose `enter`/`exit` do nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Open span `name` of `query`; returns its index for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, query: u32) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            query,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
    }

    /// Time `f` as span `name` of `query`.
    pub fn span<T>(&mut self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, query);
        let out = f();
        self.exit(idx);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `query  index  parent  name  start_ns  end_ns  self_ns`.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        let selves = self_times(&self.spans);
        writeln!(out, "query\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selves).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// `d` in whole nanoseconds, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals (clipped to its own), so overlapping or
/// out-of-range children are never counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed duration of the top-level spans named `root`, and summed self
/// time of every span below them: how much of the roots the layers
/// account for. The benchmark requires the layers to land within 10% of
/// a reference — their root, or an untraced run of the same work.
pub fn layer_totals(spans: &[Span], root: &str) -> (u64, u64) {
    let selves = self_times(spans);
    let mut top: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        top.push(match s.parent {
            Some(p) => top[p],
            None => i,
        });
    }
    let mut roots = 0u64;
    let mut layers = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if spans[top[i]].name != root {
            continue;
        }
        if s.parent.is_none() {
            roots += s.duration_ns();
        } else {
            layers += selves[i];
        }
    }
    (roots, layers)
}

/// Summed self time, ns, of every span named `name`.
pub fn total_self_ns(spans: &[Span], selves: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(selves)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            query: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // query [0,100] > a [10,40] > a.inner [20,30]; query > b [50,90].
        let spans = vec![
            span("query", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 20, 30),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50] and [30,70] cover [10,70] = 60 ns of [0,100].
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 50),
            span("y", Some(0), 30, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        // A child running past its parent is clipped to the parent.
        let spans = vec![span("root", None, 0, 100), span("x", Some(0), 90, 150)];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn layer_sum_covers_roots_of_the_named_kind_only() {
        let spans = vec![
            span("query", None, 0, 100),
            span("parse", Some(0), 0, 10),
            span("rewrite", Some(0), 10, 95),
            span("rewrite.inner", Some(2), 20, 30),
            // A different root kind is ignored.
            span("serve.rtt", None, 200, 400),
            span("query", None, 500, 600),
            span("parse", Some(5), 500, 590),
        ];
        // Layers: 10 + 75 + 10 + 90 = 185 of 200 ns of `query` roots.
        assert_eq!(layer_totals(&spans, "query"), (200, 185));
        assert_eq!(layer_totals(&spans, "absent"), (0, 0));
    }

    #[test]
    fn tracer_nests_and_shares_query_ids() {
        let mut tr = Tracer::new();
        let root = tr.enter("query", 7);
        let n = tr.span("parse", 7, || 41 + 1);
        tr.exit(root);
        assert_eq!(n, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::disabled();
        let root = off.enter("query", 7);
        off.span("parse", 7, || ());
        off.exit(root);
        assert!(off.spans().is_empty());
        let mut out = Vec::new();
        tr.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
