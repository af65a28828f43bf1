//! Workload shapes and seeded input generation.
//!
//! The benchmark generates everything the program receives — the XMark
//! document, the view catalog, the write list and the query mix — from
//! `--seed`, before any timing starts. Views and writes are XPath text
//! rendered with `TreePattern::display`, so the server receives exactly
//! what a client would send it.

use std::collections::HashSet;

use xvr_bench::{paper_document, planted_views, test_queries, xmark_queries};
use xvr_core::clean_lines;
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_patterns, distinct_positive_patterns};
use xvr_xml::Document;

/// The committed 256-query serve mix: the four Table III queries
/// interleaved x64.
const SERVE_MIX: &str = include_str!("../../workloads/serve_xmark.txt");

/// Seed of the reference document and generator behind every catalog.
const CATALOG_SEED: u64 = 0x7669_6577_735f_7872;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One `AddView` per 64 queries over `xvr serve`: every write swaps a
    /// snapshot and empties the rewrite cache.
    ServeWrite,
    /// A scale-0.1 document with 1,000 budgeted views, queried in-process
    /// with the rewrite cache off and a `Bn` fallback.
    RegisterCold,
}

/// The sizes of a workload: what the tests shrink.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// XMark scale factor of the document.
    pub scale: f64,
    /// Catalog size, planted views included.
    pub views: usize,
    /// Per-view materialization budget in bytes.
    pub budget: usize,
    /// Length of the write list (distinct views not in the catalog).
    pub writes: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeWrite, Workload::RegisterCold];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWrite => "serve_write",
            Workload::RegisterCold => "register_cold",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's full-size shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ServeWrite => Shape {
                scale: 0.01,
                views: 400,
                budget: usize::MAX,
                writes: 1024,
            },
            Workload::RegisterCold => Shape {
                scale: 0.1,
                views: 1000,
                budget: 512 << 10,
                writes: 24,
            },
        }
    }

    /// Query over TCP (`Server`/`Client`) rather than in-process, with
    /// the snapshot's rewrite cache on.
    pub fn served(self) -> bool {
        self == Workload::ServeWrite
    }

    /// How many times set-up is repeated; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::ServeWrite => 5,
            Workload::RegisterCold => 3,
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The base document.
    pub doc: Document,
    /// The view catalog, planted views first.
    pub views: Vec<String>,
    /// Distinct views that are not in the catalog, in write order.
    pub writes: Vec<String>,
    /// The query mix, in send order.
    pub queries: Vec<String>,
}

impl Inputs {
    /// Generate the inputs of `workload` at `shape` from `seed`. The same
    /// seed always gives the same inputs.
    ///
    /// `seed` drives the document. The catalog and the write list are
    /// generated once per shape, against a reference document of the same
    /// scale: a random catalog moves filter work and store size by 15–30%
    /// from one seed to the next, which would bury the change a
    /// comparison is looking for.
    ///
    /// `serve_write` draws its views with `distinct_positive_patterns`
    /// (every view has a binding) and sends the committed serve mix.
    /// `register_cold` draws the plain paper view workload (ROADMAP item
    /// 3), plants one self-view per XMark query so that answerability does
    /// not hinge on the draw, and sends the Table III and XMark queries.
    pub fn generate(workload: Workload, shape: &Shape, seed: u64) -> Inputs {
        let doc = paper_document(shape.scale, seed);
        let mut views: Vec<String> = planted_views().into_iter().map(String::from).collect();
        if workload == Workload::RegisterCold {
            views.extend(xmark_queries().into_iter().map(|(_, q)| q.to_string()));
        }
        let planted: HashSet<String> = views.iter().cloned().collect();
        let wanted = shape.views.saturating_sub(views.len()) + shape.writes;
        let reference = paper_document(shape.scale, CATALOG_SEED);
        let config = QueryConfig::paper_view_workload(CATALOG_SEED);
        let generated = match workload {
            Workload::ServeWrite => distinct_positive_patterns(&reference, config, wanted),
            Workload::RegisterCold => {
                distinct_patterns(&reference.fst, &reference.labels, config, wanted)
            }
        };
        let mut generated: Vec<String> = generated
            .iter()
            .map(|p| p.display(&reference.labels).to_string())
            .filter(|s| !planted.contains(s))
            .collect();
        let split = shape.views.saturating_sub(views.len()).min(generated.len());
        let writes = generated.split_off(split);
        views.extend(generated);
        let queries = match workload {
            Workload::ServeWrite => clean_lines(SERVE_MIX).map(String::from).collect(),
            Workload::RegisterCold => test_queries()
                .into_iter()
                .map(|q| q.xpath.to_string())
                .chain(xmark_queries().into_iter().map(|(_, q)| q.to_string()))
                .collect(),
        };
        Inputs {
            doc,
            views,
            writes,
            queries,
        }
    }

    /// The distinct queries of the mix, in first-seen order, and the mix
    /// as indexes into them.
    pub fn distinct_queries(&self) -> (Vec<String>, Vec<usize>) {
        let mut distinct: Vec<String> = Vec::new();
        let mix = self
            .queries
            .iter()
            .map(|q| match distinct.iter().position(|d| d == q) {
                Some(i) => i,
                None => {
                    distinct.push(q.clone());
                    distinct.len() - 1
                }
            })
            .collect();
        (distinct, mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload) -> Shape {
        Shape {
            scale: 0.002,
            views: 40,
            writes: 8,
            ..workload.shape()
        }
    }

    fn generate(workload: Workload, seed: u64) -> Inputs {
        Inputs::generate(workload, &small(workload), seed)
    }

    #[test]
    fn same_seed_same_inputs() {
        for workload in Workload::ALL {
            let a = generate(workload, 7);
            let b = generate(workload, 7);
            assert_eq!(
                xvr_xml::serialize(&a.doc.tree, &a.doc.labels),
                xvr_xml::serialize(&b.doc.tree, &b.doc.labels),
                "{}",
                workload.name()
            );
            assert_eq!(a.views, b.views);
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.queries, b.queries);
        }
    }

    #[test]
    fn another_seed_another_document_same_catalog() {
        let a = generate(Workload::ServeWrite, 1);
        let b = generate(Workload::ServeWrite, 2);
        assert_ne!(
            xvr_xml::serialize(&a.doc.tree, &a.doc.labels),
            xvr_xml::serialize(&b.doc.tree, &b.doc.labels)
        );
        assert_eq!(a.views, b.views);
        assert_eq!(a.writes, b.writes);
    }

    #[test]
    fn writes_are_new_distinct_views() {
        let shape = small(Workload::ServeWrite);
        let inputs = Inputs::generate(Workload::ServeWrite, &shape, 3);
        assert_eq!(inputs.views.len(), shape.views);
        assert_eq!(inputs.writes.len(), shape.writes);
        let catalog: HashSet<&String> = inputs.views.iter().collect();
        let writes: HashSet<&String> = inputs.writes.iter().collect();
        assert_eq!(writes.len(), inputs.writes.len());
        assert!(writes.iter().all(|w| !catalog.contains(w)));
    }

    #[test]
    fn mixes_have_their_documented_sizes() {
        let serve = generate(Workload::ServeWrite, 1);
        assert_eq!(serve.queries.len(), 256);
        assert_eq!(serve.distinct_queries().0.len(), 4);
        let paper = generate(Workload::RegisterCold, 1);
        assert_eq!(paper.queries.len(), 14);
        assert_eq!(paper.distinct_queries().0.len(), 14);
    }
}
