//! Human-readable query plans: which views were selected, where they join
//! into the query, what each certifies, and what compensating work remains.
//!
//! Produced by [`EngineSnapshot::explain`](crate::EngineSnapshot::explain)
//! and rendered by the CLI's `--explain` flag.

use std::fmt;

use xvr_pattern::{Axis, PLabel, PNodeId, TreePattern};
use xvr_xml::LabelTable;

use crate::engine::Strategy;
use crate::leafcover::Obligations;
use crate::select::Selection;
use crate::view::{ViewId, ViewSet};

/// A rendered plan for answering one query from views.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Strategy that produced the plan.
    pub strategy: Strategy,
    /// Views surviving VFILTER (all views for `MN`).
    pub candidates: usize,
    /// Total registered views.
    pub total_views: usize,
    /// One entry per selected `(view, m)` unit.
    pub units: Vec<UnitExplanation>,
    /// Index of the anchor unit.
    pub anchor: usize,
}

/// How one selected view participates in the plan.
#[derive(Clone, Debug)]
pub struct UnitExplanation {
    /// The view.
    pub view: ViewId,
    /// The view's pattern, rendered.
    pub view_xpath: String,
    /// Root path of the query node `m` the view's fragments bind to.
    pub joins_at: String,
    /// Number of materialized fragments (before refinement).
    pub fragments: usize,
    /// Materialized bytes.
    pub bytes: usize,
    /// Whether this unit anchors the rewriting (`Δ`).
    pub is_anchor: bool,
    /// Obligations this unit certifies, rendered as root paths.
    pub certifies: Vec<String>,
    /// The compensating pattern evaluated inside each fragment.
    pub compensating: String,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan ({}): {} of {} views survived filtering; {} unit(s) selected",
            self.strategy,
            self.candidates,
            self.total_views,
            self.units.len()
        )?;
        for (i, u) in self.units.iter().enumerate() {
            writeln!(
                f,
                "  [{}]{} view {} = {}",
                i,
                if u.is_anchor { " (anchor)" } else { "" },
                u.view.index(),
                u.view_xpath
            )?;
            writeln!(
                f,
                "      joins at {} · {} fragment(s), {} bytes",
                u.joins_at, u.fragments, u.bytes
            )?;
            if !u.certifies.is_empty() {
                writeln!(f, "      certifies {}", u.certifies.join(", "))?;
            }
            writeln!(f, "      compensating query: {}", u.compensating)?;
        }
        Ok(())
    }
}

/// Root path of a query node rendered as a plain path string.
pub(crate) fn node_path_string(q: &TreePattern, n: PNodeId, labels: &LabelTable) -> String {
    let mut out = String::new();
    for node in q.root_path(n) {
        out.push_str(q.axis(node).as_str());
        match q.label(node) {
            PLabel::Wild => out.push('*'),
            PLabel::Lab(l) => out.push_str(labels.name(l)),
        }
    }
    out
}

/// Build an [`Explanation`] from a finished selection.
pub(crate) fn explain_selection(
    strategy: Strategy,
    q: &TreePattern,
    selection: &Selection,
    views: &ViewSet,
    store: &crate::materialize::MaterializedStore,
    labels: &LabelTable,
    candidates: usize,
) -> Explanation {
    let obligations = Obligations::of(q);
    let units = selection
        .units
        .iter()
        .enumerate()
        .map(|(i, unit)| {
            let m = unit.cover.m;
            let mv = store.get(unit.view);
            let compensating = q.subtree_pattern(m, Axis::Descendant);
            let mut certifies: Vec<String> = unit
                .cover
                .covered
                .iter()
                .filter(|n| obligations.nodes.contains(n))
                .map(|&n| node_path_string(q, n, labels))
                .collect();
            if unit.cover.covers_answer {
                certifies.push("Δ (answer extraction)".to_owned());
            }
            UnitExplanation {
                view: unit.view,
                view_xpath: views.view(unit.view).pattern.display(labels).to_string(),
                joins_at: node_path_string(q, m, labels),
                fragments: mv.map(|m| m.fragments.len()).unwrap_or(0),
                bytes: mv.map(|m| m.size_bytes()).unwrap_or(0),
                is_anchor: i == selection.anchor,
                certifies,
                compensating: compensating.display(labels).to_string(),
            }
        })
        .collect();
    Explanation {
        strategy,
        candidates,
        total_views: views.len(),
        units,
        anchor: selection.anchor,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig, Strategy};
    use xvr_xml::samples::book_document;

    #[test]
    fn explain_example_4_3() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s[t]/p").unwrap();
        engine.add_view_str("//s[p]/f").unwrap();
        let q = engine.parse("//s[f//i][t]/p").unwrap();
        let ex = engine.snapshot().explain(&q, Strategy::Hv).unwrap();
        assert_eq!(ex.units.len(), 2);
        assert_eq!(ex.total_views, 2);
        assert!(ex.units[ex.anchor].is_anchor);
        let text = ex.to_string();
        assert!(text.contains("(anchor)"), "{text}");
        assert!(text.contains("//s[t]/p"), "{text}");
        assert!(text.contains("compensating query"), "{text}");
        // The anchor joins at the answer position //s/p.
        assert_eq!(ex.units[ex.anchor].joins_at, "//s/p");
        // The f-view certifies the i obligation.
        let f_unit = ex.units.iter().find(|u| !u.is_anchor).unwrap();
        assert!(
            f_unit.certifies.iter().any(|c| c.ends_with("//i")),
            "{:?}",
            f_unit.certifies
        );
    }

    #[test]
    fn explain_single_view() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s[f//i][t]/p").unwrap();
        let q = engine.parse("//s[f//i][t]/p").unwrap();
        let ex = engine.snapshot().explain(&q, Strategy::Mv).unwrap();
        assert_eq!(ex.units.len(), 1);
        assert!(ex.units[0].is_anchor);
    }

    #[test]
    fn explain_unanswerable() {
        let mut engine = Engine::new(book_document(), EngineConfig::default());
        engine.add_view_str("//s/t").unwrap();
        let q = engine.parse("//s[f//i]/p").unwrap();
        assert!(engine.snapshot().explain(&q, Strategy::Hv).is_err());
    }
}
