//! View materialization: evaluating a view over the base document once and
//! storing the answer-node fragments with their extended Dewey codes.
//!
//! Evaluation is [`eval_bn`] over the engine's label index: the sparse
//! evaluator visits only the nodes whose labels the view names (and the
//! ancestors its edges reach), so registering a view costs what the view
//! matches, not the size of the document.
//!
//! Fragments are sized from the document's footprint column, and each
//! admitted subtree is extracted once per document: views materialized
//! through one [`SubtreeMemo`] share the trees of the roots they have in
//! common (the engine keeps that memo; the store never does, so cloning a
//! store stays a copy of a pointer table). Sharing is invisible to the
//! budget: [`MaterializedStore::total_bytes`] charges every view for every
//! fragment it holds, as the paper's per-view accounting does, while
//! [`MaterializedStore::resident_bytes`] counts each shared tree once.
//!
//! The paper caps each view's materialization at 128 KB (Section VI);
//! truncated views are kept in the store but flagged — equivalent rewriting
//! must not use them (their fragment set is incomplete), so selection skips
//! them.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xvr_pattern::eval_bn;
use xvr_xml::flat::components;
use xvr_xml::{DeweyAssignment, DeweyCode, Document, FragmentSet, NodeIndex, SubtreeMemo, XmlTree};

use crate::view::{ViewId, ViewSet};

/// The paper's per-view materialization budget.
pub const PAPER_FRAGMENT_BUDGET: usize = 128 * 1024;

/// Source of materialization generations: process-wide and monotonic, so
/// no two materializations ever share one, in any engine or store.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// One materialized view: fragments plus per-fragment local Dewey
/// assignments (used to translate fragment-internal nodes back to global
/// codes during answer extraction).
#[derive(Debug)]
pub struct MaterializedView {
    /// Which view this materializes.
    pub view: ViewId,
    /// The fragments, document-ordered by root code.
    pub fragments: FragmentSet,
    /// Local extended-Dewey components per fragment tree. Components of
    /// non-root nodes equal their components in the base document (the
    /// assignment is purely local to each parent), so a global code is the
    /// fragment root's code extended with the local path components.
    pub local_dewey: Vec<DeweyAssignment>,
    /// Stamped by [`MaterializedStore::install`], the only constructor.
    generation: u64,
}

impl MaterializedView {
    /// Which materialization this is: unique per
    /// [`MaterializedStore::install`] call across the process. A
    /// re-materialized view gets a new generation, so
    /// [`RewriteCache`](crate::RewriteCache) entries keyed by
    /// `(view, generation)` can never be read against other fragments.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Global code of `node` inside fragment `frag_idx`: the fragment
    /// root's code, read out of the code arena, extended with the node's
    /// local components below the root.
    pub fn global_code(&self, frag_idx: usize, node: xvr_xml::NodeId) -> DeweyCode {
        let tree = self.fragments.tree(frag_idx);
        let local = self.local_dewey[frag_idx].code_of(tree, node);
        let root = self.fragments.flat_codes().get(frag_idx);
        let mut comps: Vec<u32> = components(root).map(|(c, _)| c).collect();
        comps.extend_from_slice(&local.components()[1..]);
        DeweyCode(comps)
    }

    /// Index of the fragment rooted at `code`, if any.
    pub fn fragment_by_code(&self, code: &DeweyCode) -> Option<usize> {
        self.fragments.index_of_code(code)
    }

    /// Is this view usable for *equivalent* rewriting?
    pub fn complete(&self) -> bool {
        !self.fragments.truncated()
    }

    /// Total bytes materialized.
    pub fn size_bytes(&self) -> usize {
        self.fragments.total_bytes()
    }
}

/// Store of materialized views, indexed by [`ViewId`].
///
/// Each materialization sits behind its own [`Arc`]: cloning the store
/// copies a table of pointers, and (re-)materializing a view replaces only
/// that view's entry, so a clone keeps sharing every view it did not touch.
#[derive(Clone, Debug, Default)]
pub struct MaterializedStore {
    views: HashMap<ViewId, Arc<MaterializedView>>,
}

impl MaterializedStore {
    /// Create an empty store.
    pub fn new() -> MaterializedStore {
        MaterializedStore::default()
    }

    /// Materialize every view of `set` over `doc` under `byte_budget` per
    /// view (builds the document's label index once for all of them, and
    /// shares subtrees across them).
    pub fn materialize_all(doc: &Document, set: &ViewSet, byte_budget: usize) -> MaterializedStore {
        let index = NodeIndex::build(&doc.tree, &doc.labels);
        let mut memo = SubtreeMemo::new();
        let mut store = MaterializedStore::new();
        for view in set.iter() {
            store.materialize(doc, &index, &mut memo, set, view.id, byte_budget);
        }
        store
    }

    /// Materialize one view (replacing any previous materialization).
    /// `index` is the label index of `doc` as it is now; `memo` holds the
    /// trees earlier materializations over this version of `doc`
    /// extracted, which this one shares and adds to.
    pub fn materialize(
        &mut self,
        doc: &Document,
        index: &NodeIndex,
        memo: &mut SubtreeMemo,
        set: &ViewSet,
        id: ViewId,
        byte_budget: usize,
    ) -> &MaterializedView {
        let pattern = &set.view(id).pattern;
        let roots = eval_bn(pattern, &doc.tree, index);
        let (fragments, _) = FragmentSet::materialize_shared(doc, &roots, byte_budget, memo);
        self.install(doc, id, fragments);
        &self.views[&id]
    }

    /// Access a materialized view.
    pub fn get(&self, id: ViewId) -> Option<&MaterializedView> {
        self.views.get(&id).map(|v| &**v)
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Total bytes across all views, in the per-view accounting the
    /// budget caps: a tree shared by several views is charged to each.
    pub fn total_bytes(&self) -> usize {
        self.views.values().map(|v| v.size_bytes()).sum()
    }

    /// [`MaterializedStore::total_bytes`] with each distinct fragment
    /// tree's heap counted once, however many views share it: what the
    /// store actually holds. Codes and local Dewey components stay per
    /// view, as they are stored.
    pub fn resident_bytes(&self) -> usize {
        let mut refs: HashMap<*const XmlTree, (usize, usize)> = HashMap::new();
        for mv in self.views.values() {
            for tree in mv.fragments.trees() {
                refs.entry(Arc::as_ptr(tree))
                    .or_insert_with(|| (tree.heap_size(), 0))
                    .1 += 1;
            }
        }
        let repeated: usize = refs.values().map(|&(heap, n)| heap * (n - 1)).sum();
        self.total_bytes() - repeated
    }

    /// Install an externally produced materialization (e.g. loaded from
    /// disk). The fragment set must belong to the same document the engine
    /// queries; [`load`](MaterializedStore::load) validates codes against
    /// the document's FST.
    pub fn install(&mut self, doc: &Document, id: ViewId, fragments: FragmentSet) {
        let local_dewey = fragments
            .trees()
            .iter()
            .map(|t| DeweyAssignment::assign(t, &doc.fst))
            .collect();
        self.views.insert(
            id,
            Arc::new(MaterializedView {
                view: id,
                fragments,
                local_dewey,
                generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            }),
        );
    }

    /// Persist all materialized views to `dir`, one file per view
    /// (`v0000.view`, …). The format is line-oriented: a header, the view's
    /// XPath, then one `code \t xml` line per fragment (newlines in text
    /// content are written as character references, so each fragment stays
    /// on one line and re-parses exactly).
    pub fn save(
        &self,
        views: &ViewSet,
        labels: &xvr_xml::LabelTable,
        dir: &Path,
    ) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for view in views.iter() {
            let Some(mv) = self.get(view.id) else {
                continue;
            };
            let path = dir.join(format!("v{:04}.view", view.id.index()));
            let mut out = io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(out, "# xvr-view v1 truncated={}", mv.fragments.truncated())?;
            writeln!(out, "{}", view.pattern.display(labels))?;
            for (code, tree) in mv.fragments.entries() {
                let xml = xvr_xml::serialize(tree, labels)
                    .replace('\r', "&#13;")
                    .replace('\n', "&#10;");
                writeln!(out, "{}\t{}", code, xml)?;
            }
        }
        Ok(())
    }

    /// Load view files from `dir`, registering each into `views` and
    /// installing its fragments. Labels are interned into `labels` (which
    /// must extend the document's table). Fragment codes are validated
    /// against the document's FST.
    pub fn load(
        &mut self,
        doc: &Document,
        views: &mut ViewSet,
        labels: &mut xvr_xml::LabelTable,
        dir: &Path,
    ) -> io::Result<Vec<ViewId>> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|e| e == "view").unwrap_or(false))
            .collect();
        paths.sort();
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut loaded = Vec::new();
        for path in paths {
            let file = io::BufReader::new(std::fs::File::open(&path)?);
            let mut lines = file.lines();
            let header = lines
                .next()
                .transpose()?
                .ok_or_else(|| bad(format!("{}: empty file", path.display())))?;
            let rest = header
                .strip_prefix("# xvr-view v1")
                .ok_or_else(|| bad(format!("{}: not an xvr view file", path.display())))?;
            // Strict field parse: `truncated=` guards whether a view may
            // serve *equivalent* rewrites, so a malformed value must be an
            // error, not a silent `false` (substring matching accepted
            // `truncated=truex` and treated a missing field as complete).
            let truncated = match rest
                .trim()
                .strip_prefix("truncated=")
                .map(str::trim_end)
            {
                Some("true") => true,
                Some("false") => false,
                _ => {
                    return Err(bad(format!(
                        "{}: malformed header {header:?} (expected '# xvr-view v1 truncated=true|false')",
                        path.display()
                    )))
                }
            };
            let xpath = lines
                .next()
                .transpose()?
                .ok_or_else(|| bad(format!("{}: missing view pattern", path.display())))?;
            let pattern = xvr_pattern::parse_pattern_with(&xpath, labels)
                .map_err(|e| bad(format!("{}: {e}", path.display())))?;
            let mut codes = Vec::new();
            let mut trees = Vec::new();
            for line in lines {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let (code_str, xml) = line
                    .split_once('\t')
                    .ok_or_else(|| bad(format!("{}: malformed fragment line", path.display())))?;
                let code: DeweyCode = code_str
                    .parse()
                    .map_err(|e| bad(format!("{}: bad code {code_str}: {e}", path.display())))?;
                // Validate provenance: the code must decode under the
                // document's FST and end at the fragment root's label.
                let decoded = doc.fst.decode(code.components()).ok_or_else(|| {
                    bad(format!("{}: code {code} does not decode", path.display()))
                })?;
                let tree = xvr_xml::parser::parse_tree_with(xml, labels)
                    .map_err(|e| bad(format!("{}: fragment XML: {e}", path.display())))?;
                if *decoded.last().unwrap() != tree.label(tree.root()) {
                    return Err(bad(format!(
                        "{}: code {code} decodes to a different label than the fragment root",
                        path.display()
                    )));
                }
                codes.push(code);
                trees.push(tree);
            }
            let fragments = FragmentSet::from_parts(codes, trees, truncated).map_err(|code| {
                bad(format!(
                    "{}: fragment code {code} is listed twice",
                    path.display()
                ))
            })?;
            let id = views.add(pattern);
            self.install(doc, id, fragments);
            loaded.push(id);
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_pattern::parse_pattern_with;
    use xvr_xml::samples::book_document;

    #[test]
    fn materializes_example_5_1_views() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let v1 = set.add(parse_pattern_with("//s[t]/p", &mut labels).unwrap());
        let v2 = set.add(parse_pattern_with("//s[p]/f", &mut labels).unwrap());
        let store = MaterializedStore::materialize_all(&doc, &set, usize::MAX);
        assert_eq!(store.get(v1).unwrap().fragments.len(), 8);
        assert_eq!(store.get(v2).unwrap().fragments.len(), 3);
        assert!(store.get(v1).unwrap().complete());
    }

    #[test]
    fn every_materialization_gets_a_fresh_generation() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let v1 = set.add(parse_pattern_with("//s[t]/p", &mut labels).unwrap());
        let v2 = set.add(parse_pattern_with("//f/i", &mut labels).unwrap());
        let mut store = MaterializedStore::materialize_all(&doc, &set, usize::MAX);
        let (g1, g2) = (
            store.get(v1).unwrap().generation(),
            store.get(v2).unwrap().generation(),
        );
        assert_ne!(g1, g2);
        // A clone shares the materializations, generations included.
        let copy = store.clone();
        assert_eq!(copy.get(v1).unwrap().generation(), g1);
        // Re-materializing, even to identical fragments, is a new one.
        let index = NodeIndex::build(&doc.tree, &doc.labels);
        store.materialize(&doc, &index, &mut SubtreeMemo::new(), &set, v1, usize::MAX);
        assert!(store.get(v1).unwrap().generation() > g2);
        assert_eq!(store.get(v2).unwrap().generation(), g2);
        assert_eq!(copy.get(v1).unwrap().generation(), g1);
    }

    #[test]
    fn global_codes_round_trip() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        // Materialize sections: fragments have inner structure.
        let v = set.add(parse_pattern_with("/b/s", &mut labels).unwrap());
        let store = MaterializedStore::materialize_all(&doc, &set, usize::MAX);
        let mv = store.get(v).unwrap();
        // Every fragment-internal node's global code must decode to its
        // label path within the original document.
        for (i, tree) in mv.fragments.trees().iter().enumerate() {
            for n in tree.iter() {
                let g = mv.global_code(i, n);
                let decoded = doc.fst.decode(g.components()).unwrap();
                let local_path = tree.label_path(n);
                assert_eq!(
                    &decoded[decoded.len() - local_path.len()..],
                    &local_path[..]
                );
            }
        }
    }

    #[test]
    fn budget_flags_incomplete() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let v = set.add(parse_pattern_with("//s", &mut labels).unwrap());
        let store = MaterializedStore::materialize_all(&doc, &set, 100);
        assert!(!store.get(v).unwrap().complete());
    }

    #[test]
    fn save_load_round_trip() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let v1 = set.add(parse_pattern_with("//s[t]/p", &mut labels).unwrap());
        let v2 = set.add(parse_pattern_with("//s[p]/f", &mut labels).unwrap());
        let store = MaterializedStore::materialize_all(&doc, &set, usize::MAX);
        let dir = std::env::temp_dir().join(format!("xvr-store-test-{}", std::process::id()));
        store.save(&set, &labels, &dir).unwrap();

        let mut labels2 = doc.labels.clone();
        let mut set2 = ViewSet::new();
        let mut store2 = MaterializedStore::new();
        let loaded = store2.load(&doc, &mut set2, &mut labels2, &dir).unwrap();
        assert_eq!(loaded.len(), 2);
        for (orig, new) in [(v1, loaded[0]), (v2, loaded[1])] {
            let a = store.get(orig).unwrap();
            let b = store2.get(new).unwrap();
            assert_eq!(a.fragments.len(), b.fragments.len());
            let codes_a: Vec<String> = a.fragments.codes().map(|c| c.to_string()).collect();
            let codes_b: Vec<String> = b.fragments.codes().map(|c| c.to_string()).collect();
            assert_eq!(codes_a, codes_b);
            for (ta, tb) in a.fragments.trees().iter().zip(b.fragments.trees().iter()) {
                assert_eq!(ta.len(), tb.len());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_codes() {
        let doc = book_document();
        let dir = std::env::temp_dir().join(format!("xvr-store-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v0000.view"),
            "# xvr-view v1 truncated=false\n//s/p\n0.0\t<p/>\n",
        )
        .unwrap();
        // Code 0.0 decodes to b/t, not a p — provenance check must fail.
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let mut store = MaterializedStore::new();
        let err = store.load(&doc, &mut set, &mut labels, &dir).unwrap_err();
        assert!(err.to_string().contains("different label"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a view file that lists one fragment code twice used to
    /// load, leaving a code arena that is not strictly sorted, which
    /// fragment lookups and the join's galloping rely on.
    #[test]
    fn load_rejects_duplicate_fragment_codes() {
        let doc = book_document();
        let dir = std::env::temp_dir().join(format!("xvr-store-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let load = |body: &str| {
            std::fs::write(dir.join("v0000.view"), body).unwrap();
            let mut labels = doc.labels.clone();
            let mut set = ViewSet::new();
            MaterializedStore::new().load(&doc, &mut set, &mut labels, &dir)
        };
        let header = "# xvr-view v1 truncated=false\n//s/p\n";
        load(&format!("{header}0.8.6.1\t<p/>\n")).unwrap();
        let err = load(&format!("{header}0.8.6.1\t<p/>\n0.8.6.1\t<p>x</p>\n")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("fragment code 0.8.6.1 is listed twice"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fragment_by_code() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let v = set.add(parse_pattern_with("//p", &mut labels).unwrap());
        let store = MaterializedStore::materialize_all(&doc, &set, usize::MAX);
        let mv = store.get(v).unwrap();
        for (i, code) in mv.fragments.codes().enumerate() {
            assert_eq!(mv.fragment_by_code(&code), Some(i));
        }
        assert_eq!(mv.fragment_by_code(&DeweyCode(vec![9, 9, 9])), None);
    }

    /// Regression: the loader used to detect truncation with
    /// `header.contains("truncated=true")`, so `truncated=truex`, a typoed
    /// field name, or a missing field all silently loaded as *complete*
    /// views — eligible for equivalent rewriting over an incomplete
    /// fragment set. Malformed headers must be rejected outright.
    #[test]
    fn load_rejects_malformed_truncated_header() {
        let doc = book_document();
        for (i, header) in [
            "# xvr-view v1 truncated=truex",
            "# xvr-view v1 truncated=maybe",
            "# xvr-view v1 trancated=true",
            "# xvr-view v1",
            "# xvr-view v1 truncated=",
        ]
        .iter()
        .enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("xvr-store-hdr-{}-{i}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join("v0000.view"),
                format!("{header}\n//s/p\n0.1.0\t<p/>\n"),
            )
            .unwrap();
            let mut labels = doc.labels.clone();
            let mut set = ViewSet::new();
            let mut store = MaterializedStore::new();
            let err = store.load(&doc, &mut set, &mut labels, &dir).unwrap_err();
            assert!(
                err.to_string().contains("malformed header"),
                "{header:?} must be rejected, got: {err}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Both header values survive a save/load round trip — a truncated
    /// view must stay flagged (and thus excluded from equivalent
    /// rewriting) after a restart.
    #[test]
    fn truncated_flag_round_trips_through_disk() {
        let doc = book_document();
        let mut labels = doc.labels.clone();
        let mut set = ViewSet::new();
        let complete = set.add(parse_pattern_with("//s[t]/p", &mut labels).unwrap());
        let truncated = set.add(parse_pattern_with("//s", &mut labels).unwrap());
        let index = NodeIndex::build(&doc.tree, &doc.labels);
        let mut store = MaterializedStore::new();
        let mut memo = SubtreeMemo::new();
        store.materialize(&doc, &index, &mut memo, &set, complete, usize::MAX);
        store.materialize(&doc, &index, &mut memo, &set, truncated, 100);
        assert!(store.get(complete).unwrap().complete());
        assert!(!store.get(truncated).unwrap().complete());
        let dir = std::env::temp_dir().join(format!("xvr-store-trunc-{}", std::process::id()));
        store.save(&set, &labels, &dir).unwrap();

        let mut labels2 = doc.labels.clone();
        let mut set2 = ViewSet::new();
        let mut store2 = MaterializedStore::new();
        let loaded = store2.load(&doc, &mut set2, &mut labels2, &dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(store2.get(loaded[0]).unwrap().complete());
        assert!(
            !store2.get(loaded[1]).unwrap().complete(),
            "truncation flag lost across save/load"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
