//! View catalog: patterns registered as materializable views, with their
//! decompositions pre-computed for VFILTER construction.

use std::sync::Arc;

use xvr_pattern::decompose::Decomposition;
use xvr_pattern::{decompose, minimize, normalize, PathPattern, TreePattern};

/// Identifier of a view within a [`ViewSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ViewId(pub u32);

impl ViewId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A registered view: its (minimized) pattern plus cached decomposition.
#[derive(Clone, Debug)]
pub struct View {
    /// The view's identifier.
    pub id: ViewId,
    /// The view definition (minimized on registration, as the paper
    /// assumes).
    pub pattern: TreePattern,
    /// Cached decomposition `D(V)`.
    pub decomposition: Decomposition,
    /// Normalized path patterns, parallel to `decomposition.paths`.
    pub normalized_paths: Vec<PathPattern>,
    /// Per-path required attribute-name signatures (see
    /// [`xvr_pattern::Decomposition::attr_required_masks`]).
    pub path_attr_masks: Vec<u64>,
}

impl View {
    /// `|D(V)|` — the number of distinct root-to-leaf paths.
    pub fn path_count(&self) -> usize {
        self.decomposition.len()
    }
}

/// An append-only catalog of views sharing one label space.
///
/// Each view sits behind its own [`Arc`], so cloning the catalog (as a
/// write under a live snapshot does) copies a table of pointers and shares
/// every registered view with the clone.
#[derive(Clone, Debug, Default)]
pub struct ViewSet {
    views: Vec<Arc<View>>,
}

impl ViewSet {
    /// Create an empty catalog.
    pub fn new() -> ViewSet {
        ViewSet::default()
    }

    /// Register a view pattern; it is minimized first (Section II).
    pub fn add(&mut self, pattern: TreePattern) -> ViewId {
        let id = ViewId(self.views.len() as u32);
        let pattern = minimize(&pattern);
        let decomposition = decompose(&pattern);
        assert!(
            decomposition.len() <= 64,
            "view patterns are limited to 64 distinct root-to-leaf paths"
        );
        let normalized_paths = decomposition.paths.iter().map(normalize).collect();
        let path_attr_masks = decomposition.attr_required_masks.clone();
        self.views.push(Arc::new(View {
            id,
            pattern,
            decomposition,
            normalized_paths,
            path_attr_masks,
        }));
        id
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Access a view.
    pub fn view(&self, id: ViewId) -> &View {
        &self.views[id.index()]
    }

    /// Iterate over all views.
    pub fn iter(&self) -> impl Iterator<Item = &View> {
        self.views.iter().map(|v| &**v)
    }

    /// Iterate over all view ids.
    pub fn ids(&self) -> impl Iterator<Item = ViewId> {
        (0..self.views.len() as u32).map(ViewId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_pattern::parse_pattern_with;
    use xvr_xml::LabelTable;

    #[test]
    fn add_and_lookup() {
        let mut labels = LabelTable::new();
        let mut set = ViewSet::new();
        let v1 = set.add(parse_pattern_with("/s[t]/p", &mut labels).unwrap());
        let v2 = set.add(parse_pattern_with("/s//f", &mut labels).unwrap());
        assert_eq!(set.len(), 2);
        assert_eq!(set.view(v1).path_count(), 2);
        assert_eq!(set.view(v2).path_count(), 1);
        assert_ne!(v1, v2);
    }

    #[test]
    fn registration_minimizes() {
        let mut labels = LabelTable::new();
        let mut set = ViewSet::new();
        let v = set.add(parse_pattern_with("/a[b][b]/c", &mut labels).unwrap());
        assert_eq!(set.view(v).pattern.len(), 3);
    }

    #[test]
    fn normalized_paths_are_normalized() {
        let mut labels = LabelTable::new();
        let mut set = ViewSet::new();
        let v = set.add(parse_pattern_with("/s/*//t", &mut labels).unwrap());
        let shown = set.view(v).normalized_paths[0].display(&labels).to_string();
        assert_eq!(shown, "/s//*//t");
    }
}
