//! VFILTER: the NFA over normalized view path patterns (Section III-B).
//!
//! The automaton is a trie over path steps with shared prefixes. A
//! `//`-axis step routes through a *hub* state carrying a self-loop that
//! accepts every symbol (labels, `*`, and `#`) — the ε-transition + self-loop
//! construction of Figure 5. Reading the `STR` form of a (normalized) query
//! path, the automaton reports every accepting state reached **at any point
//! of the input**, which realizes boolean path containment: a view path
//! `P_f` accepts a query path `P` iff `P ⊑ P_f` (the paper models the same
//! effect with self-loops on accepting states).
//!
//! Transition semantics (Section III-B): a trie edge labelled `l` matches
//! only input symbol `l`; an edge labelled `*` matches any label symbol
//! (including input `*`) but not `#`; input `#` is consumed only by hub
//! self-loops.

use std::collections::HashMap;

use xvr_pattern::paths::PathSymbol;
use xvr_pattern::{Axis, PLabel, PathPattern};
use xvr_xml::Label;

use crate::view::ViewId;

/// State index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct StateId(u32);

/// Trie edge label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Sym {
    Lab(Label),
    Star,
}

/// Payload of an accepting state: which view path ends here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AcceptEntry {
    /// Owning view.
    pub view: ViewId,
    /// Index of the path within the view's decomposition.
    pub path_idx: u32,
    /// Number of steps (labels) of the view path — the paper's "length".
    pub path_len: u32,
    /// Bloom signature of the attribute names this view path requires
    /// (Section VII's "incorporate attributes into VFILTER" extension;
    /// `0` when the path has no attribute predicates).
    pub attr_mask: u64,
}

#[derive(Clone, Debug, Default)]
struct State {
    trans: HashMap<Sym, StateId>,
    /// ε-target with a universal self-loop, created for `//`-axis steps.
    hub: Option<StateId>,
    /// True for hub states: they stay active on every input symbol.
    is_hub: bool,
    accepts: Vec<AcceptEntry>,
}

/// The VFILTER automaton.
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<State>,
}

impl Default for Nfa {
    fn default() -> Nfa {
        Nfa::new()
    }
}

impl Nfa {
    /// Create an empty automaton (start state only).
    pub fn new() -> Nfa {
        Nfa {
            states: vec![State::default()],
        }
    }

    fn start(&self) -> StateId {
        StateId(0)
    }

    fn alloc(&mut self, is_hub: bool) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State {
            is_hub,
            ..State::default()
        });
        id
    }

    /// Insert a **normalized** view path pattern, associating its accepting
    /// state with `entry`. Prefixes are shared with previously inserted
    /// paths.
    pub fn insert(&mut self, path: &PathPattern, entry: AcceptEntry) {
        let mut cur = self.start();
        for step in path.steps() {
            if step.axis == Axis::Descendant {
                cur = match self.states[cur.0 as usize].hub {
                    Some(h) => h,
                    None => {
                        let h = self.alloc(true);
                        self.states[cur.0 as usize].hub = Some(h);
                        h
                    }
                };
            }
            let sym = match step.label {
                PLabel::Wild => Sym::Star,
                PLabel::Lab(l) => Sym::Lab(l),
            };
            cur = match self.states[cur.0 as usize].trans.get(&sym) {
                Some(&next) => next,
                None => {
                    let next = self.alloc(false);
                    self.states[cur.0 as usize].trans.insert(sym, next);
                    next
                }
            };
        }
        self.states[cur.0 as usize].accepts.push(entry);
    }

    /// Number of states (including the start state and hubs).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of trie transitions (self-loops and ε-edges not counted).
    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.trans.len()).sum()
    }

    /// Approximate serialized size in bytes: per state a header plus its
    /// transitions, hub link, and accept entries. This is the quantity the
    /// paper's Figure 11 tracks (there: the Berkeley DB database size).
    pub fn serialized_size(&self) -> usize {
        let mut bytes = 0usize;
        for s in &self.states {
            bytes += 8; // state header (id + flags)
            bytes += s.trans.len() * 9; // symbol (4) + target (4) + tag (1)
            if s.hub.is_some() {
                bytes += 4;
            }
            bytes += s.accepts.len() * 20; // view (4) + path idx (4) + len (4) + attr mask (8)
        }
        bytes
    }

    /// Read the `STR` form of a (normalized) query path and invoke `on_hit`
    /// for every accepting entry reached at any point of the input.
    /// Returns the number of state activations performed — the automaton
    /// work done for this path, reported as the
    /// [`FilterNfaStates`](crate::metrics::Counter::FilterNfaStates)
    /// observability counter.
    ///
    /// `on_hit` may fire more than once for the same entry; callers
    /// aggregate (the filtering algorithm keeps sets).
    pub fn run<F: FnMut(&AcceptEntry)>(&self, symbols: &[PathSymbol], mut on_hit: F) -> u64 {
        let mut touched: u64 = 0;
        let mut active = StateSet::new(self.states.len());
        let mut next = StateSet::new(self.states.len());
        touched += self.activate(self.start(), &mut active, &mut on_hit);
        for &sym in symbols {
            next.clear();
            for &s in &active.members {
                let st = &self.states[s.0 as usize];
                // Hub self-loop: stays active on any symbol (re-announce is
                // harmless; acceptance is recorded on activation only).
                if st.is_hub && next.insert(s) {
                    touched += 1;
                }
                match sym {
                    PathSymbol::Lab(l) => {
                        if let Some(&t) = st.trans.get(&Sym::Lab(l)) {
                            touched += self.activate(t, &mut next, &mut on_hit);
                        }
                        if let Some(&t) = st.trans.get(&Sym::Star) {
                            touched += self.activate(t, &mut next, &mut on_hit);
                        }
                    }
                    PathSymbol::Star => {
                        if let Some(&t) = st.trans.get(&Sym::Star) {
                            touched += self.activate(t, &mut next, &mut on_hit);
                        }
                    }
                    PathSymbol::Hash => {
                        // Only hub self-loops survive a '#'.
                    }
                }
            }
            std::mem::swap(&mut active, &mut next);
            if active.members.is_empty() {
                break;
            }
        }
        touched
    }

    /// Activate a state: record acceptance, follow the ε-edge to its hub.
    /// Returns the number of states newly activated (1 or 2 per call).
    fn activate<F: FnMut(&AcceptEntry)>(
        &self,
        s: StateId,
        set: &mut StateSet,
        on_hit: &mut F,
    ) -> u64 {
        let mut touched = 0;
        if set.insert(s) {
            touched += 1;
            for e in &self.states[s.0 as usize].accepts {
                on_hit(e);
            }
            if let Some(h) = self.states[s.0 as usize].hub {
                touched += self.activate(h, set, on_hit);
            }
        }
        touched
    }
}

/// A set of active states: its members in activation order, plus a bitmap
/// over every state of the automaton for constant-time membership.
struct StateSet {
    members: Vec<StateId>,
    bits: Vec<u64>,
}

impl StateSet {
    fn new(states: usize) -> StateSet {
        StateSet {
            members: Vec::with_capacity(8),
            bits: vec![0; states.div_ceil(64)],
        }
    }

    /// Add `s`; false when it is already a member.
    fn insert(&mut self, s: StateId) -> bool {
        let (word, bit) = (s.0 as usize / 64, 1u64 << (s.0 % 64));
        if self.bits[word] & bit != 0 {
            return false;
        }
        self.bits[word] |= bit;
        self.members.push(s);
        true
    }

    /// Empty the set. Every set bit belongs to a member, so zeroing the
    /// members' words clears the bitmap.
    fn clear(&mut self) {
        for s in self.members.drain(..) {
            self.bits[s.0 as usize / 64] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_pattern::{normalize, parse_pattern_with, PathPattern};
    use xvr_xml::LabelTable;

    fn path(src: &str, labels: &mut LabelTable) -> PathPattern {
        let t = parse_pattern_with(src, labels).unwrap();
        normalize(&PathPattern::try_from(&t).unwrap())
    }

    /// Build an NFA over the given view paths (one path per "view").
    fn nfa_of(paths: &[&str], labels: &mut LabelTable) -> Nfa {
        let mut nfa = Nfa::new();
        for (i, src) in paths.iter().enumerate() {
            let p = path(src, labels);
            nfa.insert(
                &p,
                AcceptEntry {
                    view: ViewId(i as u32),
                    path_idx: 0,
                    path_len: p.len() as u32,
                    attr_mask: 0,
                },
            );
        }
        nfa
    }

    fn accepted(nfa: &Nfa, query: &PathPattern) -> Vec<u32> {
        let mut hits = std::collections::BTreeSet::new();
        nfa.run(&query.symbols(), |e| {
            hits.insert(e.view.0);
        });
        hits.into_iter().collect()
    }

    #[test]
    fn agrees_with_path_containment() {
        let mut labels = LabelTable::new();
        let views = [
            "/s/t", "/s/p", "/s//f", "/s/f//i", "/s//*/t", "//b", "/b/*", "//*/c", "/a/b/c",
            "/a//c", "/*",
        ];
        let queries = [
            "/s/t", "/s/p/t", "/s/s/t", "/s//t", "/s/f/i", "/s/f/x/i", "/s/*//t", "/b", "/a/b",
            "//b", "/b/x", "/a/b/c", "/a/x/c", "//c", "/a/b/c/d", "/*/c", "//*", "/s//*/t",
        ];
        let nfa = nfa_of(&views, &mut labels);
        for qsrc in queries {
            let q = path(qsrc, &mut labels);
            let got = accepted(&nfa, &q);
            let want: Vec<u32> = views
                .iter()
                .enumerate()
                .filter(|(_, vsrc)| {
                    let v = path(vsrc, &mut labels);
                    xvr_pattern::path_contains(&v, &q)
                })
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "query {qsrc}");
        }
    }

    #[test]
    fn example_3_4_reading() {
        // Views of Table I, decomposed paths of Table II.
        let mut labels = LabelTable::new();
        let mut nfa = Nfa::new();
        let table_ii: &[(&str, &[(u32, u32)])] = &[
            ("/s/t", &[(1, 0)]),          // P1 from V1
            ("/s/p", &[(1, 1), (3, 0)]),  // P2 from V1, V3... (V3 = s/p)
            ("/s//*//t", &[(2, 0)]),      // P3 from V2 (normalized s/*//t)
            ("/s//f", &[(2, 1), (4, 1)]), // P4
            ("/s/p/*", &[(3, 0)]),
            ("/s/f//i", &[(2, 2)]),
            ("/s//p", &[(4, 0)]),
        ];
        for (src, owners) in table_ii {
            let p = path(src, &mut labels);
            for &(view, idx) in owners.iter() {
                nfa.insert(
                    &p,
                    AcceptEntry {
                        view: ViewId(view),
                        path_idx: idx,
                        path_len: p.len() as u32,
                        attr_mask: 0,
                    },
                );
            }
        }
        // Query path s/f//i (w1): must reach paths contained in it.
        let w1 = path("/s/f//i", &mut labels);
        let mut hit = std::collections::BTreeSet::new();
        nfa.run(&w1.symbols(), |e| {
            hit.insert((e.view.0, e.path_idx));
        });
        // s/f//i ⊑ s//f and s/f//i itself and s//p? no: last label i.
        assert!(hit.contains(&(2, 1)) && hit.contains(&(4, 1)), "{hit:?}");
        assert!(hit.contains(&(2, 2)));
        assert!(!hit.contains(&(1, 0)));
    }

    #[test]
    fn prefix_sharing_reduces_states() {
        let mut labels = LabelTable::new();
        let shared = nfa_of(&["/a/b/c", "/a/b/d", "/a/b/e"], &mut labels);
        let solo = nfa_of(&["/a/b/c"], &mut labels);
        // Shared trie: 1 start + a + b + {c,d,e} = 6 states, vs 4 for one.
        assert_eq!(solo.state_count(), 4);
        assert_eq!(shared.state_count(), 6);
        assert_eq!(shared.transition_count(), 5);
    }

    #[test]
    fn hubs_are_shared_too() {
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["/a//b", "/a//c"], &mut labels);
        // start, a, hub, b, c.
        assert_eq!(nfa.state_count(), 5);
    }

    #[test]
    fn hash_only_matches_hubs() {
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["/a/b"], &mut labels);
        let q = path("/a//b", &mut labels);
        assert!(accepted(&nfa, &q).is_empty(), "/a/b must not contain /a//b");
        let nfa2 = nfa_of(&["/a//b"], &mut labels);
        assert_eq!(accepted(&nfa2, &q), vec![0]);
    }

    #[test]
    fn star_edge_does_not_match_hash() {
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["/a/*/b"], &mut labels);
        let q = path("/a//b", &mut labels);
        assert!(accepted(&nfa, &q).is_empty());
    }

    #[test]
    fn acceptance_mid_input() {
        // Boolean containment: /s contains /s/anything.
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["/s"], &mut labels);
        let q = path("/s/x/y//z", &mut labels);
        assert_eq!(accepted(&nfa, &q), vec![0]);
    }

    #[test]
    fn no_spurious_continuation_after_accept() {
        // Views /s and /s/p: query /s/x/p is contained in /s but NOT /s/p.
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["/s", "/s/p"], &mut labels);
        let q = path("/s/x/p", &mut labels);
        assert_eq!(accepted(&nfa, &q), vec![0]);
    }

    #[test]
    fn each_state_is_active_once_per_step() {
        // States of //a//b: start, its hub h1, a, a's hub h2, b. On the
        // second `a`, h2 is re-entered through a's ε-edge and kept by its
        // own self-loop; it must count, and later fire, only once.
        let mut labels = LabelTable::new();
        let nfa = nfa_of(&["//a//b"], &mut labels);
        let q = path("/a/a/b", &mut labels);
        let mut hits = 0;
        let touched = nfa.run(&q.symbols(), |_| hits += 1);
        // Activations: start, h1; then h1, a, h2; again h1, a, h2; then
        // h1, h2, b.
        assert_eq!(touched, 2 + 3 + 3 + 3);
        assert_eq!(hits, 1);
    }

    #[test]
    fn size_grows_sublinearly_with_shared_prefixes() {
        let mut labels = LabelTable::new();
        let mut paths = Vec::new();
        let names: Vec<String> = (0..26).map(|i| format!("l{i}")).collect();
        for a in &names {
            for b in &names[..5] {
                paths.push(format!("/root/{a}/{b}"));
            }
        }
        let path_refs: Vec<&str> = paths.iter().map(|s| s.as_str()).collect();
        let nfa = nfa_of(&path_refs, &mut labels);
        // 1 + 1 (root) + 26 + 26*5 states.
        assert_eq!(nfa.state_count(), 2 + 26 + 130);
        assert!(nfa.serialized_size() > 0);
    }
}
