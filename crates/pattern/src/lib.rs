//! Tree-pattern substrate for the XPath view-rewriting system.
//!
//! Implements the XPath fragment the paper studies — child axis `/`,
//! descendant axis `//`, wildcard `*`, and branches `[...]` — as *tree
//! patterns* (Section II of the paper), together with every pattern-level
//! algorithm the contribution builds on:
//!
//! * a parser and printer for the fragment ([`parse`]),
//! * root-to-leaf **decomposition** `D(Q)` ([`decompose`](mod@decompose)),
//! * path-pattern **normalization** `N(P)` ([`normalize`](mod@normalize),
//!   Section III-C),
//! * **homomorphism** enumeration between tree patterns ([`hom`]),
//! * **containment** tests: the PTIME homomorphism test plus a complete
//!   canonical-model decision procedure for small patterns ([`containment`]),
//! * tree-pattern **minimization** ([`minimize`](mod@minimize)),
//! * **evaluation** engines over documents: one sparse evaluator seeded by
//!   a pre-order walk or by the node index (`BN`), path-index assisted
//!   (`BF`), and a Dewey-code holistic twig join ([`eval`](mod@eval),
//!   [`holistic`]),
//! * a YFilter-style random **query generator** ([`generator`]),
//! * structural **similarity** and deterministic workload clustering
//!   ([`similarity`](mod@similarity)).

pub mod containment;
pub mod decompose;
pub mod eval;
pub mod generator;
pub mod holistic;
pub mod hom;
pub mod minimize;
pub mod normalize;
pub mod parse;
pub mod paths;
pub mod pattern;
pub mod similarity;

pub use containment::{
    contains, contains_complete, equivalent, equivalent_complete, intersection_contains,
    try_contains_complete,
};
pub use decompose::{decompose, Decomposition};
pub use eval::{
    eval, eval_anchored, eval_anchored_in, eval_bn, eval_restricted, eval_restricted_in,
    matches_anchored, matches_anchored_in, matches_boolean, EvalScratch,
};
pub use generator::{
    distinct_patterns, distinct_positive_patterns, relax, QueryConfig, QueryGenerator,
};
pub use holistic::{eval_bf, twig_join};
pub use hom::{exists_hom, homomorphisms, homomorphisms_capped, Hom};
pub use minimize::minimize;
pub use normalize::{is_normalized, normalize};
pub use parse::{parse_pattern, parse_pattern_in, parse_pattern_with, PatternParseError};
pub use paths::{path_contains, path_contains_anchored, PathPattern, PathSymbol, Step};
pub use pattern::{AttrPred, Axis, PLabel, PNode, PNodeId, TreePattern};
pub use similarity::{cluster, similarity};
