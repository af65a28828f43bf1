//! XML substrate for the XPath view-rewriting system.
//!
//! This crate implements every base facility the paper's system sits on:
//!
//! * an arena-based unordered-tree **data model** ([`XmlTree`], [`Document`]),
//! * a hand-written **parser** and **serializer** for the XML subset the data
//!   model covers ([`parse_document`], [`serialize`]),
//! * the **extended Dewey encoding** of Lu et al. (VLDB 2005) together with
//!   the **finite state transducer** that decodes a code back into the
//!   label-path from the root ([`dewey`], [`Fst`]),
//! * **element and path indexes** used by the paper's `BN`/`BF` evaluation
//!   baselines ([`NodeIndex`], [`PathIndex`]),
//! * a deterministic **XMark-like document generator** standing in for the
//!   XMark dataset of the paper's evaluation ([`generator`]),
//! * a **materialized-fragment store** with serialized-size accounting used
//!   for the paper's 128 KB-per-view cap ([`fragment`]), and
//! * the paper's running example documents ([`samples`]).
//!
//! Nothing in this crate knows about tree patterns or views; those live in
//! `xvr-pattern` and `xvr-core`.

pub mod dewey;
pub mod error;
pub mod flat;
pub mod fragment;
pub mod fst;
pub mod generator;
pub mod index;
pub mod label;
pub mod parser;
pub mod samples;
pub mod serializer;
pub mod stats;
pub mod tree;

pub use dewey::{DeweyAssignment, DeweyCode};
pub use error::ParseError;
pub use flat::{encode_code, flat_cmp, flat_is_prefix, CmpStats, FlatCodes};
pub use fragment::{fragment_footprint, FragmentSet, MaterializeStats, SubtreeMemo};
pub use fst::Fst;
pub use index::{NodeIndex, PathIndex};
pub use label::{Label, LabelTable};
pub use parser::parse_document;
pub use serializer::serialize;
pub use stats::DocStats;
pub use tree::{CodeStability, Document, NodeId, XmlTree};
