//! # bionav-mesh — MeSH-style concept hierarchy substrate
//!
//! BioNav (ICDE 2009) organizes PubMed query results along the MeSH concept
//! hierarchy, a labeled tree of ~48,000 concept nodes maintained by the US
//! National Library of Medicine. This crate implements everything BioNav
//! needs from MeSH, from scratch:
//!
//! * [`TreeNumber`] — the dotted positional identifiers MeSH uses to encode
//!   a concept's location in the tree (e.g. `C04.557.337`),
//! * [`Descriptor`] — a MeSH descriptor (main heading) which may occupy
//!   several tree positions,
//! * [`ConceptHierarchy`] — an arena-allocated labeled tree (Definition 1 of
//!   the paper) with parent/child navigation, depth queries and subtree
//!   iteration,
//! * [`parser`] — a parser for the MeSH ASCII (`.bin`) descriptor format,
//! * [`xml`] — a parser for the MeSH XML descriptor format (`desc20XX.xml`,
//!   NLM's primary distribution), built on a small from-scratch XML-subset
//!   tokenizer, so a genuine MeSH release can be loaded either way,
//! * [`synth`] — a deterministic synthetic generator producing MeSH-scale
//!   hierarchies with the same bushy-at-the-top shape, used by the
//!   reproduction experiments in place of the (licensed) NLM data files.
//!
//! The hierarchy is deliberately read-only after construction: BioNav's
//! navigation trees are built per query *on top of* an immutable hierarchy
//! shared across sessions.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod concept;
mod error;
mod hierarchy;
pub mod parser;
pub mod synth;
mod treenum;
pub mod xml;

pub use concept::{Descriptor, DescriptorId};
pub use error::MeshError;
pub use hierarchy::{ConceptHierarchy, HierarchyBuilder, HierarchyColumns, NodeId, NodeRef};
pub use treenum::TreeNumber;
