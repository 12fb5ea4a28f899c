//! # bionav-medline — MEDLINE-style citation substrate
//!
//! The BioNav system (ICDE 2009) runs on top of PubMed/MEDLINE: a keyword
//! query is executed through the Entrez `ESearch` utility, the matching
//! citation ids come back, and a pre-computed associations table maps every
//! citation to the MeSH concepts it is annotated/indexed with. The original
//! system stored those associations (747 million `⟨concept, citationId⟩`
//! tuples, denormalized per citation) in an Oracle 10i database.
//!
//! This crate provides a faithful, self-contained stand-in:
//!
//! * [`Citation`] / [`CitationId`] — a biomedical citation with searchable
//!   terms and its MeSH concept associations (the ~20 MEDLINE annotations
//!   plus the wider ~90-concept PubMed indexing the paper prefers),
//! * [`CitationStore`] — the "BioNav database": citations, the denormalized
//!   citation→concepts associations table, and per-concept global citation
//!   counts (the `|LT(n)|` statistic the EXPLORE probability needs),
//! * [`InvertedIndex`] — a keyword index executing conjunctive queries,
//!   playing the role of Entrez `ESearch`,
//! * [`corpus`] — a deterministic synthetic corpus generator for examples
//!   and tests (the evaluation workload builds its own calibrated corpora
//!   on the same APIs),
//! * [`etl`] — the §VII off-line pre-processing pipeline: a rate-limited
//!   crawl that infers citation↔concept associations by querying every
//!   concept label, then denormalizes the tuple table per citation.
//!
//! Stores round-trip through JSON (`serde`) so the "off-line pre-processing"
//! stage of the paper's architecture can be materialized to disk.
//!
//! ```
//! use bionav_medline::{Citation, CitationId, CitationStore, InvertedIndex};
//! use bionav_mesh::DescriptorId;
//!
//! let mut store = CitationStore::new();
//! store.insert(Citation::new(
//!     CitationId(1),
//!     "Prothymosin alpha in apoptosis",
//!     vec!["prothymosin".into(), "apoptosis".into()],
//!     vec![DescriptorId(17209)],
//!     vec![],
//! )).unwrap();
//!
//! let index = InvertedIndex::build(&store);
//! assert_eq!(index.query("Prothymosin apoptosis").citations, vec![CitationId(1)]);
//! assert_eq!(store.associations(CitationId(1)), &[DescriptorId(17209)]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod citation;
pub mod corpus;
pub mod etl;
mod index;
mod store;

pub use citation::{Citation, CitationId};
pub use index::{normalize_phrase, tokenize, InvertedIndex, QueryOutcome};
pub use store::{CitationStore, StoreError};
