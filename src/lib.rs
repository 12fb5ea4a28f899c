//! # BioNav — facade crate
//!
//! Re-exports the whole BioNav system behind one dependency:
//!
//! * [`mesh`] — MeSH-style concept hierarchy (tree numbers, parser,
//!   synthetic generator),
//! * [`medline`] — MEDLINE-style citation store with a keyword inverted
//!   index and concept associations,
//! * [`core`] — navigation trees, active trees, the EdgeCut cost model and
//!   the Opt-EdgeCut / Heuristic-ReducedOpt algorithms,
//! * [`workload`] — the calibrated Table I query workload used by the
//!   ICDE 2009 evaluation.
//!
//! See `examples/quickstart.rs` for an end-to-end tour. The README's code
//! example is compiled as a doctest below.
#![doc = include_str!("../README.md")]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use bionav_core as core;
pub use bionav_medline as medline;
pub use bionav_mesh as mesh;
pub use bionav_workload as workload;
