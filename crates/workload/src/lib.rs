//! # bionav-workload — the ICDE 2009 evaluation workload
//!
//! The paper evaluates BioNav on ten real PubMed queries (Table I), chosen
//! with biomedical collaborators to span broad exploratory searches
//! (`prothymosin`, spread over many research fields) and narrowly targeted
//! ones (`vardenafil`), with a designated *target concept* per query that an
//! oracle user navigates to.
//!
//! MEDLINE and the Entrez utilities are not available offline, so this
//! crate synthesizes, deterministically, a corpus whose *statistical
//! surface* matches Table I: per-query result sizes, topical clustering
//! (citations concentrate on a few hot research areas plus a long tail),
//! wide PubMed-style concept indexing (~tens of concepts per citation,
//! ancestors included — the source of the paper's duplicate counts), pinned
//! target concepts at the right MeSH levels with the right attached/global
//! citation counts.
//!
//! * [`spec`] — the ten query specifications, with the calibration targets
//!   taken (or, where the scan is garbled, plausibly reconstructed — see
//!   `EXPERIMENTS.md`) from Table I;
//! * [`build`] — turns specifications into a hierarchy + citation store +
//!   keyword index ([`Workload`]), at full or reduced scale;
//! * [`eval`] — runs the §VIII evaluation: static vs BioNav navigation
//!   cost (Figs 8–9), expansion timings (Figs 10–11), Table I statistics;
//! * [`openloop`] — Poisson/Zipf/Markov open-loop arrival schedules for
//!   driving the serving tier (navbench's `wire_openloop`).
//!
//! ```
//! use bionav_workload::{Workload, WorkloadConfig};
//!
//! // A reduced-scale realization of all ten Table I queries.
//! let workload = Workload::build(&WorkloadConfig::test_size());
//! let run = workload.run_query("prothymosin");
//! assert!(run.result_size > 0);
//! assert_eq!(run.nav.label(run.target), "Histones"); // the pinned target
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod build;
pub mod eval;
pub mod openloop;
pub mod spec;

pub use build::{PreparedQuery, QueryRun, Workload, WorkloadConfig};
pub use eval::{evaluate, evaluate_query, QueryEval, Table1Row};
pub use openloop::{OpenLoopConfig, SessionOp, SessionPlan, SessionStep};
pub use spec::{paper_queries, QuerySpec, TargetSpec};
