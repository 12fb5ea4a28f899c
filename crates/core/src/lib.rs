//! # bionav-core — the BioNav navigation engine
//!
//! This crate implements the primary contribution of *"BioNav: Effective
//! Navigation on Query Results of Biomedical Databases"* (ICDE 2009): a
//! navigation method over large query results organized along a concept
//! hierarchy, where every node expansion reveals the cost-optimal set of
//! *descendant* concepts (an **EdgeCut**) instead of all children.
//!
//! The pipeline, mirroring the paper's section structure:
//!
//! 1. **Navigation tree** ([`navtree`], §II Definitions 1–2): query-result
//!    citations are attached to their hierarchy positions and the hierarchy
//!    is reduced to its *maximum embedding* — the smallest tree preserving
//!    ancestry in which every non-root node carries results.
//! 2. **Active tree** ([`active`], §II Definitions 3–5): the state of a
//!    navigation. Component subtrees are split by valid EdgeCuts; the
//!    visualization shows only component roots with distinct-citation
//!    counts.
//! 3. **Cost model** ([`cost`], [`prob`], §III–IV): the expected TOPDOWN
//!    navigation cost, driven by EXPLORE (selectivity × inverse global
//!    frequency) and EXPAND (threshold + entropy) probabilities.
//! 4. **Algorithms** ([`edgecut`], §VI): the exponential [`edgecut::opt`]
//!    dynamic program, the [`edgecut::partition`] tree partitioner, and
//!    [`edgecut::heuristic`] (Heuristic-ReducedOpt) which reduces a
//!    component to ≤ k supernodes and solves that exactly.
//! 5. **Baseline & evaluation** ([`baseline`], [`sim`], §VIII): the static
//!    GoPubMed-style navigation and the oracle-user simulator producing the
//!    paper's navigation-cost metrics.
//! 6. **Sessions** ([`session`], §VII): the interactive EXPAND /
//!    SHOWRESULTS / IGNORE / BACKTRACK loop of the online system.
//! 7. **Complexity artifacts** ([`complexity`], §V): the MAXIMUM EDGE
//!    SUBGRAPH → TOPDOWN-EXHAUSTIVE decision problem reduction, executable
//!    and property-tested.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod active;
pub mod admission;
pub mod baseline;
mod bitset;
pub mod breaker;
pub mod complexity;
pub mod cost;
pub mod edgecut;
pub mod engine;
pub mod fault;
pub mod navtree;
pub mod prob;
pub mod scratch;
pub mod session;
pub mod shard;
pub mod sim;
pub mod slo;
pub mod stats;
pub(crate) mod sync;
pub mod telemetry;
pub mod trace;

pub use active::{ActiveTree, EdgeCut, EdgeCutError, VisNode};
pub use admission::{AdmissionGate, ShedReason};
pub use bitset::CitSet;
pub use breaker::{Breaker, BreakerDecision, BreakerState};
pub use cost::{CostParams, Planner};
pub use engine::{
    DegradePolicy, DegradeReason, Engine, EngineError, ExpandReply, ServeStats, SessionId,
    SharedTree,
};
pub use fault::{FailSite, Fault, FaultPlan};
pub use navtree::{NavNodeId, NavigationTree};
pub use scratch::NavScratch;
pub use shard::{ShardSessionId, ShardedEngine};
pub use slo::{Slo, SloBurn, SloVerb, SLOS};
pub use trace::flightrec::{FlightRecord, RequestCtx, Verb};
pub use trace::{Stage, StageStat};

/// SplitMix64 finalizer, the crate's one deterministic bit mixer: it
/// finishes the ring hash in [`shard`], spreads the breaker's probe jitter
/// in [`breaker`], and draws the failpoint coins in [`fault`]. The ring
/// layout must not move between releases, so the constants are frozen
/// (pinned by a golden test in `shard.rs`).
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
