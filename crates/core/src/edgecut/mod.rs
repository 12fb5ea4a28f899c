//! Algorithms for selecting the best EdgeCut (paper §VI).
//!
//! Choosing the expected-cost-minimizing valid EdgeCut is NP-complete
//! (§V; see [`crate::complexity`]), so BioNav ships two solvers:
//!
//! * [`opt`] — **Opt-EdgeCut**: an exact dynamic program over component
//!   subtrees, exponential in the tree size and therefore only feasible for
//!   small trees (the paper calls it infeasible beyond ~30 nodes; we cap it
//!   via [`crate::CostParams::max_opt_nodes`]).
//! * [`partition`] — a bottom-up tree partitioner in the style of Kundu &
//!   Misra, used to shrink a component to at most `k` connected
//!   *supernodes*.
//! * [`heuristic`] — **Heuristic-ReducedOpt**: partition the component,
//!   solve the reduced supernode tree exactly with Opt-EdgeCut, and map the
//!   winning cut back onto original navigation-tree edges.

pub mod heuristic;
pub mod opt;
pub mod partition;

pub use heuristic::{heuristic_reduced_opt, ExpandOutcome};
pub use opt::{CutProblem, SolveCache};
pub use partition::{partition_component, partition_until, Partition};

/// Thread-local instrumentation counters for the EXPAND pipeline.
///
/// The single-pass planning contract (ISSUE 2) is *load-bearing*: a fresh
/// EXPAND must run exactly one [`partition_until`] loop and one reduced
/// solve, and a retained-plan EXPAND must run zero partitionings. These
/// counters let tests assert that contract without instrumenting release
/// structures — they are `thread_local` `Cell`s, so they cost two
/// increments on the hot path, add no locking, and keep every navigation
/// type `Send + Sync` (the counters live in thread-local statics, not in
/// any struct).
pub mod counters {
    use std::cell::Cell;

    thread_local! {
        static PARTITION_RUNS: Cell<u64> = const { Cell::new(0) };
        static CLUSTER_PASSES: Cell<u64> = const { Cell::new(0) };
        static CLUSTER_NODES: Cell<u64> = const { Cell::new(0) };
        static DP_PREFIXES: Cell<u64> = const { Cell::new(0) };
        static PLAN_SOLVES: Cell<u64> = const { Cell::new(0) };
    }

    /// Resets every counter for the current thread.
    pub fn reset() {
        PARTITION_RUNS.with(|c| c.set(0));
        CLUSTER_PASSES.with(|c| c.set(0));
        CLUSTER_NODES.with(|c| c.set(0));
        DP_PREFIXES.with(|c| c.set(0));
        PLAN_SOLVES.with(|c| c.set(0));
    }

    /// Number of `partition_until` pipeline runs on this thread since the
    /// last [`reset`]. Each run covers the whole threshold search, so one
    /// fresh plan counts as exactly one run.
    pub fn partition_runs() -> u64 {
        PARTITION_RUNS.with(|c| c.get())
    }

    /// Number of bottom-up clustering passes on this thread since the last
    /// [`reset`], summed over every `partition_until` run and single
    /// `partition_component` call. A run binary-searches its threshold
    /// ladder, so it takes at most `⌈log₂ rungs⌉ + 1` passes; tests pin
    /// that bound.
    pub fn cluster_passes() -> u64 {
        CLUSTER_PASSES.with(|c| c.get())
    }

    /// Nodes visited by clustering passes on this thread since the last
    /// [`reset`], summed over passes: each pass sweeps its run's heavy
    /// view once, so this is the clock-free measure of partition work.
    pub fn cluster_nodes() -> u64 {
        CLUSTER_NODES.with(|c| c.get())
    }

    /// Upper prefixes the Opt-EdgeCut solver scored on this thread since
    /// the last [`reset`], over exact and myopic solves alike: the
    /// clock-free measure of DP work, which grows exponentially with the
    /// reduced tree's size.
    pub fn dp_prefixes() -> u64 {
        DP_PREFIXES.with(|c| c.get())
    }

    /// Number of fresh reduced-problem solves on this thread since the
    /// last [`reset`]. Retained-plan cuts served from the memo do not
    /// count.
    pub fn plan_solves() -> u64 {
        PLAN_SOLVES.with(|c| c.get())
    }

    pub(crate) fn note_partition_run() {
        PARTITION_RUNS.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn note_cluster_pass(nodes: usize) {
        CLUSTER_PASSES.with(|c| c.set(c.get() + 1));
        CLUSTER_NODES.with(|c| c.set(c.get() + nodes as u64));
    }

    pub(crate) fn note_dp_prefixes(prefixes: usize) {
        DP_PREFIXES.with(|c| c.set(c.get() + prefixes as u64));
    }

    pub(crate) fn note_plan_solve() {
        PLAN_SOLVES.with(|c| c.set(c.get() + 1));
    }
}
