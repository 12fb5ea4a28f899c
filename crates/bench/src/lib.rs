//! # bionav-bench — the reproduction harness
//!
//! Regenerates every table and figure of the BioNav evaluation (§VIII) plus
//! the ablations called out in `DESIGN.md`. The `reproduce` binary prints
//! the same rows/series the paper reports and *checks the shapes* — who
//! wins, by roughly what factor — exiting non-zero when a headline shape
//! inverts. Criterion benches (`benches/`) cover the latency side.
//!
//! ```text
//! cargo run -p bionav-bench --release --bin reproduce -- all --scale 0.5
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod experiments;
pub mod report;

use bionav_core::CostParams;
use bionav_workload::{evaluate_query, QueryEval, Workload, WorkloadConfig};

/// Builds the evaluation workload at the given scale (1.0 = paper scale:
/// 48k-node hierarchy, full Table I result sizes).
pub fn build_workload(scale: f64) -> Workload {
    build_workload_with(scale, false)
}

/// Like [`build_workload`], optionally deriving the citation↔concept
/// associations through the §VII crawl (the deployed system's data path)
/// instead of the generator's ground truth.
pub fn build_workload_with(scale: f64, crawl_associations: bool) -> Workload {
    let mut cfg = if (scale - 1.0).abs() < f64::EPSILON {
        WorkloadConfig::full()
    } else {
        WorkloadConfig::scaled(scale)
    };
    cfg.crawl_associations = crawl_associations;
    Workload::build(&cfg)
}

/// Evaluates every workload query in parallel on at most
/// `min(available_parallelism, queries)` scoped threads, preserving
/// specification order. Results are identical to
/// `bionav_workload::evaluate` — navigation is deterministic — but the pass
/// completes in roughly the wall-clock of the slowest queries instead of
/// the sum.
pub fn evaluate_parallel(workload: &Workload, params: &CostParams) -> Vec<QueryEval> {
    evaluate_parallel_counted(workload, params).0
}

/// [`evaluate_parallel`] plus the Opt-EdgeCut DP work of the whole pass:
/// the upper prefixes the solver scored
/// ([`counters::dp_prefixes`](bionav_core::edgecut::counters::dp_prefixes)).
/// The counter is per thread, so each task reads its own worker's delta
/// and the deltas are summed; the sum is clock-free and deterministic.
/// A panicking evaluation propagates out of the worker's join.
pub fn evaluate_parallel_counted(
    workload: &Workload,
    params: &CostParams,
) -> (Vec<QueryEval>, u64) {
    use bionav_core::edgecut::counters;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let queries = &workload.queries;
    let next = AtomicUsize::new(0);
    let mut rows: Vec<(usize, QueryEval, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..default_workers(queries.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut rows = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out distinct task
                        // indices; the rows flow back through join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else { break rows };
                        let before = counters::dp_prefixes();
                        let eval = evaluate_query(workload, &q.spec.name, params);
                        rows.push((i, eval, counters::dp_prefixes() - before));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    rows.sort_unstable_by_key(|&(i, _, _)| i);
    let work = rows.iter().map(|&(_, _, dp)| dp).sum();
    (rows.into_iter().map(|(_, eval, _)| eval).collect(), work)
}

/// Default worker count for bench drivers: the machine's parallelism (4
/// when the platform cannot tell), capped by the task count (and at least
/// one).
pub fn default_workers(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, usize::from)
        .min(tasks)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_workload::paper_queries;

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let w = Workload::build(&WorkloadConfig {
            queries: paper_queries().into_iter().take(4).collect(),
            ..WorkloadConfig::test_size()
        });
        let params = CostParams::default();
        let seq = bionav_workload::evaluate(&w, &params);
        let par = evaluate_parallel(&w, &params);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.bionav.outcome.interaction_cost(),
                b.bionav.outcome.interaction_cost()
            );
            assert_eq!(
                a.static_outcome.interaction_cost(),
                b.static_outcome.interaction_cost()
            );
            assert_eq!(a.table1.tree, b.table1.tree);
        }
    }
}
