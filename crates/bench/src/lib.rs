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
#![forbid(unsafe_code)]

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

/// Evaluates every workload query in parallel on a **bounded** worker pool
/// (at most `min(available_parallelism, queries)` OS threads — a scaled
/// workload with thousands of queries no longer spawns a thread apiece),
/// preserving specification order. Results are identical to
/// `bionav_workload::evaluate` — navigation is deterministic — but the pass
/// completes in roughly the wall-clock of the slowest queries instead of
/// the sum.
pub fn evaluate_parallel(workload: &Workload, params: &CostParams) -> Vec<QueryEval> {
    let tasks: Vec<&str> = workload
        .queries
        .iter()
        .map(|q| q.spec.name.as_str())
        .collect();
    bionav_core::engine::pool::scoped_map(tasks.len(), default_workers(tasks.len()), |i| {
        evaluate_query(workload, tasks[i], params)
    })
    .into_iter()
    .map(|slot| match slot {
        Ok(eval) => eval,
        // The pool isolates per-task panics (DESIGN.md §5f); for this
        // offline driver a lost query is fatal, so surface it loudly
        // instead of silently dropping the row.
        // lint: allow(no-unwrap) — offline bench driver: a lost evaluation row must abort the run
        Err(p) => panic!("evaluation of query #{} panicked: {}", p.task, p.message),
    })
    .collect()
}

/// Logical cores of this host (`available_parallelism`; 4 when the
/// platform cannot tell). Serving reports record it as provenance.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Default worker count for bench drivers: the machine's parallelism,
/// capped by the task count (and at least one).
pub fn default_workers(tasks: usize) -> usize {
    host_cores().min(tasks).max(1)
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
