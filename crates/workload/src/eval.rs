//! The §VIII evaluation: runs every workload query through the static
//! baseline and BioNav's Heuristic-ReducedOpt navigation, collecting the
//! Table I statistics and the Fig 8–11 measurements.

use bionav_core::baseline::{simulate_static, simulate_static_paged};
use bionav_core::sim::{simulate_bionav, BioNavRun, NavOutcome};
use bionav_core::stats::{NavTreeStats, TargetStats};
use bionav_core::CostParams;

use crate::build::Workload;

/// One row of Table I, as measured on the realized workload.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The keyword query.
    pub keywords: String,
    /// Navigation-tree shape statistics.
    pub tree: NavTreeStats,
    /// Target-concept statistics.
    pub target: TargetStats,
    /// The target's concept label.
    pub target_label: String,
}

/// Everything the evaluation measures for one query.
#[derive(Debug, Clone)]
pub struct QueryEval {
    /// Query name (spec identifier).
    pub name: String,
    /// Measured Table I row.
    pub table1: Table1Row,
    /// Static navigation cost (all children revealed per expand) — Fig 8/9.
    pub static_outcome: NavOutcome,
    /// Paged GoPubMed-style static cost (top-10 + `more`) — footnote 2.
    pub paged_outcome: NavOutcome,
    /// BioNav navigation: cost plus per-EXPAND telemetry — Figs 8–11.
    pub bionav: BioNavRun,
}

impl QueryEval {
    /// Fig 8's improvement: `1 − bionav/static` on interaction cost.
    pub fn improvement(&self) -> f64 {
        let stat = self.static_outcome.interaction_cost() as f64;
        if stat == 0.0 {
            return 0.0;
        }
        1.0 - self.bionav.outcome.interaction_cost() as f64 / stat
    }

    /// Mean Heuristic-ReducedOpt time per EXPAND (Fig 10).
    pub fn mean_expand_time(&self) -> std::time::Duration {
        if self.bionav.trace.is_empty() {
            return std::time::Duration::ZERO;
        }
        let total: std::time::Duration = self.bionav.trace.iter().map(|t| t.elapsed).sum();
        total / self.bionav.trace.len() as u32
    }
}

/// Evaluates a single query by name.
///
/// # Panics
/// Panics on unknown names (workload construction guarantees the rest).
pub fn evaluate_query(workload: &Workload, name: &str, params: &CostParams) -> QueryEval {
    #[expect(
        clippy::panic,
        reason = "documented panic contract of this fn (see `# Panics` above); callers iterate the workload's own query names"
    )]
    let prepared = workload
        .query(name)
        .unwrap_or_else(|| panic!("unknown query {name:?}"));
    let run = workload.run_query(name);
    let table1 = Table1Row {
        keywords: prepared.spec.keywords.clone(),
        tree: NavTreeStats::compute(&run.nav),
        target: TargetStats::compute(
            &run.nav,
            run.target,
            workload.store.global_count(prepared.target_descriptor),
        ),
        target_label: prepared.spec.target.label.clone(),
    };
    let static_outcome = simulate_static(&run.nav, &[run.target]);
    let paged_outcome = simulate_static_paged(&run.nav, &[run.target], 10);
    let bionav = simulate_bionav(&run.nav, params, &[run.target]);
    QueryEval {
        name: name.to_string(),
        table1,
        static_outcome,
        paged_outcome,
        bionav,
    }
}

/// Evaluates every query of the workload, in specification order.
pub fn evaluate(workload: &Workload, params: &CostParams) -> Vec<QueryEval> {
    workload
        .queries
        .iter()
        .map(|q| evaluate_query(workload, &q.spec.name, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::WorkloadConfig;
    use crate::spec::paper_queries;

    fn eval_tiny() -> Vec<QueryEval> {
        let w = Workload::build(&WorkloadConfig {
            queries: paper_queries().into_iter().take(4).collect(),
            ..WorkloadConfig::test_size()
        });
        evaluate(&w, &CostParams::default())
    }

    #[test]
    fn evaluation_covers_every_query() {
        let evals = eval_tiny();
        assert_eq!(evals.len(), 4);
        for e in &evals {
            assert!(e.static_outcome.expands >= 1, "{}", e.name);
            assert!(e.table1.tree.tree_size > 0);
        }
    }

    #[test]
    fn bionav_wins_on_average() {
        // The paper's average improvement is 85%; at test scale the trees
        // are much smaller and less bushy, so just require a positive mean
        // improvement — the full-scale shape test lives in EXPERIMENTS.md /
        // the reproduce harness.
        let evals = eval_tiny();
        let mean: f64 = evals.iter().map(QueryEval::improvement).sum::<f64>() / evals.len() as f64;
        assert!(mean > 0.0, "mean improvement {mean} should be positive");
    }

    #[test]
    fn trace_lengths_match_expand_counts() {
        for e in eval_tiny() {
            assert_eq!(e.bionav.trace.len(), e.bionav.outcome.expands);
            for t in &e.bionav.trace {
                assert!(t.reduced_size <= CostParams::default().max_partitions);
            }
        }
    }

    #[test]
    fn mean_expand_time_of_an_empty_trace_is_zero() {
        let mut evals = eval_tiny();
        let mut e = evals.remove(0);
        e.bionav.trace.clear();
        assert_eq!(e.mean_expand_time(), std::time::Duration::ZERO);
    }

    #[test]
    fn paged_static_is_bounded_by_plain_static() {
        // Footnote 2 argues paging does not change the *relative* picture:
        // `more` clicks are paid actions. Paging can only help when the
        // oracle path ranks inside the first page at every level, and it
        // can never beat one label per expand.
        for e in eval_tiny() {
            let plain = e.static_outcome.interaction_cost();
            let paged = e.paged_outcome.interaction_cost();
            assert!(paged <= plain, "{}: paged {paged} vs plain {plain}", e.name);
            assert!(
                paged >= 2 * e.static_outcome.expands,
                "{}: paged floor",
                e.name
            );
        }
    }
}
