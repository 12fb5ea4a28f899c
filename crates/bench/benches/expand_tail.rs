//! Tail-latency benches for the single-pass EXPAND pipeline (ISSUE 2).
//!
//! The serve bench showed p99 EXPAND latency ~130× p50; the culprits were
//! the two-pass plan pipeline (partition + solve twice per planned
//! expansion) and throwaway solver memos. This bench pins down the two
//! paths that now make up the tail:
//!
//! * `fresh/*`   — one full single-pass `plan_component_with` (partition,
//!   reduced-problem build, exact solve, plan retention) on the *largest*
//!   workload components, through a reused scratch arena exactly like a
//!   session's hot path;
//! * `retained/*` — a follow-up `ReducedPlan::cut` on the plan produced by
//!   the fresh pass, i.e. the §VI-B memo-lookup path that must cost
//!   microseconds, not a re-solve;
//! * `reference/*` — the kept-for-test two-pass pipeline on the same
//!   components, the pre-optimization baseline the fresh path replaced.
//!
//! Scale via `BIONAV_BENCH_SCALE` (default 0.25; 1.0 = paper scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bionav_bench::build_workload;
use bionav_core::edgecut::heuristic::{plan_component, plan_component_with, reference};
use bionav_core::{CostParams, NavNodeId, NavScratch};

fn bench_scale() -> f64 {
    std::env::var("BIONAV_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// The workload queries with the largest initial components — the ones
/// whose EXPANDs populate the serve bench's tail: 2,895 and 1,377 nodes
/// at the default 0.25 scale, 13,078 and 5,967 at paper scale.
const TAIL_QUERIES: [&str; 2] = ["follistatin", "vardenafil"];

/// A fresh single-pass EXPAND plan (partition + build + solve + retain)
/// through a reused scratch arena, as a session performs it.
fn bench_fresh(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let params = CostParams::default();
    let mut group = c.benchmark_group("expand_tail/fresh");
    for name in TAIL_QUERIES {
        let run = workload.run_query(name);
        let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
        let mut scratch = NavScratch::new();
        group.bench_with_input(BenchmarkId::from_parameter(name), &comp, |b, comp| {
            b.iter(|| {
                plan_component_with(black_box(&run.nav), black_box(comp), &params, &mut scratch)
            });
        });
    }
    group.finish();
}

/// A retained-plan EXPAND: answering a sub-component cut from the memo the
/// fresh solve left behind (zero partitionings, zero fresh solves).
fn bench_retained(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let params = CostParams::default();
    let mut group = c.benchmark_group("expand_tail/retained");
    for name in TAIL_QUERIES {
        let run = workload.run_query(name);
        let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
        let Some((_, Some((plan, first)))) = plan_component(&run.nav, &comp, &params) else {
            panic!("{name}: tail component must produce a retained plan");
        };
        // The follow-up mask a session would ask about next: the upper
        // component left behind by the first cut (fall back to the full
        // mask if the first cut consumed everything below the root).
        let mask = if first.upper_mask.count_ones() > 1 {
            first.upper_mask
        } else {
            plan.full_mask()
        };
        // Warm the memo the way serving does: the fresh solve already
        // visited every sub-component, so this is the steady state.
        let _ = plan.cut(mask, &params);
        group.bench_with_input(BenchmarkId::from_parameter(name), &mask, |b, &mask| {
            b.iter(|| plan.cut(black_box(mask), &params));
        });
    }
    group.finish();
}

/// The historical two-pass pipeline on the same components — the baseline
/// whose tail the single-pass path cuts.
fn bench_reference(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let params = CostParams::default();
    let mut group = c.benchmark_group("expand_tail/reference");
    for name in TAIL_QUERIES {
        let run = workload.run_query(name);
        let comp: Vec<NavNodeId> = run.nav.iter_preorder().collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &comp, |b, comp| {
            b.iter(|| reference::plan_component(black_box(&run.nav), black_box(comp), &params));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fresh, bench_retained, bench_reference);
criterion_main!(benches);
