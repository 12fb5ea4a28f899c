//! Criterion benches for the serving engine: the tree-cache hit path vs
//! the tree-build miss path.
//!
//! Scale via `BIONAV_BENCH_SCALE` (default 0.25).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use bionav_bench::build_workload;
use bionav_core::engine::Engine;
use bionav_core::{CostParams, NavigationTree, SharedTree};
use bionav_workload::Workload;

fn bench_scale() -> f64 {
    std::env::var("BIONAV_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

fn make_engine(
    workload: &Workload,
) -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync + '_> {
    Engine::new(
        |query: &str| {
            let outcome = workload.index.query(query);
            if outcome.citations.is_empty() {
                return None;
            }
            Some(Arc::new(NavigationTree::build(
                &workload.hierarchy,
                &workload.store,
                &outcome.citations,
            )))
        },
        CostParams::default(),
        workload.queries.len().max(1),
    )
}

/// The cache hit path (shared `Arc` clone) vs the miss path (full
/// navigation-tree build).
fn bench_tree_cache(c: &mut Criterion) {
    let workload = build_workload(bench_scale());
    let query = workload.queries[0].spec.keywords.clone();
    let mut group = c.benchmark_group("serve_tree_cache");
    group.sample_size(10);

    let engine = make_engine(&workload);
    engine.tree_for(&query); // prime
    group.bench_with_input(BenchmarkId::new("hit", "q0"), &query, |b, q| {
        b.iter(|| engine.tree_for(black_box(q)));
    });

    group.bench_with_input(BenchmarkId::new("miss", "q0"), &query, |b, q| {
        // A fresh engine per lookup so every lookup is a miss; the engine
        // is built in untimed setup, so the sample is the miss path alone
        // (keyword query + skeleton build + insert), not engine
        // construction.
        b.iter_with_setup(
            || make_engine(&workload),
            |engine| {
                engine.tree_for(black_box(q));
            },
        );
    });
    group.finish();
}

criterion_group!(benches, bench_tree_cache);
criterion_main!(benches);
