//! Property suite pinning the live partitioner to the frozen oracle.
//!
//! [`partition_until_in`] binary-searches the M ladder and picks the
//! heaviest child from a heap; [`oracle`] is the partitioner as it was
//! before, walking the ladder rung by rung and rescanning the child list
//! with `max_by_key`. Over generated trees (random shapes, chains, stars
//! with fanout ≥ 500, small tied weights, overweight single nodes) this
//! suite asserts:
//!
//! 1. `partition_until_in` equals `oracle::partition_until` for every k;
//! 2. `partition_component_in` equals the oracle's single pass at
//!    arbitrary M, which tests the heap's tie rule on its own;
//! 3. the number of partitions never rises along the ladder, which is
//!    what makes the binary search exact;
//! 4. one reused [`NavScratch`] gives the same output as a fresh one.
//!
//! A deterministic star fixture also pins the pass count per run
//! (`edgecut::counters::cluster_passes`), so the search cannot quietly go
//! back to a linear walk.

use bionav_core::edgecut::counters;
use bionav_core::edgecut::partition::{
    oracle, partition_component, partition_component_in, partition_until, partition_until_in,
};
use bionav_core::scratch::NavScratch;
use bionav_core::{NavNodeId, NavigationTree};
use bionav_medline::{Citation, CitationId, CitationStore};
use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
use proptest::prelude::*;

/// The `k` values every property runs over.
const KS: [usize; 6] = [1, 2, 3, 5, 10, 14];

/// A generated concept hierarchy: a pre-order parent vector plus a
/// citation count per node.
#[derive(Debug, Clone)]
struct TreeSpec {
    /// `parents[i - 1]` is the parent of node `i` (node 0 is the root);
    /// always `< i`.
    parents: Vec<usize>,
    /// Citations annotated with node `i`'s descriptor.
    cites: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    Chain,
    /// The root carries every node: fanout ≥ 500.
    Star,
    /// Every node hangs below one of the first three: a few wide nodes.
    Broom,
}

fn tree_spec() -> impl Strategy<Value = TreeSpec> {
    (0u8..4, any::<bool>()).prop_flat_map(|(shape, tied)| {
        let shape = [Shape::Random, Shape::Chain, Shape::Star, Shape::Broom][shape as usize];
        let sizes = match shape {
            Shape::Star => 501usize..760,
            _ => 2usize..160,
        };
        sizes.prop_flat_map(move |n| {
            let parents = proptest::collection::vec(any::<usize>(), n - 1);
            // Tied loads draw 0..3 citations, which the partitioner floors
            // to weights 1..2; wide loads draw 0..40.
            let cites = proptest::collection::vec(if tied { 0u32..3 } else { 0u32..40 }, n);
            // A few overweight single nodes, far above W/k for small k.
            let heavy = proptest::collection::vec((any::<usize>(), 300u32..1500), 0..3usize);
            (parents, cites, heavy).prop_map(move |(draws, mut cites, heavy)| {
                let parents = draws
                    .iter()
                    .enumerate()
                    .map(|(j, &d)| {
                        let i = j + 1;
                        match shape {
                            Shape::Random => d % i,
                            Shape::Chain => i - 1,
                            Shape::Star => 0,
                            Shape::Broom => d % i.min(3),
                        }
                    })
                    .collect();
                if let Shape::Star = shape {
                    // Citation-free leaves are pruned from the navigation
                    // tree; keep every leaf so the fanout stays ≥ 500.
                    for c in cites.iter_mut().skip(1) {
                        *c = (*c).max(1);
                    }
                }
                for (at, c) in heavy {
                    let n = cites.len();
                    cites[at % n] = c;
                }
                TreeSpec { parents, cites }
            })
        })
    })
}

/// Materializes the spec as a real navigation tree via the MeSH + MEDLINE
/// pipeline (tree numbers encode the generated shape).
fn build_nav(spec: &TreeSpec) -> NavigationTree {
    let n = spec.parents.len() + 1;
    let mut tns: Vec<TreeNumber> = Vec::with_capacity(n);
    tns.push(TreeNumber::parse("A01").expect("root tree number"));
    let mut child_ord = vec![0usize; n];
    for i in 1..n {
        let p = spec.parents[i - 1];
        child_ord[p] += 1;
        tns.push(tns[p].child(&format!("{:03}", 100 + child_ord[p])));
    }
    let descs: Vec<Descriptor> = (0..n)
        .map(|i| {
            Descriptor::new(
                DescriptorId(i as u32 + 1),
                format!("concept-{i}"),
                vec![tns[i].clone()],
            )
        })
        .collect();
    let h = ConceptHierarchy::from_descriptors(&descs).expect("generated hierarchy is valid");

    let mut store = CitationStore::new();
    let mut results = Vec::new();
    let mut next = 1u32;
    let mut add = |concept: u32, store: &mut CitationStore, results: &mut Vec<CitationId>| {
        store
            .insert(Citation::new(
                CitationId(next),
                "t",
                vec![],
                vec![DescriptorId(concept)],
                vec![],
            ))
            .expect("fresh citation id");
        results.push(CitationId(next));
        next += 1;
    };
    for (i, &c) in spec.cites.iter().enumerate() {
        for _ in 0..c {
            add(i as u32 + 1, &mut store, &mut results);
        }
    }
    if results.is_empty() {
        // Degenerate all-zero draw: give the root one citation so the
        // navigation tree is non-empty.
        add(1, &mut store, &mut results);
    }
    NavigationTree::build(&h, &store, &results)
}

/// The component weight `W`, with the partitioner's `max(1, |R(n)|)`.
fn total_weight(nav: &NavigationTree, comp: &[NavNodeId]) -> u64 {
    comp.iter()
        .map(|&n| u64::from(nav.results_count(n)).max(1))
        .sum()
}

/// The thresholds the linear reduction loop visits, in order: `W/k`, then
/// 15% steps, the last rung capped at `W`.
fn ladder(total: u64, k: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let mut m = (total / k as u64).max(1);
    while m < total {
        out.push(m);
        m = (m + m / 7).max(m + 1);
    }
    out.push(total);
    out
}

/// The components every property runs over: the whole tree, and the
/// subtree of the root's widest child when it has one.
fn components(nav: &NavigationTree) -> Vec<Vec<NavNodeId>> {
    let mut out = vec![nav.iter_preorder().collect::<Vec<_>>()];
    if let Some(&wide) = nav
        .children(NavNodeId::ROOT)
        .iter()
        .max_by_key(|&&c| nav.children(c).len())
    {
        out.push(nav.subtree_nodes(wide));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1 (and 4): the ladder search equals the linear ladder for
    /// every k, with a reused arena and with a fresh one.
    #[test]
    fn ladder_search_matches_the_linear_oracle(spec in tree_spec()) {
        let nav = build_nav(&spec);
        if spec.parents.len() > 500 {
            let fanout = nav.iter_preorder().map(|n| nav.children(n).len()).max();
            prop_assert!(fanout >= Some(500), "star pruned to fanout {:?}", fanout);
        }
        let mut scratch = NavScratch::new();
        for comp in components(&nav) {
            for k in KS {
                let want = oracle::partition_until(&nav, &comp, k);
                let reused = partition_until_in(&nav, &comp, k, &mut scratch);
                prop_assert_eq!(&reused, &want, "k={} n={}", k, comp.len());
                prop_assert_eq!(&partition_until(&nav, &comp, k), &want, "fresh arena, k={}", k);
            }
        }
    }

    /// Property 2 (and 4): one heap-driven pass equals the oracle's
    /// rescanning pass at arbitrary thresholds, including every ladder
    /// rung, with a reused arena and with a fresh one.
    #[test]
    fn single_pass_matches_the_rescan_oracle(
        spec in tree_spec(),
        ms in proptest::collection::vec(0u64..4000, 6),
    ) {
        let nav = build_nav(&spec);
        let mut scratch = NavScratch::new();
        for comp in components(&nav) {
            let total = total_weight(&nav, &comp);
            let mut thresholds = ms.clone();
            thresholds.extend([0, 1, 2, total - 1, total, total + 1]);
            thresholds.extend(ladder(total, 3));
            for m in thresholds {
                let want = oracle::partition_component(&nav, &comp, m);
                let reused = partition_component_in(&nav, &comp, m, &mut scratch);
                prop_assert_eq!(&reused, &want, "M={} n={}", m, comp.len());
                prop_assert_eq!(&partition_component(&nav, &comp, m), &want, "fresh arena, M={}", m);
            }
        }
    }

    /// Property 3: the partition count never rises along the ladder, and
    /// the last rung always yields one partition.
    #[test]
    fn partition_count_never_rises_along_the_ladder(spec in tree_spec()) {
        let nav = build_nav(&spec);
        let mut scratch = NavScratch::new();
        for comp in components(&nav) {
            let total = total_weight(&nav, &comp);
            for k in KS {
                let mut prev = usize::MAX;
                for m in ladder(total, k) {
                    let count = partition_component_in(&nav, &comp, m, &mut scratch).len();
                    prop_assert!(count <= prev, "k={} M={} count {} after {}", k, m, count, prev);
                    prev = count;
                }
                prop_assert_eq!(prev, 1, "the last rung (M = W) keeps one cluster");
            }
        }
    }
}

/// A root with 600 unit-weight leaves: at `M = W/k` nearly every leaf is
/// detached, so the linear walk climbs most of the ladder.
fn star_fixture() -> NavigationTree {
    build_nav(&TreeSpec {
        parents: vec![0; 600],
        cites: vec![1; 601],
    })
}

#[test]
fn ladder_search_bounds_the_passes_per_run() {
    let nav = star_fixture();
    let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
    assert!(comp.len() > 500, "star fixture unexpectedly pruned");
    let total = total_weight(&nav, &comp);
    for k in [5usize, 10, 14] {
        let rungs = ladder(total, k);
        // The linear walk's pass count: up to and including the first rung
        // whose pass fits in k, or every rung.
        let linear = rungs
            .iter()
            .position(|&m| oracle::partition_component(&nav, &comp, m).len() <= k)
            .map_or(rungs.len(), |i| i + 1);
        assert!(
            linear >= 10,
            "k={k}: the fixture must make the linear walk take >= 10 passes, got {linear}"
        );
        let bound = rungs.len().next_power_of_two().trailing_zeros() as u64 + 1;

        let mut scratch = NavScratch::new();
        counters::reset();
        let parts = partition_until_in(&nav, &comp, k, &mut scratch);
        assert_eq!(counters::partition_runs(), 1);
        assert!(
            counters::cluster_passes() <= bound,
            "k={k}: {} passes over {} rungs (bound {bound}, linear {linear})",
            counters::cluster_passes(),
            rungs.len()
        );
        assert_eq!(parts, oracle::partition_until(&nav, &comp, k));
    }
}

#[test]
fn one_arena_serves_trees_of_different_sizes() {
    // A star, a chain and a small random tree through one arena, largest
    // first so later passes see stale capacity from earlier ones.
    let specs = [
        TreeSpec {
            parents: vec![0; 600],
            cites: (0..601).map(|i| i % 3).collect(),
        },
        TreeSpec {
            parents: (0..40).collect(),
            cites: (0..41).map(|i| (i * 7) % 11).collect(),
        },
        TreeSpec {
            parents: vec![0, 0, 1, 1, 2, 2, 3, 0, 5],
            cites: vec![0, 4, 4, 2, 9, 1, 1, 300, 2, 2],
        },
    ];
    let mut scratch = NavScratch::new();
    for spec in &specs {
        let nav = build_nav(spec);
        for comp in components(&nav) {
            for k in KS {
                assert_eq!(
                    partition_until_in(&nav, &comp, k, &mut scratch),
                    partition_until(&nav, &comp, k),
                    "k={k} n={}",
                    comp.len()
                );
            }
        }
    }
}
