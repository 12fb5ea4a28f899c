//! Property tests over randomized navigation trees: maximum-embedding
//! invariants, EdgeCut validity, partition covering, planner consistency
//! and simulation termination.

use std::collections::BTreeSet;

use bionav::core::active::{ActiveTree, EdgeCut};
use bionav::core::edgecut::heuristic::heuristic_reduced_opt;
use bionav::core::edgecut::opt::CutProblem;
use bionav::core::edgecut::partition::partition_until;
use bionav::core::sim::simulate_bionav;
use bionav::core::{CostParams, NavNodeId, NavigationTree};
use bionav::medline::corpus::{self, CorpusConfig};
use bionav::medline::{CitationId, CitationStore};
use bionav::mesh::synth::{self, SynthConfig};
use bionav::mesh::ConceptHierarchy;
use proptest::prelude::*;

/// Random end-to-end instances: a synthetic hierarchy plus a corpus whose
/// whole citation set is the "query result".
fn instance(
    seed: u64,
    hierarchy_size: usize,
    n_citations: usize,
) -> (ConceptHierarchy, CitationStore, NavigationTree) {
    let hierarchy = synth::generate(&SynthConfig::small(seed, hierarchy_size))
        .expect("synthetic hierarchies build");
    let store = corpus::generate(
        &hierarchy,
        &CorpusConfig {
            seed: seed ^ 0xABCD,
            n_citations,
            mean_annotations: 5,
            mean_indexed: 12,
            zipf_s: 0.9,
        },
    );
    let results: Vec<CitationId> = store.iter().map(|c| c.id).collect();
    let nav = NavigationTree::build(&hierarchy, &store, &results);
    (hierarchy, store, nav)
}

fn params() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..1000, 20usize..150, 20usize..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn maximum_embedding_invariants((seed, hs, nc) in params()) {
        let (hierarchy, _store, nav) = instance(seed, hs, nc);
        for n in nav.iter_preorder() {
            if n != NavNodeId::ROOT {
                // Definition 2: no node with an empty results list survives.
                prop_assert!(nav.results_count(n) > 0, "node {} empty", n.0);
            }
            // Ancestry is preserved: the navigation parent embeds a proper
            // hierarchy ancestor (or the root).
            if let Some(p) = nav.parent(n) {
                let hp = nav.hierarchy_node(p);
                let hn = nav.hierarchy_node(n);
                prop_assert!(
                    p == NavNodeId::ROOT || hierarchy.is_ancestor(hp, hn),
                    "embedding broke ancestry"
                );
            }
        }
        // Every citation attached below the root is in the root's subtree set.
        let mut union = bionav::core::CitSet::new(nav.universe());
        for n in nav.iter_preorder() {
            union.union_with(&nav.results(n));
        }
        prop_assert_eq!(union.count(), nav.subtree_distinct(NavNodeId::ROOT));
    }

    #[test]
    fn heuristic_cuts_are_always_valid_and_terminate((seed, hs, nc) in params()) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        let mut active = ActiveTree::new(&nav);
        let cost = CostParams::default();
        let mut steps = 0usize;
        loop {
            let Some(root) = nav
                .iter_preorder()
                .find(|&n| active.is_visible(n) && active.component_size(&nav, n) > 1)
            else {
                break;
            };
            let out = heuristic_reduced_opt(&nav, &active, root, &cost)
                .expect("multi-node components expand");
            prop_assert!(!out.cut.is_empty());
            // validate() is exactly Definition 3; expand() would reject too.
            prop_assert!(active.validate(&nav, root, &out.cut).is_ok());
            active.expand(&nav, root, &out.cut).expect("validated");
            steps += 1;
            prop_assert!(steps <= nav.len() * 2, "no termination");
        }
        for n in nav.iter_preorder() {
            prop_assert!(active.is_visible(n));
        }
    }

    #[test]
    fn component_sizes_always_partition_the_tree((seed, hs, nc) in params()) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        let mut active = ActiveTree::new(&nav);
        let cost = CostParams::default();
        for _ in 0..4 {
            let Some(root) = nav
                .iter_preorder()
                .find(|&n| active.is_visible(n) && active.component_size(&nav, n) > 1)
            else {
                break;
            };
            let out = heuristic_reduced_opt(&nav, &active, root, &cost).expect("expands");
            active.expand(&nav, root, &out.cut).expect("valid");
            let total: usize = nav
                .iter_preorder()
                .filter(|&n| active.is_visible(n))
                .map(|n| active.component_size(&nav, n))
                .sum();
            prop_assert_eq!(total, nav.len());
        }
    }

    #[test]
    fn partitions_cover_and_respect_k((seed, hs, nc) in params()) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for k in [2usize, 5, 10] {
            let parts = partition_until(&nav, &comp, k);
            prop_assert!(parts.len() <= k);
            let mut members: Vec<NavNodeId> =
                parts.iter().flat_map(|p| p.nodes.iter().copied()).collect();
            members.sort();
            let mut expected = comp.clone();
            expected.sort();
            prop_assert_eq!(members, expected);
            prop_assert_eq!(parts[0].root, NavNodeId::ROOT);
        }
    }

    #[test]
    fn visualization_shows_exactly_component_roots((seed, hs, nc) in params()) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        let mut active = ActiveTree::new(&nav);
        let cost = CostParams::default();
        for _ in 0..3 {
            let Some(root) = nav
                .iter_preorder()
                .find(|&n| active.is_visible(n) && active.component_size(&nav, n) > 1)
            else {
                break;
            };
            let out = heuristic_reduced_opt(&nav, &active, root, &cost).expect("expands");
            active.expand(&nav, root, &out.cut).expect("valid");
        }
        let vis = active.visualize(&nav);
        let shown: Vec<NavNodeId> = vis.iter().map(|v| v.node).collect();
        let roots: Vec<NavNodeId> =
            nav.iter_preorder().filter(|&n| active.is_visible(n)).collect();
        prop_assert_eq!(shown, roots);
        // Visualization parents are themselves visible.
        for v in &vis {
            if let Some(p) = v.parent {
                prop_assert!(active.is_visible(p));
            }
        }
    }

    #[test]
    fn expanded_components_never_grow((seed, hs, nc) in params()) {
        // Fig 2b→2c of the paper: after expanding a node, its displayed
        // count (the distinct citations of its shrunken upper component)
        // never increases, and lower components show subsets of what the
        // expanded component held.
        let (_h, _s, nav) = instance(seed, hs, nc);
        let mut active = ActiveTree::new(&nav);
        let cost = CostParams::default();
        for _ in 0..5 {
            let Some(root) = nav
                .iter_preorder()
                .find(|&n| active.is_visible(n) && active.component_size(&nav, n) > 1)
            else {
                break;
            };
            let before = active.component_distinct(&nav, root);
            let before_set = active.component_set(&nav, root);
            let out = heuristic_reduced_opt(&nav, &active, root, &cost).expect("expands");
            active.expand(&nav, root, &out.cut).expect("valid");
            prop_assert!(active.component_distinct(&nav, root) <= before);
            for &lower in out.cut.lower_roots() {
                let lower_set = active.component_set(&nav, lower);
                prop_assert_eq!(
                    lower_set.intersect_count(&before_set),
                    lower_set.count(),
                    "lower components hold subsets of the expanded component"
                );
            }
        }
    }

    #[test]
    fn oracle_reaches_random_targets((seed, hs, nc) in params(), pick in 0usize..1000) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        if nav.len() <= 1 {
            return Ok(());
        }
        let target = NavNodeId((1 + pick % (nav.len() - 1)) as u32);
        let run = simulate_bionav(&nav, &CostParams::default(), &[target]);
        prop_assert_eq!(run.outcome.expands, run.trace.len());
        prop_assert_eq!(
            run.outcome.revealed,
            run.trace.iter().map(|t| t.revealed).sum::<usize>()
        );
    }
}

/// Brute-force component reads over the whole `component_root_of` map:
/// the members of `root`'s component in pre-order, and their citations.
fn oracle_component(
    nav: &NavigationTree,
    active: &ActiveTree,
    root: NavNodeId,
) -> (Vec<NavNodeId>, BTreeSet<usize>) {
    let members: Vec<NavNodeId> = nav
        .iter_preorder()
        .filter(|&n| active.component_root_of(n) == root)
        .collect();
    let cites = members
        .iter()
        .flat_map(|&n| nav.results(n).iter().collect::<Vec<_>>())
        .collect();
    (members, cites)
}

/// Whether `a` lies on `n`'s root path (or is `n`), by parent walk.
fn on_root_path(nav: &NavigationTree, a: NavNodeId, mut n: NavNodeId) -> bool {
    loop {
        if n == a {
            return true;
        }
        match nav.parent(n) {
            Some(p) => n = p,
            None => return false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The component reads walk only the root's pre-order range and jump
    /// over holes; random EdgeCut sequences — cuts inside components that
    /// earlier cuts left, so holes nest and sit under holes — must leave
    /// every read equal to a brute-force scan of the whole map, and every
    /// subtree fold equal to a parent-walk oracle.
    #[test]
    fn component_reads_match_a_brute_force_oracle_under_random_cuts(
        (seed, hs, nc) in params(),
        picks in proptest::collection::vec((0usize..1_000_000, 0usize..1_000_000, 1usize..4), 1..8),
    ) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        let mut active = ActiveTree::new(&nav);
        for (root_pick, node_pick, width) in picks {
            let roots: Vec<NavNodeId> = nav
                .iter_preorder()
                .filter(|&n| active.is_visible(n) && active.component_size(&nav, n) > 1)
                .collect();
            if roots.is_empty() {
                break;
            }
            let root = roots[root_pick % roots.len()];
            let (members, _) = oracle_component(&nav, &active, root);
            // Up to `width` non-root members, kept only while they form an
            // antichain: a valid EdgeCut.
            let mut cut: Vec<NavNodeId> = Vec::new();
            for j in 0..width {
                let c = members[1 + (node_pick / (j + 1)) % (members.len() - 1)];
                if cut.iter().all(|&k| !on_root_path(&nav, k, c) && !on_root_path(&nav, c, k)) {
                    cut.push(c);
                }
            }
            active.expand(&nav, root, &EdgeCut::new(cut)).expect("antichain cuts are valid");

            for n in nav.iter_preorder().filter(|&n| active.is_visible(n)) {
                let (members, cites) = oracle_component(&nav, &active, n);
                prop_assert_eq!(active.component_nodes(&nav, n), members.clone());
                prop_assert_eq!(active.component_size(&nav, n), members.len());
                prop_assert_eq!(active.component_distinct(&nav, n) as usize, cites.len());
                let set: BTreeSet<usize> = active.component_set(&nav, n).iter().collect();
                prop_assert_eq!(set, cites);
            }
            for row in active.visualize(&nav) {
                let (members, cites) = oracle_component(&nav, &active, row.node);
                prop_assert_eq!(row.component_distinct as usize, cites.len());
                prop_assert_eq!(row.expandable, members.len() > 1);
            }
        }
        for n in nav.iter_preorder() {
            let below: BTreeSet<usize> = nav
                .iter_preorder()
                .filter(|&m| on_root_path(&nav, n, m))
                .flat_map(|m| nav.results(m).iter().collect::<Vec<_>>())
                .collect();
            prop_assert_eq!(nav.subtree_distinct(n) as usize, below.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_antichain_cuts_are_accepted_and_others_rejected(
        (seed, hs, nc) in params(),
        picks in proptest::collection::vec(0usize..1_000_000, 1..6),
    ) {
        let (_h, _s, nav) = instance(seed, hs, nc);
        if nav.len() < 3 {
            return Ok(());
        }
        let active = ActiveTree::new(&nav);
        // Build a random *valid* cut of the root component: pick nodes, then
        // drop any that is an ancestor or descendant of an earlier pick.
        let mut cut_nodes: Vec<NavNodeId> = Vec::new();
        for p in &picks {
            let candidate = NavNodeId((1 + p % (nav.len() - 1)) as u32);
            let related = cut_nodes.iter().any(|&c| {
                c == candidate
                    || nav.is_ancestor(c, candidate)
                    || nav.is_ancestor(candidate, c)
            });
            if !related {
                cut_nodes.push(candidate);
            }
        }
        prop_assert!(!cut_nodes.is_empty());
        let cut = EdgeCut::new(cut_nodes.clone());
        prop_assert!(active.validate(&nav, NavNodeId::ROOT, &cut).is_ok());
        // Every antichain violation must be rejected.
        for &c in &cut_nodes {
            if let Some(child) = nav.children(c).first().copied() {
                let mut nested = cut_nodes.clone();
                nested.push(child);
                let bad = EdgeCut::new(nested);
                prop_assert!(
                    active.validate(&nav, NavNodeId::ROOT, &bad).is_err(),
                    "nested edge accepted"
                );
            }
        }
        // Applying the valid cut yields exactly cut_nodes.len() + 1 visible
        // roots and preserves the node partition.
        let mut applied = active.clone();
        applied.expand(&nav, NavNodeId::ROOT, &cut).expect("validated");
        let visible = nav.iter_preorder().filter(|&n| applied.is_visible(n)).count();
        prop_assert_eq!(visible, cut_nodes.len() + 1);
        let total: usize = nav
            .iter_preorder()
            .filter(|&n| applied.is_visible(n))
            .map(|n| applied.component_size(&nav, n))
            .sum();
        prop_assert_eq!(total, nav.len());
    }

    #[test]
    fn optimal_cut_is_self_consistent((seed, hs) in (0u64..500, 8usize..14)) {
        // On small whole-tree components the DP's optimal cut, re-priced
        // through cost_with_first_cut, must reproduce the optimal cost, and
        // no other single-root cut may beat it.
        let (_h, _s, nav) = instance(seed, hs, 40);
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        if comp.len() < 3 || comp.len() > 16 {
            return Ok(());
        }
        let params = CostParams {
            planner: bionav::core::Planner::Recursive,
            max_opt_nodes: 18,
            ..CostParams::default()
        };
        let problem = CutProblem::from_component(&nav, &comp, params);
        let mut solver = problem.solver();
        let optimal = solver.solve_full();
        if let Some(cut) = solver.best_cut_full() {
            let forced = solver.cost_with_first_cut(problem.full_mask(), &cut);
            prop_assert!((forced - optimal).abs() < 1e-6);
            for unit in 1..comp.len() {
                let alt = solver.cost_with_first_cut(problem.full_mask(), &[unit]);
                prop_assert!(alt >= optimal - 1e-6, "unit {unit} beats the optimum");
            }
        }
    }
}
