//! Property-based equivalence suite for the navigation tree's citation
//! sets.
//!
//! `NavigationTree` keeps `R(n)` only as CSR result lists; every set a
//! verb reads is folded from them on demand (DESIGN.md §5g). This suite
//! asserts, over *generated* hierarchies and *generated* read orders:
//!
//! 1. `results`, `subtree_set` and `subtree_distinct` agree node for node
//!    with an independent `BTreeSet`-union oracle recomputed from the raw
//!    spec, whatever order the nodes are read in;
//! 2. full-expansion [`Session`] replays cost exactly what the oracle
//!    says SHOWRESULTS must list, and two trees built from byte-identical
//!    inputs replay to the same action log and the same [`NavOutcome`]
//!    totals — per-query navigation costs are bit-identical.

use std::collections::BTreeSet;

use bionav_core::session::Session;
use bionav_core::sim::NavOutcome;
use bionav_core::{CostParams, NavNodeId, NavigationTree};
use bionav_medline::{Citation, CitationId, CitationStore};
use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
use proptest::prelude::*;

/// A generated concept hierarchy: a pre-order parent vector plus a
/// citation count per node (same encoding as `plan_equivalence.rs`).
#[derive(Debug, Clone)]
struct TreeSpec {
    /// `parents[i - 1] % i` is the parent of node `i` (node 0 is the root).
    parents: Vec<usize>,
    /// Citations annotated with node `i`'s descriptor.
    cites: Vec<u32>,
}

fn tree_spec() -> impl Strategy<Value = TreeSpec> {
    (3usize..22).prop_flat_map(|n| {
        let parents = proptest::collection::vec(0usize..n, n - 1);
        // Mix empty, small, and larger loads so the embedding both elides
        // subtrees and keeps multi-component top levels.
        let cites = proptest::collection::vec(0u32..15, n);
        (parents, cites).prop_map(|(parents, cites)| TreeSpec { parents, cites })
    })
}

/// Materializes the spec as MeSH + MEDLINE inputs (tree numbers encode the
/// generated shape), so two independent `NavigationTree`s can be built
/// from byte-identical sources.
fn build_inputs(spec: &TreeSpec) -> (ConceptHierarchy, CitationStore, Vec<CitationId>) {
    let n = spec.parents.len() + 1;
    let mut tns: Vec<TreeNumber> = Vec::with_capacity(n);
    tns.push(TreeNumber::parse("A01").expect("root tree number"));
    let mut child_ord = vec![0usize; n];
    for i in 1..n {
        let p = spec.parents[i - 1] % i;
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
    (h, store, results)
}

/// The set of `CitationId`s in a folded citation set.
fn cits(nav: &NavigationTree, set: &bionav_core::CitSet) -> BTreeSet<CitationId> {
    set.iter().map(|local| nav.citation_id(local)).collect()
}

/// Independent oracle: per-node direct result sets recomputed from the raw
/// store (descriptor membership, not the tree's attachment pass), and
/// subtree sets as plain `BTreeSet` unions over `subtree_nodes`.
fn oracle_direct(
    nav: &NavigationTree,
    store: &CitationStore,
    results: &[CitationId],
) -> Vec<BTreeSet<CitationId>> {
    let mut direct = vec![BTreeSet::new(); nav.len()];
    for &cid in results {
        for &d in store.associations(cid) {
            let label = format!("concept-{}", d.0 - 1);
            if let Some(node) = nav.find_by_label(&label) {
                direct[node.index()].insert(cid);
            }
        }
    }
    direct
}

fn oracle_subtree(
    nav: &NavigationTree,
    direct: &[BTreeSet<CitationId>],
) -> Vec<BTreeSet<CitationId>> {
    nav.iter_preorder()
        .map(|n| {
            let mut set = BTreeSet::new();
            for m in nav.subtree_nodes(n) {
                set.extend(direct[m.index()].iter().copied());
            }
            set
        })
        .collect()
}

/// Fully expands `nav`, then SHOWRESULTS on every node; returns the action
/// log and the accumulated navigation cost (as in `plan_equivalence.rs`).
fn replay(nav: &NavigationTree, params: &CostParams) -> (Vec<String>, NavOutcome) {
    let mut session = Session::new(nav, params.clone());
    let mut guard = 0usize;
    while let Some(hidden) = nav
        .iter_preorder()
        .find(|&n| !session.active().is_visible(n))
    {
        let root = session.active().component_root_of(hidden);
        session.expand(root).expect("multi-node component expands");
        guard += 1;
        assert!(guard <= nav.len(), "replay failed to progress");
    }
    for node in nav.iter_preorder() {
        session.show_results(node).expect("all nodes visible");
    }
    let log: Vec<String> = session.log().iter().map(|a| format!("{a:?}")).collect();
    (log, session.cost().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: every folded set equals the independent oracle, read
    /// in a generated order and then everywhere.
    #[test]
    fn folded_sets_match_the_btreeset_oracle_node_for_node(
        spec in tree_spec(),
        touches in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let (h, store, results) = build_inputs(&spec);
        let nav = NavigationTree::build(&h, &store, &results);
        let direct = oracle_direct(&nav, &store, &results);
        let subtree = oracle_subtree(&nav, &direct);
        let order = touches
            .iter()
            .map(|&t| NavNodeId((t % nav.len()) as u32))
            .chain(nav.iter_preorder());
        for n in order {
            prop_assert_eq!(cits(&nav, &nav.results(n)), direct[n.index()].clone());
            prop_assert_eq!(nav.results_count(n) as usize, direct[n.index()].len());
            prop_assert_eq!(cits(&nav, &nav.subtree_set(n)), subtree[n.index()].clone());
            prop_assert_eq!(nav.subtree_distinct(n) as usize, subtree[n.index()].len());
        }
    }

    /// Property 2: full navigation replays — EXPAND to exhaustion, then
    /// SHOWRESULTS everywhere — list exactly the oracle's citations, and
    /// two independently built trees replay to identical action logs and
    /// identical cost totals. This is the "per-query navigation costs stay
    /// bit-identical" criterion exercised through the real session layer.
    #[test]
    fn session_replays_match_the_oracle_across_builds(spec in tree_spec()) {
        let (h, store, results) = build_inputs(&spec);
        let first = NavigationTree::build(&h, &store, &results);
        let second = NavigationTree::build(&h, &store, &results);
        // Fully expanded, every node is its own component, so SHOWRESULTS
        // everywhere lists each node's direct results once.
        let direct = oracle_direct(&first, &store, &results);
        let listed: usize = direct.iter().map(BTreeSet::len).sum();

        for k in [2usize, 4, 10] {
            let params = CostParams::default().with_max_partitions(k);
            let (first_log, first_cost) = replay(&first, &params);
            let (second_log, second_cost) = replay(&second, &params);
            prop_assert_eq!(first_cost.results_inspected, listed, "k={}", k);
            prop_assert_eq!(&second_log, &first_log, "action logs diverge at k={}", k);
            prop_assert_eq!(&second_cost, &first_cost, "cost totals diverge at k={}", k);
        }
    }
}
