//! Property-based equivalence suite for the lazy maximum embedding
//! (ISSUE 6 tentpole).
//!
//! `NavigationTree::build` now returns a skeleton — CSR topology, labels,
//! depths, result counts, and EXPLORE weights are eager, while the
//! per-node `CitSet` payloads (direct results and subtree unions) are
//! materialized per top-level subtree on first touch. This suite asserts,
//! over *generated* hierarchies and *generated* touch orders:
//!
//! 1. the skeleton is complete without any materialization — every
//!    payload-free accessor agrees with a fully eager build while
//!    `materialized_subtrees()` stays 0;
//! 2. payloads are node-for-node identical to the eager build no matter
//!    which order subtrees are first touched in, and both agree with an
//!    independent `BTreeSet`-union oracle recomputed from the raw spec;
//! 3. full-expansion [`Session`] replays on a lazy tree produce the same
//!    action log and the same [`NavOutcome`] totals as on an eager tree —
//!    per-query navigation costs are bit-identical, the ISSUE 6
//!    acceptance bar;
//! 4. the serving path keeps the laziness: a cold [`Engine::open_session`]
//!    hands the session a tree with nothing materialized, and only the
//!    first EXPAND pays for payloads.

use std::collections::BTreeSet;

use std::sync::Arc;

use bionav_core::session::Session;
use bionav_core::sim::NavOutcome;
use bionav_core::{CostParams, Engine, NavNodeId, NavigationTree};
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

/// The set of `CitationId`s in a node's (materializing) payload accessor.
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

    /// Property 1: the lazy build's skeleton is complete and identical to
    /// the eager build's without materializing anything, and payloads are
    /// node-for-node identical under an arbitrary first-touch order.
    #[test]
    fn lazy_build_matches_eager_node_for_node(
        spec in tree_spec(),
        touches in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let (h, store, results) = build_inputs(&spec);
        let eager = NavigationTree::build(&h, &store, &results);
        eager.materialize_all();
        let lazy = NavigationTree::build(&h, &store, &results);

        prop_assert_eq!(lazy.materialized_subtrees(), 0, "build must not materialize");
        prop_assert_eq!(lazy.len(), eager.len());
        prop_assert_eq!(lazy.universe(), eager.universe());
        prop_assert_eq!(
            lazy.total_explore_weight().to_bits(),
            eager.total_explore_weight().to_bits()
        );

        // Skeleton accessors agree everywhere, and touching them costs no
        // materialization.
        for n in eager.iter_preorder() {
            prop_assert_eq!(lazy.label(n), eager.label(n));
            prop_assert_eq!(lazy.parent(n), eager.parent(n));
            prop_assert_eq!(lazy.children(n), eager.children(n));
            prop_assert_eq!(lazy.nav_depth(n), eager.nav_depth(n));
            prop_assert_eq!(lazy.hierarchy_depth(n), eager.hierarchy_depth(n));
            prop_assert_eq!(lazy.results_count(n), eager.results_count(n));
            prop_assert_eq!(
                lazy.explore_weight(n).to_bits(),
                eager.explore_weight(n).to_bits(),
                "explore weight diverges at {:?}", n
            );
            prop_assert_eq!(lazy.subtree_nodes(n), eager.subtree_nodes(n));
        }
        prop_assert_eq!(lazy.materialized_subtrees(), 0, "skeleton reads are payload-free");

        // Touch payloads in a generated order; every answer must equal the
        // eager build's and the independent oracle's.
        let direct = oracle_direct(&eager, &store, &results);
        let subtree = oracle_subtree(&eager, &direct);
        let order: Vec<NavNodeId> = touches
            .iter()
            .map(|&t| NavNodeId((t % lazy.len()) as u32))
            .collect();
        for &n in &order {
            prop_assert_eq!(cits(&lazy, lazy.results(n)), cits(&eager, eager.results(n)));
            prop_assert_eq!(cits(&lazy, lazy.results(n)), direct[n.index()].clone());
            prop_assert_eq!(
                cits(&lazy, lazy.subtree_set(n)),
                cits(&eager, eager.subtree_set(n))
            );
            prop_assert_eq!(cits(&lazy, lazy.subtree_set(n)), subtree[n.index()].clone());
            prop_assert_eq!(lazy.subtree_distinct(n), eager.subtree_distinct(n));
        }

        // And after full materialization nothing differs anywhere.
        lazy.materialize_all();
        prop_assert_eq!(lazy.materialized_subtrees(), lazy.lazy_subtrees());
        for n in eager.iter_preorder() {
            prop_assert_eq!(cits(&lazy, lazy.results(n)), cits(&eager, eager.results(n)));
            prop_assert_eq!(
                cits(&lazy, lazy.subtree_set(n)),
                cits(&eager, eager.subtree_set(n))
            );
            prop_assert_eq!(cits(&lazy, lazy.subtree_set(n)), subtree[n.index()].clone());
        }
    }

    /// Property 2: full navigation replays — EXPAND to exhaustion, then
    /// SHOWRESULTS everywhere — on a lazy tree and on an eagerly
    /// materialized tree produce identical action logs and identical cost
    /// totals. This is the "per-query navigation costs stay bit-identical"
    /// acceptance criterion exercised through the real session layer.
    #[test]
    fn session_replays_agree_between_lazy_and_eager_trees(spec in tree_spec()) {
        let (h, store, results) = build_inputs(&spec);
        let eager = NavigationTree::build(&h, &store, &results);
        eager.materialize_all();
        let lazy = NavigationTree::build(&h, &store, &results);

        for k in [2usize, 4, 10] {
            let params = CostParams::default().with_max_partitions(k);
            let (eager_log, eager_cost) = replay(&eager, &params);
            let (lazy_log, lazy_cost) = replay(&lazy, &params);
            prop_assert_eq!(&lazy_log, &eager_log, "action logs diverge at k={}", k);
            prop_assert_eq!(&lazy_cost, &eager_cost, "cost totals diverge at k={}", k);
        }
    }
}

/// Property 4 on fixed shapes: opening a session cold (tree-cache miss)
/// through the engine builds the skeleton only — the opened tree reads
/// `materialized_subtrees() == 0` — and the first EXPAND of the root is
/// what materializes subtree payloads. Guards the cold-open path against a
/// regression to the eager build anywhere between the builder and the
/// parked session.
#[test]
fn cold_engine_open_stays_lazy_until_the_first_expand() {
    let specs = [
        TreeSpec {
            parents: vec![0, 0, 0, 1, 2, 3, 4, 5, 6],
            cites: vec![0, 3, 2, 4, 1, 2, 1, 3, 2, 1],
        },
        TreeSpec {
            parents: (0..30).map(|i| i / 3).collect(),
            cites: (0..31).map(|i| (i * 7 % 5) as u32).collect(),
        },
        TreeSpec {
            parents: vec![0; 12],
            cites: vec![0, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
        },
    ];
    for spec in &specs {
        let (h, store, results) = build_inputs(spec);
        let engine = Engine::new(
            move |_query: &str| Some(Arc::new(NavigationTree::build(&h, &store, &results))),
            CostParams::default(),
            4,
        );
        let id = engine.open_session("q").expect("cold open");
        assert_eq!(engine.stats().cache_misses, 1, "the open built the tree");
        let (materialized, subtrees) = engine
            .with_session(id, |s| {
                (s.nav().materialized_subtrees(), s.nav().lazy_subtrees())
            })
            .expect("session parked");
        assert!(
            subtrees >= 2,
            "fixture must have several top-level subtrees ({subtrees})"
        );
        assert_eq!(materialized, 0, "cold open must not materialize payloads");

        engine
            .expand(id, NavNodeId::ROOT)
            .expect("root component expands");
        let materialized = engine
            .with_session(id, |s| s.nav().materialized_subtrees())
            .expect("session parked");
        assert!(materialized > 0, "the first EXPAND materializes subtrees");
        engine.close_session(id).expect("close");
    }
}

/// Materialization granularity: touching one top-level subtree leaves the
/// others (and the root union) untouched, and the touched answers are
/// already final — later full materialization does not change them.
#[test]
fn first_touch_materializes_only_the_touched_component() {
    let spec = TreeSpec {
        parents: vec![0, 0, 0, 1, 2, 3, 4, 5, 6],
        cites: vec![0, 3, 2, 4, 1, 2, 1, 3, 2, 1],
    };
    let (h, store, results) = build_inputs(&spec);
    let nav = NavigationTree::build(&h, &store, &results);
    assert_eq!(nav.materialized_subtrees(), 0);
    let tops = nav.children(NavNodeId::ROOT).to_vec();
    assert!(
        tops.len() >= 2,
        "fixture must have multiple top-level subtrees"
    );

    let first = tops[0];
    let before = cits(&nav, nav.subtree_set(first));
    assert_eq!(nav.materialized_subtrees(), 1);
    assert_eq!(nav.lazy_subtrees(), tops.len());

    nav.materialize_all();
    assert_eq!(nav.materialized_subtrees(), tops.len());
    assert_eq!(cits(&nav, nav.subtree_set(first)), before);
}
