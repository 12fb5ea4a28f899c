//! Deep-chain regression tests (ISSUE 6 satellite): the maximum embedding
//! used to be a recursive walk, so a deep-narrow hierarchy overflowed the
//! thread stack and aborted the whole process — bypassing the
//! panic-isolation plane entirely. The build now runs on an explicit
//! work-stack; these tests pin that by embedding a 100k-level spine, far
//! past any default stack's recursion budget.

use bionav_core::{NavNodeId, NavigationTree};
use bionav_medline::{Citation, CitationId, CitationStore};
use bionav_mesh::synth::deep_chain;
use bionav_mesh::DescriptorId;

const LEVELS: usize = 100_000;

/// Sparse spine: one citation at the deepest concept. Every intermediate
/// level is empty and elides away, so the navigation tree is just
/// root + leaf — but the embedding walk still has to traverse (and the
/// old recursive version still overflowed on) all 100k levels.
#[test]
fn hundred_thousand_level_chain_with_a_deep_leaf_embeds() {
    let h = deep_chain(LEVELS);
    let mut store = CitationStore::new();
    store
        .insert(Citation::new(
            CitationId(1),
            "deep",
            vec![],
            vec![DescriptorId(LEVELS as u32)],
            vec![],
        ))
        .unwrap();
    let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);

    assert_eq!(nav.len(), 2, "empty middle of the spine elides away");
    let leaf = nav.find_by_label(&format!("chain-{LEVELS}")).unwrap();
    assert_eq!(nav.parent(leaf), Some(NavNodeId::ROOT));
    assert_eq!(nav.nav_depth(leaf), 1);
    assert_eq!(nav.hierarchy_depth(leaf), LEVELS as u32);
    assert_eq!(nav.results_count(leaf), 1);
    assert!(nav.subtree_set(leaf).contains(0));
}

/// Dense spine: the citation is indexed with every level, so no node
/// elides and the navigation tree is the full 100k-node chain. Exercises
/// the whole arena build — CSR children, depths, subtree ranges — plus
/// the citation-set fold at depth.
#[test]
fn hundred_thousand_level_chain_fully_occupied_embeds() {
    let h = deep_chain(LEVELS);
    let mut store = CitationStore::new();
    let concepts: Vec<DescriptorId> = (1..=LEVELS as u32).map(DescriptorId).collect();
    store
        .insert(Citation::new(
            CitationId(1),
            "spine",
            vec![],
            concepts,
            vec![],
        ))
        .unwrap();
    let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);

    assert_eq!(nav.len(), LEVELS + 1, "no node elides");
    let leaf = nav.find_by_label(&format!("chain-{LEVELS}")).unwrap();
    assert_eq!(nav.nav_depth(leaf), LEVELS as u32);
    assert_eq!(nav.hierarchy_depth(leaf), LEVELS as u32);

    // The folded sets come out right even 100k levels down.
    assert!(nav.results(leaf).contains(0));
    assert_eq!(nav.subtree_distinct(NavNodeId(1)), 1);
    assert_eq!(nav.subtree_nodes(NavNodeId(1)).len(), LEVELS);
    assert!(nav.is_ancestor(NavNodeId(1), leaf));
}
