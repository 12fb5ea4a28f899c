//! The static navigation baseline (paper §VIII-A).
//!
//! State-of-the-art categorization interfaces at the time — GoPubMed,
//! Amazon-style facet trees — expand a node by revealing **all of its
//! children**, ranked by citation count. The paper's evaluation compares
//! BioNav against exactly this method, plus (footnote 2) a paged variant
//! that shows the top-N children with a `more` button, which "does not
//! considerably change" the cost since `more` clicks are themselves paid
//! actions.

use crate::navtree::{NavNodeId, NavigationTree};
use crate::sim::NavOutcome;

/// Children of `node` ranked by descending subtree citation count — the
/// order a static interface lists them in.
pub fn ranked_children(nav: &NavigationTree, node: NavNodeId) -> Vec<NavNodeId> {
    let mut kids: Vec<NavNodeId> = nav.children(node).to_vec();
    // Each count is a fold over the child's subtree: take it once per child.
    kids.sort_by_cached_key(|&c| std::cmp::Reverse(nav.subtree_distinct(c)));
    kids
}

/// Simulates an oracle user on the static interface: she expands, top-down,
/// exactly the navigation-tree ancestors of each target and finally runs
/// SHOWRESULTS on the targets. Every expansion reveals *all* children.
pub fn simulate_static(nav: &NavigationTree, targets: &[NavNodeId]) -> NavOutcome {
    let mut to_expand: Vec<NavNodeId> = Vec::new();
    for &t in targets {
        let mut cur = nav.parent(t);
        while let Some(p) = cur {
            if !to_expand.contains(&p) {
                to_expand.push(p);
            }
            cur = nav.parent(p);
        }
    }
    NavOutcome {
        expands: to_expand.len(),
        revealed: to_expand.iter().map(|&n| nav.children(n).len()).sum(),
        results_inspected: targets
            .iter()
            .map(|&t| nav.subtree_distinct(t) as usize)
            .sum(),
    }
}

/// Simulates the paged (GoPubMed-style) static interface: children are
/// ranked by count and shown `page_size` at a time; every `more` click is
/// one more paid action. The oracle user pages until the on-path child is
/// visible.
pub fn simulate_static_paged(
    nav: &NavigationTree,
    targets: &[NavNodeId],
    page_size: usize,
) -> NavOutcome {
    assert!(page_size >= 1);
    let mut out = NavOutcome::default();
    let mut expanded: Vec<NavNodeId> = Vec::new();
    for &t in targets {
        // Walk the root path top-down; at each ancestor, page until the
        // next node on the path shows up.
        let mut path: Vec<NavNodeId> = Vec::new();
        let mut cur = Some(t);
        while let Some(n) = cur {
            path.push(n);
            cur = nav.parent(n);
        }
        path.reverse(); // root .. target
        for w in path.windows(2) {
            let (parent, next) = (w[0], w[1]);
            if expanded.contains(&parent) {
                continue;
            }
            expanded.push(parent);
            let ranked = ranked_children(nav, parent);
            #[expect(
                clippy::expect_used,
                reason = "`next` came from walking the path root→t, so it is one of `parent`'s children by definition"
            )]
            let rank = ranked
                .iter()
                .position(|&c| c == next)
                .expect("the path child is among the parent's children");
            let pages = rank / page_size + 1;
            out.expands += 1; // the expand itself
            out.expands += pages - 1; // each `more` click
            out.revealed += (pages * page_size).min(ranked.len());
        }
        out.results_inspected += nav.subtree_distinct(t) as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::{Citation, CitationId, CitationStore};
    use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    /// Root with 5 children; child "b" has a grandchild (the target).
    fn nav() -> NavigationTree {
        let descs = vec![
            Descriptor::new(DescriptorId(1), "a", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "b", vec![tn("B01")]),
            Descriptor::new(DescriptorId(3), "c", vec![tn("C01")]),
            Descriptor::new(DescriptorId(4), "d", vec![tn("D01")]),
            Descriptor::new(DescriptorId(5), "e", vec![tn("E01")]),
            Descriptor::new(DescriptorId(6), "target", vec![tn("B01.100")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        // Counts: a=1, b=2, c=3, d=1, e=1, target=4.
        let counts = [(1u32, 1u32), (2, 2), (3, 3), (4, 1), (5, 1), (6, 4)];
        let mut next = 1u32;
        let mut results = Vec::new();
        for &(concept, n) in &counts {
            for _ in 0..n {
                store
                    .insert(Citation::new(
                        CitationId(next),
                        "t",
                        vec![],
                        vec![DescriptorId(concept)],
                        vec![],
                    ))
                    .unwrap();
                results.push(CitationId(next));
                next += 1;
            }
        }
        NavigationTree::build(&h, &store, &results)
    }

    #[test]
    fn ranking_is_by_subtree_count_descending() {
        let nav = nav();
        let ranked = ranked_children(&nav, NavNodeId::ROOT);
        let counts: Vec<u32> = ranked.iter().map(|&c| nav.subtree_distinct(c)).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|x, y| y.cmp(x));
        assert_eq!(counts, sorted);
        // "b" (2 own + 4 below = 6) ranks first.
        assert_eq!(nav.label(ranked[0]), "b");
    }

    #[test]
    fn static_cost_counts_all_children_on_the_path() {
        let nav = nav();
        let target = nav.find_by_label("target").unwrap();
        let out = simulate_static(&nav, &[target]);
        // Expand root (5 children) then b (1 child): 2 expands, 6 revealed.
        assert_eq!(out.expands, 2);
        assert_eq!(out.revealed, 6);
        assert_eq!(out.results_inspected, 4);
        assert_eq!(out.interaction_cost(), 8);
    }

    #[test]
    fn shared_ancestors_are_expanded_once() {
        let nav = nav();
        let target = nav.find_by_label("target").unwrap();
        let c = nav.find_by_label("c").unwrap();
        let both = simulate_static(&nav, &[target, c]);
        // Root expanded once even though it serves both targets.
        assert_eq!(both.expands, 2);
        assert_eq!(both.revealed, 6);
        assert_eq!(both.results_inspected, 4 + 3);
    }

    #[test]
    fn paged_variant_pays_for_more_clicks() {
        let nav = nav();
        let target = nav.find_by_label("target").unwrap();
        // Page size 2: "b" ranks first so the first page suffices at the
        // root; at "b" one page shows the only child.
        let paged = simulate_static_paged(&nav, &[target], 2);
        assert_eq!(paged.expands, 2);
        assert_eq!(paged.revealed, 2 + 1);
        // A rank-3 target sibling forces paging. "d" ranks 4th or 5th
        // (count 1): two more clicks needed at page size 2.
        let d = nav.find_by_label("d").unwrap();
        let paged_d = simulate_static_paged(&nav, &[d], 2);
        assert!(paged_d.expands >= 2, "paging adds actions: {paged_d:?}");
    }

    #[test]
    fn paged_with_huge_pages_equals_plain_static() {
        let nav = nav();
        let target = nav.find_by_label("target").unwrap();
        let plain = simulate_static(&nav, &[target]);
        let paged = simulate_static_paged(&nav, &[target], 1_000);
        assert_eq!(plain.expands, paged.expands);
        // Paged reveals min(page, children) per expand = all children here.
        assert_eq!(plain.revealed, paged.revealed);
    }
}
