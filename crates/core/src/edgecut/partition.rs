//! Bottom-up tree partitioning (paper §VI, after Kundu & Misra's
//! minimum-cardinality tree partitioning).
//!
//! Heuristic-ReducedOpt shrinks a component subtree to at most `k`
//! connected partitions so the exact solver can run on the partition
//! (super-node) tree in interactive time. The algorithm processes the tree
//! bottom-up: each node accumulates the weight of its still-attached
//! children clusters and, while its cluster exceeds the weight threshold
//! `M`, detaches the heaviest child cluster as a finished partition. The
//! paper sets `M = W(C)/k` and re-runs with a gradually increased `M` until
//! at most `k` partitions remain.
//!
//! Node weights are `max(1, |R(n)|)` — the paper uses `|R(n)|`, and in a
//! navigation tree every non-root node carries results; the floor of 1 only
//! matters for the (possibly empty) root and keeps zero-weight chains from
//! producing unbounded partition counts.
//!
//! # Searching the M ladder
//!
//! "Gradually increased" is a fixed ladder of thresholds: `M₀ = max(1,
//! W/k)`, then `M ← max(M + M/7, M + 1)` (15% steps), with the last rung
//! capped at `W`, where one cluster always remains. The accepted `M` is
//! the first rung whose pass detaches at most `k` clusters. Instead of
//! walking the ladder rung by rung, [`partition_until_in`] binary-searches
//! it, so a run costs `⌈log₂ rungs⌉ + 1` passes at most instead of up to
//! one per rung. The search finds the same rung: Kundu & Misra's greedy
//! yields the *minimum* partition count for each `M` (an overweight node
//! stands alone whatever the threshold, so capping node weights at `M`
//! gives the same passes and counts), and a partition that is valid for
//! `M` is valid for every larger `M`, so the count never rises along the
//! ladder.
//!
//! # Heaviest-child selection
//!
//! When a node's cluster exceeds `M`, its attached child clusters go into
//! a max-heap keyed by `(cluster weight, position in the child list)`.
//! Detaching swap-removes the child, and the child moved into the freed
//! slot is pushed again under its new position; entries whose position is
//! out of range, or whose weight no longer matches the child at that
//! position, are skipped on pop. The top key is therefore the *last*
//! maximum in the list's current order, exactly the child the original
//! `max_by_key` rescan picked, in O(log d) per detach instead of O(d).
//! Which of two tied children is detached changes the partitions, so this
//! rule is load-bearing.
//!
//! The pre-search, pre-heap partitioner is kept as the test-only
//! [`oracle`] module, which the equivalence suites compare against.
//!
//! # Allocation discipline
//!
//! [`partition_until`] runs the clustering pass several times while it
//! searches `M`; on MeSH-scale components the per-pass `HashMap`
//! membership index and fresh buffers used to dominate fresh-EXPAND
//! latency. The `*_in` variants therefore thread a [`NavScratch`] arena
//! (DESIGN.md §5c) through the pass: membership is an epoch-stamped
//! node-indexed map, the cluster buffers, the ladder and the heap are
//! reused across passes, and only the **final** pass materializes
//! [`Partition`] values. The plain entry points wrap the `*_in` forms with
//! a throwaway arena and produce bit-identical output.

use crate::edgecut::counters;
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::{NavScratch, NodeMap, PartitionArena};

/// One connected partition of a component subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The shallowest node of the partition (its connection point upward).
    pub root: NavNodeId,
    /// Every member node, in navigation pre-order (root first).
    pub nodes: Vec<NavNodeId>,
    /// Total weight `Σ max(1, |R(n)|)`.
    pub weight: u64,
}

fn node_weight(nav: &NavigationTree, n: NavNodeId) -> u64 {
    u64::from(nav.results_count(n)).max(1)
}

/// Runs one bottom-up clustering pass with threshold `max_weight`.
///
/// On return `map` holds the component membership index (node slot →
/// component index, stamped for the current epoch), and `arena.detached`
/// holds the component indices of the partition roots — the component root
/// (index 0) last. `arena.cluster_weight` / `arena.cluster_children` /
/// `arena.heap` are pass-local working state.
fn cluster_pass(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    max_weight: u64,
    map: &mut NodeMap,
    arena: &mut PartitionArena,
) {
    counters::note_cluster_pass();
    // Epoch-stamped membership: node slot -> component index.
    map.begin(nav.len());
    for (i, &n) in comp.iter().enumerate() {
        map.set(n.index(), i as u32);
    }

    // cluster_weight[i]: weight of the still-attached cluster rooted at
    // comp[i]; cluster_children[i]: attached child cluster roots.
    if arena.cluster_weight.len() < comp.len() {
        arena.cluster_weight.resize(comp.len(), 0);
        arena.cluster_children.resize(comp.len(), Vec::new());
    }
    for (i, &n) in comp.iter().enumerate() {
        arena.cluster_weight[i] = node_weight(nav, n);
        arena.cluster_children[i].clear();
    }
    arena.detached.clear();

    // Pre-order guarantees children come after parents; process in reverse.
    for i in (0..comp.len()).rev() {
        for &c in nav.children(comp[i]) {
            if let Some(ci) = map.get(c.index()) {
                let ci = ci as usize;
                arena.cluster_children[i].push(ci);
                arena.cluster_weight[i] += arena.cluster_weight[ci];
            }
        }
        if arena.cluster_weight[i] > max_weight && !arena.cluster_children[i].is_empty() {
            detach_heaviest(i, max_weight, arena);
        }
    }
    arena.detached.push(0); // the root's remaining cluster
}

/// Detaches the heaviest child clusters of component index `i` as finished
/// partitions until its cluster weighs at most `max_weight` or no child is
/// left. The heap's top valid key is the last maximum in the child list's
/// current order (see the module docs), matching the original rescan.
fn detach_heaviest(i: usize, max_weight: u64, arena: &mut PartitionArena) {
    let PartitionArena {
        cluster_weight,
        cluster_children,
        detached,
        heap,
        ..
    } = arena;
    let children = &mut cluster_children[i];
    heap.clear();
    heap.extend(
        children
            .iter()
            .enumerate()
            .map(|(pos, &c)| (cluster_weight[c], pos)),
    );
    while cluster_weight[i] > max_weight {
        let Some((w, pos)) = heap.pop() else {
            break; // every child is detached
        };
        if pos >= children.len() || cluster_weight[children[pos]] != w {
            continue; // stale: that child moved or left
        }
        let heaviest = children.swap_remove(pos);
        if let Some(&moved) = children.get(pos) {
            heap.push((cluster_weight[moved], pos));
        }
        cluster_weight[i] -= w;
        detached.push(heaviest);
    }
}

/// Materializes the partitions recorded in `arena.detached` by the most
/// recent [`cluster_pass`] over the same `comp`/`map` state.
fn materialize(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    map: &NodeMap,
    arena: &mut PartitionArena,
) -> Vec<Partition> {
    // partition_of[i]: partition id of comp[i]; u32::MAX = unassigned.
    arena.partition_of.clear();
    arena.partition_of.resize(comp.len(), u32::MAX);
    for (pid, &root_idx) in arena.detached.iter().enumerate() {
        arena.partition_of[root_idx] = pid as u32;
    }
    // Pre-order pass: a node inherits its parent's partition unless it is a
    // partition root itself.
    for (i, &n) in comp.iter().enumerate().skip(1) {
        if arena.partition_of[i] != u32::MAX {
            continue;
        }
        // lint: allow(no-unwrap) — skip(1) leaves only non-root members,
        // whose nav parents exist by tree construction
        let parent = nav.parent(n).expect("non-root nodes have parents");
        let pi = map
            .get(parent.index())
            // lint: allow(no-unwrap) — components are parent-closed: the
            // stamped map covers every member's parent (debug-checked below)
            .expect("parents of non-root component members are in the component")
            as usize;
        debug_assert!(
            arena.partition_of[pi] != u32::MAX,
            "pre-order invariant: the parent was assigned before its child"
        );
        arena.partition_of[i] = arena.partition_of[pi];
    }

    let mut parts: Vec<Partition> = arena
        .detached
        .iter()
        .map(|&ri| Partition {
            root: comp[ri],
            nodes: Vec::new(),
            weight: 0,
        })
        .collect();
    for (i, &n) in comp.iter().enumerate() {
        let pid = arena.partition_of[i];
        debug_assert_ne!(pid, u32::MAX, "every node lands in a partition");
        parts[pid as usize].nodes.push(n);
        parts[pid as usize].weight += node_weight(nav, n);
    }
    // Root partition first, the rest in pre-order of their roots.
    parts.sort_by_key(|p| {
        if p.root == comp[0] {
            (0, p.root.0)
        } else {
            (1, p.root.0)
        }
    });
    parts
}

/// Partitions the component given by `comp` (its nodes in navigation
/// pre-order, `comp[0]` being the component root) with weight threshold
/// `max_weight`. Every partition is connected; partitions may exceed
/// `max_weight` only when a single node does.
pub fn partition_component(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    max_weight: u64,
) -> Vec<Partition> {
    let mut scratch = NavScratch::new();
    partition_component_in(nav, comp, max_weight, &mut scratch)
}

/// [`partition_component`] with a caller-owned scratch arena; allocates
/// nothing beyond the returned partitions once the arena has warmed up.
pub fn partition_component_in(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    max_weight: u64,
    scratch: &mut NavScratch,
) -> Vec<Partition> {
    assert!(!comp.is_empty(), "cannot partition an empty component");
    let max_weight = max_weight.max(1);
    let (map, arena) = scratch.parts();
    cluster_pass(nav, comp, max_weight, map, arena);
    materialize(nav, comp, map, arena)
}

/// The paper's reduction loop: start from `M = W(C)/k` and increase `M`
/// gradually until at most `k` partitions are obtained.
pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
    let mut scratch = NavScratch::new();
    partition_until_in(nav, comp, k, &mut scratch)
}

/// [`partition_until`] with a caller-owned scratch arena.
///
/// Builds the M ladder (`W/k`, then 15% steps, the last rung capped at
/// `W`) in the arena and binary-searches it for the first rung whose pass
/// detaches at most `k` clusters; the last rung qualifies by construction.
/// This is the rung a linear walk would stop at, because the greedy's
/// partition count never rises with `M` (module docs). Probes only count
/// detached clusters; the accepted rung's pass is re-run if the last probe
/// was elsewhere, and partitions are materialized once, so a run takes at
/// most `⌈log₂ rungs⌉ + 1` passes and allocates nothing per pass.
pub fn partition_until_in(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    k: usize,
    scratch: &mut NavScratch,
) -> Vec<Partition> {
    assert!(k >= 1);
    assert!(!comp.is_empty(), "cannot partition an empty component");
    counters::note_partition_run();
    let total: u64 = comp.iter().map(|&n| node_weight(nav, n)).sum();
    let (map, arena) = scratch.parts();
    // 15% steps track the smallest M reaching ≤ k reasonably closely,
    // which keeps the reduced tree as fine-grained as allowed.
    arena.ladder.clear();
    let mut m = (total / k as u64).max(1);
    while m < total {
        arena.ladder.push(m);
        m = (m + m / 7).max(m + 1);
    }
    arena.ladder.push(total);

    let (mut lo, mut hi) = (0, arena.ladder.len() - 1);
    let mut probed = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        cluster_pass(nav, comp, arena.ladder[mid], map, arena);
        probed = Some(mid);
        if arena.detached.len() <= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if probed != Some(lo) {
        cluster_pass(nav, comp, arena.ladder[lo], map, arena);
    }
    materialize(nav, comp, map, arena)
}

/// The partitioner as it was before the ladder search and the
/// heaviest-child heap: a linear walk up the M ladder and a `max_by_key`
/// rescan after every detach. Kept verbatim as the equivalence oracle for
/// the partition property tests and for
/// [`heuristic::reference`](crate::edgecut::heuristic::reference).
/// **Not used in serving**, and it touches no [`counters`]. Do not
/// "optimize" this module; its value is fidelity to the original
/// semantics.
#[doc(hidden)]
pub mod oracle {
    use super::{materialize, node_weight, Partition};
    use crate::navtree::{NavNodeId, NavigationTree};
    use crate::scratch::{NavScratch, NodeMap, PartitionArena};

    /// Runs one bottom-up clustering pass with threshold `max_weight`.
    ///
    /// On return `map` holds the component membership index (node slot →
    /// component index, stamped for the current epoch), and `arena.detached`
    /// holds the component indices of the partition roots — the component root
    /// (index 0) last. `arena.cluster_weight` / `arena.cluster_children` are
    /// pass-local working state.
    fn cluster_pass(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        max_weight: u64,
        map: &mut NodeMap,
        arena: &mut PartitionArena,
    ) {
        // Epoch-stamped membership: node slot -> component index.
        map.begin(nav.len());
        for (i, &n) in comp.iter().enumerate() {
            map.set(n.index(), i as u32);
        }

        // cluster_weight[i]: weight of the still-attached cluster rooted at
        // comp[i]; cluster_children[i]: attached child cluster roots.
        if arena.cluster_weight.len() < comp.len() {
            arena.cluster_weight.resize(comp.len(), 0);
            arena.cluster_children.resize(comp.len(), Vec::new());
        }
        for (i, &n) in comp.iter().enumerate() {
            arena.cluster_weight[i] = node_weight(nav, n);
            arena.cluster_children[i].clear();
        }
        arena.detached.clear();

        // Pre-order guarantees children come after parents; process in reverse.
        for i in (0..comp.len()).rev() {
            for &c in nav.children(comp[i]) {
                if let Some(ci) = map.get(c.index()) {
                    let ci = ci as usize;
                    arena.cluster_children[i].push(ci);
                    arena.cluster_weight[i] += arena.cluster_weight[ci];
                }
            }
            while arena.cluster_weight[i] > max_weight && !arena.cluster_children[i].is_empty() {
                // Detach the heaviest child cluster as a finished partition.
                // `max_by_key` keeps the *last* maximum on ties, matching the
                // original implementation's tie-breaking exactly.
                let (pos, &heaviest) = arena.cluster_children[i]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| arena.cluster_weight[c])
                    // lint: allow(no-unwrap) — the while condition just checked
                    // cluster_children[i] is non-empty
                    .expect("non-empty");
                arena.cluster_children[i].swap_remove(pos);
                let w = arena.cluster_weight[heaviest];
                arena.cluster_weight[i] -= w;
                arena.detached.push(heaviest);
            }
        }
        arena.detached.push(0); // the root's remaining cluster
    }

    /// One clustering pass at threshold `max_weight` (floored at 1).
    pub fn partition_component(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        max_weight: u64,
    ) -> Vec<Partition> {
        assert!(!comp.is_empty(), "cannot partition an empty component");
        let mut scratch = NavScratch::new();
        let (map, arena) = scratch.parts();
        cluster_pass(nav, comp, max_weight.max(1), map, arena);
        materialize(nav, comp, map, arena)
    }

    /// The linear reduction loop: one pass per ladder rung until at most
    /// `k` clusters are detached.
    pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
        assert!(k >= 1);
        assert!(!comp.is_empty(), "cannot partition an empty component");
        let mut scratch = NavScratch::new();
        let total: u64 = comp.iter().map(|&n| node_weight(nav, n)).sum();
        let mut m = (total / k as u64).max(1);
        let (map, arena) = scratch.parts();
        loop {
            cluster_pass(nav, comp, m.max(1), map, arena);
            if arena.detached.len() <= k {
                return materialize(nav, comp, map, arena);
            }
            // 15% steps track the smallest M reaching ≤ k reasonably closely,
            // which keeps the reduced tree as fine-grained as allowed.
            m = (m + m / 7).max(m + 1);
            if m >= total {
                cluster_pass(nav, comp, total.max(1), map, arena);
                return materialize(nav, comp, map, arena);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::{Citation, CitationId, CitationStore};
    use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    /// Builds a navigation tree shaped like the descriptor list, attaching
    /// `counts[i]` fresh citations to descriptor `i+1`.
    fn nav_with(shape: &[(&str, &str)], counts: &[u32]) -> NavigationTree {
        let descs: Vec<Descriptor> = shape
            .iter()
            .enumerate()
            .map(|(i, (label, t))| Descriptor::new(DescriptorId(i as u32 + 1), *label, vec![tn(t)]))
            .collect();
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        let mut next = 1u32;
        let mut results = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                store
                    .insert(Citation::new(
                        CitationId(next),
                        "t",
                        vec![],
                        vec![DescriptorId(i as u32 + 1)],
                        vec![],
                    ))
                    .unwrap();
                results.push(CitationId(next));
                next += 1;
            }
        }
        NavigationTree::build(&h, &store, &results)
    }

    fn chain_tree() -> NavigationTree {
        nav_with(
            &[
                ("a", "A01"),
                ("b", "A01.100"),
                ("c", "A01.100.100"),
                ("d", "A01.100.100.100"),
            ],
            &[4, 4, 4, 4],
        )
    }

    #[test]
    fn partitions_cover_exactly_and_are_connected() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 5);
        let mut all: Vec<NavNodeId> = parts.iter().flat_map(|p| p.nodes.clone()).collect();
        all.sort();
        let mut expected: Vec<NavNodeId> = comp.clone();
        expected.sort();
        assert_eq!(
            all, expected,
            "partitions must cover the component exactly once"
        );
        for p in &parts {
            // Connectivity: every member other than the partition root has
            // its navigation parent inside the same partition.
            for &n in &p.nodes {
                if n != p.root {
                    let parent = nav.parent(n).unwrap();
                    assert!(p.nodes.contains(&parent), "partition must be connected");
                }
            }
        }
    }

    #[test]
    fn weight_threshold_is_respected_when_splittable() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for m in [4u64, 5, 8, 9, 100] {
            let parts = partition_component(&nav, &comp, m);
            for p in &parts {
                assert!(
                    p.weight <= m || p.nodes.len() == 1,
                    "partition weight {} exceeds M={m} with {} nodes",
                    p.weight,
                    p.nodes.len()
                );
            }
        }
    }

    #[test]
    fn huge_threshold_gives_one_partition() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1_000);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].root, NavNodeId::ROOT);
    }

    #[test]
    fn tiny_threshold_isolates_every_node() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1);
        assert_eq!(parts.len(), comp.len());
    }

    #[test]
    fn root_partition_comes_first() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for m in [1u64, 4, 9, 1000] {
            let parts = partition_component(&nav, &comp, m);
            assert_eq!(parts[0].root, comp[0]);
        }
    }

    #[test]
    fn partition_until_meets_the_bound() {
        // A wider tree: root with 4 branches of 3 nodes each.
        let nav = nav_with(
            &[
                ("a", "A01"),
                ("a1", "A01.100"),
                ("a2", "A01.100.100"),
                ("b", "B01"),
                ("b1", "B01.100"),
                ("b2", "B01.100.100"),
                ("c", "C01"),
                ("c1", "C01.100"),
                ("c2", "C01.100.100"),
                ("d", "D01"),
                ("d1", "D01.100"),
                ("d2", "D01.100.100"),
            ],
            &[3, 5, 2, 4, 1, 6, 2, 2, 2, 7, 1, 1],
        );
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for k in [2usize, 3, 5, 8, 10] {
            let parts = partition_until(&nav, &comp, k);
            assert!(parts.len() <= k, "k={k} gave {} partitions", parts.len());
            assert!(!parts.is_empty());
        }
    }

    #[test]
    fn single_node_component_is_one_partition() {
        let nav = chain_tree();
        let leaf = nav
            .iter_preorder()
            .find(|&n| nav.children(n).is_empty())
            .unwrap();
        let parts = partition_component(&nav, &[leaf], 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].nodes, vec![leaf]);
        let parts = partition_until(&nav, &[leaf], 10);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn oversize_single_nodes_become_their_own_partition() {
        // One node carries far more weight than the threshold; it cannot be
        // split, so it stands alone and the invariant "weight ≤ M unless a
        // single node" holds.
        let nav = nav_with(
            &[("a", "A01"), ("heavy", "A01.100"), ("b", "A01.200")],
            &[2, 50, 2],
        );
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 5);
        let heavy = nav.find_by_label("heavy").unwrap();
        let heavy_part = parts.iter().find(|p| p.nodes.contains(&heavy)).unwrap();
        assert_eq!(heavy_part.nodes, vec![heavy]);
        assert!(heavy_part.weight > 5);
    }

    #[test]
    fn weights_floor_at_one_for_the_empty_root() {
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let parts = partition_component(&nav, &comp, 1);
        let root_part = parts.iter().find(|p| p.root == NavNodeId::ROOT).unwrap();
        assert_eq!(root_part.weight, 1); // the root has no results
    }

    #[test]
    fn partitioning_a_subcomponent_works() {
        let nav = chain_tree();
        // Component = subtree of the first child of root.
        let sub_root = nav.children(NavNodeId::ROOT)[0];
        let comp = nav.subtree_nodes(sub_root);
        let parts = partition_component(&nav, &comp, 6);
        assert!(parts.len() >= 2);
        assert_eq!(parts[0].root, sub_root);
        let n: usize = parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(n, comp.len());
    }

    #[test]
    fn arena_reuse_matches_fresh_scratch() {
        // Re-using one arena across many calls with different thresholds
        // and components must give the same answer as throwaway state.
        let nav = chain_tree();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let sub_root = nav.children(NavNodeId::ROOT)[0];
        let sub = nav.subtree_nodes(sub_root);
        let mut scratch = NavScratch::new();
        for m in [1u64, 4, 5, 8, 9, 100, 1000] {
            let fresh = partition_component(&nav, &comp, m);
            let reused = partition_component_in(&nav, &comp, m, &mut scratch);
            assert_eq!(fresh, reused, "M={m} full component");
            let fresh = partition_component_in(&nav, &sub, m, &mut NavScratch::new());
            let reused = partition_component_in(&nav, &sub, m, &mut scratch);
            assert_eq!(fresh, reused, "M={m} subcomponent");
        }
        for k in [1usize, 2, 3, 7, 50] {
            let fresh = partition_until(&nav, &comp, k);
            let reused = partition_until_in(&nav, &comp, k, &mut scratch);
            assert_eq!(fresh, reused, "k={k}");
        }
    }
}
