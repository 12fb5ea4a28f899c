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
//! The pre-search, pre-heap, pre-view partitioner is kept as the
//! test-only [`oracle`] module, which the equivalence suites compare
//! against.
//!
//! # Components as root plus holes
//!
//! The serve path never lists a component's members. A component is its
//! root plus its **holes**, the topmost cut-away roots inside
//! `root..subtree_end(root)` (DESIGN.md §5c), so with the tree's prefix
//! column of node weights a member's in-component subtree weight `S(n)` is
//! one range difference minus the holes' ranges inside it. A member with
//! `S(n) ≤ M₀` can never shed a cluster at any rung `M ≥ M₀`: its cluster
//! never outweighs `S(n)`. So a run builds one **heavy view** for its
//! lowest rung — the members with `S(n) > M₀`, which form an
//! ancestor-closed subtree, at their own weights, plus each light child of
//! one as a single leaf of weight `S(c)` — and every probe runs the
//! unchanged greedy over it: the same reverse order, the same heap key
//! over the same hole-free child lists, the same cluster weights arriving
//! at every heavy node. Partition roots, counts, rungs and cuts are those
//! of the full greedy, bit for bit. On the paper-scale workload a few
//! members per run are heavy, and the view is under a third of the
//! component.
//!
//! # Partitions are their roots
//!
//! The accepted pass is laid out by its partition roots alone: ids in
//! pre-order of the roots (the component root's partition is 0), each
//! partition's parent from a stack of open root ranges, and its members as
//! pre-order id runs — its root's range minus the ranges of the partition
//! roots and holes below it. The reduced-problem build folds citation sets
//! and sums explore weights over those runs in place; only the public
//! entry points expand them into [`Partition`] values. The `comp`-list
//! entry points derive the root and holes from the list and run the same
//! code, and a warm [`NavScratch`] allocates nothing per pass or per
//! partition.

use crate::edgecut::counters;
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::{NavScratch, PartitionArena, NO_PARENT};

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

/// Writes the holes of the component `comp` (its nodes in navigation
/// pre-order, `comp[0]` the root) into `holes`: the topmost non-members of
/// the root's pre-order range, in pre-order. A component is parent-closed,
/// so a non-member's whole subtree is outside it and one jump skips it.
pub(crate) fn holes_of(nav: &NavigationTree, comp: &[NavNodeId], holes: &mut Vec<NavNodeId>) {
    holes.clear();
    let end = nav.subtree_end(comp[0]);
    let mut i = comp[0].0;
    for &m in comp {
        while i < m.0 {
            holes.push(NavNodeId(i));
            i = nav.subtree_end(NavNodeId(i));
        }
        debug_assert_eq!(i, m.0, "a component is parent-closed and in pre-order");
        i += 1;
    }
    while i < end {
        holes.push(NavNodeId(i));
        i = nav.subtree_end(NavNodeId(i));
    }
}

/// Number of members of the component `(root, holes)`.
pub(crate) fn component_len(nav: &NavigationTree, root: NavNodeId, holes: &[NavNodeId]) -> usize {
    let span = |n: NavNodeId| (nav.subtree_end(n) - n.0) as usize;
    span(root) - holes.iter().map(|&h| span(h)).sum::<usize>()
}

/// The in-component subtree weight `S(n)` of member `n`: its range's
/// weight minus the ranges of the holes inside it, which are one
/// contiguous run of the sorted hole list (`hole_weight` holds their
/// prefix sums).
fn subtree_weight(
    nav: &NavigationTree,
    n: NavNodeId,
    holes: &[NavNodeId],
    hole_weight: &[u64],
) -> u64 {
    let end = nav.subtree_end(n);
    let lo = holes.partition_point(|h| h.0 < n.0);
    let hi = lo + holes[lo..].partition_point(|h| h.0 < end);
    nav.run_weight(n.0, end) - (hole_weight[hi] - hole_weight[lo])
}

/// Fills the hole-weight prefix sums and returns the component weight `W`.
fn weigh_holes(
    nav: &NavigationTree,
    root: NavNodeId,
    holes: &[NavNodeId],
    arena: &mut PartitionArena,
) -> u64 {
    arena.hole_weight.clear();
    arena.hole_weight.push(0);
    let mut acc = 0;
    for &h in holes {
        acc += nav.run_weight(h.0, nav.subtree_end(h));
        arena.hole_weight.push(acc);
    }
    subtree_weight(nav, root, holes, &arena.hole_weight)
}

/// Builds the **heavy view** of the component `(root, holes)` for passes
/// at thresholds `M ≥ threshold` (call [`weigh_holes`] first).
///
/// A member with `S(n) ≤ threshold` never sheds a cluster at such an `M`:
/// its cluster never outweighs `S(n)`. So the view holds the heavy members
/// (`S(n) > threshold`, an ancestor-closed set) at their own weights, and
/// each light child of a heavy member as one leaf of weight `S(c)`, which
/// is exactly the cluster it hands up. Indices are breadth-first from the
/// root (index 0), so parents precede children, and member `i`'s
/// children, in `nav.children` order with holes left out, are the indices
/// `child_off[i]..child_off[i + 1]`.
fn build_view(
    nav: &NavigationTree,
    root: NavNodeId,
    holes: &[NavNodeId],
    threshold: u64,
    arena: &mut PartitionArena,
) {
    arena.node.clear();
    arena.weight.clear();
    arena.heavy.clear();
    arena.parent.clear();
    arena.child_off.clear();
    let s = subtree_weight(nav, root, holes, &arena.hole_weight);
    push_view(nav, root, s, NO_PARENT, threshold, arena);
    arena.child_off.push(1);
    let mut i = 0;
    while i < arena.node.len() {
        if arena.heavy[i] {
            for &c in nav.children(arena.node[i]) {
                if holes.binary_search(&c).is_err() {
                    let s = subtree_weight(nav, c, holes, &arena.hole_weight);
                    push_view(nav, c, s, i as u32, threshold, arena);
                }
            }
        }
        arena.child_off.push(arena.node.len() as u32);
        i += 1;
    }
}

/// Appends member `n` (in-component subtree weight `s`, parent view index
/// `up`) to the view: heavy at its own weight, light as one leaf of `s`.
fn push_view(
    nav: &NavigationTree,
    n: NavNodeId,
    s: u64,
    up: u32,
    threshold: u64,
    arena: &mut PartitionArena,
) {
    let heavy = s > threshold;
    arena.node.push(n);
    arena
        .weight
        .push(if heavy { node_weight(nav, n) } else { s });
    arena.heavy.push(heavy);
    arena.parent.push(up);
}

/// Runs one bottom-up clustering pass with threshold `max_weight` over the
/// view [`build_view`] left in `arena`.
///
/// On return `arena.detached` holds the view indices of the partition
/// roots — the component root (index 0) last. One reverse sweep: a node's
/// cluster starts at its view weight, has its children's final clusters
/// added by the time the sweep reaches it, sheds its heaviest children
/// while it exceeds `max_weight`, and is then final, so it is added into
/// its parent's.
fn cluster_pass(max_weight: u64, arena: &mut PartitionArena) {
    counters::note_cluster_pass(arena.weight.len());
    arena.cluster_weight.clear();
    arena.cluster_weight.extend_from_slice(&arena.weight);
    arena.detached.clear();
    for i in (0..arena.weight.len()).rev() {
        let kids = arena.child_off[i]..arena.child_off[i + 1];
        if arena.cluster_weight[i] > max_weight && !kids.is_empty() {
            detach_heaviest(i, kids, max_weight, arena);
        }
        let up = arena.parent[i];
        if up != NO_PARENT {
            arena.cluster_weight[up as usize] += arena.cluster_weight[i];
        }
    }
    arena.detached.push(0); // the root's remaining cluster
}

/// Detaches the heaviest child clusters of view index `i` (its children
/// are the indices `kids`) as finished partitions until its cluster weighs
/// at most `max_weight` or no child is left. The heap's top valid key is
/// the last maximum in the child list's current order (see the module
/// docs), matching the original rescan.
fn detach_heaviest(
    i: usize,
    kids: std::ops::Range<u32>,
    max_weight: u64,
    arena: &mut PartitionArena,
) {
    let PartitionArena {
        cluster_weight,
        attached,
        detached,
        heap,
        ..
    } = arena;
    attached.clear();
    attached.extend(kids);
    heap.clear();
    heap.extend(
        attached
            .iter()
            .enumerate()
            .map(|(pos, &c)| (cluster_weight[c as usize], pos)),
    );
    while cluster_weight[i] > max_weight {
        let Some((w, pos)) = heap.pop() else {
            break; // every child is detached
        };
        if pos >= attached.len() || cluster_weight[attached[pos] as usize] != w {
            continue; // stale: that child moved or left
        }
        let heaviest = attached.swap_remove(pos);
        if let Some(&moved) = attached.get(pos) {
            heap.push((cluster_weight[moved as usize], pos));
        }
        cluster_weight[i] -= w;
        detached.push(heaviest);
    }
}

/// Lays out the partitions of the most recent [`cluster_pass`] by their
/// roots: partition ids in pre-order of their roots (the component root's
/// partition is 0), each partition's parent partition, and each
/// partition's members as pre-order id runs — its root's range minus the
/// ranges of the partition roots and holes below it ("cut-outs"), whose
/// own nested cut-outs one jump skips.
fn lay_out(nav: &NavigationTree, holes: &[NavNodeId], arena: &mut PartitionArena) {
    let PartitionArena {
        node,
        detached,
        part_root,
        part_parent,
        cutouts,
        run_off,
        runs,
        open,
        ..
    } = arena;
    part_root.clear();
    part_root.extend(detached.iter().map(|&i| node[i as usize]));
    part_root.sort_unstable();
    cutouts.clear();
    cutouts.extend(part_root[1..].iter().chain(holes).map(|n| n.0));
    cutouts.sort_unstable();
    part_parent.clear();
    open.clear();
    run_off.clear();
    run_off.push(0);
    runs.clear();
    for (p, &r) in part_root.iter().enumerate() {
        while open.last().is_some_and(|&(end, _)| end <= r.0) {
            open.pop();
        }
        part_parent.push(open.last().map_or(NO_PARENT, |&(_, q)| q));
        let end = nav.subtree_end(r);
        open.push((end, p as u32));
        let mut start = r.0;
        let mut j = cutouts.partition_point(|&c| c <= r.0);
        while j < cutouts.len() && cutouts[j] < end {
            let c = cutouts[j];
            if start < c {
                runs.push((start, c));
            }
            start = nav.subtree_end(NavNodeId(c));
            j += cutouts[j..].partition_point(|&x| x < start);
        }
        if start < end {
            runs.push((start, end));
        }
        run_off.push(runs.len() as u32);
    }
}

impl PartitionArena {
    /// Number of partitions the last run laid out.
    pub(crate) fn partition_count(&self) -> usize {
        self.part_root.len()
    }

    /// Partition `p`'s members as pre-order id runs `a..b`, in pre-order
    /// (the first run starts at its root).
    pub(crate) fn runs_of(&self, p: usize) -> &[(u32, u32)] {
        &self.runs[self.run_off[p] as usize..self.run_off[p + 1] as usize]
    }

    /// Partition `p`'s root node.
    pub(crate) fn root_of(&self, p: usize) -> NavNodeId {
        self.part_root[p]
    }

    /// The partition holding the parent of partition `p`'s root; `p` must
    /// not be the root partition 0.
    pub(crate) fn parent_partition(&self, p: usize) -> usize {
        debug_assert_ne!(p, 0, "the root partition has no parent");
        self.part_parent[p] as usize
    }

    /// The laid-out partitions as owned [`Partition`] values.
    fn partitions(&self, nav: &NavigationTree) -> Vec<Partition> {
        (0..self.partition_count())
            .map(|p| {
                let runs = self.runs_of(p);
                Partition {
                    root: self.root_of(p),
                    nodes: runs
                        .iter()
                        .flat_map(|&(a, b)| (a..b).map(NavNodeId))
                        .collect(),
                    weight: runs.iter().map(|&(a, b)| nav.run_weight(a, b)).sum(),
                }
            })
            .collect()
    }
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
    let NavScratch { holes, arena } = scratch;
    holes_of(nav, comp, holes);
    let m = max_weight.max(1);
    weigh_holes(nav, comp[0], holes, arena);
    build_view(nav, comp[0], holes, m, arena);
    cluster_pass(m, arena);
    lay_out(nav, holes, arena);
    arena.partitions(nav)
}

/// The paper's reduction loop: start from `M = W(C)/k` and increase `M`
/// gradually until at most `k` partitions are obtained.
pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
    let mut scratch = NavScratch::new();
    partition_until_in(nav, comp, k, &mut scratch)
}

/// [`partition_until`] with a caller-owned scratch arena.
///
/// Derives the component's root and holes, builds the M ladder (`W/k`,
/// then 15% steps, the last rung capped at `W`) and the heavy view for its
/// lowest rung, then binary-searches the ladder for the first rung whose
/// pass detaches at most `k` clusters; the last rung qualifies by
/// construction. This is the rung a linear walk would stop at, because
/// the greedy's partition count never rises with `M` (module docs).
/// Probes only count detached clusters; the accepted rung's pass is re-run
/// if the last probe was elsewhere, and partitions are laid out once, so a
/// run takes at most `⌈log₂ rungs⌉ + 1` passes and allocates nothing once
/// the arena is warm.
pub fn partition_until_in(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    k: usize,
    scratch: &mut NavScratch,
) -> Vec<Partition> {
    partition_comp_arena(nav, comp, k, scratch).partitions(nav)
}

/// [`partition_until_arena`] on a component given by its node list.
fn partition_comp_arena<'s>(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    k: usize,
    scratch: &'s mut NavScratch,
) -> &'s PartitionArena {
    assert!(!comp.is_empty(), "cannot partition an empty component");
    let NavScratch { holes, arena } = scratch;
    holes_of(nav, comp, holes);
    partition_until_arena(nav, comp[0], holes, k, arena)
}

/// [`partition_until_in`] on the component `(root, holes)` (holes sorted);
/// the partitions stay in the returned arena as pre-order id runs (see
/// [`PartitionArena::runs_of`]), which the serve path's planner reads in
/// place.
pub(crate) fn partition_until_arena<'s>(
    nav: &NavigationTree,
    root: NavNodeId,
    holes: &[NavNodeId],
    k: usize,
    arena: &'s mut PartitionArena,
) -> &'s PartitionArena {
    assert!(k >= 1);
    counters::note_partition_run();
    let total = weigh_holes(nav, root, holes, arena);
    // 15% steps track the smallest M reaching ≤ k reasonably closely,
    // which keeps the reduced tree as fine-grained as allowed.
    arena.ladder.clear();
    let mut m = (total / k as u64).max(1);
    while m < total {
        arena.ladder.push(m);
        m = (m + m / 7).max(m + 1);
    }
    arena.ladder.push(total);
    build_view(nav, root, holes, arena.ladder[0], arena);

    let (mut lo, mut hi) = (0, arena.ladder.len() - 1);
    let mut probed = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        cluster_pass(arena.ladder[mid], arena);
        probed = Some(mid);
        if arena.detached.len() <= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if probed != Some(lo) {
        cluster_pass(arena.ladder[lo], arena);
    }
    lay_out(nav, holes, arena);
    arena
}

/// The partitioner as it was before the ladder search, the
/// heaviest-child heap and the component view: a linear walk up the M
/// ladder, a pass that re-stamps the membership map and rebuilds child
/// lists, a `max_by_key` rescan after every detach, and a sorted
/// materialization. Kept verbatim as the equivalence oracle for
/// the partition property tests and for
/// [`heuristic::reference`](crate::edgecut::heuristic::reference).
/// **Not used in serving**, and it touches no [`counters`]. Do not
/// "optimize" this module; its value is fidelity to the original
/// semantics.
#[doc(hidden)]
pub mod oracle {
    use super::{node_weight, Partition};
    use crate::navtree::{NavNodeId, NavigationTree};
    use crate::scratch::NodeMap;

    /// The pass buffers as they were before the component view; a private
    /// copy, so the oracle keeps its semantics whatever the live arena
    /// becomes.
    #[derive(Debug, Default)]
    struct PartitionArena {
        /// Weight of the still-attached cluster rooted at each component index.
        cluster_weight: Vec<u64>,
        /// Attached child cluster roots per component index.
        cluster_children: Vec<Vec<usize>>,
        /// Component indices of detached partition roots (the component root
        /// last).
        detached: Vec<usize>,
        /// Partition id per component index (`u32::MAX` = unassigned).
        partition_of: Vec<u32>,
    }

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
                #[expect(
                    clippy::expect_used,
                    reason = "the while condition just checked cluster_children[i] is non-empty"
                )]
                let (pos, &heaviest) = arena.cluster_children[i]
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| arena.cluster_weight[c])
                    .expect("non-empty");
                arena.cluster_children[i].swap_remove(pos);
                let w = arena.cluster_weight[heaviest];
                arena.cluster_weight[i] -= w;
                arena.detached.push(heaviest);
            }
        }
        arena.detached.push(0); // the root's remaining cluster
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
            #[expect(
                clippy::expect_used,
                reason = "skip(1) leaves only non-root members, whose nav parents exist by tree construction"
            )]
            let parent = nav.parent(n).expect("non-root nodes have parents");
            #[expect(
                clippy::expect_used,
                reason = "components are parent-closed: the stamped map covers every member's parent (debug-checked below)"
            )]
            let pi = map
                .get(parent.index())
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

    /// One clustering pass at threshold `max_weight` (floored at 1).
    pub fn partition_component(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        max_weight: u64,
    ) -> Vec<Partition> {
        assert!(!comp.is_empty(), "cannot partition an empty component");
        let (mut map, mut arena) = (NodeMap::default(), PartitionArena::default());
        cluster_pass(nav, comp, max_weight.max(1), &mut map, &mut arena);
        materialize(nav, comp, &map, &mut arena)
    }

    /// The linear reduction loop: one pass per ladder rung until at most
    /// `k` clusters are detached.
    pub fn partition_until(nav: &NavigationTree, comp: &[NavNodeId], k: usize) -> Vec<Partition> {
        assert!(k >= 1);
        assert!(!comp.is_empty(), "cannot partition an empty component");
        let total: u64 = comp.iter().map(|&n| node_weight(nav, n)).sum();
        let mut m = (total / k as u64).max(1);
        let (map, arena) = (&mut NodeMap::default(), &mut PartitionArena::default());
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

    #[test]
    fn a_warm_arena_does_not_allocate() {
        // Once a round of runs has grown every buffer, repeating those
        // runs neither moves nor grows one: no probe and no partition
        // allocates.
        let nav = nav_with(
            &[
                ("a", "A01"),
                ("a1", "A01.100"),
                ("a2", "A01.100.100"),
                ("a3", "A01.200"),
                ("b", "B01"),
                ("b1", "B01.100"),
                ("b2", "B01.200"),
                ("c", "C01"),
            ],
            &[3, 5, 2, 4, 1, 6, 2, 7],
        );
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let sub = nav.subtree_nodes(nav.children(NavNodeId::ROOT)[0]);
        let buffers = |s: &NavScratch| {
            let a = &s.arena;
            [
                (s.holes.as_ptr() as usize, s.holes.capacity()),
                (a.hole_weight.as_ptr() as usize, a.hole_weight.capacity()),
                (a.node.as_ptr() as usize, a.node.capacity()),
                (a.weight.as_ptr() as usize, a.weight.capacity()),
                (a.heavy.as_ptr() as usize, a.heavy.capacity()),
                (a.parent.as_ptr() as usize, a.parent.capacity()),
                (a.child_off.as_ptr() as usize, a.child_off.capacity()),
                (
                    a.cluster_weight.as_ptr() as usize,
                    a.cluster_weight.capacity(),
                ),
                (a.attached.as_ptr() as usize, a.attached.capacity()),
                (a.detached.as_ptr() as usize, a.detached.capacity()),
                (a.ladder.as_ptr() as usize, a.ladder.capacity()),
                (0, a.heap.capacity()),
                (a.part_root.as_ptr() as usize, a.part_root.capacity()),
                (a.part_parent.as_ptr() as usize, a.part_parent.capacity()),
                (a.cutouts.as_ptr() as usize, a.cutouts.capacity()),
                (a.run_off.as_ptr() as usize, a.run_off.capacity()),
                (a.runs.as_ptr() as usize, a.runs.capacity()),
                (a.open.as_ptr() as usize, a.open.capacity()),
            ]
        };
        let mut scratch = NavScratch::new();
        let ks = [1usize, 2, 3, 5, comp.len()];
        // Warm up: one round over every k and both components grows each
        // buffer to its high-water mark.
        for k in ks {
            for c in [&comp, &sub] {
                partition_comp_arena(&nav, c, k, &mut scratch);
            }
        }
        let warm = buffers(&scratch);
        for k in ks {
            for c in [&comp, &sub] {
                let count = partition_comp_arena(&nav, c, k, &mut scratch).partition_count();
                assert!(count >= 1 && count <= k);
                assert_eq!(buffers(&scratch), warm, "k={k} n={}", c.len());
            }
        }
    }
}
