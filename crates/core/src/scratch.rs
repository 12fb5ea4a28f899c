//! Reusable arena scratch state for the EXPAND hot path (DESIGN.md §5c).
//!
//! A fresh EXPAND used to allocate a `HashMap<NavNodeId, usize>` per
//! partitioning pass (and [`partition_until`](crate::edgecut::partition::partition_until)
//! runs several passes while it searches its weight threshold), plus fresh
//! cluster buffers, a fresh component vector, and a fresh DFS stack — on
//! MeSH-scale components the hashing and allocation dominated the tail of
//! the serve bench. [`NavScratch`] replaces all of that with arrays owned
//! by the caller (a [`Session`] keeps one for its whole lifetime) and
//! threaded through the partitioner, the heuristic pipeline, and
//! [`ActiveTree`] expansion.
//!
//! A component is its root plus its holes, so nothing here is sized to the
//! component, let alone the tree: a run holds one **heavy view** (the
//! members that can shed a cluster, and their children), the state every
//! ladder probe overwrites, and the partitions as pre-order id runs. The
//! reduced-problem build reads the runs in place.
//!
//! [`NodeMap`] — a node → `u32` map whose reset is an epoch bump, not a
//! clear — serves only the frozen
//! [`partition::oracle`](crate::edgecut::partition::oracle) now.
//!
//! The arena holds no navigation state — only scratch capacity — so it is
//! deliberately *not* serialized with sessions and is rebuilt empty on
//! restore. It contains plain `Vec`s, hence stays `Send + Sync` and keeps
//! the engine's compile-time thread-safety assertions intact.
//!
//! [`Session`]: crate::session::Session
//! [`ActiveTree`]: crate::active::ActiveTree

use std::collections::BinaryHeap;

use crate::navtree::NavNodeId;

/// Epoch-stamped node → `u32` map over a fixed node universe.
///
/// `begin` starts a new pass in O(1) (amortized): it bumps a 32-bit epoch
/// instead of clearing, and `get` treats any slot whose stamp is not the
/// current epoch as absent. On the rare epoch wrap the stamps are
/// hard-cleared once.
#[derive(Debug, Clone, Default)]
pub struct NodeMap {
    epoch: u32,
    stamp: Vec<u32>,
    value: Vec<u32>,
}

impl NodeMap {
    /// Starts a new pass over a universe of `n` node slots, invalidating
    /// every entry of previous passes.
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.value.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The 32-bit epoch wrapped: hard-clear once every 2^32 passes.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Maps node slot `i` to `v` for the current pass.
    pub fn set(&mut self, i: usize, v: u32) {
        self.stamp[i] = self.epoch;
        self.value[i] = v;
    }

    /// The value set for slot `i` in the current pass, if any.
    pub fn get(&self, i: usize) -> Option<u32> {
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            Some(self.value[i])
        } else {
            None
        }
    }
}

/// Reused buffers for the bottom-up partitioner and active-tree expansion.
/// All state is run-local; callers overwrite before reading.
///
/// A partitioning run over the component `(root, holes)` fills three
/// groups:
///
/// * the **heavy view**, built once per run and indexed breadth-first
///   from the root: the members heavier than the lowest rung at their own
///   weights, and each light child of one as a leaf weighing its whole
///   in-component subtree (DESIGN.md §5c);
/// * the **probe state** every ladder probe overwrites: the cluster
///   weights, the detached roots, the heap and the child list being
///   detached from;
/// * the **partitions** of the accepted probe, by their roots: each
///   partition's parent partition and its members as pre-order id runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionArena {
    /// Prefix sums of the holes' subtree weights, in hole order.
    pub(crate) hole_weight: Vec<u64>,
    /// The member at each view index.
    pub(crate) node: Vec<NavNodeId>,
    /// View weight: a heavy member's own `max(1, |R(n)|)`, a light leaf's
    /// in-component subtree weight.
    pub(crate) weight: Vec<u64>,
    /// Whether the member at each view index is heavy (its children are
    /// in the view).
    pub(crate) heavy: Vec<bool>,
    /// View index of each member's parent ([`NO_PARENT`] for the root).
    pub(crate) parent: Vec<u32>,
    /// View index `i`'s children are the indices
    /// `child_off[i]..child_off[i + 1]`.
    pub(crate) child_off: Vec<u32>,
    /// Weight of the still-attached cluster rooted at each view index.
    pub(crate) cluster_weight: Vec<u64>,
    /// The attached children of the node being detached from, in the
    /// order the heap's positions refer to.
    pub(crate) attached: Vec<u32>,
    /// View indices of detached partition roots (the component root
    /// last).
    pub(crate) detached: Vec<u32>,
    /// The threshold ladder `partition_until_arena` binary-searches.
    pub(crate) ladder: Vec<u64>,
    /// `(child cluster weight, position in the child list)` max-heap for
    /// picking the heaviest child to detach.
    pub(crate) heap: BinaryHeap<(u64, usize)>,
    /// Partition roots in pre-order (partition ids).
    pub(crate) part_root: Vec<NavNodeId>,
    /// Parent partition of each partition ([`NO_PARENT`] for partition 0).
    pub(crate) part_parent: Vec<u32>,
    /// Sorted ids of every non-root partition root and every hole.
    pub(crate) cutouts: Vec<u32>,
    /// `runs[run_off[p]..run_off[p + 1]]` are partition `p`'s member runs.
    pub(crate) run_off: Vec<u32>,
    /// Pre-order id runs `a..b`, grouped by partition.
    pub(crate) runs: Vec<(u32, u32)>,
    /// Open `(subtree end, partition)` ranges while parent partitions are
    /// assigned.
    pub(crate) open: Vec<(u32, u32)>,
    /// DFS stack for component reassignment in `ActiveTree::expand_in`.
    pub(crate) dfs: Vec<NavNodeId>,
}

/// The [`PartitionArena::parent`] entry of the component root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The per-session scratch arena threaded through the EXPAND hot path; see
/// the module docs. Create one with [`NavScratch::new`] (or `default()`)
/// and reuse it across calls — every pass re-initializes exactly the state
/// it reads.
#[derive(Debug, Clone, Default)]
pub struct NavScratch {
    /// The holes of a component given by its node list (the public
    /// `comp`-list entry points derive them here).
    pub(crate) holes: Vec<NavNodeId>,
    pub(crate) arena: PartitionArena,
}

impl NavScratch {
    /// An empty arena; buffers grow to the component sizes they serve on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_map_resets_by_epoch() {
        let mut m = NodeMap::default();
        m.begin(4);
        m.set(1, 10);
        m.set(3, 30);
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(3), Some(30));
        // New pass: everything gone without clearing.
        m.begin(4);
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(3), None);
        m.set(1, 99);
        assert_eq!(m.get(1), Some(99));
    }

    #[test]
    fn node_map_grows_and_bounds_checks() {
        let mut m = NodeMap::default();
        m.begin(2);
        m.set(1, 7);
        assert_eq!(m.get(5), None, "out-of-range lookups are absent, not UB");
        m.begin(8);
        m.set(7, 1);
        assert_eq!(m.get(7), Some(1));
        assert_eq!(m.get(1), None, "growth does not resurrect old entries");
    }

    #[test]
    fn node_map_survives_many_epochs() {
        let mut m = NodeMap::default();
        for round in 0..1000u32 {
            m.begin(3);
            m.set(2, round);
            assert_eq!(m.get(2), Some(round));
            assert_eq!(m.get(0), None);
        }
    }
}
