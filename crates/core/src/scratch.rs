//! Reusable arena scratch state for the EXPAND hot path (DESIGN.md §5c).
//!
//! A fresh EXPAND used to allocate a `HashMap<NavNodeId, usize>` per
//! partitioning pass (and [`partition_until`](crate::edgecut::partition::partition_until)
//! runs several passes while it searches its weight threshold), plus fresh
//! cluster buffers, a fresh component vector, and a fresh DFS stack — on
//! MeSH-scale components the hashing and allocation dominated the tail of
//! the serve bench. [`NavScratch`] replaces all of that with node-indexed,
//! **epoch-stamped** arrays owned by the caller (a [`Session`] keeps one
//! for its whole lifetime) and threaded through the partitioner, the
//! heuristic pipeline, and [`ActiveTree`] expansion:
//!
//! * [`NodeMap`] — a node → `u32` map whose reset is an epoch bump, not a
//!   clear: entries from earlier passes simply fail the stamp comparison.
//!   One plane serves as the component-membership index during
//!   partitioning, then is re-begun to hold partition ids for the
//!   reduced-problem build (O(1) `reduced_parent` lookups instead of
//!   per-partition `Vec::contains` scans).
//! * [`NavScratch`] — the full arena: the map plus cluster-weight /
//!   cluster-children / detached-roots buffers, the M ladder and the
//!   heaviest-child heap for the Kundu–Misra partitioner, and a DFS stack
//!   for component reassignment.
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
/// All state is pass-local; callers overwrite before reading.
#[derive(Debug, Clone, Default)]
pub(crate) struct PartitionArena {
    /// Weight of the still-attached cluster rooted at each component index.
    pub(crate) cluster_weight: Vec<u64>,
    /// Attached child cluster roots per component index.
    pub(crate) cluster_children: Vec<Vec<usize>>,
    /// Component indices of detached partition roots (the component root
    /// last).
    pub(crate) detached: Vec<usize>,
    /// Partition id per component index (`u32::MAX` = unassigned).
    pub(crate) partition_of: Vec<u32>,
    /// The threshold ladder `partition_until_in` binary-searches.
    pub(crate) ladder: Vec<u64>,
    /// `(child cluster weight, position in the child list)` max-heap for
    /// picking the heaviest child to detach.
    pub(crate) heap: BinaryHeap<(u64, usize)>,
    /// DFS stack for component reassignment in `ActiveTree::expand_in`.
    pub(crate) dfs: Vec<NavNodeId>,
}

/// The per-session scratch arena threaded through the EXPAND hot path; see
/// the module docs. Create one with [`NavScratch::new`] (or `default()`)
/// and reuse it across calls — every pass re-initializes exactly the state
/// it reads.
#[derive(Debug, Clone, Default)]
pub struct NavScratch {
    pub(crate) map: NodeMap,
    pub(crate) arena: PartitionArena,
}

impl NavScratch {
    /// An empty arena; buffers grow to the navigation-tree size on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split-borrows the node map and the partition buffers so the
    /// partitioner can hold both at once.
    pub(crate) fn parts(&mut self) -> (&mut NodeMap, &mut PartitionArena) {
        (&mut self.map, &mut self.arena)
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
