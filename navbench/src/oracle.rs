//! The sequential reference every served navigation is checked against.
//!
//! Each distinct (query, target) navigation is replayed TOPDOWN by a plain
//! `Session` over a navigation tree built afresh from the index, with no
//! engine, cache or memo involved. Replays of one query share their common
//! prefix of EXPANDs: targets are visited in pre-order and a stack of
//! exported session states is kept, so each distinct cut is computed once.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bionav_core::session::{Session, SessionState};
use bionav_core::{CostParams, NavNodeId};

use crate::universe::{fresh_tree, Universe};

/// EXPANDs after which a navigation stops short of its target and lists
/// the component covering it: real sessions are short, and the rare
/// hundred-click drill would dominate every mean a run reports.
pub const MAX_EXPANDS: usize = 32;

/// What the tier served for one completed navigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub query: usize,
    pub target: NavNodeId,
    /// Digest of every (expanded node, revealed cut) pair, in order.
    pub digest: Digest,
    pub expands: u32,
    /// Citations SHOWRESULTS listed for the component covering the target.
    pub shown: u32,
    /// The session's §III total cost, as the engine accounted it.
    pub cost: u64,
}

/// FNV-1a over a stream of `u32`s: the digest of one navigation's cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn mix(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// One EXPAND: the expanded node, the number revealed, then each one.
    pub fn expand(&mut self, node: u32, revealed: impl ExactSizeIterator<Item = u32>) {
        self.mix(node);
        self.mix(revealed.len() as u32);
        for r in revealed {
            self.mix(r);
        }
    }
}

/// Reference outcomes keyed by (query, target).
type Replayed = Vec<((usize, u32), Expected)>;

/// The reference outcome of one navigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    digest: Digest,
    expands: u32,
    shown: u32,
    cost: u64,
}

/// Checks every served navigation against its sequential replay, spreading
/// queries over `threads` threads. Returns the number of distinct
/// navigations replayed.
pub fn verify(universe: &Universe, served: &[Served], threads: usize) -> Result<usize, String> {
    let mut wanted: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
    for s in served {
        wanted.entry(s.query).or_default().insert(s.target.0);
    }
    let jobs: Vec<(usize, BTreeSet<u32>)> = wanted.into_iter().collect();
    let results: Vec<Result<Replayed, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let jobs = &jobs;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (q, targets) in jobs.iter().skip(t).step_by(threads.max(1)) {
                        for (target, e) in replay_query(universe, *q, targets)? {
                            out.push(((*q, target), e));
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    let mut expected: HashMap<(usize, u32), Expected> = HashMap::new();
    for r in results {
        expected.extend(r?);
    }
    for s in served {
        let e = expected[&(s.query, s.target.0)];
        let got = Expected {
            digest: s.digest,
            expands: s.expands,
            shown: s.shown,
            cost: s.cost,
        };
        if got != e {
            return Err(format!(
                "query {:?} target {}: served {got:?}, sequential replay {e:?}",
                universe.queries[s.query].keywords, s.target.0
            ));
        }
    }
    Ok(expected.len())
}

/// One EXPAND of the replay stack and the state it left.
struct Frame {
    node: NavNodeId,
    state: SessionState,
    digest: Digest,
}

/// Replays TOPDOWN navigations (capped at `MAX_EXPANDS`) to each of `targets` (pre-order ids) over a
/// fresh tree of query `q`.
fn replay_query(
    universe: &Universe,
    q: usize,
    targets: &BTreeSet<u32>,
) -> Result<Vec<(u32, Expected)>, String> {
    let nav = fresh_tree(&universe.workload, &universe.queries[q].keywords);
    let params = CostParams::default();
    let restore = |state: SessionState| {
        Session::restore(&nav, params.clone(), state)
            .ok_or("exported state no longer fits its tree")
    };
    let root = Session::new(&nav, params.clone()).export_state();
    let mut frames: Vec<Frame> = Vec::new();
    let mut out = Vec::with_capacity(targets.len());
    for &t in targets {
        let target = NavNodeId(t);
        let mut depth = 0;
        loop {
            let state = if depth == 0 {
                &root
            } else {
                &frames[depth - 1].state
            };
            if state.active.is_visible(target) || depth == MAX_EXPANDS {
                break;
            }
            let node = state.active.component_root_of(target);
            if frames.get(depth).is_some_and(|f| f.node == node) {
                depth += 1;
                continue;
            }
            let base = state.clone();
            let mut digest = frames
                .get(depth.wrapping_sub(1))
                .map_or(Digest::default(), |f| f.digest);
            frames.truncate(depth);
            let mut session = restore(base)?;
            let revealed = session
                .expand(node)
                .map_err(|e| format!("replay EXPAND of {} toward {t}: {e}", node.0))?;
            digest.expand(node.0, revealed.iter().map(|n| n.0));
            frames.push(Frame {
                node,
                state: session.export_state(),
                digest,
            });
            depth += 1;
        }
        let (state, digest) = match depth {
            0 => (root.clone(), Digest::default()),
            d => (frames[d - 1].state.clone(), frames[d - 1].digest),
        };
        let shown_node = state.active.component_root_of(target);
        let mut session = restore(state)?;
        let shown = session
            .show_results(shown_node)
            .map_err(|e| format!("replay SHOWRESULTS of {t}: {e}"))?
            .len() as u32;
        out.push((
            t,
            Expected {
                digest,
                expands: depth as u32,
                shown,
                cost: session.cost().total_cost() as u64,
            },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_see_order_and_grouping() {
        let d = |cuts: &[(u32, &[u32])]| {
            let mut d = Digest::default();
            for (n, r) in cuts {
                d.expand(*n, r.iter().copied());
            }
            d
        };
        assert_eq!(d(&[(0, &[1, 2])]), d(&[(0, &[1, 2])]));
        assert_ne!(d(&[(0, &[1, 2])]), d(&[(0, &[2, 1])]));
        assert_ne!(d(&[(0, &[1]), (2, &[])]), d(&[(0, &[1, 2])]));
    }
}
