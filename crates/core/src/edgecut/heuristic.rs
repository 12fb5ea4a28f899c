//! Heuristic-ReducedOpt (paper §VI-B): partition the component into at most
//! `k` supernodes, solve the reduced tree exactly with Opt-EdgeCut, and map
//! the winning cut back onto navigation-tree edges.
//!
//! The reduced tree `R(T̂)` approximates the component `T̂`: each partition
//! becomes one unit whose citation set is the union over its members, whose
//! EXPLORE weight is the member sum, and whose `member_count` keeps the
//! entropy normalization honest. A cut edge of the reduced tree between
//! partitions `(P, Q)` corresponds to the original edge
//! `(parent(root(Q)), root(Q))`, so reduced cuts are always valid cuts of
//! the component.
//!
//! # Single-pass planning
//!
//! A fresh EXPAND runs the pipeline **once**: one [`partition_until_in`]
//! loop, one reduced-problem build, one exact solve — and the solve's memo
//! table is *retained inside the returned* [`ReducedPlan`], so the plan,
//! the outcome and the first [`PlannedCut`] all come from the same pass
//! (see [`plan_component_with`]). The scratch arena
//! ([`crate::scratch::NavScratch`]) supplies node-indexed epoch-stamped
//! membership/partition maps, eliminating the per-call hash maps and
//! `Vec::contains` scans of the original implementation. The historical
//! two-pass pipeline survives only as the [`reference`](mod@reference)
//! module, which the equivalence test-suite replays against this one.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::active::{ActiveTree, EdgeCut};
use crate::bitset::CitSet;
use crate::cost::CostParams;
use crate::edgecut::counters;
use crate::edgecut::opt::{CutProblem, SolveCache};
use crate::edgecut::partition::{partition_until_in, Partition};
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::{NavScratch, NodeMap};
use crate::trace::{self, Stage};

/// What one Heuristic-ReducedOpt invocation produced.
#[derive(Debug, Clone)]
pub struct ExpandOutcome {
    /// The selected EdgeCut (lower roots are navigation-tree nodes).
    pub cut: EdgeCut,
    /// Size of the reduced tree the exact solver ran on (the paper reports
    /// this per EXPAND in Fig 11 as "partitions").
    pub reduced_size: usize,
    /// The solver's expected-cost estimate for the component.
    pub estimated_cost: f64,
    /// Wall-clock time spent (partitioning + exact solve + mapping).
    pub elapsed: Duration,
    /// True when the cost model preferred SHOWRESULTS and the cut is the
    /// reveal-top-partitions fallback (the user explicitly asked to expand,
    /// so *something* must be revealed).
    pub fallback: bool,
}

/// Runs Heuristic-ReducedOpt on the component rooted at `root` of the
/// active tree. Returns `None` when the component is a single node (there
/// is nothing to cut; the interface would not offer `>>>`).
pub fn heuristic_reduced_opt(
    nav: &NavigationTree,
    active: &ActiveTree,
    root: NavNodeId,
    params: &CostParams,
) -> Option<ExpandOutcome> {
    let comp = active.component_nodes(nav, root);
    expand_component(nav, &comp, params)
}

/// A retained reduced tree, enabling the §VI-B reuse: "once Opt-EdgeCut is
/// executed for `R(T̂)`, the costs (and optimal EdgeCuts) for all possible
/// `I(n)`'s are also computed and hence there is no need to call the
/// algorithm again for subsequent expansions."
///
/// A plan describes sub-components of the original reduced tree as unit
/// bitmasks, and it carries the **retained solver memo**: the
/// [`SolveCache`] populated by the initial solve lives inside the plan
/// behind a mutex, and every later [`ReducedPlan::cut`] call resumes from
/// it. Because the dynamic program over `R(T̂)` already visited every
/// connected sub-component mask, a follow-up expansion is a memo lookup
/// plus the cut mapping — no partitioning and no fresh solve, which is
/// exactly the paper's claim above. The mutex keeps the plan `Send +
/// Sync`, so the serving engine can share `Arc<ReducedPlan>`s across
/// workers. When a sub-component shrinks to a single supernode the plan is
/// exhausted and the caller re-partitions fresh.
#[derive(Debug)]
pub struct ReducedPlan {
    problem: CutProblem,
    /// Partition root (navigation node) of each unit.
    unit_roots: Vec<NavNodeId>,
    /// The retained solver memo (§VI-B). Interior-mutable so shared plans
    /// keep learning: any expansion's sub-solves benefit later ones.
    memo: Mutex<SolveCache>,
}

impl Clone for ReducedPlan {
    fn clone(&self) -> Self {
        ReducedPlan {
            problem: self.problem.clone(),
            unit_roots: self.unit_roots.clone(),
            memo: Mutex::new(self.memo.lock().clone()),
        }
    }
}

impl ReducedPlan {
    /// Number of units (partitions) in the retained reduced tree.
    pub fn len(&self) -> usize {
        self.unit_roots.len()
    }

    /// Whether the plan holds a single unit (nothing left to cut).
    pub fn is_empty(&self) -> bool {
        self.unit_roots.len() <= 1
    }

    /// The mask describing the whole retained reduced tree.
    pub fn full_mask(&self) -> u64 {
        self.problem.full_mask()
    }

    /// Number of memoized solver entries currently retained.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().len()
    }

    /// Best cut of the sub-component `mask`, or `None` when it has a single
    /// unit left (the caller should re-partition) or the planner declines.
    ///
    /// Served from the retained memo: after the initial solve this is a
    /// cache lookup, not a recomputation.
    pub fn cut(&self, mask: u64, params: &CostParams) -> Option<PlannedCut> {
        if mask.count_ones() <= 1 {
            return None;
        }
        let _sp = trace::span(Stage::MemoCut);
        // lint: allow(lock-across-solve) — the memo IS the solver's working
        // state; the lock is plan-private, never shared across sessions
        let mut cache = self.memo.lock();
        let mut solver = self.problem.solver_with_cache(&mut cache);
        let lower_units = match params.planner {
            crate::cost::Planner::Exhaustive => solver.best_cut_myopic(mask).map(|(c, _)| c)?,
            crate::cost::Planner::Recursive => solver.best_cut(mask)?,
        };
        drop(cache);
        self.map_cut(mask, lower_units)
    }

    /// [`ReducedPlan::cut`] computed with a throwaway memo, ignoring the
    /// retained cache. Exists so the equivalence test-suite can assert the
    /// retained-memo path returns bit-identical cuts; not used in serving.
    pub fn cut_uncached(&self, mask: u64, params: &CostParams) -> Option<PlannedCut> {
        if mask.count_ones() <= 1 {
            return None;
        }
        let mut solver = self.problem.solver();
        let lower_units = match params.planner {
            crate::cost::Planner::Exhaustive => solver.best_cut_myopic(mask).map(|(c, _)| c)?,
            crate::cost::Planner::Recursive => solver.best_cut(mask)?,
        };
        self.map_cut(mask, lower_units)
    }

    /// Maps reduced-tree lower units back to navigation-tree edges and
    /// component masks.
    fn map_cut(&self, mask: u64, lower_units: Vec<usize>) -> Option<PlannedCut> {
        if lower_units.is_empty() {
            return None;
        }
        let cut = EdgeCut::new(lower_units.iter().map(|&u| self.unit_roots[u]).collect());
        let mut upper_mask = mask;
        let mut lowers = Vec::with_capacity(lower_units.len());
        for &u in &lower_units {
            let sub = self.problem.subtree_mask_of(u) & mask;
            upper_mask &= !sub;
            lowers.push((self.unit_roots[u], sub));
        }
        Some(PlannedCut {
            cut,
            upper_mask,
            lowers,
        })
    }
}

/// A cut answered from a retained [`ReducedPlan`], with the masks of the
/// components it creates (for registering follow-up plan entries).
#[derive(Debug, Clone)]
pub struct PlannedCut {
    /// The EdgeCut to apply to the active tree.
    pub cut: EdgeCut,
    /// The upper component's remaining unit mask.
    pub upper_mask: u64,
    /// `(component root, unit mask)` per lower component.
    pub lowers: Vec<(NavNodeId, u64)>,
}

/// Like [`expand_component`], additionally returning the retained
/// [`ReducedPlan`] and the post-cut masks so callers (sessions with
/// [`CostParams::reuse_plans`]) can answer follow-up expansions without
/// re-partitioning. Allocates a throwaway scratch arena; hot callers use
/// [`plan_component_with`].
pub fn plan_component(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    params: &CostParams,
) -> Option<(ExpandOutcome, Option<(ReducedPlan, PlannedCut)>)> {
    let mut scratch = NavScratch::new();
    plan_component_with(nav, comp, params, &mut scratch)
}

/// The single-pass Heuristic-ReducedOpt pipeline: **one** partitioning
/// loop, **one** reduced-problem build, **one** exact solve — whose memo
/// is retained in the returned plan — and the outcome plus first planned
/// cut derived from that same solve. `scratch` supplies all transient
/// state; a session threads one arena through every expansion.
pub fn plan_component_with(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    params: &CostParams,
    scratch: &mut NavScratch,
) -> Option<(ExpandOutcome, Option<(ReducedPlan, PlannedCut)>)> {
    if comp.len() < 2 {
        return None;
    }
    let started = trace::now_ns();
    let parts = {
        let _sp = trace::span(Stage::Partition);
        partition_until_in(nav, comp, params.max_partitions, scratch)
    };

    if parts.len() == 1 {
        // The whole component fit one partition (tiny component): reveal
        // the component root's children directly.
        return tiny_component_fallback(nav, comp, &mut scratch.map, started)
            .map(|outcome| (outcome, None));
    }

    // Stamp each node's partition id into the scratch map: reduced_parent
    // becomes an O(1) lookup instead of a per-partition `contains` scan.
    let build_sp = trace::span(Stage::ReducedBuild);
    let map = &mut scratch.map;
    map.begin(nav.len());
    for (pid, p) in parts.iter().enumerate() {
        for &m in &p.nodes {
            map.set(m.index(), pid as u32);
        }
    }

    let problem = reduced_problem(nav, &parts, map, params);
    let plan = ReducedPlan {
        problem,
        unit_roots: parts.iter().map(|p| p.root).collect(),
        memo: Mutex::new(SolveCache::new()),
    };
    let full = plan.full_mask();
    drop(build_sp);

    // The one fresh solve; its memo stays in `plan`.
    counters::note_plan_solve();
    let (estimated_cost, best) = {
        let _sp = trace::span(Stage::Solve);
        // lint: allow(lock-across-solve) — this is the one fresh solve that
        // seeds the plan-private memo; nothing else can hold this lock yet
        let mut cache = plan.memo.lock();
        let mut solver = plan.problem.solver_with_cache(&mut cache);
        match params.planner {
            crate::cost::Planner::Exhaustive => match solver.best_cut_myopic(full) {
                Some((cut, score)) => (score, Some(cut)),
                None => (f64::NAN, None),
            },
            crate::cost::Planner::Recursive => {
                let cost = solver.solve_full();
                (cost, solver.best_cut_full())
            }
        }
    };

    let (lower_units, fallback) = match best {
        Some(cut) if !cut.is_empty() => (cut, false),
        // The model would rather SHOWRESULTS (or found an empty optimum);
        // the user still clicked `>>>`, so reveal the top layer of the
        // reduced tree — every partition whose parent partition is the
        // root's (a valid antichain by construction).
        _ => {
            let top: Vec<usize> = (1..parts.len())
                .filter(|&i| reduced_parent(nav, &parts[i], map) == 0)
                .collect();
            (top, true)
        }
    };
    let planned = if fallback {
        // A fallback reveal is not a planner decision; retaining the plan
        // would replay the decline on the sub-components. Matches the
        // historical behavior of `plan.cut` returning `None` here.
        None
    } else {
        plan.map_cut(full, lower_units.clone())
    };
    let cut = EdgeCut::new(lower_units.iter().map(|&u| parts[u].root).collect());
    let outcome = ExpandOutcome {
        cut,
        reduced_size: parts.len(),
        estimated_cost,
        elapsed: Duration::from_nanos(trace::now_ns().saturating_sub(started)),
        fallback,
    };
    Some((outcome, planned.map(|p| (plan, p))))
}

/// The tiny-component path: the whole component fit one partition, so
/// reveal the component root's in-component children. Returns `None` —
/// instead of an empty `EdgeCut` — when a stale `comp` from a racing
/// caller leaves no revealable child.
fn tiny_component_fallback(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    map: &mut NodeMap,
    started_ns: u64,
) -> Option<ExpandOutcome> {
    debug_assert!(
        comp.len() >= 2,
        "the tiny-component path only runs on multi-node components"
    );
    map.begin(nav.len());
    for &n in comp {
        map.set(n.index(), 1);
    }
    let mut children: Vec<NavNodeId> = nav
        .children(comp[0])
        .iter()
        .copied()
        .filter(|c| map.get(c.index()).is_some())
        .collect();
    children.dedup();
    debug_assert!(
        children.iter().all(|&c| c != comp[0]),
        "a component root can never be its own revealable child"
    );
    if children.is_empty() {
        // Typed decline, not an empty EdgeCut: a stale `comp` from a racing
        // caller leaves nothing revealable; the caller maps None onto
        // EdgeCutError::EmptyCut and the session surfaces it.
        return None;
    }
    Some(ExpandOutcome {
        cut: EdgeCut::new(children),
        reduced_size: 1,
        estimated_cost: f64::NAN,
        elapsed: Duration::from_nanos(trace::now_ns().saturating_sub(started_ns)),
        fallback: true,
    })
}

/// The core of the heuristic, operating on an explicit component node list
/// (pre-order, `comp[0]` is the component root). Exposed for benches that
/// measure expansion outside an [`ActiveTree`]. A thin wrapper over
/// [`plan_component`] that drops the retained plan.
pub fn expand_component(
    nav: &NavigationTree,
    comp: &[NavNodeId],
    params: &CostParams,
) -> Option<ExpandOutcome> {
    plan_component(nav, comp, params).map(|(outcome, _)| outcome)
}

/// Builds the reduced-tree cut problem over the partitions. `parts[0]` is
/// the root partition (guaranteed by
/// [`partition_until`](crate::edgecut::partition::partition_until)), and
/// `map` holds each component node's partition id. Citation unions and
/// explore-weight sums run in one pass over the component in partition
/// order — the same member order as the historical implementation, keeping
/// the f64 sums bit-identical.
fn reduced_problem(
    nav: &NavigationTree,
    parts: &[Partition],
    map: &NodeMap,
    params: &CostParams,
) -> CutProblem {
    let n = parts.len();
    let mut parent: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut sets: Vec<CitSet> = Vec::with_capacity(n);
    let mut member_count: Vec<u32> = Vec::with_capacity(n);
    let mut explore_weight: Vec<f64> = Vec::with_capacity(n);
    for (i, p) in parts.iter().enumerate() {
        parent.push(if i == 0 {
            None
        } else {
            Some(reduced_parent(nav, p, map))
        });
        let mut set = CitSet::new(nav.universe());
        let mut ew = 0.0;
        for &m in &p.nodes {
            set.union_with(nav.results(m));
            ew += nav.explore_weight(m);
        }
        sets.push(set);
        member_count.push(p.nodes.len() as u32);
        explore_weight.push(ew);
    }
    // Partition roots are in pre-order after the root partition, so every
    // partition's parent partition has a smaller index... except when an
    // earlier-rooted partition hangs below a later-rooted one, which cannot
    // happen: the parent of a partition root precedes it in pre-order.
    CutProblem::new(
        parent,
        sets,
        member_count,
        explore_weight,
        nav.total_explore_weight(),
        params.clone(),
    )
}

/// Index of the partition containing the navigation parent of `part`'s
/// root — an O(1) lookup in the stamped partition-id map.
fn reduced_parent(nav: &NavigationTree, part: &Partition, map: &NodeMap) -> usize {
    let up = nav
        .parent(part.root)
        // lint: allow(no-unwrap) — partition() only emits non-root partitions
        // below the component root, so the nav parent always exists
        .expect("non-root partitions hang below the component root");
    map.get(up.index())
        // lint: allow(no-unwrap) — the stamped map covers every node of the
        // component by construction (see NodeMap::stamp_component)
        .expect("the parent node belongs to some partition of the same component") as usize
}

/// The historical two-pass Heuristic-ReducedOpt pipeline, kept verbatim as
/// the behavioral reference for the equivalence test-suite
/// (`tests/plan_equivalence.rs`). **Not used in serving** — it runs
/// `partition_until` twice per planned expansion and solves with throwaway
/// memos, which is exactly the tail-latency bug the single-pass pipeline
/// replaces. It partitions with the frozen linear-ladder
/// [`partition::oracle`](crate::edgecut::partition::oracle), so the
/// equivalence suite also checks the live partitioner end to end. Do not
/// "optimize" this module; its value is fidelity to the pre-optimization
/// semantics.
#[doc(hidden)]
pub mod reference {
    use super::*;
    use crate::edgecut::partition::oracle::partition_until;

    /// Two-pass [`super::plan_component`]: expand, then re-partition and
    /// re-solve to retain the plan.
    pub fn plan_component(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        params: &CostParams,
    ) -> Option<(ExpandOutcome, Option<(ReducedPlan, PlannedCut)>)> {
        let outcome = expand_component(nav, comp, params)?;
        if outcome.reduced_size <= 1 {
            return Some((outcome, None));
        }
        // Rebuild the partitioning deterministically and retain it.
        let parts = partition_until(nav, comp, params.max_partitions);
        let problem = reference_problem(nav, &parts, params);
        let plan = ReducedPlan {
            problem,
            unit_roots: parts.iter().map(|p| p.root).collect(),
            memo: Mutex::new(SolveCache::new()),
        };
        let planned = plan.cut_uncached(plan.full_mask(), params);
        Some((outcome, planned.map(|p| (plan, p))))
    }

    /// Single-shot expansion with a throwaway solver memo.
    pub fn expand_component(
        nav: &NavigationTree,
        comp: &[NavNodeId],
        params: &CostParams,
    ) -> Option<ExpandOutcome> {
        if comp.len() < 2 {
            return None;
        }
        // lint: allow(no-naked-instant) — the historical two-pass reference
        // is kept verbatim for the equivalence suite; it predates the
        // instrumented clock and never runs on the serve path
        let started = Instant::now();
        let parts = partition_until(nav, comp, params.max_partitions);

        if parts.len() == 1 {
            let children: Vec<NavNodeId> = nav
                .children(comp[0])
                .iter()
                .copied()
                .filter(|c| comp.contains(c))
                .collect();
            if children.is_empty() {
                // The historical code returned an empty EdgeCut here; the
                // bugfixed pipeline returns None, and the reference adopts
                // that so outcomes stay comparable (the condition requires
                // a stale component list either way).
                return None;
            }
            return Some(ExpandOutcome {
                cut: EdgeCut::new(children),
                reduced_size: 1,
                estimated_cost: f64::NAN,
                elapsed: started.elapsed(),
                fallback: true,
            });
        }

        let problem = reference_problem(nav, &parts, params);
        let mut solver = problem.solver();
        let (estimated_cost, best) = match params.planner {
            crate::cost::Planner::Exhaustive => match solver.best_cut_myopic(problem.full_mask()) {
                Some((cut, score)) => (score, Some(cut)),
                None => (f64::NAN, None),
            },
            crate::cost::Planner::Recursive => {
                let cost = solver.solve_full();
                (cost, solver.best_cut_full())
            }
        };

        let (lower_units, fallback) = match best {
            Some(cut) if !cut.is_empty() => (cut, false),
            _ => {
                let top: Vec<usize> = (1..parts.len())
                    .filter(|&i| reference_parent(nav, &parts, i) == 0)
                    .collect();
                (top, true)
            }
        };
        let cut = EdgeCut::new(lower_units.iter().map(|&u| parts[u].root).collect());
        Some(ExpandOutcome {
            cut,
            reduced_size: parts.len(),
            estimated_cost,
            elapsed: started.elapsed(),
            fallback,
        })
    }

    /// Reduced-problem build with the historical O(parts × n) parent scan.
    fn reference_problem(
        nav: &NavigationTree,
        parts: &[Partition],
        params: &CostParams,
    ) -> CutProblem {
        let n = parts.len();
        let mut parent: Vec<Option<usize>> = Vec::with_capacity(n);
        let mut sets: Vec<CitSet> = Vec::with_capacity(n);
        let mut member_count: Vec<u32> = Vec::with_capacity(n);
        let mut explore_weight: Vec<f64> = Vec::with_capacity(n);
        for (i, p) in parts.iter().enumerate() {
            parent.push(if i == 0 {
                None
            } else {
                Some(reference_parent(nav, parts, i))
            });
            let mut set = CitSet::new(nav.universe());
            let mut ew = 0.0;
            for &m in &p.nodes {
                set.union_with(nav.results(m));
                ew += nav.explore_weight(m);
            }
            sets.push(set);
            member_count.push(p.nodes.len() as u32);
            explore_weight.push(ew);
        }
        CutProblem::new(
            parent,
            sets,
            member_count,
            explore_weight,
            nav.total_explore_weight(),
            params.clone(),
        )
    }

    fn reference_parent(nav: &NavigationTree, parts: &[Partition], i: usize) -> usize {
        let up = nav
            .parent(parts[i].root)
            // lint: allow(no-unwrap) — same structural invariant as
            // reduced_parent above; kept verbatim as the reference
            .expect("non-root partitions hang below the component root");
        parts
            .iter()
            // lint: allow(hotpath-no-hashmap) — behavioral reference kept
            // verbatim; not on the serve path (see module docs)
            .position(|p| p.nodes.contains(&up))
            // lint: allow(no-unwrap) — reference twin of reduced_parent
            .expect("the parent node belongs to some partition of the same component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveTree;
    use crate::edgecut::partition::partition_until;
    use bionav_medline::{Citation, CitationId, CitationStore};
    use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    /// Root with three branches; citations are spread so the middle branch
    /// dominates. ~60 citations overall to clear the upper threshold.
    fn build_nav() -> NavigationTree {
        let descs = vec![
            Descriptor::new(DescriptorId(1), "A", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "A1", vec![tn("A01.100")]),
            Descriptor::new(DescriptorId(3), "A2", vec![tn("A01.200")]),
            Descriptor::new(DescriptorId(4), "B", vec![tn("B01")]),
            Descriptor::new(DescriptorId(5), "B1", vec![tn("B01.100")]),
            Descriptor::new(DescriptorId(6), "B2", vec![tn("B01.100.100")]),
            Descriptor::new(DescriptorId(7), "C", vec![tn("C01")]),
            Descriptor::new(DescriptorId(8), "C1", vec![tn("C01.100")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        let spread = [
            (1u32, 6u32),
            (2, 8),
            (3, 7),
            (4, 14),
            (5, 12),
            (6, 10),
            (7, 4),
            (8, 3),
        ];
        let mut next = 1u32;
        let mut results = Vec::new();
        for &(concept, count) in &spread {
            for _ in 0..count {
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
    fn produces_a_valid_cut_on_the_initial_component() {
        let nav = build_nav();
        let mut active = ActiveTree::new(&nav);
        let params = CostParams::default();
        let out = heuristic_reduced_opt(&nav, &active, NavNodeId::ROOT, &params)
            .expect("multi-node component must expand");
        assert!(!out.cut.is_empty());
        assert!(out.reduced_size >= 2 && out.reduced_size <= params.max_partitions);
        // The active tree accepts the cut — the heuristic only proposes
        // valid EdgeCuts.
        active.expand(&nav, NavNodeId::ROOT, &out.cut).unwrap();
    }

    #[test]
    fn respects_the_partition_budget() {
        let nav = build_nav();
        let active = ActiveTree::new(&nav);
        for k in [2usize, 3, 4, 6, 10] {
            let params = CostParams::default().with_max_partitions(k);
            let out = heuristic_reduced_opt(&nav, &active, NavNodeId::ROOT, &params).unwrap();
            assert!(
                out.reduced_size <= k,
                "k={k} gave reduced size {}",
                out.reduced_size
            );
        }
    }

    #[test]
    fn singleton_component_yields_none() {
        let nav = build_nav();
        let mut active = ActiveTree::new(&nav);
        let params = CostParams::default();
        // Cut a leaf out, making it a singleton component.
        let leaf = nav
            .iter_preorder()
            .find(|&n| nav.children(n).is_empty())
            .unwrap();
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![leaf]))
            .unwrap();
        assert!(heuristic_reduced_opt(&nav, &active, leaf, &params).is_none());
    }

    #[test]
    fn expansion_chain_terminates_with_all_nodes_visible() {
        // Repeatedly expanding every expandable component must terminate
        // with every node a component root.
        let nav = build_nav();
        let mut active = ActiveTree::new(&nav);
        let params = CostParams::default();
        let mut guard = 0;
        loop {
            let target = nav
                .iter_preorder()
                .find(|&n| active.is_visible(n) && active.component_size(n) > 1);
            let Some(root) = target else { break };
            let out = heuristic_reduced_opt(&nav, &active, root, &params).unwrap();
            assert!(
                !out.cut.is_empty(),
                "expandable components must produce cuts"
            );
            active.expand(&nav, root, &out.cut).unwrap();
            guard += 1;
            assert!(guard <= nav.len() * 2, "expansion loop failed to terminate");
        }
        for n in nav.iter_preorder() {
            assert!(active.is_visible(n));
        }
    }

    #[test]
    fn small_components_fall_back_to_children_reveal() {
        // A 3-node component with few citations: the model prefers
        // SHOWRESULTS, but expansion still reveals something.
        let descs = vec![
            Descriptor::new(DescriptorId(1), "A", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "B", vec![tn("A01.100")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        for (i, c) in [(1u32, 1u32), (2, 2), (3, 2)] {
            store
                .insert(Citation::new(
                    CitationId(i),
                    "t",
                    vec![],
                    vec![DescriptorId(c)],
                    vec![],
                ))
                .unwrap();
        }
        let nav = NavigationTree::build(&h, &store, &[CitationId(1), CitationId(2), CitationId(3)]);
        let active = ActiveTree::new(&nav);
        // The myopic planner always proposes a concrete cut.
        let out = heuristic_reduced_opt(&nav, &active, NavNodeId::ROOT, &CostParams::default())
            .expect("3-node component expands");
        assert!(!out.cut.is_empty());
        // The recursive planner declines (|R| below the lower threshold ⇒
        // pX = 0 ⇒ SHOWRESULTS preferred) and the fallback reveal fires.
        let recursive = CostParams {
            planner: crate::cost::Planner::Recursive,
            ..CostParams::default()
        };
        let out = heuristic_reduced_opt(&nav, &active, NavNodeId::ROOT, &recursive)
            .expect("3-node component expands");
        assert!(!out.cut.is_empty());
        assert!(out.fallback);
    }

    #[test]
    fn plan_component_is_consistent_with_expand_component() {
        let nav = build_nav();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let params = CostParams::default();
        let direct = expand_component(&nav, &comp, &params).expect("expands");
        let (outcome, planned) = plan_component(&nav, &comp, &params).expect("expands");
        assert_eq!(outcome.cut, direct.cut, "both paths choose the same cut");
        let (plan, cut) = planned.expect("multi-partition components retain a plan");
        assert_eq!(cut.cut, direct.cut);
        // The returned masks partition the plan's full mask.
        let mut union = cut.upper_mask;
        for &(_, m) in &cut.lowers {
            assert_eq!(union & m, 0, "component masks must be disjoint");
            union |= m;
        }
        assert_eq!(union, plan.full_mask());
        assert_eq!(cut.lowers.len(), cut.cut.len());
        assert!(!plan.is_empty());
        assert!(plan.len() >= 2);
        // Every lower mask's root maps back to its navigation node.
        for &(root, mask) in &cut.lowers {
            assert!(mask != 0);
            assert!(comp.contains(&root));
        }
        // A follow-up cut of the upper mask (if still multi-unit) is valid
        // for the active tree that applied the first cut.
        if cut.upper_mask.count_ones() > 1 {
            if let Some(next) = plan.cut(cut.upper_mask, &params) {
                let mut active = ActiveTree::new(&nav);
                active
                    .expand(&nav, NavNodeId::ROOT, &cut.cut)
                    .expect("first cut valid");
                active
                    .expand(&nav, NavNodeId::ROOT, &next.cut)
                    .expect("follow-up plan cut valid");
            }
        }
    }

    #[test]
    fn reduced_cut_maps_to_partition_roots() {
        let nav = build_nav();
        let active = ActiveTree::new(&nav);
        let params = CostParams::default().with_max_partitions(4);
        let out = heuristic_reduced_opt(&nav, &active, NavNodeId::ROOT, &params).unwrap();
        let comp = active.component_nodes(&nav, NavNodeId::ROOT);
        let parts = partition_until(&nav, &comp, params.max_partitions);
        let roots: Vec<NavNodeId> = parts.iter().map(|p| p.root).collect();
        for lower in out.cut.lower_roots() {
            assert!(
                roots.contains(lower),
                "cut endpoints must be partition roots"
            );
        }
    }

    #[test]
    fn single_pass_matches_two_pass_reference() {
        let nav = build_nav();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        for planner in [
            crate::cost::Planner::Exhaustive,
            crate::cost::Planner::Recursive,
        ] {
            for k in [2usize, 4, 10] {
                let params = CostParams {
                    planner,
                    ..CostParams::default().with_max_partitions(k)
                };
                let new = plan_component(&nav, &comp, &params);
                let old = reference::plan_component(&nav, &comp, &params);
                match (new, old) {
                    (None, None) => {}
                    (Some((no, np)), Some((oo, op))) => {
                        assert_eq!(no.cut, oo.cut, "planner={planner:?} k={k}");
                        assert_eq!(no.reduced_size, oo.reduced_size);
                        assert_eq!(no.fallback, oo.fallback);
                        assert!(
                            no.estimated_cost == oo.estimated_cost
                                || (no.estimated_cost.is_nan() && oo.estimated_cost.is_nan()),
                            "estimated cost must be bit-identical"
                        );
                        match (np, op) {
                            (None, None) => {}
                            (Some((nplan, ncut)), Some((oplan, ocut))) => {
                                assert_eq!(ncut.cut, ocut.cut);
                                assert_eq!(ncut.upper_mask, ocut.upper_mask);
                                assert_eq!(ncut.lowers, ocut.lowers);
                                assert_eq!(nplan.full_mask(), oplan.full_mask());
                            }
                            (n, o) => panic!(
                                "plan retention diverged: new={} old={}",
                                n.is_some(),
                                o.is_some()
                            ),
                        }
                    }
                    (n, o) => panic!("outcomes diverged: new={} old={}", n.is_some(), o.is_some()),
                }
            }
        }
    }

    #[test]
    fn fresh_plan_runs_one_partitioning_and_one_solve() {
        let nav = build_nav();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let params = CostParams::default();
        counters::reset();
        let (_, planned) = plan_component(&nav, &comp, &params).expect("expands");
        assert_eq!(
            counters::partition_runs(),
            1,
            "fresh EXPAND must partition exactly once"
        );
        assert_eq!(
            counters::plan_solves(),
            1,
            "fresh EXPAND must solve exactly once"
        );
        // Retained-plan follow-ups partition and solve zero times.
        let (plan, first) = planned.expect("plan retained");
        counters::reset();
        for &(_, mask) in &first.lowers {
            let _ = plan.cut(mask, &params);
        }
        let _ = plan.cut(first.upper_mask, &params);
        assert_eq!(
            counters::partition_runs(),
            0,
            "retained-plan cuts must not re-partition"
        );
        assert_eq!(
            counters::plan_solves(),
            0,
            "retained-plan cuts must not re-solve"
        );
    }

    #[test]
    fn retained_memo_grows_and_cuts_match_uncached() {
        let nav = build_nav();
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let params = CostParams::default();
        let (_, planned) = plan_component(&nav, &comp, &params).expect("expands");
        let (plan, first) = planned.expect("plan retained");
        assert!(
            plan.memo_len() > 0,
            "the initial solve must seed the retained memo"
        );
        let masks: Vec<u64> = std::iter::once(first.upper_mask)
            .chain(first.lowers.iter().map(|&(_, m)| m))
            .collect();
        for mask in masks {
            let cached = plan.cut(mask, &params);
            let uncached = plan.cut_uncached(mask, &params);
            match (cached, uncached) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.cut, b.cut);
                    assert_eq!(a.upper_mask, b.upper_mask);
                    assert_eq!(a.lowers, b.lowers);
                }
                (a, b) => panic!(
                    "retained/uncached diverged: cached={} uncached={}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }
}
