//! Opt-EdgeCut (paper §VI-A): the exact, exponential dynamic program.
//!
//! A [`CutProblem`] is a small rooted tree of *units* — either raw
//! navigation-tree nodes, or the supernodes of a reduced tree — each
//! carrying its citation set, its EXPLORE weight and how many underlying
//! navigation nodes it stands for. The solver computes, for every component
//! (encoded as a `u64` bitmask of units), the minimum expected TOPDOWN
//! exploration cost
//!
//! ```text
//! explore(C) = pE(C) · [ (1 − pX(C)) · |R(C)|  +  pX(C) · (expand_cost + bestcut(C)) ]
//! bestcut(C) = min over valid EdgeCuts of C of
//!                Σ_lower (planning_label_cost + explore(lower))  +  explore(upper)
//! ```
//!
//! `planning_label_cost` defaults to 0, matching the paper's §III formula
//! `pX · (1 + Σ_m cost(I'(m)))` which charges the EXPAND click but no
//! per-label term inside the expectation (labels are charged when a real
//! navigation is tallied). See [`CostParams::planning_label_cost`].
//!
//! The key structural fact (see `DESIGN.md` §2): valid EdgeCuts of a tree
//! are in bijection with proper connected rooted prefixes `U ⊊ C` — the cut
//! edges are exactly the edges leaving `U`, automatically an antichain. The
//! DP therefore enumerates connected prefixes and memoizes per component
//! mask; once the root component is solved, the optimal cut of *every*
//! reachable sub-component is known, which is exactly the property §VI-B
//! exploits ("there is no need to call the algorithm again for subsequent
//! expansions").

use std::collections::HashMap;

use crate::bitset::CitSet;
use crate::cost::CostParams;
use crate::edgecut::counters;
use crate::prob::{expand_probability, explore_probability};

/// An exact best-EdgeCut problem instance over at most
/// [`CostParams::max_opt_nodes`] units. Unit 0 is the root.
#[derive(Debug, Clone)]
pub struct CutProblem {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    sets: Vec<CitSet>,
    unit_distinct: Vec<u32>,
    member_count: Vec<u32>,
    explore_weight: Vec<f64>,
    total_explore_weight: f64,
    params: CostParams,
    /// Full subtree of each unit within the problem tree, as a mask.
    subtree_mask: Vec<u64>,
}

/// Memoized result for one component mask.
#[derive(Debug, Clone)]
struct MaskInfo {
    cost: f64,
    /// Lower roots of the optimal cut; `None` when expanding is not
    /// worthwhile (the model prefers SHOWRESULTS) or not possible.
    best_cut: Option<Vec<usize>>,
}

/// A retainable memo table for [`CutSolver`]: per-mask exact-DP results
/// plus per-mask myopic (§V objective) results.
///
/// The cache belongs to a *specific* [`CutProblem`]; feeding it to a solver
/// over a different problem is a logic error (masks would alias). Keep it
/// next to the problem it was filled for — exactly what
/// [`ReducedPlan`](crate::edgecut::heuristic::ReducedPlan) does, realizing
/// the paper's §VI-B observation that once Opt-EdgeCut has run, every
/// sub-component's cut is already known and follow-up expansions are pure
/// lookups.
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    exact: HashMap<u64, MaskInfo>,
    myopic: HashMap<u64, Option<(Vec<usize>, f64)>>,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized entries (exact + myopic masks).
    pub fn len(&self) -> usize {
        self.exact.len() + self.myopic.len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.myopic.is_empty()
    }
}

/// How a [`CutSolver`] holds its memo: owned (throwaway) or borrowed from a
/// caller that retains it across solver instances (§VI-B reuse).
#[derive(Debug)]
enum Memo<'c> {
    Owned(SolveCache),
    Shared(&'c mut SolveCache),
}

impl Memo<'_> {
    fn cache(&mut self) -> &mut SolveCache {
        match self {
            Memo::Owned(c) => c,
            Memo::Shared(c) => c,
        }
    }

    fn cache_ref(&self) -> &SolveCache {
        match self {
            Memo::Owned(c) => c,
            Memo::Shared(c) => c,
        }
    }
}

/// The solver: memoizes per-mask results so repeated queries stay cheap.
/// Created by [`CutProblem::solver`] (private throwaway memo) or
/// [`CutProblem::solver_with_cache`] (caller-retained memo).
///
/// Besides the memo it owns the working buffers of a solve, so the myopic
/// solve allocates nothing per prefix once they have grown: the
/// citation-set union behind every distinct count, the prefix list, and
/// the lower roots of the prefix being scored.
#[derive(Debug)]
pub struct CutSolver<'a> {
    problem: &'a CutProblem,
    memo: Memo<'a>,
    /// Union buffer of `CutProblem::mask_distinct`; sized on first use.
    union: CitSet,
    /// Prefix lists, used as a stack: a nested exact solve appends past
    /// its caller's prefixes and truncates back to them.
    prefixes: Vec<u64>,
    /// Lower roots of the prefix [`CutSolver::best_cut_myopic`] is scoring.
    lower_roots: Vec<usize>,
}

impl CutProblem {
    /// Builds a problem instance.
    ///
    /// * `parent[i]` — parent unit of unit `i`; exactly `parent[0] == None`
    ///   and every other unit's parent must have a smaller index (parents
    ///   precede children, which any pre-order numbering satisfies);
    /// * `sets[i]` — distinct citations of unit `i`;
    /// * `member_count[i]` — underlying navigation-tree nodes unit `i`
    ///   stands for (1 when units are raw nodes);
    /// * `explore_weight[i]` — `Σ |R(m)| / ln |LT(m)|` over those nodes;
    /// * `total_explore_weight` — the navigation-tree-wide normalizer `W`.
    ///
    /// # Panics
    /// Panics on malformed trees or if the unit count exceeds
    /// `params.max_opt_nodes` (the whole point of §VI-B is to never feed the
    /// exact solver a big tree).
    pub fn new(
        parent: Vec<Option<usize>>,
        sets: Vec<CitSet>,
        member_count: Vec<u32>,
        explore_weight: Vec<f64>,
        total_explore_weight: f64,
        params: CostParams,
    ) -> Self {
        let n = parent.len();
        assert!(n >= 1, "a cut problem needs at least the root unit");
        assert!(
            n <= params.max_opt_nodes,
            "Opt-EdgeCut invoked on {n} units, above the feasibility cap {}",
            params.max_opt_nodes
        );
        assert!(n <= 64, "component masks are u64");
        assert_eq!(sets.len(), n);
        assert_eq!(member_count.len(), n);
        assert_eq!(explore_weight.len(), n);
        assert!(parent[0].is_none(), "unit 0 must be the root");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            #[expect(
                clippy::expect_used,
                reason = "asserted above: parent[0] is the only None"
            )]
            let p = p.expect("only the root lacks a parent");
            assert!(p < i, "parents must precede children (pre-order numbering)");
            children[p].push(i);
        }
        // Subtree masks bottom-up (children have larger indices).
        let mut subtree_mask = vec![0u64; n];
        for i in (0..n).rev() {
            let mut m = 1u64 << i;
            for &c in &children[i] {
                m |= subtree_mask[c];
            }
            subtree_mask[i] = m;
        }
        let unit_distinct = sets.iter().map(CitSet::count).collect();
        CutProblem {
            parent,
            children,
            sets,
            unit_distinct,
            member_count,
            explore_weight,
            total_explore_weight,
            params,
            subtree_mask,
        }
    }

    /// Builds a raw-granularity problem over a navigation-tree component:
    /// one unit per component node (`comp` in pre-order, `comp[0]` the
    /// component root). This is the tree Opt-EdgeCut would have to solve
    /// *without* the §VI-B reduction — feasible only for small components,
    /// which is exactly what the optimal-vs-heuristic ablation measures.
    pub fn from_component(
        nav: &crate::navtree::NavigationTree,
        comp: &[crate::navtree::NavNodeId],
        params: CostParams,
    ) -> Self {
        let index_of = |n: crate::navtree::NavNodeId| {
            #[expect(
                clippy::expect_used,
                reason = "components are parent-closed by construction (partition() emits whole subtrees)"
            )]
            comp.iter()
                .position(|&m| m == n)
                .expect("parents of members are members")
        };
        let parent: Vec<Option<usize>> = comp
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if i == 0 {
                    None
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "i > 0 means n is not the component root, so its nav parent exists"
                    )]
                    Some(index_of(nav.parent(n).expect("non-root")))
                }
            })
            .collect();
        let sets: Vec<CitSet> = comp.iter().map(|&n| nav.results(n)).collect();
        let explore_weight: Vec<f64> = comp.iter().map(|&n| nav.explore_weight(n)).collect();
        CutProblem::new(
            parent,
            sets,
            vec![1; comp.len()],
            explore_weight,
            nav.total_explore_weight(),
            params,
        )
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the problem is the trivial single-unit tree.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// The mask containing every unit.
    pub fn full_mask(&self) -> u64 {
        if self.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.len()) - 1
        }
    }

    /// Creates a solver over this problem with a fresh, throwaway memo.
    pub fn solver(&self) -> CutSolver<'_> {
        self.solver_over(Memo::Owned(SolveCache::new()))
    }

    /// Creates a solver that reads and fills a caller-retained
    /// [`SolveCache`]. Everything a previous solver over the same problem
    /// memoized is answered without recomputation — the §VI-B "no need to
    /// call the algorithm again" reuse. The cache must have been filled for
    /// *this* problem (masks are problem-relative).
    pub fn solver_with_cache<'a>(&'a self, cache: &'a mut SolveCache) -> CutSolver<'a> {
        self.solver_over(Memo::Shared(cache))
    }

    fn solver_over<'a>(&'a self, memo: Memo<'a>) -> CutSolver<'a> {
        CutSolver {
            problem: self,
            memo,
            union: CitSet::new(0),
            prefixes: Vec::new(),
            lower_roots: Vec::new(),
        }
    }

    /// Mask of the full subtree rooted at `unit` within the problem tree.
    pub fn subtree_mask_of(&self, unit: usize) -> u64 {
        self.subtree_mask[unit]
    }

    /// Parent unit of `unit` (`None` for the root unit 0).
    pub fn parent_of(&self, unit: usize) -> Option<usize> {
        self.parent[unit]
    }

    /// `|∪ R(i)|` over the units of `mask`, unioned into `acc` (which is
    /// resized to this problem's universe if it has another).
    fn mask_distinct(&self, mask: u64, acc: &mut CitSet) -> u32 {
        let universe = self.sets[0].universe();
        if acc.universe() == universe {
            acc.clear();
        } else {
            *acc = CitSet::new(universe);
        }
        for i in iter_mask(mask) {
            acc.union_with(&self.sets[i]);
        }
        acc.count()
    }

    /// Root of a connected mask: the unique unit whose parent is outside.
    fn root_of(&self, mask: u64) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "callers never pass mask == 0, and any non-empty mask has a minimal element whose parent is outside it"
        )]
        iter_mask(mask)
            .find(|&i| match self.parent[i] {
                None => true,
                Some(p) => mask & (1u64 << p) == 0,
            })
            .expect("masks are non-empty")
    }
}

impl CutSolver<'_> {
    /// Minimum expected exploration cost of the full tree.
    pub fn solve_full(&mut self) -> f64 {
        self.solve(self.problem.full_mask())
    }

    /// The optimal cut of the full tree (lower-root unit indices), or
    /// `None` when the model would rather SHOWRESULTS than expand.
    pub fn best_cut_full(&mut self) -> Option<Vec<usize>> {
        self.best_cut(self.problem.full_mask())
    }

    /// Minimum expected exploration cost of the component `mask` (which
    /// must be non-empty and connected).
    pub fn solve(&mut self, mask: u64) -> f64 {
        self.ensure(mask);
        self.memo.cache_ref().exact[&mask].cost
    }

    /// Optimal cut of component `mask`.
    pub fn best_cut(&mut self, mask: u64) -> Option<Vec<usize>> {
        self.ensure(mask);
        self.memo.cache_ref().exact[&mask].best_cut.clone()
    }

    /// Expected cost of the component `mask` when the *first* expansion is
    /// forced to use the given cut (lower-root unit indices) and every
    /// later decision is optimal. Used by the ablation to price the
    /// heuristic's choice under the exact model; `lower_roots` must be a
    /// valid cut of `mask` (members of `mask` whose parents are in `mask`,
    /// no two on one root path).
    pub fn cost_with_first_cut(&mut self, mask: u64, lower_roots: &[usize]) -> f64 {
        let p = self.problem;
        let distinct = p.mask_distinct(mask, &mut self.union);
        let ew: f64 = iter_mask(mask).map(|i| p.explore_weight[i]).sum();
        let members: u32 = iter_mask(mask).map(|i| p.member_count[i]).sum();
        let md: Vec<u32> = iter_mask(mask).map(|i| p.unit_distinct[i]).collect();
        let pe = explore_probability(ew, p.total_explore_weight);
        let px = expand_probability(&p.params, distinct, &md, members);
        if lower_roots.is_empty() || px <= 0.0 {
            return pe * f64::from(distinct);
        }
        let mut upper = mask;
        let mut cut_cost = 0.0;
        for &v in lower_roots {
            debug_assert!(mask & (1u64 << v) != 0, "cut node outside component");
            let sub = p.subtree_mask[v] & mask;
            upper &= !sub;
            cut_cost += p.params.planning_label_cost + self.solve(sub);
        }
        cut_cost += self.solve(upper);
        pe * ((1.0 - px) * f64::from(distinct) + px * (p.params.expand_cost + cut_cost))
    }

    /// The myopic §V objective: for component `mask`, score every valid
    /// cut as
    ///
    /// ```text
    /// expand_cost + Σ_lower label_cost + Σ_{all components m} pE(m)·|R(m)|
    /// ```
    ///
    /// (one paid label per newly revealed subtree, plus the
    /// probability-weighted SHOWRESULTS the user runs next — exactly the
    /// TOPDOWN-EXHAUSTIVE cost whose optimization §V proves NP-complete)
    /// and return the minimizing cut with its score. Returns `None` for
    /// single-unit components (nothing to cut). Results are memoized per
    /// mask (the myopic plane of [`SolveCache`]), so retained-plan
    /// expansions answer repeated masks without re-enumeration.
    pub fn best_cut_myopic(&mut self, mask: u64) -> Option<(Vec<usize>, f64)> {
        if let Some(hit) = self.memo.cache_ref().myopic.get(&mask) {
            return hit.clone();
        }
        let result = self.compute_myopic(mask);
        self.memo.cache().myopic.insert(mask, result.clone());
        result
    }

    /// The uncached §V enumeration behind [`CutSolver::best_cut_myopic`].
    ///
    /// A lower component is always a unit's whole subtree within `mask`,
    /// whatever the prefix above it, so each unit's lower read cost is
    /// priced once up front; a prefix then costs one upper read plus table
    /// lookups. The score is summed in a fixed order, which its bits depend
    /// on: the upper read first, then `label_cost + read` per lower root in
    /// ascending unit order.
    fn compute_myopic(&mut self, mask: u64) -> Option<(Vec<usize>, f64)> {
        let p = self.problem;
        if mask.count_ones() <= 1 {
            return None;
        }
        let root = p.root_of(mask);
        let mut lower_read = [0.0; 64];
        for v in iter_mask(mask & !(1u64 << root)) {
            lower_read[v] = self.component_read_cost(p.subtree_mask[v] & mask);
        }
        let start = self.prefixes.len();
        enumerate_prefixes(p, mask, root, &mut self.prefixes);
        counters::note_dp_prefixes(self.prefixes.len() - start);
        let mut best: Option<(Vec<usize>, f64)> = None;
        for at in start..self.prefixes.len() {
            let upper = self.prefixes[at];
            if upper == mask {
                continue;
            }
            let mut score = p.params.expand_cost + self.component_read_cost(upper);
            self.lower_roots.clear();
            for v in iter_mask(mask & !upper) {
                #[expect(
                    clippy::expect_used,
                    reason = "the root is in every upper prefix, so v outside `upper` cannot be the root"
                )]
                let pv = p.parent[v].expect("non-root units have parents");
                if upper & (1u64 << pv) != 0 {
                    self.lower_roots.push(v);
                    score += p.params.label_cost + lower_read[v];
                }
            }
            if best.as_ref().is_none_or(|(_, b)| score < *b) {
                best = Some((self.lower_roots.clone(), score));
            }
        }
        self.prefixes.truncate(start);
        best
    }

    /// `pE(C)·|R(C)|`: the expected SHOWRESULTS cost of a component under
    /// the one-step model.
    fn component_read_cost(&mut self, mask: u64) -> f64 {
        let p = self.problem;
        let ew: f64 = iter_mask(mask).map(|i| p.explore_weight[i]).sum();
        explore_probability(ew, p.total_explore_weight)
            * f64::from(p.mask_distinct(mask, &mut self.union))
    }

    fn ensure(&mut self, mask: u64) {
        if self.memo.cache_ref().exact.contains_key(&mask) {
            return;
        }
        let info = self.compute(mask);
        self.memo.cache().exact.insert(mask, info);
    }

    fn compute(&mut self, mask: u64) -> MaskInfo {
        let p = self.problem;
        debug_assert!(mask != 0, "empty component");
        let distinct = p.mask_distinct(mask, &mut self.union);
        let ew: f64 = iter_mask(mask).map(|i| p.explore_weight[i]).sum();
        let members: u32 = iter_mask(mask).map(|i| p.member_count[i]).sum();
        let member_distincts: Vec<u32> = iter_mask(mask).map(|i| p.unit_distinct[i]).collect();

        let p_explore = explore_probability(ew, p.total_explore_weight);
        let p_expand = expand_probability(&p.params, distinct, &member_distincts, members);

        let single_unit = mask.count_ones() == 1;
        if single_unit || p_expand <= 0.0 {
            return MaskInfo {
                cost: p_explore * f64::from(distinct),
                best_cut: None,
            };
        }

        let root = p.root_of(mask);
        let mut best = f64::INFINITY;
        let mut best_cut: Vec<usize> = Vec::new();
        let start = self.prefixes.len();
        enumerate_prefixes(p, mask, root, &mut self.prefixes);
        let end = self.prefixes.len();
        counters::note_dp_prefixes(end - start);
        for at in start..end {
            let upper = self.prefixes[at];
            if upper == mask {
                continue; // proper prefixes only: a cut must cut something
            }
            // Lower roots: units just below the prefix boundary.
            let mut cut_cost = 0.0;
            let mut lower_roots: Vec<usize> = Vec::new();
            for v in iter_mask(mask & !upper) {
                #[expect(
                    clippy::expect_used,
                    reason = "the root is in every upper prefix, so v outside `upper` cannot be the root"
                )]
                let pv = p.parent[v].expect("non-root units have parents");
                if upper & (1u64 << pv) != 0 {
                    lower_roots.push(v);
                    let sub = p.subtree_mask[v] & mask;
                    cut_cost += p.params.planning_label_cost + self.solve(sub);
                }
            }
            cut_cost += self.solve(upper);
            if cut_cost < best {
                best = cut_cost;
                best_cut = lower_roots;
            }
        }
        self.prefixes.truncate(start);
        debug_assert!(best.is_finite(), "a multi-unit component always has a cut");
        let cost = p_explore
            * ((1.0 - p_expand) * f64::from(distinct) + p_expand * (p.params.expand_cost + best));
        MaskInfo {
            cost,
            best_cut: Some(best_cut),
        }
    }
}

/// Monte-Carlo validation of the §III expectation: simulates one random
/// TOPDOWN user over the problem tree, making the solver's optimal cut at
/// every EXPAND and sampling the EXPLORE / EXPAND coin flips with the
/// model's own probabilities. Returns the §III cost this user paid
/// (labels of newly revealed components are charged via
/// `planning_label_cost`, exactly as the DP prices them). Averaged over
/// many users, this converges to [`CutSolver::solve`] — the property the
/// `monte_carlo_matches_the_dp` test pins down.
///
/// `coin` supplies uniform samples in `[0, 1)` (pass a closure over your
/// RNG; the core crate takes no RNG dependency).
pub fn simulate_topdown_user(
    solver: &mut CutSolver<'_>,
    mask: u64,
    coin: &mut dyn FnMut() -> f64,
) -> f64 {
    let p = solver.problem;
    let distinct = p.mask_distinct(mask, &mut solver.union);
    let ew: f64 = iter_mask(mask).map(|i| p.explore_weight[i]).sum();
    let members: u32 = iter_mask(mask).map(|i| p.member_count[i]).sum();
    let md: Vec<u32> = iter_mask(mask).map(|i| p.unit_distinct[i]).collect();
    let pe = explore_probability(ew, p.total_explore_weight);
    let px = expand_probability(&p.params, distinct, &md, members);

    if coin() >= pe {
        return 0.0; // IGNORE
    }
    let expand_possible = mask.count_ones() > 1 && px > 0.0;
    if !expand_possible || coin() >= px {
        return f64::from(distinct); // SHOWRESULTS
    }
    // EXPAND with the optimal cut; the DP prices the same choice.
    #[expect(
        clippy::expect_used,
        reason = "guarded by the px > 0 branch above; the DP that priced px already materialized this cut"
    )]
    let cut = solver
        .best_cut(mask)
        .expect("px > 0 on a multi-unit component implies a cut exists");
    let mut cost = p.params.expand_cost;
    let mut upper = mask;
    for &v in &cut {
        let sub = p.subtree_mask[v] & mask;
        upper &= !sub;
        cost += p.params.planning_label_cost;
        cost += simulate_topdown_user(solver, sub, coin);
    }
    cost += simulate_topdown_user(solver, upper, coin);
    cost
}

/// Iterates over the set bits of a mask.
fn iter_mask(mask: u64) -> impl Iterator<Item = usize> {
    let mut bits = mask;
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        }
    })
}

/// Appends to `out` all connected rooted prefixes of `mask` containing
/// `root` (including `{root}` and `mask` itself): the product, over each
/// child subtree, of "absent" or any of its prefixes, the last child
/// varying fastest. Each product is built past the child's prefixes and
/// then moved down over its two factors, so `out` is the only buffer.
fn enumerate_prefixes(p: &CutProblem, mask: u64, root: usize, out: &mut Vec<u64>) {
    let start = out.len();
    out.push(1u64 << root);
    for &c in &p.children[root] {
        if mask & (1u64 << c) == 0 {
            continue;
        }
        let acc_end = out.len();
        enumerate_prefixes(p, mask & p.subtree_mask[c], c, out);
        let child_end = out.len();
        for at in start..acc_end {
            let a = out[at];
            out.push(a); // child subtree absent entirely
            for cp in acc_end..child_end {
                let cp = out[cp];
                out.push(a | cp);
            }
        }
        out.copy_within(child_end.., start);
        out.truncate(out.len() - (child_end - start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A problem over a simple tree; every unit gets the given citation
    /// list and weight 1 per citation (ln-normalizer suppressed by using
    /// a constant global frequency).
    fn problem(
        parents: Vec<Option<usize>>,
        cits: Vec<Vec<usize>>,
        params: CostParams,
    ) -> CutProblem {
        let universe = cits.iter().flatten().copied().max().map_or(1, |m| m + 1);
        let sets: Vec<CitSet> = cits
            .iter()
            .map(|list| {
                let mut s = CitSet::new(universe);
                for &c in list {
                    s.insert(c);
                }
                s
            })
            .collect();
        let weights: Vec<f64> = sets.iter().map(|s| f64::from(s.count())).collect();
        let total: f64 = weights.iter().sum();
        let n = parents.len();
        CutProblem::new(parents, sets, vec![1; n], weights, total, params)
    }

    /// Chain root(0) — 1 — 2.
    fn chain() -> CutProblem {
        problem(
            vec![None, Some(0), Some(1)],
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            CostParams {
                lower_threshold: 0,
                upper_threshold: 4,
                ..CostParams::default()
            },
        )
    }

    #[test]
    fn prefix_enumeration_matches_structure() {
        let p = chain();
        let mut prefixes = Vec::new();
        enumerate_prefixes(&p, p.full_mask(), 0, &mut prefixes);
        // Chain prefixes containing the root: {0}, {0,1}, {0,1,2}.
        let mut sorted = prefixes.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0b001, 0b011, 0b111]);
    }

    #[test]
    fn prefix_enumeration_on_star() {
        let p = problem(
            vec![None, Some(0), Some(0), Some(0)],
            vec![vec![0], vec![1], vec![2], vec![3]],
            CostParams::default(),
        );
        let mut prefixes = vec![u64::MAX];
        enumerate_prefixes(&p, p.full_mask(), 0, &mut prefixes);
        assert_eq!(prefixes.remove(0), u64::MAX, "appends past what is there");
        // Root plus any subset of 3 leaves: 8 prefixes.
        assert_eq!(prefixes.len(), 8);
        assert!(prefixes.iter().all(|m| m & 1 == 1));
    }

    #[test]
    fn root_of_masks() {
        let p = chain();
        assert_eq!(p.root_of(0b111), 0);
        assert_eq!(p.root_of(0b110), 1);
        assert_eq!(p.root_of(0b100), 2);
    }

    #[test]
    fn single_unit_cost_is_showresults() {
        let p = problem(vec![None], vec![vec![0, 1, 2]], CostParams::default());
        let mut s = p.solver();
        // pE = 1 (whole tree), pX = 0 (single unit): cost = |R| = 3.
        assert!((s.solve_full() - 3.0).abs() < 1e-9);
        assert_eq!(s.best_cut_full(), None);
    }

    #[test]
    fn small_result_components_prefer_showresults() {
        // distinct = 6 < lower_threshold 10 ⇒ pX = 0 ⇒ no cut.
        let p = problem(
            vec![None, Some(0), Some(1)],
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
            CostParams::default(),
        );
        let mut s = p.solver();
        assert_eq!(s.best_cut_full(), None);
        assert!((s.solve_full() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn expanding_is_cheaper_for_wide_spreads() {
        // Root with two heavy children, disjoint citations, above the upper
        // threshold: pX = 1, so the cost is the best cut's cost; revealing
        // the two children splits 60 citations into 30 + 30 with pE halved.
        let c0: Vec<usize> = vec![];
        let c1: Vec<usize> = (0..30).collect();
        let c2: Vec<usize> = (30..60).collect();
        let p = problem(
            vec![None, Some(0), Some(0)],
            vec![c0, c1, c2],
            CostParams::default(),
        );
        let mut s = p.solver();
        let cost = s.solve_full();
        let cut = s.best_cut_full().expect("must expand");
        // Every cut is equivalent here: each child component costs
        // pE · 30 = 15 whether revealed (planning labels are free) or left
        // in the upper for SHOWRESULTS. pE = 1, pX = 1:
        // cost = 1 + (15 + 15) = 31.
        assert!(!cut.is_empty());
        assert!((cost - 31.0).abs() < 1e-9, "got {cost}");
    }

    #[test]
    fn duplicates_steer_the_cut() {
        // Two children share all citations (pure duplicates); a third is
        // disjoint. Grouping the duplicated pair into one component avoids
        // paying for the same citations twice.
        let shared: Vec<usize> = (0..30).collect();
        let other: Vec<usize> = (30..60).collect();
        let params = CostParams::default();
        let p = problem(
            vec![None, Some(0), Some(0), Some(0)],
            vec![vec![], shared.clone(), shared, other],
            params,
        );
        let mut s = p.solver();
        let cut = s.best_cut_full().expect("must expand");
        // The cut should never separate units 1 and 2 from each other into
        // distinct lower components (that doubles the duplicate cost) — but
        // with a star they are separate children, so the solver instead
        // keeps them together in the upper component and cuts only unit 3,
        // or cuts 1,2,3 all; verify it found the cheaper of the options.
        let cost = s.solve_full();
        let mut alt = p.solver();
        // Compare with forcing all three children cut (cost of that layout):
        // compute via the enumeration result being minimal anyway.
        assert!(
            cost <= {
                // cut everything: 1 + Σ(1 + cost_child)
                let c1 = alt.solve(0b0010);
                let c2 = alt.solve(0b0100);
                let c3 = alt.solve(0b1000);
                1.0 + (1.0 + c1) + (1.0 + c2) + (1.0 + c3)
            } + 1e-9
        );
        assert!(!cut.is_empty());
    }

    #[test]
    fn memoization_reuses_subcomponents() {
        let p = chain();
        let mut s = p.solver();
        let _ = s.solve_full();
        let memo_after_full = s.memo.cache_ref().exact.len();
        // Sub-component solves hit the memo; the table does not grow.
        let _ = s.solve(0b110);
        let _ = s.solve(0b100);
        assert_eq!(s.memo.cache_ref().exact.len(), memo_after_full.max(3));
    }

    #[test]
    fn retained_cache_survives_across_solver_instances() {
        // The §VI-B reuse: a second solver over the same retained cache
        // answers previously solved masks without recomputing anything.
        let p = chain();
        let mut cache = SolveCache::new();
        let (full_cost, full_cut) = {
            let mut s = p.solver_with_cache(&mut cache);
            let cost = s.solve_full();
            let cut = s.best_cut_full();
            let _ = s.best_cut_myopic(p.full_mask());
            (cost, cut)
        };
        let len_after_first = cache.len();
        assert!(len_after_first > 0);
        {
            let mut s2 = p.solver_with_cache(&mut cache);
            assert_eq!(s2.solve_full().to_bits(), full_cost.to_bits());
            assert_eq!(s2.best_cut_full(), full_cut);
            // Sub-component queries are also answered from the cache.
            let _ = s2.solve(0b110);
        }
        assert_eq!(
            cache.len(),
            len_after_first,
            "retained cache must not recompute or grow on replayed masks"
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn myopic_results_are_memoized_and_stable() {
        let p = chain();
        let mut cache = SolveCache::new();
        let first = p.solver_with_cache(&mut cache).best_cut_myopic(0b111);
        let second = p.solver_with_cache(&mut cache).best_cut_myopic(0b111);
        assert_eq!(first, second);
        // And equal to the uncached enumeration.
        let fresh = p.solver().best_cut_myopic(0b111);
        assert_eq!(first, fresh);
    }

    #[test]
    #[should_panic(expected = "feasibility cap")]
    fn oversized_problems_are_rejected() {
        let n = 25;
        let mut parents = vec![None];
        parents.extend((1..n).map(|i| Some(i - 1)));
        let cits = vec![vec![0usize]; n];
        problem(parents, cits, CostParams::default());
    }

    #[test]
    #[should_panic(expected = "pre-order")]
    fn non_preorder_parents_are_rejected() {
        problem(
            vec![None, Some(2), Some(0)],
            vec![vec![0], vec![1], vec![2]],
            CostParams::default(),
        );
    }

    /// Brute-force reference: enumerate *every* antichain of edges directly
    /// and evaluate the same cost recursion, without the prefix bijection.
    fn brute_force_cost(p: &CutProblem, mask: u64) -> f64 {
        let distinct = p.mask_distinct(mask, &mut CitSet::new(0));
        let ew: f64 = iter_mask(mask).map(|i| p.explore_weight[i]).sum();
        let members: u32 = iter_mask(mask).map(|i| p.member_count[i]).sum();
        let md: Vec<u32> = iter_mask(mask).map(|i| p.unit_distinct[i]).collect();
        let pe = explore_probability(ew, p.total_explore_weight);
        let px = expand_probability(&p.params, distinct, &md, members);
        if mask.count_ones() == 1 || px <= 0.0 {
            return pe * f64::from(distinct);
        }
        // Edges inside the component, as (child) endpoints.
        let edges: Vec<usize> = iter_mask(mask)
            .filter(|&v| p.parent[v].map(|q| mask & (1 << q) != 0).unwrap_or(false))
            .collect();
        let mut best = f64::INFINITY;
        for bits in 1u64..(1 << edges.len()) {
            let chosen: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect();
            // Valid = antichain: no chosen edge endpoint is an ancestor of
            // another within the problem tree.
            let is_antichain = chosen.iter().all(|&a| {
                chosen
                    .iter()
                    .all(|&b| a == b || p.subtree_mask[a] & (1 << b) == 0)
            });
            if !is_antichain {
                continue;
            }
            let mut upper = mask;
            let mut cost = 0.0;
            for &v in &chosen {
                let sub = p.subtree_mask[v] & mask;
                upper &= !sub;
                cost += p.params.planning_label_cost + brute_force_cost(p, sub);
            }
            cost += brute_force_cost(p, upper);
            best = best.min(cost);
        }
        pe * ((1.0 - px) * f64::from(distinct) + px * (p.params.expand_cost + best))
    }

    #[test]
    fn from_component_mirrors_the_navigation_tree() {
        use crate::navtree::{NavNodeId, NavigationTree};
        use bionav_medline::{Citation, CitationId, CitationStore};
        use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
        let tn = |s: &str| TreeNumber::parse(s).unwrap();
        let descs = vec![
            Descriptor::new(DescriptorId(1), "a", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "b", vec![tn("A01.100")]),
            Descriptor::new(DescriptorId(3), "c", vec![tn("A01.200")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        let mut results = Vec::new();
        for (i, c) in [(1u32, 1u32), (2, 2), (3, 2), (4, 3), (5, 3)] {
            store
                .insert(Citation::new(
                    CitationId(i),
                    "t",
                    vec![],
                    vec![DescriptorId(c)],
                    vec![],
                ))
                .unwrap();
            results.push(CitationId(i));
        }
        let nav = NavigationTree::build(&h, &store, &results);
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        let p = CutProblem::from_component(&nav, &comp, CostParams::default());
        assert_eq!(p.len(), nav.len());
        // Unit 0 is the navigation root (no citations of its own).
        assert_eq!(p.unit_distinct[0], 0);
        let mut s = p.solver();
        let cost = s.solve_full();
        assert!(cost.is_finite() && cost >= 0.0);
    }

    #[test]
    fn forcing_the_optimal_cut_recovers_the_optimal_cost() {
        let c1: Vec<usize> = (0..30).collect();
        let c2: Vec<usize> = (30..60).collect();
        let p = problem(
            vec![None, Some(0), Some(0)],
            vec![vec![], c1, c2],
            CostParams::default(),
        );
        let mut s = p.solver();
        let optimal = s.solve_full();
        let cut = s.best_cut_full().unwrap();
        let forced = s.cost_with_first_cut(p.full_mask(), &cut);
        assert!((forced - optimal).abs() < 1e-9);
        // A suboptimal forced cut can only cost more.
        let worse = s.cost_with_first_cut(p.full_mask(), &[1, 2]);
        assert!(worse >= optimal - 1e-9);
    }

    #[test]
    fn dp_matches_brute_force_on_a_caterpillar() {
        // Spine 0-1-2-3 with a leaf hanging off each spine node.
        let parents = vec![None, Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)];
        let cits = vec![
            vec![0, 1, 2],
            vec![3, 4],
            vec![5, 0],
            vec![6, 7, 8],
            vec![9],
            vec![10, 3],
            vec![11, 12],
        ];
        let params = CostParams {
            lower_threshold: 2,
            upper_threshold: 8,
            ..CostParams::default()
        };
        let p = problem(parents, cits, params);
        let mut s = p.solver();
        let dp = s.solve_full();
        let bf = brute_force_cost(&p, p.full_mask());
        assert!((dp - bf).abs() < 1e-9, "dp {dp} vs brute force {bf}");
    }

    #[test]
    fn myopic_cut_minimizes_the_hand_computed_score() {
        // A star with overlapping citation sets; every cut's §V score is
        // recomputed by hand (sets known from the construction) and the
        // solver's choice must be the arg-min.
        let sets: [Vec<usize>; 4] = [
            vec![0, 1],         // root unit
            (0..20).collect(),  // hot, overlaps root
            (15..40).collect(), // mid, overlaps unit 1
            (38..55).collect(), // cold-ish, nearly disjoint
        ];
        let p = problem(
            vec![None, Some(0), Some(0), Some(0)],
            sets.to_vec(),
            CostParams::default(),
        );
        let total_w: f64 = sets.iter().map(|s| s.len() as f64).sum();
        let distinct_of = |units: &[usize]| -> f64 {
            let mut u: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for &i in units {
                u.extend(sets[i].iter().copied());
            }
            u.len() as f64
        };
        let weight_of =
            |units: &[usize]| -> f64 { units.iter().map(|&i| sets[i].len() as f64).sum() };
        // §V score of cutting `lower` on the star (upper = rest ∪ {0}).
        let score = |lower: &[usize]| -> f64 {
            let upper: Vec<usize> = (0..4).filter(|u| !lower.contains(u)).collect();
            let mut s = 1.0; // expand cost
            s += (weight_of(&upper) / total_w).min(1.0) * distinct_of(&upper);
            for &u in lower {
                s += 1.0; // label
                s += (weight_of(&[u]) / total_w).min(1.0) * distinct_of(&[u]);
            }
            s
        };
        let all_cuts: [&[usize]; 7] = [&[1], &[2], &[3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3]];
        let (hand_best_cut, hand_best) = all_cuts
            .iter()
            .map(|c| (c.to_vec(), score(c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let mut solver = p.solver();
        let (cut, solver_score) = solver.best_cut_myopic(p.full_mask()).expect("multi-unit");
        assert!(
            (solver_score - hand_best).abs() < 1e-9,
            "{solver_score} vs {hand_best}"
        );
        let mut sorted = cut.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, hand_best_cut, "solver cut {cut:?}");
    }

    #[test]
    fn myopic_prefers_revealing_the_fragmenting_hot_unit() {
        // Unit 1 is hot and disjoint from the rest (fragmenting); unit 2
        // duplicates the root's content (revealing it buys nothing).
        let root_c: Vec<usize> = (0..30).collect();
        let hot: Vec<usize> = (30..60).collect();
        let dup: Vec<usize> = (0..30).collect();
        let p = problem(
            vec![None, Some(0), Some(0)],
            vec![root_c, hot, dup],
            CostParams::default(),
        );
        let mut s = p.solver();
        let (cut, _) = s.best_cut_myopic(p.full_mask()).expect("multi-unit");
        assert!(
            cut.contains(&1),
            "the fragmenting hot unit must be revealed: {cut:?}"
        );
        assert!(
            !cut.contains(&2),
            "the pure-duplicate unit stays hidden: {cut:?}"
        );
    }

    #[test]
    fn myopic_none_on_single_unit() {
        let p = problem(vec![None], vec![vec![0, 1]], CostParams::default());
        let mut s = p.solver();
        assert!(s.best_cut_myopic(p.full_mask()).is_none());
    }

    #[test]
    fn subtree_and_parent_accessors() {
        let p = chain();
        assert_eq!(p.subtree_mask_of(0), 0b111);
        assert_eq!(p.subtree_mask_of(1), 0b110);
        assert_eq!(p.subtree_mask_of(2), 0b100);
        assert_eq!(p.parent_of(0), None);
        assert_eq!(p.parent_of(2), Some(1));
    }

    #[test]
    fn monte_carlo_matches_the_dp() {
        // The strongest semantic check we have: 40k simulated §III users
        // making the solver's own cuts must average to the DP's expected
        // cost within ~2%.
        let parents = vec![None, Some(0), Some(0), Some(1), Some(1), Some(2)];
        let cits = vec![
            vec![0, 1],
            (2..12).collect::<Vec<_>>(),
            (10..20).collect::<Vec<_>>(),
            vec![2, 3, 4],
            (5..12).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
        ];
        let params = CostParams {
            planner: crate::cost::Planner::Recursive,
            lower_threshold: 2,
            upper_threshold: 15,
            planning_label_cost: 1.0,
            ..CostParams::default()
        };
        let p = problem(parents, cits, params);
        let mut solver = p.solver();
        let expected = solver.solve_full();

        // A tiny deterministic LCG; the core crate takes no RNG dependency.
        let mut state = 0x853c49e6748fea9bu64;
        let mut coin = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let trials = 40_000;
        let total: f64 = (0..trials)
            .map(|_| simulate_topdown_user(&mut solver, p.full_mask(), &mut coin))
            .sum();
        let mean = total / f64::from(trials);
        let rel = (mean - expected).abs() / expected.max(1e-9);
        assert!(
            rel < 0.02,
            "Monte-Carlo mean {mean:.3} vs DP expectation {expected:.3} (rel {rel:.4})"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random trees of 2..=7 units with random small citation sets and
        /// random thresholds.
        fn problem_strategy() -> impl Strategy<Value = CutProblem> {
            (2usize..=7).prop_flat_map(|n| {
                let parents = proptest::collection::vec(0usize..n.max(1), n - 1);
                let cits =
                    proptest::collection::vec(proptest::collection::vec(0usize..12, 0..6), n);
                let thresholds = (0u32..6, 6u32..14);
                (parents, cits, thresholds).prop_map(move |(rawp, cits, (lo, hi))| {
                    // Clamp each unit's parent to a smaller index (pre-order).
                    let mut parents: Vec<Option<usize>> = vec![None];
                    for (i, p) in rawp.into_iter().enumerate() {
                        parents.push(Some(p % (i + 1)));
                    }
                    let params = CostParams {
                        lower_threshold: lo,
                        upper_threshold: hi,
                        planner: crate::cost::Planner::Recursive,
                        ..CostParams::default()
                    };
                    problem(parents, cits, params)
                })
            })
        }

        /// Random trees of 2..=9 units (pre-order parents) with random
        /// small citation lists, and label/expand costs whose sums round.
        fn myopic_strategy(
        ) -> impl Strategy<Value = (Vec<Option<usize>>, Vec<Vec<usize>>, CostParams)> {
            (2usize..=9).prop_flat_map(|n| {
                let parents = proptest::collection::vec(0usize..n, n - 1);
                let cits =
                    proptest::collection::vec(proptest::collection::vec(0usize..12, 0..6), n);
                let costs = (0usize..4, 0usize..4);
                (parents, cits, costs).prop_map(|(rawp, cits, (e, l))| {
                    let mut parents: Vec<Option<usize>> = vec![None];
                    for (i, p) in rawp.into_iter().enumerate() {
                        parents.push(Some(p % (i + 1)));
                    }
                    let costs = [0.0, 0.3, 1.0, 2.7];
                    let params = CostParams {
                        planner: crate::cost::Planner::Exhaustive,
                        expand_cost: costs[e],
                        label_cost: costs[l],
                        ..CostParams::default()
                    };
                    (parents, cits, params)
                })
            })
        }

        /// Every valid cut of the whole tree with its §V score, computed
        /// from first principles: a cut is any non-empty antichain of
        /// non-root units (ascending), ancestry comes from walking
        /// `parents`, and distinct counts are `BTreeSet` unions. The score
        /// is summed in the solver's order: expand cost plus the upper
        /// read, then `label_cost + read` per lower root, ascending, where
        /// a read is `pE · |R|` with the explore weight summed over the
        /// component's units in ascending order.
        fn brute_force_myopic(
            parents: &[Option<usize>],
            cits: &[Vec<usize>],
            params: &CostParams,
        ) -> Vec<(Vec<usize>, f64)> {
            use std::collections::BTreeSet;
            let n = parents.len();
            let sets: Vec<BTreeSet<usize>> =
                cits.iter().map(|c| c.iter().copied().collect()).collect();
            let weights: Vec<f64> = sets.iter().map(|s| s.len() as f64).collect();
            let total: f64 = weights.iter().sum();
            let below = |a: usize, mut b: usize| loop {
                if a == b {
                    return true;
                }
                match parents[b] {
                    Some(up) => b = up,
                    None => return false,
                }
            };
            let read = |units: &[usize]| {
                let ew: f64 = units.iter().map(|&u| weights[u]).sum();
                let union: BTreeSet<usize> = units
                    .iter()
                    .flat_map(|&u| sets[u].iter().copied())
                    .collect();
                explore_probability(ew, total) * union.len() as f64
            };
            let mut out = Vec::new();
            for bits in 1u32..(1 << (n - 1)) {
                let lower: Vec<usize> = (1..n).filter(|&v| bits & (1 << (v - 1)) != 0).collect();
                if lower
                    .iter()
                    .any(|&a| lower.iter().any(|&b| a != b && below(a, b)))
                {
                    continue;
                }
                let upper: Vec<usize> = (0..n)
                    .filter(|&u| !lower.iter().any(|&v| below(v, u)))
                    .collect();
                let mut score = params.expand_cost + read(&upper);
                for &v in &lower {
                    let sub: Vec<usize> = (0..n).filter(|&u| below(v, u)).collect();
                    score += params.label_cost + read(&sub);
                }
                out.push((lower, score));
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The default planner's myopic solve picks a minimum of the
            /// brute-force scorer over every valid cut, and its score has
            /// the same bits: pricing a lower root once per mask and reusing
            /// the union buffer must not reorder any f64 operation.
            #[test]
            fn myopic_matches_a_brute_force_scorer_bit_for_bit(
                (parents, cits, params) in myopic_strategy(),
            ) {
                let all = brute_force_myopic(&parents, &cits, &params);
                let min = all.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
                let p = problem(parents, cits, params);
                let (cut, score) = p.solver().best_cut_myopic(p.full_mask()).expect("multi-unit");
                prop_assert_eq!(score.to_bits(), min.to_bits(), "solver {} vs brute force {}", score, min);
                let argmins: Vec<&Vec<usize>> = all
                    .iter()
                    .filter(|(_, s)| s.to_bits() == min.to_bits())
                    .map(|(c, _)| c)
                    .collect();
                prop_assert!(argmins.contains(&&cut), "cut {:?} is not among the minima {:?}", cut, argmins);
            }

            /// The memoized prefix-bijection DP equals direct antichain
            /// enumeration on every random instance.
            #[test]
            fn dp_equals_brute_force(p in problem_strategy()) {
                let mut s = p.solver();
                let dp = s.solve_full();
                let bf = brute_force_cost(&p, p.full_mask());
                prop_assert!((dp - bf).abs() < 1e-9, "dp {dp} vs bf {bf}");
            }

            /// Any forced first cut is priced at least as high as the
            /// optimum, and the optimal cut reproduces the optimal cost.
            #[test]
            fn forced_cuts_never_beat_the_optimum(p in problem_strategy()) {
                let mut s = p.solver();
                let optimal = s.solve_full();
                if let Some(cut) = s.best_cut_full() {
                    let forced = s.cost_with_first_cut(p.full_mask(), &cut);
                    prop_assert!((forced - optimal).abs() < 1e-9);
                }
                for unit in 1..p.len() {
                    // Single-edge cuts are always valid.
                    let alt = s.cost_with_first_cut(p.full_mask(), &[unit]);
                    prop_assert!(alt >= optimal - 1e-9, "unit {unit}: {alt} < {optimal}");
                }
            }

            /// The myopic planner returns a valid antichain whose upper
            /// component keeps the root.
            #[test]
            fn myopic_cuts_are_valid_antichains(p in problem_strategy()) {
                let mut s = p.solver();
                if let Some((cut, score)) = s.best_cut_myopic(p.full_mask()) {
                    prop_assert!(score.is_finite());
                    prop_assert!(!cut.is_empty());
                    prop_assert!(!cut.contains(&0), "the root is never a lower endpoint");
                    for &a in &cut {
                        for &b in &cut {
                            if a != b {
                                prop_assert_eq!(
                                    p.subtree_mask_of(a) & (1u64 << b),
                                    0,
                                    "nested cut edges {} and {}", a, b
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_small_trees() {
        // Tree:       0
        //           / | \
        //          1  2  3
        //         / \     \
        //        4   5     6
        let parents = vec![None, Some(0), Some(0), Some(0), Some(1), Some(1), Some(3)];
        let cits = vec![
            vec![0, 1],
            vec![2, 3, 4],
            vec![5, 6],
            vec![7, 8, 0],
            vec![9, 10, 2],
            vec![11],
            vec![12, 13],
        ];
        let params = CostParams {
            lower_threshold: 2,
            upper_threshold: 9,
            ..CostParams::default()
        };
        let p = problem(parents, cits, params);
        let mut s = p.solver();
        let dp = s.solve_full();
        let bf = brute_force_cost(&p, p.full_mask());
        assert!((dp - bf).abs() < 1e-9, "dp {dp} vs brute force {bf}");
    }
}
