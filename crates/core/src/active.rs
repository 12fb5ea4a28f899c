//! The active tree (paper §II, Definitions 3–5).
//!
//! An **active tree** is a navigation tree whose nodes are grouped into
//! *component subtrees*: the invisible regions between what the user has
//! already revealed. Each component is identified by its root, and is its
//! root's pre-order range minus the ranges of its holes
//! ([`ActiveTree::component_key`]); the set `I(n)` of the paper is
//! [`ActiveTree::component_nodes`]. A node expansion
//! is an [`EdgeCut`]: a set of component-internal edges, no two on one
//! root-to-leaf path, whose removal turns the component into one *upper*
//! subtree (still rooted at the expanded node) and one *lower* subtree per
//! cut edge. The visualization (Definition 5) shows exactly the component
//! roots, each annotated with the distinct citation count of its component.

use std::collections::HashSet;
use std::fmt;

use crate::bitset::CitSet;
use crate::navtree::{NavNodeId, NavigationTree};
use crate::scratch::NavScratch;

/// A valid EdgeCut, represented by the lower (child) endpoint of every cut
/// edge — cutting edge `(parent(c), c)` detaches the subtree of `c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeCut {
    lower_roots: Vec<NavNodeId>,
}

impl EdgeCut {
    /// Wraps a set of lower endpoints (deduplicated, order preserved).
    pub fn new(mut lower_roots: Vec<NavNodeId>) -> Self {
        let mut seen = HashSet::new();
        lower_roots.retain(|&n| seen.insert(n));
        EdgeCut { lower_roots }
    }

    /// The lower endpoints of the cut edges.
    pub fn lower_roots(&self) -> &[NavNodeId] {
        &self.lower_roots
    }

    /// Number of cut edges.
    pub fn len(&self) -> usize {
        self.lower_roots.len()
    }

    /// Whether the cut contains no edges (a no-op expansion).
    pub fn is_empty(&self) -> bool {
        self.lower_roots.is_empty()
    }
}

/// Why an EdgeCut was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeCutError {
    /// The expanded node is not a component root.
    NotAComponentRoot(NavNodeId),
    /// A cut node does not belong to the expanded component.
    OutsideComponent(NavNodeId),
    /// A cut node equals the component root (there is no such edge).
    CutsAboveRoot(NavNodeId),
    /// Two cut edges lie on one root-to-leaf path (Definition 3).
    NestedCutEdges {
        /// The ancestor-side endpoint.
        ancestor: NavNodeId,
        /// The descendant-side endpoint.
        descendant: NavNodeId,
    },
    /// The cut has no edges; an expansion must reveal something.
    EmptyCut,
    /// Nothing to undo.
    NothingToBacktrack,
}

impl fmt::Display for EdgeCutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeCutError::NotAComponentRoot(n) => {
                write!(f, "node {} is not a component root", n.0)
            }
            EdgeCutError::OutsideComponent(n) => {
                write!(f, "cut node {} lies outside the expanded component", n.0)
            }
            EdgeCutError::CutsAboveRoot(n) => {
                write!(f, "cut node {} is the component root itself", n.0)
            }
            EdgeCutError::NestedCutEdges {
                ancestor,
                descendant,
            } => write!(
                f,
                "cut edges at {} and {} lie on one root-to-leaf path",
                ancestor.0, descendant.0
            ),
            EdgeCutError::EmptyCut => write!(f, "an EdgeCut must contain at least one edge"),
            EdgeCutError::NothingToBacktrack => write!(f, "no expansion to undo"),
        }
    }
}

impl std::error::Error for EdgeCutError {}

/// One row of the active-tree visualization (Definition 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisNode {
    /// The visible node (a component root).
    pub node: NavNodeId,
    /// Its parent in the *embedded* visualization tree: the nearest visible
    /// ancestor (`None` for the navigation-tree root).
    pub parent: Option<NavNodeId>,
    /// Distinct citations in the node's component (the count shown next to
    /// the label; it shrinks as the component gets cut smaller).
    pub component_distinct: u32,
    /// Whether an `>>>` expand link is shown (the component hides nodes).
    pub expandable: bool,
}

/// The state of one navigation: a navigation tree partitioned into
/// component subtrees, closed under the EdgeCut operation.
///
/// The active tree holds only the *state* (which node belongs to which
/// component, plus the undo stack); every method takes the navigation tree
/// it was created for. Mixing trees is a logic error caught by the length
/// check in [`ActiveTree::new`]'s debug assertions.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct ActiveTree {
    /// For every node, the root of its component. A node `n` with
    /// `comp_root[n] == n` is a component root, i.e. visible.
    comp_root: Vec<NavNodeId>,
    /// Undo stack for BACKTRACK (snapshots of `comp_root`).
    history: Vec<Vec<NavNodeId>>,
}

impl ActiveTree {
    /// The initial active tree: one component, rooted at the navigation
    /// root, containing every node (only the root is visible).
    pub fn new(nav: &NavigationTree) -> Self {
        ActiveTree {
            comp_root: vec![NavNodeId::ROOT; nav.len()],
            history: Vec::new(),
        }
    }

    /// The component root owning `node`.
    pub fn component_root_of(&self, node: NavNodeId) -> NavNodeId {
        self.comp_root[node.index()]
    }

    /// Whether `node` is currently visible (a component root).
    pub fn is_visible(&self, node: NavNodeId) -> bool {
        self.comp_root[node.index()] == node
    }

    /// The paper's `I(root)`: every node of the component rooted at `root`,
    /// in navigation pre-order (so the component root comes first).
    pub fn component_nodes(&self, nav: &NavigationTree, root: NavNodeId) -> Vec<NavNodeId> {
        self.members(nav, root).collect()
    }

    /// The component rooted at `root` as its key: `root` followed by its
    /// holes, the topmost nodes of `root`'s pre-order range that belong to
    /// other components, in pre-order. Root and holes name the component
    /// exactly (it is the range minus the holes' ranges), so the EXPAND hot
    /// path partitions from them, and the cross-session cut memo keys on
    /// them, without listing the members. Writes into a caller-owned
    /// buffer.
    pub fn component_key(&self, nav: &NavigationTree, root: NavNodeId, out: &mut Vec<NavNodeId>) {
        debug_assert!(
            self.is_visible(root),
            "component queries take a component root"
        );
        out.clear();
        out.push(root);
        let end = nav.subtree_end(root);
        let mut i = root.0 + 1;
        while i < end {
            let n = NavNodeId(i);
            if self.comp_root[n.index()] != root {
                out.push(n);
                i = nav.subtree_end(n);
            } else {
                i += 1;
            }
        }
    }

    /// The members of `root`'s component in pre-order, walking only the
    /// root's pre-order range `root..subtree_end(root)`.
    ///
    /// A component is a connected subtree, so a node of the range that
    /// belongs to another component is the top of a hole (a cut-away
    /// component, with whatever was cut below it): the walk skips its
    /// whole subtree in one jump.
    fn members<'a>(
        &'a self,
        nav: &'a NavigationTree,
        root: NavNodeId,
    ) -> impl Iterator<Item = NavNodeId> + 'a {
        debug_assert_eq!(
            nav.len(),
            self.comp_root.len(),
            "active tree from another navigation tree"
        );
        debug_assert!(
            self.is_visible(root),
            "component queries take a component root"
        );
        let end = nav.subtree_end(root);
        let mut i = root.0;
        std::iter::from_fn(move || {
            while i < end {
                let n = NavNodeId(i);
                if self.comp_root[n.index()] == root {
                    i += 1;
                    return Some(n);
                }
                i = nav.subtree_end(n);
            }
            None
        })
    }

    /// Number of nodes in the component rooted at `root`.
    pub fn component_size(&self, nav: &NavigationTree, root: NavNodeId) -> usize {
        self.members(nav, root).count()
    }

    /// Distinct citations in the component rooted at `root` — the count the
    /// visualization shows.
    pub fn component_distinct(&self, nav: &NavigationTree, root: NavNodeId) -> u32 {
        self.component_set(nav, root).count()
    }

    /// The set of citations in the component rooted at `root`.
    pub fn component_set(&self, nav: &NavigationTree, root: NavNodeId) -> CitSet {
        let mut set = CitSet::new(nav.universe());
        self.fold_component(nav, root, &mut set);
        set
    }

    /// `set ∪= ` the component's citations: the client-read fold, timed as
    /// `Stage::Materialize`.
    fn fold_component(&self, nav: &NavigationTree, root: NavNodeId, set: &mut CitSet) {
        let _sp = crate::trace::span(crate::trace::Stage::Materialize);
        nav.fold_results(self.members(nav, root), set);
    }

    /// Validates `cut` against the component rooted at `root` without
    /// applying it (Definition 3).
    pub fn validate(
        &self,
        nav: &NavigationTree,
        root: NavNodeId,
        cut: &EdgeCut,
    ) -> Result<(), EdgeCutError> {
        if !self.is_visible(root) {
            return Err(EdgeCutError::NotAComponentRoot(root));
        }
        if cut.is_empty() {
            return Err(EdgeCutError::EmptyCut);
        }
        for &c in cut.lower_roots() {
            if c == root {
                return Err(EdgeCutError::CutsAboveRoot(c));
            }
            if self.comp_root[c.index()] != root {
                return Err(EdgeCutError::OutsideComponent(c));
            }
        }
        // No two cut edges on one root-to-leaf path ⇔ no cut node is an
        // ancestor of another (walk each node's parent chain up to `root`;
        // components are connected, so the chain stays inside).
        let cut_set: HashSet<NavNodeId> = cut.lower_roots().iter().copied().collect();
        for &c in cut.lower_roots() {
            let mut cur = nav.parent(c);
            while let Some(p) = cur {
                if p == root {
                    break;
                }
                if cut_set.contains(&p) {
                    return Err(EdgeCutError::NestedCutEdges {
                        ancestor: p,
                        descendant: c,
                    });
                }
                cur = nav.parent(p);
            }
        }
        Ok(())
    }

    /// Performs the EdgeCut operation on the component rooted at `root`
    /// (the paper's `EdgeCut: I ⟼ 2^I`): detaches one lower component per
    /// cut edge and returns the roots of *all* resulting components, upper
    /// first.
    pub fn expand(
        &mut self,
        nav: &NavigationTree,
        root: NavNodeId,
        cut: &EdgeCut,
    ) -> Result<Vec<NavNodeId>, EdgeCutError> {
        self.expand_in(nav, root, cut, &mut NavScratch::new())
    }

    /// [`ActiveTree::expand`] with a caller-owned scratch arena: the
    /// component-reassignment DFS borrows its stack from `scratch` instead
    /// of allocating one per expansion.
    pub fn expand_in(
        &mut self,
        nav: &NavigationTree,
        root: NavNodeId,
        cut: &EdgeCut,
        scratch: &mut NavScratch,
    ) -> Result<Vec<NavNodeId>, EdgeCutError> {
        let _sp = crate::trace::span(crate::trace::Stage::ApplyCut);
        self.validate(nav, root, cut)?;
        self.history.push(self.comp_root.clone());
        let stack = &mut scratch.arena.dfs;
        for &c in cut.lower_roots() {
            // Reassign the full navigation subtree of `c`, restricted to
            // nodes still in `root`'s component. Valid cuts are not nested,
            // so these regions are disjoint.
            stack.clear();
            stack.push(c);
            while let Some(n) = stack.pop() {
                if self.comp_root[n.index()] != root {
                    continue;
                }
                self.comp_root[n.index()] = c;
                stack.extend(nav.children(n));
            }
        }
        let mut out = vec![root];
        out.extend(cut.lower_roots().iter().copied());
        Ok(out)
    }

    /// Undoes the most recent expansion (the BACKTRACK action).
    pub fn backtrack(&mut self) -> Result<(), EdgeCutError> {
        match self.history.pop() {
            Some(prev) => {
                self.comp_root = prev;
                Ok(())
            }
            None => Err(EdgeCutError::NothingToBacktrack),
        }
    }

    /// Number of expansions performed (and undoable).
    pub fn depth_of_history(&self) -> usize {
        self.history.len()
    }

    /// Whether this state is structurally valid *for `nav` specifically* —
    /// the sanity check used when restoring persisted state (paper §VII:
    /// the online subsystem keeps navigation state between requests).
    ///
    /// Beyond matching the node count, every component assignment (the
    /// current one and every BACKTRACK snapshot) must describe connected
    /// subtrees of `nav`:
    ///
    /// * the tree root is a component root;
    /// * every node's assigned root is itself a component root;
    /// * every non-root member's parent belongs to the same component
    ///   (which transitively forces each component to be a connected
    ///   subtree rooted at its root).
    ///
    /// This rejects state exported from a *different* navigation tree that
    /// merely happens to have the same node count.
    pub fn fits(&self, nav: &NavigationTree) -> bool {
        std::iter::once(&self.comp_root)
            .chain(self.history.iter())
            .all(|assignment| Self::assignment_fits(assignment, nav))
    }

    /// Checks one `comp_root` snapshot against `nav`'s actual structure.
    fn assignment_fits(comp: &[NavNodeId], nav: &NavigationTree) -> bool {
        if comp.len() != nav.len() || comp.is_empty() {
            return false;
        }
        if comp[NavNodeId::ROOT.index()] != NavNodeId::ROOT {
            return false;
        }
        for (i, &root) in comp.iter().enumerate() {
            if root.index() >= comp.len() || comp[root.index()] != root {
                return false; // assigned root is out of range or not a root
            }
            if root.index() != i {
                // A non-root member's parent must exist and share the
                // component (connectivity against `nav`'s actual edges).
                match nav.parent(NavNodeId(i as u32)) {
                    Some(p) if comp[p.index()] == root => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// The visualization of the active tree (Definition 5): every component
    /// root, its nearest visible ancestor, its component's distinct count,
    /// and whether it can be expanded further. Rows come in navigation
    /// pre-order, so parents precede children.
    pub fn visualize(&self, nav: &NavigationTree) -> Vec<VisNode> {
        let mut out = Vec::new();
        let mut set = CitSet::new(nav.universe());
        for n in nav.iter_preorder() {
            if !self.is_visible(n) {
                continue;
            }
            let mut parent = nav.parent(n);
            while let Some(p) = parent {
                if self.is_visible(p) {
                    break;
                }
                parent = nav.parent(p);
            }
            set.clear();
            self.fold_component(nav, n, &mut set);
            out.push(VisNode {
                node: n,
                parent,
                component_distinct: set.count(),
                expandable: self.members(nav, n).nth(1).is_some(),
            });
        }
        out
    }
}

impl fmt::Debug for ActiveTree {
    /// Summarizes instead of dumping the whole component map.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let roots = self
            .comp_root
            .iter()
            .enumerate()
            .filter(|(i, r)| r.index() == *i)
            .count();
        write!(
            f,
            "ActiveTree {{ nodes: {}, components: {}, history: {} }}",
            self.comp_root.len(),
            roots,
            self.history.len()
        )
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

    /// Builds the paper's Fig 3 shape:
    ///
    /// ```text
    /// MeSH
    /// └── BiologicalPhenomena
    ///     ├── CellPhysiology
    ///     │   └── CellDeath
    ///     │       ├── Autophagy
    ///     │       ├── Apoptosis
    ///     │       └── Necrosis
    ///     └── CellGrowth
    ///         └── CellProliferation
    ///             └── CellDivision
    /// ```
    fn fig3() -> (NavigationTree, ConceptHierarchy) {
        let descs = vec![
            Descriptor::new(DescriptorId(1), "BiologicalPhenomena", vec![tn("G07")]),
            Descriptor::new(DescriptorId(2), "CellPhysiology", vec![tn("G07.100")]),
            Descriptor::new(DescriptorId(3), "CellDeath", vec![tn("G07.100.100")]),
            Descriptor::new(DescriptorId(4), "Autophagy", vec![tn("G07.100.100.100")]),
            Descriptor::new(DescriptorId(5), "Apoptosis", vec![tn("G07.100.100.200")]),
            Descriptor::new(DescriptorId(6), "Necrosis", vec![tn("G07.100.100.300")]),
            Descriptor::new(DescriptorId(7), "CellGrowth", vec![tn("G07.200")]),
            Descriptor::new(
                DescriptorId(8),
                "CellProliferation",
                vec![tn("G07.200.100")],
            ),
            Descriptor::new(DescriptorId(9), "CellDivision", vec![tn("G07.200.100.100")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let mut store = CitationStore::new();
        // One citation per concept, plus a shared one (a duplicate source).
        for i in 1..=9u32 {
            store
                .insert(Citation::new(
                    CitationId(i),
                    format!("c{i}"),
                    vec![],
                    vec![DescriptorId(i)],
                    vec![],
                ))
                .unwrap();
        }
        store
            .insert(Citation::new(
                CitationId(10),
                "shared",
                vec![],
                vec![DescriptorId(5), DescriptorId(8)],
                vec![],
            ))
            .unwrap();
        let results: Vec<CitationId> = (1..=10).map(CitationId).collect();
        let nav = NavigationTree::build(&h, &store, &results);
        (nav, h)
    }

    fn id(nav: &NavigationTree, label: &str) -> NavNodeId {
        nav.find_by_label(label).unwrap()
    }

    #[test]
    fn error_display_names_the_offending_nodes() {
        let cases: Vec<(EdgeCutError, &str)> = vec![
            (EdgeCutError::NotAComponentRoot(NavNodeId(4)), "4"),
            (EdgeCutError::OutsideComponent(NavNodeId(9)), "9"),
            (EdgeCutError::CutsAboveRoot(NavNodeId(2)), "2"),
            (
                EdgeCutError::NestedCutEdges {
                    ancestor: NavNodeId(1),
                    descendant: NavNodeId(8),
                },
                "root-to-leaf path",
            ),
            (EdgeCutError::EmptyCut, "at least one edge"),
            (EdgeCutError::NothingToBacktrack, "undo"),
        ];
        for (err, needle) in cases {
            let s = err.to_string();
            assert!(s.contains(needle), "{s:?} should mention {needle:?}");
            let _: &dyn std::error::Error = &err;
        }
    }

    #[test]
    fn edgecut_constructor_dedups_preserving_order() {
        let cut = EdgeCut::new(vec![
            NavNodeId(3),
            NavNodeId(1),
            NavNodeId(3),
            NavNodeId(2),
            NavNodeId(1),
        ]);
        assert_eq!(
            cut.lower_roots(),
            &[NavNodeId(3), NavNodeId(1), NavNodeId(2)]
        );
        assert_eq!(cut.len(), 3);
        assert!(!cut.is_empty());
        assert!(EdgeCut::new(vec![]).is_empty());
    }

    #[test]
    fn initial_state_has_one_component() {
        let (nav, _h) = fig3();
        let active = ActiveTree::new(&nav);
        assert!(active.is_visible(NavNodeId::ROOT));
        assert_eq!(active.component_size(&nav, NavNodeId::ROOT), nav.len());
        let vis = active.visualize(&nav);
        assert_eq!(vis.len(), 1);
        assert_eq!(vis[0].component_distinct, 10);
        assert!(vis[0].expandable);
    }

    #[test]
    fn fig3_edgecut_splits_into_expected_components() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        let prolif = id(&nav, "CellProliferation");
        // First reveal BiologicalPhenomena itself.
        let cut0 = EdgeCut::new(vec![bio]);
        active.expand(&nav, NavNodeId::ROOT, &cut0).unwrap();
        assert!(active.is_visible(bio));
        // The paper's Fig 3 cut: {(CellPhysiology,CellDeath),(CellGrowth,CellProliferation)}.
        let cut = EdgeCut::new(vec![death, prolif]);
        let roots = active.expand(&nav, bio, &cut).unwrap();
        assert_eq!(roots, vec![bio, death, prolif]);
        // Upper component: BiologicalPhenomena, CellPhysiology, CellGrowth.
        let upper = active.component_nodes(&nav, bio);
        let labels: Vec<&str> = upper.iter().map(|&n| nav.label(n)).collect();
        assert_eq!(
            labels,
            vec!["BiologicalPhenomena", "CellPhysiology", "CellGrowth"]
        );
        // Lower component at CellDeath holds 4 nodes.
        assert_eq!(active.component_size(&nav, death), 4);
        assert_eq!(active.component_size(&nav, prolif), 2);
    }

    #[test]
    fn component_counts_shrink_after_cut() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        let before = active.component_distinct(&nav, bio);
        assert_eq!(before, 10);
        let death = id(&nav, "CellDeath");
        let prolif = id(&nav, "CellProliferation");
        active
            .expand(&nav, bio, &EdgeCut::new(vec![death, prolif]))
            .unwrap();
        // Upper keeps {c1, c2, c7}; the shared c10 moved into both lower
        // components (it sits under Apoptosis and under CellProliferation —
        // a duplicate across components, as in the paper's example).
        assert_eq!(active.component_distinct(&nav, bio), 3);
        assert_eq!(active.component_distinct(&nav, death), 5); // c3,c4,c5,c6,c10
        assert_eq!(active.component_distinct(&nav, prolif), 3); // c8,c9,c10
    }

    #[test]
    fn invalid_cuts_are_rejected() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        let apop = id(&nav, "Apoptosis");
        // Nested edges: (·,CellDeath) and (·,Apoptosis) share a path.
        let err = active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![death, apop]))
            .unwrap_err();
        assert!(matches!(err, EdgeCutError::NestedCutEdges { .. }));
        // Root cannot be a lower endpoint.
        let err = active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![NavNodeId::ROOT]))
            .unwrap_err();
        assert!(matches!(err, EdgeCutError::CutsAboveRoot(_)));
        // Empty cut.
        let err = active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![]))
            .unwrap_err();
        assert_eq!(err, EdgeCutError::EmptyCut);
        // Expanding a non-root node.
        let err = active
            .expand(&nav, bio, &EdgeCut::new(vec![death]))
            .unwrap_err();
        assert!(matches!(err, EdgeCutError::NotAComponentRoot(_)));
        // After revealing bio, cutting a node outside bio's component fails.
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        let err = active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![death]))
            .unwrap_err();
        assert!(matches!(err, EdgeCutError::OutsideComponent(_)));
    }

    #[test]
    fn upper_component_can_be_expanded_again() {
        // Fig 5 of the paper: cutting the upper subtree reveals CellGrowth,
        // which becomes CellProliferation's visualization parent.
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        let prolif = id(&nav, "CellProliferation");
        let growth = id(&nav, "CellGrowth");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        active
            .expand(&nav, bio, &EdgeCut::new(vec![death, prolif]))
            .unwrap();
        active
            .expand(&nav, bio, &EdgeCut::new(vec![growth]))
            .unwrap();
        let vis = active.visualize(&nav);
        let prolif_row = vis.iter().find(|v| v.node == prolif).unwrap();
        assert_eq!(prolif_row.parent, Some(growth));
        let growth_row = vis.iter().find(|v| v.node == growth).unwrap();
        assert_eq!(growth_row.parent, Some(bio));
    }

    #[test]
    fn backtrack_restores_previous_state() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        assert!(active.backtrack().is_err());
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        assert!(active.is_visible(bio));
        active.backtrack().unwrap();
        assert!(!active.is_visible(bio));
        assert_eq!(active.component_size(&nav, NavNodeId::ROOT), nav.len());
    }

    #[test]
    fn component_set_is_union_of_member_results() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        let set = active.component_set(&nav, bio);
        let mut manual = crate::bitset::CitSet::new(nav.universe());
        for n in active.component_nodes(&nav, bio) {
            manual.union_with(&nav.results(n));
        }
        assert_eq!(set.count(), manual.count());
        for i in manual.iter() {
            assert!(set.contains(i));
        }
    }

    #[test]
    fn independent_components_expand_independently() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        let prolif = id(&nav, "CellProliferation");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        active
            .expand(&nav, bio, &EdgeCut::new(vec![death, prolif]))
            .unwrap();
        let death_before = active.component_nodes(&nav, death);
        // Cutting inside prolif's component leaves death's untouched.
        let div = id(&nav, "CellDivision");
        active
            .expand(&nav, prolif, &EdgeCut::new(vec![div]))
            .unwrap();
        assert_eq!(active.component_nodes(&nav, death), death_before);
        assert!(active.is_visible(div));
    }

    #[test]
    fn backtrack_stack_unwinds_in_order() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        active
            .expand(&nav, bio, &EdgeCut::new(vec![death]))
            .unwrap();
        assert_eq!(active.depth_of_history(), 2);
        active.backtrack().unwrap();
        assert!(active.is_visible(bio));
        assert!(!active.is_visible(death));
        active.backtrack().unwrap();
        assert!(!active.is_visible(bio));
        assert!(active.backtrack().is_err());
    }

    #[test]
    fn visualization_hides_component_members() {
        let (nav, _h) = fig3();
        let mut active = ActiveTree::new(&nav);
        let bio = id(&nav, "BiologicalPhenomena");
        let death = id(&nav, "CellDeath");
        let prolif = id(&nav, "CellProliferation");
        active
            .expand(&nav, NavNodeId::ROOT, &EdgeCut::new(vec![bio]))
            .unwrap();
        active
            .expand(&nav, bio, &EdgeCut::new(vec![death, prolif]))
            .unwrap();
        let vis = active.visualize(&nav);
        let shown: Vec<NavNodeId> = vis.iter().map(|v| v.node).collect();
        assert_eq!(shown.len(), 4); // root, bio, death, prolif
        assert!(shown.contains(&death));
        // CellPhysiology is inside bio's component, hence hidden.
        let phys = id(&nav, "CellPhysiology");
        assert!(!shown.contains(&phys));
        // CellDivision's component root is CellProliferation.
        let div = id(&nav, "CellDivision");
        assert_eq!(active.component_root_of(div), prolif);
    }
}
