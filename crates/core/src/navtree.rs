//! The navigation tree (paper §II, Definitions 1–2).
//!
//! Given a keyword-query result, BioNav attaches every citation to each
//! hierarchy position of each concept the citation is indexed with,
//! producing the *initial navigation tree*. Because most of the hierarchy's
//! 48k nodes end up with empty result lists, the initial tree is reduced to
//! its **maximum embedding**: nodes with empty result lists are removed and
//! replaced by their children (the root is exempt, keeping the structure a
//! tree). The result — the *navigation tree* — preserves every
//! ancestor/descendant relationship among nodes that carry results.
//!
//! # Layout (DESIGN.md §5g)
//!
//! The tree is a struct-of-arrays arena in pre-order: per-node scalars live
//! in parallel `Vec`s, children and per-node result lists in CSR form (one
//! contiguous index array plus `n + 1` offsets). Because pre-order stores
//! every subtree as a contiguous id range, `subtree_end` gives O(1)
//! ancestry tests and allocation-light subtree walks.
//!
//! The CSR result lists are the only representation of `R(n)`: the tree
//! holds no per-node bitsets. Every citation set a verb needs — a
//! component's distinct count for OPEN's visualization, a partition's
//! union for EXPAND's reduced problem, the PMIDs SHOWRESULTS lists — is
//! folded straight from the lists into a caller's [`CitSet`] by
//! `NavigationTree::fold_results`. Because pre-order numbers a node run
//! `a..b` consecutively, its lists are one contiguous slice
//! `result_idx[result_off[a]..result_off[b]]`, and a subtree is a single
//! such run. A cold `open_session` therefore costs O(attachments +
//! hierarchy), and reads cost O(attachments they cover), never
//! O(nodes × universe).
//!
//! ```
//! use bionav_core::{NavigationTree, NavNodeId};
//! use bionav_medline::{Citation, CitationId, CitationStore};
//! use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
//!
//! // Chain A01 → A01.100; only the leaf carries a citation, so the
//! // empty middle is elided and the leaf hangs off the root.
//! let tn = |s: &str| TreeNumber::parse(s).unwrap();
//! let hierarchy = ConceptHierarchy::from_descriptors(&[
//!     Descriptor::new(DescriptorId(1), "Middle", vec![tn("A01")]),
//!     Descriptor::new(DescriptorId(2), "Leaf", vec![tn("A01.100")]),
//! ])?;
//! let mut store = CitationStore::new();
//! store.insert(Citation::new(CitationId(9), "t", vec![], vec![DescriptorId(2)], vec![])).unwrap();
//!
//! let nav = NavigationTree::build(&hierarchy, &store, &[CitationId(9)]);
//! assert_eq!(nav.len(), 2); // root + Leaf; Middle vanished
//! let leaf = nav.find_by_label("Leaf").unwrap();
//! assert_eq!(nav.parent(leaf), Some(NavNodeId::ROOT));
//! assert_eq!(nav.hierarchy_depth(leaf), 2); // the MeSH level is preserved
//! # Ok::<(), bionav_mesh::MeshError>(())
//! ```

use bionav_medline::{CitationId, CitationStore};
use bionav_mesh::{ConceptHierarchy, DescriptorId, HierarchyColumns, NodeId as HNodeId};

use crate::bitset::CitSet;

/// Index of a node within a [`NavigationTree`]; the root is always id 0.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct NavNodeId(pub u32);

impl NavNodeId {
    /// The navigation-tree root (the hierarchy root; it may carry no
    /// results but is kept to avoid creating a forest).
    pub const ROOT: NavNodeId = NavNodeId(0);

    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel in the `parent` column: the root has no parent.
const NO_PARENT: u32 = u32::MAX;
/// The navigation tree of one query result: the maximum embedding of the
/// concept hierarchy in which every non-root node carries attached
/// citations.
#[derive(Debug, Clone)]
pub struct NavigationTree {
    /// The hierarchy position each navigation node embeds.
    hierarchy_node: Vec<HNodeId>,
    /// Concept labels, concatenated into one arena string (owned copies;
    /// the tree outlives the hierarchy in the engine's tree cache). Node
    /// `i`'s label is `labels[label_off[i]..label_off[i + 1]]` — one
    /// allocation for the whole tree instead of one `String` per node.
    labels: String,
    label_off: Vec<u32>,
    /// Depth in the original hierarchy (the paper's "MeSH level").
    hierarchy_depth: Vec<u32>,
    /// Depth within the navigation tree (root = 0).
    nav_depth: Vec<u32>,
    /// Parent id per node; [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// CSR children: node `i`'s children are
    /// `child_idx[child_off[i]..child_off[i + 1]]`, in sibling order.
    child_idx: Vec<NavNodeId>,
    child_off: Vec<u32>,
    /// Exclusive end of each node's pre-order subtree range
    /// (`id..subtree_end[id]` is exactly the subtree).
    subtree_end: Vec<u32>,
    /// CSR result lists: node `i`'s attached citations (sorted local
    /// indices, deduplicated) are `result_idx[result_off[i]..result_off[i + 1]]`.
    result_idx: Vec<u32>,
    result_off: Vec<u32>,
    /// `|R(n)| / ln |LT(n)|` — the unnormalized EXPLORE weight (§IV).
    explore_weight: Vec<f64>,
    total_explore_weight: f64,
    /// Local index → PMID for the distinct citations of the query result.
    citations: Vec<CitationId>,
}

impl NavigationTree {
    /// Builds the navigation tree for `results` (the citation ids returned
    /// by the keyword query) over `hierarchy`, using the associations and
    /// global concept counts in `store`.
    ///
    /// Citations whose concepts occupy no hierarchy position silently
    /// contribute nothing (they would be unreachable in any navigation);
    /// duplicate ids in `results` are collapsed.
    pub fn build(
        hierarchy: &ConceptHierarchy,
        store: &CitationStore,
        results: &[CitationId],
    ) -> NavigationTree {
        NavigationTree::build_weighted(hierarchy, store, results, |_| 1.0)
    }

    /// Like [`build`](Self::build), but weights each citation's
    /// contribution to the EXPLORE probabilities (§IV: "if more information
    /// about the goodness of the citations were available, our approach
    /// could be straightforwardly adapted using appropriate weighting").
    ///
    /// Weights scale only the *interest* side of the model — a concept
    /// whose citations are highly ranked attracts navigation earlier.
    /// Distinct counts (and hence SHOWRESULTS costs) stay unweighted: the
    /// user still reads every listed citation. Non-finite or negative
    /// weights are clamped to 0.
    ///
    /// No citation set is built here: sets are folded from the result
    /// lists on demand (see the module docs). The build is
    /// bit-deterministic run-to-run: attachment iterates the sorted
    /// `citations` vec, so every per-node result list comes out in
    /// ascending local-index order regardless of input order.
    pub fn build_weighted(
        hierarchy: &ConceptHierarchy,
        store: &CitationStore,
        results: &[CitationId],
        weight_of: impl Fn(CitationId) -> f64,
    ) -> NavigationTree {
        // Dense local indices for the distinct result citations.
        let mut citations: Vec<CitationId> = results.to_vec();
        citations.sort();
        citations.dedup();
        let weights: Vec<f64> = citations
            .iter()
            .map(|&id| {
                let w = weight_of(id);
                if w.is_finite() && w > 0.0 {
                    w
                } else {
                    0.0
                }
            })
            .collect();

        // Every per-concept input comes from a dense column — the
        // hierarchy's descriptor→positions CSR and the store's
        // `ln(global_count)` — so the only hash probes left in the whole
        // build are one `associations` lookup per citation, resolved here
        // once and reused by both attachment passes.
        let cols = hierarchy.columns();
        let assoc: Vec<&[DescriptorId]> = citations
            .iter()
            .map(|&pmid| store.associations(pmid))
            .collect();

        // Attach citations to hierarchy positions: a CSR over the dense
        // hierarchy-node ids, filled by two passes over the sorted
        // `citations` (count, then place) — a counting sort by position.
        // Iterating the sorted vec — not a hash map — makes the build
        // bit-deterministic; each position's list is produced in ascending
        // local-index order, and any duplicates of one index (the same
        // citation reaching the same position through two of its concepts)
        // land adjacently.
        let hn = hierarchy.len();
        let mut att_count = vec![0u32; hn];
        for concepts in &assoc {
            for &concept in *concepts {
                for &pos in cols.positions_of(concept.0) {
                    att_count[pos.index()] += 1;
                }
            }
        }
        let mut att_off = vec![0u32; hn + 1];
        for i in 0..hn {
            att_off[i + 1] = att_off[i] + att_count[i];
        }
        let mut att = vec![0u32; att_off[hn] as usize];
        let mut cursor: Vec<u32> = att_off[..hn].to_vec();
        for (idx, concepts) in assoc.iter().enumerate() {
            for &concept in *concepts {
                for &pos in cols.positions_of(concept.0) {
                    let slot = &mut cursor[pos.index()];
                    att[*slot as usize] = idx as u32;
                    *slot += 1;
                }
            }
        }

        // Which hierarchy subtrees contain any attachment at all: the
        // hierarchy arena keeps parents before children, so one reverse
        // pass over the flat parent column folds the flags bottom-up and
        // the embedding walk below can prune entire empty subtrees without
        // visiting them.
        let hparent = cols.parent();
        let mut occupied: Vec<bool> = att_count.iter().map(|&c| c > 0).collect();
        for i in (1..hn).rev() {
            if occupied[i] && hparent[i] != HierarchyColumns::NO_PARENT {
                occupied[hparent[i] as usize] = true;
            }
        }

        // Maximum embedding (paper §II) in ONE explicit-stack pre-order
        // walk: a non-root hierarchy node survives iff it carries
        // attachments; a removed node's children are spliced up to its
        // nearest surviving ancestor. Splicing preserves relative order,
        // so the embedded tree's pre-order is exactly the hierarchy
        // pre-order restricted to survivors — nodes come out already
        // numbered in pre-order, no renumbering pass needed. The explicit
        // work-stack (rather than recursion) is load-bearing: a
        // deep-narrow hierarchy (`synth::deep_chain`, 100k+ levels) would
        // overflow the thread stack and abort the process, bypassing the
        // panic-isolation plane entirely.
        // Every attached position survives, so the node count is known
        // up front — size the columns once instead of doubling up to it.
        let n_exact = 1 + att_count.iter().filter(|&&c| c > 0).count();
        let hdepth = cols.depth();
        let mut hierarchy_node: Vec<HNodeId> = Vec::with_capacity(n_exact);
        hierarchy_node.push(HNodeId::ROOT);
        let mut labels = String::with_capacity(n_exact * 16);
        labels.push_str(cols.label(0));
        let mut label_off: Vec<u32> = Vec::with_capacity(n_exact + 1);
        label_off.push(0);
        label_off.push(labels.len() as u32);
        let mut hierarchy_depth: Vec<u32> = Vec::with_capacity(n_exact);
        hierarchy_depth.push(0);
        let mut parent: Vec<u32> = Vec::with_capacity(n_exact);
        parent.push(NO_PARENT);
        let mut result_off: Vec<u32> = Vec::with_capacity(n_exact + 1);
        result_off.extend([0, 0]); // root: empty list
        let mut result_idx: Vec<u32> = Vec::with_capacity(att.len());

        // (hierarchy node, nav id of its nearest surviving ancestor)
        let mut stack: Vec<(HNodeId, u32)> = Vec::new();
        for &c in cols.children(0).iter().rev() {
            if occupied[c.index()] {
                stack.push((c, 0));
            }
        }
        while let Some((h, up)) = stack.pop() {
            let hi = h.index();
            let (a, b) = (att_off[hi] as usize, att_off[hi + 1] as usize);
            let nav_parent = if a < b {
                let id = parent.len() as u32;
                hierarchy_node.push(h);
                labels.push_str(cols.label(hi));
                label_off.push(labels.len() as u32);
                hierarchy_depth.push(hdepth[hi]);
                parent.push(up);
                // Copy the attachment list, dropping duplicates (always
                // adjacent — see the attachment pass above). The previous
                // node's list may end in the same index, so only compare
                // within this node's slice.
                let before = result_idx.len();
                for &x in &att[a..b] {
                    if result_idx.len() == before || result_idx[result_idx.len() - 1] != x {
                        result_idx.push(x);
                    }
                }
                result_off.push(result_idx.len() as u32);
                id
            } else {
                up
            };
            for &c in cols.children(hi).iter().rev() {
                if occupied[c.index()] {
                    stack.push((c, nav_parent));
                }
            }
        }
        let n = parent.len();

        // CSR children from the parent column: because ids are pre-order,
        // sibling order by id equals hierarchy child order.
        let mut child_off = vec![0u32; n + 1];
        for i in 1..n {
            child_off[parent[i] as usize + 1] += 1;
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
        }
        let mut child_idx = vec![NavNodeId(0); child_off[n] as usize];
        let mut cursor: Vec<u32> = child_off[..n].to_vec();
        for i in 1..n {
            let slot = &mut cursor[parent[i] as usize];
            child_idx[*slot as usize] = NavNodeId(i as u32);
            *slot += 1;
        }

        // Navigation depths: parents precede children in pre-order, so one
        // forward pass suffices.
        let mut nav_depth = vec![0u32; n];
        for i in 1..n {
            nav_depth[i] = nav_depth[parent[i] as usize] + 1;
        }

        // Subtree ranges: children have larger pre-order indices than their
        // parents, so a reverse pass folds each node's exclusive range end
        // into its parent bottom-up.
        let mut subtree_end: Vec<u32> = (1..=n as u32).collect();
        for i in (1..n).rev() {
            let p = parent[i] as usize;
            if subtree_end[p] < subtree_end[i] {
                subtree_end[p] = subtree_end[i];
            }
        }

        // EXPLORE weights straight off the deduplicated result lists. The
        // lists are ascending, so the weighted sums visit citations in the
        // same order a bitset iteration would — bit-identical f64 results.
        // The denominator comes off the store's dense `ln(global_count)`
        // column; `global_count` floors at 2, so the out-of-column fallback
        // ln 2 is the very value the unmemoized path used to compute.
        let ln_floor = 2_f64.ln();
        let lnc = store.ln_global_counts();
        let hdescriptor = cols.descriptor();
        let mut explore_weight = vec![0f64; n];
        let mut total_explore_weight = 0f64;
        for i in 1..n {
            let (a, b) = (result_off[i] as usize, result_off[i + 1] as usize);
            if a == b {
                continue;
            }
            let d = hdescriptor[hierarchy_node[i].index()];
            let denom = if d == HierarchyColumns::NO_DESCRIPTOR {
                ln_floor
            } else {
                lnc.get(d as usize).copied().unwrap_or(ln_floor)
            };
            let weighted: f64 = result_idx[a..b].iter().map(|&x| weights[x as usize]).sum();
            explore_weight[i] = weighted / denom;
            total_explore_weight += explore_weight[i];
        }

        NavigationTree {
            hierarchy_node,
            labels,
            label_off,
            hierarchy_depth,
            nav_depth,
            parent,
            child_idx,
            child_off,
            subtree_end,
            result_idx,
            result_off,
            explore_weight,
            total_explore_weight,
            citations,
        }
    }

    // -----------------------------------------------------------------------
    // The fold
    // -----------------------------------------------------------------------

    /// `set ∪= ⋃ R(n)` over `nodes` — the one way any citation set is
    /// built from the tree.
    ///
    /// Each run of consecutive ids `a..b` is one contiguous slice of the
    /// CSR result lists, inserted with plain word writes; a full subtree,
    /// or a component without holes, is a single run. Callers pass nodes
    /// in pre-order, which makes the fewest runs; any order unions
    /// correctly.
    pub(crate) fn fold_results<I: IntoIterator<Item = NavNodeId>>(
        &self,
        nodes: I,
        set: &mut CitSet,
    ) {
        let mut nodes = nodes.into_iter();
        let Some(first) = nodes.next() else {
            return;
        };
        let (mut a, mut b) = (first.0, first.0 + 1);
        for n in nodes {
            if n.0 != b {
                self.fold_run(a, b, set);
                a = n.0;
            }
            b = n.0 + 1;
        }
        self.fold_run(a, b, set);
    }

    /// Unions the result lists of the id run `a..b`: one slice.
    #[inline]
    fn fold_run(&self, a: u32, b: u32, set: &mut CitSet) {
        let lo = self.result_off[a as usize] as usize;
        let hi = self.result_off[b as usize] as usize;
        set.insert_all(&self.result_idx[lo..hi]);
    }

    // -----------------------------------------------------------------------
    // Accessors
    // -----------------------------------------------------------------------

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Number of distinct citations in the query result.
    pub fn universe(&self) -> usize {
        self.citations.len()
    }

    /// Local index → PMID mapping.
    pub fn citation_id(&self, local: usize) -> CitationId {
        self.citations[local]
    }

    /// Concept label of a node.
    pub fn label(&self, id: NavNodeId) -> &str {
        let i = id.index();
        &self.labels[self.label_off[i] as usize..self.label_off[i + 1] as usize]
    }

    /// The hierarchy position this navigation node embeds.
    pub fn hierarchy_node(&self, id: NavNodeId) -> HNodeId {
        self.hierarchy_node[id.index()]
    }

    /// Depth of the node in the original hierarchy (the paper's "MeSH level").
    pub fn hierarchy_depth(&self, id: NavNodeId) -> u32 {
        self.hierarchy_depth[id.index()]
    }

    /// Depth within the navigation tree (root = 0).
    pub fn nav_depth(&self, id: NavNodeId) -> u32 {
        self.nav_depth[id.index()]
    }

    /// Parent in the navigation tree.
    pub fn parent(&self, id: NavNodeId) -> Option<NavNodeId> {
        let p = self.parent[id.index()];
        (p != NO_PARENT).then_some(NavNodeId(p))
    }

    /// Children in the navigation tree.
    pub fn children(&self, id: NavNodeId) -> &[NavNodeId] {
        let i = id.index();
        &self.child_idx[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Citations attached directly at this node (`R(n)`), folded from its
    /// result list into a fresh set.
    pub fn results(&self, id: NavNodeId) -> CitSet {
        let mut set = CitSet::new(self.universe());
        self.fold_results([id], &mut set);
        set
    }

    /// `|R(n)|`: the length of the node's result list.
    pub fn results_count(&self, id: NavNodeId) -> u32 {
        let i = id.index();
        self.result_off[i + 1] - self.result_off[i]
    }

    /// The unnormalized EXPLORE weight `|R(n)| / ln |LT(n)|` (§IV).
    pub fn explore_weight(&self, id: NavNodeId) -> f64 {
        self.explore_weight[id.index()]
    }

    /// Sum of EXPLORE weights over the whole tree (the §IV normalizer).
    pub fn total_explore_weight(&self) -> f64 {
        self.total_explore_weight
    }

    /// Distinct citations in the *full* navigation subtree of `id`, folded
    /// from the single slice `result_off[id]..result_off[subtree_end[id]]`.
    pub fn subtree_set(&self, id: NavNodeId) -> CitSet {
        let mut set = CitSet::new(self.universe());
        self.fold_results(self.subtree_range(id), &mut set);
        set
    }

    /// `|subtree_set(id)|` — the count the static interface displays.
    pub fn subtree_distinct(&self, id: NavNodeId) -> u32 {
        self.subtree_set(id).count()
    }

    /// Exclusive end of `id`'s pre-order subtree: the subtree is exactly
    /// the ids `id.0..subtree_end(id)`.
    pub(crate) fn subtree_end(&self, id: NavNodeId) -> u32 {
        self.subtree_end[id.index()]
    }

    /// The subtree of `id` as its pre-order id range.
    fn subtree_range(&self, id: NavNodeId) -> impl Iterator<Item = NavNodeId> {
        (id.0..self.subtree_end[id.index()]).map(NavNodeId)
    }

    /// Pre-order iteration over node ids (root first).
    pub fn iter_preorder(&self) -> impl Iterator<Item = NavNodeId> + '_ {
        // Nodes are stored in pre-order by construction.
        (0..self.parent.len() as u32).map(NavNodeId)
    }

    /// The node ids of the full subtree rooted at `id`, pre-order.
    pub fn subtree_nodes(&self, id: NavNodeId) -> Vec<NavNodeId> {
        // Pre-order subtrees are contiguous id ranges.
        self.subtree_range(id).collect()
    }

    /// Whether `ancestor` properly precedes `node` on its root path.
    pub fn is_ancestor(&self, ancestor: NavNodeId, node: NavNodeId) -> bool {
        ancestor.0 < node.0 && node.0 < self.subtree_end[ancestor.index()]
    }

    /// Finds a node by label (linear scan; for tests/examples).
    pub fn find_by_label(&self, label: &str) -> Option<NavNodeId> {
        (0..self.parent.len())
            .find_map(|i| (self.label(NavNodeId(i as u32)) == label).then_some(NavNodeId(i as u32)))
    }

    /// Sum over all nodes of `|R(n)|` — the "citations with duplicates"
    /// statistic of Table I (30,895 for the paper's `prothymosin` query).
    pub fn total_attached_with_duplicates(&self) -> u64 {
        // Per-node counts are the CSR list lengths, so the sum is just the
        // concatenated length.
        self.result_idx.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::Citation;
    use bionav_mesh::{Descriptor, DescriptorId, TreeNumber};

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    /// Hierarchy:
    /// MeSH
    /// ├── A (A01)
    /// │   ├── B (A01.100)
    /// │   │   └── D (A01.100.100)
    /// │   └── C (A01.200)
    /// └── E (B01)
    ///     └── F (B01.100)
    fn hierarchy() -> ConceptHierarchy {
        ConceptHierarchy::from_descriptors(&[
            Descriptor::new(DescriptorId(1), "A", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "B", vec![tn("A01.100")]),
            Descriptor::new(DescriptorId(3), "C", vec![tn("A01.200")]),
            Descriptor::new(DescriptorId(4), "D", vec![tn("A01.100.100")]),
            Descriptor::new(DescriptorId(5), "E", vec![tn("B01")]),
            Descriptor::new(DescriptorId(6), "F", vec![tn("B01.100")]),
        ])
        .unwrap()
    }

    fn store_with(assocs: &[(u32, &[u32])]) -> CitationStore {
        let mut store = CitationStore::new();
        for &(id, concepts) in assocs {
            store
                .insert(Citation::new(
                    CitationId(id),
                    format!("c{id}"),
                    vec![],
                    concepts.iter().map(|&c| DescriptorId(c)).collect(),
                    vec![],
                ))
                .unwrap();
        }
        store
    }

    #[test]
    fn empty_nodes_are_elided_and_paths_contract() {
        let h = hierarchy();
        // Citations touch D and C only; A and B carry nothing and vanish,
        // so D's navigation parent becomes the root.
        let store = store_with(&[(1, &[4]), (2, &[3])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1), CitationId(2)]);
        assert_eq!(nav.len(), 3); // root + D + C
        let root_children: Vec<&str> = nav
            .children(NavNodeId::ROOT)
            .iter()
            .map(|&c| nav.label(c))
            .collect();
        assert_eq!(root_children, vec!["D", "C"]);
        let d = nav.find_by_label("D").unwrap();
        assert_eq!(nav.parent(d), Some(NavNodeId::ROOT));
        assert_eq!(nav.nav_depth(d), 1);
        assert_eq!(nav.hierarchy_depth(d), 3); // original MeSH level preserved
    }

    #[test]
    fn ancestors_with_results_are_kept() {
        let h = hierarchy();
        // Citation 1 on B and D: both kept, B is D's parent.
        let store = store_with(&[(1, &[2, 4])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        let b = nav.find_by_label("B").unwrap();
        let d = nav.find_by_label("D").unwrap();
        assert_eq!(nav.parent(d), Some(b));
        assert_eq!(nav.parent(b), Some(NavNodeId::ROOT));
    }

    #[test]
    fn results_and_subtree_sets() {
        let h = hierarchy();
        let store = store_with(&[(1, &[2, 4]), (2, &[4]), (3, &[3])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1), CitationId(2), CitationId(3)]);
        let b = nav.find_by_label("B").unwrap();
        let d = nav.find_by_label("D").unwrap();
        assert_eq!(nav.results_count(b), 1); // citation 1
        assert_eq!(nav.results_count(d), 2); // citations 1, 2
        assert_eq!(nav.subtree_distinct(b), 2); // union over B, D
        assert_eq!(nav.subtree_distinct(NavNodeId::ROOT), 3);
        assert_eq!(nav.total_attached_with_duplicates(), 4); // 1+2+1
    }

    #[test]
    fn duplicate_result_ids_collapse() {
        let h = hierarchy();
        let store = store_with(&[(1, &[1])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1), CitationId(1)]);
        assert_eq!(nav.universe(), 1);
    }

    #[test]
    fn citation_on_multi_position_descriptor_duplicates_across_branches() {
        let descs = vec![
            Descriptor::new(DescriptorId(1), "X", vec![tn("A01"), tn("B01.100")]),
            Descriptor::new(DescriptorId(2), "Host", vec![tn("B01")]),
        ];
        let h = ConceptHierarchy::from_descriptors(&descs).unwrap();
        let store = store_with(&[(1, &[1, 2])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        // "X" appears twice in the navigation tree; the citation is attached
        // at both positions — a duplicate, as in the paper.
        assert_eq!(nav.len(), 4);
        assert_eq!(nav.total_attached_with_duplicates(), 3);
        assert_eq!(nav.subtree_distinct(NavNodeId::ROOT), 1);
    }

    #[test]
    fn explore_weights_use_global_counts() {
        let h = hierarchy();
        let mut store = store_with(&[(1, &[4]), (2, &[4]), (3, &[3])]);
        store.set_global_count(DescriptorId(4), 1_000_000); // very common concept
        store.set_global_count(DescriptorId(3), 20); // rare concept
        let nav = NavigationTree::build(&h, &store, &[CitationId(1), CitationId(2), CitationId(3)]);
        let d = nav.find_by_label("D").unwrap();
        let c = nav.find_by_label("C").unwrap();
        // D: 2 / ln(1e6) ≈ 0.1448 ; C: 1 / ln(20) ≈ 0.3338 — the rare
        // concept dominates despite fewer attached citations.
        assert!(nav.explore_weight(c) > nav.explore_weight(d));
        let total = nav.total_explore_weight();
        assert!((total - (nav.explore_weight(c) + nav.explore_weight(d))).abs() < 1e-12);
    }

    #[test]
    fn preorder_parents_precede_children() {
        let h = hierarchy();
        let store = store_with(&[(1, &[1, 2, 3, 4, 5, 6])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        for id in nav.iter_preorder() {
            if let Some(p) = nav.parent(id) {
                assert!(p.0 < id.0, "parent must precede child in pre-order");
            }
        }
    }

    #[test]
    fn subtree_nodes_and_ancestry() {
        let h = hierarchy();
        let store = store_with(&[(1, &[1, 2, 3, 4])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        let a = nav.find_by_label("A").unwrap();
        let b = nav.find_by_label("B").unwrap();
        let d = nav.find_by_label("D").unwrap();
        let sub = nav.subtree_nodes(a);
        assert!(sub.contains(&b) && sub.contains(&d));
        assert_eq!(sub[0], a, "pre-order starts at the subtree root");
        assert!(nav.is_ancestor(a, d));
        assert!(nav.is_ancestor(NavNodeId::ROOT, a));
        assert!(!nav.is_ancestor(d, a));
        assert!(!nav.is_ancestor(a, a));
        assert_eq!(nav.subtree_nodes(d), vec![d]);
    }

    #[test]
    fn local_indices_map_back_to_pmids() {
        let h = hierarchy();
        let store = store_with(&[(7, &[4]), (3, &[3])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(7), CitationId(3)]);
        // Local indices follow sorted PMID order.
        assert_eq!(nav.citation_id(0), CitationId(3));
        assert_eq!(nav.citation_id(1), CitationId(7));
        let d = nav.find_by_label("D").unwrap();
        let locals: Vec<usize> = nav.results(d).iter().collect();
        assert_eq!(locals, vec![1]); // citation 7
    }

    #[test]
    fn find_by_label_misses_return_none() {
        let h = hierarchy();
        let store = store_with(&[(1, &[1])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        assert!(nav.find_by_label("Z").is_none());
        assert_eq!(nav.find_by_label("MeSH"), Some(NavNodeId::ROOT));
    }

    #[test]
    fn weighted_build_scales_explore_weights() {
        let h = hierarchy();
        let store = store_with(&[(1, &[4]), (2, &[3])]);
        let results = [CitationId(1), CitationId(2)];
        let plain = NavigationTree::build(&h, &store, &results);
        let boosted = NavigationTree::build_weighted(&h, &store, &results, |id| {
            if id == CitationId(1) {
                5.0
            } else {
                1.0
            }
        });
        let d_plain = plain.find_by_label("D").unwrap();
        let d_boost = boosted.find_by_label("D").unwrap();
        let c_boost = boosted.find_by_label("C").unwrap();
        // D carries the boosted citation: 5× the plain weight.
        assert!(
            (boosted.explore_weight(d_boost) - 5.0 * plain.explore_weight(d_plain)).abs() < 1e-12
        );
        // C's citation kept weight 1, so its node is unchanged.
        let c_plain = plain.find_by_label("C").unwrap();
        assert_eq!(
            boosted.explore_weight(c_boost),
            plain.explore_weight(c_plain)
        );
        // Distinct counts are weight-independent.
        assert_eq!(boosted.subtree_distinct(NavNodeId::ROOT), 2);
    }

    #[test]
    fn degenerate_weights_are_clamped() {
        let h = hierarchy();
        let store = store_with(&[(1, &[4])]);
        let nav = NavigationTree::build_weighted(&h, &store, &[CitationId(1)], |_| f64::NAN);
        let d = nav.find_by_label("D").unwrap();
        assert_eq!(nav.explore_weight(d), 0.0);
        assert_eq!(nav.results_count(d), 1);
    }

    #[test]
    fn citations_without_positions_are_ignored() {
        let h = hierarchy();
        let store = store_with(&[(1, &[99])]); // unknown concept
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        assert_eq!(nav.len(), 1); // only the root
        assert!(nav.is_empty());
        assert_eq!(nav.universe(), 1); // the citation exists, just unreachable
        assert_eq!(nav.subtree_distinct(NavNodeId::ROOT), 0);
    }

    #[test]
    fn build_is_bit_deterministic_across_input_orders() {
        let h = hierarchy();
        let store = store_with(&[(5, &[2, 4]), (9, &[4, 3]), (2, &[3, 6])]);
        let fwd = [CitationId(5), CitationId(9), CitationId(2)];
        let rev = [CitationId(2), CitationId(9), CitationId(5)];
        let a = NavigationTree::build(&h, &store, &fwd);
        let b = NavigationTree::build(&h, &store, &rev);
        assert_eq!(a.result_idx, b.result_idx);
        assert_eq!(a.result_off, b.result_off);
        assert_eq!(a.parent, b.parent);
        assert_eq!(
            a.total_explore_weight().to_bits(),
            b.total_explore_weight().to_bits()
        );
        for id in a.iter_preorder() {
            assert_eq!(
                a.explore_weight(id).to_bits(),
                b.explore_weight(id).to_bits()
            );
            assert_eq!(a.results(id), b.results(id));
            assert_eq!(a.subtree_set(id), b.subtree_set(id));
        }
    }

    #[test]
    fn fold_unions_runs_gaps_and_unordered_ids() {
        let h = hierarchy();
        // Per node: A {1}, B {1, 2}, D {2, 3}, C {4}, E {5}, F {5, 6}.
        let store = store_with(&[
            (1, &[1, 2]),
            (2, &[2, 4]),
            (3, &[4]),
            (4, &[3]),
            (5, &[5, 6]),
            (6, &[6]),
        ]);
        let nav = NavigationTree::build(&h, &store, &(1..=6).map(CitationId).collect::<Vec<_>>());
        let all: Vec<NavNodeId> = nav.iter_preorder().collect();
        let node_sets = [
            vec![],
            all.clone(),
            vec![all[1], all[2], all[5], all[6]], // two runs, one gap
            vec![all[6], all[2], all[3]],         // out of order
            vec![all[4]],
        ];
        for nodes in node_sets {
            let mut folded = CitSet::new(nav.universe());
            nav.fold_results(nodes.iter().copied(), &mut folded);
            let mut unioned = CitSet::new(nav.universe());
            for &n in &nodes {
                for x in nav.results(n).iter() {
                    unioned.insert(x);
                }
            }
            assert_eq!(folded, unioned, "fold over {nodes:?}");
        }
        // Folding adds to what the caller's set already holds.
        let mut set = CitSet::new(nav.universe());
        set.insert(0);
        nav.fold_results([all[6]], &mut set);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 4, 5]);
        // A subtree fold is its single range.
        let a = nav.find_by_label("A").unwrap();
        assert_eq!(nav.subtree_end(a), nav.find_by_label("E").unwrap().0);
        assert_eq!(nav.subtree_distinct(a), 4);
        assert_eq!(nav.subtree_distinct(NavNodeId::ROOT), 6);
    }

    #[test]
    fn subtree_ranges_agree_with_a_children_walk() {
        let h = hierarchy();
        let store = store_with(&[(1, &[1, 2, 3, 4, 5, 6])]);
        let nav = NavigationTree::build(&h, &store, &[CitationId(1)]);
        for id in nav.iter_preorder() {
            // DFS over children, the pre-CSR definition of the subtree.
            let mut dfs = Vec::new();
            let mut stack = vec![id];
            while let Some(m) = stack.pop() {
                dfs.push(m);
                stack.extend(nav.children(m).iter().rev());
            }
            assert_eq!(nav.subtree_nodes(id), dfs);
            for other in nav.iter_preorder() {
                let walked = {
                    let mut cur = nav.parent(other);
                    let mut found = false;
                    while let Some(p) = cur {
                        if p == id {
                            found = true;
                            break;
                        }
                        cur = nav.parent(p);
                    }
                    found
                };
                assert_eq!(nav.is_ancestor(id, other), walked);
            }
        }
    }
}
