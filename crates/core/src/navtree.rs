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
//! such run. The build sorts the query's attachments by the hierarchy's
//! pre-order rank and allocates nothing sized to the hierarchy, so a cold
//! `open_session` costs O(attachments), and reads cost O(attachments they
//! cover), never O(nodes × universe).
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
use bionav_mesh::{ConceptHierarchy, HierarchyColumns, NodeId as HNodeId};

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
    /// Prefix sums of the partitioner's node weights `max(1, |R(n)|)`:
    /// the id run `a..b` weighs `weight_prefix[b] - weight_prefix[a]`.
    weight_prefix: Vec<u64>,
    /// Local index → PMID for the distinct citations of the query result.
    citations: Vec<CitationId>,
}

/// Stable LSD radix sort of packed `rank << 32 | local index` attachments
/// by rank, for ranks below `ranks`: 11-bit digits, so two passes cover a
/// 4M-node hierarchy, and the digit counts are the only state beyond one
/// buffer of the attachments' size.
fn sort_by_rank(att: &mut Vec<u64>, ranks: usize) {
    const BITS: u32 = 11;
    const MASK: u64 = (1 << BITS) - 1;
    let max_rank = ranks.saturating_sub(1) as u64;
    let mut buf = vec![0u64; att.len()];
    let mut shift = 32;
    loop {
        let mut at = [0usize; 1 << BITS];
        for &x in att.iter() {
            at[((x >> shift) & MASK) as usize] += 1;
        }
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &x in att.iter() {
            let slot = &mut at[((x >> shift) & MASK) as usize];
            buf[*slot] = x;
            *slot += 1;
        }
        std::mem::swap(att, &mut buf);
        shift += BITS;
        if max_rank >> (shift - 32) == 0 {
            break;
        }
    }
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

        // Attach citations to hierarchy positions as `(pre-order rank,
        // local index)` pairs packed into one `u64`, then sort them by rank:
        // nothing in the build is sized to the hierarchy (DESIGN.md §5g).
        // The pairs are generated in ascending local index and the radix
        // sort is stable, so each position's attachments form one group,
        // the groups come in rank order — the hierarchy's pre-order — and
        // each group is in ascending local index; dropping repeated pairs
        // (the same citation reaching one position through two of its
        // concepts) leaves each result list sorted and deduplicated, and
        // the build bit-deterministic. Per-concept inputs come from dense
        // columns (the descriptor→positions CSR in rank space and the
        // store's `ln(global_count)`); the one hash probe left is
        // `associations`, one per citation.
        let cols = hierarchy.columns();
        let mut att: Vec<u64> = Vec::new();
        for (idx, &pmid) in citations.iter().enumerate() {
            for &concept in store.associations(pmid) {
                for &r in cols.position_ranks_of(concept.0) {
                    att.push(u64::from(r) << 32 | idx as u64);
                }
            }
        }
        sort_by_rank(&mut att, hierarchy.len());
        att.dedup();

        // Maximum embedding (paper §II): a non-root hierarchy node survives
        // iff it carries attachments, and hangs below its nearest surviving
        // ancestor. The distinct ranks are the survivors in hierarchy
        // pre-order, hence already numbered in navigation pre-order, and a
        // stack of open rank ranges `(subtree end, nav id)` holds each
        // one's surviving ancestors: pop the ranges that end at or before
        // its rank — each popped node's navigation subtree ends right here
        // — and the top left is its parent, the stack height its depth.
        // The stack is explicit, so a deep-narrow hierarchy
        // (`synth::deep_chain`, 100k+ levels) cannot overflow the thread
        // stack. The root embeds hierarchy rank 0 and keeps an empty list.
        //
        // EXPLORE weights come straight off each deduplicated list, in
        // ascending local index, the order a bitset iteration would visit
        // — bit-identical f64 results. The denominator comes off the
        // store's dense `ln(global_count)` column; `global_count` floors at
        // 2, so the out-of-column fallback ln 2 is the very value the
        // unmemoized path used to compute.
        let preorder = cols.preorder();
        let rank_end = cols.rank_end();
        let hdepth = cols.depth();
        let hdescriptor = cols.descriptor();
        let ln_floor = 2_f64.ln();
        let lnc = store.ln_global_counts();
        let mut hierarchy_node: Vec<HNodeId> = vec![HNodeId::ROOT];
        let mut labels = String::from(cols.label(0));
        let mut label_off: Vec<u32> = vec![0, labels.len() as u32];
        let mut hierarchy_depth: Vec<u32> = vec![0];
        let mut nav_depth: Vec<u32> = vec![0];
        let mut parent: Vec<u32> = vec![NO_PARENT];
        let mut subtree_end: Vec<u32> = vec![0];
        let mut result_off: Vec<u32> = vec![0, 0];
        let mut result_idx: Vec<u32> = Vec::with_capacity(att.len());
        let mut explore_weight: Vec<f64> = vec![0.0];
        let mut total_explore_weight = 0f64;
        let mut open: Vec<(u32, u32)> = Vec::new();
        for group in att.chunk_by(|a, b| a >> 32 == b >> 32) {
            let r = (group[0] >> 32) as u32;
            if r == 0 {
                continue;
            }
            let id = parent.len() as u32;
            while let Some(&(_, done)) = open.last().filter(|&&(end, _)| end <= r) {
                subtree_end[done as usize] = id;
                open.pop();
            }
            let h = preorder[r as usize].index();
            hierarchy_node.push(HNodeId(h as u32));
            labels.push_str(cols.label(h));
            label_off.push(labels.len() as u32);
            hierarchy_depth.push(hdepth[h]);
            nav_depth.push(open.len() as u32 + 1);
            parent.push(open.last().map_or(0, |&(_, up)| up));
            subtree_end.push(0);
            result_idx.extend(group.iter().map(|&x| x as u32));
            result_off.push(result_idx.len() as u32);
            let denom = match hdescriptor[h] {
                HierarchyColumns::NO_DESCRIPTOR => ln_floor,
                d => lnc.get(d as usize).copied().unwrap_or(ln_floor),
            };
            let weighted: f64 = group.iter().map(|&x| weights[x as u32 as usize]).sum();
            let ew = weighted / denom;
            explore_weight.push(ew);
            total_explore_weight += ew;
            open.push((rank_end[r as usize], id));
        }
        let n = parent.len();
        subtree_end[0] = n as u32;
        for (_, done) in open {
            subtree_end[done as usize] = n as u32;
        }

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

        let mut weight_prefix: Vec<u64> = Vec::with_capacity(n + 1);
        weight_prefix.push(0);
        let mut acc = 0u64;
        for w in result_off.windows(2) {
            acc += u64::from(w[1] - w[0]).max(1);
            weight_prefix.push(acc);
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
            weight_prefix,
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
    pub(crate) fn fold_run(&self, a: u32, b: u32, set: &mut CitSet) {
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

    /// Total partitioner weight `Σ max(1, |R(n)|)` of the id run `a..b`.
    #[inline]
    pub(crate) fn run_weight(&self, a: u32, b: u32) -> u64 {
        self.weight_prefix[b as usize] - self.weight_prefix[a as usize]
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

    /// The maximum embedding straight from its definition (paper §II),
    /// through the hierarchy's node API rather than its columns: every
    /// non-root position carrying results survives, in hierarchy
    /// pre-order, below its nearest surviving ancestor. Returns, per
    /// navigation node, `(parent, hierarchy node, label, result list,
    /// explore-weight bits)`, and the total explore-weight bits.
    type OracleNode = (Option<usize>, HNodeId, String, Vec<u32>, u64);

    fn embedding_oracle(
        h: &ConceptHierarchy,
        store: &CitationStore,
        citations: &[CitationId],
        weights: &[f64],
    ) -> (Vec<OracleNode>, u64) {
        use std::collections::{BTreeSet, HashMap};
        let mut attached: HashMap<HNodeId, BTreeSet<u32>> = HashMap::new();
        for (idx, &pmid) in citations.iter().enumerate() {
            for &d in store.associations(pmid) {
                for &pos in h.nodes_of(d) {
                    attached.entry(pos).or_default().insert(idx as u32);
                }
            }
        }
        let mut nav_of: HashMap<HNodeId, usize> = HashMap::new();
        let mut out: Vec<OracleNode> =
            vec![(None, HNodeId::ROOT, h.root().label().to_string(), vec![], 0)];
        let mut total = 0f64;
        for pos in h.iter_preorder().skip(1) {
            let Some(set) = attached.get(&pos) else {
                continue;
            };
            let mut up = h.node(pos).parent();
            let parent = loop {
                match up {
                    Some(a) if nav_of.contains_key(&a) => break nav_of[&a],
                    Some(a) => up = h.node(a).parent(),
                    None => break 0,
                }
            };
            let denom = h
                .node(pos)
                .descriptor()
                .map_or(2_f64.ln(), |d| (store.global_count(d) as f64).ln());
            let weighted: f64 = set.iter().map(|&x| weights[x as usize]).sum();
            let ew = weighted / denom;
            total += ew;
            nav_of.insert(pos, out.len());
            out.push((
                Some(parent),
                pos,
                h.node(pos).label().to_string(),
                set.iter().copied().collect(),
                ew.to_bits(),
            ));
        }
        (out, total.to_bits())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The rank-sorted build equals the definitional maximum embedding
        /// on arenas whose order is not pre-order (a node's parent is any
        /// earlier entry), with descriptors at several positions, unknown
        /// concepts, repeated concepts and weighted citations.
        #[test]
        fn build_matches_the_definitional_embedding(
            parents in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..60),
            descs in proptest::collection::vec(0u32..12, 60),
            assocs in proptest::collection::vec(
                proptest::collection::vec(0u32..14, 0..4), 1..30),
        ) {
            let n = parents.len() + 1;
            let h = ConceptHierarchy::from_arena_parts(
                (0..n).map(|i| format!("n{i}")).collect(),
                // Pool ids 1..=10 repeat across positions; 0 and 11 leave
                // a position descriptor-less. The root may carry one too.
                (0..n).map(|i| (1..=10).contains(&descs[i]).then_some(DescriptorId(descs[i]))).collect(),
                std::iter::once(None)
                    .chain(parents.iter().enumerate().map(|(j, &d)| Some(d % (j as u32 + 1))))
                    .collect(),
            );
            let mut store = CitationStore::new();
            for (i, concepts) in assocs.iter().enumerate() {
                // Concepts 11..13 occupy no position.
                let concepts = concepts.iter().map(|&c| DescriptorId(c)).collect();
                store
                    .insert(Citation::new(CitationId(i as u32 + 1), "t", vec![], concepts, vec![]))
                    .unwrap();
            }
            store.set_global_count(DescriptorId(3), 1_000);
            let results: Vec<CitationId> = (1..=assocs.len() as u32).rev().map(CitationId).collect();
            let weight = |id: CitationId| f64::from(id.0 % 3) + 0.5;
            let nav = NavigationTree::build_weighted(&h, &store, &results, weight);

            let citations: Vec<CitationId> = (1..=assocs.len() as u32).map(CitationId).collect();
            let weights: Vec<f64> = citations.iter().map(|&c| weight(c)).collect();
            let (want, total) = embedding_oracle(&h, &store, &citations, &weights);
            proptest::prop_assert_eq!(nav.len(), want.len());
            for (i, (parent, hnode, label, results, ew)) in want.iter().enumerate() {
                let id = NavNodeId(i as u32);
                proptest::prop_assert_eq!(nav.parent(id).map(NavNodeId::index), *parent, "parent of {}", i);
                proptest::prop_assert_eq!(nav.hierarchy_node(id), *hnode, "hierarchy node of {}", i);
                proptest::prop_assert_eq!(nav.label(id), label.as_str());
                let listed: Vec<u32> = nav.results(id).iter().map(|x| x as u32).collect();
                proptest::prop_assert_eq!(&listed, results, "results of {}", i);
                proptest::prop_assert_eq!(nav.results_count(id) as usize, results.len());
                proptest::prop_assert_eq!(nav.explore_weight(id).to_bits(), *ew, "explore weight of {}", i);
            }
            proptest::prop_assert_eq!(nav.total_explore_weight().to_bits(), total);
        }
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
