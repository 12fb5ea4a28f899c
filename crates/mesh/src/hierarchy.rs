use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::{Descriptor, DescriptorId, MeshError, TreeNumber};

/// Index of a node within a [`ConceptHierarchy`] arena.
///
/// Node ids are dense (`0..hierarchy.len()`); id `0` is always the synthetic
/// `MeSH` root. They are only meaningful relative to the hierarchy that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The synthetic root node present in every hierarchy.
    pub const ROOT: NodeId = NodeId(0);

    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    label: String,
    /// `None` for the synthetic root and auto-created placeholders.
    descriptor: Option<DescriptorId>,
    /// `None` for the synthetic root and for synthesized arenas built via
    /// [`ConceptHierarchy::from_arena_parts`] (e.g. `synth::deep_chain`),
    /// whose shapes are impractical to express as dotted positions.
    tree_number: Option<TreeNumber>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Depth from the root (root = 0). Cached because the cost model and the
    /// evaluation (Table I "MeSH level of target") query it constantly.
    /// `u32`: synthetic deep-chain hierarchies exceed 65k levels.
    depth: u32,
}

/// The MeSH concept hierarchy (Definition 1 of the paper): a labeled tree of
/// concept nodes rooted at a synthetic `MeSH` node.
///
/// Internally an arena: nodes live in one `Vec` and refer to each other by
/// [`NodeId`]. A descriptor occupying several tree positions yields several
/// nodes sharing the same [`DescriptorId`]; [`ConceptHierarchy::nodes_of`]
/// recovers all positions of a descriptor, which is how query results get
/// attached to every relevant position (and where the duplicate citations
/// central to the paper's NP-completeness argument come from).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConceptHierarchy {
    nodes: Vec<Node>,
    /// DescriptorId → all positions it occupies.
    positions: HashMap<DescriptorId, Vec<NodeId>>,
    /// Columnar view of the arena, built on first use (see
    /// [`ConceptHierarchy::columns`]). Derived data — skipped on the wire
    /// and rebuilt lazily after deserialization.
    #[serde(skip)]
    columns: OnceLock<HierarchyColumns>,
}

/// Struct-of-arrays view of a hierarchy arena: per-node scalars in parallel
/// columns, children in CSR form, labels concatenated into one arena
/// string. Whole-arena passes (the navigation-tree build walks tens of
/// thousands of nodes per query) read these contiguous columns instead of
/// pointer-chasing heap-allocated `Node` structs.
#[derive(Debug, Clone)]
pub struct HierarchyColumns {
    parent: Vec<u32>,
    depth: Vec<u32>,
    descriptor: Vec<u32>,
    child_off: Vec<u32>,
    child_idx: Vec<NodeId>,
    label_off: Vec<u32>,
    labels: String,
    /// Descriptor-indexed positions CSR: raw descriptor id `d` occupies
    /// `pos_idx[pos_off[d]..pos_off[d + 1]]`, in arena order. The hash-free
    /// analogue of the `positions` map (descriptor ids are near-dense, so
    /// the offsets column stays small).
    pos_off: Vec<u32>,
    pos_idx: Vec<NodeId>,
}

impl HierarchyColumns {
    /// Sentinel in [`parent`](Self::parent) for the root.
    pub const NO_PARENT: u32 = u32::MAX;
    /// Sentinel in [`descriptor`](Self::descriptor) for descriptor-less
    /// nodes (the root and auto-created placeholders).
    pub const NO_DESCRIPTOR: u32 = u32::MAX;

    fn build(nodes: &[Node]) -> HierarchyColumns {
        let n = nodes.len();
        let mut parent = Vec::with_capacity(n);
        let mut depth = Vec::with_capacity(n);
        let mut descriptor = Vec::with_capacity(n);
        let mut child_off = Vec::with_capacity(n + 1);
        let mut child_idx = Vec::with_capacity(n.saturating_sub(1));
        let mut label_off = Vec::with_capacity(n + 1);
        let mut labels = String::new();
        child_off.push(0);
        label_off.push(0);
        for node in nodes {
            parent.push(node.parent.map_or(Self::NO_PARENT, |p| p.0));
            depth.push(node.depth);
            descriptor.push(node.descriptor.map_or(Self::NO_DESCRIPTOR, |d| d.0));
            child_idx.extend_from_slice(&node.children);
            child_off.push(child_idx.len() as u32);
            labels.push_str(&node.label);
            label_off.push(labels.len() as u32);
        }
        // Positions CSR: counting sort of node ids by raw descriptor id.
        // Scattering in ascending node order reproduces exactly the lists
        // the `positions` hash map holds (each is filled in arena order).
        let domain = descriptor
            .iter()
            .filter(|&&d| d != Self::NO_DESCRIPTOR)
            .map(|&d| d as usize + 1)
            .max()
            .unwrap_or(0);
        let mut pos_off = vec![0u32; domain + 1];
        for &d in &descriptor {
            if d != Self::NO_DESCRIPTOR {
                pos_off[d as usize + 1] += 1;
            }
        }
        for i in 0..domain {
            pos_off[i + 1] += pos_off[i];
        }
        let mut pos_idx = vec![NodeId(0); pos_off[domain] as usize];
        let mut cursor = pos_off.clone();
        for (i, &d) in descriptor.iter().enumerate() {
            if d != Self::NO_DESCRIPTOR {
                pos_idx[cursor[d as usize] as usize] = NodeId(i as u32);
                cursor[d as usize] += 1;
            }
        }
        HierarchyColumns {
            parent,
            depth,
            descriptor,
            child_off,
            child_idx,
            label_off,
            labels,
            pos_off,
            pos_idx,
        }
    }

    /// Parent ids per node ([`NO_PARENT`](Self::NO_PARENT) for the root).
    pub fn parent(&self) -> &[u32] {
        &self.parent
    }

    /// Depth from the root per node (root = 0).
    pub fn depth(&self) -> &[u32] {
        &self.depth
    }

    /// Raw descriptor id per node
    /// ([`NO_DESCRIPTOR`](Self::NO_DESCRIPTOR) when absent).
    pub fn descriptor(&self) -> &[u32] {
        &self.descriptor
    }

    /// Children of node `i`, in tree-number order.
    pub fn children(&self, i: usize) -> &[NodeId] {
        &self.child_idx[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Label of node `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.labels[self.label_off[i] as usize..self.label_off[i + 1] as usize]
    }

    /// All positions of raw descriptor id `d`, in arena order — the
    /// hash-free analogue of [`ConceptHierarchy::nodes_of`]. Unknown ids
    /// yield an empty slice.
    pub fn positions_of(&self, d: u32) -> &[NodeId] {
        match self.pos_off.get(d as usize..d as usize + 2) {
            Some(w) => &self.pos_idx[w[0] as usize..w[1] as usize],
            None => &[],
        }
    }
}

impl ConceptHierarchy {
    /// Builds a hierarchy from descriptor records (e.g. a parsed MeSH file).
    ///
    /// Every tree number's parent position must itself be present; use
    /// [`HierarchyBuilder`] with
    /// [`auto_intermediates`](HierarchyBuilder::auto_intermediates) to relax
    /// this.
    pub fn from_descriptors(descriptors: &[Descriptor]) -> Result<Self, MeshError> {
        HierarchyBuilder::new().build(descriptors)
    }

    /// Builds a hierarchy directly from pre-resolved arena parts, bypassing
    /// tree numbers entirely. Crate-internal: the synthetic generators use
    /// it for shapes that are impractical to express as tree numbers (a
    /// 100k-level chain's dotted position strings alone would be quadratic
    /// in the depth). Synthesized nodes carry no [`TreeNumber`].
    ///
    /// # Panics
    /// Entry 0 must be the root (`parents[0] == None`, and only entry 0 may
    /// be parentless); every other parent index must refer to an *earlier*
    /// entry, preserving the arena's parent-before-child order that depth
    /// computation and bottom-up passes rely on. All three slices must have
    /// equal length.
    pub(crate) fn from_arena_parts(
        labels: Vec<String>,
        descriptors: Vec<Option<DescriptorId>>,
        parents: Vec<Option<u32>>,
    ) -> ConceptHierarchy {
        assert_eq!(labels.len(), parents.len(), "labels/parents length");
        assert_eq!(
            descriptors.len(),
            parents.len(),
            "descriptors/parents length"
        );
        assert!(
            parents.first().is_some_and(Option::is_none),
            "entry 0 must be the parentless root"
        );
        let mut nodes: Vec<Node> = Vec::with_capacity(labels.len());
        let mut positions: HashMap<DescriptorId, Vec<NodeId>> = HashMap::new();
        for (i, (label, descriptor)) in labels.into_iter().zip(descriptors).enumerate() {
            let id = NodeId(i as u32);
            let (parent, depth) = match parents[i] {
                None => {
                    assert!(i == 0, "only entry 0 may be parentless");
                    (None, 0)
                }
                Some(p) => {
                    assert!((p as usize) < i, "parents must precede children");
                    nodes[p as usize].children.push(id);
                    (Some(NodeId(p)), nodes[p as usize].depth + 1)
                }
            };
            if let Some(d) = descriptor {
                positions.entry(d).or_default().push(id);
            }
            nodes.push(Node {
                label,
                descriptor,
                tree_number: None,
                parent,
                children: Vec::new(),
                depth,
            });
        }
        ConceptHierarchy {
            nodes,
            positions,
            columns: OnceLock::new(),
        }
    }

    /// Total number of nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the hierarchy holds only the synthetic root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The synthetic root node.
    pub fn root(&self) -> NodeRef<'_> {
        self.node(NodeId::ROOT)
    }

    /// Borrow a node by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only valid for the hierarchy
    /// that produced them).
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        assert!(
            id.index() < self.nodes.len(),
            "NodeId {} out of range for hierarchy of {} nodes",
            id.0,
            self.nodes.len()
        );
        NodeRef {
            hierarchy: self,
            id,
        }
    }

    /// The columnar (SoA) view of the arena, built on first use and cached
    /// for the hierarchy's lifetime. Cheap to call afterwards.
    pub fn columns(&self) -> &HierarchyColumns {
        self.columns
            .get_or_init(|| HierarchyColumns::build(&self.nodes))
    }

    /// All positions of a descriptor, or an empty slice if unknown.
    pub fn nodes_of(&self, descriptor: DescriptorId) -> &[NodeId] {
        self.positions
            .get(&descriptor)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct descriptors.
    pub fn descriptor_count(&self) -> usize {
        self.positions.len()
    }

    /// Iterates over all node ids in pre-order (root first).
    pub fn iter_preorder(&self) -> PreorderIter<'_> {
        PreorderIter {
            hierarchy: self,
            stack: vec![NodeId::ROOT],
        }
    }

    /// Iterates over the subtree rooted at `id` in pre-order (including `id`).
    pub fn iter_subtree(&self, id: NodeId) -> PreorderIter<'_> {
        self.node(id); // bounds check
        PreorderIter {
            hierarchy: self,
            stack: vec![id],
        }
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.iter_subtree(id).count()
    }

    /// Whether `ancestor` lies on the root path of `node` (proper ancestry).
    pub fn is_ancestor(&self, ancestor: NodeId, node: NodeId) -> bool {
        let mut cur = self.node(node).parent();
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.node(p).parent();
        }
        false
    }

    /// The node ids on the path from the root to `id`, inclusive at both ends.
    pub fn path_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = self.node(id).parent();
        while let Some(p) = cur {
            path.push(p);
            cur = self.node(p).parent();
        }
        path.reverse();
        path
    }

    /// Looks up a node by exact label (linear scan; intended for tests,
    /// examples and workload calibration, not hot paths).
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| NodeId(i as u32))
    }

    /// Maximum depth of any node (root = 0).
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }
}

/// A borrowed view of one hierarchy node, with navigation helpers.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'h> {
    hierarchy: &'h ConceptHierarchy,
    id: NodeId,
}

impl<'h> NodeRef<'h> {
    fn raw(&self) -> &'h Node {
        &self.hierarchy.nodes[self.id.index()]
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The concept label (`"MeSH"` for the root).
    pub fn label(&self) -> &'h str {
        &self.raw().label
    }

    /// The descriptor occupying this position (`None` for the root).
    pub fn descriptor(&self) -> Option<DescriptorId> {
        self.raw().descriptor
    }

    /// The positional tree number (`None` for the root).
    pub fn tree_number(&self) -> Option<&'h TreeNumber> {
        self.raw().tree_number.as_ref()
    }

    /// Parent node id (`None` for the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.raw().parent
    }

    /// Child node ids, in tree-number order.
    pub fn children(&self) -> &'h [NodeId] {
        &self.raw().children
    }

    /// Depth from the root (root = 0; top-level categories = 1).
    pub fn depth(&self) -> u32 {
        self.raw().depth
    }

    /// Whether this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.raw().children.is_empty()
    }
}

/// Pre-order node iterator over a hierarchy or subtree.
pub struct PreorderIter<'h> {
    hierarchy: &'h ConceptHierarchy,
    stack: Vec<NodeId>,
}

impl Iterator for PreorderIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = &self.hierarchy.nodes[id.index()].children;
        // Push in reverse so the leftmost child is visited first.
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

/// Builder assembling a [`ConceptHierarchy`] from descriptor records.
#[derive(Debug, Clone, Default)]
pub struct HierarchyBuilder {
    auto_intermediates: bool,
    root_label: Option<String>,
}

impl HierarchyBuilder {
    /// A builder with strict parent checking and the default `MeSH` root
    /// label.
    pub fn new() -> Self {
        HierarchyBuilder::default()
    }

    /// When enabled, tree positions whose parent position has no descriptor
    /// get a synthetic placeholder node instead of failing. Real MeSH files
    /// always contain every intermediate position, so this is off by default.
    pub fn auto_intermediates(mut self, yes: bool) -> Self {
        self.auto_intermediates = yes;
        self
    }

    /// Overrides the root label (default `"MeSH"`).
    pub fn root_label(mut self, label: impl Into<String>) -> Self {
        self.root_label = Some(label.into());
        self
    }

    /// Builds the hierarchy.
    pub fn build(&self, descriptors: &[Descriptor]) -> Result<ConceptHierarchy, MeshError> {
        // One entry per (position, descriptor); sorted so parents precede
        // children (a parent's dotted string is a strict prefix, and '.' is
        // smaller than any alphanumeric byte, so plain string order works).
        let mut entries: Vec<(&TreeNumber, &Descriptor)> = descriptors
            .iter()
            .flat_map(|d| d.tree_numbers.iter().map(move |tn| (tn, d)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));

        let root = Node {
            label: self
                .root_label
                .clone()
                .unwrap_or_else(|| "MeSH".to_string()),
            descriptor: None,
            tree_number: None,
            parent: None,
            children: Vec::new(),
            depth: 0,
        };
        let mut nodes = vec![root];
        let mut by_tree_number: HashMap<String, NodeId> = HashMap::with_capacity(entries.len());
        let mut positions: HashMap<DescriptorId, Vec<NodeId>> = HashMap::new();

        // Appends a node and registers its position; returns the new id.
        fn push_node(
            nodes: &mut Vec<Node>,
            by_tree_number: &mut HashMap<String, NodeId>,
            parent: NodeId,
            label: String,
            descriptor: Option<DescriptorId>,
            tree_number: TreeNumber,
        ) -> NodeId {
            let id = NodeId(nodes.len() as u32);
            let depth = nodes[parent.index()].depth + 1;
            by_tree_number.insert(tree_number.to_string(), id);
            nodes.push(Node {
                label,
                descriptor,
                tree_number: Some(tree_number),
                parent: Some(parent),
                children: Vec::new(),
                depth,
            });
            nodes[parent.index()].children.push(id);
            id
        }

        for (tn, desc) in entries {
            if by_tree_number.contains_key(tn.as_str()) {
                return Err(MeshError::DuplicateTreeNumber {
                    tree_number: tn.to_string(),
                });
            }
            let parent_id = match tn.parent() {
                None => NodeId::ROOT,
                Some(parent_tn) => match by_tree_number.get(parent_tn.as_str()) {
                    Some(&id) => id,
                    None if self.auto_intermediates => {
                        // Create the whole missing chain top-down.
                        let mut missing = vec![parent_tn.clone()];
                        while let Some(next) = missing.last().and_then(TreeNumber::parent) {
                            if by_tree_number.contains_key(next.as_str()) {
                                break;
                            }
                            missing.push(next);
                        }
                        let mut parent = missing
                            .last()
                            .and_then(TreeNumber::parent)
                            .map(|p| by_tree_number[p.as_str()])
                            .unwrap_or(NodeId::ROOT);
                        for m in missing.into_iter().rev() {
                            let label = format!("[{m}]");
                            parent =
                                push_node(&mut nodes, &mut by_tree_number, parent, label, None, m);
                        }
                        parent
                    }
                    None => {
                        return Err(MeshError::MissingParent {
                            tree_number: tn.to_string(),
                        });
                    }
                },
            };
            let id = push_node(
                &mut nodes,
                &mut by_tree_number,
                parent_id,
                desc.label.clone(),
                Some(desc.id),
                tn.clone(),
            );
            positions.entry(desc.id).or_default().push(id);
        }

        Ok(ConceptHierarchy {
            nodes,
            positions,
            columns: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).unwrap()
    }

    fn sample() -> Vec<Descriptor> {
        vec![
            Descriptor::new(DescriptorId(1), "Phenomena", vec![tn("G07")]),
            Descriptor::new(DescriptorId(2), "Cell Physiology", vec![tn("G07.100")]),
            Descriptor::new(DescriptorId(3), "Cell Death", vec![tn("G07.100.200")]),
            Descriptor::new(
                DescriptorId(4),
                "Apoptosis",
                vec![tn("G07.100.200.100"), tn("C23.550")],
            ),
            Descriptor::new(DescriptorId(5), "Pathologic Processes", vec![tn("C23")]),
        ]
    }

    #[test]
    fn builds_tree_with_correct_shape() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        assert_eq!(h.len(), 7); // root + 6 positions
        let root = h.root();
        assert_eq!(root.label(), "MeSH");
        assert_eq!(root.children().len(), 2); // C23, G07
        let c23 = h.node(root.children()[0]);
        assert_eq!(c23.label(), "Pathologic Processes");
        assert_eq!(c23.depth(), 1);
    }

    #[test]
    fn multi_position_descriptor_yields_multiple_nodes() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let apoptosis = h.nodes_of(DescriptorId(4));
        assert_eq!(apoptosis.len(), 2);
        let depths: Vec<u32> = apoptosis.iter().map(|&id| h.node(id).depth()).collect();
        assert!(depths.contains(&2) && depths.contains(&4));
    }

    #[test]
    fn missing_parent_is_an_error_by_default() {
        let descs = vec![Descriptor::new(
            DescriptorId(1),
            "Orphan",
            vec![tn("A01.100")],
        )];
        let err = ConceptHierarchy::from_descriptors(&descs).unwrap_err();
        assert!(matches!(err, MeshError::MissingParent { .. }));
    }

    #[test]
    fn auto_intermediates_creates_placeholders() {
        let descs = vec![Descriptor::new(
            DescriptorId(1),
            "Deep",
            vec![tn("A01.100.200")],
        )];
        let h = HierarchyBuilder::new()
            .auto_intermediates(true)
            .build(&descs)
            .unwrap();
        assert_eq!(h.len(), 4); // root + A01 + A01.100 + A01.100.200
        let deep = h.find_by_label("Deep").unwrap();
        assert_eq!(h.node(deep).depth(), 3);
        let path = h.path_from_root(deep);
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], NodeId::ROOT);
    }

    #[test]
    fn duplicate_position_is_rejected() {
        let descs = vec![
            Descriptor::new(DescriptorId(1), "One", vec![tn("A01")]),
            Descriptor::new(DescriptorId(2), "Two", vec![tn("A01")]),
        ];
        let err = ConceptHierarchy::from_descriptors(&descs).unwrap_err();
        assert!(matches!(err, MeshError::DuplicateTreeNumber { .. }));
    }

    #[test]
    fn preorder_visits_every_node_once() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let visited: Vec<NodeId> = h.iter_preorder().collect();
        assert_eq!(visited.len(), h.len());
        let mut sorted = visited.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), h.len());
        assert_eq!(visited[0], NodeId::ROOT);
    }

    #[test]
    fn subtree_iteration_and_size() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let g07 = h.find_by_label("Phenomena").unwrap();
        assert_eq!(h.subtree_size(g07), 4); // Phenomena, Cell Physiology, Cell Death, Apoptosis
    }

    #[test]
    fn ancestry_queries() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let g07 = h.find_by_label("Phenomena").unwrap();
        let death = h.find_by_label("Cell Death").unwrap();
        assert!(h.is_ancestor(g07, death));
        assert!(h.is_ancestor(NodeId::ROOT, death));
        assert!(!h.is_ancestor(death, g07));
        assert!(!h.is_ancestor(death, death));
    }

    #[test]
    fn find_by_label_and_misses() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        assert!(h.find_by_label("Apoptosis").is_some());
        assert!(h.find_by_label("apoptosis").is_none()); // exact match only
        assert!(h.find_by_label("Nope").is_none());
        assert_eq!(h.find_by_label("MeSH"), Some(NodeId::ROOT));
    }

    #[test]
    fn max_depth_and_descriptor_count() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        assert_eq!(h.max_depth(), 4); // G07.100.200.100
        assert_eq!(h.descriptor_count(), 5);
    }

    #[test]
    fn subtree_of_a_leaf_is_itself() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let leaf = h
            .iter_preorder()
            .find(|&n| h.node(n).is_leaf())
            .expect("some leaf exists");
        assert_eq!(h.iter_subtree(leaf).collect::<Vec<_>>(), vec![leaf]);
        assert_eq!(h.subtree_size(leaf), 1);
    }

    #[test]
    fn empty_descriptor_list_builds_root_only() {
        let h = ConceptHierarchy::from_descriptors(&[]).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.len(), 1);
        assert_eq!(h.root().label(), "MeSH");
        assert!(h.nodes_of(DescriptorId(1)).is_empty());
    }

    #[test]
    fn custom_root_label() {
        let h = HierarchyBuilder::new()
            .root_label("GO")
            .build(&sample())
            .unwrap();
        assert_eq!(h.root().label(), "GO");
    }

    #[test]
    fn arena_parts_constructor_builds_consistent_hierarchy() {
        let h = ConceptHierarchy::from_arena_parts(
            vec!["MeSH".into(), "a".into(), "b".into(), "c".into()],
            vec![
                None,
                Some(DescriptorId(1)),
                Some(DescriptorId(2)),
                Some(DescriptorId(1)),
            ],
            vec![None, Some(0), Some(1), Some(0)],
        );
        assert_eq!(h.len(), 4);
        assert_eq!(h.node(NodeId(2)).depth(), 2);
        assert_eq!(h.max_depth(), 2);
        assert_eq!(h.nodes_of(DescriptorId(1)), &[NodeId(1), NodeId(3)]);
        assert!(h.is_ancestor(NodeId::ROOT, NodeId(2)));
        assert!(h.node(NodeId(1)).tree_number().is_none());
        assert_eq!(h.root().children(), &[NodeId(1), NodeId(3)]);
    }

    #[test]
    fn serde_round_trip() {
        let h = ConceptHierarchy::from_descriptors(&sample()).unwrap();
        let json = serde_json::to_string(&h).unwrap();
        let back: ConceptHierarchy = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), h.len());
        assert_eq!(back.root().children().len(), h.root().children().len());
        assert_eq!(back.nodes_of(DescriptorId(4)).len(), 2);
    }
}
