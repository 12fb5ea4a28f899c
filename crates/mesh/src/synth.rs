//! Deterministic synthetic MeSH-scale hierarchy generator.
//!
//! The BioNav experiments run against the 2009 MeSH release (48k+ concept
//! nodes, 16 top-level categories, depth up to ~11, very bushy upper
//! levels). That data file is licensed and not redistributable, so the
//! reproduction generates a hierarchy with the same *shape statistics*; the
//! navigation algorithms only ever observe tree structure, labels and
//! per-concept citation counts, all of which this module controls.
//!
//! Generation is fully deterministic for a given [`SynthConfig::seed`], so
//! every experiment in the repository is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::{ConceptHierarchy, Descriptor, DescriptorId, MeshError, TreeNumber};

/// Workload-shrink multiplier for sanitizer runs.
///
/// Reads `BIONAV_SANITIZER_SCALE` — a float in `(0, 1]`, clamped to
/// `[0.01, 1.0]`, defaulting to `1.0` when unset or unparseable. Heavy test
/// fixtures multiply node/citation counts by this so instrumented runs
/// (Miri, ThreadSanitizer) finish in minutes instead of hours; functional
/// assertions are unchanged, only fixture sizes shrink.
pub fn sanitizer_scale() -> f64 {
    std::env::var("BIONAV_SANITIZER_SCALE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(1.0, |s| s.clamp(0.01, 1.0))
}

/// `n` shrunk by [`sanitizer_scale`] but never below `floor` — fixtures
/// need a minimum amount of structure for their assertions to be
/// meaningful (multi-level hierarchies, multi-page components, …).
pub fn sanitizer_scaled(n: usize, floor: usize) -> usize {
    let scaled = (n as f64 * sanitizer_scale()).round() as usize;
    scaled.max(floor)
}

/// Tuning knobs for the synthetic hierarchy.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed; equal seeds produce identical hierarchies.
    pub seed: u64,
    /// Approximate number of concept positions to generate (the real figure
    /// lands within a few percent of this).
    pub approx_size: usize,
    /// Number of top-level categories (MeSH 2009 has 16: A–N, V, Z).
    pub top_categories: usize,
    /// Maximum tree depth, root excluded (MeSH: ~11).
    pub max_depth: u32,
    /// Fraction of descriptors that receive a second tree position, grafted
    /// under an unrelated parent (MeSH descriptors are frequently
    /// poly-hierarchical; this is what creates duplicate citations across
    /// navigation-tree branches).
    pub extra_position_rate: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0xB10_AA5,
            approx_size: 48_000,
            top_categories: 16,
            max_depth: 11,
            extra_position_rate: 0.12,
        }
    }
}

impl SynthConfig {
    /// A small hierarchy (~`size` nodes) for tests and examples.
    pub fn small(seed: u64, size: usize) -> Self {
        SynthConfig {
            seed,
            approx_size: size,
            top_categories: 4.min(size / 8).max(1),
            max_depth: 7,
            extra_position_rate: 0.12,
        }
    }
}

/// Generates the descriptor records for a synthetic hierarchy.
///
/// Exposed separately from [`generate`] so callers (the workload crate) can
/// rename descriptors — pinning paper-specific concept labels like
/// `"Cell Proliferation"` — before building the immutable hierarchy.
pub fn generate_descriptors(cfg: &SynthConfig) -> Vec<Descriptor> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut labels = LabelFactory::new();
    let mut descriptors: Vec<Descriptor> = Vec::with_capacity(cfg.approx_size + 16);
    let mut next_id = 1u32;

    let per_category = (cfg.approx_size.max(cfg.top_categories)) / cfg.top_categories;
    for cat in 0..cfg.top_categories {
        let letter = (b'A' + (cat % 26) as u8) as char;
        #[expect(
            clippy::expect_used,
            reason = "the format string always yields `<letter><2 digits>`, the grammar's category form"
        )]
        let root_tn = TreeNumber::parse(&format!("{letter}{:02}", cat / 26 + 1))
            .expect("generated category numbers are valid");
        // ±25% jitter keeps categories from being eerily equal-sized.
        let jitter = rng.gen_range(0.75..1.25);
        let budget = ((per_category as f64) * jitter).round().max(1.0) as usize;
        grow_subtree(
            &mut rng,
            &mut labels,
            &mut descriptors,
            &mut next_id,
            root_tn,
            1,
            budget,
            cfg.max_depth,
        );
    }

    graft_extra_positions(&mut rng, &mut descriptors, cfg);
    descriptors
}

/// Generates a complete synthetic [`ConceptHierarchy`].
pub fn generate(cfg: &SynthConfig) -> Result<ConceptHierarchy, MeshError> {
    ConceptHierarchy::from_descriptors(&generate_descriptors(cfg))
}

/// A degenerate deep-narrow hierarchy: one chain of `levels` concept nodes
/// under the root, node `i` (1-based) labeled `chain-i` and carrying
/// `DescriptorId(i)`.
///
/// This is the adversarial shape for anything that recurses per hierarchy
/// level — at 100k+ levels it overflows the default thread stack, which is
/// why the navigation-tree embedding walks with an explicit work-stack
/// (see the deep-chain regression tests in `bionav-core`). Built through
/// the direct arena constructor: expressing a 100k-level chain as dotted
/// tree-number strings would cost quadratic memory, so the nodes carry no
/// tree number.
pub fn deep_chain(levels: usize) -> ConceptHierarchy {
    let mut labels = Vec::with_capacity(levels + 1);
    let mut descriptors = Vec::with_capacity(levels + 1);
    let mut parents = Vec::with_capacity(levels + 1);
    labels.push("MeSH".to_string());
    descriptors.push(None);
    parents.push(None);
    for i in 1..=levels {
        labels.push(format!("chain-{i}"));
        descriptors.push(Some(DescriptorId(i as u32)));
        parents.push(Some((i - 1) as u32));
    }
    ConceptHierarchy::from_arena_parts(labels, descriptors, parents)
}

/// Recursively grows the subtree at `tn`, consuming `budget` nodes total
/// (including the node at `tn` itself).
#[allow(clippy::too_many_arguments)]
fn grow_subtree(
    rng: &mut StdRng,
    labels: &mut LabelFactory,
    out: &mut Vec<Descriptor>,
    next_id: &mut u32,
    tn: TreeNumber,
    depth: u32,
    budget: usize,
    max_depth: u32,
) {
    debug_assert!(budget >= 1);
    let id = DescriptorId(*next_id);
    *next_id += 1;
    out.push(Descriptor::new(id, labels.fresh(rng), vec![tn.clone()]));

    let remaining = budget - 1;
    if remaining == 0 || depth >= max_depth {
        return;
    }

    // MeSH is bushy near the top and thins out with depth.
    let mean_children = match depth {
        1 => 24.0,
        2 => 8.0,
        3 => 5.0,
        4 => 4.0,
        _ => 3.0,
    };
    let spread = (mean_children * rng.gen_range(0.5..1.5f64)).round() as usize;
    let n_children = spread.clamp(1, remaining);

    // Split the remaining budget across children with random weights so
    // sibling subtrees differ in size (some deep chains, some shallow fans).
    let mut weights: Vec<f64> = (0..n_children)
        .map(|_| rng.gen_range(0.2..1.8f64))
        .collect();
    let total: f64 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);

    let mut allocated = 0usize;
    let mut shares: Vec<usize> = weights
        .iter()
        .map(|w| {
            let s = ((remaining as f64) * w).floor() as usize;
            allocated += s;
            s
        })
        .collect();
    // Distribute the rounding remainder, then guarantee every child ≥ 1.
    let mut leftover = remaining - allocated;
    for s in shares.iter_mut() {
        if leftover == 0 {
            break;
        }
        *s += 1;
        leftover -= 1;
    }
    shares.retain(|&s| s > 0);

    for (i, share) in shares.iter().enumerate() {
        // MeSH child segments are 3-digit, non-contiguous; spacing by 7
        // mimics the gaps left for future insertions.
        let segment = format!("{:03}", (i + 1) * 7);
        grow_subtree(
            rng,
            labels,
            out,
            next_id,
            tn.child(&segment),
            depth + 1,
            *share,
            max_depth,
        );
    }
}

/// Gives a random sample of descriptors a second tree position under an
/// unrelated parent, mirroring MeSH poly-hierarchy.
fn graft_extra_positions(rng: &mut StdRng, descriptors: &mut [Descriptor], cfg: &SynthConfig) {
    let n = descriptors.len();
    if n < 4 || cfg.extra_position_rate <= 0.0 {
        return;
    }
    // Segment sets per parent position, so grafted children never collide.
    let mut used: HashSet<String> = descriptors
        .iter()
        .flat_map(|d| d.tree_numbers.iter().map(|t| t.to_string()))
        .collect();
    let candidates: Vec<usize> = {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        let count = ((n as f64) * cfg.extra_position_rate).round() as usize;
        idx.truncate(count);
        idx
    };
    // Hosts: positions shallow enough to accept a child within max_depth.
    let hosts: Vec<TreeNumber> = descriptors
        .iter()
        .flat_map(|d| d.tree_numbers.iter())
        .filter(|t| (t.depth() as u32) < cfg.max_depth)
        .cloned()
        .collect();
    if hosts.is_empty() {
        return;
    }
    for di in candidates {
        let host = hosts[rng.gen_range(0..hosts.len())].clone();
        // Grafting under one's own position would create a cycle of meaning
        // (a concept as its own descendant); skip those hosts.
        if descriptors[di]
            .tree_numbers
            .iter()
            .any(|t| t.is_ancestor_or_self(&host))
        {
            continue;
        }
        // Find a free segment in the 500+ range (primary children use ≤ ~350).
        let mut seg = 500 + rng.gen_range(0..400u32);
        let tn = loop {
            let candidate = host.child(&format!("{seg:03}"));
            if !used.contains(candidate.as_str()) {
                break candidate;
            }
            seg = 500 + (seg + 1) % 500;
        };
        used.insert(tn.to_string());
        descriptors[di].tree_numbers.push(tn);
        descriptors[di].tree_numbers.sort();
    }
}

/// Produces unique, readable pseudo-biomedical concept labels.
struct LabelFactory {
    seen: HashSet<String>,
    counter: u64,
}

const HEADS: &[&str] = &[
    "Cell",
    "Gene",
    "Protein",
    "Membrane",
    "Nuclear",
    "Mitochondrial",
    "Hepatic",
    "Renal",
    "Cardiac",
    "Neural",
    "Vascular",
    "Epithelial",
    "Lymphoid",
    "Thymic",
    "Cortical",
    "Plasma",
    "Receptor",
    "Kinase",
    "Cytokine",
    "Hormone",
    "Antigen",
    "Antibody",
    "Lipid",
    "Peptide",
    "Glycan",
    "Chromatin",
    "Ribosomal",
    "Synaptic",
    "Dermal",
    "Ocular",
    "Pulmonary",
    "Gastric",
    "Osseous",
    "Muscular",
    "Endocrine",
    "Microbial",
    "Viral",
    "Fungal",
    "Parasitic",
    "Immune",
];

const STEMS: &[&str] = &[
    "Proliferation",
    "Apoptosis",
    "Differentiation",
    "Transport",
    "Signaling",
    "Adhesion",
    "Migration",
    "Transcription",
    "Translation",
    "Replication",
    "Repair",
    "Degradation",
    "Secretion",
    "Absorption",
    "Metabolism",
    "Synthesis",
    "Phosphorylation",
    "Methylation",
    "Oxidation",
    "Binding",
    "Activation",
    "Inhibition",
    "Expression",
    "Regulation",
    "Homeostasis",
    "Morphogenesis",
    "Angiogenesis",
    "Inflammation",
    "Necrosis",
    "Fibrosis",
    "Hypertrophy",
    "Atrophy",
    "Dysplasia",
    "Neoplasms",
    "Carcinoma",
    "Sarcoma",
    "Lymphoma",
    "Syndrome",
    "Deficiency",
    "Toxicity",
];

const TAILS: &[&str] = &[
    "Processes",
    "Phenomena",
    "Disorders",
    "Pathways",
    "Factors",
    "Proteins",
    "Genes",
    "Models",
    "Techniques",
    "Agents",
    "Inhibitors",
    "Agonists",
    "Antagonists",
    "Markers",
    "Variants",
    "Complexes",
];

impl LabelFactory {
    fn new() -> Self {
        LabelFactory {
            seen: HashSet::new(),
            counter: 0,
        }
    }

    fn fresh(&mut self, rng: &mut StdRng) -> String {
        for _ in 0..8 {
            let head = HEADS[rng.gen_range(0..HEADS.len())];
            let stem = STEMS[rng.gen_range(0..STEMS.len())];
            let label = if rng.gen_bool(0.3) {
                let tail = TAILS[rng.gen_range(0..TAILS.len())];
                format!("{head} {stem}, {tail}")
            } else {
                format!("{head} {stem}")
            };
            if self.seen.insert(label.clone()) {
                return label;
            }
        }
        // Extremely unlikely fallback, but label uniqueness must hold.
        self.counter += 1;
        let label = format!("Unclassified Concept {}", self.counter);
        self.seen.insert(label.clone());
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::small(7, 400);
        let a = generate_descriptors(&cfg);
        let b = generate_descriptors(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_descriptors(&SynthConfig::small(1, 400));
        let b = generate_descriptors(&SynthConfig::small(2, 400));
        assert_ne!(a, b);
    }

    #[test]
    fn size_is_approximately_honored() {
        let cfg = SynthConfig::small(42, 2_000);
        let h = generate(&cfg).unwrap();
        let n = h.len() - 1; // exclude root
        assert!(
            (1_200..=3_000).contains(&n),
            "expected roughly 2000 positions, got {n}"
        );
    }

    #[test]
    fn respects_max_depth() {
        let cfg = SynthConfig {
            max_depth: 5,
            ..SynthConfig::small(3, 1_000)
        };
        let h = generate(&cfg).unwrap();
        assert!(h.max_depth() <= 5);
    }

    #[test]
    fn some_descriptors_are_polyhierarchical() {
        let cfg = SynthConfig::small(11, 1_500);
        let descs = generate_descriptors(&cfg);
        let multi = descs.iter().filter(|d| d.tree_numbers.len() > 1).count();
        assert!(multi > 0, "extra_position_rate should yield poly-hierarchy");
        // And the result still builds strictly (all parents exist).
        ConceptHierarchy::from_descriptors(&descs).unwrap();
    }

    #[test]
    fn deep_chain_is_a_single_spine() {
        let h = deep_chain(1_000);
        assert_eq!(h.len(), 1_001);
        assert_eq!(h.max_depth(), 1_000);
        assert_eq!(h.root().children().len(), 1);
        let leaf = h.nodes_of(DescriptorId(1_000));
        assert_eq!(leaf.len(), 1);
        assert_eq!(h.node(leaf[0]).depth(), 1_000);
        assert!(h.node(leaf[0]).is_leaf());
        assert_eq!(h.node(leaf[0]).label(), "chain-1000");
    }

    #[test]
    fn labels_are_unique() {
        let descs = generate_descriptors(&SynthConfig::small(5, 3_000));
        let mut labels: Vec<&str> = descs.iter().map(|d| d.label.as_str()).collect();
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before);
    }

    #[test]
    fn upper_levels_are_bushier_than_lower() {
        let h = generate(&SynthConfig::small(9, 4_000)).unwrap();
        let mut by_depth: Vec<(u64, u64)> = vec![(0, 0); (h.max_depth() + 1) as usize];
        for id in h.iter_preorder() {
            let node = h.node(id);
            if !node.is_leaf() {
                let d = node.depth() as usize;
                by_depth[d].0 += node.children().len() as u64;
                by_depth[d].1 += 1;
            }
        }
        let mean = |d: usize| by_depth[d].0 as f64 / by_depth[d].1.max(1) as f64;
        assert!(
            mean(1) > mean(3),
            "depth-1 branching {} should exceed depth-3 branching {}",
            mean(1),
            mean(3)
        );
    }
}
