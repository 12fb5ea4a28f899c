//! Deterministic synthetic corpus generator.
//!
//! Produces a [`CitationStore`] whose citations are plausibly distributed
//! over a concept hierarchy: each citation has a *focus* concept drawn from
//! a Zipf-like popularity distribution (biomedical literature concentrates
//! on few hot topics), is annotated with the focus, a few of its ancestors,
//! nearby siblings and some unrelated concepts, and carries searchable
//! terms derived from the labels of its annotated concepts.
//!
//! The evaluation workload (`bionav-workload`) does *not* use this module —
//! it builds per-query calibrated corpora — but examples, integration tests
//! and the pipeline benchmarks do.

use bionav_mesh::{ConceptHierarchy, DescriptorId, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{Citation, CitationId, CitationStore};

/// Tuning knobs for the synthetic corpus.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed; equal seeds over the same hierarchy give identical corpora.
    pub seed: u64,
    /// Number of citations to generate.
    pub n_citations: usize,
    /// Mean number of MEDLINE-style annotations per citation (paper: ~20).
    pub mean_annotations: usize,
    /// Mean number of PubMed-style indexed concepts (paper: ~90). Must be
    /// ≥ `mean_annotations`.
    pub mean_indexed: usize,
    /// Zipf skew for topic popularity; 0 = uniform, ~1 = realistic skew.
    pub zipf_s: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xC17A710,
            n_citations: 5_000,
            mean_annotations: 8,
            mean_indexed: 24,
            zipf_s: 0.9,
        }
    }
}

/// Generates a corpus over `hierarchy`.
///
/// # Panics
/// Panics if the hierarchy is empty (there is nothing to annotate with) or
/// if `mean_indexed < mean_annotations`.
pub fn generate(hierarchy: &ConceptHierarchy, cfg: &CorpusConfig) -> CitationStore {
    assert!(
        !hierarchy.is_empty(),
        "cannot generate a corpus over an empty hierarchy"
    );
    assert!(
        cfg.mean_indexed >= cfg.mean_annotations,
        "indexed associations are a superset of annotations"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Concept nodes (root excluded) in a random popularity order; sampling
    // rank r with weight 1/(r+1)^s gives the Zipf-like skew.
    let mut nodes: Vec<NodeId> = hierarchy.iter_preorder().skip(1).collect();
    nodes.shuffle(&mut rng);
    let weights: Vec<f64> = (0..nodes.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_s))
        .collect();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "generate() is only called with a validated, non-empty hierarchy (ConceptHierarchy guarantees ≥ 1 node)"
    )]
    let total_weight = *cumulative.last().expect("non-empty hierarchy");

    let zipf = ZipfSampler {
        nodes: &nodes,
        cumulative: &cumulative,
        total: total_weight,
    };

    let mut store = CitationStore::new();
    for i in 0..cfg.n_citations {
        let focus = zipf.sample(&mut rng);
        let citation = synthesize_citation(
            hierarchy,
            &mut rng,
            cfg,
            CitationId(i as u32 + 1),
            focus,
            &zipf,
        );
        #[expect(
            clippy::expect_used,
            reason = "ids come from a local counter, so the duplicate-id error is unreachable in the generator"
        )]
        store
            .insert(citation)
            .expect("generated citation ids are sequential and unique");
    }
    store
}

/// Popularity-ranked concept sampler: rank `r` is drawn with weight
/// `1/(r+1)^s`. Used both for the focus concept of each citation *and* for
/// the filler co-annotations — real MEDLINE co-annotations track concept
/// popularity, and drawing filler uniformly would dilute the Zipf skew the
/// generator promises.
struct ZipfSampler<'a> {
    nodes: &'a [NodeId],
    cumulative: &'a [f64],
    total: f64,
}

impl ZipfSampler<'_> {
    fn sample(&self, rng: &mut StdRng) -> NodeId {
        let x = rng.gen_range(0.0..self.total);
        let idx = self
            .cumulative
            .partition_point(|&c| c < x)
            .min(self.nodes.len() - 1);
        self.nodes[idx]
    }
}

fn synthesize_citation(
    hierarchy: &ConceptHierarchy,
    rng: &mut StdRng,
    cfg: &CorpusConfig,
    id: CitationId,
    focus: NodeId,
    zipf: &ZipfSampler<'_>,
) -> Citation {
    let focus_node = hierarchy.node(focus);
    let mut annotations: Vec<DescriptorId> = Vec::new();
    let push = |annotations: &mut Vec<DescriptorId>, node: NodeId| {
        if let Some(d) = hierarchy.node(node).descriptor() {
            annotations.push(d);
        }
    };

    push(&mut annotations, focus);
    // Some ancestors of the focus (general context concepts).
    for &anc in hierarchy.path_from_root(focus).iter().rev().skip(1) {
        if anc == NodeId::ROOT {
            break;
        }
        if rng.gen_bool(0.6) {
            push(&mut annotations, anc);
        }
    }
    // Some siblings (methods/related topics).
    if let Some(parent) = focus_node.parent() {
        let siblings = hierarchy.node(parent).children();
        for &s in siblings {
            if s != focus && rng.gen_bool(0.15) {
                push(&mut annotations, s);
            }
        }
    }
    // Popularity-weighted unrelated concepts up to the annotation budget.
    let target = jitter(rng, cfg.mean_annotations).max(1);
    while annotations.len() < target {
        push(&mut annotations, zipf.sample(rng));
    }

    // Wider indexing: extra random concepts plus descendants of the focus.
    let indexed_target = jitter(rng, cfg.mean_indexed).max(annotations.len());
    let mut extra: Vec<DescriptorId> = Vec::new();
    let descendants: Vec<NodeId> = hierarchy.iter_subtree(focus).skip(1).take(8).collect();
    for d in descendants {
        if rng.gen_bool(0.4) {
            if let Some(desc) = hierarchy.node(d).descriptor() {
                extra.push(desc);
            }
        }
    }
    while annotations.len() + extra.len() < indexed_target {
        if let Some(d) = hierarchy.node(zipf.sample(rng)).descriptor() {
            extra.push(d);
        }
    }

    // Searchable terms: the words of the focus label plus the words of a
    // few annotated labels (multi-word word-AND queries behave like
    // PubMed), and the full label *phrases* of every annotated concept so
    // the §VII crawl can recover associations via phrase matching.
    let mut terms: Vec<String> = label_words(focus_node.label());
    terms.push(crate::normalize_phrase(focus_node.label()));
    for &d in annotations.iter().take(4) {
        if let Some(&node) = hierarchy.nodes_of(d).first() {
            terms.extend(label_words(hierarchy.node(node).label()));
        }
    }
    for &d in &annotations {
        if let Some(&node) = hierarchy.nodes_of(d).first() {
            terms.push(crate::normalize_phrase(hierarchy.node(node).label()));
        }
    }

    let title = format!("On {} (study {})", focus_node.label(), id.0);
    Citation::new(id, title, terms, annotations, extra)
}

fn jitter(rng: &mut StdRng, mean: usize) -> usize {
    let lo = (mean as f64 * 0.5).floor() as usize;
    let hi = (mean as f64 * 1.5).ceil() as usize + 1;
    rng.gen_range(lo..hi)
}

fn label_words(label: &str) -> Vec<String> {
    label
        .split(|c: char| !c.is_alphanumeric() && c != '+' && c != '/' && c != '-')
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedIndex;
    use bionav_mesh::synth::{self, SynthConfig};

    fn small_hierarchy() -> ConceptHierarchy {
        synth::generate(&SynthConfig::small(21, 300)).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let h = small_hierarchy();
        let cfg = CorpusConfig {
            n_citations: 200,
            ..CorpusConfig::default()
        };
        let a = generate(&h, &cfg);
        let b = generate(&h, &cfg);
        let ids_a: Vec<_> = a.iter().map(|c| (c.id, c.indexed.clone())).collect();
        let ids_b: Vec<_> = b.iter().map(|c| (c.id, c.indexed.clone())).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn corpus_has_requested_size_and_annotations() {
        let h = small_hierarchy();
        let cfg = CorpusConfig {
            n_citations: 300,
            ..CorpusConfig::default()
        };
        let store = generate(&h, &cfg);
        assert_eq!(store.len(), 300);
        let mean: f64 = store
            .iter()
            .map(|c| c.annotations.len() as f64)
            .sum::<f64>()
            / 300.0;
        assert!(
            (3.0..=16.0).contains(&mean),
            "mean annotations {mean} out of plausible range"
        );
        for c in store.iter() {
            assert!(!c.annotations.is_empty());
            assert!(c.indexed.len() >= c.annotations.len());
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let h = small_hierarchy();
        let cfg = CorpusConfig {
            n_citations: 1_000,
            zipf_s: 1.0,
            ..CorpusConfig::default()
        };
        let store = generate(&h, &cfg);
        let mut counts: Vec<u64> = h
            .iter_preorder()
            .skip(1)
            .filter_map(|n| h.node(n).descriptor())
            .map(|d| store.observed_count(d))
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = counts.iter().take(counts.len() / 10).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            top_decile as f64 > 0.18 * total as f64,
            "top 10% of concepts should hold a disproportionate share"
        );
    }

    #[test]
    fn label_queries_retrieve_focus_citations() {
        let h = small_hierarchy();
        let store = generate(
            &h,
            &CorpusConfig {
                n_citations: 400,
                ..CorpusConfig::default()
            },
        );
        let index = InvertedIndex::build(&store);
        // Pick the most-cited descriptor's label; querying it must return hits.
        let busiest = h
            .iter_preorder()
            .skip(1)
            .max_by_key(|&n| {
                h.node(n)
                    .descriptor()
                    .map(|d| store.observed_count(d))
                    .unwrap_or(0)
            })
            .unwrap();
        let label = h.node(busiest).label();
        let out = index.query(label);
        assert!(
            !out.is_empty(),
            "query for {label:?} should match citations"
        );
    }

    #[test]
    #[should_panic(expected = "empty hierarchy")]
    fn empty_hierarchy_panics() {
        let h = ConceptHierarchy::from_descriptors(&[]).unwrap();
        generate(&h, &CorpusConfig::default());
    }
}
