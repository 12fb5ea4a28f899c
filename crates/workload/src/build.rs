//! Workload construction: turns [`QuerySpec`]s into a concrete hierarchy,
//! citation store and keyword index whose statistical surface matches
//! Table I.
//!
//! For every query the generator:
//!
//! 1. pins the *target concept*: a hierarchy descriptor at the specified
//!    MeSH level is renamed to the paper's target label;
//! 2. picks *topical clusters* — subtree regions the query's literature
//!    concentrates on (the first cluster contains the target);
//! 3. synthesizes the citations: each draws a focus concept from a
//!    Zipf-weighted cluster, is indexed with the focus, most of its
//!    ancestors (general concepts like *Proteins* accumulate near-total
//!    attachment counts, exactly as in the paper's Fig 1), occasionally a
//!    second cluster (creating the cross-branch duplicates the cost model
//!    feeds on) and a long tail of scattered concepts from a per-query
//!    pool sized to hit the Table I navigation-tree sizes;
//! 4. force-attaches the target to exactly `|L(n)|` citations and installs
//!    the MEDLINE-scale global counts `|LT(n)|` used by the EXPLORE
//!    probability.
//!
//! Everything is deterministic in [`WorkloadConfig::seed`].

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "offline fixture builder: every expect() asserts a property the generator itself just established; failing fast with the message is the desired behavior for a corrupt workload"
)]

use std::collections::HashSet;

use bionav_core::{NavNodeId, NavigationTree};
use bionav_medline::{tokenize, Citation, CitationId, CitationStore, InvertedIndex};
use bionav_mesh::synth::{generate_descriptors, SynthConfig};
use bionav_mesh::{ConceptHierarchy, DescriptorId, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::{paper_queries, QuerySpec};

/// Scale and seeding knobs for workload construction.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed; everything is deterministic in it.
    pub seed: u64,
    /// Approximate hierarchy size (MeSH 2009: ~48,000).
    pub hierarchy_size: usize,
    /// Maximum hierarchy depth.
    pub max_depth: u32,
    /// Citation-count multiplier applied to every spec (1.0 = paper scale).
    pub scale: f64,
    /// Derive the citation↔concept associations through the §VII crawl
    /// (phrase-query every concept label, denormalize) instead of using
    /// the generator's ground truth — the deployed system's data path.
    /// Target `|LT(n)|` values are re-installed afterwards so Table I
    /// still holds.
    pub crawl_associations: bool,
    /// The queries to realize.
    pub queries: Vec<QuerySpec>,
}

impl WorkloadConfig {
    /// Paper-scale configuration: 48k-node hierarchy, full result sizes.
    pub fn full() -> Self {
        WorkloadConfig {
            seed: 2014,
            hierarchy_size: 48_000,
            max_depth: 11,
            scale: 1.0,
            crawl_associations: false,
            queries: paper_queries(),
        }
    }

    /// Reduced-scale configuration for quick runs: hierarchy and citation
    /// counts shrink together, keeping the shape of every statistic.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        WorkloadConfig {
            seed: 2014,
            hierarchy_size: ((48_000f64 * scale) as usize).max(800),
            max_depth: 9,
            scale,
            crawl_associations: false,
            queries: paper_queries(),
        }
    }

    /// Tiny configuration for unit tests (sub-second build).
    pub fn test_size() -> Self {
        WorkloadConfig {
            seed: 7,
            hierarchy_size: 2_500,
            max_depth: 8,
            scale: 0.12,
            crawl_associations: false,
            queries: paper_queries(),
        }
    }
}

/// A query realized inside a [`Workload`].
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The originating specification.
    pub spec: QuerySpec,
    /// The descriptor pinned as the navigation target.
    pub target_descriptor: DescriptorId,
    /// The hierarchy position of the target (single-position descriptors
    /// are chosen as targets).
    pub target_node: NodeId,
    /// Citations generated for this query (ground truth; the keyword index
    /// must return exactly this set).
    pub citation_ids: Vec<CitationId>,
}

/// A fully materialized workload: hierarchy + store + index + queries.
pub struct Workload {
    /// The (synthetic) MeSH hierarchy with pinned target labels.
    pub hierarchy: ConceptHierarchy,
    /// The citation store with per-concept global counts installed.
    pub store: CitationStore,
    /// The keyword index (ESearch stand-in).
    pub index: InvertedIndex,
    /// One entry per realized query.
    pub queries: Vec<PreparedQuery>,
}

/// One executed query: its navigation tree and target node.
pub struct QueryRun {
    /// Query name (spec identifier).
    pub name: String,
    /// The navigation tree of the query result.
    pub nav: NavigationTree,
    /// The target concept inside the navigation tree.
    pub target: NavNodeId,
    /// Distinct citations the keyword query returned.
    pub result_size: usize,
}

impl Workload {
    /// Builds the workload. Deterministic in `cfg`.
    pub fn build(cfg: &WorkloadConfig) -> Workload {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut descriptors = generate_descriptors(&SynthConfig {
            seed: cfg.seed ^ 0x5EED,
            approx_size: cfg.hierarchy_size,
            top_categories: 16.min(cfg.hierarchy_size / 64).max(4),
            max_depth: cfg.max_depth,
            extra_position_rate: 0.12,
        });
        let provisional = ConceptHierarchy::from_descriptors(&descriptors)
            .expect("synthetic descriptors always build");

        // ---- Pin targets and choose clusters against the provisional tree.
        let mut used_descriptors: HashSet<DescriptorId> = HashSet::new();
        let mut plans: Vec<QueryPlan> = Vec::new();
        for spec in &cfg.queries {
            let plan = plan_query(&provisional, spec, &mut rng, &mut used_descriptors);
            plans.push(plan);
        }
        // Rename the chosen target descriptors.
        for (spec, plan) in cfg.queries.iter().zip(&plans) {
            let d = descriptors
                .iter_mut()
                .find(|d| d.id == plan.target_descriptor)
                .expect("the plan chose an existing descriptor");
            d.label = spec.target.label.clone();
        }
        let hierarchy = ConceptHierarchy::from_descriptors(&descriptors)
            .expect("renaming labels cannot break the tree");

        // ---- Global counts: shallow concepts are common, deep ones rare.
        let mut store = CitationStore::new();
        for node in hierarchy.iter_preorder().skip(1) {
            let h = hierarchy.node(node);
            if let Some(d) = h.descriptor() {
                let depth = f64::from(h.depth());
                let base = 3_000_000.0 * (0.32f64).powf(depth - 1.0);
                let jitter = rng.gen_range(0.4..2.5);
                store.set_global_count(d, (base * jitter).max(50.0) as u64);
            }
        }

        // ---- Citations.
        let mut next_pmid = 1u32;
        let mut prepared = Vec::new();
        for (spec, plan) in cfg.queries.iter().zip(&plans) {
            let ids =
                synthesize_query_citations(&hierarchy, spec, plan, cfg, &mut store, &mut next_pmid);
            // The paper-specified global count for the target.
            store.set_global_count(plan.target_descriptor, spec.target.global_count);
            prepared.push(PreparedQuery {
                spec: spec.clone(),
                target_descriptor: plan.target_descriptor,
                target_node: plan.target_node,
                citation_ids: ids,
            });
        }

        let mut index = InvertedIndex::build(&store);
        if cfg.crawl_associations {
            // The deployed data path (§VII): infer every association by
            // phrase-querying concept labels, then denormalize. Phrase
            // terms make the reconstruction exact, so only the *provenance*
            // of the associations changes.
            let result = bionav_medline::etl::Crawl::new(
                &hierarchy,
                &index,
                bionav_medline::etl::CrawlConfig::default(),
            )
            .run_to_end();
            store = result
                .into_store(&store)
                .expect("citation ids are unique by construction");
            // Crawled |LT(n)| counts are corpus-sized; the Table I targets
            // specify MEDLINE-scale values, so re-install those.
            for (spec, plan) in cfg.queries.iter().zip(&plans) {
                store.set_global_count(plan.target_descriptor, spec.target.global_count);
            }
            index = InvertedIndex::build(&store);
        }
        // Warm the hierarchy's columnar view here, at construction time:
        // the first navigation-tree build would otherwise pay for it inside
        // a latency-measured serving window.
        let _ = hierarchy.columns();
        Workload {
            hierarchy,
            store,
            index,
            queries: prepared,
        }
    }

    /// Looks up a prepared query by name.
    pub fn query(&self, name: &str) -> Option<&PreparedQuery> {
        self.queries.iter().find(|q| q.spec.name == name)
    }

    /// Executes a query end-to-end: keyword search through the index, then
    /// navigation-tree construction — the paper's on-line pipeline.
    ///
    /// # Panics
    /// Panics if `name` is unknown or the target fell out of the tree
    /// (cannot happen for generated workloads: targets carry citations).
    pub fn run_query(&self, name: &str) -> QueryRun {
        let prepared = self
            .query(name)
            .unwrap_or_else(|| panic!("unknown query {name:?}"));
        let outcome = self.index.query(&prepared.spec.keywords);
        let nav = NavigationTree::build(&self.hierarchy, &self.store, &outcome.citations);
        let target = nav
            .iter_preorder()
            .find(|&n| nav.hierarchy_node(n) == prepared.target_node)
            .expect("targets always carry attached citations");
        QueryRun {
            name: name.to_string(),
            nav,
            target,
            result_size: outcome.citations.len(),
        }
    }
}

/// Where a query's citations will live in the hierarchy.
#[derive(Debug, Clone)]
struct QueryPlan {
    target_descriptor: DescriptorId,
    target_node: NodeId,
    /// Cluster subtree node pools; `clusters[0]` contains the target.
    clusters: Vec<Vec<NodeId>>,
    /// Per-cluster satellite *regions*: the methods/chemicals/organism
    /// subtree regions a topic's citations share. Each citation draws its
    /// scattered concepts from 2–3 of its own cluster's regions — this
    /// topical locality is what lets EdgeCuts fragment the result set (a
    /// navigation subtree holds *its* topic's citations, not everyone's).
    satellites: Vec<Vec<Vec<NodeId>>>,
    /// Small cross-topic pool (background concepts shared by all clusters).
    shared_pool: Vec<NodeId>,
}

/// Chooses the target and clusters for one query.
fn plan_query(
    hierarchy: &ConceptHierarchy,
    spec: &QuerySpec,
    rng: &mut StdRng,
    used: &mut HashSet<DescriptorId>,
) -> QueryPlan {
    // Target: a single-position descriptor at (or as close as possible to)
    // the specified depth, with a fallback that relaxes the depth match.
    let mut candidates: Vec<NodeId> = hierarchy
        .iter_preorder()
        .skip(1)
        .filter(|&n| {
            let node = hierarchy.node(n);
            match node.descriptor() {
                Some(d) => !used.contains(&d) && hierarchy.nodes_of(d).len() == 1,
                None => false,
            }
        })
        .collect();
    candidates.shuffle(rng);
    let target_node = candidates
        .iter()
        .copied()
        .min_by_key(|&n| {
            let depth = hierarchy.node(n).depth();
            (i64::from(depth) - i64::from(spec.target.level)).unsigned_abs()
        })
        .expect("hierarchies always have candidate targets");
    let target_descriptor = hierarchy
        .node(target_node)
        .descriptor()
        .expect("candidates have descriptors");
    used.insert(target_descriptor);

    // The target's cluster: the subtree around its ancestor at depth 2 (or
    // the target itself when it is that shallow).
    let path = hierarchy.path_from_root(target_node);
    let anchor = path
        .get(2.min(path.len() - 1))
        .copied()
        .unwrap_or(target_node);
    let target_cluster = cluster_nodes(hierarchy, anchor);

    // Remaining clusters: depth-2 regions elsewhere.
    let mut region_roots: Vec<NodeId> = hierarchy
        .iter_preorder()
        .filter(|&n| hierarchy.node(n).depth() == 2 && n != anchor)
        .collect();
    region_roots.shuffle(rng);
    let others = region_roots
        .into_iter()
        .take(spec.clusters.saturating_sub(1) as usize)
        .map(|root| cluster_nodes(hierarchy, root));

    // Cluster order doubles as the Zipf popularity ranking. A target that
    // carries a healthy share of the result is a *hot* research line (the
    // paper's prothymosin targets) and fronts the ranking; a target with a
    // negligible |L(n)| — ice nucleation's "Plants, Genetically Modified",
    // 2 of 252 — is incidental to the literature, so its region goes last
    // (coldest). That coldness is what made ice nucleation the paper's
    // worst case: the EXPLORE probability keeps steering cuts elsewhere.
    let hot_target = u64::from(spec.target.attached) * 20 >= u64::from(spec.citations);
    let mut clusters: Vec<Vec<NodeId>> = Vec::with_capacity(spec.clusters as usize);
    if hot_target {
        clusters.push(target_cluster);
        clusters.extend(others);
    } else {
        clusters.extend(others);
        clusters.push(target_cluster);
    }

    // Satellite pools, sized so the navigation tree lands near the Table I
    // size (~12 distinct concepts materialize per citation). Locality is
    // *subtree-based*: each cluster claims a few dedicated hierarchy
    // regions (depth-3 subtrees), so a navigation subtree holds its own
    // topic's citations — without this, every partition would contain the
    // whole result set and no EdgeCut could fragment anything.
    let pool_target = (spec.citations as usize)
        .saturating_mul(12)
        .min(hierarchy.len() - 1);
    let per_cluster = (pool_target / clusters.len().max(1)).max(16);
    let per_region_cap = 40usize;
    let mut region_roots: Vec<NodeId> = hierarchy
        .iter_preorder()
        .filter(|&n| {
            let d = hierarchy.node(n).depth();
            d == 3 && n != anchor && !hierarchy.is_ancestor(anchor, n)
        })
        .collect();
    region_roots.shuffle(rng);
    let mut region_iter = region_roots.into_iter();
    let mut satellites: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(clusters.len());
    for _ in 0..clusters.len() {
        // Claim regions until the cluster's satellite pool is big enough;
        // synthetic depth-3 subtrees average ~15 nodes, so a cluster ends
        // up with a few dozen regions — each citation later samples 2–3 of
        // them, which keeps topical locality while different citations of
        // the same topic spread over the whole pool (tree-size realism).
        let mut regions: Vec<Vec<NodeId>> = Vec::new();
        let mut pooled = 0usize;
        while pooled < per_cluster {
            let Some(root) = region_iter.next() else {
                break;
            };
            let nodes: Vec<NodeId> = hierarchy.iter_subtree(root).take(per_region_cap).collect();
            pooled += nodes.len();
            if !nodes.is_empty() {
                regions.push(nodes);
            }
        }
        if regions.is_empty() {
            regions.push(vec![target_node]); // degenerate tiny hierarchies
        }
        satellites.push(regions);
    }
    // Background concepts every topic occasionally attaches (the paper's
    // near-universal shallow headings like "Proteins (307/313)").
    let mut shared_pool: Vec<NodeId> = hierarchy
        .iter_preorder()
        .skip(1)
        .filter(|&n| hierarchy.node(n).depth() <= 2)
        .collect();
    shared_pool.shuffle(rng);
    shared_pool.truncate(40);

    QueryPlan {
        target_descriptor,
        target_node,
        clusters,
        satellites,
        shared_pool,
    }
}

/// All nodes of the cluster subtree, capped to keep sampling cheap.
fn cluster_nodes(hierarchy: &ConceptHierarchy, root: NodeId) -> Vec<NodeId> {
    hierarchy.iter_subtree(root).take(4_000).collect()
}

/// Generates the citations of one query and inserts them into the store.
fn synthesize_query_citations(
    hierarchy: &ConceptHierarchy,
    spec: &QuerySpec,
    plan: &QueryPlan,
    cfg: &WorkloadConfig,
    store: &mut CitationStore,
    next_pmid: &mut u32,
) -> Vec<CitationId> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ stable_hash(&spec.name));
    let n = ((f64::from(spec.citations) * cfg.scale).round() as usize).max(5);
    let attach_target =
        ((f64::from(spec.target.attached) * cfg.scale).round() as u32).clamp(1, n as u32);
    let tokens = tokenize(&spec.keywords);

    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let pmid = CitationId(*next_pmid);
        *next_pmid += 1;

        let mut indexed: Vec<DescriptorId> = Vec::new();
        let add_node = |indexed: &mut Vec<DescriptorId>, node: NodeId| {
            if node == plan.target_node {
                return; // the target is force-attached below, exactly |L(n)| times
            }
            if let Some(d) = hierarchy.node(node).descriptor() {
                indexed.push(d);
            }
        };

        // Zipf-pick a cluster, then a focus inside it.
        let cluster_idx = zipf_index(&mut rng, plan.clusters.len());
        let cluster = &plan.clusters[cluster_idx];
        let focus = cluster[rng.gen_range(0..cluster.len())];
        add_node(&mut indexed, focus);
        // Ancestors: general concepts accumulate near-total counts.
        for &anc in hierarchy.path_from_root(focus).iter().rev().skip(1) {
            if anc == NodeId::ROOT {
                break;
            }
            if rng.gen_bool(0.85) {
                add_node(&mut indexed, anc);
            }
        }
        // Cross-topic secondary cluster: the duplicate factory.
        if plan.clusters.len() > 1 && rng.gen_bool(0.35) {
            let other = &plan.clusters[rng.gen_range(0..plan.clusters.len())];
            let f2 = other[rng.gen_range(0..other.len())];
            add_node(&mut indexed, f2);
            for &anc in hierarchy.path_from_root(f2).iter().rev().skip(1) {
                if anc == NodeId::ROOT {
                    break;
                }
                if rng.gen_bool(0.6) {
                    add_node(&mut indexed, anc);
                }
            }
        }
        // Scattered long tail up to the per-citation indexing budget:
        // 2–3 of this topic's satellite regions (a real citation's
        // chemicals/organisms/methods headings cluster in a handful of
        // subtrees), plus the shared shallow background concepts.
        let budget = jitter(&mut rng, spec.mean_indexed as usize);
        let regions = &plan.satellites[cluster_idx];
        let picks = 2 + usize::from(rng.gen_bool(0.5)) + usize::from(rng.gen_bool(0.25));
        let mut my_regions: Vec<&Vec<NodeId>> = Vec::with_capacity(picks);
        for _ in 0..picks.min(regions.len()) {
            my_regions.push(&regions[rng.gen_range(0..regions.len())]);
        }
        while indexed.len() < budget {
            let s = if plan.shared_pool.is_empty() || rng.gen_bool(0.8) {
                let r = my_regions[rng.gen_range(0..my_regions.len())];
                r[rng.gen_range(0..r.len())]
            } else {
                plan.shared_pool[rng.gen_range(0..plan.shared_pool.len())]
            };
            add_node(&mut indexed, s);
        }

        // Force-attach the target to the first |L(n)| citations.
        let mut annotations: Vec<DescriptorId> = Vec::new();
        if (i as u32) < attach_target {
            annotations.push(plan.target_descriptor);
        }

        // Searchable terms: the query keywords plus the full label phrase
        // of every associated concept — what PubMed's phrase matching
        // sees, and what lets the §VII crawl reconstruct associations.
        let mut terms = tokens.clone();
        for &d in annotations.iter().chain(&indexed) {
            if let Some(&node) = hierarchy.nodes_of(d).first() {
                terms.push(bionav_medline::normalize_phrase(
                    hierarchy.node(node).label(),
                ));
            }
        }

        let title = format!("{} study {}", spec.keywords, i + 1);
        store
            .insert(Citation::new(pmid, title, terms, annotations, indexed))
            .expect("pmids are globally sequential");
        ids.push(pmid);
    }
    ids
}

/// Zipf(1)-weighted index in `0..n`.
fn zipf_index(rng: &mut StdRng, n: usize) -> usize {
    debug_assert!(n >= 1);
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    n - 1
}

fn jitter(rng: &mut StdRng, mean: usize) -> usize {
    let lo = (mean as f64 * 0.6).floor().max(3.0) as usize;
    let hi = (mean as f64 * 1.4).ceil() as usize + 1;
    rng.gen_range(lo..hi)
}

/// Deterministic string hash (FNV-1a) so query seeds are stable across
/// platforms and runs.
fn stable_hash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload::build(&WorkloadConfig {
            queries: paper_queries().into_iter().take(3).collect(),
            ..WorkloadConfig::test_size()
        })
    }

    #[test]
    #[should_panic]
    fn zero_scale_is_rejected() {
        WorkloadConfig::scaled(0.0);
    }

    #[test]
    #[should_panic]
    fn oversized_scale_is_rejected() {
        WorkloadConfig::scaled(1.5);
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.hierarchy.len(), b.hierarchy.len());
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.citation_ids, qb.citation_ids);
            assert_eq!(qa.target_descriptor, qb.target_descriptor);
        }
    }

    #[test]
    fn keyword_queries_return_exactly_the_generated_sets() {
        let w = tiny();
        for q in &w.queries {
            let got = w.index.query(&q.spec.keywords).citations;
            assert_eq!(got, q.citation_ids, "query {}", q.spec.name);
        }
    }

    #[test]
    fn targets_are_pinned_with_right_labels() {
        let w = tiny();
        for q in &w.queries {
            let node = w.hierarchy.node(q.target_node);
            assert_eq!(node.label(), q.spec.target.label);
            assert_eq!(node.descriptor(), Some(q.target_descriptor));
            assert_eq!(
                w.store.global_count(q.target_descriptor),
                q.spec.target.global_count
            );
        }
    }

    #[test]
    fn run_query_builds_tree_containing_target() {
        let w = tiny();
        for q in &w.queries {
            let run = w.run_query(&q.spec.name);
            assert!(run.nav.len() > 10, "{}: tree too small", q.spec.name);
            assert_eq!(run.nav.label(run.target), q.spec.target.label);
            // The forced |L(n)| attachments survive scaling.
            let expected = ((f64::from(q.spec.target.attached) * 0.12).round() as u32).max(1);
            assert_eq!(
                run.nav.results_count(run.target),
                expected,
                "{}",
                q.spec.name
            );
        }
    }

    #[test]
    fn result_sizes_scale_with_config() {
        let w = tiny();
        for q in &w.queries {
            let expected = ((f64::from(q.spec.citations) * 0.12).round() as usize).max(5);
            assert_eq!(q.citation_ids.len(), expected, "{}", q.spec.name);
        }
    }

    #[test]
    fn navigation_trees_have_duplicates() {
        let w = tiny();
        let run = w.run_query("varenicline");
        let stats = bionav_core::stats::NavTreeStats::compute(&run.nav);
        assert!(
            stats.citations_with_duplicates as usize > stats.citations,
            "wide indexing must create duplicates: {stats:?}"
        );
        assert!(
            stats.tree_size > stats.citations,
            "many concepts per citation"
        );
    }

    #[test]
    #[should_panic(expected = "unknown query")]
    fn unknown_query_panics() {
        tiny().run_query("nope");
    }

    #[test]
    fn different_seeds_give_different_workloads() {
        let base = WorkloadConfig {
            queries: paper_queries().into_iter().take(2).collect(),
            ..WorkloadConfig::test_size()
        };
        let a = Workload::build(&base);
        let b = Workload::build(&WorkloadConfig {
            seed: base.seed + 1,
            ..base.clone()
        });
        let ta = a.queries[0].target_node;
        let tb = b.queries[0].target_node;
        let differs = ta != tb
            || a.queries[0].citation_ids.len() != b.queries[0].citation_ids.len()
            || a.hierarchy.len() != b.hierarchy.len();
        assert!(differs, "reseeding should move something");
    }

    #[test]
    fn targets_land_near_their_requested_depth() {
        let w = tiny();
        for q in &w.queries {
            let depth = w.hierarchy.node(q.target_node).depth();
            let want = q.spec.target.level;
            assert!(
                (i64::from(depth) - i64::from(want)).abs() <= 2,
                "{}: target at depth {depth}, wanted {want} (test-size hierarchy is shallow)",
                q.spec.name
            );
        }
    }

    #[test]
    fn queries_do_not_share_target_descriptors() {
        let w = Workload::build(&WorkloadConfig::test_size());
        let mut seen = std::collections::HashSet::new();
        for q in &w.queries {
            assert!(
                seen.insert(q.target_descriptor),
                "{} reuses a target",
                q.spec.name
            );
        }
    }

    #[test]
    fn citation_ids_are_globally_unique_and_sorted() {
        let w = tiny();
        let mut all: Vec<_> = w
            .queries
            .iter()
            .flat_map(|q| q.citation_ids.clone())
            .collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "pmids must never collide across queries");
    }

    #[test]
    fn crawled_associations_reconstruct_ground_truth() {
        let base = WorkloadConfig {
            queries: paper_queries().into_iter().take(3).collect(),
            ..WorkloadConfig::test_size()
        };
        let truth = Workload::build(&base);
        let crawled = Workload::build(&WorkloadConfig {
            crawl_associations: true,
            ..base
        });
        assert_eq!(truth.store.len(), crawled.store.len());
        // Phrase matching recovers the associations exactly (phrase terms
        // are stored per associated concept; label collisions are the only
        // possible source of extras and the synthetic labels are unique).
        let mut exact = 0usize;
        for c in truth.store.iter() {
            let got = crawled.store.associations(c.id);
            if got == c.indexed.as_slice() {
                exact += 1;
            } else {
                // Any surplus must still be a superset (phrase collisions
                // can only add, never drop).
                for d in &c.indexed {
                    if !got.contains(d) {
                        let node = truth.hierarchy.nodes_of(*d).first().copied();
                        let label = node.map(|n| truth.hierarchy.node(n).label().to_string());
                        let phrase = label.as_deref().map(bionav_medline::normalize_phrase);
                        let has_term = phrase.as_deref().map(|ph| c.terms.iter().any(|t| t == ph));
                        panic!(
                            "crawl dropped {d:?} (label {label:?}, phrase {phrase:?}, term present: {has_term:?}) from {:?}",
                            c.id
                        );
                    }
                }
            }
        }
        assert!(
            exact * 10 >= truth.store.len() * 9,
            "≥90% of citations reconstruct exactly (got {exact}/{})",
            truth.store.len()
        );
        // Targets keep their Table I |LT(n)| values.
        for q in &crawled.queries {
            assert_eq!(
                crawled.store.global_count(q.target_descriptor),
                q.spec.target.global_count
            );
        }
        // The evaluation pipeline runs end to end on the crawled store.
        let run = crawled.run_query(&crawled.queries[0].spec.name);
        assert!(run.nav.len() > 10);
    }

    /// Beyond-paper scale: double citations over a 100k-node hierarchy;
    /// expansions must stay interactive. Run explicitly with `-- --ignored`.
    #[test]
    #[ignore = "builds a 100k-node hierarchy with 2× citations (~10s release)"]
    fn double_scale_stays_interactive() {
        let cfg = WorkloadConfig {
            seed: 2014,
            hierarchy_size: 100_000,
            max_depth: 11,
            scale: 1.0,
            crawl_associations: false,
            queries: paper_queries(),
        };
        let w = Workload::build(&cfg);
        let run = w.run_query("follistatin");
        let started = bionav_core::trace::now_ns();
        let sim = bionav_core::sim::simulate_bionav(
            &run.nav,
            &bionav_core::CostParams::default(),
            &[run.target],
        );
        assert!(sim.outcome.expands >= 1);
        let elapsed = std::time::Duration::from_nanos(bionav_core::trace::now_ns() - started);
        let per_expand = elapsed / sim.outcome.expands.max(1) as u32;
        assert!(
            per_expand < std::time::Duration::from_secs(2),
            "expansions degraded to {per_expand:?}"
        );
    }

    /// Paper-scale smoke test; slow-ish, run explicitly with
    /// `cargo test -p bionav-workload -- --ignored`.
    #[test]
    #[ignore = "builds the full 48k-node workload (~2s release, ~20s debug)"]
    fn full_scale_workload_builds_and_answers() {
        let w = Workload::build(&WorkloadConfig::full());
        assert!(w.hierarchy.len() > 40_000);
        let run = w.run_query("prothymosin");
        assert_eq!(run.result_size, 313);
        assert!(run.nav.len() > 2_000);
    }
}
