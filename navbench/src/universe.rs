//! Seeded inputs: the query universe, Zipf popularity and the session stream.
//!
//! Everything here is a pure function of the `--seed` argument, so two runs
//! with one seed offer the program identical inputs.

use std::sync::Arc;

use bionav_core::trace::now_ns;
use bionav_core::{NavNodeId, NavigationTree};
use bionav_workload::{paper_queries, QuerySpec, Workload, WorkloadConfig};

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed forever
/// (no dependency whose output could change between versions).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for item `k` of the stream named by `salt`.
    pub fn for_item(seed: u64, salt: u64, k: u64) -> Self {
        let mut r = Rng(seed ^ salt.rotate_left(17) ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf popularity over ranks `0..n`: rank `k` has weight `1 / (k+1)^s`,
/// normalized.
#[derive(Debug, Clone)]
pub struct Zipf {
    weights: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let raw: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-s)).collect();
        let total: f64 = raw.iter().sum();
        Zipf {
            weights: raw.into_iter().map(|w| w / total).collect(),
        }
    }

    /// The share of rank `k`.
    pub fn weight(&self, k: usize) -> f64 {
        self.weights[k]
    }
}

/// Seed of the synthetic query universe. It is fixed rather than taken from
/// `--seed`: every run measures the same data, and the seed drives only the
/// sessions, so seed-to-seed differences in one run's figures come from
/// the sessions, not from a different corpus.
pub const UNIVERSE_SEED: u64 = 2009;

/// `n` synthetic query specifications with the shapes of Table I: spec
/// `i` copies Table I query `i mod 10` (result size, clusters, indexing
/// width, target level and counts), so every seed's universe has the same
/// size mix, while its name — which seeds the citation generator — and
/// keywords come from the seed. Keywords are nonsense tokens that match
/// only the query's own citations.
pub fn synthetic_specs(seed: u64, n: usize) -> Vec<QuerySpec> {
    let base = paper_queries();
    (0..n)
        .map(|i| {
            let mut spec = base[i % base.len()].clone();
            spec.name = format!("synth-{seed}-{i}");
            spec.keywords = format!("zqsynth{i:03}x");
            spec.target.label = format!("Synthetic Target {i}");
            spec
        })
        .collect()
}

/// Shallowest depth a navigation target may have. Concepts near the root
/// of a large tree take TOPDOWN navigations of a hundred EXPANDs or more;
/// the rare sessions toward them would dominate every mean a run reports.
pub const MIN_TARGET_DEPTH: usize = 4;

/// What the session stream needs from one query's navigation tree: its
/// keywords and the parent of every node, so a target's root path can be
/// walked without holding the tree.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    pub keywords: String,
    parents: Vec<u32>,
    /// Nodes at depth `MIN_TARGET_DEPTH` or deeper, in pre-order (every
    /// non-root node when the tree is shallower).
    targets: Vec<NavNodeId>,
}

impl QueryInfo {
    pub fn from_tree(keywords: &str, nav: &NavigationTree) -> Self {
        let mut parents = vec![u32::MAX; nav.len()];
        for n in nav.iter_preorder() {
            parents[n.0 as usize] = nav.parent(n).map_or(u32::MAX, |p| p.0);
        }
        QueryInfo::new(keywords, parents)
    }

    fn new(keywords: &str, parents: Vec<u32>) -> Self {
        let depth = |mut n: u32| {
            let mut d = 0;
            while parents[n as usize] != u32::MAX {
                n = parents[n as usize];
                d += 1;
            }
            d
        };
        let mut targets: Vec<NavNodeId> = (1..parents.len() as u32)
            .filter(|&n| depth(n) >= MIN_TARGET_DEPTH)
            .map(NavNodeId)
            .collect();
        if targets.is_empty() {
            targets = (1..parents.len() as u32).map(NavNodeId).collect();
        }
        QueryInfo {
            keywords: keywords.to_string(),
            parents,
            targets,
        }
    }

    /// The nodes from the root down to `target`, inclusive.
    pub fn path(&self, target: NavNodeId) -> Vec<NavNodeId> {
        let mut path = vec![target];
        let mut at = target.0;
        while self.parents[at as usize] != u32::MAX {
            at = self.parents[at as usize];
            path.push(NavNodeId(at));
        }
        path.reverse();
        path
    }
}

/// A built workload plus the per-query facts the clients read.
pub struct Universe {
    pub workload: Arc<Workload>,
    pub queries: Vec<QueryInfo>,
    /// `(index query ns, tree build ns)` of each query's set-up build.
    pub build_ns: Vec<(u64, u64)>,
}

impl Universe {
    /// Builds the workload at `scale` over Table I plus `synthetic` specs
    /// seeded by `UNIVERSE_SEED`, then each query's tree once to record its
    /// shape.
    pub fn build(scale: f64, synthetic: usize) -> Universe {
        let mut cfg = workload_config(scale);
        cfg.queries
            .extend(synthetic_specs(UNIVERSE_SEED, synthetic));
        let workload = Workload::build(&cfg);
        let mut build_ns = Vec::with_capacity(workload.queries.len());
        let queries = workload
            .queries
            .iter()
            .map(|q| {
                let t0 = now_ns();
                let outcome = workload.index.query(&q.spec.keywords);
                let t1 = now_ns();
                let nav =
                    NavigationTree::build(&workload.hierarchy, &workload.store, &outcome.citations);
                build_ns.push((t1 - t0, now_ns() - t1));
                QueryInfo::from_tree(&q.spec.keywords, &nav)
            })
            .collect();
        Universe {
            workload: Arc::new(workload),
            queries,
            build_ns,
        }
    }
}

/// The workload configuration `bionav serve --workload SCALE` uses.
pub fn workload_config(scale: f64) -> WorkloadConfig {
    if (scale - 1.0).abs() < f64::EPSILON {
        WorkloadConfig::full()
    } else {
        WorkloadConfig::scaled(scale)
    }
}

/// A navigation tree built outside any engine, straight from the index.
pub fn fresh_tree(workload: &Workload, keywords: &str) -> NavigationTree {
    let outcome = workload.index.query(keywords);
    NavigationTree::build(&workload.hierarchy, &workload.store, &outcome.citations)
}

/// One closed-loop navigation: open `query`, drill TOPDOWN to `target`,
/// list its citations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub query: usize,
    pub target: NavNodeId,
}

/// The navigations one pass of a closed-loop workload serves, in the
/// seed's order.
///
/// The population is fixed: query `q` gets `max(1, round(size · w_q))`
/// sessions for its Zipf weight `w_q`, and its `j`-th session drills
/// toward the target at `0.5 + j(√2 − 1) mod 1` along its eligible
/// targets, a low-discrepancy sequence that spreads a query's sessions
/// evenly over them. The seed sets the order: each query's sessions are
/// spaced evenly through the pass from a seeded phase, so a query recurs
/// at a steady interval and the seeds differ in how queries interleave —
/// the traffic the tree cache and cut memo see. Every seed serves the same
/// navigations: percentiles of EXPAND times spread over three decades move
/// by several percent when one heavy navigation is swapped for another.
pub fn population(queries: &[QueryInfo], zipf: &Zipf, size: usize, seed: u64) -> Vec<Plan> {
    let mut keyed = Vec::new();
    for (q, info) in queries.iter().enumerate() {
        let n = ((size as f64 * zipf.weight(q)).round() as usize).max(1);
        let phase = Rng::for_item(seed, 0x0DE5, q as u64).next_f64();
        for j in 0..n {
            let v = (0.5 + j as f64 * SQRT2_M1).fract();
            let t = &info.targets;
            let target = t[((v * t.len() as f64) as usize).min(t.len() - 1)];
            keyed.push(((j as f64 + phase) / n as f64, Plan { query: q, target }));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.query.cmp(&b.1.query)));
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// `√2 − 1`: an irrational step for the target sequence.
const SQRT2_M1: f64 = 0.414_213_562_373_095_1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_universe_and_stream() {
        assert_eq!(synthetic_specs(7, 12), synthetic_specs(7, 12));
        assert_ne!(synthetic_specs(7, 12), synthetic_specs(8, 12));
        let info = QueryInfo::new(
            "q",
            (0..50u32)
                .map(|i| if i == 0 { u32::MAX } else { (i - 1) / 2 })
                .collect(),
        );
        let queries = vec![info.clone(), info];
        let zipf = Zipf::new(2, 1.0);
        let (a, b, c) = (
            population(&queries, &zipf, 100, 3),
            population(&queries, &zipf, 100, 3),
            population(&queries, &zipf, 100, 4),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Depth 4 of this heap-shaped tree starts at node 15.
        assert!(a.iter().all(|p| p.target.0 >= 15 && p.target.0 < 50));
    }

    #[test]
    fn synthetic_keywords_are_single_unique_tokens() {
        let specs = synthetic_specs(1, 54);
        for (i, s) in specs.iter().enumerate() {
            assert!(s.keywords.chars().all(|c| c.is_ascii_alphanumeric()));
            assert!(specs[i + 1..].iter().all(|o| o.keywords != s.keywords));
            assert!(s.target.attached <= s.citations);
        }
    }

    #[test]
    fn every_seed_serves_the_same_zipf_population_spread_evenly() {
        let info = QueryInfo::new(
            "q",
            (0..200u32)
                .map(|i| if i == 0 { u32::MAX } else { (i - 1) / 2 })
                .collect(),
        );
        let queries = vec![info; 64];
        let zipf = Zipf::new(64, 1.0);
        let sorted = |seed| {
            let mut v: Vec<(usize, u32)> = population(&queries, &zipf, 1000, seed)
                .into_iter()
                .map(|p| (p.query, p.target.0))
                .collect();
            v.sort_unstable();
            v
        };
        let first = sorted(1);
        for seed in 2..=6 {
            assert_eq!(sorted(seed), first, "seed {seed}");
        }
        // Rank 0 holds 1/H(64) ≈ 21% of sessions, rank 20 a 21st of that;
        // every query appears.
        let plans = population(&queries, &zipf, 1000, 7);
        let count = |q| plans.iter().filter(|p| p.query == q).count();
        assert_eq!(count(0), 211);
        assert_eq!(count(20), 10);
        assert!((0..64).all(|q| count(q) >= 1));
        // The sessions of rank 0 recur at a steady interval.
        let at: Vec<usize> = (0..plans.len()).filter(|&i| plans[i].query == 0).collect();
        let gaps: Vec<usize> = at.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g <= 12), "{gaps:?}");
    }

    #[test]
    fn paths_run_from_the_root() {
        let info = QueryInfo::new("q", vec![u32::MAX, 0, 1, 1, 0]);
        assert_eq!(
            info.path(NavNodeId(3)),
            vec![NavNodeId(0), NavNodeId(1), NavNodeId(3)]
        );
    }
}
