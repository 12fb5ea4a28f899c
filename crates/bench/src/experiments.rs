//! One function per paper table/figure plus the DESIGN.md ablations.
//!
//! Each experiment prints its table and returns a [`ShapeCheck`] asserting
//! the qualitative result the paper reports — not the absolute numbers
//! (their testbed was a 2008 Java/Oracle stack; ours is a simulator), but
//! the *shape*: who wins, by roughly what factor, where the outliers are.

#![expect(
    clippy::expect_used,
    reason = "experiment harness: reproduction runs want a loud abort with context over silent recovery when a fixture breaks"
)]

use std::time::Duration;

use bionav_core::edgecut::heuristic::expand_component;
use bionav_core::edgecut::opt::CutProblem;
use bionav_core::sim::simulate_bionav;
use bionav_core::{CostParams, NavNodeId, NavigationTree};
use bionav_workload::{evaluate, QueryEval, Workload};

use crate::report::{ShapeCheck, Table};

/// Table I: workload characteristics, measured on the realized corpus.
pub fn table1(workload: &Workload, params: &CostParams) -> ShapeCheck {
    let evals = evaluate(workload, params);
    let mut t = Table::new(
        "Table I — query workload (measured on the synthetic MEDLINE)",
        &[
            "query",
            "#citations",
            "tree size",
            "max width",
            "max height",
            "cit w/ dups",
            "target level",
            "|L(n)|",
            "|LT(n)|",
            "target concept",
        ],
    );
    for e in &evals {
        t.row(vec![
            e.table1.keywords.clone(),
            e.table1.tree.citations.to_string(),
            e.table1.tree.tree_size.to_string(),
            e.table1.tree.max_width.to_string(),
            e.table1.tree.max_height.to_string(),
            e.table1.tree.citations_with_duplicates.to_string(),
            e.table1.target.mesh_level.to_string(),
            e.table1.target.attached_citations.to_string(),
            e.table1.target.global_citations.to_string(),
            e.table1.target_label.clone(),
        ]);
    }
    t.print();
    println!(
        "paper anchors: prothymosin 313 citations / 3,940 nodes / 30,895 w/dups; vardenafil 486; ice-nucleation |L(n)|=2"
    );

    let mut check = ShapeCheck::new("table1");
    let by = |n: &str| evals.iter().find(|e| e.name == n);
    if let (Some(p), Some(v)) = (by("prothymosin"), by("vardenafil")) {
        check.assert(
            "vardenafil returns more citations than prothymosin (486 vs 313)",
            v.table1.tree.citations > p.table1.tree.citations,
        );
        check.assert(
            "prothymosin trees carry heavy duplication (w/dups ≫ distinct)",
            p.table1.tree.citations_with_duplicates > 5 * p.table1.tree.citations as u64,
        );
        check.assert(
            "navigation trees are an order of magnitude bigger than result sets",
            p.table1.tree.tree_size > 3 * p.table1.tree.citations,
        );
    }
    if let Some(f) = by("follistatin") {
        check.assert(
            "follistatin is the largest result set",
            evals
                .iter()
                .all(|e| e.table1.tree.citations <= f.table1.tree.citations),
        );
    }
    if let Some(i) = by("ice-nucleation") {
        check.assert(
            "the ice-nucleation target is shallow with tiny |L(n)|",
            i.table1.target.mesh_level <= 3 && i.table1.target.attached_citations <= 3,
        );
    }
    check.print();
    check
}

/// Fig 8: overall navigation cost (#concepts revealed + #EXPANDs), static
/// vs Heuristic-ReducedOpt. Paper: ~85% average improvement, often an order
/// of magnitude; worst case `ice nucleation` at 67%.
pub fn fig8(evals: &[QueryEval]) -> ShapeCheck {
    let mut t = Table::new(
        "Fig 8 — overall navigation cost (revealed + EXPANDs)",
        &["query", "static", "BioNav", "improvement"],
    );
    let mut improvements = Vec::new();
    for e in evals {
        let imp = e.improvement();
        improvements.push((e.name.clone(), imp));
        t.row(vec![
            e.name.clone(),
            e.static_outcome.interaction_cost().to_string(),
            e.bionav.outcome.interaction_cost().to_string(),
            format!("{:.0}%", imp * 100.0),
        ]);
    }
    t.print();
    let mean = improvements.iter().map(|(_, i)| i).sum::<f64>() / improvements.len() as f64;
    println!("mean improvement: {:.0}%   (paper: 85%)", mean * 100.0);

    let mut check = ShapeCheck::new("fig8");
    let wins = improvements.iter().filter(|(_, i)| *i > 0.0).count();
    check.assert(
        format!(
            "BioNav beats static on ≥ 8/10 queries (won {wins}/{})",
            improvements.len()
        ),
        wins * 10 >= improvements.len() * 8,
    );
    check.assert(
        format!("mean improvement ≥ 50% (got {:.0}%)", mean * 100.0),
        mean >= 0.5,
    );
    check.print();
    check
}

/// Fig 9: number of EXPAND actions per query, both methods. Paper: the
/// counts are relatively close (BioNav may use a few more), so Fig 8's gap
/// comes from revealing fewer concepts per EXPAND.
pub fn fig9(evals: &[QueryEval]) -> ShapeCheck {
    let mut t = Table::new(
        "Fig 9 — # EXPAND actions",
        &[
            "query",
            "static",
            "BioNav",
            "revealed/EXPAND static",
            "revealed/EXPAND BioNav",
        ],
    );
    let mut check = ShapeCheck::new("fig9");
    let mut close = 0usize;
    for e in evals {
        let s_exp = e.static_outcome.expands.max(1);
        let b_exp = e.bionav.outcome.expands.max(1);
        let s_rate = e.static_outcome.revealed as f64 / s_exp as f64;
        let b_rate = e.bionav.outcome.revealed as f64 / b_exp as f64;
        if b_exp <= 5 * s_exp {
            close += 1;
        }
        t.row(vec![
            e.name.clone(),
            e.static_outcome.expands.to_string(),
            e.bionav.outcome.expands.to_string(),
            format!("{s_rate:.1}"),
            format!("{b_rate:.1}"),
        ]);
    }
    t.print();
    check.assert(
        format!(
            "EXPAND counts stay comparable (≤5× static) on ≥ 8/10 ({close}/{})",
            evals.len()
        ),
        close * 10 >= evals.len() * 8,
    );
    let fewer_per_expand = evals
        .iter()
        .filter(|e| {
            let s = e.static_outcome.revealed as f64 / e.static_outcome.expands.max(1) as f64;
            let b = e.bionav.outcome.revealed as f64 / e.bionav.outcome.expands.max(1) as f64;
            b < s
        })
        .count();
    check.assert(
        format!(
            "BioNav reveals fewer concepts per EXPAND on every query ({fewer_per_expand}/{})",
            evals.len()
        ),
        fewer_per_expand == evals.len(),
    );
    check.print();
    check
}

/// Fig 10: average Heuristic-ReducedOpt execution time per EXPAND.
/// Paper: 200–700 ms on 2008 hardware; the shape requirement is
/// interactivity (well under a second) and that times track reduced-tree
/// size.
pub fn fig10(evals: &[QueryEval]) -> ShapeCheck {
    let mut t = Table::new(
        "Fig 10 — avg Heuristic-ReducedOpt time per EXPAND",
        &["query", "#EXPANDs", "avg time", "avg reduced size"],
    );
    let mut worst = Duration::ZERO;
    for e in evals {
        let avg = e.mean_expand_time();
        worst = worst.max(avg);
        let avg_reduced = if e.bionav.trace.is_empty() {
            0.0
        } else {
            e.bionav
                .trace
                .iter()
                .map(|x| x.reduced_size as f64)
                .sum::<f64>()
                / e.bionav.trace.len() as f64
        };
        t.row(vec![
            e.name.clone(),
            e.bionav.outcome.expands.to_string(),
            format!("{:.2} ms", avg.as_secs_f64() * 1e3),
            format!("{avg_reduced:.1}"),
        ]);
    }
    t.print();
    let mut check = ShapeCheck::new("fig10");
    check.assert(
        format!(
            "every EXPAND is interactive (<1s; worst avg {:.1} ms)",
            worst.as_secs_f64() * 1e3
        ),
        worst < Duration::from_secs(1),
    );
    check.print();
    check
}

/// Fig 11: per-EXPAND execution time for `prothymosin`, annotated with the
/// reduced-tree partition counts — the paper's point is that time tracks
/// the reduced tree (size and width), not the component size.
pub fn fig11(workload: &Workload, params: &CostParams) -> ShapeCheck {
    let run = workload.run_query("prothymosin");
    let sim = simulate_bionav(&run.nav, params, &[run.target]);
    let mut t = Table::new(
        "Fig 11 — Heuristic-ReducedOpt per EXPAND (prothymosin)",
        &[
            "EXPAND #",
            "component size",
            "partitions",
            "revealed",
            "time",
        ],
    );
    for (i, tr) in sim.trace.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            tr.component_size.to_string(),
            tr.reduced_size.to_string(),
            tr.revealed.to_string(),
            format!("{:.2} ms", tr.elapsed.as_secs_f64() * 1e3),
        ]);
    }
    t.print();
    let mut check = ShapeCheck::new("fig11");
    check.assert(
        format!(
            "prothymosin navigation used ≥ 2 EXPANDs (got {})",
            sim.trace.len()
        ),
        sim.trace.len() >= 2,
    );
    check.assert(
        "reduced trees never exceed k",
        sim.trace
            .iter()
            .all(|t| t.reduced_size <= params.max_partitions),
    );
    check.assert(
        "every EXPAND ran in interactive time",
        sim.trace.iter().all(|t| t.elapsed < Duration::from_secs(1)),
    );
    check.print();
    check
}

/// The introduction's worked example: reaching two concepts of the
/// `prothymosin` result. Paper: static reveals 123 concepts in 5 EXPANDs;
/// BioNav 19 concepts in 5 EXPANDs.
pub fn intro(workload: &Workload, params: &CostParams) -> ShapeCheck {
    let run = workload.run_query("prothymosin");
    // Second target: a deep, result-carrying node in a different branch of
    // the navigation tree than the pinned target.
    let target1 = run.target;
    let top_of = |nav: &NavigationTree, mut n: NavNodeId| {
        while let Some(p) = nav.parent(n) {
            if p == NavNodeId::ROOT {
                break;
            }
            n = p;
        }
        n
    };
    let t1_top = top_of(&run.nav, target1);
    let target2 = run
        .nav
        .iter_preorder()
        .filter(|&n| {
            n != target1
                && run.nav.results_count(n) >= 2
                && run.nav.nav_depth(n) >= 2
                && top_of(&run.nav, n) != t1_top
        })
        .max_by_key(|&n| run.nav.nav_depth(n))
        .unwrap_or(target1);

    let stat = bionav_core::baseline::simulate_static(&run.nav, &[target1, target2]);
    let bio = simulate_bionav(&run.nav, params, &[target1, target2]);
    let mut t = Table::new(
        "Intro example — reaching two prothymosin concepts",
        &["method", "concepts revealed", "EXPANDs", "total"],
    );
    t.row(vec![
        "static".into(),
        stat.revealed.to_string(),
        stat.expands.to_string(),
        stat.interaction_cost().to_string(),
    ]);
    t.row(vec![
        "BioNav".into(),
        bio.outcome.revealed.to_string(),
        bio.outcome.expands.to_string(),
        bio.outcome.interaction_cost().to_string(),
    ]);
    t.print();
    println!("paper: static 123 concepts / 5 EXPANDs; BioNav 19 concepts / 5 EXPANDs");

    let mut check = ShapeCheck::new("intro");
    check.assert(
        format!(
            "BioNav reveals far fewer concepts ({} vs {})",
            bio.outcome.revealed, stat.revealed
        ),
        bio.outcome.revealed * 2 < stat.revealed,
    );
    check.print();
    check
}

/// Multi-target navigation (extension of the intro's two-concept example):
/// real exploratory sessions chase several research lines. For 1, 2 and 4
/// targets per query — deep, result-carrying concepts spread across
/// different top-level branches — compare complete oracle navigations.
pub fn multi_target(workload: &Workload, params: &CostParams) -> ShapeCheck {
    let mut t = Table::new(
        "Multi-target navigation — mean interaction cost over the workload",
        &["targets", "static", "BioNav", "improvement"],
    );
    let mut check = ShapeCheck::new("multi");
    for &k in &[1usize, 2, 4] {
        let mut stat_total = 0usize;
        let mut bio_total = 0usize;
        for q in &workload.queries {
            let run = workload.run_query(&q.spec.name);
            let targets = pick_targets(&run.nav, run.target, k);
            stat_total +=
                bionav_core::baseline::simulate_static(&run.nav, &targets).interaction_cost();
            bio_total += simulate_bionav(&run.nav, params, &targets)
                .outcome
                .interaction_cost();
        }
        let imp = 1.0 - bio_total as f64 / stat_total.max(1) as f64;
        t.row(vec![
            k.to_string(),
            stat_total.to_string(),
            bio_total.to_string(),
            format!("{:.0}%", imp * 100.0),
        ]);
        check.assert(
            format!(
                "{k} target(s): BioNav keeps a ≥40% aggregate improvement ({:.0}%)",
                imp * 100.0
            ),
            imp >= 0.4,
        );
    }
    t.print();
    check.print();
    check
}

/// Deterministically picks `k` targets: the pinned workload target plus the
/// deepest result-carrying nodes from *distinct* top-level branches.
fn pick_targets(nav: &NavigationTree, pinned: NavNodeId, k: usize) -> Vec<NavNodeId> {
    let top_of = |mut n: NavNodeId| {
        while let Some(p) = nav.parent(n) {
            if p == NavNodeId::ROOT {
                break;
            }
            n = p;
        }
        n
    };
    let mut targets = vec![pinned];
    let mut used_tops = vec![top_of(pinned)];
    let mut candidates: Vec<NavNodeId> = nav
        .iter_preorder()
        .filter(|&n| n != pinned && nav.results_count(n) >= 2 && nav.nav_depth(n) >= 2)
        .collect();
    candidates.sort_by_key(|&n| std::cmp::Reverse(nav.nav_depth(n)));
    for c in candidates {
        if targets.len() >= k {
            break;
        }
        let top = top_of(c);
        if !used_tops.contains(&top) {
            used_tops.push(top);
            targets.push(c);
        }
    }
    targets.truncate(k.max(1));
    targets
}

/// Ablation A: heuristic quality against the exact Opt-EdgeCut on small
/// components (the paper could not run Opt-EdgeCut beyond ~30 nodes and
/// never quantified the gap; we do).
pub fn ablation_opt(seed: u64) -> ShapeCheck {
    use bionav_medline::corpus::{self, CorpusConfig};
    use bionav_mesh::synth::{self, SynthConfig};

    let mut ratios: Vec<f64> = Vec::new();
    let mut t = Table::new(
        "Ablation A — heuristic vs optimal expected cost (small components)",
        &[
            "trial",
            "component size",
            "optimal",
            "heuristic-forced",
            "ratio",
        ],
    );
    let mut trial = 0usize;
    for s in 0..40u64 {
        let h = match synth::generate(&SynthConfig::small(seed ^ s, 11)) {
            Ok(h) => h,
            Err(_) => continue,
        };
        let store = corpus::generate(
            &h,
            &CorpusConfig {
                seed: seed ^ s,
                n_citations: 80,
                mean_annotations: 3,
                mean_indexed: 5,
                zipf_s: 0.8,
            },
        );
        let results: Vec<_> = store.iter().map(|c| c.id).collect();
        let nav = NavigationTree::build(&h, &store, &results);
        let comp: Vec<NavNodeId> = nav.iter_preorder().collect();
        if comp.len() < 4 || comp.len() > 16 {
            continue;
        }
        // Exact.
        let params = CostParams {
            max_opt_nodes: 18,
            ..CostParams::default()
        };
        let problem = CutProblem::from_component(&nav, &comp, params.clone());
        let mut solver = problem.solver();
        let optimal = solver.solve_full();
        // Heuristic with a tight partition budget, priced under the exact
        // model via the forced first cut.
        let heur_params = params.clone().with_max_partitions(5);
        let Some(out) = expand_component(&nav, &comp, &heur_params) else {
            continue;
        };
        let lower_units: Vec<usize> = out
            .cut
            .lower_roots()
            .iter()
            .map(|r| {
                comp.iter()
                    .position(|&c| c == *r)
                    .expect("cut inside component")
            })
            .collect();
        let forced = solver.cost_with_first_cut(problem.full_mask(), &lower_units);
        if optimal <= 0.0 {
            continue;
        }
        trial += 1;
        let ratio = forced / optimal;
        ratios.push(ratio);
        t.row(vec![
            trial.to_string(),
            comp.len().to_string(),
            format!("{optimal:.2}"),
            format!("{forced:.2}"),
            format!("{ratio:.3}"),
        ]);
    }
    t.print();
    let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!("mean ratio {mean:.3}, max {max:.3}  (1.0 = optimal)");

    let mut check = ShapeCheck::new("ablation-opt");
    check.assert(
        format!("collected ≥ 8 trials (got {})", ratios.len()),
        ratios.len() >= 8,
    );
    check.assert(
        format!("heuristic within 2× of optimal on average ({mean:.3})"),
        mean <= 2.0,
    );
    check.assert(
        "forced cost never beats the optimum",
        ratios.iter().all(|&r| r >= 0.999),
    );
    check.print();
    check
}

/// Ablation B: sweep the partition budget `k`. Finer reduced trees cost
/// (exponentially) more per EXPAND — the paper fixes k=10 as "the maximum
/// tree size on which Opt-EdgeCut can operate in real-time" — while the
/// goal-directed navigation cost is largely *insensitive* to k (coarse
/// cuts even edge ahead for oracle users, a finding the paper's
/// expected-cost framing does not surface).
pub fn ablation_k(workload: &Workload) -> ShapeCheck {
    let mut t = Table::new(
        "Ablation B — partition budget k",
        &[
            "k",
            "mean improvement",
            "mean expand time",
            "DP prefixes / EXPAND",
        ],
    );
    let mut rows: Vec<(usize, f64, Duration, f64)> = Vec::new();
    for k in [2usize, 3, 4, 6, 8, 10, 12] {
        let params = CostParams::default().with_max_partitions(k);
        let (evals, dp) = crate::evaluate_parallel_counted(workload, &params);
        let mean_imp = evals.iter().map(QueryEval::improvement).sum::<f64>() / evals.len() as f64;
        let mean_time =
            evals.iter().map(|e| e.mean_expand_time()).sum::<Duration>() / evals.len() as u32;
        let expands: usize = evals.iter().map(|e| e.bionav.trace.len()).sum();
        let dp_per_expand = dp as f64 / expands.max(1) as f64;
        rows.push((k, mean_imp, mean_time, dp_per_expand));
        t.row(vec![
            k.to_string(),
            format!("{:.0}%", mean_imp * 100.0),
            format!("{:.2} ms", mean_time.as_secs_f64() * 1e3),
            format!("{dp_per_expand:.1}"),
        ]);
    }
    t.print();
    let mut check = ShapeCheck::new("ablation-k");
    let at = |k: usize| rows.iter().find(|r| r.0 == k).expect("swept");
    // Expansion cost is asserted on the solver's DP work, not on wall
    // clock: two sub-millisecond means swap order on a busy host.
    check.assert(
        format!(
            "expansion work grows with k ({:.1} DP prefixes / EXPAND @k=2 → {:.1} @k=12)",
            at(2).3,
            at(12).3
        ),
        at(12).3 > at(2).3,
    );
    check.assert(
        "every k keeps a ≥50% mean improvement",
        rows.iter().all(|r| r.1 >= 0.5),
    );
    check.assert(
        "k=12 stays interactive (<1s mean)",
        at(12).2 < Duration::from_secs(1),
    );
    check.print();
    check
}

/// Ablation D: the two planners head to head on the full workload (the
/// DESIGN.md modeling note, quantified): the myopic §V objective vs the
/// literal §III recursive expectation, which peels one branch per EXPAND
/// on duplicate-heavy trees.
pub fn ablation_planner(workload: &Workload) -> ShapeCheck {
    use bionav_core::Planner;
    let mut t = Table::new(
        "Ablation D — planner comparison (interaction cost / EXPANDs)",
        &[
            "query",
            "static",
            "myopic §V",
            "expands",
            "recursive §III",
            "expands",
        ],
    );
    let myopic = evaluate(workload, &CostParams::default());
    let recursive = evaluate(
        workload,
        &CostParams {
            planner: Planner::Recursive,
            ..CostParams::default()
        },
    );
    let mut myo_mean = 0.0;
    let mut rec_mean = 0.0;
    for (m, r) in myopic.iter().zip(&recursive) {
        myo_mean += m.improvement();
        rec_mean += r.improvement();
        t.row(vec![
            m.name.clone(),
            m.static_outcome.interaction_cost().to_string(),
            m.bionav.outcome.interaction_cost().to_string(),
            m.bionav.outcome.expands.to_string(),
            r.bionav.outcome.interaction_cost().to_string(),
            r.bionav.outcome.expands.to_string(),
        ]);
    }
    myo_mean /= myopic.len() as f64;
    rec_mean /= recursive.len() as f64;
    t.print();
    println!(
        "mean improvement: myopic {:.0}%, recursive {:.0}%",
        myo_mean * 100.0,
        rec_mean * 100.0
    );
    let mut check = ShapeCheck::new("ablation-planner");
    check.assert(
        format!(
            "the myopic planner dominates for goal-directed users ({:.0}% vs {:.0}%)",
            myo_mean * 100.0,
            rec_mean * 100.0
        ),
        myo_mean >= rec_mean,
    );
    let rec_expands: usize = recursive.iter().map(|e| e.bionav.outcome.expands).sum();
    let myo_expands: usize = myopic.iter().map(|e| e.bionav.outcome.expands).sum();
    check.assert(
        format!("the recursive planner peels (Σ expands {rec_expands} vs {myo_expands})"),
        rec_expands > myo_expands,
    );
    check.print();
    check
}

/// Ablation E: §VI-B plan reuse. Re-expanding a component answered from
/// the retained reduced tree skips partitioning (faster) but works at the
/// original granularity (coarser cuts); this measures both sides.
pub fn ablation_reuse(workload: &Workload) -> ShapeCheck {
    use bionav_core::session::Session;
    let mut t = Table::new(
        "Ablation E — §VI-B plan reuse (session-driven oracle navigation)",
        &[
            "query",
            "fresh cost",
            "fresh EXPANDs",
            "reuse cost",
            "reuse EXPANDs",
        ],
    );
    let mut check = ShapeCheck::new("ablation-reuse");
    let mut both_reached = true;
    let mut costs = (0usize, 0usize);
    for q in &workload.queries {
        let run = workload.run_query(&q.spec.name);
        let mut row = vec![q.spec.name.clone()];
        for reuse in [false, true] {
            let params = CostParams {
                reuse_plans: reuse,
                ..CostParams::default()
            };
            let mut session = Session::new(&run.nav, params);
            let mut guard = 0usize;
            while !session.active().is_visible(run.target) {
                let root = session.active().component_root_of(run.target);
                if session.expand(root).is_err() {
                    both_reached = false;
                    break;
                }
                guard += 1;
                if guard > run.nav.len() {
                    both_reached = false;
                    break;
                }
            }
            let cost = session.cost();
            row.push(cost.interaction_cost().to_string());
            row.push(cost.expands.to_string());
            if reuse {
                costs.1 += cost.interaction_cost();
            } else {
                costs.0 += cost.interaction_cost();
            }
        }
        t.row(row);
    }
    t.print();
    check.assert("every target reached under both modes", both_reached);
    check.assert(
        format!(
            "reuse stays within 2× of fresh partitioning (Σ {} vs {})",
            costs.1, costs.0
        ),
        costs.1 <= 2 * costs.0 + 20,
    );
    check.print();
    check
}

/// Ablation C: the cost-model knobs that control reveal batch sizes.
/// §III notes that charging more per EXPAND makes each expansion reveal
/// more concepts — that is a property of the *recursive* planner (deferring
/// work costs future EXPANDs). The myopic §V planner's symmetric knob is
/// the per-label cost: pricier labels shrink the batch.
pub fn ablation_expandcost(workload: &Workload) -> ShapeCheck {
    use bionav_core::Planner;
    let run = workload.run_query("prothymosin");
    let mut check = ShapeCheck::new("ablation-expandcost");

    let mut t = Table::new(
        "Ablation C1 — EXPAND-cost constant, recursive planner (prothymosin)",
        &["expand cost", "EXPANDs", "revealed", "revealed per EXPAND"],
    );
    let mut rec_rates: Vec<(f64, f64)> = Vec::new();
    for c in [0.25f64, 1.0, 4.0, 16.0, 64.0] {
        let params = CostParams {
            planner: Planner::Recursive,
            expand_cost: c,
            ..CostParams::default()
        };
        let sim = simulate_bionav(&run.nav, &params, &[run.target]);
        let rate = sim.outcome.revealed as f64 / sim.outcome.expands.max(1) as f64;
        rec_rates.push((c, rate));
        t.row(vec![
            format!("{c}"),
            sim.outcome.expands.to_string(),
            sim.outcome.revealed.to_string(),
            format!("{rate:.2}"),
        ]);
    }
    t.print();
    let low = rec_rates.first().expect("swept").1;
    let high = rec_rates.last().expect("swept").1;
    check.assert(
        format!("recursive: higher EXPAND cost reveals more per EXPAND ({low:.2} → {high:.2})"),
        high >= low,
    );

    let mut t = Table::new(
        "Ablation C2 — label cost, myopic planner (prothymosin)",
        &["label cost", "EXPANDs", "revealed", "revealed per EXPAND"],
    );
    let mut myo_rates: Vec<(f64, f64)> = Vec::new();
    for c in [0.1f64, 0.5, 1.0, 2.0, 8.0] {
        let params = CostParams {
            label_cost: c,
            ..CostParams::default()
        };
        let sim = simulate_bionav(&run.nav, &params, &[run.target]);
        let rate = sim.outcome.revealed as f64 / sim.outcome.expands.max(1) as f64;
        myo_rates.push((c, rate));
        t.row(vec![
            format!("{c}"),
            sim.outcome.expands.to_string(),
            sim.outcome.revealed.to_string(),
            format!("{rate:.2}"),
        ]);
    }
    t.print();
    let cheap = myo_rates.first().expect("swept").1;
    let pricey = myo_rates.last().expect("swept").1;
    check.assert(
        format!("myopic: pricier labels shrink the batch ({cheap:.2} → {pricey:.2})"),
        pricey <= cheap,
    );
    check.print();
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_core::sim::{BioNavRun, NavOutcome};
    use bionav_core::stats::{NavTreeStats, TargetStats};
    use bionav_workload::Table1Row;

    /// Hand-built QueryEval: `static_cost` vs `bionav_cost` with the given
    /// expand counts.
    fn eval(name: &str, static_cost: usize, bionav_cost: usize, expands: usize) -> QueryEval {
        let outcome = |revealed: usize, expands: usize| NavOutcome {
            revealed,
            expands,
            results_inspected: 0,
        };
        QueryEval {
            name: name.to_string(),
            table1: Table1Row {
                keywords: name.to_string(),
                tree: NavTreeStats {
                    citations: 10,
                    tree_size: 50,
                    max_width: 5,
                    max_height: 3,
                    citations_with_duplicates: 100,
                },
                target: TargetStats {
                    mesh_level: 3,
                    attached_citations: 2,
                    global_citations: 1000,
                },
                target_label: "t".into(),
            },
            static_outcome: outcome(static_cost.saturating_sub(3), 3),
            paged_outcome: outcome(static_cost.saturating_sub(3), 3),
            bionav: BioNavRun {
                outcome: outcome(bionav_cost.saturating_sub(expands), expands),
                trace: Vec::new(),
            },
        }
    }

    #[test]
    fn fig8_passes_when_bionav_wins_everywhere() {
        let evals: Vec<QueryEval> = (0..10)
            .map(|i| eval(&format!("q{i}"), 100, 20, 4))
            .collect();
        assert!(fig8(&evals).passed());
    }

    #[test]
    fn fig8_fails_when_static_wins() {
        let evals: Vec<QueryEval> = (0..10)
            .map(|i| eval(&format!("q{i}"), 20, 100, 4))
            .collect();
        assert!(!fig8(&evals).passed());
    }

    #[test]
    fn fig9_fails_on_runaway_expand_counts() {
        // BioNav needs 100 expands vs static's 3 on every query: "counts
        // stay comparable" must trip.
        let evals: Vec<QueryEval> = (0..10)
            .map(|i| eval(&format!("q{i}"), 100, 110, 100))
            .collect();
        assert!(!fig9(&evals).passed());
    }

    #[test]
    fn improvement_math() {
        let e = eval("q", 100, 25, 4);
        assert!((e.improvement() - 0.75).abs() < 1e-9);
        let tie = eval("q", 50, 50, 4);
        assert!(tie.improvement().abs() < 1e-9);
    }
}
