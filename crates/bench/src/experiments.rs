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
use bionav_core::sim::{simulate_bionav, NavOutcome};
use bionav_core::{CostParams, NavNodeId, NavigationTree};
use bionav_workload::{evaluate, QueryEval, Workload};

use crate::report::{write_json, ShapeCheck, Table};

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
        &["k", "mean improvement", "mean expand time"],
    );
    let mut rows: Vec<(usize, f64, Duration)> = Vec::new();
    for k in [2usize, 3, 4, 6, 8, 10, 12] {
        let params = CostParams::default().with_max_partitions(k);
        let evals = crate::evaluate_parallel(workload, &params);
        let mean_imp = evals.iter().map(QueryEval::improvement).sum::<f64>() / evals.len() as f64;
        let mean_time =
            evals.iter().map(|e| e.mean_expand_time()).sum::<Duration>() / evals.len() as u32;
        rows.push((k, mean_imp, mean_time));
        t.row(vec![
            k.to_string(),
            format!("{:.0}%", mean_imp * 100.0),
            format!("{:.2} ms", mean_time.as_secs_f64() * 1e3),
        ]);
    }
    t.print();
    let mut check = ShapeCheck::new("ablation-k");
    let at = |k: usize| rows.iter().find(|r| r.0 == k).expect("swept");
    check.assert(
        format!(
            "expansion time grows with k ({:.2} ms @k=2 → {:.2} ms @k=12)",
            at(2).2.as_secs_f64() * 1e3,
            at(12).2.as_secs_f64() * 1e3
        ),
        at(12).2 > at(2).2,
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

// ---------------------------------------------------------------------------
// Open-loop overload bench
// ---------------------------------------------------------------------------

/// One query's sequential reference cost, the anchor every served replay
/// of its oracle script is compared against.
struct ServeQueryRow {
    /// EXPANDs in the oracle navigation script.
    expands: usize,
    /// §III interaction cost of one replay.
    interaction_cost: usize,
    /// Full cost including SHOWRESULTS.
    total_cost: usize,
}

impl ServeQueryRow {
    /// Whether a served replay's cost is bit-identical to this sequential
    /// reference.
    fn matches(&self, cost: &NavOutcome) -> bool {
        cost.expands == self.expands
            && cost.interaction_cost() == self.interaction_cost
            && cost.total_cost() == self.total_cost
    }
}

/// The open-loop bench's tree builder: the workload's ESearch stand-in, then
/// a [`NavigationTree`] over the hits (`None` when there are none).
fn tree_builder(
    workload: &Workload,
) -> impl Fn(&str) -> Option<bionav_core::SharedTree> + Send + Sync + '_ {
    |query| {
        let outcome = workload.index.query(query);
        (!outcome.citations.is_empty()).then(|| {
            std::sync::Arc::new(NavigationTree::build(
                &workload.hierarchy,
                &workload.store,
                &outcome.citations,
            ))
        })
    }
}

/// Sequential reference pass for the open-loop bench: each query's
/// oracle TOPDOWN script (expand the component covering the target until
/// the target is visible, then SHOWRESULTS) plus its single-threaded cost
/// — the bit-identical anchor every concurrent replay is checked against.
fn oracle_scripts(
    workload: &Workload,
    params: &CostParams,
) -> (
    Vec<(String, Vec<bionav_core::engine::ScriptOp>)>,
    Vec<ServeQueryRow>,
) {
    use bionav_core::engine::ScriptOp;
    use bionav_core::session::Session;

    let mut scripts: Vec<(String, Vec<ScriptOp>)> = Vec::new();
    let mut reference: Vec<ServeQueryRow> = Vec::new();
    for q in &workload.queries {
        let run = workload.run_query(&q.spec.name);
        let mut session = Session::new(&run.nav, params.clone());
        let mut script = Vec::new();
        let mut guard = 0usize;
        while !session.active().is_visible(run.target) {
            let root = session.active().component_root_of(run.target);
            session
                .expand(root)
                .expect("component covering a hidden target is expandable");
            script.push(ScriptOp::Expand(root));
            guard += 1;
            assert!(guard <= run.nav.len(), "oracle navigation must terminate");
        }
        session
            .show_results(run.target)
            .expect("visible targets can SHOWRESULTS");
        script.push(ScriptOp::ShowResults(run.target));
        reference.push(ServeQueryRow {
            expands: session.cost().expands,
            interaction_cost: session.cost().interaction_cost(),
            total_cost: session.cost().total_cost(),
        });
        scripts.push((q.spec.keywords.clone(), script));
    }
    (scripts, reference)
}

/// Shards the open-loop tier runs with: enough to exercise the per-shard
/// admission controllers without splitting CI's modest core budget thin.
const OPENLOOP_SHARDS: usize = 2;

/// Sessions each sweep rung aims to offer (sets the rung duration).
const OPENLOOP_SESSIONS_PER_RUNG: f64 = 400.0;

/// Rate-ladder rungs before the knee search gives up.
const OPENLOOP_MAX_RUNGS: usize = 6;

/// One rung of the open-loop sweep (`BENCH_openloop.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OpenLoopRungRow {
    /// Which admission gate served the rung: `"static"` or `"adaptive"`.
    pub gate: String,
    /// Offered Poisson arrival rate, sessions/sec.
    pub rate_per_sec: f64,
    /// Sessions the schedule offered.
    pub offered: usize,
    /// Sessions served to first paint (open + first EXPAND).
    pub served: usize,
    /// Sessions the tier shed (admission, deadline, or breaker).
    pub shed: usize,
    /// Coordinated-omission-safe first-paint p99 (µs) over served
    /// sessions, measured from each session's *intended* arrival.
    pub served_p99_us: u64,
    /// Engine-side EXPAND p99 (µs) for the rung window — what the AIMD
    /// controller actually watches (service + lock waits, no driver
    /// queueing).
    pub engine_expand_p99_us: f64,
    /// Engine-side typed shed counters for the rung window.
    pub shed_expands: u64,
    /// Requests rejected with an expired end-to-end deadline.
    pub deadline_rejects: u64,
    /// Sum of per-shard AIMD admission limits when the rung closed.
    pub admission_limit: u64,
}

/// `BENCH_openloop.json`: run provenance, the calibration, the sweep, and
/// the knee / adaptive-rung summary the shape checks read.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)] // field names are the wire format; the row docs cover them
pub struct OpenLoopReport {
    pub scale: f64,
    pub host_cores: usize,
    pub workers: usize,
    pub shards: usize,
    pub calibrated_session_us: f64,
    pub capacity_est_per_sec: f64,
    pub admission_target_us: f64,
    pub rungs: Vec<OpenLoopRungRow>,
    pub openloop_slo_target_us: f64,
    pub openloop_knee_rate_per_sec: f64,
    pub openloop_adaptive_rate_per_sec: f64,
    pub openloop_adaptive_p99_us: f64,
    pub openloop_adaptive_served: f64,
    pub openloop_adaptive_shed_fraction: f64,
}

/// Replays one open-loop schedule against the tier: `workers` threads pull
/// sessions in intended-arrival order, sleep until each session's intended
/// instant (never earlier — but a late pickup is *not* excused: latency is
/// measured from the intended instant either way, which is what makes the
/// recording coordinated-omission-safe), then walk the session's Markov
/// steps. First paint is the completion of the opening EXPAND; a typed
/// rejection (admission, deadline, breaker) anywhere on the way there
/// marks the session shed.
fn drive_open_loop<B>(
    tier: &bionav_core::ShardedEngine<B>,
    plans: &[bionav_workload::SessionPlan],
    workers: usize,
    deadline_budget_ns: u64,
) -> Vec<bionav_workload::SessionOutcome>
where
    B: Fn(&str) -> Option<bionav_core::SharedTree> + Send + Sync,
{
    use bionav_core::trace::flightrec::{self, RequestCtx, Verb};
    use bionav_core::trace::now_ns;
    use bionav_workload::{SessionOp, SessionOutcome};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let t0 = now_ns();
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<SessionOutcome>>> = Mutex::new(vec![None; plans.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            #[expect(
                clippy::unwrap_used,
                reason = "driver thread; poisoning aborts the bench loudly"
            )]
            scope.spawn(|| loop {
                // Relaxed: the counter is the only shared state the claim
                // touches; plan payloads are read-only behind the scope.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(plan) = plans.get(i) else { break };
                let intended = t0 + plan.intended_start_ns;
                loop {
                    let now = now_ns();
                    if now >= intended {
                        break;
                    }
                    let wait = (intended - now).min(2_000_000);
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                let deadline_ns = if deadline_budget_ns == 0 {
                    0
                } else {
                    intended + deadline_budget_ns
                };
                let ctx = || RequestCtx {
                    request_id: flightrec::mint_request_id(),
                    session: None,
                    deadline_ns,
                };

                let mut shed = false;
                let mut first_paint = None;
                let opened = {
                    let _scope = flightrec::request_scope(ctx(), Verb::Open);
                    tier.open_session(&plan.query)
                };
                match opened {
                    Err(_) => shed = true,
                    Ok(id) => {
                        let mut frontier = vec![NavNodeId::ROOT];
                        let mut last_revealed: Option<NavNodeId> = None;
                        'steps: for (si, step) in plan.steps.iter().enumerate() {
                            if step.think_ns > 0 {
                                std::thread::sleep(Duration::from_nanos(step.think_ns));
                            }
                            match step.op {
                                SessionOp::Expand => {
                                    let mut attempts = 0;
                                    while let Some(node) = frontier.pop() {
                                        attempts += 1;
                                        let reply = {
                                            let _scope =
                                                flightrec::request_scope(ctx(), Verb::Expand);
                                            tier.expand(id, node)
                                        };
                                        match reply {
                                            Ok(r) => {
                                                last_revealed = r.revealed.first().copied();
                                                frontier.extend(r.revealed.iter().rev());
                                                break;
                                            }
                                            // A leaf or singleton component:
                                            // try the next frontier node.
                                            Err(bionav_core::EngineError::Cut(_))
                                                if attempts < 8 => {}
                                            Err(_) => {
                                                if si == 0 {
                                                    shed = true;
                                                }
                                                if si == 0 {
                                                    first_paint = Some(now_ns());
                                                }
                                                break 'steps;
                                            }
                                        }
                                    }
                                    if si == 0 {
                                        first_paint = Some(now_ns());
                                    }
                                }
                                SessionOp::Explore => {
                                    if let Some(node) = last_revealed {
                                        let _ = tier.with_session(id, |s| s.show_results(node));
                                    }
                                }
                            }
                        }
                        let _ = tier.close_session(id);
                    }
                }
                let done_ns = first_paint
                    .unwrap_or_else(now_ns)
                    .saturating_sub(t0)
                    .max(plan.intended_start_ns);
                outcomes.lock().unwrap()[i] = Some(SessionOutcome {
                    intended_ns: plan.intended_start_ns,
                    done_ns,
                    shed,
                });
            });
        }
    });
    #[expect(
        clippy::unwrap_used,
        reason = "every slot was filled by the claiming worker"
    )]
    outcomes
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every planned session produced an outcome"))
        .collect()
}

/// The open-loop overload bench (DESIGN.md §5k): sweep Poisson arrival
/// rates against a [`bionav_core::ShardedEngine`] tier under the PR-7
/// *static* in-flight cap until its coordinated-omission-safe first-paint
/// p99 blows the `open` SLO — the **knee** — then rerun at ≥ 1.5× the knee
/// with the *adaptive* plane on (AIMD admission + end-to-end deadlines)
/// and require the served p99 to stay inside the SLO, with the overflow
/// shed as typed rejections instead of served late. Sub-knee correctness:
/// both gate configurations replay the Table I oracle scripts with
/// bit-identical per-query costs.
pub fn serve_openloop(
    workload: &Workload,
    scale: f64,
    params: &CostParams,
    workers: usize,
    out: Option<&std::path::Path>,
) -> ShapeCheck {
    use bionav_core::engine::Engine;
    use bionav_core::trace::now_ns;
    use bionav_core::{DegradePolicy, ShardedEngine, SloVerb};
    use bionav_workload::{served_p99_us, shed_fraction, OpenLoopConfig};

    let mut check = ShapeCheck::new("serve-openloop");
    let slo_target_ns = bionav_core::slo::slo_for(SloVerb::Open).target_p99_ns;
    let slo_target_us = slo_target_ns as f64 / 1_000.0;

    let make_tier = |policy: DegradePolicy| {
        ShardedEngine::new(OPENLOOP_SHARDS, |_| {
            Engine::new(
                tree_builder(workload),
                params.clone(),
                workload.queries.len().max(1),
            )
            .with_policy(policy)
        })
    };
    let static_policy = DegradePolicy::default();

    // Warm each tier (every query's tree cached) so the sweep measures
    // solver work, not cold builds.
    let warm = |tier: &ShardedEngine<_>| {
        for q in &workload.queries {
            if let Ok(id) = tier.open_session(&q.spec.keywords) {
                let _ = tier.close_session(id);
            }
        }
        tier.reset_stats();
    };
    let tier_static = make_tier(static_policy);
    warm(&tier_static);

    // Calibrate: sequential first-paint-to-close service time on the warm
    // static tier seeds the rate ladder (the ladder crossing, not this
    // estimate, decides the knee).
    let base_cfg = OpenLoopConfig {
        seed: 0x09_1CDE,
        arrival_rate_per_sec: 1.0, // overwritten per rung
        duration_ns: 0,            // overwritten per rung
        zipf_s: 1.0,
        expand_continue: 0.6,
        explore_bias: 0.3,
        think_mean_ns: 1_000_000,
    };
    // The generator emits Table I query *names*; the serving index is keyed
    // by the spec *keywords* (case and spacing differ for some queries), so
    // translate every plan before driving — a missed lookup would
    // masquerade as a shed session and pollute the overload counts.
    let keywords_of: std::collections::HashMap<String, String> = workload
        .queries
        .iter()
        .map(|q| (q.spec.name.clone(), q.spec.keywords.clone()))
        .collect();
    let translate = |mut plans: Vec<bionav_workload::SessionPlan>| {
        for p in &mut plans {
            if let Some(kw) = keywords_of.get(&p.query) {
                p.query = kw.clone();
            }
        }
        plans
    };
    let cal_plans = translate(bionav_workload::openloop::generate(&OpenLoopConfig {
        arrival_rate_per_sec: 50.0,
        duration_ns: 600_000_000,
        think_mean_ns: 0,
        ..base_cfg.clone()
    }));
    let cal_n = cal_plans.len().clamp(1, 30);
    let cal_t0 = now_ns();
    for plan in cal_plans.iter().take(cal_n) {
        if let Ok(id) = tier_static.open_session(&plan.query) {
            let mut frontier = vec![NavNodeId::ROOT];
            for step in &plan.steps {
                if step.op == bionav_workload::SessionOp::Expand {
                    if let Some(node) = frontier.pop() {
                        if let Ok(r) = tier_static.expand(id, node) {
                            frontier.extend(r.revealed.iter().rev());
                        }
                    }
                }
            }
            let _ = tier_static.close_session(id);
        }
    }
    let mean_session_ns = (now_ns().saturating_sub(cal_t0) / cal_n as u64).max(1);
    let cores = crate::host_cores();
    // Conservative: assume half the cores do useful solver work (the rest
    // lose to shard/session lock contention), so the first rung sits
    // comfortably below the true knee.
    let capacity = (cores.max(2) / 2) as f64 * 1e9 / mean_session_ns as f64;
    tier_static.reset_stats();

    // The adaptive tier targets the gradient-controller way: unloaded
    // baseline × a tolerance factor, from *this* machine's calibration,
    // so the AIMD gate reacts to queueing on this deployment rather than
    // to an absolute figure sized for different hardware. Deadlines get
    // 0.8× the SLO budget so an admitted request that completes right at
    // its deadline still lands inside the SLO.
    let admission_target_ns = (mean_session_ns * 2).max(100_000);
    let deadline_budget_ns = slo_target_ns / 10 * 8;
    let adaptive_policy = DegradePolicy {
        adaptive_admission: true,
        admission_target_ns,
        ..DegradePolicy::default()
    };
    let tier_adaptive = make_tier(adaptive_policy);
    warm(&tier_adaptive);
    println!(
        "open-loop calibration: {:.1} µs/session sequential, capacity estimate {:.0} sessions/sec ({} cores, {} drivers), AIMD target {:.0} µs",
        mean_session_ns as f64 / 1e3,
        capacity,
        cores,
        workers,
        admission_target_ns as f64 / 1e3,
    );

    let run_rung = |tier: &ShardedEngine<_>,
                    gate: &str,
                    rate: f64,
                    deadline_budget_ns: u64|
     -> (OpenLoopRungRow, Vec<bionav_workload::SessionOutcome>) {
        let duration_ns = ((OPENLOOP_SESSIONS_PER_RUNG / rate) * 1e9)
            .clamp(400_000_000.0, 2_000_000_000.0) as u64;
        let plans = translate(bionav_workload::openloop::generate(&OpenLoopConfig {
            seed: base_cfg.seed ^ rate.to_bits(),
            arrival_rate_per_sec: rate,
            duration_ns,
            ..base_cfg.clone()
        }));
        tier.reset_stats();
        let outcomes = drive_open_loop(tier, &plans, workers, deadline_budget_ns);
        let stats = tier.stats();
        let shed = outcomes.iter().filter(|o| o.shed).count();
        let row = OpenLoopRungRow {
            gate: gate.to_string(),
            rate_per_sec: rate,
            offered: outcomes.len(),
            served: outcomes.len() - shed,
            shed,
            served_p99_us: served_p99_us(&outcomes).unwrap_or(u64::MAX),
            engine_expand_p99_us: stats.expand_p99_us,
            shed_expands: stats.shed_expands,
            deadline_rejects: stats.deadline_rejects,
            admission_limit: stats.admission_limit,
        };
        println!(
            "  rung {gate:>8} @ {rate:7.0}/s: offered {:4}, served {:4}, shed {:4}, served p99 {} µs (target {:.0})",
            row.offered, row.served, row.shed, row.served_p99_us, slo_target_us,
        );
        (row, outcomes)
    };

    // Knee search: double the offered rate under the static cap until the
    // served first-paint p99 leaves the SLO.
    println!("open-loop sweep (static cap, no deadlines):");
    let mut rungs: Vec<OpenLoopRungRow> = Vec::new();
    let mut rate = (capacity * 0.5).max(20.0);
    let mut knee = None;
    let mut sub_knee_ok = false;
    for rung in 0..OPENLOOP_MAX_RUNGS {
        let (row, _) = run_rung(&tier_static, "static", rate, 0);
        let violated = row.served_p99_us as f64 > slo_target_us;
        if rung == 0 {
            sub_knee_ok = !violated;
        }
        rungs.push(row);
        if violated {
            knee = Some(rate);
            break;
        }
        rate *= 2.0;
    }
    let knee_rate = knee.unwrap_or(rate / 2.0);

    // Adaptive plane at 1.5× the knee: AIMD admission + per-session
    // deadlines one SLO target past the intended arrival.
    let adaptive_rate = knee_rate * 1.5;
    println!("open-loop rerun (adaptive admission + deadlines):");
    let (adaptive_row, adaptive_outcomes) = run_rung(
        &tier_adaptive,
        "adaptive",
        adaptive_rate,
        deadline_budget_ns,
    );
    let adaptive_stats = tier_adaptive.stats();
    rungs.push(adaptive_row.clone());

    let mut t = Table::new(
        format!("Open-loop sweep — {OPENLOOP_SHARDS} shards, {workers} driver threads"),
        &[
            "gate",
            "rate/s",
            "offered",
            "served",
            "shed",
            "p99 (µs)",
            "eng p99",
            "ddl",
            "adm limit",
        ],
    );
    for r in &rungs {
        t.row(vec![
            r.gate.clone(),
            format!("{:.0}", r.rate_per_sec),
            r.offered.to_string(),
            r.served.to_string(),
            r.shed.to_string(),
            r.served_p99_us.to_string(),
            format!("{:.0}", r.engine_expand_p99_us),
            r.deadline_rejects.to_string(),
            r.admission_limit.to_string(),
        ]);
    }
    t.print();

    check.assert(
        format!(
            "calibration measured a service time ({:.1} µs/session)",
            mean_session_ns as f64 / 1e3
        ),
        mean_session_ns > 0 && cal_n >= 10,
    );
    check.assert(
        format!("the first static rung sits below the knee (p99 ≤ {slo_target_us:.0} µs)"),
        sub_knee_ok,
    );
    check.assert(
        format!(
            "the rate ladder crossed the static-cap knee (knee {:.0}/s{})",
            knee_rate,
            if knee.is_some() { "" } else { " NOT FOUND" }
        ),
        knee.is_some(),
    );
    check.assert(
        format!(
            "the overload plane as a whole (AIMD gate + deadline rejects) holds served p99 inside the SLO at 1.5× the knee ({} µs ≤ {:.0} µs @ {:.0}/s)",
            adaptive_row.served_p99_us, slo_target_us, adaptive_rate
        ),
        (adaptive_row.served_p99_us as f64) <= slo_target_us,
    );
    check.assert(
        format!(
            "adaptive gate still serves real traffic past the knee ({} served)",
            adaptive_row.served
        ),
        adaptive_row.served >= 50,
    );
    check.assert(
        format!(
            "overflow is shed with typed reasons ({} sessions, {} queue, {} deadline)",
            adaptive_row.shed, adaptive_row.shed_expands, adaptive_row.deadline_rejects
        ),
        adaptive_row.shed > 0 && adaptive_row.shed_expands + adaptive_row.deadline_rejects > 0,
    );
    check.assert(
        format!(
            "the AIMD controller pulled the limit below the static cap (Σ {} < Σ {})",
            adaptive_stats.admission_limit,
            (static_policy.max_inflight_expands * OPENLOOP_SHARDS) as u64
        ),
        adaptive_stats.admission_limit
            < (static_policy.max_inflight_expands * OPENLOOP_SHARDS) as u64,
    );

    // Sub-knee correctness: the overload plane must be invisible to the
    // planner. Fresh tiers under both gate configurations replay the
    // Table I oracle scripts sequentially; every per-query cost triplet
    // must be bit-identical to the single-threaded reference.
    let (scripts, reference) = oracle_scripts(workload, params);
    let mut identical = true;
    for policy in [static_policy, adaptive_policy] {
        let tier = make_tier(policy);
        for ((query, script), expected) in scripts.iter().zip(&reference) {
            identical &= tier
                .run_script(query, script)
                .is_ok_and(|o| expected.matches(&o.cost));
        }
    }
    check.assert(
        "sub-knee oracle costs are bit-identical under both gates",
        identical,
    );

    if let Some(path) = out {
        let report = OpenLoopReport {
            scale,
            host_cores: cores,
            workers,
            shards: OPENLOOP_SHARDS,
            calibrated_session_us: mean_session_ns as f64 / 1e3,
            capacity_est_per_sec: capacity,
            admission_target_us: admission_target_ns as f64 / 1e3,
            openloop_slo_target_us: slo_target_us,
            openloop_knee_rate_per_sec: knee_rate,
            openloop_adaptive_rate_per_sec: adaptive_rate,
            openloop_adaptive_p99_us: adaptive_row.served_p99_us as f64,
            openloop_adaptive_served: adaptive_row.served as f64,
            openloop_adaptive_shed_fraction: shed_fraction(&adaptive_outcomes),
            rungs,
        };
        write_json(path, &report);
    }

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
