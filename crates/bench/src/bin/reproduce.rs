//! Regenerates the BioNav evaluation: every table and figure of §VIII plus
//! the DESIGN.md ablations, with shape checks.
//!
//! ```text
//! reproduce [EXPERIMENT] [--scale S] [--k K]
//!
//! EXPERIMENT: all (default) | table1 | fig8 | fig9 | fig10 | fig11 | intro | multi |
//!             serve-openloop | ablation-opt | ablation-k | ablation-expandcost |
//!             ablation-planner | ablation-reuse
//! --scale S:  workload scale, 0 < S ≤ 1 (default 1.0 = paper scale)
//! --k K:      Heuristic-ReducedOpt partition budget (default 10)
//! --crawled:  derive associations through the §VII crawl (deployed path)
//! --workers W: serve-openloop driver threads (default: 4 × available
//!             parallelism, clamped to 8..=64)
//! --out PATH: where serve-openloop writes its JSON (default BENCH_openloop.json)
//!
//! `serve-openloop` (the Poisson overload sweep that finds the static-cap
//! knee and proves the adaptive admission plane holds the SLO past it) is
//! *not* included in `all`: it replays the serving workload many times
//! over, which would dominate the cheap CI pass. CI runs it in its own
//! step, where its shape checks are the gate. The serving path as a whole
//! is measured by the repo benchmark, `navbench/`.
//! ```
//!
//! Exits non-zero when any shape check fails, so CI can gate on the
//! reproduction staying faithful.

use std::process::ExitCode;

use bionav_bench::experiments;
use bionav_core::CostParams;

struct Args {
    experiment: String,
    scale: f64,
    k: usize,
    crawled: bool,
    workers: Option<usize>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = "all".to_string();
    let mut scale = 1.0f64;
    let mut k = 10usize;
    let mut crawled = false;
    let mut workers = None;
    let mut out = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = argv
                    .get(i)
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--k" => {
                i += 1;
                k = argv
                    .get(i)
                    .ok_or("--k needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --k: {e}"))?;
            }
            "--crawled" => crawled = true,
            "--workers" => {
                i += 1;
                let w: usize = argv
                    .get(i)
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if w == 0 {
                    return Err("--workers must be at least 1".into());
                }
                workers = Some(w);
            }
            "--out" => {
                i += 1;
                out = Some(argv.get(i).ok_or("--out needs a path")?.clone());
            }
            "--help" | "-h" => return Err("help".into()),
            name if !name.starts_with('-') => experiment = name.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(Args {
        experiment,
        scale,
        k,
        crawled,
        workers,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: reproduce [all|table1|fig8|fig9|fig10|fig11|intro|multi|serve-openloop|ablation-opt|ablation-k|ablation-expandcost|ablation-planner|ablation-reuse] [--scale S] [--k K] [--crawled] [--workers W] [--out PATH]"
            );
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    let params = CostParams::default().with_max_partitions(args.k);

    // ablation-opt builds its own micro-instances; everything else needs
    // the workload.
    let needs_workload = args.experiment != "ablation-opt";
    let workload = if needs_workload {
        let t0 = bionav_core::trace::now_ns();
        let w = bionav_bench::build_workload_with(args.scale, args.crawled);
        println!(
            "workload: scale {:.2}{}, hierarchy {} nodes, {} citations, built in {:.1}s",
            args.scale,
            if args.crawled {
                " (crawled associations)"
            } else {
                ""
            },
            w.hierarchy.len(),
            w.store.len(),
            bionav_core::trace::now_ns().saturating_sub(t0) as f64 / 1e9
        );
        Some(w)
    } else {
        None
    };

    // The navigation-cost experiments share one evaluation pass.
    let needs_evals = matches!(args.experiment.as_str(), "all" | "fig8" | "fig9" | "fig10");
    let evals = if needs_evals {
        let w = workload.as_ref().expect("evals need the workload");
        let t0 = bionav_core::trace::now_ns();
        let e = bionav_bench::evaluate_parallel(w, &params);
        println!(
            "evaluation pass: {:.1}s",
            bionav_core::trace::now_ns().saturating_sub(t0) as f64 / 1e9
        );
        Some(e)
    } else {
        None
    };

    let mut checks = Vec::new();
    let run = |name: &str| args.experiment == "all" || args.experiment == name;
    if run("table1") {
        checks.push(experiments::table1(workload.as_ref().unwrap(), &params));
    }
    if run("fig8") {
        checks.push(experiments::fig8(evals.as_ref().unwrap()));
    }
    if run("fig9") {
        checks.push(experiments::fig9(evals.as_ref().unwrap()));
    }
    if run("fig10") {
        checks.push(experiments::fig10(evals.as_ref().unwrap()));
    }
    if run("fig11") {
        checks.push(experiments::fig11(workload.as_ref().unwrap(), &params));
    }
    if run("intro") {
        checks.push(experiments::intro(workload.as_ref().unwrap(), &params));
    }
    if run("multi") {
        checks.push(experiments::multi_target(
            workload.as_ref().unwrap(),
            &params,
        ));
    }
    // Exact name only — see the module docs for why `all` skips it.
    if args.experiment == "serve-openloop" {
        let w = workload.as_ref().unwrap();
        // Driver threads, not solver workers: the open-loop harness needs
        // enough of them that a slow server can't throttle the arrival
        // schedule (that would be the coordinated omission the bench
        // exists to avoid).
        let workers = args
            .workers
            .unwrap_or_else(|| (bionav_bench::host_cores() * 4).clamp(8, 64));
        checks.push(experiments::serve_openloop(
            w,
            args.scale,
            &params,
            workers,
            Some(std::path::Path::new(
                args.out.as_deref().unwrap_or("BENCH_openloop.json"),
            )),
        ));
    }
    if run("ablation-opt") {
        checks.push(experiments::ablation_opt(0xB10));
    }
    if run("ablation-k") {
        checks.push(experiments::ablation_k(workload.as_ref().unwrap()));
    }
    if run("ablation-expandcost") {
        checks.push(experiments::ablation_expandcost(workload.as_ref().unwrap()));
    }
    if run("ablation-planner") {
        checks.push(experiments::ablation_planner(workload.as_ref().unwrap()));
    }
    if run("ablation-reuse") {
        checks.push(experiments::ablation_reuse(workload.as_ref().unwrap()));
    }

    if checks.is_empty() {
        eprintln!("unknown experiment {:?}", args.experiment);
        return ExitCode::from(2);
    }
    let failed: Vec<&str> = checks
        .iter()
        .filter(|c| !c.passed())
        .map(|c| c.experiment.as_str())
        .collect();
    println!();
    if failed.is_empty() {
        println!("all shape checks passed ({} experiments)", checks.len());
        ExitCode::SUCCESS
    } else {
        println!("SHAPE CHECK FAILURES: {failed:?}");
        ExitCode::FAILURE
    }
}
