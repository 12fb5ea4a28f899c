//! `navbench`: the BioNav serving benchmark.
//!
//! ```text
//! navbench --workload NAME --seed N --seconds S --trace 0|1 [--bionav PATH] [--out-dir DIR]
//! ```
//!
//! Runs one workload against the program's public API and prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`)
//! by name and unit, then one JSON result object as the last line of
//! standard output. Exits 1 when any served output differs from its
//! sequential reference, 2 on bad arguments. See `README.md` beside this
//! crate for the workloads and the metric map.

mod inproc;
mod layers;
mod oracle;
mod report;
mod spans;
mod stats;
mod universe;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use bionav_core::trace::now_ns;
use report::Report;

/// Workload scale of every tier: the paper's full dataset.
pub const SCALE: f64 = 1.0;
/// Shards of every tier, as `bionav serve --shards 2`.
pub const SHARDS: usize = 2;
/// Tree-cache slots per shard, as `bionav serve`.
pub const CACHE_SLOTS: usize = 8;
/// Full set-ups timed per untraced run: `SETUP_BEFORE` before the measured
/// window (the last of them is the one measured) and `SETUP_AFTER` after
/// it. `setup_s` is their median, so it samples the host's speed at both
/// ends of the run rather than only at its start.
pub const SETUP_BEFORE: usize = 2;
pub const SETUP_AFTER: usize = 2;
/// A seed kept out of development, for confirming a claimed change.
pub const HOLDOUT_SEED: u64 = 90_001;

/// Runs `set_up` `n` (at least 1) times, dropping each result before
/// making the next; returns the last with the seconds each one took.
pub fn timed_setups<S>(
    n: usize,
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut kept = None;
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t0 = now_ns();
        kept = Some(set_up()?);
        secs.push((now_ns() - t0) as f64 / 1e9);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// The set-ups after the measured window, and the `setup_s` metric over
/// all of them. The measured set-up must be dropped before this is called.
pub fn finish_setups<S>(
    report: &mut Report,
    mut secs: Vec<f64>,
    set_up: impl FnMut() -> Result<S, String>,
) {
    match timed_setups(SETUP_AFTER, set_up) {
        Ok((last, after)) => {
            drop(last);
            secs.extend(after);
        }
        Err(e) => report.problem(format!("set-up after the run: {e}")),
    }
    report.prov("setup_s_each", format!("{secs:.3?}"));
    report.counted("setup_s", stats::median(&secs), "s", secs.len());
}

/// The parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `bionav` binary the wire workload serves from.
    pub bionav: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<RunArgs, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 0,
        trace: false,
        bionav: PathBuf::from(".bench_build/release/bionav"),
        out_dir: PathBuf::from(".bench_build/navbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            "--bionav" => args.bionav = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds is required (BENCHMARK.json's run_seconds)".into());
    }
    Ok(args)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured: `.git/HEAD` resolved when the working
/// directory is a git checkout, else `"none"`.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or("none".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a digest of every file under `crates/`, in path order: identifies
/// the measured source even where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("navbench: {e}");
            eprintln!("usage: navbench --workload cold_explore|wire_openloop --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "cold_explore" => inproc::run(&args),
        "wire_openloop" => wire::run(&args),
        other => {
            eprintln!("navbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.prov("workload", &args.workload);
    report.prov("seed", args.seed);
    report.prov("holdout_seed", HOLDOUT_SEED);
    report.prov("run_seconds", args.seconds);
    // Traced runs report no `setup_s` and skip the set-ups after the run.
    let setups = SETUP_BEFORE + if args.trace { 0 } else { SETUP_AFTER };
    report.prov("setup_reps", setups);
    report.prov("trace", u8::from(args.trace));
    report.prov("scale", SCALE);
    report.prov("shards", SHARDS);
    report.prov("cache_slots_per_shard", CACHE_SLOTS);
    report.prov("nproc", nproc());
    report.prov("git_sha", git_sha());
    report.prov("source_digest", source_digest());
    report.finish();
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use crate::layers::Inputs;
    use crate::stats::{valid_metric_name, Samples};
    use bionav_core::engine::Engine;
    use bionav_core::{CostParams, SharedTree};

    /// The `key` values of one top-level array of `BENCHMARK.json`.
    fn field(section: &str, key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|s| s[..s.find('"').expect("value closes")].to_string())
            .collect()
    }

    fn names(section: &str) -> Vec<String> {
        field(section, "name")
    }

    #[test]
    fn every_declared_name_and_unit_is_legal() {
        for section in ["workloads", "end_to_end", "per_layer"] {
            let names = names(section);
            assert!(!names.is_empty(), "{section}");
            for n in names {
                assert!(valid_metric_name(&n), "{section}: {n:?}");
            }
        }
        let unit_char = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for section in ["end_to_end", "per_layer"] {
            let units = field(section, "unit");
            assert_eq!(units.len(), names(section).len(), "{section}");
            for u in units {
                let ok = (1..=16).contains(&u.len()) && u.chars().all(unit_char);
                assert!(ok, "{section}: unit {u:?}");
            }
        }
    }

    #[test]
    fn the_traced_run_reports_exactly_the_declared_per_layer_metrics() {
        let engine = Engine::new(
            |_: &str| -> Option<SharedTree> { None },
            CostParams::default(),
            1,
        );
        let stats = engine.stats();
        let mut samples = Samples::new();
        for i in 0..1000 {
            samples.push(Some(0), i);
        }
        let mut report = crate::Report::default();
        Inputs {
            query_build_ns: vec![(1, 1); 30],
            tier_builds: 0,
            stats: &stats,
            client_materialize_ns: 0,
            flight: Vec::new(),
            sessions_opened: vec![1, 1],
            frames: Vec::new(),
            rtt: [&samples, &samples, &samples, &samples],
            unattributed: 0.5,
            lag: &samples,
            trace_rates: (1.0, 1.0),
            trace_events: 0,
        }
        .report(&mut report);
        let emitted: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, names("per_layer"));
    }
}
