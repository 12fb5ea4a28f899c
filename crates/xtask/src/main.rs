//! `cargo xtask` — the BioNav analysis toolchain CLI.
//!
//! Subcommands:
//!
//! * `lint [--json]` — run the custom lint pass over the workspace and exit
//!   non-zero on any finding.
//! * `rules [--json]` — print the machine-readable rule table.
//! * `analyze [--json]` — run the three workspace graph analyses
//!   (lock-order, proto-drift, coverage) and exit non-zero on any finding;
//!   `--json` emits `{findings, matrix}` for the CI artifact.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::analyze::{analyze_files, ANALYSES};
use xtask::{analysis_files, json_escape, scan_workspace, RULES};

fn usage() -> &'static str {
    "usage: cargo xtask <lint|rules|analyze> [--json]\n\
     \n\
     lint    [--json]   scan workspace sources against the project rule table\n\
     rules   [--json]   print the rule table (markdown by default)\n\
     analyze [--json]   run the workspace graph analyses (lock-order,\n\
                        proto-drift, coverage) and emit the coverage matrix"
}

/// The workspace root: this file lives at `crates/xtask/src/main.rs`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn cmd_lint(json: bool) -> ExitCode {
    let root = workspace_root();
    let mut findings = match scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    if json {
        let mut out = String::from("[");
        for (i, f) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.path),
                f.line,
                json_escape(f.rule),
                json_escape(&f.message)
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("xtask lint: clean ({} rules)", RULES.len());
        } else {
            eprintln!("xtask lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_rules(json: bool) {
    if json {
        let mut out = String::from("[");
        for (i, r) in RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"summary\":\"{}\",\"scope\":\"{}\",\"rationale\":\"{}\"}}",
                json_escape(r.id),
                json_escape(r.summary),
                json_escape(r.scope),
                json_escape(r.rationale)
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        println!("| rule | scope | summary |");
        println!("|------|-------|---------|");
        for r in RULES.iter() {
            println!("| `{}` | {} | {} |", r.id, r.scope, r.summary);
        }
        println!();
        for r in RULES.iter() {
            println!("### `{}`\n\n{}\n", r.id, r.rationale);
        }
    }
}

fn cmd_analyze(json: bool) -> ExitCode {
    let root = workspace_root();
    let files = match analysis_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask analyze: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = analyze_files(&files);
    if json {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in report.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.path),
                f.line,
                json_escape(f.rule),
                json_escape(&f.message)
            ));
        }
        out.push_str("],\"matrix\":");
        out.push_str(&report.matrix.to_json());
        out.push('}');
        println!("{out}");
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        if report.findings.is_empty() {
            let variants: usize = report
                .matrix
                .families
                .iter()
                .map(|fam| fam.rows.len())
                .sum();
            println!(
                "xtask analyze: clean ({} analyses, {} files, {variants} variants covered)",
                ANALYSES.len(),
                files.len()
            );
        } else {
            eprintln!("xtask analyze: {} finding(s)", report.findings.len());
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(json),
        Some("analyze") => cmd_analyze(json),
        Some("rules") => {
            cmd_rules(json);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
