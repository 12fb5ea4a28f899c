//! # xtask — the BioNav analysis toolchain's custom lint pass
//!
//! A small hand-rolled Rust scanner (no rustc plumbing, no external deps)
//! enforcing project rules that `clippy -D warnings` cannot express —
//! contracts introduced by the concurrent serving work (DESIGN.md §5d).
//! The contracts rustc and clippy can check (no unsafe, no unwrap in
//! library code, one clock, one unwind boundary) live in the workspace
//! lint table and `clippy.toml` instead.
//!
//! * [`rules::RULES`] is the machine-readable rule table (`cargo xtask
//!   rules --json`).
//! * [`rules::scan_source`] lints one file (used by the fixture tests with
//!   virtual paths), [`scan_workspace`] walks `src/` and `crates/*/src/`.
//!
//! Violations are suppressed with an explicit, *reasoned* annotation:
//!
//! ```text
//! // lint: allow(lock-across-solve) — per-session lock: one navigator per session
//! ```
//!
//! An annotation covers its own line and the next code line (a multi-line
//! reason comment is spanned). A reason after an em dash / hyphen / colon
//! is mandatory — reasonless annotations are ignored and the violation
//! fires.
//!
//! The scanner lexes real Rust line-by-line (nested block comments, string
//! and char literals, raw strings, lifetime-vs-char disambiguation), so
//! patterns inside strings, comments, or doc text never trigger rules, and
//! `#[cfg(test)]` regions are tracked by brace depth and skipped.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod analyze;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod tokens;

use std::path::{Path, PathBuf};

pub use rules::{scan_source, Finding, Rule, RULES};

/// Recursively collect `.rs` files under `dir` (sorted for determinism).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every first-party source file in the workspace rooted at `root`:
/// the root package's `src/` plus each `crates/*/src/`. Vendored stand-ins
/// under `vendor/` are third-party API shims and are out of scope.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    rs_files(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            rs_files(&member.join("src"), &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(rules::scan_source(&rel, &src));
    }
    Ok(findings)
}

/// Loads every first-party source the `analyze` passes read: the root
/// package's `src/`, each `crates/*/src/`, **and** each `crates/*/tests/`
/// (the analyses cross-reference test coverage, which the lint walk does
/// not). Returns `(workspace-relative path, source)` pairs, sorted.
pub fn analysis_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    rs_files(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            rs_files(&member.join("src"), &mut files)?;
            rs_files(&member.join("tests"), &mut files)?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    Ok(out)
}

/// Minimal JSON string escaping for the `--json` outputs.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
