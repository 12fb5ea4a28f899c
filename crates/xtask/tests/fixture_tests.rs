//! Per-rule fixture tests: each fixture under `fixtures/` is scanned with a
//! virtual workspace-relative path, and the expected findings (and ONLY
//! those) must fire. This is the acceptance test the analysis-toolchain
//! issue requires: the lint pass must fail on each seeded violation and
//! stay silent on the allowlisted/negative twins.

use std::path::{Path, PathBuf};

use xtask::scan_source;

/// Rule ids fired per (line, rule) pair, sorted.
fn hits(path: &str, src: &str) -> Vec<(usize, &'static str)> {
    let mut v: Vec<(usize, &'static str)> = scan_source(path, src)
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect();
    v.sort();
    v
}

fn rules_only(path: &str, src: &str) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = scan_source(path, src).into_iter().map(|f| f.rule).collect();
    v.sort();
    v.dedup();
    v
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

#[test]
fn atomic_ordering_fires_on_implicit_and_uncommented() {
    let src = include_str!("../fixtures/atomic_ordering.rs");
    let hits = hits("crates/core/src/fixture.rs", src);
    assert_eq!(
        hits,
        vec![(6, "atomic-ordering"), (14, "atomic-ordering")],
        "implicit-ordering RMW and uncommented Ordering use must fire; \
         commented and annotated uses must be silent"
    );
}

// ---------------------------------------------------------------------------
// hotpath-no-hashmap
// ---------------------------------------------------------------------------

#[test]
fn hotpath_rule_is_scoped_to_edgecut_and_navtree() {
    let src = include_str!("../fixtures/hotpath.rs");
    let expected = vec![(6, "hotpath-no-hashmap"), (8, "hotpath-no-hashmap")];
    assert_eq!(
        hits("crates/core/src/edgecut/fixture.rs", src),
        expected,
        "HashMap::new and slice .contains(&…) must fire; contains_key and \
         the annotated scan must not"
    );
    assert_eq!(
        hits("crates/core/src/navtree.rs", src),
        expected,
        "the cold-open tree build is under the same budget (and must stay \
         bit-deterministic), so the rule fires there too"
    );
    assert!(
        hits("crates/core/src/session.rs", src).is_empty(),
        "outside the two hot-path regions the same code is fine"
    );
}

#[test]
fn hotpath_rule_ignores_literals_comments_docs_and_test_mods() {
    let src = include_str!("../fixtures/hotpath_exempt.rs");
    assert_eq!(
        hits("crates/core/src/edgecut/fixture.rs", src),
        vec![(20, "hotpath-no-hashmap")],
        "patterns in strings, raw strings, comments, doc text and test mods must be \
         silent, as must a trailing reasoned annotation; a reasonless annotation must \
         not suppress"
    );
}

// ---------------------------------------------------------------------------
// lock-across-solve
// ---------------------------------------------------------------------------

#[test]
fn lock_across_solve_tracks_guards() {
    let src = include_str!("../fixtures/lock_across_solve.rs");
    let hits = hits("crates/core/src/fixture.rs", src);
    assert_eq!(
        hits,
        vec![(5, "lock-across-solve"), (22, "lock-across-solve")],
        "live-guard solve and same-line temporary guard must fire; dropped, \
         annotated, and scope-closed guards must be silent"
    );
}

// ---------------------------------------------------------------------------
// no-cross-shard-lock
// ---------------------------------------------------------------------------

#[test]
fn cross_shard_lock_tracks_guards_in_the_router() {
    let src = include_str!("../fixtures/cross_shard_lock.rs");
    let hits = hits("crates/core/src/shard.rs", src);
    assert_eq!(
        hits,
        vec![(4, "no-cross-shard-lock"), (9, "no-cross-shard-lock")],
        "live-guard entry call and same-line temporary guard must fire; \
         dropped, scope-closed, and annotated guards must be silent"
    );
}

#[test]
fn cross_shard_lock_is_scoped_to_shard_rs() {
    // The same source under any other path is out of scope: holding a lock
    // across e.g. Engine::with_session inside engine.rs is the engine's own
    // (already-reviewed) session protocol, not a tier-serialization bug.
    let src = include_str!("../fixtures/cross_shard_lock.rs");
    assert!(
        !rules_only("crates/core/src/engine.rs", src).contains(&"no-cross-shard-lock"),
        "the rule applies only to the sharded router"
    );
}

// ---------------------------------------------------------------------------
// The rule table itself
// ---------------------------------------------------------------------------

#[test]
fn rule_table_is_complete_and_unique() {
    let mut ids: Vec<&str> = xtask::RULES.iter().map(|r| r.id).collect();
    ids.sort();
    assert_eq!(
        ids,
        vec![
            "atomic-ordering",
            "hotpath-no-hashmap",
            "lock-across-solve",
            "no-cross-shard-lock"
        ]
    );
    for r in xtask::RULES {
        assert!(!r.summary.is_empty() && !r.scope.is_empty() && !r.rationale.is_empty());
    }
}

// ---------------------------------------------------------------------------
// The workspace itself must be clean (same entry point CI uses).
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_scan_is_clean() {
    let root = workspace_root();
    let findings = xtask::scan_workspace(&root).expect("workspace scan reads all sources");
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The `#![warn(...)]` every first-party library root carries: with the
/// root `clippy.toml`'s `allow-*-in-tests`, it confines unwrap, expect and
/// panic to tests, bins and reasoned `#[expect]` sites.
const CLIPPY_TRIO: &str = "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

/// Does `manifest` have a `[lints]` table that says `workspace = true`?
fn inherits_workspace_lints(manifest: &str) -> bool {
    table_has(manifest, "[lints]", "workspace=true")
}

/// Whether `manifest`'s `[package]` inherits the workspace `rust-version`,
/// so cargo refuses a toolchain older than the declared floor.
fn inherits_rust_version(manifest: &str) -> bool {
    table_has(manifest, "[package]", "rust-version.workspace=true")
}

/// Whether the table headed exactly `header` holds `entry` (compared with
/// spaces removed).
fn table_has(manifest: &str, header: &str, entry: &str) -> bool {
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == header;
        } else if in_table && line.replace(' ', "") == entry {
            return true;
        }
    }
    false
}

/// `unsafe_code = "forbid"` and the clippy configuration reach a package
/// only through its manifest and library root, so a new crate that skips
/// either would build unchecked.
#[test]
fn every_first_party_package_inherits_the_workspace_lints() {
    assert!(
        !inherits_workspace_lints("[package]\nname = \"x\"\n\n[lints.rust]\nworkspace = true\n"),
        "only the `[lints]` table itself opts in"
    );
    assert!(
        !inherits_rust_version("[lints]\nrust-version.workspace = true\n"),
        "only the `[package]` table sets the toolchain floor"
    );
    let root = workspace_root();
    let read = |p: &Path| std::fs::read_to_string(p).expect("first-party sources are readable");
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace lint table forbids unsafe code"
    );
    let mut packages = vec![root.clone()];
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    packages.extend(members);
    for package in &packages {
        let manifest = package.join("Cargo.toml");
        let text = read(&manifest);
        assert!(
            inherits_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        assert!(
            inherits_rust_version(&text),
            "{} lacks `rust-version.workspace = true`",
            manifest.display()
        );
        let lib = package.join("src").join("lib.rs");
        if lib.is_file() {
            assert!(
                read(&lib).lines().any(|l| l.trim() == CLIPPY_TRIO),
                "{} lacks `{CLIPPY_TRIO}`",
                lib.display()
            );
        }
    }
}
