//! Meta-tests for `cargo xtask analyze`: each seeded-violation fixture
//! must be flagged (these tests FAIL if the analyzer goes blind), each
//! negative twin must stay silent, and the real workspace must be clean —
//! including the acceptance scenario from the issue: removing a `match`
//! arm for any `Request` variant in serve.rs makes `analyze` fail.

use std::path::Path;

use xtask::analysis_files;
use xtask::analyze::{analyze_files, Report, FAMILIES};

fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn rules_of(report: &Report) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = report.findings.iter().map(|f| f.rule).collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[test]
fn opposite_nesting_fixture_is_flagged_as_a_cycle() {
    let report = analyze_files(&files(&[(
        "crates/core/src/cycle.rs",
        include_str!("../fixtures/analyze_lock_cycle.rs"),
    )]));
    assert_eq!(
        rules_of(&report),
        vec!["lock-order"],
        "{:?}",
        report.findings
    );
    let msg = &report.findings[0].message;
    assert!(msg.contains("Engine::alpha"), "{msg}");
    assert!(msg.contains("Engine::beta"), "{msg}");
    assert!(msg.contains("cycle"), "{msg}");
}

#[test]
fn annotated_twin_is_clean() {
    let report = analyze_files(&files(&[(
        "crates/core/src/cycle.rs",
        include_str!("../fixtures/analyze_lock_cycle_annotated.rs"),
    )]));
    assert!(
        report.findings.is_empty(),
        "a reasoned lock-order annotation must suppress: {:?}",
        report.findings
    );
}

#[test]
fn reasonless_annotation_does_not_suppress() {
    let src = include_str!("../fixtures/analyze_lock_cycle_annotated.rs")
        .replace(
            "// lint: allow(lock-order) — beta's alpha is a per-instance latch\n        // that is unshared until this block publishes it",
            "// lint: allow(lock-order)",
        );
    let report = analyze_files(&files(&[("crates/core/src/cycle.rs", &src)]));
    assert_eq!(
        rules_of(&report),
        vec!["lock-order"],
        "an annotation without a reason is ignored"
    );
}

#[test]
fn transitive_cycle_through_the_call_graph_is_flagged() {
    let report = analyze_files(&files(&[(
        "crates/core/src/transitive.rs",
        include_str!("../fixtures/analyze_lock_transitive.rs"),
    )]));
    assert_eq!(
        rules_of(&report),
        vec!["lock-order"],
        "{:?}",
        report.findings
    );
    assert!(
        report.findings[0].message.contains("may acquire"),
        "the finding explains the call edge: {}",
        report.findings[0].message
    );
}

#[test]
fn consistent_one_direction_nesting_is_clean() {
    // Only the AB half of the cycle fixture: an order edge, no cycle.
    let report = analyze_files(&files(&[(
        "crates/core/src/oneway.rs",
        "impl Engine {\n\
             fn ab(&self) {\n\
                 let a = self.alpha.lock();\n\
                 let b = self.beta.lock();\n\
                 drop(b);\n\
                 drop(a);\n\
             }\n\
         }\n",
    )]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn test_code_locks_are_exempt() {
    let report = analyze_files(&files(&[(
        "crates/core/tests/cycle.rs",
        include_str!("../fixtures/analyze_lock_cycle.rs"),
    )]));
    assert!(
        report.findings.is_empty(),
        "tests/ files are wholly test code: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// proto-drift
// ---------------------------------------------------------------------------

const PROTO: &str = include_str!("../fixtures/analyze_proto.rs");
const SERVE_OK: &str = include_str!("../fixtures/analyze_serve_ok.rs");
const REPL: &str = include_str!("../fixtures/analyze_repl.rs");

#[test]
fn fully_wired_fixture_protocol_is_clean() {
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", PROTO),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", REPL),
    ]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn dropped_serve_arm_fixture_is_flagged() {
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", PROTO),
        (
            "crates/cli/src/serve.rs",
            include_str!("../fixtures/analyze_serve_drift.rs"),
        ),
        ("crates/cli/src/repl.rs", REPL),
    ]));
    // The drifted serve loop lost the Stats arm AND the only Reply::Stats
    // construction site: two findings, both proto-drift.
    assert_eq!(rules_of(&report), vec!["proto-drift", "proto-drift"]);
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Request::Stats") && m.contains("apply")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("Reply::Stats") && m.contains("constructed")),
        "{messages:?}"
    );
}

#[test]
fn verb_without_wiring_table_entry_is_flagged() {
    let proto = PROTO.replace("    Stats,\n", "    Stats,\n    Probe,\n");
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", &proto),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", REPL),
    ]));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.message.contains("Probe") && f.message.contains("VERB_WIRING")),
        "a new verb must demand its wiring entry: {:?}",
        report.findings
    );
}

#[test]
fn verb_unreachable_from_the_repl_is_flagged() {
    let repl = REPL.replace("let text = engine.stats();\n", "");
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", PROTO),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", &repl),
    ]));
    assert_eq!(
        rules_of(&report),
        vec!["proto-drift"],
        "{:?}",
        report.findings
    );
    assert!(
        report.findings[0]
            .message
            .contains("not reachable from the REPL"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn untested_verbs_are_flagged() {
    // Strip the fixture proto's tests module: every variant loses its
    // "named by a test" leg.
    let proto_no_tests = match PROTO.split("#[cfg(test)]").next() {
        Some(head) => head.to_string(),
        None => PROTO.to_string(),
    };
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", &proto_no_tests),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", REPL),
    ]));
    // 2 Request + 3 Reply variants, one finding each.
    let untested: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.message.contains("not named by any test"))
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(untested.len(), 5, "{untested:?}");
}

// ---------------------------------------------------------------------------
// coverage
// ---------------------------------------------------------------------------

#[test]
fn dead_failpoint_fixture_is_flagged_and_the_matrix_records_it() {
    let report = analyze_files(&files(&[
        (
            "crates/core/src/fault.rs",
            include_str!("../fixtures/analyze_coverage_gap.rs"),
        ),
        (
            "crates/core/src/engine.rs",
            "fn poke() {\n    fault::hit(FailSite::Armed);\n}\n",
        ),
        (
            "crates/core/tests/chaos.rs",
            "#[test]\nfn arms_armed() {\n    plan.site(FailSite::Armed, 1, Fault::Panic);\n}\n",
        ),
    ]));
    assert_eq!(
        rules_of(&report),
        vec!["coverage", "coverage"],
        "{:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.message.contains("FailSite::Dead")),
        "{:?}",
        report.findings
    );
    let json = report.matrix.to_json();
    assert!(
        json.contains("\"variant\":\"Armed\",\"cells\":[true,true]"),
        "{json}"
    );
    assert!(
        json.contains("\"variant\":\"Dead\",\"cells\":[false,false]"),
        "{json}"
    );
    assert!(json.contains("\"gaps\":2"), "{json}");
}

#[test]
fn stage_missing_from_all_is_flagged_even_when_a_test_names_it() {
    // Solve has a name() arm, an instrumentation site and a test in its own
    // file, but the exporter iterates ALL, which lacks it.
    let trace = "pub enum Stage {\n    Solve,\n    Partition,\n}\n\
                 impl Stage {\n    \
                     pub const ALL: [Stage; 1] = [Stage::Partition];\n    \
                     pub fn name(self) -> &'static str {\n        \
                         match self {\n            \
                             Stage::Solve => \"solve\",\n            \
                             Stage::Partition => \"partition\",\n        \
                         }\n    \
                     }\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests {\n    \
                     #[test]\n    \
                     fn solve_is_named() {\n        \
                         assert_eq!(Stage::Solve.name(), \"solve\");\n    \
                     }\n\
                 }\n";
    let report = analyze_files(&files(&[
        ("crates/core/src/trace/mod.rs", trace),
        (
            "crates/core/src/trace/export.rs",
            "fn render() {\n    for stage in Stage::ALL {}\n}\n",
        ),
        (
            "crates/core/src/engine.rs",
            "fn run() {\n    let _ = (Stage::Solve, Stage::Partition);\n}\n",
        ),
    ]));
    assert_eq!(rules_of(&report), vec!["coverage"], "{:?}", report.findings);
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("Stage::Solve") && msg.contains("missing from Stage::ALL"),
        "{msg}"
    );
    let json = report.matrix.to_json();
    assert!(
        json.contains("\"variant\":\"Solve\",\"cells\":[true,false,true]"),
        "{json}"
    );
    assert!(
        json.contains("\"variant\":\"Partition\",\"cells\":[true,true,true]"),
        "{json}"
    );
}

// ---------------------------------------------------------------------------
// coverage: the request-context plane (Request × {ctx_propagated,
// flight_recorded}) and the SLO table (SloVerb × {exported, tested})
// ---------------------------------------------------------------------------

const FLIGHTREC: &str = include_str!("../fixtures/analyze_flightrec.rs");

/// The fully wired proto/serve/repl trio plus the flight-recorder verb
/// table that switches the Request coverage family on.
fn ctx_plane_files() -> Vec<(String, String)> {
    files(&[
        ("crates/proto/src/lib.rs", PROTO),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", REPL),
        ("crates/core/src/trace/flightrec.rs", FLIGHTREC),
    ])
}

#[test]
fn fully_attributed_request_plane_is_clean_and_lands_in_the_matrix() {
    let report = analyze_files(&ctx_plane_files());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let json = report.matrix.to_json();
    assert!(json.contains("\"family\":\"Request\""), "{json}");
    assert!(
        json.contains("\"columns\":[\"ctx_propagated\",\"flight_recorded\"]"),
        "{json}"
    );
    assert!(
        json.contains("\"variant\":\"Stats\",\"cells\":[true,true]"),
        "{json}"
    );
}

#[test]
fn wire_verb_missing_from_verb_of_is_flagged() {
    let mut set = ctx_plane_files();
    for (p, s) in &mut set {
        if p.ends_with("cli/src/serve.rs") {
            *s = s.replace("        Request::Stats => Verb::Stats,\n", "");
        }
    }
    let report = analyze_files(&set);
    assert_eq!(rules_of(&report), vec!["coverage"], "{:?}", report.findings);
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("Request::Stats") && msg.contains("verb_of"),
        "{msg}"
    );
}

#[test]
fn verb_with_no_recorder_scope_outside_the_wire_path_is_flagged() {
    let mut set = ctx_plane_files();
    for (p, s) in &mut set {
        if p.ends_with("cli/src/repl.rs") {
            *s = s.replace(
                "    let _stats = flightrec::ensure_scope(Verb::Stats);\n",
                "",
            );
        }
    }
    let report = analyze_files(&set);
    assert_eq!(rules_of(&report), vec!["coverage"], "{:?}", report.findings);
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("Request::Stats") && msg.contains("flight-recorder scope"),
        "{msg}"
    );
    assert!(
        report
            .matrix
            .to_json()
            .contains("\"variant\":\"Stats\",\"cells\":[true,false]"),
        "{}",
        report.matrix.to_json()
    );
}

#[test]
fn proto_only_fixtures_skip_the_request_family() {
    // Without the Verb enum in the file set the request-context family is
    // gated off — proto-drift fixtures stay exactly as strict as before.
    let report = analyze_files(&files(&[
        ("crates/proto/src/lib.rs", PROTO),
        ("crates/cli/src/serve.rs", SERVE_OK),
        ("crates/cli/src/repl.rs", REPL),
    ]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(!report.matrix.to_json().contains("\"family\":\"Request\""));
}

#[test]
fn slo_verb_without_exporter_feed_or_test_is_flagged() {
    let report = analyze_files(&files(&[
        (
            "crates/core/src/slo.rs",
            "pub enum SloVerb {\n    Open,\n    Expand,\n}\n\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn names_open() {\n        \
             let v = SloVerb::Open;\n    }\n}\n",
        ),
        (
            "crates/core/src/engine.rs",
            "fn stats(&self) {\n    self.slo.burns(SloVerb::Open);\n}\n",
        ),
    ]));
    // Expand is neither fed to the monitor nor named by a test.
    assert_eq!(
        rules_of(&report),
        vec!["coverage", "coverage"],
        "{:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.message.contains("SloVerb::Expand")),
        "{:?}",
        report.findings
    );
    let json = report.matrix.to_json();
    assert!(json.contains("\"family\":\"SloVerb\""), "{json}");
    assert!(
        json.contains("\"variant\":\"Open\",\"cells\":[true,true]"),
        "{json}"
    );
    assert!(
        json.contains("\"variant\":\"Expand\",\"cells\":[false,false]"),
        "{json}"
    );
}

// ---------------------------------------------------------------------------
// acceptance: the real workspace
// ---------------------------------------------------------------------------

fn workspace_root() -> &'static Path {
    // tests run from crates/xtask; the workspace root is two levels up.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn the_real_workspace_is_clean() {
    let files = analysis_files(workspace_root()).expect("workspace sources readable");
    assert!(files.len() > 30, "loader must see the whole workspace");
    let report = analyze_files(&files);
    assert!(
        report.findings.is_empty(),
        "the committed workspace must analyze clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every coverage family of the table made it into the matrix, fully
    // covered.
    let json = report.matrix.to_json();
    for family in FAMILIES.iter().filter(|f| f.rule == "coverage") {
        assert!(
            json.contains(&format!("\"family\":\"{}\"", family.name)),
            "{json}"
        );
    }
    assert!(json.contains("\"gaps\":0"), "{json}");
}

#[test]
fn removing_any_request_match_arm_from_serve_fails_analyze() {
    let all = analysis_files(workspace_root()).expect("workspace sources readable");
    let request_variants: Vec<String> = {
        let model = xtask::model::Model::build(&all);
        model
            .enum_def("Request", "proto")
            .expect("bionav-proto defines Request")
            .variants
            .iter()
            .map(|(v, _)| v.clone())
            .collect()
    };
    assert!(request_variants.len() >= 6, "{request_variants:?}");
    for variant in request_variants {
        let mutated: Vec<(String, String)> = all
            .iter()
            .map(|(p, s)| {
                if p.ends_with("cli/src/serve.rs") {
                    // Renaming the variant in serve.rs deletes its match
                    // arm as far as the protocol is concerned.
                    (
                        p.clone(),
                        s.replace(&format!("Request::{variant}"), "Request::Gone"),
                    )
                } else {
                    (p.clone(), s.clone())
                }
            })
            .collect();
        let report = analyze_files(&mutated);
        assert!(
            report.findings.iter().any(|f| {
                f.rule == "proto-drift"
                    && f.message.contains(&format!("Request::{variant}"))
                    && f.message.contains("apply")
            }),
            "dropping the {variant} arm must fail analyze; got {:?}",
            report.findings
        );
    }
}
