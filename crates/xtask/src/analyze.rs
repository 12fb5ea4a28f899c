//! `cargo xtask analyze` — three workspace-wide graph analyses over the
//! [`crate::model`] symbol model (DESIGN.md §5i):
//!
//! * **`lock-order`** — extracts every lock acquisition in `crates/core`,
//!   derives a held-lock → acquired-lock order graph (direct nesting plus
//!   a name-resolved call-graph closure) and fails on cycles: the
//!   workspace-wide generalization of the two hand-written lock lint
//!   rules. Deliberate nesting is excluded with the shared annotation
//!   grammar: `// lint: allow(lock-order) — reason`.
//! * **`proto-drift`** and **`coverage`** — one evaluator over the
//!   [`FAMILIES`] table. Each entry is an enum whose every variant must
//!   hold every leg: a reference filtered by test/non-test code, path and
//!   position, or a call to the verb's [`VERB_WIRING`] method.
//!   `proto-drift` entries keep each wire verb wired through serve, the
//!   REPL and tests; `coverage` entries form the assurance matrix, emitted
//!   as machine-readable JSON (`--json`).
//!
//! Every pass takes `(path, source)` pairs, so the meta-tests feed seeded
//! violations through the same code path CI runs. Path *hints* (e.g.
//! `core/src`, `cli/src/serve.rs`) classify files; fixtures use virtual
//! paths containing the same hints.

use std::collections::{BTreeMap, BTreeSet};

use crate::json_escape;
use crate::model::{lock_node, Model};
use crate::rules::Finding;

/// One analysis pass of `cargo xtask analyze` (machine-readable table,
/// mirrored in DESIGN.md §5i).
pub struct Analysis {
    /// Stable id, also the `lint: allow(...)` rule id where applicable.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The analysis table, in evaluation order.
pub const ANALYSES: &[Analysis] = &[
    Analysis {
        id: "lock-order",
        summary: "no cycles in the derived held-lock -> acquired-lock order graph of crates/core \
                  (direct nesting + call-graph closure)",
    },
    Analysis {
        id: "proto-drift",
        summary: "every variant of each proto-drift family in analyze::FAMILIES holds every leg \
                  (served, reachable from the REPL, named by a test)",
    },
    Analysis {
        id: "coverage",
        summary: "assurance matrix: every variant of each coverage family in analyze::FAMILIES \
                  holds every leg (column)",
    },
];

/// REPL reachability table for the `Wired` legs of [`FAMILIES`]: which
/// engine call proves a `Request` variant is reachable from the
/// interactive surface. A variant with no entry here is itself a finding —
/// adding a verb means teaching the analyzer where the REPL exercises it.
pub const VERB_WIRING: &[(&str, &str)] = &[
    ("Open", "open_session"),
    ("Expand", "expand"),
    ("ShowResults", "show_results"),
    ("Close", "close_session"),
    ("Stats", "stats"),
    ("Prom", "prometheus_text"),
    ("Debug", "flight_snapshot"),
];

/// The output of one `analyze` run: findings plus the coverage matrix.
pub struct Report {
    /// Violations across all three passes (empty == clean).
    pub findings: Vec<Finding>,
    /// The assurance-coverage matrix, for `--json` / the CI artifact.
    pub matrix: Matrix,
}

/// The machine-readable assurance-coverage matrix.
#[derive(Default)]
pub struct Matrix {
    /// One block per enum family.
    pub families: Vec<Family>,
}

/// One enum family's coverage block.
pub struct Family {
    /// The enum's name, as in its [`FAMILIES`] entry.
    pub name: &'static str,
    /// Column labels, in cell order.
    pub columns: Vec<&'static str>,
    /// `(variant, cells)` rows in declaration order.
    pub rows: Vec<(String, Vec<bool>)>,
}

impl Matrix {
    /// Serializes the matrix to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (fi, fam) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"family\":\"{}\",\"columns\":[", fam.name));
            for (ci, c) in fam.columns.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json_escape(c)));
            }
            out.push_str("],\"rows\":[");
            for (ri, (variant, cells)) in fam.rows.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"variant\":\"{}\",\"cells\":[",
                    json_escape(variant)
                ));
                for (ci, c) in cells.iter().enumerate() {
                    if ci > 0 {
                        out.push(',');
                    }
                    out.push_str(if *c { "true" } else { "false" });
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        let gaps: usize = self
            .families
            .iter()
            .flat_map(|f| f.rows.iter())
            .map(|(_, cells)| cells.iter().filter(|c| !**c).count())
            .sum();
        out.push_str(&format!("],\"gaps\":{gaps}}}"));
        out
    }
}

/// Runs all three passes over `(path, source)` pairs.
pub fn analyze_files(files: &[(String, String)]) -> Report {
    let model = Model::build(files);
    let mut findings = Vec::new();
    findings.extend(lock_order(&model));
    let (family_findings, matrix) = families(&model);
    findings.extend(family_findings);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Report { findings, matrix }
}

// -- pass 1: lock-order graph -----------------------------------------------

/// Whether this file participates in the lock-order pass.
fn core_scope(path: &str) -> bool {
    path.contains("core/src")
}

/// Derives the held-lock → acquired-lock order graph of `crates/core` and
/// reports every cycle (deadlock potential).
///
/// Lock identity is `ImplType::field` — two fields with the same qualified
/// name are one node, so an order between distinct same-name instances
/// (e.g. two sessions' locks) is deliberately not modeled; self-edges are
/// skipped. Call edges resolve callees by bare name (restricted to the
/// caller's impl type for `self.method()` calls) and close transitively
/// over everything a callee may acquire.
pub fn lock_order(model: &Model) -> Vec<Finding> {
    // Eligible sites: core scope, non-test, not annotated away.
    let sites: Vec<(usize, &crate::model::LockSite)> = model
        .locks
        .iter()
        .enumerate()
        .filter(|(_, s)| core_scope(&model.files[s.file].path) && !s.in_test && !s.allowed)
        .collect();
    if sites.is_empty() {
        return Vec::new();
    }

    // Acq*(fn): every lock node a function may acquire, directly or through
    // calls — fixpoint over the name-resolved call graph.
    let mut name_to_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in model.fns.iter().enumerate() {
        if !f.in_test && core_scope(&model.files[f.file].path) {
            name_to_fns.entry(&f.name).or_default().push(i);
        }
    }
    let mut acq: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (_, s) in &sites {
        if let Some(fi) = s.fn_idx {
            acq.entry(fi).or_default().insert(lock_node(model, s));
        }
    }
    // Name resolution policy (the graph's precision knob): `self.method()`
    // resolves within the caller's impl type; any other *method* call
    // resolves only when exactly one non-test fn bears the name (a chained
    // `.get(…)` / `.len(…)` on a locked collection must not alias every
    // `get` in the workspace); free/path calls resolve to all same-name
    // fns.
    let candidates = |model: &Model, call: &crate::model::CallSite| -> Vec<usize> {
        let all = name_to_fns
            .get(call.callee.as_str())
            .cloned()
            .unwrap_or_default();
        let tf = &model.files[call.file].tf;
        let is_method = call.tok >= 1 && tf.toks[call.tok - 1].is_punct(".");
        if !is_method {
            return all;
        }
        let self_recv = call.tok >= 2 && tf.toks[call.tok - 2].is_ident("self");
        if self_recv {
            if let Some(qual) = call.fn_idx.and_then(|fi| model.fns[fi].qual.as_deref()) {
                let narrowed: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| model.fns[i].qual.as_deref() == Some(qual))
                    .collect();
                if !narrowed.is_empty() {
                    return narrowed;
                }
            }
        }
        if all.len() == 1 {
            all
        } else {
            Vec::new()
        }
    };
    loop {
        let mut changed = false;
        for call in &model.calls {
            let Some(caller) = call.fn_idx else { continue };
            if !core_scope(&model.files[call.file].path) {
                continue;
            }
            let mut inherited: BTreeSet<String> = BTreeSet::new();
            for callee in candidates(model, call) {
                if let Some(set) = acq.get(&callee) {
                    inherited.extend(set.iter().cloned());
                }
            }
            if inherited.is_empty() {
                continue;
            }
            let entry = acq.entry(caller).or_default();
            let before = entry.len();
            entry.extend(inherited);
            changed |= entry.len() > before;
        }
        if !changed {
            break;
        }
    }

    // Edges: while site A's guard is live, any acquisition B (direct or via
    // a call) orders node(A) before node(B).
    struct Prov {
        path: String,
        line: usize,
        note: String,
    }
    let mut edges: BTreeMap<(String, String), Prov> = BTreeMap::new();
    let mut add_edge = |from: String, to: String, prov: Prov| {
        if from != to {
            edges.entry((from, to)).or_insert(prov);
        }
    };
    for (ai, a) in &sites {
        if a.held_until <= a.tok {
            continue; // temporary guard: dead before anything else runs
        }
        let from = lock_node(model, a);
        let path = model.files[a.file].path.clone();
        for (bi, b) in &sites {
            if bi != ai && b.file == a.file && a.tok < b.tok && b.tok < a.held_until {
                add_edge(
                    from.clone(),
                    lock_node(model, b),
                    Prov {
                        path: path.clone(),
                        line: b.line,
                        note: format!("acquired while {from} is held (guard from line {})", a.line),
                    },
                );
            }
        }
        for call in &model.calls {
            if call.file == a.file && a.tok < call.tok && call.tok < a.held_until {
                for callee in candidates(model, call) {
                    if let Some(set) = acq.get(&callee) {
                        let call_line = model.files[call.file].tf.toks[call.tok].line + 1;
                        for node in set {
                            add_edge(
                                from.clone(),
                                node.clone(),
                                Prov {
                                    path: path.clone(),
                                    line: call_line,
                                    note: format!(
                                        "call to {}() may acquire {node} while {from} is held \
                                         (guard from line {})",
                                        call.callee, a.line
                                    ),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the order graph.
    let nodes: Vec<&String> = {
        let mut set = BTreeSet::new();
        for (f, t) in edges.keys() {
            set.insert(f);
            set.insert(t);
        }
        set.into_iter().collect()
    };
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (f, t) in edges.keys() {
        if let (Some(&fi), Some(&ti)) = (index.get(f), index.get(t)) {
            adj[fi].push(ti);
        }
    }
    let mut findings = Vec::new();
    if let Some(cycle) = find_cycle(&adj) {
        let names: Vec<String> = cycle.iter().map(|&i| nodes[i].clone()).collect();
        let mut detail = String::new();
        let mut at = ("<unknown>".to_string(), 0);
        for w in 0..names.len() {
            let from = &names[w];
            let to = &names[(w + 1) % names.len()];
            if let Some(p) = edges.get(&(from.clone(), to.clone())) {
                if w == 0 {
                    at = (p.path.clone(), p.line);
                }
                detail.push_str(&format!(
                    "; {from} -> {to}: {} ({}:{})",
                    p.note, p.path, p.line
                ));
            }
        }
        findings.push(Finding {
            path: at.0,
            line: at.1,
            rule: "lock-order",
            message: format!(
                "lock-order cycle (deadlock potential): {}{detail} — break the cycle or annotate \
                 the deliberate acquisition with `// lint: allow(lock-order) — reason`",
                names.join(" -> ")
            ),
        });
    }
    findings
}

/// First cycle of a digraph (node indices, cycle order), if any.
/// Iterative coloring DFS — no recursion, no panics.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; adj.len()];
    for start in 0..adj.len() {
        if color[start] != WHITE {
            continue;
        }
        // (node, next child index) path stack.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = GRAY;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            if *child < adj[node].len() {
                let next = adj[node][*child];
                *child += 1;
                match color[next] {
                    WHITE => {
                        color[next] = GRAY;
                        stack.push((next, 0));
                    }
                    GRAY => {
                        // Back edge: the cycle is the path suffix from `next`.
                        let pos = stack.iter().position(|&(n, _)| n == next).unwrap_or(0);
                        return Some(stack[pos..].iter().map(|&(n, _)| n).collect());
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

// -- passes 2 and 3: the enum-family table ----------------------------------

/// Where in its file a reference must sit to count as evidence.
#[derive(Clone, Copy)]
enum At {
    /// Anywhere.
    Anywhere,
    /// Inside the body of a non-test fn with this name.
    InFn(&'static str),
    /// Outside every fn body: a `const`/`static` initializer such as
    /// `Stage::ALL`.
    OutsideFns,
    /// Outside trait impls for the family's enum: an arm of
    /// `impl Display for EngineError` formats a variant, it does not
    /// construct one.
    OutsideTraitImpls,
}

/// A filter over `Qual::Name` references.
#[derive(Clone, Copy)]
struct Refs {
    /// Qualifier when it is not the family's enum (`Verb` for `Request`).
    qual: Option<&'static str>,
    /// `Some(true)`: test code only; `Some(false)`: non-test code only.
    test: Option<bool>,
    /// File-path hints, one of which must match (empty: every file).
    paths: &'static [&'static str],
    /// File-path hints none of which may match.
    not_paths: &'static [&'static str],
    /// Position within the file.
    at: At,
}

/// Every reference, test or not, anywhere.
const ANY: Refs = Refs {
    qual: None,
    test: None,
    paths: &[],
    not_paths: &[],
    at: At::Anywhere,
};
/// References in test code.
const TEST: Refs = Refs {
    test: Some(true),
    ..ANY
};
/// References in non-test code.
const CODE: Refs = Refs {
    test: Some(false),
    ..ANY
};

/// What proves one leg for one variant.
#[derive(Clone, Copy)]
enum Evidence {
    /// Some reference `Qual::Variant` passes the filter.
    Ref(Refs),
    /// The variant's [`VERB_WIRING`] method is called in a file matching
    /// this path hint. A variant with no table entry fails the leg with a
    /// message of its own.
    Wired(&'static str),
}

/// One leg of a family: a column of the matrix.
struct Leg {
    /// Column label in the `--json` matrix.
    column: &'static str,
    /// What proves the leg.
    evidence: Evidence,
    /// Finding text after `Enum::Variant `; `{v}` stands for the variant
    /// and `{call}` for its wired method.
    gap: &'static str,
}

/// One enum family: every variant must hold every leg.
pub struct FamilySpec {
    /// The enum's name.
    pub name: &'static str,
    /// Path hint of the file that defines it (first match).
    def: &'static str,
    /// Rule id of its findings; only `coverage` families enter the matrix.
    pub rule: &'static str,
    /// `(enum, path hint)` that must be defined for the family to apply.
    gate: Option<(&'static str, &'static str)>,
    /// Family-level leg `(member, evidence, message)`: `Enum::member` must
    /// be referenced. Skipped when no file matches the evidence's paths.
    whole: Option<(&'static str, Refs, &'static str)>,
    /// Per-variant legs, in column order.
    legs: &'static [Leg],
}

/// The `tested` leg of both wire-protocol families.
const PROTO_CLI_TESTED: Leg = Leg {
    column: "tested",
    evidence: Evidence::Ref(Refs {
        paths: &["crates/proto", "crates/cli"],
        ..TEST
    }),
    gap: "is not named by any test in crates/proto or crates/cli",
};

/// The `proto-drift` and `coverage` families, in evaluation order. A new
/// family is one entry here.
pub const FAMILIES: &[FamilySpec] = &[
    FamilySpec {
        name: "Request",
        def: "proto",
        rule: "proto-drift",
        gate: None,
        whole: None,
        legs: &[
            Leg {
                column: "served",
                evidence: Evidence::Ref(Refs {
                    paths: &["cli/src/serve.rs"],
                    at: At::InFn("apply"),
                    ..CODE
                }),
                gap: "is not matched in crates/cli/src/serve.rs::apply — the serve loop \
                      silently drops this verb",
            },
            Leg {
                column: "repl",
                evidence: Evidence::Wired("cli/src/repl.rs"),
                gap: "is not reachable from the REPL: no {call}() call in crates/cli/src/repl.rs",
            },
            PROTO_CLI_TESTED,
        ],
    },
    FamilySpec {
        name: "Reply",
        def: "proto",
        rule: "proto-drift",
        gate: Some(("Request", "proto")),
        whole: None,
        legs: &[
            Leg {
                column: "constructed",
                evidence: Evidence::Ref(Refs {
                    paths: &["cli/src/serve.rs"],
                    ..CODE
                }),
                gap: "is never constructed in crates/cli/src/serve.rs — the serve loop cannot \
                      produce this reply",
            },
            PROTO_CLI_TESTED,
        ],
    },
    FamilySpec {
        name: "FailSite",
        def: "core/src/fault.rs",
        rule: "coverage",
        gate: None,
        whole: None,
        legs: &[
            Leg {
                column: "armed_in_core",
                evidence: Evidence::Ref(Refs {
                    paths: &["core/src"],
                    not_paths: &["fault.rs"],
                    ..CODE
                }),
                gap: "is not armed anywhere in crates/core outside fault.rs — dead failpoint",
            },
            Leg {
                column: "chaos_test",
                evidence: Evidence::Ref(Refs {
                    paths: &["tests/chaos"],
                    ..ANY
                }),
                gap: "is not exercised by any chaos test (crates/core/tests/chaos.rs)",
            },
        ],
    },
    // Prometheus iterates `ALL` and the Chrome trace renders `name()`.
    FamilySpec {
        name: "Stage",
        def: "trace/mod.rs",
        rule: "coverage",
        gate: None,
        whole: Some((
            "ALL",
            Refs {
                paths: &["trace/export.rs"],
                ..CODE
            },
            "the exporter (crates/core/src/trace/export.rs) no longer iterates Stage::ALL — \
             per-stage series would silently vanish",
        )),
        legs: &[
            Leg {
                column: "instrumented",
                evidence: Evidence::Ref(Refs {
                    not_paths: &["/trace/"],
                    ..CODE
                }),
                gap: "is never instrumented outside the trace module — dead stage",
            },
            Leg {
                column: "in_all",
                evidence: Evidence::Ref(Refs {
                    paths: &["trace/mod.rs"],
                    at: At::OutsideFns,
                    ..CODE
                }),
                gap: "is missing from Stage::ALL — the Prometheus exporter iterates ALL, so \
                      this stage would never be exported",
            },
            Leg {
                column: "name_arm",
                evidence: Evidence::Ref(Refs {
                    paths: &["trace/mod.rs"],
                    at: At::InFn("name"),
                    ..ANY
                }),
                gap: "has no Stage::name() arm — both exporters render stages by name",
            },
        ],
    },
    FamilySpec {
        name: "EngineError",
        def: "core/src",
        rule: "coverage",
        gate: None,
        whole: None,
        legs: &[
            Leg {
                column: "constructed",
                evidence: Evidence::Ref(Refs {
                    paths: &["core/src"],
                    at: At::OutsideTraitImpls,
                    ..CODE
                }),
                gap: "is never constructed in crates/core — dead error variant",
            },
            Leg {
                column: "tested",
                evidence: Evidence::Ref(TEST),
                gap: "is not named by any test — its refusal path is unverified",
            },
        ],
    },
    // The request-context plane, gated on the flight recorder's `Verb` so
    // proto-only fixtures skip it: the wire front-end attributes each verb
    // (`verb_of`), and the engine (`flight_scope`) or the REPL
    // (`ensure_scope`) mints its recorder scope outside the wire path.
    FamilySpec {
        name: "Request",
        def: "proto",
        rule: "coverage",
        gate: Some(("Verb", "trace")),
        whole: None,
        legs: &[
            Leg {
                column: "ctx_propagated",
                evidence: Evidence::Ref(Refs {
                    paths: &["cli/src/serve.rs"],
                    at: At::InFn("verb_of"),
                    ..CODE
                }),
                gap: "is not mapped in crates/cli/src/serve.rs::verb_of — the wire front-end \
                      cannot attribute this verb's work to a request context",
            },
            Leg {
                column: "flight_recorded",
                evidence: Evidence::Ref(Refs {
                    qual: Some("Verb"),
                    paths: &["core/src", "cli/src/repl.rs"],
                    not_paths: &["/trace/"],
                    ..CODE
                }),
                gap: "has no flight-recorder scope outside the wire front-end — mint Verb::{v} \
                      (engine flight_scope or REPL ensure_scope) so interactive traffic is \
                      recorded too",
            },
        ],
    },
    // The engine records every op against its objective outside slo.rs,
    // which is what the exposition renders.
    FamilySpec {
        name: "SloVerb",
        def: "core/src/slo.rs",
        rule: "coverage",
        gate: None,
        whole: None,
        legs: &[
            Leg {
                column: "exported",
                evidence: Evidence::Ref(Refs {
                    not_paths: &["slo.rs"],
                    ..CODE
                }),
                gap: "is never fed to the SLO monitor outside slo.rs — its burn rate would never \
                      be exported",
            },
            Leg {
                column: "tested",
                evidence: Evidence::Ref(TEST),
                gap: "is not named by any test — its objective is unverified",
            },
        ],
    },
    FamilySpec {
        name: "ShedReason",
        def: "core/src/admission.rs",
        rule: "coverage",
        gate: None,
        whole: None,
        legs: &[
            Leg {
                column: "exported",
                evidence: Evidence::Ref(Refs {
                    paths: &["trace/export.rs"],
                    ..CODE
                }),
                gap: "has no series in the bionav_shed_total exposition (trace/export.rs) — this \
                      shed path is invisible to Prometheus",
            },
            Leg {
                column: "flight_recorded",
                evidence: Evidence::Ref(Refs {
                    paths: &["trace/flightrec.rs"],
                    ..CODE
                }),
                gap: "has no flight-recorder shed code (trace/flightrec.rs) — shed sessions of \
                      this kind leave no per-request trace",
            },
            Leg {
                column: "tested",
                evidence: Evidence::Ref(TEST),
                gap: "is not named by any test — its shed accounting is unverified",
            },
        ],
    },
];

/// Whether `path` matches one of `hints` (an empty list matches all).
fn hinted(hints: &[&str], path: &str) -> bool {
    hints.is_empty() || hints.iter().any(|h| path.contains(h))
}

/// Whether some reference `Qual::name` passes `refs`.
fn holds(model: &Model, spec: &FamilySpec, name: &str, refs: &Refs) -> bool {
    model.refs(refs.qual.unwrap_or(spec.name), name).any(|r| {
        let path = &model.files[r.file].path;
        let enclosing = || model.fn_at(r.file, r.tok).map(|i| &model.fns[i]);
        refs.test.is_none_or(|t| t == r.in_test)
            && hinted(refs.paths, path)
            && !refs.not_paths.iter().any(|h| path.contains(h))
            && match refs.at {
                At::Anywhere => true,
                At::InFn(f) => enclosing().is_some_and(|e| e.name == f && !e.in_test),
                At::OutsideFns => enclosing().is_none(),
                At::OutsideTraitImpls => !model
                    .impl_at(r.file, r.tok)
                    .is_some_and(|i| i.trait_name.is_some() && i.type_name == spec.name),
            }
    })
}

/// Evaluates [`FAMILIES`]: a finding per failed leg, and a matrix block
/// per `coverage` family.
fn families(model: &Model) -> (Vec<Finding>, Matrix) {
    let mut findings = Vec::new();
    let mut matrix = Matrix::default();
    for spec in FAMILIES {
        let Some(def) = model.enum_def(spec.name, spec.def) else {
            continue;
        };
        if spec
            .gate
            .is_some_and(|(name, hint)| model.enum_def(name, hint).is_none())
        {
            continue;
        }
        let mut flag = |line: usize, message: String| {
            findings.push(Finding {
                path: model.files[def.file].path.clone(),
                line,
                rule: spec.rule,
                message,
            })
        };
        let mut rows = Vec::new();
        for (variant, line) in &def.variants {
            let mut cells = Vec::new();
            for leg in spec.legs {
                let (held, text) = match leg.evidence {
                    Evidence::Ref(refs) => (
                        holds(model, spec, variant, &refs),
                        leg.gap.replace("{v}", variant),
                    ),
                    Evidence::Wired(hint) => match VERB_WIRING.iter().find(|(v, _)| v == variant) {
                        None => (
                            false,
                            format!(
                                "has no REPL-wiring entry — add (\"{variant}\", \"<engine \
                                 call>\") to VERB_WIRING in crates/xtask/src/analyze.rs and wire \
                                 the verb into the REPL"
                            ),
                        ),
                        Some((_, call)) => (
                            model.calls.iter().any(|c| {
                                c.callee == *call && model.files[c.file].path.contains(hint)
                            }),
                            leg.gap.replace("{call}", call),
                        ),
                    },
                };
                if !held {
                    flag(*line, format!("{}::{variant} {text}", spec.name));
                }
                cells.push(held);
            }
            rows.push((variant.clone(), cells));
        }
        if let Some((member, refs, message)) = spec.whole {
            let present = model.files.iter().any(|f| hinted(refs.paths, &f.path));
            if present && !holds(model, spec, member, &refs) {
                flag(def.line, message.to_string());
            }
        }
        if spec.rule == "coverage" {
            matrix.families.push(Family {
                name: spec.name,
                columns: spec.legs.iter().map(|l| l.column).collect(),
                rows,
            });
        }
    }
    (findings, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn nested_bound_guards_make_an_order_edge_but_no_cycle() {
        let report = analyze_files(&files(&[(
            "crates/core/src/a.rs",
            "impl Engine {\n\
                 fn one(&self) {\n\
                     let g = self.cache.lock();\n\
                     let h = self.flights.lock();\n\
                     drop(h);\n\
                     drop(g);\n\
                 }\n\
             }\n",
        )]));
        assert!(
            report.findings.is_empty(),
            "one direction is fine: {:?}",
            report.findings
        );
    }

    #[test]
    fn opposite_nesting_is_a_cycle() {
        let report = analyze_files(&files(&[(
            "crates/core/src/a.rs",
            "impl Engine {\n\
                 fn one(&self) {\n\
                     let g = self.cache.lock();\n\
                     self.flights.lock().len();\n\
                 }\n\
                 fn two(&self) {\n\
                     let g = self.flights.lock();\n\
                     self.cache.lock().len();\n\
                 }\n\
             }\n",
        )]));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "lock-order");
        assert!(report.findings[0].message.contains("Engine::cache"));
        assert!(report.findings[0].message.contains("Engine::flights"));
    }

    #[test]
    fn shed_reason_family_flags_the_missing_exposition_leg() {
        let admission = (
            "crates/core/src/admission.rs",
            "pub enum ShedReason {\n\
                 Queue,\n\
                 Deadline,\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn names() {\n\
                     let _ = (ShedReason::Queue, ShedReason::Deadline);\n\
                 }\n\
             }\n",
        );
        let flightrec = (
            "crates/core/src/trace/flightrec.rs",
            "pub const SHED_QUEUE: u8 = ShedReason::Queue as u8 + 1;\n\
             pub const SHED_DEADLINE: u8 = ShedReason::Deadline as u8 + 1;\n",
        );
        // Exposition renders Queue but forgot Deadline: exactly one gap.
        let export = (
            "crates/core/src/trace/export.rs",
            "fn series() { let _ = ShedReason::Queue; }\n",
        );
        let report = analyze_files(&files(&[admission, flightrec, export]));
        let shed: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.message.contains("ShedReason"))
            .collect();
        assert_eq!(shed.len(), 1, "{:?}", report.findings);
        assert!(shed[0].message.contains("Deadline"), "{:?}", shed[0]);
        assert!(
            shed[0].message.contains("bionav_shed_total"),
            "{:?}",
            shed[0]
        );
        let fam = report
            .matrix
            .families
            .iter()
            .find(|f| f.name == "ShedReason")
            .expect("family");
        assert_eq!(fam.columns, &["exported", "flight_recorded", "tested"]);
        assert_eq!(fam.rows[0], ("Queue".to_string(), vec![true, true, true]));
        assert_eq!(
            fam.rows[1],
            ("Deadline".to_string(), vec![false, true, true])
        );
    }

    #[test]
    fn matrix_json_counts_gaps() {
        let m = Matrix {
            families: vec![Family {
                name: "FailSite",
                columns: vec!["armed_in_core", "chaos_test"],
                rows: vec![
                    ("A".to_string(), vec![true, true]),
                    ("B".to_string(), vec![true, false]),
                ],
            }],
        };
        let json = m.to_json();
        assert!(json.contains("\"gaps\":1"), "{json}");
        assert!(
            json.contains("\"variant\":\"B\",\"cells\":[true,false]"),
            "{json}"
        );
    }
}
