//! The project rule table and the per-file scanner.
//!
//! Each rule is a line-pattern pass over the [`crate::lexer`]'s code
//! channel, with `#[cfg(test)]` regions skipped and `// lint: allow(...)`
//! annotations honored. See [`RULES`] for the machine-readable table and
//! CONTRIBUTING.md for the human one.

use crate::lexer::{self, Line};

/// Metadata for one lint rule (the machine-readable rule table).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id used in findings and `lint: allow(...)` annotations.
    pub id: &'static str,
    /// One-line description of what the rule forbids.
    pub summary: &'static str,
    /// Which files the rule applies to.
    pub scope: &'static str,
    /// Why the project enforces it.
    pub rationale: &'static str,
}

/// The rule table, in evaluation order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "atomic-ordering",
        summary: "atomic RMW ops pass an explicit Ordering, and every Ordering use carries a \
                  nearby justification comment",
        scope: "all first-party sources",
        rationale: "memory orderings are load-bearing; the comment forces the author to state \
                    why the chosen ordering is sufficient",
    },
    Rule {
        id: "hotpath-no-hashmap",
        summary: "no HashMap::new / HashSet::new / BTreeMap::new / slice .contains(&…) in the \
                  edgecut hot path or the navigation-tree build",
        scope: "crates/core/src/edgecut/ and crates/core/src/navtree.rs",
        rationale: "the EXPAND tail-latency work routes per-call state through the epoch-stamped \
                    arenas in scratch.rs, and the cold-path rebuild keeps the tree build on flat \
                    sorted columns (hash iteration order is also nondeterministic, which would \
                    break the build's bit-determinism); ad-hoc maps and O(n) scans reintroduce \
                    the p99 regressions PRs 2 and 6 removed",
    },
    Rule {
        id: "lock-across-solve",
        summary: "no lock guard held across a partition/solve/expand call boundary",
        scope: "all first-party sources",
        rationale: "solver calls are the expensive part of EXPAND; holding a shared lock across \
                    one serializes the engine's workers (annotate deliberate cases, e.g. the \
                    per-session lock)",
    },
    Rule {
        id: "no-cross-shard-lock",
        summary: "no lock guard held across a member-Engine entry-point call in the sharded \
                  router",
        scope: "crates/core/src/shard.rs",
        rationale: "shard independence is the tier's scaling invariant (DESIGN.md §5h): every \
                    cross-shard structure is immutable after construction, so a router-level \
                    lock spanning an engine call would serialize the shards it exists to \
                    decouple — and a guard across two shards' calls is a lock-order deadlock \
                    waiting for a second caller",
    },
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Per-line allow state parsed from `// lint: allow(...)` annotations.
/// Shared with the `analyze` passes, which honor the same annotation
/// grammar for their own rule ids (`lock-order`, …).
pub struct Allows {
    /// Rules disabled per line (an annotation covers its own line and the
    /// next code line, spanning intervening comment-only lines).
    line: Vec<Vec<String>>,
}

impl Allows {
    /// Whether `rule` is suppressed on the 0-based line `line_idx`.
    pub fn allowed(&self, line_idx: usize, rule: &str) -> bool {
        self.line
            .get(line_idx)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
    }
}

/// Parse one comment for an annotation. Returns the rule id when present
/// *and* carrying a non-empty reason; reasonless annotations are ignored so
/// the underlying violation still fires.
fn parse_allow(comment: &str) -> Option<String> {
    let at = comment.find("lint: allow")?;
    let rest = comment[at + "lint: allow".len()..].trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rule = inner[..close].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    // Reason: anything after an em dash, hyphen, or colon separator.
    let tail = inner[close + 1..].trim_start();
    let reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix('-'))
        .or_else(|| tail.strip_prefix(':'))?
        .trim();
    if reason.is_empty() {
        return None;
    }
    Some(rule)
}

/// Collects every reasoned `// lint: allow(...)` annotation of a file into
/// a per-line lookup structure.
pub fn collect_allows(lines: &[Line]) -> Allows {
    let mut line: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    for (i, l) in lines.iter().enumerate() {
        if let Some(rule) = parse_allow(&l.comment) {
            line[i].push(rule.clone());
            // Extend over comment-only / blank lines so a multi-line reason
            // still covers the next code line.
            let mut j = i + 1;
            while j < lines.len() && lines[j].code.trim().is_empty() {
                line[j].push(rule.clone());
                j += 1;
            }
            if j < lines.len() {
                line[j].push(rule);
            }
        }
    }
    Allows { line }
}

/// Does this line's code carry a `#[cfg(...)]` attribute that enables the
/// region only under `test`? (`not(test)` and `cfg_attr` do not count.)
fn is_test_cfg(code: &str) -> bool {
    if !code.contains("#[cfg(") {
        return false;
    }
    let mut search = 0usize;
    while let Some(pos) = code[search..].find("test") {
        let abs = search + pos;
        let before = &code[..abs];
        let prefixed_not = before.ends_with("not(");
        let boundary_ok = before.ends_with('(') || before.ends_with(',') || before.ends_with(' ');
        let after = &code[abs + 4..];
        let suffix_ok = after.starts_with(')') || after.starts_with(',');
        if boundary_ok && suffix_ok && !prefixed_not {
            return true;
        }
        search = abs + 4;
    }
    false
}

/// Mark every line inside a `#[cfg(test)] mod … { … }` region (by brace
/// depth) and return the per-line flags.
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut depth = 0usize;
    let mut pending = false;
    let mut region: Option<usize> = None;
    for (i, l) in lines.iter().enumerate() {
        if is_test_cfg(&l.code) {
            pending = true;
        }
        let mut opened_region = false;
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region.is_none() {
                        region = Some(depth);
                        pending = false;
                        opened_region = true;
                    }
                }
                '}' => {
                    if region == Some(depth) {
                        region = None;
                        // The closing line itself still belongs to the region.
                        opened_region = true;
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        // A braceless item (e.g. a cfg'd `use`) consumes the attribute.
        if pending && l.code.contains(';') && !l.code.contains('{') {
            pending = false;
            in_test[i] = true;
            continue;
        }
        in_test[i] = region.is_some() || opened_region;
    }
    in_test
}

const RMW_PATTERNS: &[&str] = &[
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_or(",
    ".fetch_and(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_update(",
];

const ORDERING_VARIANTS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

const HOTPATH_PATTERNS: &[(&str, &str)] = &[
    (
        "HashMap::new(",
        "HashMap::new() in a latency-budgeted hot path",
    ),
    (
        "HashSet::new(",
        "HashSet::new() in a latency-budgeted hot path",
    ),
    (
        "BTreeMap::new(",
        "BTreeMap::new() in a latency-budgeted hot path",
    ),
    (
        ".contains(&",
        "O(n) .contains(&…) scan in a latency-budgeted hot path",
    ),
];

/// Member-[`Engine`] entry points as seen from the sharded router: a lock
/// guard live across any of these serializes (or deadlocks) the tier.
const ENGINE_ENTRY_PATTERNS: &[&str] = &[
    ".open_session(",
    ".restore_session(",
    ".expand(",
    ".with_session(",
    ".close_session(",
    ".stats(",
];

const SOLVE_PATTERNS: &[&str] = &[
    "partition_until",
    "plan_component",
    "solve_full",
    "best_cut",
    "expand_cached",
    "heuristic_reduced_opt",
    ".solve(",
];

/// A live lock guard being tracked for the `lock-across-solve` rule.
struct Guard {
    name: String,
    /// Brace depth at the end of the declaring line; the guard dies when
    /// depth drops below this.
    depth: usize,
    decl_line: usize,
    allowed: bool,
}

fn guard_name(code: &str) -> Option<String> {
    let let_pos = code.find("let ")?;
    let rest = &code[let_pos + 4..];
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Lint one source file. `path` is workspace-relative and drives scoping
/// (the hot-path regions and the sharded router) — fixture tests pass
/// virtual paths.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let lines = lexer::split(src);
    let allows = collect_allows(&lines);
    let in_test = test_regions(&lines);
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            path: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    // The two latency-budgeted regions: the EXPAND hot path (edgecut) and
    // the cold-open tree build (navtree), which is additionally required to
    // be bit-deterministic — hash iteration order would break that too.
    let hotpath = path.contains("/edgecut/") || path.ends_with("core/src/navtree.rs");
    // The sharded router: the one file where a lock guard spanning an
    // Engine entry point breaks the shard-independence invariant.
    let shard_scope = path.ends_with("core/src/shard.rs");
    let mut guards: Vec<Guard> = Vec::new();
    let mut shard_guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;

    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        let depth_after = {
            let mut d = depth;
            for c in code.chars() {
                match c {
                    '{' => d += 1,
                    '}' => d = d.saturating_sub(1),
                    _ => {}
                }
            }
            d
        };
        if in_test[i] {
            // Guards cannot outlive a test region boundary meaningfully for
            // this rule; just retire the ones whose scope closed.
            guards.retain(|g| depth_after >= g.depth);
            shard_guards.retain(|g| depth_after >= g.depth);
            depth = depth_after;
            continue;
        }

        // atomic-ordering --------------------------------------------------
        for pat in RMW_PATTERNS {
            if code.contains(pat) && !allows.allowed(i, "atomic-ordering") {
                let explicit =
                    (i..lines.len().min(i + 3)).any(|j| lines[j].code.contains("Ordering::"));
                if !explicit {
                    push(
                        i,
                        "atomic-ordering",
                        format!(
                            "atomic op {} without an explicit Ordering argument",
                            pat.trim_matches(['.', '('])
                        ),
                    );
                }
            }
        }
        if ORDERING_VARIANTS.iter().any(|v| code.contains(v))
            && !allows.allowed(i, "atomic-ordering")
        {
            let commented = (i.saturating_sub(3)..=i).any(|j| !lines[j].comment.trim().is_empty());
            if !commented {
                push(
                    i,
                    "atomic-ordering",
                    "Ordering use lacks a justification comment (same line or the 3 above)"
                        .to_string(),
                );
            }
        }

        // hotpath-no-hashmap ----------------------------------------------
        if hotpath {
            for (pat, what) in HOTPATH_PATTERNS {
                if code.contains(pat) && !allows.allowed(i, "hotpath-no-hashmap") {
                    push(
                        i,
                        "hotpath-no-hashmap",
                        format!(
                            "{what}; route through the scratch.rs arenas or flat sorted columns"
                        ),
                    );
                }
            }
        }

        // lock-across-solve ------------------------------------------------
        let solve_hit = SOLVE_PATTERNS.iter().find(|p| code.contains(**p));
        if let Some(pat) = solve_hit {
            // Live guard from an earlier line?
            if let Some(g) = guards.iter().find(|g| !g.allowed) {
                if !allows.allowed(i, "lock-across-solve") {
                    push(
                        i,
                        "lock-across-solve",
                        format!(
                            "solver call `{pat}` while lock guard `{}` (line {}) is held; \
                             drop the guard first or annotate the design",
                            g.name,
                            g.decl_line + 1
                        ),
                    );
                }
            } else if let Some(lock_pos) = code.find(".lock()") {
                // Same-line temporary guard: m.lock().solve_something(…).
                if code[lock_pos..].contains(pat) && !allows.allowed(i, "lock-across-solve") {
                    push(
                        i,
                        "lock-across-solve",
                        format!("solver call `{pat}` on a temporary lock guard held for the call"),
                    );
                }
            }
        }
        // no-cross-shard-lock ----------------------------------------------
        if shard_scope {
            let entry_hit = ENGINE_ENTRY_PATTERNS.iter().find(|p| code.contains(**p));
            if let Some(pat) = entry_hit {
                if let Some(g) = shard_guards.iter().find(|g| !g.allowed) {
                    if !allows.allowed(i, "no-cross-shard-lock") {
                        push(
                            i,
                            "no-cross-shard-lock",
                            format!(
                                "engine entry point `{pat}` while lock guard `{}` (line {}) is \
                                 held; shards must stay lock-independent — drop the guard first \
                                 or annotate the design",
                                g.name,
                                g.decl_line + 1
                            ),
                        );
                    }
                } else if let Some(lock_pos) = code.find(".lock()") {
                    // Same-line temporary guard: table.lock().with_session(…).
                    if code[lock_pos..].contains(pat) && !allows.allowed(i, "no-cross-shard-lock") {
                        push(
                            i,
                            "no-cross-shard-lock",
                            format!(
                                "engine entry point `{pat}` on a temporary lock guard held for \
                                 the call"
                            ),
                        );
                    }
                }
            }
        }
        // Guard bookkeeping, after violation checks so a let-line cannot
        // flag itself twice.
        if code.contains(".lock()") && code.contains("let ") {
            if let Some(name) = guard_name(code) {
                guards.push(Guard {
                    allowed: allows.allowed(i, "lock-across-solve"),
                    name: name.clone(),
                    depth: depth_after,
                    decl_line: i,
                });
                if shard_scope {
                    shard_guards.push(Guard {
                        allowed: allows.allowed(i, "no-cross-shard-lock"),
                        name,
                        depth: depth_after,
                        decl_line: i,
                    });
                }
            }
        }
        guards.retain(|g| depth_after >= g.depth && !code.contains(&format!("drop({})", g.name)));
        shard_guards
            .retain(|g| depth_after >= g.depth && !code.contains(&format!("drop({})", g.name)));
        depth = depth_after;
    }
    findings
}
