//! Trace and metrics exporters (DESIGN.md §5e).
//!
//! Two dependency-free output formats:
//!
//! * [`prometheus_text`] — the Prometheus text exposition format
//!   (`# HELP`/`# TYPE`, cumulative histogram buckets derived from the
//!   [`LatencyHistogram`](crate::telemetry::LatencyHistogram) log-linear
//!   geometry via `count_at_or_below`, monotone counters, gauges) of
//!   labeled telemetry [`Snapshot`]s.
//! * [`chrome_trace`] — Chrome trace-event JSON in the *JSON Array
//!   Format* (a bare array of `B`/`E` duration events), loadable in
//!   Perfetto and `chrome://tracing`.

use std::collections::HashMap;
use std::fmt::Write as _;

use serde::Serialize;

use super::ring::{SpanEvent, SpanKind};
use super::Stage;
use crate::telemetry::{HistogramSnapshot, Snapshot, Tally};

/// Histogram `le` ladder in nanoseconds: powers of two from 1 µs to
/// ~16.8 s, which brackets every latency the serve path can plausibly
/// produce. Finite buckets are printed as seconds; `+Inf` closes the
/// ladder.
pub fn bucket_ladder_ns() -> impl Iterator<Item = u64> {
    (0..=24u32).map(|i| 1000u64 << i)
}

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Static label values in this module are all escape-free identifiers;
/// this exists for values that flow in from outside (and is what the
/// escaping edge-case tests pin down).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Joins a view's base labels (e.g. `shard="0"`, possibly empty) with a
/// metric's own labels (e.g. `result="hit"`, possibly empty) into one
/// brace-ready label body.
fn join_labels(base: &str, extra: &str) -> String {
    match (base.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => extra.to_string(),
        (false, true) => base.to_string(),
        (false, false) => format!("{base},{extra}"),
    }
}

fn write_series(out: &mut String, metric: &str, labels: &str, value: impl std::fmt::Display) {
    if labels.is_empty() {
        let _ = writeln!(out, "{metric} {value}");
    } else {
        let _ = writeln!(out, "{metric}{{{labels}}} {value}");
    }
}

fn write_histogram(
    out: &mut String,
    metric: &str,
    labels: &str,
    snap: &HistogramSnapshot,
    sum_ns: u64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    for le_ns in bucket_ladder_ns() {
        let le = le_ns as f64 / 1e9;
        let c = snap.count_at_or_below(le_ns);
        let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"{le}\"}} {c}");
    }
    let _ = writeln!(
        out,
        "{metric}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.total()
    );
    write_series(out, &format!("{metric}_sum"), labels, sum_ns as f64 / 1e9);
    write_series(out, &format!("{metric}_count"), labels, snap.total());
}

/// Render one exposition covering every `(labels, snapshot)` view. The
/// label body (no braces) is empty for a single engine and `shard="i"`
/// per shard of a tier. Each metric family's `# HELP`/`# TYPE` header
/// appears exactly once, followed by one series (or histogram) per view
/// carrying that view's labels — duplicate headers, which Prometheus
/// rejects, cannot occur. Every [`Stage`] is exported, idle ones
/// included, so the exposition shape is stable.
pub fn prometheus_text(views: &[(String, Snapshot)]) -> String {
    let mut out = String::with_capacity(16 * 1024 * views.len().max(1));

    let _ = writeln!(
        out,
        "# HELP bionav_expand_latency_seconds End-to-end EXPAND latency."
    );
    let _ = writeln!(out, "# TYPE bionav_expand_latency_seconds histogram");
    for (labels, snap) in views {
        write_histogram(
            &mut out,
            "bionav_expand_latency_seconds",
            labels,
            &snap.expand,
            snap.expand.approx_sum(),
        );
    }

    let _ = writeln!(
        out,
        "# HELP bionav_stage_latency_seconds Per-stage serve-path span latency."
    );
    let _ = writeln!(out, "# TYPE bionav_stage_latency_seconds histogram");
    for (labels, snap) in views {
        for (stage, (hist, sum_ns)) in Stage::ALL.iter().zip(&snap.stages) {
            let labels = join_labels(labels, &format!("stage=\"{}\"", stage.name()));
            write_histogram(
                &mut out,
                "bionav_stage_latency_seconds",
                &labels,
                hist,
                *sum_ns,
            );
        }
    }

    // Counter/gauge families: (metric, help, type, per-view series fn).
    struct Family {
        metric: &'static str,
        help: &'static str,
        kind: &'static str,
        series: fn(&Snapshot) -> Vec<(&'static str, u64)>,
    }
    let families = [
        Family {
            metric: "bionav_tree_cache_lookups_total",
            help: "Navigation-tree cache lookups by result.",
            kind: "counter",
            series: |s| {
                vec![
                    ("result=\"hit\"", s.cache_hits),
                    ("result=\"miss\"", s.cache_misses),
                ]
            },
        },
        Family {
            metric: "bionav_tree_cache_evictions_total",
            help: "Trees dropped by LRU pressure.",
            kind: "counter",
            series: |s| vec![("", s.cache_evictions)],
        },
        Family {
            metric: "bionav_cut_cache_lookups_total",
            help: "Cross-session cut-cache lookups by result.",
            kind: "counter",
            series: |s| {
                vec![
                    ("result=\"hit\"", s.cut_cache_hits),
                    ("result=\"miss\"", s.cut_cache_misses),
                ]
            },
        },
        Family {
            metric: "bionav_sessions_opened_total",
            help: "Sessions ever opened.",
            kind: "counter",
            series: |s| vec![("", s.tally(Tally::SessionsOpened))],
        },
        Family {
            metric: "bionav_sessions_closed_total",
            help: "Sessions ever closed.",
            kind: "counter",
            series: |s| vec![("", s.tally(Tally::SessionsClosed))],
        },
        Family {
            metric: "bionav_sessions_active",
            help: "Sessions currently parked in the table.",
            kind: "gauge",
            series: |s| vec![("", s.sessions_active)],
        },
        Family {
            metric: "bionav_degraded_expands_total",
            help: "EXPANDs answered by the graceful-degradation ladder, \
                   by rung (DESIGN.md \u{a7}5f).",
            kind: "counter",
            series: |s| {
                vec![
                    ("rung=\"myopic\"", s.tally(Tally::DegradedMyopic)),
                    ("rung=\"static\"", s.tally(Tally::DegradedStatic)),
                ]
            },
        },
        Family {
            metric: "bionav_shed_expands_total",
            help: "EXPANDs refused by the admission gate.",
            kind: "counter",
            series: |s| vec![("", s.tally(Tally::ShedExpands))],
        },
        Family {
            metric: "bionav_shed_total",
            help: "Requests refused by the overload-control plane, by \
                   typed reason (DESIGN.md \u{a7}5k).",
            kind: "counter",
            // Exhaustive over [`crate::admission::ShedReason`] so a new
            // reason cannot ship without a series (label values are the
            // variants' `name()` strings: queue = admission gate,
            // deadline = expired on arrival, breaker = circuit open).
            series: |s| {
                crate::admission::ShedReason::ALL
                    .iter()
                    .map(|r| match r {
                        crate::admission::ShedReason::Queue => {
                            ("reason=\"queue\"", s.tally(Tally::ShedExpands))
                        }
                        crate::admission::ShedReason::Deadline => {
                            ("reason=\"deadline\"", s.tally(Tally::DeadlineRejects))
                        }
                        crate::admission::ShedReason::Breaker => {
                            ("reason=\"breaker\"", s.breaker_rejects)
                        }
                    })
                    .collect()
            },
        },
        Family {
            metric: "bionav_deadline_rejects_total",
            help: "Requests whose end-to-end deadline had already expired \
                   on arrival (rejected before any solver work).",
            kind: "counter",
            series: |s| vec![("", s.tally(Tally::DeadlineRejects))],
        },
        Family {
            metric: "bionav_admission_limit",
            help: "Static in-flight EXPAND cap of the admission gate (0 = ungated).",
            kind: "gauge",
            series: |s| vec![("", s.admission_limit)],
        },
        Family {
            metric: "bionav_breaker_state",
            help: "Circuit-breaker state (0 = closed, 1 = open, \
                   2 = half-open).",
            kind: "gauge",
            series: |s| vec![("", s.breaker_state)],
        },
        Family {
            metric: "bionav_breaker_rejects_total",
            help: "Requests fast-failed by an open circuit breaker.",
            kind: "counter",
            series: |s| vec![("", s.breaker_rejects)],
        },
        Family {
            metric: "bionav_session_panics_total",
            help: "Session operations that panicked and were caught \
                   (the session is quarantined).",
            kind: "counter",
            series: |s| vec![("", s.tally(Tally::SessionPanics))],
        },
        Family {
            metric: "bionav_sessions_quarantined",
            help: "Poisoned sessions still parked in the table \
                   (drained by close_session).",
            kind: "gauge",
            series: |s| vec![("", s.sessions_quarantined)],
        },
        Family {
            metric: "bionav_trace_events_total",
            help: "Span events ever pushed to the trace ring.",
            kind: "counter",
            series: |s| vec![("", s.trace_events)],
        },
    ];
    for f in &families {
        let _ = writeln!(out, "# HELP {} {}", f.metric, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.metric, f.kind);
        for (labels, snap) in views {
            for (extra, value) in (f.series)(snap) {
                write_series(&mut out, f.metric, &join_labels(labels, extra), value);
            }
        }
    }

    // The SLO monitor (DESIGN.md §5j): one gauge series per burn row. The
    // verb/window values come from the burn rows, so they go through the
    // label-value escaper.
    let _ = writeln!(
        out,
        "# HELP bionav_slo_burn_rate Error-budget burn rate per SLO verb \
         and window (1.0 = burning exactly at the objective)."
    );
    let _ = writeln!(out, "# TYPE bionav_slo_burn_rate gauge");
    for (labels, snap) in views {
        for b in snap.slo_burn() {
            let extra = format!(
                "verb=\"{}\",window=\"{}\"",
                escape_label_value(&b.verb),
                escape_label_value(&b.window)
            );
            write_series(
                &mut out,
                "bionav_slo_burn_rate",
                &join_labels(labels, &extra),
                b.burn_rate,
            );
        }
    }

    out
}

/// One Chrome trace-event object. Field names follow the Trace Event
/// Format verbatim (the vendored serde has no rename support, so the
/// struct fields *are* the wire names).
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct ChromeEvent {
    /// Event name — the [`Stage::name`] of the span.
    pub name: String,
    /// Event category (constant `"bionav"`).
    pub cat: String,
    /// Phase: `"B"` (span begin) or `"E"` (span end).
    pub ph: String,
    /// Timestamp in microseconds since the trace epoch.
    pub ts: f64,
    /// Process id (constant 1 — single-process engine).
    pub pid: u64,
    /// Trace thread id of the emitting worker.
    pub tid: u64,
    /// Event arguments — the request-context join columns.
    pub args: ChromeArgs,
}

/// The `args` object on every [`ChromeEvent`]: what joins a span back to
/// its originating request (and to the flight-recorder entry carrying the
/// same id).
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct ChromeArgs {
    /// Originating request id; 0 when the span ran outside any request
    /// scope.
    pub rid: u64,
}

/// Render ring events as Chrome trace-event JSON (JSON Array Format).
///
/// The ring overwrites oldest events, so a snapshot can open with `End`
/// events whose `Begin` was overwritten; Perfetto rejects such stacks, so
/// unmatched leading `End`s are dropped per thread (depth counter).
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut depth: HashMap<u16, u64> = HashMap::new();
    let mut out: Vec<ChromeEvent> = Vec::with_capacity(events.len());
    for e in events {
        let (ph, keep) = match e.kind {
            SpanKind::Begin => {
                *depth.entry(e.tid).or_insert(0) += 1;
                ("B", true)
            }
            SpanKind::End => {
                let d = depth.entry(e.tid).or_insert(0);
                if *d == 0 {
                    // Begin was overwritten by the ring wrap: drop.
                    ("E", false)
                } else {
                    *d -= 1;
                    ("E", true)
                }
            }
        };
        if !keep {
            continue;
        }
        let name = Stage::from_index(e.stage)
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| format!("stage_{}", e.stage));
        out.push(ChromeEvent {
            name,
            cat: "bionav".to_string(),
            ph: ph.to_string(),
            ts: e.ns as f64 / 1_000.0,
            pid: 1,
            tid: u64::from(e.tid),
            args: ChromeArgs { rid: e.rid },
        });
    }
    // Serializing a Vec of plain structs into a String cannot fail; fall
    // back to an empty array rather than panicking in an exporter.
    serde_json::to_string(&out).unwrap_or_else(|_| "[]".to_string())
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_and_spans_the_serve_range() {
        let ladder: Vec<u64> = bucket_ladder_ns().collect();
        assert_eq!(ladder.len(), 25);
        assert_eq!(ladder[0], 1_000); // 1 µs
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        assert!(ladder[24] > 16_000_000_000); // > 16 s
    }

    #[test]
    fn chrome_trace_emits_valid_pairs_and_drops_orphan_ends() {
        let events = vec![
            // Orphaned End (its Begin was overwritten): must be dropped.
            SpanEvent {
                seq: 0,
                stage: Stage::Solve as u8,
                kind: SpanKind::End,
                tid: 1,
                ns: 500,
                rid: 0,
            },
            SpanEvent {
                seq: 1,
                stage: Stage::Partition as u8,
                kind: SpanKind::Begin,
                tid: 1,
                ns: 1_000,
                rid: 42,
            },
            SpanEvent {
                seq: 2,
                stage: Stage::Partition as u8,
                kind: SpanKind::End,
                tid: 1,
                ns: 3_000,
                rid: 42,
            },
        ];
        let json = chrome_trace(&events);
        let parsed: Vec<ChromeEvent> = serde_json::from_str(&json).expect("exporter emits JSON");
        assert_eq!(parsed.len(), 2, "orphan End must be dropped");
        assert_eq!(parsed[0].ph, "B");
        assert_eq!(parsed[0].name, "partition");
        assert_eq!(parsed[0].ts, 1.0);
        assert_eq!(parsed[0].args.rid, 42, "request id joins through args");
        assert_eq!(parsed[1].ph, "E");
        assert_eq!(parsed[1].ts, 3.0);
        assert_eq!(parsed[1].tid, 1);
        assert_eq!(parsed[1].args.rid, 42);
    }

    #[test]
    fn chrome_trace_of_nothing_is_an_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_and_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        // Compound: every special char in one value, already-escaped-looking
        // input is escaped again (the escaper is not idempotent-by-parsing).
        assert_eq!(escape_label_value("\\\"\n"), r#"\\\"\n"#);
        assert_eq!(escape_label_value(r"\n"), r"\\n");
    }

    /// An idle window's snapshot whose SLO counts burn at 0.5 — enough
    /// for exposition-shape tests without a live engine.
    fn snapshot_fixture() -> Snapshot {
        Snapshot {
            slo: [[(199, 200); 2]; crate::slo::SloVerb::COUNT],
            ..crate::telemetry::Window::new(0).snapshot(0)
        }
    }

    #[test]
    fn sharded_exposition_has_one_header_per_family_and_slo_series() {
        let views: Vec<(String, Snapshot)> = (0..3)
            .map(|i| (format!("shard=\"{i}\""), snapshot_fixture()))
            .collect();
        let text = prometheus_text(&views);
        // Exactly one HELP and one TYPE line per family, shards or not.
        for line in text.lines().filter(|l| l.starts_with('#')) {
            let count = text.lines().filter(|l| *l == line).count();
            assert_eq!(count, 1, "duplicate header line: {line}");
        }
        // Every family that appears as a series has exactly one TYPE line.
        let type_of = |metric: &str| {
            text.lines()
                .filter(|l| l.starts_with(&format!("# TYPE {metric} ")))
                .count()
        };
        assert_eq!(type_of("bionav_slo_burn_rate"), 1);
        assert_eq!(type_of("bionav_expand_latency_seconds"), 1);
        // One SLO series per shard × verb × window, each fully labeled.
        for i in 0..3 {
            for verb in crate::slo::SloVerb::ALL {
                for window in [crate::slo::WINDOW_TOTAL, crate::slo::WINDOW_RECENT] {
                    let series = format!(
                        "bionav_slo_burn_rate{{shard=\"{i}\",verb=\"{}\",window=\"{window}\"}} 0.5",
                        verb.name()
                    );
                    assert!(text.contains(&series), "missing series: {series}");
                }
            }
        }
    }

    #[test]
    fn overload_plane_series_carry_shed_reasons_and_shard_labels() {
        let mut snap = Snapshot {
            breaker_rejects: 11,
            admission_limit: 42,
            breaker_state: 2,
            ..snapshot_fixture()
        };
        snap.tallies[Tally::ShedExpands as usize] = 3;
        snap.tallies[Tally::DeadlineRejects as usize] = 7;
        let text = prometheus_text(&[("shard=\"1\"".to_string(), snap)]);
        // One series per ShedReason, every reason name present even when
        // its counter is nonzero/zero — the exposition shape is stable.
        for reason in crate::admission::ShedReason::ALL {
            assert!(
                text.contains(&format!(
                    "bionav_shed_total{{shard=\"1\",reason=\"{}\"}}",
                    reason.name()
                )),
                "missing shed reason series: {}",
                reason.name()
            );
        }
        assert!(text.contains("bionav_shed_total{shard=\"1\",reason=\"queue\"} 3"));
        assert!(text.contains("bionav_shed_total{shard=\"1\",reason=\"deadline\"} 7"));
        assert!(text.contains("bionav_shed_total{shard=\"1\",reason=\"breaker\"} 11"));
        assert!(text.contains("bionav_deadline_rejects_total{shard=\"1\"} 7"));
        assert!(text.contains("bionav_admission_limit{shard=\"1\"} 42"));
        assert!(text.contains("bionav_breaker_state{shard=\"1\"} 2"));
        assert!(text.contains("bionav_breaker_rejects_total{shard=\"1\"} 11"));
        // Gauge/counter kinds are declared correctly, exactly once.
        assert!(text.contains("# TYPE bionav_admission_limit gauge"));
        assert!(text.contains("# TYPE bionav_breaker_state gauge"));
        assert!(text.contains("# TYPE bionav_shed_total counter"));
    }

    #[test]
    fn exposition_round_trips_through_a_text_format_parser() {
        // A minimal text-exposition parser: TYPE declarations must precede
        // their series, label bodies must re-parse (quotes balanced after
        // unescaping), and every sample line must be `name{labels} value`.
        let text = prometheus_text(&[("shard=\"0\"".to_string(), snapshot_fixture())]);
        let mut typed: Vec<String> = Vec::new();
        let mut samples = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let metric = parts.next().expect("TYPE names a metric").to_string();
                let kind = parts.next().expect("TYPE has a kind");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown kind {kind}"
                );
                assert!(!typed.contains(&metric), "duplicate TYPE for {metric}");
                typed.push(metric);
                continue;
            }
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            samples += 1;
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {value}");
            let name = match name_labels.split_once('{') {
                Some((name, labels)) => {
                    let body = labels.strip_suffix('}').expect("balanced braces");
                    for pair in body.split("\",") {
                        let (k, v) = pair.split_once("=\"").expect("label is key=\"value\"");
                        assert!(!k.is_empty() && !k.contains('"'), "bad label key {k}");
                        let v = v.strip_suffix('"').unwrap_or(v);
                        assert!(!v.contains('\n'), "raw newline in label value {v}");
                    }
                    name
                }
                None => name_labels,
            };
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                typed.contains(&family.to_string()),
                "series {name} appears before its TYPE declaration"
            );
        }
        assert!(samples > 50, "exposition unexpectedly small: {samples}");
    }
}
