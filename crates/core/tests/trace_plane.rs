//! Integration tests for the observability plane (DESIGN.md §5e):
//!
//! * per-stage breakdown counts consistent with [`edgecut::counters`],
//!   and one traced fixture emitting every [`Stage`],
//! * `serve-reset` atomically clears stage histograms, counters, AND the
//!   trace ring (the stale-sample regression the issue requires),
//! * `ServeStats::to_json` round-trips,
//! * Prometheus exposition shape (`# TYPE` lines, cumulative buckets),
//! * the exposition text and `ServeStats` JSON key order, pinned by a
//!   golden file (`tests/golden/exposition.prom`),
//! * Chrome trace JSON shape, and its request ids joining the flight
//!   recorder's,
//! * the Chrome trace and flight-recorder JSON of two fixed, wrapped local
//!   rings, pinned by a golden file (`tests/golden/ring_exports.txt`).
//!
//! Tests that flip the process-global trace toggle or clear the global
//! ring serialize behind `TRACE_LOCK`.

#![cfg(not(interleave))]

mod common;

use bionav_core::edgecut::counters;
use bionav_core::slo::{self, SloVerb};
use bionav_core::telemetry::{HistogramSnapshot, LatencyHistogram, Snapshot, Tally};
use bionav_core::trace::export::prometheus_text;
use bionav_core::trace::{self, Stage};
use bionav_core::{
    CostParams, DegradePolicy, Engine, NavNodeId, ServeStats, ShardedEngine, SharedTree,
};

use common::{expand_fully, fixture_engine_with, multi_node_queries, on_threads};

/// Serializes tests that mutate process-global trace state (the ring and
/// the enable toggle) — `Engine::reset_stats` clears the global ring, so
/// even toggle-free tests that count ring events take this.
static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The engine-fixture recipe shared with `engine.rs`'s unit tests, caching
/// up to 4 trees.
fn fixture_engine() -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
    fixture_engine_with(CostParams::default(), 4)
}

/// A query whose navigation tree has more than three nodes (so EXPAND
/// does real planning work).
fn multi_node_query(engine: &Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>) -> String {
    multi_node_queries(engine, 1, 3).remove(0)
}

fn stage_count(stats: &ServeStats, stage: Stage) -> u64 {
    stats
        .stages
        .iter()
        .find(|s| s.stage == stage.name())
        .map(|s| s.count)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Stage counts vs edgecut::counters (the acceptance criterion)
// ---------------------------------------------------------------------------

#[test]
fn stage_breakdown_counts_match_edgecut_counters() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);

    // Fresh EXPAND: exactly one partition run + one solve, and the stage
    // breakdown must agree with the edgecut counters — the capture tape
    // records every span (sampling only thins the ring), so these counts
    // are exact, not sampled.
    counters::reset();
    let a = engine.open_session(&query).unwrap();
    let first = engine.expand(a, NavNodeId::ROOT).unwrap().revealed;
    let stats = engine.stats();
    assert_eq!(
        counters::partition_runs(),
        1,
        "fresh expand partitions once"
    );
    let partitions = counters::partition_runs();
    let solves = counters::plan_solves();
    assert_eq!(
        stage_count(&stats, Stage::Partition),
        partitions,
        "partition span count must equal edgecut::counters::partition_runs: {:?}",
        stats.stages
    );
    assert_eq!(
        stage_count(&stats, Stage::Solve),
        solves,
        "solve span count must equal edgecut::counters::plan_solves"
    );
    assert_eq!(
        stage_count(&stats, Stage::ReducedBuild),
        solves,
        "every fresh solve builds one reduced problem"
    );
    assert_eq!(stage_count(&stats, Stage::Expand), 1);
    assert_eq!(stage_count(&stats, Stage::OpenSession), 1);
    assert_eq!(stage_count(&stats, Stage::ApplyCut), 1);
    assert_eq!(
        stage_count(&stats, Stage::CutCacheLookup),
        1,
        "first expand probes the cut cache once"
    );
    assert!(
        stage_count(&stats, Stage::LockWait) >= 2,
        "cache + session-table acquisitions must be spanned"
    );
    engine.close_session(a).unwrap();

    // Repeat component over a new session: served from the cut cache —
    // no new partition/solve spans, but one more cut-cache probe.
    counters::reset();
    let b = engine.open_session(&query).unwrap();
    let second = engine.expand(b, NavNodeId::ROOT).unwrap().revealed;
    assert_eq!(second, first);
    assert_eq!(counters::partition_runs(), 0);
    let stats = engine.stats();
    assert_eq!(
        stage_count(&stats, Stage::Partition),
        partitions,
        "cut-cache hit must not add a partition span"
    );
    assert_eq!(stage_count(&stats, Stage::Solve), solves);
    assert_eq!(stage_count(&stats, Stage::CutCacheLookup), 2);
    assert_eq!(stage_count(&stats, Stage::Expand), 2);
    assert_eq!(stats.cut_cache_hits, 1);
    assert_eq!(stats.cut_cache_misses, 1);
    engine.close_session(b).unwrap();
}

/// The open-session split tiles: every open is a cache hit or a cold
/// build, and each side equals the tree cache's own counter.
fn assert_open_split_tiles(stats: &ServeStats) {
    let opens = stage_count(stats, Stage::OpenSession);
    let hit = stage_count(stats, Stage::OpenSessionHit);
    let cold = stage_count(stats, Stage::OpenSessionCold);
    assert!(
        opens > 0 && cold > 0,
        "fixture must open cold: {:?}",
        stats.stages
    );
    assert_eq!(opens, hit + cold, "open_session = hit + cold");
    assert_eq!(cold, stats.cache_misses, "cold opens = tree-cache misses");
    assert_eq!(hit, stats.cache_hits, "hit opens = tree-cache hits");
}

#[test]
fn threaded_navigations_feed_the_stage_family() {
    let _g = trace_lock();
    // Probe on a throwaway engine so the served engines start cold.
    let query = multi_node_query(&fixture_engine());
    let jobs = vec![query; 3];
    let navigated = |out: Vec<Result<common::Navigated, _>>| {
        out.iter().all(|o| {
            o.as_ref()
                .is_ok_and(|n| n.cost.expands > 0 && n.degraded == 0)
        })
    };
    let engine = fixture_engine();
    assert!(navigated(on_threads(&jobs, |q| expand_fully(&engine, q))));
    let stats = engine.stats();
    assert_eq!(stage_count(&stats, Stage::OpenSession), 3);
    assert!(stage_count(&stats, Stage::Expand) >= 3);
    assert_eq!(
        stage_count(&stats, Stage::Expand) as usize,
        stats.expand_count,
        "stage family and EXPAND histogram must agree on the op count"
    );
    assert_open_split_tiles(&stats);

    // The same tiling holds on a two-shard tier's merged stats.
    let sharded = ShardedEngine::new(2, |_| fixture_engine());
    assert!(navigated(on_threads(&jobs, |q| {
        expand_fully(sharded.engine(sharded.open_placement(q)), q)
    })));
    let merged = sharded.stats();
    assert_eq!(stage_count(&merged, Stage::OpenSession), 3);
    assert_open_split_tiles(&merged);
}

/// One traced fixture reaches every [`Stage`]: opens (cold and hit), exact
/// EXPANDs (one answered by the cross-session cut cache), a degraded
/// EXPAND served from a retained plan, and SHOWRESULTS. A stage is
/// recorded if the engines' stage metrics counted it or the ring holds its
/// span; the open hit/cold split is tape-only, SHOWRESULTS runs outside
/// an engine request and reaches only the ring.
#[test]
fn one_traced_fixture_emits_every_stage() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_sample_every(1);
    trace::clear_ring();

    // Cross-session cut cache: a cold open, a hit open, and the second
    // root EXPAND served from the first one's cut.
    let exact = fixture_engine();
    let query = multi_node_query(&fixture_engine());
    let a = exact.open_session(&query).unwrap();
    let b = exact.open_session(&query).unwrap();
    exact.expand(a, NavNodeId::ROOT).unwrap();
    exact.expand(b, NavNodeId::ROOT).unwrap();
    exact
        .with_session(a, |s| s.show_results(NavNodeId::ROOT))
        .unwrap()
        .unwrap();

    // Retained plans (reuse_plans bypasses the cut cache): the exact root
    // EXPAND retains its children's plans, then a budget-1 policy forces
    // the next EXPAND onto the ladder, whose myopic rung cuts from memo.
    let mut reusing = fixture_engine_with(
        CostParams {
            reuse_plans: true,
            ..CostParams::default()
        },
        4,
    );
    let c = reusing.open_session(&query).unwrap();
    reusing.expand(c, NavNodeId::ROOT).unwrap();
    reusing.set_policy(DegradePolicy {
        exact_node_budget: 1,
        ..DegradePolicy::default()
    });
    let node = reusing
        .with_session(c, |s| {
            s.nav()
                .iter_preorder()
                .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1)
        })
        .unwrap()
        .expect("the root EXPAND reveals a multi-node component");
    assert!(reusing.expand(c, node).unwrap().degraded.is_some());
    trace::set_enabled(false);

    let mut recorded: Vec<String> = trace::ring_snapshot()
        .iter()
        .filter_map(|e| Stage::from_index(e.stage))
        .map(|s| s.name().to_string())
        .collect();
    for stats in [exact.stats(), reusing.stats()] {
        let counted = stats.stages.into_iter().filter(|s| s.count > 0);
        recorded.extend(counted.map(|s| s.stage));
    }
    let missing: Vec<&str> = Stage::ALL
        .iter()
        .map(|s| s.name())
        .filter(|name| !recorded.iter().any(|r| r == name))
        .collect();
    assert!(missing.is_empty(), "stages never recorded: {missing:?}");
}

// ---------------------------------------------------------------------------
// Satellite: reset semantics (no stale samples leak across windows)
// ---------------------------------------------------------------------------

#[test]
fn reset_stats_clears_stages_and_ring_in_one_pass() {
    let _g = trace_lock();
    trace::set_enabled(true);
    trace::set_sample_every(1);
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let before = engine.stats();
    assert!(!before.stages.is_empty());
    assert!(
        !trace::ring_snapshot().is_empty(),
        "enabled tracing must emit ring events"
    );
    let pushed_before = before.trace_events;
    assert!(pushed_before > 0);

    engine.reset_stats();
    trace::set_enabled(false);

    // One atomic pass: stage histograms, sums, counters, AND the ring.
    let after = engine.stats();
    assert!(
        after.stages.is_empty(),
        "stale stage samples leaked: {:?}",
        after.stages
    );
    assert_eq!(after.expand_count, 0);
    assert!(trace::ring_snapshot().is_empty(), "ring events leaked");
    assert!(
        after.trace_events >= pushed_before,
        "the push counter is monotone across resets"
    );

    // Recording across the reset boundary: the next window only holds the
    // new window's samples.
    let _ = engine.expand(id, NavNodeId::ROOT);
    let next = engine.stats();
    assert_eq!(stage_count(&next, Stage::Expand), 1);
    assert_eq!(next.expand_count, 1);
    for s in &next.stages {
        assert!(
            s.count <= 2,
            "stage {} carried stale samples across the reset: {}",
            s.stage,
            s.count
        );
    }
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: ServeStats::to_json round-trip
// ---------------------------------------------------------------------------

#[test]
fn serve_stats_json_round_trips() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let stats = engine.stats();
    assert!(!stats.stages.is_empty());

    let json = stats.to_json().expect("stats snapshot serializes");
    assert!(json.contains("\"expand_p99_us\""));
    assert!(json.contains("\"stages\""));
    assert!(json.contains("\"partition\""));
    let parsed = ServeStats::from_json(&json).expect("round-trip parses");
    assert_eq!(parsed.expand_count, stats.expand_count);
    assert_eq!(parsed.sessions_opened, stats.sessions_opened);
    assert_eq!(parsed.trace_events, stats.trace_events);
    assert_eq!(parsed.stages.len(), stats.stages.len());
    for (a, b) in parsed.stages.iter().zip(&stats.stages) {
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.count, b.count);
        assert_eq!(a.p99_us, b.p99_us);
    }
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

#[test]
fn prometheus_exposition_has_types_and_monotone_buckets() {
    let _g = trace_lock();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let text = engine.prometheus_text();

    // The exact # TYPE lines CI smoke-greps for.
    for line in [
        "# TYPE bionav_expand_latency_seconds histogram",
        "# TYPE bionav_stage_latency_seconds histogram",
        "# TYPE bionav_tree_cache_lookups_total counter",
        "# TYPE bionav_cut_cache_lookups_total counter",
        "# TYPE bionav_sessions_opened_total counter",
        "# TYPE bionav_sessions_active gauge",
        "# TYPE bionav_trace_events_total counter",
        "# TYPE bionav_degraded_expands_total counter",
        "# TYPE bionav_shed_expands_total counter",
        "# TYPE bionav_session_panics_total counter",
        "# TYPE bionav_sessions_quarantined gauge",
        "# TYPE bionav_slo_burn_rate gauge",
    ] {
        assert!(text.contains(line), "missing exposition line: {line}");
    }
    // Every (verb, window) SLO series is exported even before any burn.
    for series in [
        "bionav_slo_burn_rate{verb=\"open\",window=\"total\"}",
        "bionav_slo_burn_rate{verb=\"open\",window=\"recent\"}",
        "bionav_slo_burn_rate{verb=\"expand\",window=\"total\"}",
        "bionav_slo_burn_rate{verb=\"expand\",window=\"recent\"}",
    ] {
        assert!(text.contains(series), "missing SLO series: {series}");
    }
    assert!(text.contains("bionav_stage_latency_seconds_bucket{stage=\"partition\",le="));
    assert!(text.contains("bionav_stage_latency_seconds_count{stage=\"partition\"} 1"));
    assert!(text.contains("le=\"+Inf\""));
    // The fault plane is silent on this clean path but still exposed.
    assert!(text.contains("bionav_degraded_expands_total{rung=\"myopic\"} 0"));
    assert!(text.contains("bionav_degraded_expands_total{rung=\"static\"} 0"));
    assert!(text.contains("bionav_shed_expands_total 0"));

    // Cumulative histogram buckets must be monotone non-decreasing.
    let mut prev: Option<u64> = None;
    for line in text.lines() {
        if line.starts_with("bionav_expand_latency_seconds_bucket") {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket line ends in a count");
            if let Some(p) = prev {
                assert!(v >= p, "bucket series not cumulative: {line}");
            }
            prev = Some(v);
        }
    }
    assert_eq!(
        prev,
        Some(1),
        "+Inf bucket must equal the 1 recorded EXPAND"
    );
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Golden exposition: fixed inputs, byte-exact text
// ---------------------------------------------------------------------------

/// The committed exposition for [`golden_exposition`]'s fixed inputs.
const GOLDEN_EXPOSITION: &str = include_str!("golden/exposition.prom");

/// `ServeStats` JSON top-level keys in wire order ([`ROW_KEYS`] holds the
/// `slo_burn` and `stages` row keys). navbench and the wire `STATS` verb
/// read this document.
const SERVE_STATS_KEYS: [&str; 30] = [
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_entries",
    "cache_capacity",
    "cache_hit_rate",
    "cut_cache_hits",
    "cut_cache_misses",
    "sessions_opened",
    "sessions_closed",
    "sessions_active",
    "sessions_quarantined",
    "session_panics",
    "degraded_expands",
    "degraded_myopic",
    "degraded_static",
    "shed_expands",
    "deadline_rejects",
    "breaker_rejects",
    "admission_limit",
    "breaker_state",
    "expand_count",
    "expand_p50_us",
    "expand_p95_us",
    "expand_p99_us",
    "elapsed_secs",
    "sessions_per_sec",
    "slo_burn",
    "stages",
    "trace_events",
];
const ROW_KEYS: [&str; 12] = [
    "verb",
    "window",
    "burn_rate",
    "target_p99_ms",
    "good",
    "total",
    "stage",
    "count",
    "p50_us",
    "p95_us",
    "p99_us",
    "total_ms",
];

fn hist(samples: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &ns in samples {
        h.record(ns);
    }
    h.snapshot()
}

/// EXPAND and per-stage latency samples (ns) for fixture view `k`; the
/// last EXPAND and the second open breach their SLO targets.
fn golden_samples(k: u64) -> (Vec<u64>, Vec<(Stage, Vec<u64>)>) {
    let expand = vec![40_000 * k, 55_000, 80_000, 1_200_000, 30_000_000 * k];
    let stages = vec![
        (Stage::Expand, expand.clone()),
        (Stage::OpenSession, vec![2_000_000 * k, 150_000_000]),
        (Stage::Partition, vec![300_000 * k, 450_000]),
        (Stage::Solve, vec![90_000]),
        (Stage::ApplyCut, vec![5_000 * k]),
        (Stage::OpenSessionHit, vec![2_000_000 * k]),
        (Stage::OpenSessionCold, vec![150_000_000]),
    ];
    (expand, stages)
}

/// SLO `(good, total)` per verb, `[total window, recent window]`: the
/// total window counts the fixture histograms against each target.
fn golden_slo(
    k: u64,
    expand: &HistogramSnapshot,
    open: &HistogramSnapshot,
) -> [[(u64, u64); 2]; 2] {
    let count = |verb: SloVerb, snap: &HistogramSnapshot| {
        (
            snap.count_at_or_below(slo::slo_for(verb).target_p99_ns),
            snap.total(),
        )
    };
    [
        [count(SloVerb::Open, open), (k, k + 1)],
        [count(SloVerb::Expand, expand), (2 * k, 2 * k + 1)],
    ]
}

/// Fixture view `k`: every counter a literal function of `k`.
fn golden_view(k: u64) -> Snapshot {
    let (expand_samples, stage_samples) = golden_samples(k);
    let expand = hist(&expand_samples);
    let stages: Vec<(HistogramSnapshot, u64)> = Stage::ALL
        .iter()
        .map(|stage| {
            let samples = stage_samples
                .iter()
                .find(|(s, _)| s == stage)
                .map_or(&[][..], |(_, v)| v);
            (hist(samples), samples.iter().sum())
        })
        .collect();
    let slo = golden_slo(k, &expand, &stages[Stage::OpenSession as usize].0);
    Snapshot {
        cache_hits: 10 * k + 1,
        cache_misses: 3 * k + 2,
        cache_evictions: k,
        cache_entries: 4,
        cache_capacity: 4,
        cut_cache_hits: 7 * k + 3,
        cut_cache_misses: 2 * k + 1,
        tallies: Tally::ALL.map(|tally| match tally {
            Tally::SessionsOpened => 12 * k + 3,
            Tally::SessionsClosed => 11 * k + 2,
            Tally::SessionPanics => k,
            Tally::DegradedMyopic => 2 * k,
            Tally::DegradedStatic => k + 1,
            Tally::ShedExpands => 3 * k,
            Tally::DeadlineRejects => 4 * k + 1,
        }),
        sessions_active: k + 1,
        sessions_quarantined: k % 2,
        admission_limit: 16 + k,
        breaker_rejects: 5 * k,
        breaker_state: k % 3,
        expand,
        stages,
        slo,
        elapsed_ns: 0,
        trace_events: 4242,
    }
}

/// The unlabeled single-engine exposition of view 1, then the
/// `shard="i"` exposition of views 2 and 3.
fn golden_exposition() -> String {
    let mut text = prometheus_text(&[(String::new(), golden_view(1))]);
    text.push_str("# two shard-labeled views follow\n");
    text.push_str(&prometheus_text(&[
        ("shard=\"0\"".to_string(), golden_view(2)),
        ("shard=\"1\"".to_string(), golden_view(3)),
    ]));
    text
}

/// Object keys of a JSON document by nesting depth, in first-seen order
/// (depth 1 = the top-level object's keys).
fn json_keys(json: &str, depth: usize) -> Vec<String> {
    let (mut d, mut keys, mut in_str, mut esc) = (0usize, Vec::new(), false, false);
    let mut cur = String::new();
    let mut last_str = None;
    for c in json.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => {
                    esc = false;
                    cur.push(c);
                }
                (false, '\\') => esc = true,
                (false, '"') => {
                    in_str = false;
                    last_str = Some(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => d += 1,
            '}' | ']' => d -= 1,
            ':' => {
                if let Some(k) = last_str.take() {
                    if d == depth && !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
            c if !c.is_whitespace() => last_str = None,
            _ => {}
        }
    }
    keys
}

#[test]
fn exposition_and_stats_json_match_the_golden_file() {
    let text = golden_exposition();
    let drift = text
        .lines()
        .zip(GOLDEN_EXPOSITION.lines())
        .position(|(got, want)| got != want);
    assert_eq!(
        (drift, text.len()),
        (None, GOLDEN_EXPOSITION.len()),
        "exposition drifted from tests/golden/exposition.prom (first differing line index)"
    );

    let json = golden_view(1).stats().to_json().expect("stats serialize");
    assert_eq!(
        json_keys(&json, 1),
        SERVE_STATS_KEYS,
        "ServeStats JSON key order"
    );
    assert_eq!(json_keys(&json, 3), ROW_KEYS, "slo_burn / stages row keys");
}

#[test]
fn chrome_trace_export_is_loadable_event_json() {
    let _g = trace_lock();
    let engine = fixture_engine();
    // Probe for the fixture query BEFORE enabling tracing: `tree_for` is
    // not a request verb, so its cache-probe spans carry no request id
    // and would dilute the rid assertions below.
    let query = multi_node_query(&engine);
    trace::clear_ring();
    trace::flightrec::reset_flight();
    trace::set_enabled(true);
    trace::set_sample_every(1);
    let id = engine.open_session(&query).unwrap();
    let traced = engine.expand(id, NavNodeId::ROOT).unwrap().revealed;
    trace::set_enabled(false);

    let json = trace::chrome_trace_json();
    let events: Vec<bionav_core::trace::export::ChromeEvent> =
        serde_json::from_str(&json).expect("chrome trace parses as an event array");
    assert!(!events.is_empty(), "traced EXPAND must produce events");
    for e in &events {
        assert!(e.ph == "B" || e.ph == "E", "unexpected phase {}", e.ph);
        assert_eq!(e.cat, "bionav");
        assert!(e.ts >= 0.0);
        assert_ne!(
            e.args.rid, 0,
            "every serve-path span must carry its request id ({})",
            e.name
        );
    }
    assert!(
        events.iter().any(|e| e.name == "partition"),
        "per-stage spans missing from the trace"
    );
    assert!(events.iter().any(|e| e.name == "expand"));
    // The open and the EXPAND were separate requests, so the trace must
    // carry (at least) two distinct request ids.
    let rids: std::collections::HashSet<u64> = events.iter().map(|e| e.args.rid).collect();
    assert!(rids.len() >= 2, "distinct requests share a rid: {rids:?}");
    // Begin/End balance per thread (the exporter drops orphans).
    let mut depth = std::collections::HashMap::new();
    for e in &events {
        let d = depth.entry(e.tid).or_insert(0i64);
        *d += if e.ph == "B" { 1 } else { -1 };
        assert!(*d >= 0, "unmatched End for tid {}", e.tid);
    }
    engine.close_session(id).unwrap();

    // The flight recorder summarizes the same requests under the same
    // ids, so its dump joins against the trace offline.
    let flight = trace::flightrec::flight_snapshot();
    assert!(
        !flight.is_empty(),
        "traced requests must reach the recorder"
    );
    for e in &flight {
        assert_ne!(e.request_id, 0, "flight entry without a request id");
        assert!(!e.verb.name().is_empty());
    }
    assert!(
        flight.iter().any(|e| rids.contains(&e.request_id)),
        "no span rid joins the flight recorder: {rids:?}"
    );

    // Tracing never changes what the planner reveals: an untraced, cold
    // engine plans the same cut.
    let fresh = fixture_engine();
    let untraced = fresh.open_session(&query).unwrap();
    assert_eq!(
        fresh.expand(untraced, NavNodeId::ROOT).unwrap().revealed,
        traced
    );
    trace::clear_ring();
}

// ---------------------------------------------------------------------------
// Overhead contract: disabled tracing records nothing anywhere
// ---------------------------------------------------------------------------

#[test]
fn disabled_tracing_emits_no_ring_events_from_the_serve_path() {
    let _g = trace_lock();
    trace::set_enabled(false);
    trace::clear_ring();
    let engine = fixture_engine();
    let query = multi_node_query(&engine);
    let before = trace::ring_pushed();
    let id = engine.open_session(&query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    engine.close_session(id).unwrap();
    assert_eq!(
        trace::ring_pushed(),
        before,
        "tracing-off must keep the serve path off the ring entirely"
    );
    // …while the per-stage metrics (capture tape) still work.
    assert!(!engine.stats().stages.is_empty());
}

// ---------------------------------------------------------------------------
// Golden ring exports: fixed pushes, byte-exact Chrome trace + flight JSON
// ---------------------------------------------------------------------------

/// The committed exports for [`golden_ring_exports`]'s fixed inputs: the
/// Chrome trace JSON on the first line, the flight-recorder JSON on the
/// second.
const GOLDEN_RING_EXPORTS: &str = include_str!("golden/ring_exports.txt");

/// A local span ring and a local flight ring, both wrapped, rendered by
/// the two JSON exporters. Touches no process-global state.
fn golden_ring_exports() -> String {
    use bionav_core::fault::FailSite;
    use bionav_core::trace::export::chrome_trace;
    use bionav_core::trace::flightrec::{
        entries_json, FlightRing, RawSummary, Verb, RUNG_MYOPIC, RUNG_STATIC, SHED_BREAKER,
        SHED_DEADLINE,
    };
    use bionav_core::trace::{SpanKind, SpanRing};

    // 8 pushes into 4 slots: seqs 4..=7 survive. The survivors open with
    // an End whose Begin was overwritten (the exporter drops it), span two
    // threads, and include a stage index past `Stage::ALL`.
    let spans = SpanRing::new(4);
    let pushes: [(u8, SpanKind, u16, u64, u64); 8] = [
        (Stage::Expand as u8, SpanKind::Begin, 1, 1_000, 11),
        (Stage::Partition as u8, SpanKind::Begin, 1, 1_500, 11),
        (Stage::Partition as u8, SpanKind::End, 1, 2_750, 11),
        (Stage::Solve as u8, SpanKind::Begin, 2, 3_001, 0),
        (Stage::Solve as u8, SpanKind::End, 2, 4_999, 0),
        (Stage::ApplyCut as u8, SpanKind::Begin, 1, 5_250, 11),
        (200, SpanKind::Begin, 65_535, 6_000, u64::MAX),
        (Stage::ApplyCut as u8, SpanKind::End, 1, 7_125, 11),
    ];
    for (stage, kind, tid, ns, rid) in pushes {
        spans.push(stage, kind, tid, ns, rid);
    }

    // 3 pushes into 2 slots: the first is overwritten. The survivors set
    // every summary field between them, including a stage past
    // `u32::MAX` microseconds (saturates) and the last, unpaired stage.
    let flights = FlightRing::new(2);
    let mut stage_ns = [0u64; Stage::COUNT];
    stage_ns[Stage::Solve as usize] = 900_999;
    let mut summary = RawSummary {
        rid: 1,
        verb: Verb::Open as u8,
        shard_p1: 0,
        cache: 1,
        rung: 0,
        shed: 0,
        error: 0,
        fault: 0,
        total_ns: 5_000,
        stage_ns,
    };
    flights.push(&summary);
    summary.rid = 0xDEAD_BEEF;
    summary.verb = Verb::Expand as u8;
    summary.shard_p1 = 3;
    summary.cache = 2;
    summary.rung = RUNG_STATIC;
    summary.shed = SHED_DEADLINE;
    summary.error = 2;
    summary.fault = FailSite::CutCacheProbe as u8 + 1;
    summary.total_ns = 1_234_567;
    summary.stage_ns[Stage::Partition as usize] = 300_500;
    summary.stage_ns[Stage::Materialize as usize] = (u64::from(u32::MAX) + 7) * 1_000;
    summary.stage_ns[Stage::OpenSessionCold as usize] = 42_000;
    flights.push(&summary);
    flights.push(&RawSummary {
        rid: u64::MAX,
        verb: Verb::Debug as u8,
        shard_p1: u16::MAX,
        cache: 0,
        rung: RUNG_MYOPIC,
        shed: SHED_BREAKER,
        error: 1,
        fault: FailSite::TreeMaterialize as u8 + 1,
        total_ns: 999,
        stage_ns: [1_000; Stage::COUNT],
    });

    format!(
        "{}\n{}\n",
        chrome_trace(&spans.snapshot()),
        entries_json(&flights.snapshot())
    )
}

#[test]
fn ring_exports_match_the_golden_file() {
    let text = golden_ring_exports();
    let drift = text
        .lines()
        .zip(GOLDEN_RING_EXPORTS.lines())
        .position(|(got, want)| got != want);
    assert_eq!(
        (drift, text.len()),
        (None, GOLDEN_RING_EXPORTS.len()),
        "ring exports drifted from tests/golden/ring_exports.txt (first differing line index)\n{text}"
    );
}
