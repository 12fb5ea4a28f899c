//! End-to-end tracing and per-stage metrics plane (DESIGN.md §5e).
//!
//! Three cooperating pieces, all dependency-free and fixed-footprint:
//!
//! 1. **Span sites** — [`span`] returns a RAII [`SpanGuard`] timing one
//!    [`Stage`] of the serve hot path. When tracing is disabled and no
//!    capture is active, a span site costs a single relaxed atomic load
//!    plus a thread-local read — the CI-gated overhead budget.
//! 2. **The global ring** — an atomically-toggled, sampled
//!    [`ring::SpanRing`] of begin/end events; snapshots export to Chrome
//!    trace-event JSON ([`chrome_trace_json`]) loadable in Perfetto.
//! 3. **The capture tape** — a thread-local tape of
//!    `(stage, duration, request id)` triples recorded for *every* span
//!    while a [`CaptureGuard`] is active (independent of the ring toggle
//!    and sampling), which the engine drains into its per-stage
//!    [`StageMetrics`] — and into the flight recorder's per-request
//!    breakdown — after each public operation. Sampling thins the ring,
//!    never the metrics.
//!
//! PR 9 adds the request-context plane on top: [`flightrec`] holds the
//! ambient [`flightrec::RequestCtx`] scope whose id every ring event and
//! tape entry carries, plus the black-box ring of completed-request
//! summaries.
//!
//! All wall-clock reads in the workspace flow through [`now_ns`]; clippy's
//! `disallowed_methods` list in `clippy.toml` forbids `Instant::now()` and
//! `SystemTime::now()` elsewhere.
//!
//! Under `--cfg interleave` the process-global ring is compiled out (and
//! the capture tape is never armed, since its drain feeds the modeled
//! stage histograms), so the engine interleave models keep their schedule
//! space focused on the session protocol; the ring's own slot protocol is
//! explored by dedicated models over a local `SpanRing` (see
//! `tests/interleave_models.rs`).

pub mod export;
pub mod flightrec;
pub mod ring;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::telemetry::LatencyHistogram;
use serde::{Deserialize, Serialize};

pub use ring::{SpanEvent, SpanKind, SpanRing};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Process-wide trace epoch: all [`now_ns`] values are offsets from the
/// first call, so timestamps are small, monotone, and comparable across
/// threads.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch.
///
/// This is the single instrumented wall-clock source for the workspace
/// (enforced by clippy's `disallowed_methods`): every latency number in
/// telemetry, tracing, and the benches derives from it.
pub fn now_ns() -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "the trace epoch is the workspace's one sanctioned clock read"
    )]
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The instrumented stages of the serve hot path.
///
/// Discriminants index [`Stage::ALL`] and the packed span-event `meta`
/// word. The indices are in-process only: every export (Prometheus, the
/// Chrome trace, flight-recorder JSON) names a stage by [`Stage::name`],
/// so stages may be removed or reordered freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// A whole `Engine::expand` call (outermost EXPAND span).
    Expand = 0,
    /// `Engine::open_session`: query → cached/built tree → parked session.
    OpenSession = 1,
    /// `partition_until_in` inside `plan_component_with`.
    Partition = 2,
    /// Reduced-problem construction (component map + reduced hierarchy).
    ReducedBuild = 3,
    /// The exact/myopic solver run on the reduced problem.
    Solve = 4,
    /// A follow-up cut served from a retained `ReducedPlan` memo.
    MemoCut = 5,
    /// Cross-session `CutCache` probe (hit or miss).
    CutCacheLookup = 6,
    /// `ActiveTree::expand_in`: applying a chosen cut to the active tree.
    ApplyCut = 7,
    /// Waiting to acquire the tree-cache or session-table lock.
    LockWait = 8,
    /// An EXPAND answered by the graceful-degradation ladder (DESIGN.md
    /// §5f) instead of the exact planner — the span covers the degraded
    /// rung (retained-memo myopic cut or static show-all-children cut).
    Degraded = 9,
    /// A client-read fold of one component's citation set from the CSR
    /// result lists (`ActiveTree::component_set`: OPEN's visualization
    /// counts, SHOWRESULTS; DESIGN.md §5g). The planner's own fold runs
    /// inside [`Stage::ReducedBuild`] and is not counted here.
    Materialize = 10,
    /// `Engine::open_session` sub-stage: the tree came from the tree
    /// cache. Recorded via [`record`] alongside the enclosing
    /// [`Stage::OpenSession`] span, so hit/cold percentiles don't blend.
    OpenSessionHit = 11,
    /// `Engine::open_session` sub-stage: cache miss, the tree skeleton was
    /// built cold. See [`Stage::OpenSessionHit`].
    OpenSessionCold = 12,
}

impl Stage {
    /// Number of stages (length of [`Stage::ALL`]).
    pub const COUNT: usize = 13;

    /// Every stage, indexed by discriminant.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Expand,
        Stage::OpenSession,
        Stage::Partition,
        Stage::ReducedBuild,
        Stage::Solve,
        Stage::MemoCut,
        Stage::CutCacheLookup,
        Stage::ApplyCut,
        Stage::LockWait,
        Stage::Degraded,
        Stage::Materialize,
        Stage::OpenSessionHit,
        Stage::OpenSessionCold,
    ];

    /// Stable snake_case name used in metrics labels and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Expand => "expand",
            Stage::OpenSession => "open_session",
            Stage::Partition => "partition",
            Stage::ReducedBuild => "reduced_build",
            Stage::Solve => "solve",
            Stage::MemoCut => "memo_cut",
            Stage::CutCacheLookup => "cut_cache",
            Stage::ApplyCut => "apply_cut",
            Stage::LockWait => "lock_wait",
            Stage::Degraded => "degraded",
            Stage::Materialize => "materialize",
            Stage::OpenSessionHit => "open_session_hit",
            Stage::OpenSessionCold => "open_session_cold",
        }
    }

    /// Inverse of the discriminant, for decoding ring events.
    pub fn from_index(idx: u8) -> Option<Stage> {
        Stage::ALL.get(idx as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Global toggle, sampling, thread ids, the ring
// ---------------------------------------------------------------------------

// The tracing globals are deliberately *plain std atomics*, not the
// `crate::sync` interleave shim: like `telemetry::NEXT_SHARD`, modeling
// them would multiply every engine-model schedule by the toggle state
// without testing anything the dedicated ring models don't already cover.

/// Ring emission toggle: 0 = off (the single relaxed load on the span fast
/// path), nonzero = on.
static ENABLED: AtomicU64 = AtomicU64::new(0);

/// Emit every Nth span to the ring (per thread). Clamped to ≥ 1.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

/// Source of unique per-thread trace ids.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Default global ring capacity (slots). 1<<16 slots × 32 bytes = 2 MiB,
/// fixed at first use.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// The process-global span ring, or `None` under `--cfg interleave`: its
/// slots are modeled atomics, and pushing to them from the engine models
/// would add yield points to every schedule.
#[cfg(not(interleave))]
fn global_ring() -> Option<&'static SpanRing> {
    static RING: OnceLock<SpanRing> = OnceLock::new();
    Some(RING.get_or_init(|| SpanRing::new(DEFAULT_RING_CAPACITY)))
}

/// See the non-interleave [`global_ring`].
#[cfg(interleave)]
fn global_ring() -> Option<&'static SpanRing> {
    None
}

/// Push one event for the calling thread to the global ring.
fn emit(stage: Stage, kind: SpanKind, ns: u64, rid: u64) {
    if let Some(ring) = global_ring() {
        ring.push(stage as u8, kind, TID.with(|t| *t) as u16, ns, rid);
    }
}

thread_local! {
    /// This thread's trace id (low 16 bits go into ring events).
    static TID: u64 = {
        // Ordering: Relaxed — only uniqueness matters, no other memory is
        // published through this counter.
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
    /// Per-thread sampling tick for ring emission.
    static SAMPLE_TICK: Cell<u64> = const { Cell::new(0) };
    /// Capture-tape nesting depth (0 = inactive).
    static CAPTURE: Cell<u32> = const { Cell::new(0) };
    /// The capture tape: `(stage, span duration in ns, request id)` per
    /// finished span.
    static TAPE: RefCell<Vec<(Stage, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Turn ring emission on or off. Span sites observe the change on their
/// next fast-path load; in-flight spans finish under the old setting.
pub fn set_enabled(on: bool) {
    // Ordering: Relaxed — the toggle is advisory; span sites re-read it
    // per span and no data is published through it.
    ENABLED.store(u64::from(on), Ordering::Relaxed);
}

/// Whether ring emission is currently enabled.
pub fn is_enabled() -> bool {
    // Ordering: Relaxed — see `set_enabled`.
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Set the ring sampling period: every Nth span per thread is emitted.
/// Values below 1 are clamped to 1. Sampling thins the ring only — the
/// capture tape (and therefore the stage metrics) always sees every span.
pub fn set_sample_every(n: u64) {
    // Ordering: Relaxed — advisory knob, same contract as the toggle.
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

/// Current ring sampling period.
pub fn sample_every() -> u64 {
    // Ordering: Relaxed — see `set_sample_every`.
    SAMPLE_EVERY.load(Ordering::Relaxed).max(1)
}

/// Snapshot the global ring (sorted by sequence number).
pub fn ring_snapshot() -> Vec<SpanEvent> {
    global_ring().map_or_else(Vec::new, SpanRing::snapshot)
}

/// Invalidate all events in the global ring. The monotone push counter
/// ([`ring_pushed`]) is preserved.
pub fn clear_ring() {
    if let Some(ring) = global_ring() {
        ring.clear();
    }
}

/// Monotone count of events ever pushed to the global ring.
pub fn ring_pushed() -> u64 {
    global_ring().map_or(0, SpanRing::pushed)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard returned by [`span`]; records the span on drop.
///
/// A disarmed guard (tracing off, no capture active) is a zero-cost drop.
pub struct SpanGuard {
    state: Option<SpanState>,
}

struct SpanState {
    stage: Stage,
    t0: u64,
    /// Originating request id, captured once at span open so begin/end
    /// events and the tape entry agree even if the scope closes mid-span.
    rid: u64,
    /// Emit begin/end events to the global ring (sampling already applied).
    ring: bool,
    /// Append to the thread-local capture tape on drop.
    tape: bool,
}

/// Open a span for `stage`.
///
/// Fast path when tracing is off and no capture is active: one relaxed
/// atomic load plus one thread-local read, no clock access — this is the
/// cost that CI's tracing-overhead gate (`scripts/perf_gate.sh`, on
/// navbench's `trace.overhead_frac`) bounds from above.
pub fn span(stage: Stage) -> SpanGuard {
    // Ordering: Relaxed — the toggle is advisory (see `set_enabled`); this
    // single load IS the documented tracing-off cost of a span site.
    let ring_on = ENABLED.load(Ordering::Relaxed) != 0;
    let tape_on = CAPTURE.with(|c| c.get() > 0);
    if !ring_on && !tape_on {
        return SpanGuard { state: None };
    }
    let ring = ring_on && {
        let tick = SAMPLE_TICK.with(|t| {
            let v = t.get();
            t.set(v.wrapping_add(1));
            v
        });
        tick.is_multiple_of(sample_every())
    };
    let rid = flightrec::current_request_id();
    let t0 = now_ns();
    if ring {
        emit(stage, SpanKind::Begin, t0, rid);
    }
    SpanGuard {
        state: Some(SpanState {
            stage,
            t0,
            rid,
            ring,
            tape: tape_on,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let t1 = now_ns();
        if state.ring {
            emit(state.stage, SpanKind::End, t1, state.rid);
        }
        if state.tape {
            TAPE.with(|tape| {
                tape.borrow_mut()
                    .push((state.stage, t1.saturating_sub(state.t0), state.rid));
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Capture tape
// ---------------------------------------------------------------------------

/// RAII guard keeping the thread-local capture tape active; see [`capture`].
pub struct CaptureGuard {
    _priv: (),
}

/// Activate the thread-local capture tape for the current scope.
///
/// While at least one `CaptureGuard` is alive on a thread, *every* span on
/// that thread appends `(stage, duration)` to the tape — independent of
/// the ring toggle and sampling, so per-stage metrics stay exact. Opening
/// the outermost guard clears any stale tape left by a panicked caller.
#[cfg(not(interleave))]
pub fn capture() -> CaptureGuard {
    CAPTURE.with(|c| {
        let depth = c.get();
        if depth == 0 {
            TAPE.with(|t| t.borrow_mut().clear());
        }
        c.set(depth + 1);
    });
    CaptureGuard { _priv: () }
}

/// Never arms the tape under the interleave model: draining it records
/// into the modeled stage histograms, which would add yield points to
/// every engine-model schedule.
#[cfg(interleave)]
pub fn capture() -> CaptureGuard {
    CaptureGuard { _priv: () }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        #[cfg(not(interleave))]
        CAPTURE.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Append an already-measured interval to the active capture tape, as if a
/// span for `stage` had just closed.
///
/// This is for *derived* sub-stages whose wall-clock interval is already
/// covered by an enclosing real span (e.g. the open-session hit/cold
/// split): re-opening a span would double-emit begin/end events to the
/// ring, so the caller times the interval itself and records it tape-only.
/// Outside an active capture this is a no-op, matching the span fast path.
pub fn record(stage: Stage, ns: u64) {
    if CAPTURE.with(|c| c.get() > 0) {
        let rid = flightrec::current_request_id();
        TAPE.with(|tape| tape.borrow_mut().push((stage, ns, rid)));
    }
}

/// Drain the thread-local capture tape, returning every
/// `(stage, ns, request id)` triple recorded since the tape was opened
/// (or last drained).
pub fn take_captured() -> Vec<(Stage, u64, u64)> {
    TAPE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Per-stage metrics
// ---------------------------------------------------------------------------

/// A keyed family of [`LatencyHistogram`]s plus exact nanosecond sums, one
/// per [`Stage`]. Part of each engine's [`crate::telemetry::Window`], fed
/// by the capture tape.
pub struct StageMetrics {
    hists: Vec<LatencyHistogram>,
    sums: Vec<crate::sync::AtomicU64>,
}

impl Default for StageMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl StageMetrics {
    /// Create an empty family covering every [`Stage`].
    pub fn new() -> Self {
        StageMetrics {
            hists: (0..Stage::COUNT).map(|_| LatencyHistogram::new()).collect(),
            sums: (0..Stage::COUNT)
                .map(|_| crate::sync::AtomicU64::new(0))
                .collect(),
        }
    }

    /// Record one span duration (nanoseconds) under `stage`.
    pub fn record(&self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns);
        // Ordering: Relaxed — an independent monotone sum; readers only
        // need an eventually-consistent total for the `_sum` export.
        self.sums[stage as usize].fetch_add(ns, crate::sync::Ordering::Relaxed);
    }

    /// Every stage's `(latency snapshot, exact sum in ns)`, in
    /// [`Stage::ALL`] order, idle stages included.
    pub fn snapshots(&self) -> Vec<(crate::telemetry::HistogramSnapshot, u64)> {
        self.hists
            .iter()
            .zip(&self.sums)
            // Ordering: Relaxed — see `record`.
            .map(|(hist, sum)| (hist.snapshot(), sum.load(crate::sync::Ordering::Relaxed)))
            .collect()
    }

    /// Reset every histogram and sum in one pass.
    pub fn reset(&self) {
        for hist in &self.hists {
            hist.reset();
        }
        for sum in &self.sums {
            // Ordering: Relaxed — see `record`.
            sum.store(0, crate::sync::Ordering::Relaxed);
        }
    }
}

/// One row of the per-stage latency breakdown reported by
/// [`crate::ServeStats`], derived by [`crate::telemetry::Snapshot::stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Spans recorded in the current telemetry window.
    pub count: u64,
    /// Median span latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile span latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile span latency in microseconds.
    pub p99_us: f64,
    /// Exact total time spent in this stage, in milliseconds.
    pub total_ms: f64,
}

/// Render the global ring as Chrome trace-event JSON (the JSON Array
/// Format, loadable in Perfetto and `chrome://tracing`).
pub fn chrome_trace_json() -> String {
    export::chrome_trace(&ring_snapshot())
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    /// Tests below mutate process-global trace state (toggle + ring), so
    /// they serialize on this lock. Other test binaries touching the
    /// globals do the same.
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn stage_index_round_trips() {
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage as usize, i);
            assert_eq!(Stage::from_index(i as u8), Some(stage));
        }
        assert_eq!(Stage::from_index(Stage::COUNT as u8), None);
    }

    #[test]
    fn disarmed_span_records_nothing() {
        let _g = lock();
        set_enabled(false);
        clear_ring();
        let before = ring_pushed();
        {
            let _s = span(Stage::Solve);
        }
        assert_eq!(
            ring_pushed(),
            before,
            "disabled span must not touch the ring"
        );
        assert!(take_captured().is_empty());
    }

    #[test]
    fn enabled_span_emits_begin_and_end() {
        let _g = lock();
        set_enabled(true);
        set_sample_every(1);
        clear_ring();
        {
            let _s = span(Stage::Partition);
        }
        set_enabled(false);
        let events = ring_snapshot();
        // The ring is process-global: engine tests on other threads may
        // push Partition spans while this one has tracing on.
        let tid = TID.with(|t| *t) as u16;
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.stage == Stage::Partition as u8 && e.tid == tid)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].kind, SpanKind::Begin);
        assert_eq!(mine[1].kind, SpanKind::End);
        assert!(mine[1].ns >= mine[0].ns);
        clear_ring();
    }

    #[test]
    fn capture_tape_sees_every_span_regardless_of_toggle() {
        let _g = lock();
        set_enabled(false);
        let cap = capture();
        {
            let _a = span(Stage::Partition);
        }
        {
            let _b = span(Stage::Solve);
        }
        drop(cap);
        let tape = take_captured();
        let stages: Vec<Stage> = tape.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(stages, vec![Stage::Partition, Stage::Solve]);
    }

    #[test]
    fn sampling_thins_ring_but_not_tape() {
        let _g = lock();
        set_enabled(true);
        set_sample_every(4);
        clear_ring();
        let cap = capture();
        for _ in 0..8 {
            let _s = span(Stage::MemoCut);
        }
        drop(cap);
        set_enabled(false);
        set_sample_every(1);
        let ring_events = ring_snapshot()
            .iter()
            .filter(|e| e.stage == Stage::MemoCut as u8)
            .count();
        assert!(
            ring_events < 16,
            "sampling must thin ring emission ({ring_events} events)"
        );
        assert_eq!(take_captured().len(), 8, "tape records every span");
        clear_ring();
    }

    #[test]
    fn stage_metrics_records_and_resets() {
        let m = StageMetrics::new();
        m.record(Stage::Solve, 5_000);
        m.record(Stage::Solve, 7_000);
        m.record(Stage::Partition, 1_000);
        let snaps = m.snapshots();
        assert_eq!(snaps.len(), Stage::COUNT);
        assert_eq!(snaps[Stage::Solve as usize].0.total(), 2);
        assert_eq!(snaps[Stage::Solve as usize].1, 12_000);
        assert_eq!(snaps[Stage::Partition as usize].1, 1_000);
        assert!(snaps[Stage::Expand as usize].0.is_empty());
        m.reset();
        assert!(m
            .snapshots()
            .iter()
            .all(|(s, sum)| s.is_empty() && *sum == 0));
    }

    #[test]
    fn record_is_tape_only_and_capture_gated() {
        let _g = lock();
        set_enabled(false);
        clear_ring();
        record(Stage::OpenSessionCold, 1_000);
        assert!(
            take_captured().is_empty(),
            "record outside a capture is a no-op"
        );
        let before = ring_pushed();
        let cap = capture();
        record(Stage::OpenSessionHit, 2_000);
        drop(cap);
        assert_eq!(ring_pushed(), before, "record never touches the ring");
        assert_eq!(take_captured(), vec![(Stage::OpenSessionHit, 2_000, 0)]);
    }

    #[test]
    fn nested_capture_drains_once() {
        let _g = lock();
        set_enabled(false);
        let outer = capture();
        {
            let inner = capture();
            let _s = span(Stage::ApplyCut);
            drop(inner);
        }
        {
            let _s = span(Stage::ApplyCut);
        }
        drop(outer);
        assert_eq!(take_captured().len(), 2, "nesting must not drop spans");
        assert!(take_captured().is_empty(), "tape drains exactly once");
    }
}
