//! Black-box flight recorder + request-context plane (DESIGN.md §5j).
//!
//! Two cooperating pieces:
//!
//! 1. **Request scopes** — a [`RequestCtx`] minted at a front end (the
//!    wire handler in `serve.rs`, the REPL) or by [`ensure_scope`] inside
//!    the engine, held in a thread-local while the request executes. Span
//!    sites read [`current_request_id`] into the trace ring's `rid`
//!    column, the degradation ladder reads [`current_deadline_ns`], and
//!    the engine/fault plane deposit outcome notes ([`note_cache`],
//!    [`note_rung`], [`note_error`], [`note_fault`], [`note_stage`]).
//! 2. **The flight ring** — a fixed-memory ring ([`FlightRing`]) of the
//!    last N *completed* request summaries: a codec over the same
//!    seqlock slot protocol as [`super::ring::SpanRing`]. Each slot
//!    packs the request id, verb, shard, cache/degrade/error/fault outcome,
//!    total latency, and a per-[`Stage`] microsecond breakdown into
//!    `4 + STAGE_WORDS` `u64` atomics (stamp included) — no allocation
//!    after construction.
//!
//! The recorder dumps automatically (once per reason per telemetry
//! window) when a session is quarantined after a panic or an EXPAND is
//! shed, and on demand via the `Request::Debug` wire verb and the REPL
//! `flightrec` command ([`flightrec_json`]).
//!
//! Under `--cfg interleave` only the process-global ring is compiled out
//! (`global_flight`): scopes, ids and notes are plain thread-local code
//! and behave the same in both builds, while the [`FlightRing`] codec is
//! explored by a dedicated model over a local ring in
//! `tests/interleave_models.rs`.

use super::ring::{SeqRing, SeqTag};
use crate::trace::Stage;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
#[cfg(not(interleave))]
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Request context & verbs
// ---------------------------------------------------------------------------

/// The context one request carries end-to-end: wire envelope → shard →
/// engine → spans → flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// Unique id for this request (never 0 for a live scope; front ends
    /// mint from a process counter when the client supplied none).
    pub request_id: u64,
    /// The packed shard session id the request concerns, if any.
    pub session: Option<u64>,
    /// Absolute deadline in trace-epoch nanoseconds (0 = none). The
    /// engine's degradation ladder treats an elapsed deadline like an
    /// exhausted per-expand budget.
    pub deadline_ns: u64,
}

impl RequestCtx {
    /// A context with only a request id (no session, no deadline).
    pub fn with_id(request_id: u64) -> Self {
        RequestCtx {
            request_id,
            session: None,
            deadline_ns: 0,
        }
    }
}

/// The request verbs the flight recorder classifies entries by. Mirrors
/// the wire `Request` enum (checked by the `cargo xtask analyze` coverage
/// matrix) plus the two batch entry points that exist only in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// `Request::Open` / `Engine::open_session` / `restore_session`.
    Open = 0,
    /// `Request::Expand` / `Engine::expand`.
    Expand = 1,
    /// `Request::ShowResults`.
    ShowResults = 2,
    /// `Request::Close` / `Engine::close_session`.
    Close = 3,
    /// `Request::Stats`.
    Stats = 4,
    /// `Request::Prom`.
    Prom = 5,
    /// `Request::Debug` (the flight-recorder dump itself).
    Debug = 6,
    /// `Engine::run_script` (one scripted navigation).
    Script = 7,
    /// `Engine::replay` (a whole batch dispatch).
    Replay = 8,
}

impl Verb {
    /// Number of verbs (length of [`Verb::ALL`]).
    pub const COUNT: usize = 9;

    /// Every verb, indexed by discriminant.
    pub const ALL: [Verb; Verb::COUNT] = [
        Verb::Open,
        Verb::Expand,
        Verb::ShowResults,
        Verb::Close,
        Verb::Stats,
        Verb::Prom,
        Verb::Debug,
        Verb::Script,
        Verb::Replay,
    ];

    /// Stable snake_case name (flight records, logs).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Open => "open",
            Verb::Expand => "expand",
            Verb::ShowResults => "show_results",
            Verb::Close => "close",
            Verb::Stats => "stats",
            Verb::Prom => "prom",
            Verb::Debug => "debug",
            Verb::Script => "script",
            Verb::Replay => "replay",
        }
    }

    /// Inverse of the discriminant, for decoding flight-ring entries.
    pub fn from_index(idx: u8) -> Option<Verb> {
        Verb::ALL.get(idx as usize).copied()
    }
}

/// Degradation-rung codes deposited by [`note_rung`].
pub const RUNG_MYOPIC: u8 = 1;
/// See [`RUNG_MYOPIC`].
pub const RUNG_STATIC: u8 = 2;

fn rung_name(code: u8) -> &'static str {
    match code {
        RUNG_MYOPIC => "myopic",
        RUNG_STATIC => "static",
        _ => "",
    }
}

/// Shed-reason codes deposited by [`note_shed`]: each is the matching
/// [`ShedReason`](crate::admission::ShedReason) discriminant plus one
/// (0 = not shed).
pub const SHED_QUEUE: u8 = crate::admission::ShedReason::Queue as u8 + 1;
/// See [`SHED_QUEUE`].
pub const SHED_DEADLINE: u8 = crate::admission::ShedReason::Deadline as u8 + 1;
/// See [`SHED_QUEUE`].
pub const SHED_BREAKER: u8 = crate::admission::ShedReason::Breaker as u8 + 1;

fn shed_name(code: u8) -> &'static str {
    match code {
        SHED_QUEUE => crate::admission::ShedReason::Queue.name(),
        SHED_DEADLINE => crate::admission::ShedReason::Deadline.name(),
        SHED_BREAKER => crate::admission::ShedReason::Breaker.name(),
        _ => "",
    }
}

fn fault_site_name(code: u8) -> &'static str {
    if code == 0 {
        return "";
    }
    crate::fault::FailSite::ALL
        .get(usize::from(code - 1))
        .map(|s| s.name())
        .unwrap_or("unknown")
}

// ---------------------------------------------------------------------------
// The flight ring
// ---------------------------------------------------------------------------

/// `u64` words packing the per-stage microsecond breakdown: two
/// saturating `u32` durations per word.
pub const STAGE_WORDS: usize = Stage::COUNT.div_ceil(2);

/// Default flight-ring capacity (slots). 256 slots × (4 + [`STAGE_WORDS`])
/// × 8 bytes = 24 KiB, fixed at first use.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Flight payload words, in store order: `[rid, meta, total_ns, stage
/// words…]`; with the stamp, `4 + STAGE_WORDS` atomics per slot.
const FLIGHT_WORDS: usize = 3 + STAGE_WORDS;
/// The flight codec's lap-check tag: the low 16 sequence bits, at the top
/// of `meta`.
const FLIGHT_TAG: SeqTag = SeqTag { word: 1, bits: 16 };

/// Bit layout of the packed `meta` word:
/// `verb | shard+1 << 8 | cache << 24 | rung << 26 | shed << 28 |
///  error << 32 | fault << 40 | seq low 16 << 48`.
const SHARD_SHIFT: u32 = 8;
const CACHE_SHIFT: u32 = 24;
const RUNG_SHIFT: u32 = 26;
const SHED_SHIFT: u32 = 28;
const ERROR_SHIFT: u32 = 32;
const FAULT_SHIFT: u32 = 40;

/// The raw, un-decoded summary of one completed request — what a scope
/// owner deposits into the ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawSummary {
    /// The request id.
    pub rid: u64,
    /// [`Verb`] discriminant.
    pub verb: u8,
    /// Owning shard plus one; 0 = no shard scope.
    pub shard_p1: u16,
    /// 0 = no cache probe, 1 = hit, 2 = miss.
    pub cache: u8,
    /// Degradation rung ([`RUNG_MYOPIC`] / [`RUNG_STATIC`]; 0 = exact).
    pub rung: u8,
    /// Typed shed reason ([`SHED_QUEUE`] / [`SHED_DEADLINE`] /
    /// [`SHED_BREAKER`]; 0 = not shed).
    pub shed: u8,
    /// [`crate::engine::EngineError`] flight code (0 = ok).
    pub error: u8,
    /// Fired [`crate::fault::FailSite`] plus one (0 = none).
    pub fault: u8,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage nanosecond tape sums, [`Stage::ALL`] order.
    pub stage_ns: [u64; Stage::COUNT],
}

impl RawSummary {
    /// The flight codec's encoder: this summary as the payload words of
    /// sequence number `seq`.
    fn words(&self, seq: u64) -> [u64; FLIGHT_WORDS] {
        let mut words = [0; FLIGHT_WORDS];
        words[0] = self.rid;
        words[1] = u64::from(self.verb)
            | (u64::from(self.shard_p1) << SHARD_SHIFT)
            | (u64::from(self.cache & 0b11) << CACHE_SHIFT)
            | (u64::from(self.rung & 0b11) << RUNG_SHIFT)
            | (u64::from(self.shed & 0b11) << SHED_SHIFT)
            | (u64::from(self.error) << ERROR_SHIFT)
            | (u64::from(self.fault) << FAULT_SHIFT)
            | FLIGHT_TAG.embed(seq);
        words[2] = self.total_ns;
        let us = |ns: u64| (ns / 1_000).min(u64::from(u32::MAX));
        for (word, pair) in words[3..].iter_mut().zip(self.stage_ns.chunks(2)) {
            *word = us(pair[0]) | pair.get(1).map_or(0, |&hi| us(hi) << 32);
        }
        words
    }
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Global monotone sequence number assigned at completion time.
    pub seq: u64,
    /// The request id every span of this request carried.
    pub request_id: u64,
    /// The request verb.
    pub verb: Verb,
    /// The shard the request ran on, if the engine was shard-tagged.
    pub shard: Option<u16>,
    /// Tree-cache outcome of an open, if one happened (`true` = hit).
    pub cache_hit: Option<bool>,
    /// Degradation rung code (0 = exact; see [`FlightEntry::rung_name`]).
    pub rung: u8,
    /// Shed-reason code (0 = not shed; see [`FlightEntry::shed_name`]).
    pub shed: u8,
    /// Error flight code (0 = ok; see [`FlightEntry::error_name`]).
    pub error: u8,
    /// Fired fault site plus one (0 = none; see
    /// [`FlightEntry::fault_site_name`]).
    pub fault: u8,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// Per-stage microsecond breakdown, [`Stage::ALL`] order (saturating).
    pub stage_us: [u32; Stage::COUNT],
}

impl FlightEntry {
    /// The flight codec's decoder; `None` for an unknown verb.
    fn decode(seq: u64, words: [u64; FLIGHT_WORDS]) -> Option<FlightEntry> {
        let [request_id, meta, total_ns, stages @ ..] = words;
        let mut stage_us = [0u32; Stage::COUNT];
        for (pair, word) in stage_us.chunks_mut(2).zip(stages) {
            pair[0] = word as u32;
            if let Some(hi) = pair.get_mut(1) {
                *hi = (word >> 32) as u32;
            }
        }
        let shard_p1 = (meta >> SHARD_SHIFT) as u16;
        Some(FlightEntry {
            seq,
            request_id,
            verb: Verb::from_index(meta as u8)?,
            shard: (shard_p1 != 0).then(|| shard_p1 - 1),
            cache_hit: match (meta >> CACHE_SHIFT) & 0b11 {
                1 => Some(true),
                2 => Some(false),
                _ => None,
            },
            rung: ((meta >> RUNG_SHIFT) & 0b11) as u8,
            shed: ((meta >> SHED_SHIFT) & 0b11) as u8,
            error: (meta >> ERROR_SHIFT) as u8,
            fault: (meta >> FAULT_SHIFT) as u8,
            total_ns,
            stage_us,
        })
    }

    /// `"myopic"` / `"static"` / `""`.
    pub fn rung_name(&self) -> &'static str {
        rung_name(self.rung)
    }

    /// `"queue"` / `"deadline"` / `"breaker"` / `""` (not shed).
    pub fn shed_name(&self) -> &'static str {
        shed_name(self.shed)
    }

    /// Stable error kind name, `""` when the request succeeded.
    pub fn error_name(&self) -> &'static str {
        crate::engine::EngineError::flight_kind(self.error)
    }

    /// Stable fired-fault site name, `""` when no fault fired.
    pub fn fault_site_name(&self) -> &'static str {
        fault_site_name(self.fault)
    }
}

/// Fixed-memory lock-free ring of completed-request summaries: the flight
/// codec over the crate's one seqlock ring (slot protocol in
/// [`super::ring`]).
pub struct FlightRing {
    ring: SeqRing<FLIGHT_WORDS>,
}

impl FlightRing {
    /// Create a ring with `capacity` slots, rounded up to a power of two
    /// (minimum 2). All memory is allocated here; `push` never allocates.
    pub fn new(capacity: usize) -> Self {
        FlightRing {
            ring: SeqRing::new(capacity, FLIGHT_TAG),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Monotone count of summaries ever pushed (survives wraps and
    /// [`clear`](FlightRing::clear)).
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Record one completed request. Wait-free; the oldest summaries are
    /// overwritten on wrap.
    pub fn push(&self, s: &RawSummary) {
        self.ring.push(|seq| s.words(seq));
    }

    /// Snapshot every currently-valid summary, sorted by sequence number.
    /// Slots mid-rewrite are skipped, never blocking any writer.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        self.ring.snapshot(FlightEntry::decode)
    }

    /// Invalidate every summary without resetting the monotone push
    /// counter.
    pub fn clear(&self) {
        self.ring.clear();
    }
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

/// One serializable flight record (what [`flightrec_json`] emits; parsed
/// by the CI smoke step and the `Request::Debug` / REPL consumers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Monotone completion sequence number.
    pub seq: u64,
    /// The request id (joins with the Chrome trace `args.rid` column).
    pub request_id: u64,
    /// Verb name ([`Verb::name`]).
    pub verb: String,
    /// Owning shard, `-1` when the engine was not shard-tagged.
    pub shard: i64,
    /// `"hit"` / `"miss"` / `""` (no cache probe).
    pub cache: String,
    /// `"myopic"` / `"static"` / `""` (exact answer).
    pub rung: String,
    /// Shed reason name, `""` when the request was not shed.
    pub shed: String,
    /// Error kind name, `""` on success.
    pub error: String,
    /// Fired fault site name, `""` when no failpoint fired.
    pub fault_site: String,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Non-zero per-stage durations.
    pub stages: Vec<FlightStage>,
}

/// One stage row of a [`FlightRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightStage {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Time attributed to the stage, in microseconds.
    pub us: f64,
}

impl FlightRecord {
    /// Decode one ring entry into its serializable form.
    pub fn from_entry(e: &FlightEntry) -> Self {
        FlightRecord {
            seq: e.seq,
            request_id: e.request_id,
            verb: e.verb.name().to_string(),
            shard: e.shard.map_or(-1, i64::from),
            cache: match e.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "",
            }
            .to_string(),
            rung: e.rung_name().to_string(),
            shed: e.shed_name().to_string(),
            error: e.error_name().to_string(),
            fault_site: e.fault_site_name().to_string(),
            total_us: e.total_ns as f64 / 1_000.0,
            stages: Stage::ALL
                .iter()
                .zip(e.stage_us.iter())
                .filter(|(_, &us)| us != 0)
                .map(|(stage, &us)| FlightStage {
                    stage: stage.name().to_string(),
                    us: f64::from(us),
                })
                .collect(),
        }
    }
}

/// Render entries as a JSON array of [`FlightRecord`]s.
pub fn entries_json(entries: &[FlightEntry]) -> String {
    let records: Vec<FlightRecord> = entries.iter().map(FlightRecord::from_entry).collect();
    // Serializing plain derived structs cannot fail; fall back to an
    // empty array rather than panicking in an exporter.
    serde_json::to_string(&records).unwrap_or_else(|_| "[]".to_string())
}

// ---------------------------------------------------------------------------
// The ambient request scope (process-global ring + thread-local pending)
// ---------------------------------------------------------------------------

/// The process-global flight ring, or `None` under `--cfg interleave`:
/// its slots are modeled atomics, and pushing to them from the engine
/// models would add yield points to every schedule. The scope, ids and
/// notes touch no modeled primitive and compile the same in both builds.
#[cfg(not(interleave))]
fn global_flight() -> Option<&'static FlightRing> {
    static FLIGHT: OnceLock<FlightRing> = OnceLock::new();
    Some(FLIGHT.get_or_init(|| FlightRing::new(DEFAULT_FLIGHT_CAPACITY)))
}

/// See the non-interleave [`global_flight`].
#[cfg(interleave)]
fn global_flight() -> Option<&'static FlightRing> {
    None
}

/// Source of server-minted request ids (when no client-supplied id is in
/// play). Plain std atomic — advisory id allocation, never synchronization.
static NEXT_RID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Mint a fresh process-unique request id.
pub fn mint_request_id() -> u64 {
    // Ordering: Relaxed — only uniqueness matters; nothing is published
    // through the counter.
    NEXT_RID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The request scope open on this thread: its deadline, start time, and
/// the summary the owning guard pushes on close. Outside a scope it is the
/// default, so every field reads zero.
#[derive(Clone, Copy, Default)]
struct Pending {
    active: bool,
    deadline_ns: u64,
    t0: u64,
    summary: RawSummary,
}

thread_local! {
    /// The in-flight request summary being assembled on this thread.
    static PENDING: RefCell<Pending> = RefCell::default();
}

/// RAII guard for one request scope; the *owning* guard (the one that
/// opened the scope) pushes the completed summary to the flight ring on
/// drop. Nested guards ([`ensure_scope`] inside an already-open scope)
/// are no-ops so engine-internal entry points never double-record a
/// wire-minted request.
pub struct RequestScope {
    owner: bool,
}

/// Open a request scope with an explicit, front-end-minted context.
/// If a scope is already open on this thread (defensive — front ends are
/// the outermost layer), the existing scope wins and the guard is inert.
pub fn request_scope(ctx: RequestCtx, verb: Verb) -> RequestScope {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.active {
            return RequestScope { owner: false };
        }
        *p = Pending {
            active: true,
            deadline_ns: ctx.deadline_ns,
            t0: super::now_ns(),
            summary: RawSummary {
                rid: ctx.request_id,
                verb: verb as u8,
                ..RawSummary::default()
            },
        };
        RequestScope { owner: true }
    })
}

/// Open a scope for an engine-internal entry point: reuses the already
/// open scope when the request came through a front end, mints a fresh
/// request id otherwise (direct API callers, scripts, benches).
pub fn ensure_scope(verb: Verb) -> RequestScope {
    let already = PENDING.with(|p| p.borrow().active);
    if already {
        RequestScope { owner: false }
    } else {
        request_scope(RequestCtx::with_id(mint_request_id()), verb)
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if !self.owner {
            return;
        }
        let p = PENDING.take();
        if let Some(ring) = global_flight() {
            ring.push(&RawSummary {
                total_ns: super::now_ns().saturating_sub(p.t0),
                ..p.summary
            });
        }
    }
}

/// The request id of the scope open on this thread (0 = none). Span
/// sites stamp this into the trace ring's `rid` column.
pub fn current_request_id() -> u64 {
    PENDING.with(|p| p.borrow().summary.rid)
}

/// The deadline of the scope open on this thread (0 = none/disabled).
pub fn current_deadline_ns() -> u64 {
    PENDING.with(|p| p.borrow().deadline_ns)
}

/// Apply `f` to the open scope's summary; a no-op outside any scope.
fn with_active(f: impl FnOnce(&mut RawSummary)) {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.active {
            f(&mut p.summary);
        }
    });
}

/// Note which shard the current request runs on.
pub fn note_shard(shard: usize) {
    with_active(|s| s.shard_p1 = (shard as u16).saturating_add(1));
}

/// Note the tree-cache outcome of the current request's open.
pub fn note_cache(hit: bool) {
    with_active(|s| s.cache = if hit { 1 } else { 2 });
}

/// Note the degradation rung that answered ([`RUNG_MYOPIC`] /
/// [`RUNG_STATIC`]).
pub fn note_rung(rung: u8) {
    with_active(|s| s.rung = rung);
}

/// Note the typed shed reason the request is refused with
/// ([`SHED_QUEUE`] / [`SHED_DEADLINE`] / [`SHED_BREAKER`]).
pub fn note_shed(code: u8) {
    with_active(|s| s.shed = code);
}

/// Note the typed error the request is about to return (an
/// [`crate::engine::EngineError`] flight code).
pub fn note_error(code: u8) {
    with_active(|s| s.error = code);
}

/// Note a fired failpoint (`FailSite as u8 + 1`; called by
/// [`crate::fault::hit`] itself, so every injected fault is attributed).
pub fn note_fault(site_p1: u8) {
    with_active(|s| s.fault = site_p1);
}

/// Accumulate one capture-tape interval into the request's per-stage
/// breakdown (called by `Engine::absorb_tape` alongside the stage
/// metrics).
pub fn note_stage(stage: Stage, ns: u64) {
    with_active(|s| {
        s.stage_ns[stage as usize] = s.stage_ns[stage as usize].saturating_add(ns);
    });
}

// ---------------------------------------------------------------------------
// Snapshots, dumps
// ---------------------------------------------------------------------------

/// Snapshot the global flight ring (sorted by completion sequence).
pub fn flight_snapshot() -> Vec<FlightEntry> {
    global_flight().map_or_else(Vec::new, FlightRing::snapshot)
}

/// Monotone count of request summaries ever recorded.
pub fn flight_recorded() -> u64 {
    global_flight().map_or(0, FlightRing::pushed)
}

/// Invalidate every recorded summary (the monotone counter survives) and
/// re-arm the automatic dump-once latches. Called by
/// `Engine::reset_stats` so each telemetry window may dump again.
pub fn reset_flight() {
    if let Some(ring) = global_flight() {
        ring.clear();
    }
    // Ordering: Relaxed — the latch is advisory once-per-window noise
    // control; no data is published through it.
    DUMPED.store(0, std::sync::atomic::Ordering::Relaxed);
}

/// Render the global flight ring as a JSON array of [`FlightRecord`]s.
pub fn flightrec_json() -> String {
    entries_json(&flight_snapshot())
}

/// Once-per-reason latch bits for [`auto_dump`] (reset by
/// [`reset_flight`]).
static DUMPED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many tail entries an automatic dump prints.
const AUTO_DUMP_TAIL: usize = 8;

/// Dump the recorder tail to stderr, at most once per `reason` per
/// telemetry window. The engine calls this when a session is quarantined
/// after a panic and when the admission gate sheds — the black-box
/// moments the recorder exists for.
pub fn auto_dump(reason: &'static str) {
    let Some(ring) = global_flight() else {
        return;
    };
    let bit = match reason {
        "quarantine" => 1u64,
        "shed" => 2,
        _ => 4,
    };
    // Ordering: Relaxed — advisory once-per-window latch; a rare double
    // dump under a race is noise, not corruption.
    let prev = DUMPED.fetch_or(bit, std::sync::atomic::Ordering::Relaxed);
    if prev & bit != 0 {
        return;
    }
    let entries = ring.snapshot();
    let tail = &entries[entries.len().saturating_sub(AUTO_DUMP_TAIL)..];
    eprintln!(
        "[flightrec] dump on {reason}: last {} of {} recorded requests",
        tail.len(),
        ring.pushed()
    );
    for e in tail {
        eprintln!(
            "[flightrec]   rid={} verb={} shard={} cache={} rung={} error={} fault={} total_us={:.1}",
            e.request_id,
            e.verb.name(),
            e.shard.map_or(-1, i64::from),
            match e.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "-",
            },
            if e.rung == 0 { "-" } else { e.rung_name() },
            if e.error == 0 { "-" } else { e.error_name() },
            if e.fault == 0 {
                "-"
            } else {
                e.fault_site_name()
            },
            e.total_ns as f64 / 1_000.0,
        );
    }
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    fn raw(rid: u64, verb: Verb) -> RawSummary {
        RawSummary {
            rid,
            verb: verb as u8,
            shard_p1: 0,
            cache: 0,
            rung: 0,
            shed: 0,
            error: 0,
            fault: 0,
            total_ns: 5_000,
            stage_ns: [0; Stage::COUNT],
        }
    }

    #[test]
    fn ring_round_trips_every_packed_field() {
        let ring = FlightRing::new(8);
        let mut s = raw(77, Verb::Expand);
        s.shard_p1 = 3;
        s.cache = 2;
        s.rung = RUNG_STATIC;
        s.shed = SHED_DEADLINE;
        s.error = 5;
        s.fault = crate::fault::FailSite::SolverEntry as u8 + 1;
        s.total_ns = 1_234_000;
        s.stage_ns[Stage::Solve as usize] = 900_000;
        s.stage_ns[Stage::Partition as usize] = 300_500;
        ring.push(&s);
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.seq, 0);
        assert_eq!(e.request_id, 77);
        assert_eq!(e.verb, Verb::Expand);
        assert_eq!(e.shard, Some(2));
        assert_eq!(e.cache_hit, Some(false));
        assert_eq!(e.rung_name(), "static");
        assert_eq!(e.shed_name(), "deadline");
        assert_eq!(e.fault_site_name(), "solver_entry");
        assert_eq!(e.total_ns, 1_234_000);
        assert_eq!(e.stage_us[Stage::Solve as usize], 900);
        assert_eq!(e.stage_us[Stage::Partition as usize], 300);
        assert_eq!(ring.pushed(), 1);
    }

    #[test]
    fn ring_wraps_and_clears_like_the_span_ring() {
        let ring = FlightRing::new(2);
        for i in 0..5 {
            ring.push(&raw(i, Verb::Open));
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 2, "only the newest capacity slots survive");
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(ring.pushed(), 5);
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 5, "push counter survives clear");
    }

    #[test]
    fn lap_check_drops_a_slot_whose_tag_disagrees_with_its_stamp() {
        let ring = FlightRing::new(4);
        ring.push(&raw(1, Verb::Open));
        // Stamp 1 with the tag of seq 2: a lapping writer's meta.
        ring.ring.push(|seq| raw(2, Verb::Expand).words(seq + 1));
        // Stamp 2 with a tag that agrees in the low 16 bits the codec keeps.
        ring.ring
            .push(|seq| raw(3, Verb::Close).words(seq + (1 << 16)));
        let rids: Vec<u64> = ring.snapshot().iter().map(|e| e.request_id).collect();
        assert_eq!(rids, vec![1, 3], "the mis-tagged slot must be dropped");
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn records_serialize_with_decoded_names() {
        let mut s = raw(9, Verb::Open);
        s.cache = 1;
        s.stage_ns[Stage::OpenSession as usize] = 42_000;
        let ring = FlightRing::new(2);
        ring.push(&s);
        let json = entries_json(&ring.snapshot());
        let parsed: Vec<FlightRecord> = serde_json::from_str(&json).expect("round trip");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].request_id, 9);
        assert_eq!(parsed[0].verb, "open");
        assert_eq!(parsed[0].cache, "hit");
        assert_eq!(parsed[0].shard, -1);
        assert_eq!(parsed[0].stages.len(), 1);
        assert_eq!(parsed[0].stages[0].stage, "open_session");
        assert_eq!(parsed[0].stages[0].us, 42.0);
    }

    #[test]
    fn shed_codes_decode_to_reason_names() {
        use crate::admission::ShedReason;
        let ring = FlightRing::new(8);
        for (code, _reason) in [
            (SHED_QUEUE, ShedReason::Queue),
            (SHED_DEADLINE, ShedReason::Deadline),
            (SHED_BREAKER, ShedReason::Breaker),
        ] {
            let mut s = raw(u64::from(code), Verb::Expand);
            s.shed = code;
            ring.push(&s);
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 3);
        for (e, reason) in
            entries
                .iter()
                .zip([ShedReason::Queue, ShedReason::Deadline, ShedReason::Breaker])
        {
            assert_eq!(e.shed, reason as u8 + 1);
            assert_eq!(e.shed_name(), reason.name());
        }
        // An un-shed entry decodes to the empty reason.
        assert_eq!(raw(1, Verb::Open).shed, 0);
        assert_eq!(shed_name(0), "");
    }

    #[test]
    fn verb_index_round_trips() {
        for (i, &verb) in Verb::ALL.iter().enumerate() {
            assert_eq!(verb as usize, i);
            assert_eq!(Verb::from_index(i as u8), Some(verb));
        }
        assert_eq!(Verb::from_index(Verb::COUNT as u8), None);
    }

    #[test]
    fn scopes_nest_and_record_once() {
        // Serialized against other flight-plane tests via the thread-local
        // pending state being per-thread; the global ring is shared, so
        // assert on the per-request fields rather than counts.
        let ctx = RequestCtx {
            request_id: 0xABCD_0001,
            session: Some(7),
            deadline_ns: 0,
        };
        let before = flight_recorded();
        {
            let _outer = request_scope(ctx, Verb::Expand);
            assert_eq!(current_request_id(), 0xABCD_0001);
            {
                let _inner = ensure_scope(Verb::Open);
                // The outer scope wins; no new id is minted.
                assert_eq!(current_request_id(), 0xABCD_0001);
            }
            note_rung(RUNG_MYOPIC);
            note_stage(Stage::Solve, 3_000);
        }
        assert_eq!(current_request_id(), 0, "scope closed");
        assert_eq!(flight_recorded(), before + 1, "exactly one summary");
        let entries = flight_snapshot();
        let mine = entries
            .iter()
            .find(|e| e.request_id == 0xABCD_0001)
            .expect("summary recorded");
        assert_eq!(mine.verb, Verb::Expand);
        assert_eq!(mine.rung_name(), "myopic");
        assert_eq!(mine.stage_us[Stage::Solve as usize], 3);
    }

    #[test]
    fn ensure_scope_mints_distinct_ids() {
        let a = {
            let _s = ensure_scope(Verb::Script);
            current_request_id()
        };
        let b = {
            let _s = ensure_scope(Verb::Script);
            current_request_id()
        };
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn notes_outside_a_scope_are_no_ops() {
        let before = flight_recorded();
        note_cache(true);
        note_error(3);
        note_fault(1);
        note_stage(Stage::Solve, 1_000);
        assert_eq!(current_request_id(), 0);
        assert_eq!(current_deadline_ns(), 0);
        assert_eq!(flight_recorded(), before);
    }
}
