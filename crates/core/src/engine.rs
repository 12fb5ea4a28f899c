//! # Concurrent query-serving engine (the "system" layer over §VII)
//!
//! The paper describes BioNav as a deployed online system: a keyword query
//! arrives, its navigation tree is constructed once, and the user then
//! navigates interactively. This module turns the reproduction's
//! single-session pipeline into a **multi-session serving engine**:
//!
//! * [`Engine`] holds navigation trees in a capacity-bounded LRU
//!   `TreeCache` keyed by *normalized* query text
//!   ([`bionav_medline::normalize_phrase`]) — repeated queries share one
//!   `Arc<NavigationTree>` instead of rebuilding it;
//! * many concurrent [`Session`]s live in a lock-guarded session table,
//!   each independently resumable from any worker thread
//!   (`Session<Arc<NavigationTree>>` is `Send`, enforced at compile time
//!   below);
//! * a batch driver ([`Engine::replay`]) replays navigation scripts from N
//!   pooled worker threads, and [`Engine::stats`] exposes the serving
//!   telemetry (cache hit rate, per-EXPAND latency percentiles,
//!   sessions/sec) the bench harness reports.
//!
//! Thread-safety audit: `NavigationTree`, `ActiveTree` and `SessionState`
//! are plain owned data with no interior mutability; `ReducedPlan` carries
//! its retained solver memo behind a mutex; `Session` retains plans behind
//! `Arc` (not `Rc`) so it is `Send + Sync` whenever its tree handle is.
//! The `const` block at the bottom of this file makes these guarantees
//! compile-time assertions — reintroducing an `Rc` (or a `Cell`) anywhere
//! in the navigation stack fails the build.
//!
//! Telemetry is deliberately off the serving hot path: every event is one
//! relaxed atomic add on the engine's [`Window`] (DESIGN.md §5c), whose
//! latency histograms are sharded and lock-free and whose live-session
//! gauge is maintained at insert/remove time, so [`Engine::stats`] never
//! touches the session table's lock while workers are serving.
//!
//! ## Fault tolerance (DESIGN.md §5f)
//!
//! An interactive EXPAND must always come back, fast, even when the solver
//! hits a pathological component or a worker dies. Three mechanisms:
//!
//! * **Typed errors** — every public entry point returns
//!   `Result<_, `[`EngineError`]`>` instead of a bare `Option`, so callers
//!   can tell an unknown query from a shed request from a quarantined
//!   session.
//! * **The degradation ladder** — under a configurable [`DegradePolicy`]
//!   (deadline / component-size budget) or an injected fault
//!   ([`fault`]), EXPAND degrades monotonically: exact
//!   Opt-EdgeCut → retained-memo myopic cut → static show-all-children
//!   cut. Every degraded answer is still a *valid* EdgeCut (validated by
//!   the active tree), is flagged with a [`DegradeReason`] in the reply,
//!   and is tallied in [`ServeStats`] / the trace plane
//!   ([`Stage::Degraded`]) / the Prometheus exposition. With the default
//!   policy and no armed faults the ladder never fires and per-query
//!   costs are bit-identical to the exact pipeline (chaos-tested).
//! * **Panic isolation & quarantine** — EXPAND bodies and pool-worker
//!   tasks run inside [`fault::isolate`]; a panic
//!   becomes a typed error, the affected session is quarantined (visible
//!   in stats; [`Engine::close_session`] still drains it) and the batch
//!   keeps going. An admission gate bounds in-flight EXPANDs and sheds
//!   load with [`EngineError::Overloaded`] instead of queueing
//!   unboundedly.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

// The session table and tree cache go through the sync shim so the
// interleave park/resume model explores the production protocol (§5d).
use crate::sync::{AtomicU64, Mutex, Ordering};

use crate::admission::AdmissionGate;
use crate::slo::{slo_for, SloVerb};
pub use crate::telemetry::{HealthCounters, ServeStats};
use crate::telemetry::{Snapshot, Tally, Window};
use crate::trace::flightrec::{self, Verb};
use crate::trace::{self, Stage};

use crate::active::EdgeCutError;
use crate::cost::CostParams;
use crate::fault::{self, FailSite, Fault};
use crate::navtree::{NavNodeId, NavigationTree};
use crate::session::{CutCache, Session, SessionState};
use crate::sim::NavOutcome;

pub mod pool {
    //! A minimal bounded worker pool over `std::thread::scope`.
    //!
    //! Replaces the seed's unbounded one-thread-per-task fan-out: `workers`
    //! OS threads pull task indices from a shared atomic counter until the
    //! range is drained. Results are returned in task order, so callers see
    //! output byte-identical to a sequential map.
    //!
    //! **Panic isolation** (DESIGN.md §5f): each task body runs inside
    //! [`fault::isolate`]. A panicking task yields a
    //! typed [`WorkerPanicked`] in its own slot while the worker thread
    //! keeps draining the counter — one bad task never loses the other
    //! tasks' results or aborts the batch.

    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::fault::{self, FailSite};

    /// One pool task panicked; the other tasks' results are unaffected.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WorkerPanicked {
        /// Index of the panicking task in `0..tasks`.
        pub task: usize,
        /// The panic payload, stringified.
        pub message: String,
    }

    /// Maps `f` over `0..tasks` on at most `workers` threads, returning
    /// per-task results in task order — `Ok(value)` or the typed
    /// [`WorkerPanicked`] if that task's body panicked. `workers` is
    /// clamped to `[1, tasks]`; with a single worker the map runs inline
    /// on the caller's thread (panics are isolated the same way).
    pub fn scoped_map<T, F>(tasks: usize, workers: usize, f: F) -> Vec<Result<T, WorkerPanicked>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Failpoint + isolation wrapper shared by the inline and pooled
        // paths. The `PoolWorker` site models a task body dying: any fired
        // fault panics here, inside the isolate region.
        let run = |i: usize| -> Result<T, WorkerPanicked> {
            fault::isolate(|| {
                if fault::hit(FailSite::PoolWorker).is_some() {
                    // Every fault action at this site models a worker death.
                    fault::injected_panic(FailSite::PoolWorker);
                }
                f(i)
            })
            .map_err(|message| WorkerPanicked { task: i, message })
        };
        if tasks == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, tasks);
        if workers == 1 {
            return (0..tasks).map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let buckets: Vec<Vec<(usize, Result<T, WorkerPanicked>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            // Relaxed: the counter only hands out distinct
                            // indices; results flow back via join, which
                            // synchronizes.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            out.push((i, run(i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                // lint: allow(no-unwrap) — task bodies are caught by
                // fault::isolate above, so a worker thread itself never
                // panics; join can only fail if the runtime is broken
                .map(|h| h.join().expect("pool worker thread panicked"))
                .collect()
        });
        let mut slots: Vec<Option<Result<T, WorkerPanicked>>> = (0..tasks).map(|_| None).collect();
        for bucket in buckets {
            for (i, v) in bucket {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            // lint: allow(no-unwrap) — fetch_add hands each index to exactly
            // one worker, so every slot is filled by construction
            .map(|s| s.expect("every task index is claimed exactly once"))
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn preserves_order_and_runs_every_task() {
            for workers in [1, 2, 7, 64] {
                let out = scoped_map(100, workers, |i| i * 3);
                assert_eq!(out, (0..100).map(|i| Ok(i * 3)).collect::<Vec<_>>());
            }
        }

        #[test]
        fn zero_tasks_is_fine() {
            let out: Vec<Result<u32, WorkerPanicked>> = scoped_map(0, 8, |_| unreachable!());
            assert!(out.is_empty());
        }

        #[test]
        fn one_panicking_task_does_not_lose_the_others() {
            // Regression (DESIGN.md §5f): the old pool re-raised a worker
            // panic on the caller, aborting the whole batch. Now the
            // panicking task reports typed and every other slot survives —
            // across worker counts, including the inline single-worker path.
            for workers in [1, 2, 4, 16] {
                let out = scoped_map(20, workers, |i| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                    i * 2
                });
                assert_eq!(out.len(), 20);
                for (i, slot) in out.iter().enumerate() {
                    if i == 7 {
                        let err = slot.as_ref().expect_err("task 7 must report its panic");
                        assert_eq!(err.task, 7);
                        assert!(err.message.contains("task 7 exploded"), "{}", err.message);
                    } else {
                        assert_eq!(slot.as_ref().copied(), Ok(i * 2), "slot {i} lost");
                    }
                }
            }
        }
    }
}

/// A navigation tree shared between the cache and any number of sessions.
pub type SharedTree = Arc<NavigationTree>;

/// A parked session's handle paired with its tree's cross-session cut memo.
type SessionAndCuts = (Arc<Mutex<Session<SharedTree>>>, Arc<CutCache>);

/// Handle to a session parked in the engine's session table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw table key. Crate-internal: [`crate::shard`] packs it with a
    /// shard index into a [`crate::shard::ShardSessionId`].
    pub(crate) fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`SessionId::to_raw`] bits. Crate-internal;
    /// a forged id is harmless (the table lookup returns
    /// [`EngineError::UnknownSession`]).
    pub(crate) fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

/// One step of a replayable navigation script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp {
    /// EXPAND one visible node.
    Expand(NavNodeId),
    /// EXPAND visible components in pre-order until the tree is fully
    /// expanded (the oracle "drill everywhere" load generator).
    ExpandFully,
    /// SHOWRESULTS on one visible node.
    ShowResults(NavNodeId),
    /// IGNORE a revealed node.
    Ignore(NavNodeId),
    /// BACKTRACK the last expansion.
    Backtrack,
}

/// What one script replay produced.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The (raw) query text the script navigated.
    pub query: String,
    /// The session's accumulated §III cost at script end.
    pub cost: NavOutcome,
    /// Wall-clock nanoseconds of every EXPAND the script performed.
    pub expand_ns: Vec<u64>,
    /// How many of the script's EXPANDs were answered by the degradation
    /// ladder (0 on the clean path — asserted by `reproduce -- serve`).
    pub degraded_expands: u32,
}

/// Why an EXPAND was answered by the degradation ladder instead of the
/// exact planner (DESIGN.md §5f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The request's context deadline ([`flightrec::RequestCtx`]) was
    /// within [`DegradePolicy::deadline_exact_headroom_ns`] when the
    /// planning decision was made.
    Deadline,
    /// The component exceeded [`DegradePolicy::exact_node_budget`] nodes.
    StepBudget,
    /// An armed failpoint ([`crate::fault`]) fired at solver entry.
    Fault,
}

impl DegradeReason {
    /// Stable snake_case name (metrics labels, REPL output).
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::StepBudget => "step_budget",
            DegradeReason::Fault => "fault",
        }
    }
}

/// What [`Engine::expand`] returns on success: the revealed concepts plus
/// whether (and why) the answer came from the degradation ladder rather
/// than the exact planner. `degraded == None` means the cut is the exact
/// pipeline's, bit-identical to a single-session run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandReply {
    /// The newly revealed component roots, in cut order.
    pub revealed: Vec<NavNodeId>,
    /// `Some(reason)` when a ladder rung answered instead of the exact
    /// planner.
    pub degraded: Option<DegradeReason>,
}

/// The serving engine's error taxonomy (DESIGN.md §5f). Replaces the bare
/// `Option` returns: callers can tell a bad query from shed load from a
/// quarantined session, and react accordingly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query has no results (the tree builder returned nothing).
    UnknownQuery(String),
    /// No session with this id is parked in the table.
    UnknownSession(SessionId),
    /// The session exists but could not be engaged right now (an injected
    /// lock-acquisition fault; transient — retry later).
    SessionBusy(SessionId),
    /// The session was quarantined after a panic; it no longer serves
    /// operations, but [`Engine::close_session`] still drains its state.
    Quarantined(SessionId),
    /// The admission gate shed this EXPAND
    /// ([`DegradePolicy::max_inflight_expands`]); nothing was executed.
    Overloaded,
    /// Building the navigation tree failed (builder panic or injected
    /// tree-build fault); carries the failure message.
    TreeBuildFailed(String),
    /// The session panicked during this operation and has been moved to
    /// quarantine; carries the panic payload.
    SessionPanicked {
        /// The now-quarantined session.
        id: SessionId,
        /// The panic payload, stringified.
        message: String,
    },
    /// A pool worker task panicked during a batch replay.
    WorkerPanicked {
        /// Index of the failed job.
        task: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A persisted [`SessionState`] does not fit the query's rebuilt tree
    /// (stale or foreign state; the `ActiveTree::fits` validation).
    StateMismatch,
    /// The navigation itself refused the operation (hidden node, singleton
    /// component, invalid cut, …).
    Cut(EdgeCutError),
    /// The request's end-to-end deadline ([`flightrec::RequestCtx`]) had
    /// already expired on arrival; nothing was executed.
    DeadlineExceeded,
    /// The target shard's circuit breaker is open; retry after the hint.
    BreakerOpen {
        /// The fast-failing shard.
        shard: usize,
        /// Client backoff hint, nanoseconds (always ≥ 1).
        retry_after_ns: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownQuery(q) => write!(f, "query has no results: {q:?}"),
            EngineError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            EngineError::SessionBusy(id) => write!(f, "session {id:?} is busy; retry"),
            EngineError::Quarantined(id) => {
                write!(f, "session {id:?} is quarantined after a panic")
            }
            EngineError::Overloaded => write!(f, "engine overloaded; EXPAND shed"),
            EngineError::TreeBuildFailed(msg) => write!(f, "navigation tree build failed: {msg}"),
            EngineError::SessionPanicked { id, message } => {
                write!(f, "session {id:?} panicked and was quarantined: {message}")
            }
            EngineError::WorkerPanicked { task, message } => {
                write!(f, "replay job {task} panicked: {message}")
            }
            EngineError::StateMismatch => {
                write!(f, "persisted session state does not fit the query's tree")
            }
            EngineError::Cut(e) => write!(f, "navigation refused: {e}"),
            EngineError::DeadlineExceeded => {
                write!(f, "request deadline expired before any work was done")
            }
            EngineError::BreakerOpen {
                shard,
                retry_after_ns,
            } => write!(
                f,
                "shard {shard} circuit breaker is open; retry after {} ms",
                retry_after_ns.div_ceil(1_000_000)
            ),
        }
    }
}

impl EngineError {
    /// Kind names indexed by the variant's position in the enum; the
    /// flight-recorder code is this index plus one (0 = success).
    const KIND_NAMES: [&'static str; 12] = [
        "unknown_query",
        "unknown_session",
        "session_busy",
        "quarantined",
        "overloaded",
        "tree_build_failed",
        "session_panicked",
        "worker_panicked",
        "state_mismatch",
        "cut",
        "deadline_exceeded",
        "breaker_open",
    ];

    fn kind_index(&self) -> usize {
        match self {
            EngineError::UnknownQuery(_) => 0,
            EngineError::UnknownSession(_) => 1,
            EngineError::SessionBusy(_) => 2,
            EngineError::Quarantined(_) => 3,
            EngineError::Overloaded => 4,
            EngineError::TreeBuildFailed(_) => 5,
            EngineError::SessionPanicked { .. } => 6,
            EngineError::WorkerPanicked { .. } => 7,
            EngineError::StateMismatch => 8,
            EngineError::Cut(_) => 9,
            EngineError::DeadlineExceeded => 10,
            EngineError::BreakerOpen { .. } => 11,
        }
    }

    /// Stable snake_case kind name (flight-recorder records, logs).
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// 1-based kind code packed into flight-recorder slots (0 = ok).
    pub(crate) fn flight_code(&self) -> u8 {
        self.kind_index() as u8 + 1
    }

    /// Inverse of [`EngineError::flight_code`]: the kind name for a packed
    /// code, `""` for 0 (success).
    pub(crate) fn flight_kind(code: u8) -> &'static str {
        if code == 0 {
            return "";
        }
        Self::KIND_NAMES
            .get(usize::from(code - 1))
            .copied()
            .unwrap_or("unknown")
    }
}

impl std::error::Error for EngineError {}

impl From<EdgeCutError> for EngineError {
    fn from(e: EdgeCutError) -> Self {
        EngineError::Cut(e)
    }
}

/// Bounded-time serving policy: when EXPAND drops onto the degradation
/// ladder, and how much concurrent EXPAND load the engine admits
/// (DESIGN.md §5f). The default policy never degrades and admits far more
/// in-flight EXPANDs than any worker pool this engine runs — the clean
/// serve path is unchanged (chaos-tested bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Largest component (node count) the exact planner is given; bigger
    /// components degrade. `0` disables the budget.
    pub exact_node_budget: usize,
    /// Maximum concurrently in-flight EXPANDs before the admission gate
    /// sheds with [`EngineError::Overloaded`]. `0` disables the gate. With
    /// [`DegradePolicy::adaptive_admission`] set this is the AIMD
    /// controller's *ceiling* instead of the operating point.
    pub max_inflight_expands: usize,
    /// Run the [`AdmissionGate`] AIMD controller (DESIGN.md §5k): the
    /// in-flight limit tracks the measured EXPAND latency window against
    /// the [`crate::slo::SLOS`] target p99 instead of sitting at the
    /// static cap. Off by default — the clean serve path keeps the fixed
    /// cap and stays bit-identical.
    pub adaptive_admission: bool,
    /// Latency target the AIMD controller compares the EXPAND window
    /// against, nanoseconds. `0` (the default) uses the global
    /// [`crate::slo::SLOS`] Expand target; operators tune it per tier in
    /// the gradient-controller style — unloaded baseline latency × a
    /// tolerance factor — so the gate reacts to *this* deployment's
    /// queueing, not an absolute number sized for other hardware.
    pub admission_target_ns: u64,
    /// When a request carries an absolute deadline
    /// ([`flightrec::RequestCtx::deadline_ns`]), skip the exact planner if
    /// fewer than this many nanoseconds remain at planning time (the exact
    /// solve would likely blow the budget; the ladder answers instead).
    /// Only consulted for deadline-carrying requests, so oracle runs
    /// (deadline 0) never see it.
    pub deadline_exact_headroom_ns: u64,
    /// When a deadline-carrying request has fewer than this many
    /// nanoseconds left, the ladder skips even the myopic rung and answers
    /// with the static show-all-children cut.
    pub deadline_static_headroom_ns: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            exact_node_budget: 0,
            max_inflight_expands: 1024,
            adaptive_admission: false,
            admission_target_ns: 0,
            deadline_exact_headroom_ns: 5_000_000,
            deadline_static_headroom_ns: 1_000_000,
        }
    }
}

/// How many distinct components each per-tree [`CutCache`] memoizes before
/// it stops inserting (fixed memory per cached tree).
const CUT_CACHE_CAPACITY: usize = 4096;

/// LRU cache entry: the shared tree plus its cross-session cut memo.
/// Evicting the tree evicts its cuts with it.
struct CacheEntry {
    tree: SharedTree,
    cuts: Arc<CutCache>,
    last_used: u64,
}

/// One in-flight cold build: the slot is locked by the building thread for
/// the duration of the build, so joiners block on `lock()` instead of
/// re-running the builder, then read the published result. Uses the sync
/// shim's `Mutex`, so the interleave checker models the latch.
type FlightSlot = Arc<Mutex<Option<Result<(SharedTree, Arc<CutCache>), EngineError>>>>;

/// Capacity-bounded LRU of navigation trees keyed by normalized query text.
struct TreeCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TreeCache {
    fn new(capacity: usize) -> Self {
        TreeCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Zeroes the hit/miss/eviction counters, keeping the cached trees.
    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Probe only: bumps the hit counter on a find. Misses are counted by
    /// the caller when it commits to a build (`count_miss`), because with
    /// single-flight builds a probe miss may still be served by another
    /// thread's in-flight build — which counts as a hit, exactly as it did
    /// when the second thread queued on the cache lock instead.
    fn get(&mut self, key: &str) -> Option<(SharedTree, Arc<CutCache>)> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some((Arc::clone(&entry.tree), Arc::clone(&entry.cuts)))
            }
            None => None,
        }
    }

    /// One lookup resolved by (attempting) a fresh build.
    fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// One lookup served by joining another thread's in-flight build.
    fn count_flight_hit(&mut self) {
        self.hits += 1;
    }

    fn insert(&mut self, key: String, tree: SharedTree) -> Arc<CutCache> {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // Evict the least-recently-used entry. O(n) scan — capacities
            // are small (tens to hundreds of hot queries) and eviction only
            // happens on miss-with-full-cache; sessions holding the evicted
            // tree keep their `Arc` alive independently.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
                self.evictions += 1;
            }
        }
        let cuts = Arc::new(CutCache::new(CUT_CACHE_CAPACITY));
        self.entries.insert(
            key,
            CacheEntry {
                tree,
                cuts: Arc::clone(&cuts),
                last_used: self.tick,
            },
        );
        cuts
    }
}

/// A parked session plus the raw query that opened it and the
/// cross-session cut memo of its tree (resolved once at open time so the
/// EXPAND hot path never touches the tree-cache lock).
struct SessionSlot {
    session: Arc<Mutex<Session<SharedTree>>>,
    query: String,
    cuts: Arc<CutCache>,
    /// Set when a panic escaped an operation on this session: the state
    /// may violate navigation invariants, so the slot stops serving
    /// (`expand`/`with_session` refuse) and only `close_session` — which
    /// merely exports — will touch it again. Guarded by the session-table
    /// lock; no separate quarantine set, so there is no second lock order.
    poisoned: bool,
}

/// The concurrent query-serving engine. See the module docs.
///
/// `B` builds a navigation tree for a query that misses the cache; it
/// returns `None` for queries with no results. Builders are called with no
/// engine lock held except the per-key flight latch (concurrent misses on
/// the *same* query still build once; misses on *different* queries build
/// in parallel, and cache hits never wait behind a build).
pub struct Engine<B>
where
    B: Fn(&str) -> Option<SharedTree> + Send + Sync,
{
    builder: B,
    params: CostParams,
    cache: Mutex<TreeCache>,
    /// In-flight cold builds keyed like the cache. Builders run outside
    /// the cache lock (cache hits never queue behind a build); this
    /// registry is what still guarantees one build per key.
    flights: Mutex<HashMap<String, FlightSlot>>,
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    next_session: AtomicU64,
    /// The telemetry window (DESIGN.md §5c): latency histograms, tallies
    /// and gauges, restarted by [`Engine::reset_stats`].
    window: Window,
    /// Degradation-ladder / admission policy (DESIGN.md §5f).
    policy: DegradePolicy,
    /// The in-flight EXPAND gate (DESIGN.md §5k): a fixed cap with the
    /// default policy, the AIMD controller's live limit under
    /// [`DegradePolicy::adaptive_admission`].
    admission: AdmissionGate,
    /// Shard index for fault-plane scoping (`u64::MAX` = untagged, the
    /// standalone-engine default). A [`crate::shard::ShardedEngine`] tags
    /// each member at construction so [`crate::fault::FaultPlan::only_shard`]
    /// plans can storm one shard in isolation.
    fault_shard: u64,
}

impl<B> Engine<B>
where
    B: Fn(&str) -> Option<SharedTree> + Send + Sync,
{
    /// Creates an engine with the given tree builder, session cost
    /// parameters, and tree-cache capacity. The degradation/admission
    /// policy defaults to "never degrade" ([`DegradePolicy::default`]);
    /// set one with [`Engine::with_policy`] or [`Engine::set_policy`].
    pub fn new(builder: B, params: CostParams, cache_capacity: usize) -> Self {
        Engine {
            builder,
            params,
            cache: Mutex::new(TreeCache::new(cache_capacity)),
            flights: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            window: Window::new(trace::now_ns()),
            policy: DegradePolicy::default(),
            admission: AdmissionGate::new(DegradePolicy::default().max_inflight_expands),
            fault_shard: u64::MAX,
        }
    }

    /// Tag every operation on this engine as belonging to fault-plane
    /// shard `shard` (see [`fault::enter_shard`]). Takes `&mut self` like
    /// [`Engine::set_policy`]: tagging happens once, at sharded-tier
    /// construction, before any worker holds the engine.
    pub fn set_fault_shard(&mut self, shard: usize) {
        self.fault_shard = shard as u64;
    }

    /// Scope guard tagging the current thread with this engine's fault
    /// shard for the duration of one public operation; `None` (and zero
    /// work) for untagged standalone engines.
    fn fault_scope(&self) -> Option<fault::ShardScope> {
        (self.fault_shard != u64::MAX).then(|| fault::enter_shard(self.fault_shard as usize))
    }

    /// Open (or join) this thread's flight-recorder request scope for one
    /// public operation (DESIGN.md §5j). Wire-fronted requests arrive with
    /// a scope already open (the front end minted the
    /// [`flightrec::RequestCtx`]) and join it; direct API callers get a
    /// fresh server-minted request id.
    /// Shard-tagged engines stamp their shard into the summary.
    fn flight_scope(&self, verb: Verb) -> flightrec::RequestScope {
        let scope = flightrec::ensure_scope(verb);
        if self.fault_shard != u64::MAX {
            flightrec::note_shard(self.fault_shard as usize);
        }
        scope
    }

    /// The request envelope of [`Engine::open_session`] /
    /// [`Engine::restore_session`], [`Engine::expand`] and
    /// [`Engine::run_script`]: open (or join) the `verb` flight scope, tag
    /// the fault shard, and run `body` under the capture tape and an
    /// outermost `stage` span; then drain the tape into the stage metrics
    /// and note a typed failure on the flight record.
    fn serve_request<T>(
        &self,
        verb: Verb,
        stage: Stage,
        body: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let _flight = self.flight_scope(verb);
        let _shard = self.fault_scope();
        let cap = trace::capture();
        let out = {
            let _sp = trace::span(stage);
            body()
        };
        drop(cap);
        self.absorb_tape();
        if let Err(e) = &out {
            flightrec::note_error(e.flight_code());
        }
        out
    }

    /// Builder-style [`DegradePolicy`] override.
    pub fn with_policy(mut self, policy: DegradePolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Replace the degradation/admission policy. Takes `&mut self`: the
    /// policy is plain data read by serving threads, so it can only change
    /// while no worker holds the engine. The admission gate restarts at
    /// the new cap (the AIMD controller re-converges from there).
    pub fn set_policy(&mut self, policy: DegradePolicy) {
        self.policy = policy;
        self.admission.set_limit(policy.max_inflight_expands);
    }

    /// The live admission limit: the AIMD controller's current operating
    /// point under [`DegradePolicy::adaptive_admission`], otherwise the
    /// static cap (0 = ungated).
    pub fn admission_limit(&self) -> usize {
        self.admission.limit()
    }

    /// The active degradation/admission policy.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// Drain the calling thread's capture tape into the per-stage metrics.
    /// Called at the end of every public operation: the tape is exact
    /// (every span, independent of the ring toggle and sampling), so stage
    /// counts stay consistent with `edgecut::counters`.
    fn absorb_tape(&self) {
        for (stage, ns, _rid) in trace::take_captured() {
            self.window.record_stage(stage, ns);
            // The tape drains on the thread that ran the spans, while its
            // request scope is still open — the same interval lands in the
            // flight recorder's per-request breakdown.
            flightrec::note_stage(stage, ns);
        }
    }

    /// The engine's cache key for a raw query: lowercased, tokenized,
    /// whitespace-collapsed (`bionav_medline::normalize_phrase`), so
    /// `"Prothymosin  Alpha"` and `"prothymosin alpha"` share a tree.
    pub fn cache_key(query: &str) -> String {
        bionav_medline::normalize_phrase(query)
    }

    /// Returns the shared navigation tree for `query`, building and caching
    /// it on a miss. `None` when the builder reports no results (or the
    /// build failed; use the typed [`Engine::open_session`] path to tell
    /// the two apart).
    pub fn tree_for(&self, query: &str) -> Option<SharedTree> {
        self.tree_and_cuts_for(query).ok().map(|(tree, _, _)| tree)
    }

    /// The shared tree *and* its cross-session cut memo, building both on a
    /// miss. The builder runs inside [`fault::isolate`]: a panicking build
    /// (or an injected [`FailSite::TreeBuild`] fault) becomes a typed
    /// [`EngineError::TreeBuildFailed`] and leaves the cache consistent
    /// (the key is only inserted after a successful build).
    /// The trailing `bool` is true on a tree-cache hit, false when the
    /// skeleton was built cold — `open_session` records the hit/cold
    /// sub-stage from it.
    ///
    /// Builds run *outside* the cache lock: the lock is held only for the
    /// probe and the post-build insert, so cache hits never queue behind a
    /// concurrent cold build (pre-flight, a 4-worker cold round put ~22 ms
    /// of build time on *hit* opens). One build per key is preserved by
    /// the `flights` registry: the first miss becomes the leader and holds
    /// its [`FlightSlot`] lock for the duration of the build; later misses
    /// on the same key block on that lock and read the published result —
    /// the same "second thread waits, then is served" outcome as the old
    /// build-under-lock scheme, so they count as cache hits. Failed builds
    /// publish their error, cache nothing, and retire the flight, so the
    /// next call retries the build (unchanged failure semantics).
    fn tree_and_cuts_for(
        &self,
        query: &str,
    ) -> Result<(SharedTree, Arc<CutCache>, bool), EngineError> {
        let key = Self::cache_key(query);
        loop {
            {
                let mut cache = {
                    let _lk = trace::span(Stage::LockWait);
                    self.cache.lock()
                };
                if let Some((tree, cuts)) = cache.get(&key) {
                    return Ok((tree, cuts, true));
                }
            }

            // Miss: start this key's flight, or join the one in progress.
            // The leader latches its fresh slot while still holding the
            // registry lock (the slot `Arc` is unshared at that point, so
            // the lock can never block): no joiner can observe a
            // registered-but-unlatched flight, so a joiner's `slot.lock()`
            // below always returns a published result.
            let fresh: FlightSlot = Arc::new(Mutex::new(None));
            let mut joined: Option<FlightSlot> = None;
            let slot_guard = {
                let mut flights = self.flights.lock();
                match flights.get(&key) {
                    Some(slot) => {
                        joined = Some(Arc::clone(slot));
                        None
                    }
                    None => {
                        let guard = fresh.lock();
                        flights.insert(key.clone(), Arc::clone(&fresh));
                        Some(guard)
                    }
                }
            };

            if let Some(slot) = joined {
                // Joiner: block until the leader publishes, then take its
                // result. (The empty-slot case is unreachable by the latch
                // order above; re-probing is the safe response.)
                let published = {
                    let _lk = trace::span(Stage::LockWait);
                    slot.lock().clone()
                };
                match published {
                    Some(result) => {
                        let mut cache = self.cache.lock();
                        match &result {
                            // Served by the other thread's build: a hit,
                            // exactly as when it queued on the cache lock.
                            Ok(_) => cache.count_flight_hit(),
                            Err(_) => cache.count_miss(),
                        }
                        return result.map(|(tree, cuts)| (tree, cuts, true));
                    }
                    None => continue,
                }
            }

            // Leader: build with no lock held but the flight slot's.
            // lint: allow(no-unwrap) — joined is None here, so the registry
            // match above took the Vacant arm and latched the fresh slot
            let mut slot_guard = slot_guard.expect("non-joiner holds the latch");
            let built = fault::isolate(|| {
                // Failpoint: tree build (DESIGN.md §5f).
                match fault::hit(FailSite::TreeBuild) {
                    Some(Fault::Panic) => fault::injected_panic(FailSite::TreeBuild),
                    Some(_) => Err(EngineError::TreeBuildFailed(
                        "injected tree-build fault".to_string(),
                    )),
                    None => Ok((self.builder)(query)),
                }
            });
            let result = match built {
                Ok(Ok(Some(tree))) => {
                    let mut cache = self.cache.lock();
                    cache.count_miss();
                    let cuts = cache.insert(key.clone(), Arc::clone(&tree));
                    Ok((tree, cuts))
                }
                Ok(Ok(None)) => {
                    self.cache.lock().count_miss();
                    Err(EngineError::UnknownQuery(query.to_string()))
                }
                Ok(Err(e)) => {
                    self.cache.lock().count_miss();
                    Err(e)
                }
                Err(message) => {
                    self.cache.lock().count_miss();
                    Err(EngineError::TreeBuildFailed(message))
                }
            };
            // Publish, retire the flight, then release the latch: joiners
            // already holding the slot `Arc` read the result; arrivals
            // after the retire re-probe the cache (success) or start a
            // fresh flight (failure — so failed builds are retried).
            *slot_guard = Some(result.clone());
            self.flights.lock().remove(&key);
            drop(slot_guard);
            return result.map(|(tree, cuts)| (tree, cuts, false));
        }
    }

    /// Opens a session over `query`'s navigation tree.
    ///
    /// Typed failures: [`EngineError::UnknownQuery`] when the query has no
    /// results, [`EngineError::TreeBuildFailed`] when the build died.
    pub fn open_session(&self, query: &str) -> Result<SessionId, EngineError> {
        self.park_session(query, |tree| Ok(Session::new(tree, self.params.clone())))
    }

    /// The open path shared by [`Engine::open_session`] and
    /// [`Engine::restore_session`]: resolve `query`'s tree, let `make`
    /// build the session over it, park the session, and count the open.
    fn park_session(
        &self,
        query: &str,
        make: impl FnOnce(SharedTree) -> Result<Session<SharedTree>, EngineError>,
    ) -> Result<SessionId, EngineError> {
        self.serve_request(Verb::Open, Stage::OpenSession, || {
            // Expired on arrival? Reject before the (possibly cold) tree
            // build — the most expensive thing a dead request could buy.
            self.deadline_reject()?;
            let t0 = trace::now_ns();
            let (tree, cuts, cache_hit) = self.tree_and_cuts_for(query)?;
            flightrec::note_cache(cache_hit);
            let session = make(tree)?;
            // Ordering: Relaxed — only id uniqueness matters; the session
            // itself is published by the table lock below.
            let id = self.next_session.fetch_add(1, Ordering::Relaxed);
            let mut table = {
                let _lk = trace::span(Stage::LockWait);
                self.sessions.lock()
            };
            table.insert(
                id,
                SessionSlot {
                    session: Arc::new(Mutex::new(session)),
                    query: query.to_string(),
                    cuts,
                    poisoned: false,
                },
            );
            drop(table);
            self.window.session_opened();
            // A cache-hit open and a cold skeleton build are different
            // operations; record the same interval under the split
            // sub-stage so their percentiles don't blend.
            trace::record(
                if cache_hit {
                    Stage::OpenSessionHit
                } else {
                    Stage::OpenSessionCold
                },
                trace::now_ns().saturating_sub(t0),
            );
            Ok(SessionId(id))
        })
    }

    /// Runs `f` against the parked session `id`. The session-table lock is
    /// held only for the lookup; the per-session lock is held for `f`, so
    /// independent sessions never contend. `None` for unknown *or
    /// quarantined* ids (quarantined sessions only drain, via
    /// [`Engine::close_session`]).
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut Session<SharedTree>) -> R,
    ) -> Option<R> {
        let _shard = self.fault_scope();
        let slot = {
            let table = {
                let _lk = trace::span(Stage::LockWait);
                self.sessions.lock()
            };
            let slot = table.get(&id.0)?;
            if slot.poisoned {
                return None;
            }
            Arc::clone(&slot.session)
        };
        let mut session = slot.lock();
        Some(f(&mut session))
    }

    /// The parked session's handle plus its tree's cut memo; typed refusal
    /// for unknown or quarantined sessions.
    fn session_and_cuts(&self, id: SessionId) -> Result<SessionAndCuts, EngineError> {
        let table = {
            let _lk = trace::span(Stage::LockWait);
            self.sessions.lock()
        };
        let slot = table.get(&id.0).ok_or(EngineError::UnknownSession(id))?;
        if slot.poisoned {
            return Err(EngineError::Quarantined(id));
        }
        Ok((Arc::clone(&slot.session), Arc::clone(&slot.cuts)))
    }

    /// Move a session to quarantine after a panic escaped an operation on
    /// it: the slot stops serving, the gauges tick, and only
    /// [`Engine::close_session`] (which merely exports state) touches it
    /// again. Callers must NOT hold the session's own lock — the table
    /// lock is the only lock taken here (single lock order: table, then
    /// session, never the reverse).
    fn quarantine_session(&self, id: SessionId) {
        let mut newly = false;
        {
            let mut table = {
                let _lk = trace::span(Stage::LockWait);
                self.sessions.lock()
            };
            if let Some(slot) = table.get_mut(&id.0) {
                if !slot.poisoned {
                    slot.poisoned = true;
                    newly = true;
                    self.window.session_quarantined();
                }
            }
        }
        if newly {
            // Black-box moment (DESIGN.md §5j): a panic just quarantined a
            // session. Dump outside the table lock.
            flightrec::auto_dump("quarantine");
        }
    }

    /// Interleave-model hook (compiled only under `--cfg interleave`):
    /// drive the quarantine transition directly. [`fault::hit`] is a no-op
    /// in that configuration — injected panics never fire — but the
    /// quarantine *protocol* (table-lock-only poisoning racing concurrent
    /// open / expand / close) is exactly what the model checker must
    /// explore, so the transition is exposed as a first-class model input.
    #[cfg(interleave)]
    pub fn model_quarantine(&self, id: SessionId) {
        self.quarantine_session(id);
    }

    /// Admission gate (DESIGN.md §5f/§5k): admit one EXPAND or shed with
    /// [`EngineError::Overloaded`]. The returned guard releases the slot
    /// on drop (panic-safe — a quarantined EXPAND still releases).
    fn admit_expand(&self) -> Result<crate::admission::AdmitGuard<'_>, EngineError> {
        match self.admission.try_admit() {
            Some(guard) => Ok(guard),
            None => {
                self.window.add(Tally::ShedExpands);
                flightrec::note_shed(flightrec::SHED_QUEUE);
                // Black-box moment (DESIGN.md §5j): the gate is shedding load.
                flightrec::auto_dump("shed");
                Err(EngineError::Overloaded)
            }
        }
    }

    /// Deadline enforcement at the door (DESIGN.md §5k): if the request's
    /// end-to-end deadline ([`flightrec::RequestCtx::deadline_ns`], 0 =
    /// none) has already expired, reject typed before any solver, cache,
    /// or session-table work happens.
    fn deadline_reject(&self) -> Result<(), EngineError> {
        let deadline = flightrec::current_deadline_ns();
        if deadline != 0 && trace::now_ns() >= deadline {
            self.window.add(Tally::DeadlineRejects);
            flightrec::note_shed(flightrec::SHED_DEADLINE);
            return Err(EngineError::DeadlineExceeded);
        }
        Ok(())
    }

    /// One AIMD step when due (DESIGN.md §5k): compare the EXPAND latency
    /// window against the [`crate::slo::SLOS`] Expand target p99 and move
    /// the admit limit. The `due` pre-check keeps the histogram snapshot
    /// off the steady-state hot path (one snapshot per 25 ms per engine,
    /// max).
    fn adjust_admission(&self, now_ns: u64) {
        if !self.policy.adaptive_admission || !self.admission.due(now_ns) {
            return;
        }
        let target_ns = if self.policy.admission_target_ns != 0 {
            self.policy.admission_target_ns
        } else {
            slo_for(SloVerb::Expand).target_p99_ns
        };
        let snap = self.window.expand_snapshot();
        self.admission.adjust(
            now_ns,
            snap.count_at_or_below(target_ns),
            snap.total(),
            self.policy.max_inflight_expands,
        );
    }

    /// Decide whether this EXPAND degrades, and why — evaluated with the
    /// session lock held, before any planning work.
    fn choose_degrade(
        &self,
        session: &Session<SharedTree>,
        node: NavNodeId,
    ) -> Option<DegradeReason> {
        // Failpoint: solver entry (DESIGN.md §5f).
        if let Some(f) = fault::hit(FailSite::SolverEntry) {
            match f {
                Fault::Panic => fault::injected_panic(FailSite::SolverEntry),
                _ => return Some(DegradeReason::Fault),
            }
        }
        let budget = self.policy.exact_node_budget;
        if budget != 0 && session.component_size(node) > budget {
            return Some(DegradeReason::StepBudget);
        }
        // A request-scoped absolute deadline (wire [`flightrec::RequestCtx`])
        // degrades with headroom: if the remaining budget is smaller than
        // the exact solver's expected cost the ladder answers *before* the
        // deadline blows, not after. 0 = no deadline in the context — the
        // default, so reproduce passes stay bit-identical.
        let ctx_deadline = flightrec::current_deadline_ns();
        if ctx_deadline != 0
            && trace::now_ns().saturating_add(self.policy.deadline_exact_headroom_ns)
                >= ctx_deadline
        {
            return Some(DegradeReason::Deadline);
        }
        None
    }

    /// The graceful-degradation ladder (DESIGN.md §5f), monotone by
    /// construction: exact Opt-EdgeCut → retained-memo myopic cut → static
    /// show-all-children cut. Each rung either answers with a valid,
    /// [`ActiveTree`](crate::active::ActiveTree)-validated EdgeCut or
    /// falls to the next; only a failure no rung can fix (hidden node,
    /// singleton component) surfaces as an error.
    fn ladder_expand(
        &self,
        session: &mut Session<SharedTree>,
        cuts: &CutCache,
        node: NavNodeId,
    ) -> Result<(Vec<NavNodeId>, Option<DegradeReason>), EdgeCutError> {
        match self.choose_degrade(session, node) {
            None => session.expand_cached(node, cuts).map(|r| (r, None)),
            Some(reason) => {
                let _sp = trace::span(Stage::Degraded);
                // Near-exhausted deadline budget: even the myopic rung is a
                // risk, so jump straight to the constant-time static cut.
                let ctx_deadline = flightrec::current_deadline_ns();
                if ctx_deadline != 0
                    && trace::now_ns().saturating_add(self.policy.deadline_static_headroom_ns)
                        >= ctx_deadline
                {
                    let revealed = session.expand_static(node)?;
                    self.window.add(Tally::DegradedStatic);
                    flightrec::note_rung(flightrec::RUNG_STATIC);
                    return Ok((revealed, Some(reason)));
                }
                match session.expand_degraded_memo(node) {
                    Some(Ok(revealed)) => {
                        self.window.add(Tally::DegradedMyopic);
                        flightrec::note_rung(flightrec::RUNG_MYOPIC);
                        Ok((revealed, Some(reason)))
                    }
                    Some(Err(EdgeCutError::NotAComponentRoot(n))) => {
                        // No rung can expand a hidden node.
                        Err(EdgeCutError::NotAComponentRoot(n))
                    }
                    // No retained plan (or the memo cut no longer applies):
                    // drop to the static rung.
                    None | Some(Err(_)) => {
                        let revealed = session.expand_static(node)?;
                        self.window.add(Tally::DegradedStatic);
                        flightrec::note_rung(flightrec::RUNG_STATIC);
                        Ok((revealed, Some(reason)))
                    }
                }
            }
        }
    }

    /// One gated, panic-isolated EXPAND over an already-resolved session
    /// slot. Returns the engine-level outcome; the inner `Result` is the
    /// navigation-level cut outcome plus the operation's wall time
    /// (recorded in the latency histogram for both cut outcomes, matching
    /// the pre-taxonomy telemetry).
    #[allow(clippy::type_complexity)]
    fn expand_on_slot(
        &self,
        id: SessionId,
        slot: &Arc<Mutex<Session<SharedTree>>>,
        cuts: &CutCache,
        node: NavNodeId,
    ) -> Result<(Result<ExpandReply, EdgeCutError>, u64), EngineError> {
        let _gate = self.admit_expand()?;
        let t0 = trace::now_ns();
        let isolated = fault::isolate(|| {
            // Failpoint: session-lock acquisition (DESIGN.md §5f).
            if let Some(f) = fault::hit(FailSite::SessionLock) {
                match f {
                    Fault::Panic => fault::injected_panic(FailSite::SessionLock),
                    _ => return Err(EngineError::SessionBusy(id)),
                }
            }
            let mut session = {
                let _lk = trace::span(Stage::LockWait);
                slot.lock()
            };
            // lint: allow(lock-across-solve) — per-session lock: one
            // navigator per session by protocol; sessions never contend
            Ok(self.ladder_expand(&mut session, cuts, node))
        });
        let ns = trace::now_ns().saturating_sub(t0);
        match isolated {
            Ok(Ok(laddered)) => {
                self.window.record_expand(ns);
                // AIMD step (adaptive admission only): rate-limited by the
                // gate itself, so steady state pays one `due` load here.
                self.adjust_admission(trace::now_ns());
                Ok((
                    laddered.map(|(revealed, degraded)| ExpandReply { revealed, degraded }),
                    ns,
                ))
            }
            Ok(Err(engine_err)) => Err(engine_err),
            Err(message) => {
                // The panic unwound out of the session lock; whatever state
                // it left behind is untrusted. Quarantine (table lock only —
                // the session guard died in the unwind).
                self.quarantine_session(id);
                Err(EngineError::SessionPanicked { id, message })
            }
        }
    }

    /// EXPAND on a parked session: admission-gated, panic-isolated,
    /// degradation-laddered, latency-recorded, consulting the tree's
    /// cross-session [`CutCache`].
    ///
    /// Typed failures: [`EngineError::UnknownSession`] /
    /// [`EngineError::Quarantined`] for bad ids,
    /// [`EngineError::Overloaded`] when shed,
    /// [`EngineError::SessionPanicked`] when this call's panic quarantined
    /// the session, [`EngineError::Cut`] when the navigation refused.
    pub fn expand(&self, id: SessionId, node: NavNodeId) -> Result<ExpandReply, EngineError> {
        self.serve_request(Verb::Expand, Stage::Expand, || {
            // Expired on arrival? Reject typed before touching the session
            // table or any solver machinery (DESIGN.md §5k).
            self.deadline_reject()?;
            let (slot, cuts) = self.session_and_cuts(id)?;
            let (result, _ns) = self.expand_on_slot(id, &slot, &cuts, node)?;
            result.map_err(EngineError::Cut)
        })
    }

    /// Re-parks a previously exported session over `query`'s tree (the
    /// §VII resume path). Typed refusals:
    /// [`EngineError::DeadlineExceeded`] when the request's deadline had
    /// expired on arrival (rejected before the tree build, and counted as a
    /// deadline reject), [`EngineError::UnknownQuery`]
    /// when the query has no results, [`EngineError::StateMismatch`] when
    /// the state does not fit the rebuilt navigation tree — the
    /// [`ActiveTree::fits`](crate::active::ActiveTree::fits) connectivity
    /// validation, so stale, corrupt, or foreign state is refused with an
    /// error (never a panic) instead of navigating garbage.
    pub fn restore_session(
        &self,
        query: &str,
        state: SessionState,
    ) -> Result<SessionId, EngineError> {
        self.park_session(query, |tree| {
            Session::restore(tree, self.params.clone(), state).ok_or(EngineError::StateMismatch)
        })
    }

    /// The raw query a parked session was opened with. `None` for unknown
    /// ids.
    pub fn session_query(&self, id: SessionId) -> Option<String> {
        self.sessions.lock().get(&id.0).map(|s| s.query.clone())
    }

    /// Closes a session, returning its exported state (for persistence).
    /// [`EngineError::UnknownSession`] for unknown ids. Quarantined
    /// sessions are *drainable*: closing one succeeds, exports whatever
    /// state the session held before its panic, and releases the
    /// quarantine gauge.
    pub fn close_session(&self, id: SessionId) -> Result<SessionState, EngineError> {
        let _flight = self.flight_scope(Verb::Close);
        let _shard = self.fault_scope();
        let slot = match self.sessions.lock().remove(&id.0) {
            Some(slot) => slot,
            None => {
                let e = EngineError::UnknownSession(id);
                flightrec::note_error(e.flight_code());
                return Err(e);
            }
        };
        self.window.session_closed(slot.poisoned);
        let session = slot.session.lock();
        Ok(session.export_state())
    }

    /// Replays one navigation script in a fresh session over `query`,
    /// recording per-EXPAND latency, and closes the session. Each EXPAND
    /// goes through the full serving path (admission gate, panic
    /// isolation, degradation ladder) — [`ScriptOutcome::degraded_expands`]
    /// counts the ladder answers. Typed failures propagate as
    /// [`EngineError`]; the fresh session is drained before any error
    /// surfaces, so a failing script never leaks a parked session.
    pub fn run_script(
        &self,
        query: &str,
        script: &[ScriptOp],
    ) -> Result<ScriptOutcome, EngineError> {
        self.serve_request(Verb::Script, Stage::RunScript, || {
            let id = self.open_session(query)?;
            let finished = self.run_ops(id, query, script);
            if finished.is_err() {
                // Drain on failure — works even when the error quarantined
                // the session (close still exports its pre-panic state).
                // The close outcome is secondary to the error in flight.
                let _ = self.close_session(id);
            }
            finished
        })
    }

    /// The script interpreter behind [`Engine::run_script`], separated so
    /// the caller can drain the session on any error path.
    fn run_ops(
        &self,
        id: SessionId,
        query: &str,
        script: &[ScriptOp],
    ) -> Result<ScriptOutcome, EngineError> {
        // Resolve the slot once: script replay EXPANDs go through the
        // tree's cross-session cut memo without re-locking the session
        // table per operation.
        let (session, cuts) = self.session_and_cuts(id)?;
        let mut expand_ns = Vec::new();
        let mut degraded_expands = 0u32;
        let drive = |node: NavNodeId,
                     expand_ns: &mut Vec<u64>,
                     degraded_expands: &mut u32|
         -> Result<(), EngineError> {
            let _esp = trace::span(Stage::Expand);
            let (result, ns) = self.expand_on_slot(id, &session, &cuts, node)?;
            expand_ns.push(ns);
            // Cut refusals are ignored, matching the seed's replay
            // semantics (scripts may over-expand); engine errors propagate.
            if let Ok(reply) = result {
                if reply.degraded.is_some() {
                    *degraded_expands += 1;
                }
            }
            Ok(())
        };
        for op in script {
            match op {
                ScriptOp::Expand(node) => {
                    drive(*node, &mut expand_ns, &mut degraded_expands)?;
                }
                ScriptOp::ExpandFully => loop {
                    let next = {
                        let s = session.lock();
                        let found = s
                            .nav()
                            .iter_preorder()
                            .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1);
                        found
                    };
                    let Some(node) = next else { break };
                    drive(node, &mut expand_ns, &mut degraded_expands)?;
                },
                ScriptOp::ShowResults(node) => {
                    let _ = self
                        .with_session(id, |s| s.show_results(*node))
                        .ok_or(EngineError::UnknownSession(id))?;
                }
                ScriptOp::Ignore(node) => {
                    self.with_session(id, |s| s.ignore(*node))
                        .ok_or(EngineError::UnknownSession(id))?;
                }
                ScriptOp::Backtrack => {
                    let _ = self
                        .with_session(id, |s| s.backtrack())
                        .ok_or(EngineError::UnknownSession(id))?;
                }
            }
        }
        let cost = self
            .with_session(id, |s| s.cost().clone())
            .ok_or(EngineError::UnknownSession(id))?;
        self.close_session(id)?;
        Ok(ScriptOutcome {
            query: query.to_string(),
            cost,
            expand_ns,
            degraded_expands,
        })
    }

    /// The batch driver: replays `jobs` (query, script) pairs on `workers`
    /// pooled threads, preserving job order in the result. Sessions are
    /// independent; trees are shared through the cache. A job whose worker
    /// task panicked outside the engine's own isolation comes back as
    /// [`EngineError::WorkerPanicked`] in its own slot — one bad job never
    /// aborts the batch (DESIGN.md §5f).
    pub fn replay(
        &self,
        jobs: &[(String, Vec<ScriptOp>)],
        workers: usize,
    ) -> Vec<Result<ScriptOutcome, EngineError>> {
        // The Replay span lives on the calling thread; each `run_script`
        // call opens its own capture on whichever worker thread runs it,
        // so worker-side spans drain into the stage metrics worker-side.
        // Likewise each worker-side script mints its own request id — this
        // scope records the batch dispatch itself.
        let _flight = self.flight_scope(Verb::Replay);
        let cap = trace::capture();
        let out = {
            let _sp = trace::span(Stage::Replay);
            pool::scoped_map(jobs.len(), workers, |i| {
                let (query, script) = &jobs[i];
                self.run_script(query, script)
            })
        };
        drop(cap);
        self.absorb_tape();
        out.into_iter()
            .map(|slot| match slot {
                Ok(job_result) => job_result,
                Err(p) => Err(EngineError::WorkerPanicked {
                    task: p.task,
                    message: p.message,
                }),
            })
            .collect()
    }

    /// A raw snapshot of the telemetry window plus the cache tallies and
    /// the admission limit. Never contends with serving: the latency
    /// histograms are lock-free and the live-session gauge is an atomic —
    /// only the tree-cache lock is taken, briefly, for the cache tallies.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let window = self.window.snapshot(trace::now_ns());
        let cache = self.cache.lock();
        let (cut_hits, cut_misses) = cache.entries.values().fold((0u64, 0u64), |(h, m), e| {
            (h + e.cuts.hits(), m + e.cuts.misses())
        });
        Snapshot {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries.len() as u64,
            cache_capacity: cache.capacity as u64,
            cut_cache_hits: cut_hits,
            cut_cache_misses: cut_misses,
            admission_limit: self.admission.limit() as u64,
            ..window
        }
    }

    /// The serving telemetry report: the engine's raw snapshot, derived
    /// by [`Snapshot::stats`](crate::telemetry::Snapshot::stats).
    pub fn stats(&self) -> ServeStats {
        self.snapshot().stats()
    }

    /// Render the engine's full telemetry as an unlabeled Prometheus
    /// text-format exposition (see [`trace::export::prometheus_text`]).
    pub fn prometheus_text(&self) -> String {
        trace::export::prometheus_text(&[(String::new(), self.snapshot())])
    }

    /// Lock-free health signals for the sharded tier's breaker verdict
    /// ([`Window::health`]): relaxed atomic loads only, **no** cache or
    /// session-table lock. The raw snapshot behind [`Engine::stats`] takes the cache lock for
    /// the cut-cache tallies, which a router deciding where to place a
    /// cold open must never wait on — the `no-cross-shard-lock` xtask rule
    /// polices exactly that path.
    pub fn health(&self) -> HealthCounters {
        self.window.health()
    }

    /// Resets the telemetry window in one pass: the [`Window`]
    /// (histograms, stage sums, tallies, SLO baselines, start time), the
    /// cache and cut-cache hit/miss/eviction counters, and the global trace
    /// ring's events (its monotone push counter survives, see
    /// [`ServeStats::trace_events`]) all restart from zero. Cached trees and parked sessions are untouched (the
    /// live-session gauge keeps counting them). For long-running REPL or
    /// daemon processes that want per-window serving stats.
    pub fn reset_stats(&self) {
        self.window.reset(trace::now_ns());
        trace::clear_ring();
        {
            let mut cache = self.cache.lock();
            cache.reset_counters();
            for entry in cache.entries.values_mut() {
                entry.cuts.reset_counters();
            }
        }
        // The admission *limit* is controller state and survives the reset
        // (like cached trees); only its latency window restarts. The
        // flight recorder starts a fresh window and re-arms its
        // dump-once-per-reason latches.
        self.admission.reset_window();
        flightrec::reset_flight();
    }
}

// Compile-time thread-safety assertions (see module docs). These are the
// guarantees the serving layer rests on; if a future change reintroduces
// `Rc`, `Cell`, or a raw pointer anywhere in the navigation stack, the
// crate stops compiling right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<NavigationTree>();
    assert_send_sync::<crate::edgecut::heuristic::ReducedPlan>();
    assert_send_sync::<crate::active::ActiveTree>();
    assert_send_sync::<SessionState>();
    assert_send_sync::<Session<SharedTree>>();
    assert_send::<Session<&'static NavigationTree>>();
    assert_send_sync::<ServeStats>();
    assert_send_sync::<Window>();
    assert_send_sync::<CutCache>();
    assert_send_sync::<crate::trace::SpanRing>();
    assert_send_sync::<crate::trace::flightrec::FlightRing>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bionav_medline::corpus::{self, CorpusConfig};
    use bionav_medline::InvertedIndex;
    use bionav_mesh::synth::{self, sanitizer_scaled, SynthConfig};

    /// A tiny three-query serving fixture: one hierarchy/corpus, trees
    /// built per keyword on demand. Sizes honor `BIONAV_SANITIZER_SCALE`
    /// (see [`bionav_mesh::synth::sanitizer_scale`]) so Miri/TSan CI jobs
    /// stay fast; at the default scale of 1.0 nothing changes.
    fn fixture_engine() -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
        let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
        let store = corpus::generate(
            &h,
            &CorpusConfig {
                n_citations: sanitizer_scaled(400, 64),
                ..CorpusConfig::default()
            },
        );
        let index = InvertedIndex::build(&store);
        Engine::new(
            move |query: &str| {
                let results = index.query(query).citations;
                if results.is_empty() {
                    return None;
                }
                Some(Arc::new(NavigationTree::build(&h, &store, &results)))
            },
            CostParams::default(),
            2,
        )
    }

    #[test]
    fn error_flight_codes_round_trip_to_kind_names() {
        // Drift guard: the flight recorder decodes packed error codes back
        // to names through `flight_kind`; every variant must round-trip.
        let id = SessionId(1);
        let samples = [
            EngineError::UnknownQuery("q".to_string()),
            EngineError::UnknownSession(id),
            EngineError::SessionBusy(id),
            EngineError::Quarantined(id),
            EngineError::Overloaded,
            EngineError::TreeBuildFailed("m".to_string()),
            EngineError::SessionPanicked {
                id,
                message: "m".to_string(),
            },
            EngineError::WorkerPanicked {
                task: 0,
                message: "m".to_string(),
            },
            EngineError::StateMismatch,
            EngineError::Cut(EdgeCutError::NotAComponentRoot(crate::navtree::NavNodeId(
                0,
            ))),
            EngineError::DeadlineExceeded,
            EngineError::BreakerOpen {
                shard: 0,
                retry_after_ns: 1,
            },
        ];
        assert_eq!(samples.len(), EngineError::KIND_NAMES.len());
        for e in &samples {
            assert_eq!(EngineError::flight_kind(e.flight_code()), e.kind_name());
            assert_ne!(e.flight_code(), 0, "0 is reserved for success");
        }
        assert_eq!(EngineError::flight_kind(0), "");
    }

    #[test]
    fn cache_hits_and_lru_eviction() {
        let h = synth::generate(&SynthConfig::small(4, sanitizer_scaled(200, 48))).unwrap();
        let store = corpus::generate(
            &h,
            &CorpusConfig {
                n_citations: sanitizer_scaled(300, 64),
                ..CorpusConfig::default()
            },
        );
        let index = InvertedIndex::build(&store);
        // Three distinct queries with results.
        let labels: Vec<String> = {
            let mut seen = Vec::new();
            for n in h.iter_preorder().skip(1) {
                let label = h.node(n).label().to_string();
                if !index.query(&label).citations.is_empty() && !seen.contains(&label) {
                    seen.push(label);
                }
                if seen.len() == 3 {
                    break;
                }
            }
            seen
        };
        assert_eq!(labels.len(), 3, "fixture needs three result-bearing labels");

        let engine = Engine::new(
            move |query: &str| {
                let results = index.query(query).citations;
                if results.is_empty() {
                    return None;
                }
                Some(Arc::new(NavigationTree::build(&h, &store, &results)))
            },
            CostParams::default(),
            2, // capacity below the number of distinct queries
        );

        // Same tree twice: one miss, one hit; normalization collapses case
        // and whitespace.
        let a1 = engine.tree_for(&labels[0]).unwrap();
        let a2 = engine
            .tree_for(&format!("  {}  ", labels[0].to_uppercase()))
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "normalized queries share one tree");

        // Fill past capacity: labels[1], labels[2] → labels[0] evicted.
        engine.tree_for(&labels[1]).unwrap();
        engine.tree_for(&labels[2]).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cache_entries, 2);
        assert_eq!(stats.cache_evictions, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 3);
        assert!(stats.cache_hit_rate > 0.0);

        // The evicted tree rebuilds on demand (a fresh Arc).
        let a3 = engine.tree_for(&labels[0]).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a3), "evicted entry was rebuilt");
    }

    #[test]
    fn sessions_park_resume_and_close() {
        let engine = fixture_engine();
        // Find a query with results by probing node labels through the
        // engine itself.
        let query = {
            let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
            h.iter_preorder()
                .skip(1)
                .map(|n| h.node(n).label().to_string())
                .find(|label| engine.tree_for(label).is_some())
                .expect("some label has results")
        };
        let id = engine.open_session(&query).unwrap();
        let reply = engine.expand(id, NavNodeId::ROOT).unwrap();
        assert!(!reply.revealed.is_empty());
        assert_eq!(reply.degraded, None, "clean path must not degrade");
        // The session is parked: resume it and inspect.
        let cost = engine.with_session(id, |s| s.cost().clone()).unwrap();
        assert_eq!(cost.expands, 1);
        let state = engine.close_session(id).unwrap();
        assert_eq!(state.cost.expands, 1);
        // Closed sessions are gone, with a typed refusal.
        assert!(engine.with_session(id, |_| ()).is_none());
        assert!(matches!(
            engine.close_session(id),
            Err(EngineError::UnknownSession(_))
        ));
        let stats = engine.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.sessions_active, 0);
        assert_eq!(stats.expand_count, 1);
        assert_eq!(stats.degraded_expands, 0);
        assert_eq!(stats.shed_expands, 0);
        assert_eq!(stats.session_panics, 0);
        assert_eq!(stats.sessions_quarantined, 0);
    }

    #[test]
    fn concurrent_sessions_over_one_shared_tree_match_sequential() {
        // N sessions expanding the *same* `Arc<NavigationTree>` from N
        // threads must each reach full expansion with exactly the cost a
        // single-threaded session pays — navigation state is per-session,
        // the tree is immutable shared data.
        let engine = fixture_engine();
        let query = {
            let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
            h.iter_preorder()
                .skip(1)
                .map(|n| h.node(n).label().to_string())
                .find(|label| engine.tree_for(label).is_some_and(|t| t.len() > 3))
                .expect("some label has a multi-node tree")
        };
        let tree = engine.tree_for(&query).unwrap();

        let expand_fully = |tree: SharedTree| -> crate::sim::NavOutcome {
            let mut s = Session::new(tree, CostParams::default());
            loop {
                let next = s
                    .nav()
                    .iter_preorder()
                    .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1);
                let Some(node) = next else { break };
                s.expand(node).unwrap();
            }
            let full: Vec<_> = s.nav().iter_preorder().collect();
            for n in full {
                assert!(s.active().is_visible(n), "full expansion reveals all");
            }
            s.cost().clone()
        };

        let sequential = expand_fully(Arc::clone(&tree));
        let concurrent: Vec<crate::sim::NavOutcome> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let tree = Arc::clone(&tree);
                    scope.spawn(move || expand_fully(tree))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for outcome in &concurrent {
            assert_eq!(outcome, &sequential, "threaded costs equal single-threaded");
        }
    }

    #[test]
    fn replay_is_deterministic_across_worker_counts() {
        let engine = fixture_engine();
        let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
        let jobs: Vec<(String, Vec<ScriptOp>)> = h
            .iter_preorder()
            .skip(1)
            .map(|n| h.node(n).label().to_string())
            .filter(|label| engine.tree_for(label).is_some())
            .take(6)
            .map(|label| (label, vec![ScriptOp::ExpandFully]))
            .collect();
        assert!(jobs.len() >= 2, "fixture needs a few result-bearing labels");

        let single: Vec<_> = engine.replay(&jobs, 1);
        let pooled: Vec<_> = engine.replay(&jobs, 4);
        assert_eq!(single.len(), pooled.len());
        for (a, b) in single.iter().zip(&pooled) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.query, b.query);
            assert_eq!(
                a.cost, b.cost,
                "{}: worker count changed the outcome",
                a.query
            );
            assert_eq!(a.expand_ns.len(), b.expand_ns.len());
        }
    }

    #[test]
    fn reset_stats_clears_the_telemetry_window() {
        let engine = fixture_engine();
        let query = {
            let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
            h.iter_preorder()
                .skip(1)
                .map(|n| h.node(n).label().to_string())
                .find(|label| engine.tree_for(label).is_some())
                .expect("some label has results")
        };
        let id = engine.open_session(&query).unwrap();
        engine.expand(id, NavNodeId::ROOT).unwrap();
        let before = engine.stats();
        assert_eq!(before.expand_count, 1);
        assert_eq!(before.sessions_active, 1);
        assert!(before.cache_hits + before.cache_misses > 0);

        engine.reset_stats();
        let after = engine.stats();
        assert_eq!(after.expand_count, 0);
        assert_eq!(after.expand_p50_us, 0.0);
        assert_eq!(after.expand_p99_us, 0.0);
        assert_eq!(after.cache_hits + after.cache_misses, 0);
        assert_eq!(after.sessions_opened, 0);
        assert_eq!(after.sessions_closed, 0);
        assert_eq!(
            after.sessions_active, 1,
            "live sessions survive a stats reset"
        );
        assert!(
            after.cache_entries >= 1,
            "cached trees survive a stats reset"
        );

        // The engine keeps serving and re-accumulating after the reset
        // (a Cut refusal on the re-expanded root still counts a serve).
        let _ = engine.expand(id, NavNodeId::ROOT);
        assert_eq!(engine.stats().expand_count, 1);
        engine.close_session(id).unwrap();
        assert_eq!(engine.stats().sessions_active, 0);
        assert_eq!(engine.stats().sessions_closed, 1);
    }

    #[test]
    fn cut_cache_serves_repeat_components_without_solving() {
        use crate::edgecut::counters;
        let engine = fixture_engine();
        let query = {
            let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
            h.iter_preorder()
                .skip(1)
                .map(|n| h.node(n).label().to_string())
                .find(|label| engine.tree_for(label).is_some_and(|t| t.len() > 3))
                .expect("some label has a multi-node tree")
        };

        // The first session over the tree computes the root cut fresh:
        // exactly one partitioning pipeline run.
        let a = engine.open_session(&query).unwrap();
        counters::reset();
        let first = engine.expand(a, NavNodeId::ROOT).unwrap().revealed;
        assert_eq!(
            counters::partition_runs(),
            1,
            "fresh expand partitions once"
        );
        engine.close_session(a).unwrap();

        // A later session over the same tree replays the identical
        // component from the cross-session cut memo: zero partitionings,
        // zero solves, bit-identical reveal.
        let b = engine.open_session(&query).unwrap();
        counters::reset();
        let second = engine.expand(b, NavNodeId::ROOT).unwrap().revealed;
        assert_eq!(
            counters::partition_runs(),
            0,
            "repeat component re-partitioned"
        );
        assert_eq!(counters::plan_solves(), 0, "repeat component re-solved");
        assert_eq!(second, first, "memoized cut diverged from the fresh cut");
        engine.close_session(b).unwrap();

        let stats = engine.stats();
        assert!(stats.cut_cache_hits >= 1, "hit went unrecorded");
        assert!(stats.cut_cache_misses >= 1, "first expand must miss");

        // reset_stats zeroes the memo's counters but keeps its entries, so
        // serving stays warm across a telemetry window reset.
        engine.reset_stats();
        let stats = engine.stats();
        assert_eq!(stats.cut_cache_hits, 0);
        assert_eq!(stats.cut_cache_misses, 0);
        let c = engine.open_session(&query).unwrap();
        counters::reset();
        engine.expand(c, NavNodeId::ROOT).unwrap();
        assert_eq!(counters::partition_runs(), 0, "memo entries survive reset");
        assert!(engine.stats().cut_cache_hits >= 1);
        engine.close_session(c).unwrap();
    }

    #[test]
    fn unknown_queries_are_refused() {
        let engine = fixture_engine();
        assert!(engine.tree_for("zzz-no-such-term-zzz").is_none());
        assert!(matches!(
            engine.open_session("zzz-no-such-term-zzz"),
            Err(EngineError::UnknownQuery(_))
        ));
        assert!(matches!(
            engine.run_script("zzz-no-such-term-zzz", &[ScriptOp::ExpandFully]),
            Err(EngineError::UnknownQuery(_))
        ));
    }

    /// Finds a result-bearing query on `engine` (fixture helper for the
    /// fault-plane tests below).
    fn fixture_query(engine: &Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>) -> String {
        let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
        h.iter_preorder()
            .skip(1)
            .map(|n| h.node(n).label().to_string())
            .find(|label| engine.tree_for(label).is_some_and(|t| t.len() > 3))
            .expect("some label has a multi-node tree")
    }

    #[test]
    fn admission_gate_sheds_past_the_inflight_limit() {
        let engine = fixture_engine().with_policy(DegradePolicy {
            max_inflight_expands: 2,
            ..DegradePolicy::default()
        });
        // Exercise the gate mechanics directly: two slots admit, the third
        // sheds, and dropping a guard frees its slot.
        let g1 = engine.admit_expand().unwrap();
        let _g2 = engine.admit_expand().unwrap();
        assert!(matches!(
            engine.admit_expand(),
            Err(EngineError::Overloaded)
        ));
        assert_eq!(engine.stats().shed_expands, 1);
        drop(g1);
        let _g3 = engine.admit_expand().unwrap();
        assert_eq!(engine.stats().shed_expands, 1, "freed slot admits again");
    }

    #[test]
    fn expired_deadline_is_rejected_before_any_solver_work() {
        // Regression (ISSUE 10): `RequestCtx.deadline_ns` must be enforced
        // at the door — an already-expired wire request never reaches
        // `Stage::Solve`, and its flight entry shows the typed rejection.
        use crate::edgecut::counters;
        let engine = fixture_engine();
        let query = fixture_query(&engine);
        let id = engine.open_session(&query).unwrap();

        let rid = flightrec::mint_request_id();
        let before = engine.stats().deadline_rejects;
        counters::reset();
        {
            let _scope = flightrec::request_scope(
                flightrec::RequestCtx {
                    request_id: rid,
                    session: None,
                    deadline_ns: 1, // expired long before arrival
                },
                Verb::Expand,
            );
            assert!(matches!(
                engine.expand(id, NavNodeId::ROOT),
                Err(EngineError::DeadlineExceeded)
            ));
        }
        assert_eq!(counters::partition_runs(), 0, "dead request partitioned");
        assert_eq!(counters::plan_solves(), 0, "dead request reached a solver");
        assert_eq!(engine.stats().deadline_rejects, before + 1);

        let entry = flightrec::flight_snapshot()
            .into_iter()
            .find(|e| e.request_id == rid)
            .expect("rejected request still reaches the flight ring");
        assert_eq!(entry.shed_name(), "deadline");
        assert_eq!(entry.error_name(), "deadline_exceeded");
        assert_eq!(entry.stage_us[Stage::Solve as usize], 0, "solver span ran");
        assert_eq!(entry.stage_us[Stage::Partition as usize], 0);

        // The session itself is untouched: once the deadline clears (a
        // fresh scope with none), the same EXPAND serves normally.
        let reply = engine.expand(id, NavNodeId::ROOT).unwrap();
        assert!(!reply.revealed.is_empty());
        assert_eq!(reply.degraded, None);
        engine.close_session(id).unwrap();
    }

    #[test]
    fn near_deadline_requests_skip_straight_to_the_static_rung() {
        // A live-but-tight deadline must not be burned on planning work:
        // with the static headroom spanning the whole remaining budget the
        // ladder answers with the constant-time static cut immediately.
        let engine = fixture_engine().with_policy(DegradePolicy {
            deadline_exact_headroom_ns: 3_600_000_000_000,
            deadline_static_headroom_ns: 3_600_000_000_000,
            ..DegradePolicy::default()
        });
        let query = fixture_query(&engine);
        let id = engine.open_session(&query).unwrap();
        let reply = {
            let _scope = flightrec::request_scope(
                flightrec::RequestCtx {
                    request_id: flightrec::mint_request_id(),
                    session: None,
                    // Far enough out that the door check always passes,
                    // inside both headrooms so the rung choice is
                    // deterministic (no wall-clock race).
                    deadline_ns: trace::now_ns() + 600_000_000_000,
                },
                Verb::Expand,
            );
            engine.expand(id, NavNodeId::ROOT).unwrap()
        };
        assert_eq!(reply.degraded, Some(DegradeReason::Deadline));
        assert!(!reply.revealed.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.degraded_static, 1, "static rung must answer");
        assert_eq!(stats.degraded_myopic, 0, "myopic rung must be skipped");
        assert_eq!(stats.deadline_rejects, 0, "the request was served");
        engine.close_session(id).unwrap();
    }

    #[test]
    fn adaptive_admission_halves_on_a_bad_window_and_creeps_back() {
        use crate::admission::ADJUST_INTERVAL_NS;
        let engine = fixture_engine().with_policy(DegradePolicy {
            adaptive_admission: true,
            max_inflight_expands: 8,
            ..DegradePolicy::default()
        });
        assert_eq!(engine.admission_limit(), 8, "starts at the ceiling");

        // A window entirely over the Expand SLO target halves the limit.
        let target = slo_for(SloVerb::Expand).target_p99_ns;
        for _ in 0..32 {
            engine.window.record_expand(target * 4);
        }
        let t1 = trace::now_ns().max(ADJUST_INTERVAL_NS);
        engine.adjust_admission(t1);
        assert_eq!(engine.admission_limit(), 4, "multiplicative decrease");

        // A clean window probes back up by one (additive increase).
        for _ in 0..32 {
            engine.window.record_expand(1_000);
        }
        engine.adjust_admission(t1 + ADJUST_INTERVAL_NS);
        assert_eq!(engine.admission_limit(), 5, "additive increase");

        // Without `adaptive_admission` the limit is pinned to the policy.
        let static_engine = fixture_engine();
        static_engine.adjust_admission(trace::now_ns().max(ADJUST_INTERVAL_NS));
        assert_eq!(
            static_engine.admission_limit(),
            DegradePolicy::default().max_inflight_expands,
            "static gate never moves"
        );
    }

    #[test]
    fn step_budget_degrades_to_a_valid_static_cut() {
        // An absurdly small exact-planner budget forces every EXPAND onto
        // the ladder; with no retained plans the static rung answers.
        let engine = fixture_engine().with_policy(DegradePolicy {
            exact_node_budget: 1,
            ..DegradePolicy::default()
        });
        let query = fixture_query(&engine);
        let id = engine.open_session(&query).unwrap();
        let reply = engine.expand(id, NavNodeId::ROOT).unwrap();
        assert_eq!(reply.degraded, Some(DegradeReason::StepBudget));
        assert!(!reply.revealed.is_empty());
        // The degraded answer is a real expansion: the revealed nodes are
        // visible and the session keeps navigating.
        engine
            .with_session(id, |s| {
                for &n in &reply.revealed {
                    assert!(s.active().is_visible(n));
                }
                assert_eq!(s.cost().expands, 1);
            })
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.degraded_expands, 1);
        assert_eq!(stats.degraded_static, 1);
        assert_eq!(stats.degraded_myopic, 0);
        engine.close_session(id).unwrap();
    }

    // NOTE: fault-*arming* engine tests (injected panics, quarantine flow,
    // bit-identical forced cache misses) live in `tests/chaos.rs` — the
    // registry is process-global and the lib test binary runs on parallel
    // threads, so arming here would leak faults into unrelated tests. The
    // policy-driven tests above (gate, step budget) never arm the registry.

    #[test]
    fn serve_stats_json_roundtrip_reports_errors() {
        let engine = fixture_engine();
        let stats = engine.stats();
        // The satellite contract: serialization failures surface as a typed
        // `Err`, never as a silent `"{}"` placeholder.
        let json = stats.to_json().expect("plain stats struct serializes");
        assert!(json.contains("\"degraded_expands\""));
        assert!(json.contains("\"shed_expands\""));
        let back = ServeStats::from_json(&json).expect("roundtrip parses");
        assert_eq!(back.degraded_expands, stats.degraded_expands);
        assert_eq!(back.sessions_quarantined, stats.sessions_quarantined);
    }
}
