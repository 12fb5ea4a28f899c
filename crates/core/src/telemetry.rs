//! The serving engine's telemetry window and its one fold (DESIGN.md
//! §5c).
//!
//! Three layers, each raw data until the last:
//!
//! * [`LatencyHistogram`] — a sharded, fixed-memory, lock-free log-linear
//!   histogram: 32 linear sub-buckets per power of two ([`SUB_BITS`] = 5,
//!   ≤ ~3.2 % relative error over the whole `u64` nanosecond range with a
//!   fixed 1920 buckets) in [`NUM_SHARDS`] independent bucket arrays.
//!   Each thread records into its round-robin shard with one relaxed
//!   atomic increment — no lock, no allocation — and readers merge the
//!   shards into a [`HistogramSnapshot`]. Memory is fixed at
//!   `NUM_SHARDS × BUCKETS × 8 B ≈ 245 KiB` per histogram.
//! * [`Window`] — everything one engine counts between two
//!   `reset_stats` calls: the EXPAND histogram, the per-stage family
//!   ([`StageMetrics`]), the SLO baselines ([`SloState`]), the window
//!   start, the [`Tally`] counters and the live-session gauges. The hot
//!   path pays one relaxed atomic add per event; [`Window::health`] is
//!   lock-free for the sharded router.
//! * [`Snapshot`] — a raw, owned copy of a window plus what its owner
//!   adds (cache tallies, admission limit, breaker fields). Snapshots
//!   merge by summing ([`Snapshot::merge`], exact because every histogram
//!   shares one bucket geometry), and [`Snapshot::stats`] is the single
//!   place percentiles, rates and [`StageStat`] rows are derived into a
//!   [`ServeStats`]. A sharded tier folds its shards' snapshots and derives
//!   once; the Prometheus exporter renders `(labels, Snapshot)` pairs.

// The histogram's atomics come from the sync shim so the interleave model
// tests explore the production record/snapshot/reset paths (DESIGN.md §5d).
use crate::slo::{self, SloBurn, SloState, SloVerb};
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use crate::trace::{self, Stage, StageMetrics, StageStat};

/// Number of independent shards; recording threads spread across these
/// round-robin so concurrent EXPANDs on different workers touch different
/// cache lines. Under `--cfg interleave` the geometry shrinks to a single
/// shard with [`BUCKETS`] tiny buckets so the bounded-exhaustive scheduler
/// can cover every interleaving of record/snapshot/reset in seconds.
#[cfg(not(interleave))]
pub const NUM_SHARDS: usize = 16;
/// Shard count under the interleave model checker (see the non-`interleave`
/// doc above).
#[cfg(interleave)]
pub const NUM_SHARDS: usize = 1;

/// log2 of the number of linear sub-buckets per power-of-two range.
#[cfg(not(interleave))]
pub const SUB_BITS: u32 = 5;

#[cfg(not(interleave))]
const SUBS: usize = 1 << SUB_BITS; // 32 sub-buckets per octave
/// Total bucket count: one linear bucket per value below `SUBS`, then
/// `SUBS` sub-buckets for each of the remaining 59 octaves of `u64`.
#[cfg(not(interleave))]
pub const BUCKETS: usize = (64 - SUB_BITS as usize - 1) * SUBS + SUBS;
/// Bucket count under the interleave model checker: tiny identity buckets.
#[cfg(interleave)]
pub const BUCKETS: usize = 8;

/// Maps a sample to its bucket index. Monotone in `v`.
#[cfg(not(interleave))]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // ≥ SUB_BITS
        let sub = ((v >> (msb - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize;
        (msb - SUB_BITS as usize + 1) * SUBS + sub
    }
}

/// Model-checker bucket map: clamped identity, still monotone in `v`.
#[cfg(interleave)]
fn bucket_index(v: u64) -> usize {
    (v as usize).min(BUCKETS - 1)
}

/// Representative value (bucket midpoint) for a bucket index; the inverse
/// of [`bucket_index`] up to the ≤ 2^-SUB_BITS relative bucket width.
#[cfg(not(interleave))]
fn bucket_value(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let msb = idx / SUBS + SUB_BITS as usize - 1;
        let sub = (idx % SUBS) as u64;
        let shift = msb - SUB_BITS as usize;
        let lo = (SUBS as u64 + sub) << shift;
        let width = 1u64 << shift;
        lo + width / 2
    }
}

/// Model-checker inverse of the clamped-identity [`bucket_index`].
#[cfg(interleave)]
fn bucket_value(idx: usize) -> u64 {
    idx as u64
}

/// Round-robin source for per-thread shard assignment. Shared across all
/// histograms: it only decides *which* shard a thread writes, never
/// aliases data between histograms. Deliberately a plain `std` atomic even
/// under `--cfg interleave`: shard placement is not part of the modeled
/// protocol, and keeping it unmodeled keeps the schedule space small.
static NEXT_SHARD: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

thread_local! {
    // Relaxed: round-robin ticket draw; no ordering with any other memory.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

struct Shard {
    buckets: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Shard {
            buckets: buckets.into_boxed_slice(),
        }
    }
}

/// A sharded, fixed-memory, lock-free log-linear histogram of `u64`
/// samples (nanosecond latencies in the engine). See the module docs.
pub struct LatencyHistogram {
    shards: Vec<Shard>,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("shards", &self.shards.len())
            .field("buckets", &BUCKETS)
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram with all shard storage pre-allocated; memory use
    /// is fixed from this point on.
    pub fn new() -> Self {
        LatencyHistogram {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample: two relaxed atomic increments on the calling
    /// thread's shard, no locks.
    pub fn record(&self, v: u64) {
        let shard = MY_SHARD.with(|s| *s);
        // Relaxed: independent monotone counters; readers merge via
        // snapshot() and tolerate bucket/count skew (documented there).
        self.shards[shard].buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        // Relaxed: statistics read; may transiently lag in-flight records.
        self.count.load(Ordering::Relaxed)
    }

    /// Merges all shards into an owned snapshot for percentile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        for shard in &self.shards {
            for (acc, b) in counts.iter_mut().zip(shard.buckets.iter()) {
                // Relaxed: merge is point-in-time-ish by design; concurrent
                // records may land on either side of the snapshot.
                *acc += b.load(Ordering::Relaxed);
            }
        }
        let total = counts.iter().sum();
        HistogramSnapshot { counts, total }
    }

    /// Zeroes every bucket and the sample count. Samples recorded
    /// concurrently with a reset may land on either side of it.
    pub fn reset(&self) {
        for shard in &self.shards {
            for b in shard.buckets.iter() {
                // Relaxed: concurrent records may land on either side of a
                // reset (documented contract of this method).
                b.store(0, Ordering::Relaxed);
            }
        }
        // Relaxed: same reset contract as the buckets above; count-vs-bucket
        // skew during a racing record is documented benign.
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A merged point-in-time view of a [`LatencyHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
}

impl HistogramSnapshot {
    /// Number of samples in the snapshot.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a representative sample
    /// value, using the same nearest-rank rule as the previous sorted-log
    /// implementation: rank `round((n − 1) · q)`, 0-based. Returns 0 for
    /// an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_value(idx);
            }
        }
        // Unreachable given total == Σ counts, but stay total-safe.
        bucket_value(BUCKETS - 1)
    }

    /// Number of samples ≤ `v`, up to bucket resolution (samples sharing
    /// `v`'s bucket are all counted). Monotone in `v` — exactly what a
    /// Prometheus cumulative `_bucket{le=...}` series needs.
    pub fn count_at_or_below(&self, v: u64) -> u64 {
        let idx = bucket_index(v);
        self.counts[..=idx.min(BUCKETS - 1)].iter().sum()
    }

    /// Approximate sum of all samples (Σ count × bucket representative),
    /// within the histogram's ≤ ~3.2 % relative bucket error. Used for the
    /// Prometheus `_sum` series where no exact sum is tracked.
    pub fn approx_sum(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(idx, &c)| c.saturating_mul(bucket_value(idx)))
            .sum()
    }

    /// Folds `other` into `self` bucket-by-bucket. Every snapshot shares
    /// the one compile-time bucket geometry, so merged percentiles are
    /// exactly what one histogram over the union of samples would report —
    /// this is how [`Snapshot::merge`] folds a sharded tier's windows.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (acc, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *acc += c;
        }
        self.total += other.total;
    }
}

// ---------------------------------------------------------------------------
// The telemetry window, its raw snapshot, and the one derivation
// ---------------------------------------------------------------------------

/// The window's monotone counters, restarted by [`Window::reset`]. Each
/// event costs one relaxed atomic add ([`Window::add`]). A variant is the
/// index of its counter in [`Window`] and [`Snapshot::tallies`];
/// `DeadlineRejects` stays last, since [`Tally::COUNT`] is derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// Sessions opened or restored.
    SessionsOpened,
    /// Sessions closed (state exported or dropped).
    SessionsClosed,
    /// Session operations that panicked and quarantined their session.
    SessionPanics,
    /// Ladder EXPANDs answered by the retained-memo myopic rung.
    DegradedMyopic,
    /// Ladder EXPANDs answered by the static show-all-children rung.
    DegradedStatic,
    /// EXPANDs shed by the admission gate.
    ShedExpands,
    /// Requests rejected because their deadline expired before arrival.
    DeadlineRejects,
}

impl Tally {
    /// Number of tallies: one past the last variant's index.
    pub const COUNT: usize = Tally::DeadlineRejects as usize + 1;
    /// Every tally, in index order.
    pub const ALL: [Tally; Tally::COUNT] = [
        Tally::SessionsOpened,
        Tally::SessionsClosed,
        Tally::SessionPanics,
        Tally::DegradedMyopic,
        Tally::DegradedStatic,
        Tally::ShedExpands,
        Tally::DeadlineRejects,
    ];
}

// `ALL[i]` must be the variant with index `i`, so a tally array mapped
// from `ALL` lines up with the one `Window::add` indexes.
const _: () = {
    let mut i = 0;
    while i < Tally::COUNT {
        assert!(Tally::ALL[i] as usize == i);
        i += 1;
    }
};

/// Lock-free shard-health signals (relaxed atomic reads, no locks) that a
/// sharded tier's [`Breaker`](crate::breaker::Breaker) judges: the shard is
/// sick iff a session sits quarantined or a counter grew since the
/// breaker's last trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// EXPANDs answered by any degradation-ladder rung since the last
    /// stats-window reset.
    pub degraded_expands: u64,
    /// EXPANDs refused by the admission gate since the last reset.
    pub shed_expands: u64,
    /// Session operations that panicked and were caught since the last
    /// reset.
    pub session_panics: u64,
    /// Poisoned sessions currently parked in the table (a live gauge, not
    /// window-reset).
    pub sessions_quarantined: usize,
    /// Requests rejected expired-on-arrival since the last reset (a shard
    /// drowning in deadline misses is sick even if it never degrades).
    pub deadline_rejects: u64,
}

/// One engine's telemetry window. See the module docs.
pub struct Window {
    /// End-to-end EXPAND latencies.
    expand: LatencyHistogram,
    /// Per-stage latency family (DESIGN.md §5e), fed by the capture tape.
    stages: StageMetrics,
    /// Rotating baselines of the SLO `"recent"` windows (DESIGN.md §5j).
    slo: SloState,
    /// Window start, as a [`trace::now_ns`] offset.
    started_ns: AtomicU64,
    /// One counter per [`Tally`].
    tallies: [AtomicU64; Tally::COUNT],
    /// Sessions parked in the table: a gauge, kept across resets.
    active: AtomicUsize,
    /// Parked sessions quarantined after a panic: a gauge, kept across
    /// resets (they drain through `close_session`).
    quarantined: AtomicUsize,
}

impl Window {
    /// An empty window starting at `now_ns`.
    pub fn new(now_ns: u64) -> Self {
        Window {
            expand: LatencyHistogram::new(),
            stages: StageMetrics::new(),
            slo: SloState::new(),
            started_ns: AtomicU64::new(now_ns),
            tallies: [(); Tally::COUNT].map(|()| AtomicU64::new(0)),
            active: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        }
    }

    /// Counts one `tally` event.
    pub fn add(&self, tally: Tally) {
        // Relaxed: independent monotone tallies; readers only aggregate
        // them and nothing is ordered through them.
        self.tallies[tally as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn tally(&self, tally: Tally) -> u64 {
        // Relaxed: a reading tolerates each tally being off by the
        // in-flight event; per-counter coherence is all that is reported.
        self.tallies[tally as usize].load(Ordering::Relaxed)
    }

    /// A session was parked: counts the open and raises the live gauge.
    pub fn session_opened(&self) {
        self.add(Tally::SessionsOpened);
        // Relaxed: a gauge maintained on insert/remove so readers never
        // take the session-table lock; nothing is ordered through it.
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A session left the table; `poisoned` also releases its quarantine.
    pub fn session_closed(&self, poisoned: bool) {
        self.add(Tally::SessionsClosed);
        // Relaxed: same gauge contract as `session_opened`.
        self.active.fetch_sub(1, Ordering::Relaxed);
        if poisoned {
            // Relaxed: same gauge contract as `session_opened`.
            self.quarantined.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// A caught panic quarantined a parked session.
    pub fn session_quarantined(&self) {
        self.add(Tally::SessionPanics);
        // Relaxed: same gauge contract as `session_opened`.
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one end-to-end EXPAND latency.
    pub fn record_expand(&self, ns: u64) {
        self.expand.record(ns);
    }

    /// Records one span duration under `stage`.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages.record(stage, ns);
    }

    /// The EXPAND histogram alone: the AIMD controller's latency window.
    pub fn expand_snapshot(&self) -> HistogramSnapshot {
        self.expand.snapshot()
    }

    /// The breaker's health signals: relaxed atomic loads only, **no**
    /// lock — the `no-cross-shard-lock` rule keeps a router deciding
    /// where to place an open from ever waiting on a shard.
    pub fn health(&self) -> HealthCounters {
        HealthCounters {
            degraded_expands: self.tally(Tally::DegradedMyopic) + self.tally(Tally::DegradedStatic),
            shed_expands: self.tally(Tally::ShedExpands),
            session_panics: self.tally(Tally::SessionPanics),
            // Relaxed: a routing decision tolerates the gauge being off by
            // the in-flight operation.
            sessions_quarantined: self.quarantined.load(Ordering::Relaxed),
            deadline_rejects: self.tally(Tally::DeadlineRejects),
        }
    }

    /// Restarts the window at `now_ns`: histograms, stage sums, tallies and
    /// SLO baselines return to zero, while the two gauges keep counting the
    /// sessions still parked. Events racing a reset may land on either
    /// side of it.
    pub fn reset(&self, now_ns: u64) {
        self.expand.reset();
        self.stages.reset();
        for tally in &self.tallies {
            // Relaxed: the reset races in-flight events by design.
            tally.store(0, Ordering::Relaxed);
        }
        self.slo.reset();
        // Relaxed: window-start stamp; a racing snapshot only skews one
        // elapsed figure.
        self.started_ns.store(now_ns, Ordering::Relaxed);
    }

    /// A raw copy of the window at `now_ns`, rotating the SLO recent
    /// baselines when due. Fields the window does not own (cache tallies,
    /// admission limit, breaker fields) read 0 for the owner to fill in.
    pub fn snapshot(&self, now_ns: u64) -> Snapshot {
        let expand = self.expand.snapshot();
        let stages = self.stages.snapshots();
        let slo = SloVerb::ALL.map(|verb| {
            let latencies = match verb {
                SloVerb::Open => &stages[Stage::OpenSession as usize].0,
                SloVerb::Expand => &expand,
            };
            self.slo.observe(verb, latencies, now_ns)
        });
        Snapshot {
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_entries: 0,
            cache_capacity: 0,
            cut_cache_hits: 0,
            cut_cache_misses: 0,
            tallies: Tally::ALL.map(|tally| self.tally(tally)),
            // Relaxed: gauges, same per-counter coherence as the tallies.
            sessions_active: self.active.load(Ordering::Relaxed) as u64,
            sessions_quarantined: self.quarantined.load(Ordering::Relaxed) as u64,
            admission_limit: 0,
            breaker_rejects: 0,
            breaker_state: 0,
            expand,
            stages,
            slo,
            // Relaxed: see `reset`.
            elapsed_ns: now_ns.saturating_sub(self.started_ns.load(Ordering::Relaxed)),
            trace_events: trace::ring_pushed(),
        }
    }
}

/// A raw, owned copy of one telemetry window plus its owner's cache,
/// admission and breaker readings: counts and histograms, nothing
/// derived. Snapshots fold with [`Snapshot::merge`]; [`Snapshot::stats`]
/// derives the report.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Tree-cache lookups that found their tree.
    pub cache_hits: u64,
    /// Tree-cache lookups that had to build.
    pub cache_misses: u64,
    /// Trees dropped by LRU pressure.
    pub cache_evictions: u64,
    /// Trees currently cached.
    pub cache_entries: u64,
    /// Tree-cache capacity bound.
    pub cache_capacity: u64,
    /// Cut-cache hits, summed over the cached trees.
    pub cut_cache_hits: u64,
    /// Cut-cache misses, summed over the cached trees.
    pub cut_cache_misses: u64,
    /// The window's [`Tally`] counters, indexed by variant.
    pub tallies: [u64; Tally::COUNT],
    /// Sessions parked in the table (gauge).
    pub sessions_active: u64,
    /// Parked sessions quarantined after a panic (gauge).
    pub sessions_quarantined: u64,
    /// The admission gate's live in-flight limit (0 = ungated).
    pub admission_limit: u64,
    /// Requests fast-failed by an open circuit breaker (tier-owned).
    pub breaker_rejects: u64,
    /// Circuit-breaker state code (tier-owned).
    pub breaker_state: u64,
    /// End-to-end EXPAND latencies.
    pub expand: HistogramSnapshot,
    /// Per-stage `(latencies, exact sum in ns)` in [`Stage::ALL`] order,
    /// idle stages included.
    pub stages: Vec<(HistogramSnapshot, u64)>,
    /// SLO `(good, total)` counts per verb ([`SloVerb::ALL`] order), for
    /// the `[total, recent]` windows.
    pub slo: [[(u64, u64); 2]; SloVerb::COUNT],
    /// Window length in nanoseconds.
    pub elapsed_ns: u64,
    /// Span events ever pushed to the process-global trace ring.
    pub trace_events: u64,
}

impl Snapshot {
    /// Folds `other` into `self`: counters, gauges and SLO counts add,
    /// histograms merge exactly, `elapsed_ns` and `breaker_state` take the
    /// max (the widest window; any non-closed breaker shows), and
    /// `trace_events` — one process-global counter every shard reads — is
    /// taken once, at its latest reading.
    pub fn merge(&mut self, other: &Snapshot) {
        // Destructured so a new field cannot compile without a merge rule.
        let Snapshot {
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            cache_capacity,
            cut_cache_hits,
            cut_cache_misses,
            tallies,
            sessions_active,
            sessions_quarantined,
            admission_limit,
            breaker_rejects,
            breaker_state,
            expand,
            stages,
            slo,
            elapsed_ns,
            trace_events,
        } = other;
        for (mine, theirs) in [
            (&mut self.cache_hits, cache_hits),
            (&mut self.cache_misses, cache_misses),
            (&mut self.cache_evictions, cache_evictions),
            (&mut self.cache_entries, cache_entries),
            (&mut self.cache_capacity, cache_capacity),
            (&mut self.cut_cache_hits, cut_cache_hits),
            (&mut self.cut_cache_misses, cut_cache_misses),
            (&mut self.sessions_active, sessions_active),
            (&mut self.sessions_quarantined, sessions_quarantined),
            (&mut self.admission_limit, admission_limit),
            (&mut self.breaker_rejects, breaker_rejects),
        ]
        .into_iter()
        .chain(self.tallies.iter_mut().zip(tallies))
        {
            *mine += theirs;
        }
        for (mine, theirs) in self.slo.iter_mut().flatten().zip(slo.iter().flatten()) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        self.expand.merge(expand);
        for (mine, (snap, sum_ns)) in self.stages.iter_mut().zip(stages) {
            mine.0.merge(snap);
            mine.1 += sum_ns;
        }
        self.breaker_state = self.breaker_state.max(*breaker_state);
        self.elapsed_ns = self.elapsed_ns.max(*elapsed_ns);
        self.trace_events = self.trace_events.max(*trace_events);
    }

    /// The window's count of `tally` events.
    pub fn tally(&self, tally: Tally) -> u64 {
        self.tallies[tally as usize]
    }

    /// The SLO burn rows, [`SloVerb::ALL`] order with the `total` window
    /// before the `recent` one per verb. Rates come from the raw counts,
    /// so a merged snapshot's rate is exact, never an average of rates.
    pub fn slo_burn(&self) -> Vec<SloBurn> {
        SloVerb::ALL
            .iter()
            .flat_map(|&verb| {
                let target_p99_ms = slo::slo_for(verb).target_p99_ns as f64 / 1_000_000.0;
                [slo::WINDOW_TOTAL, slo::WINDOW_RECENT]
                    .into_iter()
                    .zip(self.slo[verb as usize])
                    .map(move |(window, (good, total))| SloBurn {
                        verb: verb.name().to_string(),
                        window: window.to_string(),
                        burn_rate: slo::burn_rate(good, total),
                        target_p99_ms,
                        good,
                        total,
                    })
            })
            .collect()
    }

    /// The report: the one place percentiles, rates and [`StageStat`]
    /// rows are derived.
    pub fn stats(&self) -> ServeStats {
        let us = |snap: &HistogramSnapshot, q: f64| snap.percentile(q) as f64 / 1_000.0;
        let ratio = |num: u64, den: f64| if den > 0.0 { num as f64 / den } else { 0.0 };
        let elapsed_secs = self.elapsed_ns as f64 / 1e9;
        ServeStats {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_evictions: self.cache_evictions,
            cache_entries: self.cache_entries as usize,
            cache_capacity: self.cache_capacity as usize,
            cache_hit_rate: ratio(
                self.cache_hits,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            cut_cache_hits: self.cut_cache_hits,
            cut_cache_misses: self.cut_cache_misses,
            sessions_opened: self.tally(Tally::SessionsOpened),
            sessions_closed: self.tally(Tally::SessionsClosed),
            sessions_active: self.sessions_active as usize,
            sessions_quarantined: self.sessions_quarantined as usize,
            session_panics: self.tally(Tally::SessionPanics),
            degraded_expands: self.tally(Tally::DegradedMyopic) + self.tally(Tally::DegradedStatic),
            degraded_myopic: self.tally(Tally::DegradedMyopic),
            degraded_static: self.tally(Tally::DegradedStatic),
            shed_expands: self.tally(Tally::ShedExpands),
            deadline_rejects: self.tally(Tally::DeadlineRejects),
            breaker_rejects: self.breaker_rejects,
            admission_limit: self.admission_limit,
            breaker_state: self.breaker_state,
            expand_count: self.expand.total() as usize,
            expand_p50_us: us(&self.expand, 0.50),
            expand_p95_us: us(&self.expand, 0.95),
            expand_p99_us: us(&self.expand, 0.99),
            elapsed_secs,
            sessions_per_sec: ratio(self.tally(Tally::SessionsClosed), elapsed_secs),
            slo_burn: self.slo_burn(),
            stages: Stage::ALL
                .iter()
                .zip(&self.stages)
                .filter(|(_, (snap, _))| !snap.is_empty())
                .map(|(stage, (snap, sum_ns))| StageStat {
                    stage: stage.name().to_string(),
                    count: snap.total(),
                    p50_us: us(snap, 0.50),
                    p95_us: us(snap, 0.95),
                    p99_us: us(snap, 0.99),
                    total_ms: *sum_ns as f64 / 1_000_000.0,
                })
                .collect(),
            trace_events: self.trace_events,
        }
    }
}

/// The serving telemetry report, derived from a [`Snapshot`] by
/// [`Snapshot::stats`]. Its JSON is what the wire `STATS` verb returns,
/// what navbench parses, and what `BENCH_serve.json` stores.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServeStats {
    /// Tree-cache lookups that found their tree.
    pub cache_hits: u64,
    /// Tree-cache lookups that had to build.
    pub cache_misses: u64,
    /// Entries dropped by LRU pressure.
    pub cache_evictions: u64,
    /// Trees currently cached.
    pub cache_entries: usize,
    /// Cache capacity bound.
    pub cache_capacity: usize,
    /// `hits / (hits + misses)`, 0.0 when idle.
    pub cache_hit_rate: f64,
    /// EXPANDs answered from a cross-session
    /// [`CutCache`](crate::session::CutCache) (summed over the currently
    /// cached trees).
    pub cut_cache_hits: u64,
    /// EXPANDs that fell through to a fresh Heuristic-ReducedOpt solve
    /// (summed over the currently cached trees).
    pub cut_cache_misses: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions closed (state exported or dropped).
    pub sessions_closed: u64,
    /// Sessions currently parked in the table.
    pub sessions_active: usize,
    /// Parked sessions currently quarantined after a panic (a subset of
    /// `sessions_active`; they drain through
    /// [`Engine::close_session`](crate::Engine::close_session)).
    pub sessions_quarantined: usize,
    /// Sessions ever quarantined after a panic escaped into the engine.
    pub session_panics: u64,
    /// EXPANDs answered by the degradation ladder (any rung) in this
    /// stats window. 0 on the clean serve path.
    pub degraded_expands: u64,
    /// Ladder EXPANDs answered by the retained-memo myopic rung.
    pub degraded_myopic: u64,
    /// Ladder EXPANDs answered by the static show-all-children rung.
    pub degraded_static: u64,
    /// EXPANDs shed by the admission gate
    /// ([`DegradePolicy::max_inflight_expands`](crate::DegradePolicy::max_inflight_expands))
    /// in this stats window.
    pub shed_expands: u64,
    /// Requests rejected because their end-to-end deadline had already
    /// expired on arrival
    /// ([`EngineError::DeadlineExceeded`](crate::EngineError::DeadlineExceeded)).
    pub deadline_rejects: u64,
    /// Requests fast-failed by an open circuit breaker
    /// ([`EngineError::BreakerOpen`](crate::EngineError::BreakerOpen);
    /// always 0 for a standalone engine — breakers live in the sharded
    /// tier).
    pub breaker_rejects: u64,
    /// The admission gate's live in-flight limit (summed across shards in
    /// a merged snapshot; 0 = ungated).
    pub admission_limit: u64,
    /// Circuit-breaker state code ([`crate::breaker::BreakerState`]
    /// discriminant; the max across shards in a merged snapshot, so any
    /// non-closed breaker is visible at a glance).
    pub breaker_state: u64,
    /// EXPAND operations measured.
    pub expand_count: usize,
    /// Median EXPAND latency, microseconds.
    pub expand_p50_us: f64,
    /// 95th-percentile EXPAND latency, microseconds.
    pub expand_p95_us: f64,
    /// 99th-percentile EXPAND latency, microseconds.
    pub expand_p99_us: f64,
    /// Wall-clock seconds since the stats window started.
    pub elapsed_secs: f64,
    /// Closed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Per-verb SLO burn-rate rows (DESIGN.md §5j), in [`crate::slo::SLOS`]
    /// order with the `total` window before the `recent` window per verb.
    pub slo_burn: Vec<SloBurn>,
    /// Per-stage latency breakdown of the serve path (only stages that
    /// recorded samples in the current window, in [`Stage::ALL`] order).
    pub stages: Vec<StageStat>,
    /// Span events ever pushed to the global trace ring. Monotone across
    /// [`Engine::reset_stats`](crate::Engine::reset_stats) (the ring's
    /// push counter survives a clear), so it exports as a proper Prometheus
    /// counter.
    pub trace_events: u64,
}

impl ServeStats {
    /// Serialize this report as pretty-printed JSON (the `serve-stats
    /// --json` surface and the wire `STATS` reply).
    ///
    /// Returns the serializer's error rather than a fallback document, so
    /// no parser downstream ever misreads an empty object as missing
    /// fields. A plain data struct cannot fail to serialize, so callers
    /// may `expect`.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a report previously produced by [`ServeStats::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exact log-linear geometry only exists in non-interleave builds; the
    // model checker swaps in tiny identity buckets.
    #[cfg(not(interleave))]
    #[test]
    fn bucket_index_is_monotone_and_value_roundtrips() {
        let mut prev = 0usize;
        let mut v = 1u64;
        // Walk a geometric sample of the whole u64 range (bounded so the
        // ×21 step below cannot overflow).
        while v < u64::MAX / 21 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must be monotone at {v}");
            assert!(idx < BUCKETS);
            prev = idx;
            let rep = bucket_value(idx);
            // Representative stays within the bucket's relative width.
            let err = rep.abs_diff(v) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} rep={rep} err={err}");
            v = v * 21 / 16 + 1;
        }
        // Exact region: values below 32 are their own bucket.
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
    }

    // See above: depends on the full log-linear bucket geometry.
    #[cfg(not(interleave))]
    #[test]
    fn percentiles_match_sorted_log_within_bucket_error() {
        let hist = LatencyHistogram::new();
        // A long-tailed distribution like the serve bench's.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 500u64;
        for i in 0..1000u64 {
            let v = x + i * 37 % 400;
            samples.push(v);
            hist.record(v);
            if i % 100 == 99 {
                x *= 3; // decade jumps build the tail
            }
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.total(), 1000);
        for q in [0.5, 0.95, 0.99] {
            let rank = ((samples.len() - 1) as f64 * q).round() as usize;
            let exact = samples[rank] as f64;
            let approx = snap.percentile(q) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= 1.0 / 32.0 + 1e-9,
                "q={q} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let hist = LatencyHistogram::new();
        for v in [1u64, 100, 10_000, 1_000_000] {
            hist.record(v);
        }
        assert_eq!(hist.count(), 4);
        hist.reset();
        assert_eq!(hist.count(), 0);
        let snap = hist.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(0.99), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let hist = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let hist = &hist;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        hist.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(hist.count(), 8_000);
        assert_eq!(hist.snapshot().total(), 8_000);
    }

    #[test]
    fn merged_snapshot_equals_single_histogram_over_union() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let union = LatencyHistogram::new();
        for v in [1u64, 3, 7, 200, 4_096] {
            a.record(v);
            union.record(v);
        }
        for v in [2u64, 7, 900_000] {
            b.record(v);
            union.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let expect = union.snapshot();
        assert_eq!(merged.total(), expect.total());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), expect.percentile(q), "q={q}");
        }
        assert_eq!(merged.approx_sum(), expect.approx_sum());
    }

    #[test]
    fn merged_snapshots_sum_counts_and_recompute_rates() {
        let window = Window::new(0);
        window.session_opened();
        window.add(Tally::ShedExpands);
        window.record_expand(1_000);
        window.record_stage(Stage::Solve, 5_000);
        window.record_stage(Stage::Partition, 1_000);
        let mut a = Snapshot {
            slo: [[(90, 100), (10, 10)], [(0, 0), (0, 0)]],
            breaker_state: 1,
            ..window.snapshot(2_000)
        };
        let b = Snapshot {
            slo: [[(100, 100), (0, 0)], [(50, 50), (0, 0)]],
            breaker_state: 2,
            trace_events: a.trace_events,
            ..window.snapshot(5_000)
        };
        a.merge(&b);
        assert_eq!(a.tally(Tally::SessionsOpened), 2);
        assert_eq!(a.sessions_active, 2);
        assert_eq!(a.tally(Tally::ShedExpands), 2);
        assert_eq!(a.expand.total(), 2);
        assert_eq!(a.stages[Stage::Solve as usize].0.total(), 2);
        assert_eq!(a.stages[Stage::Solve as usize].1, 10_000);
        assert_eq!(a.breaker_state, 2, "the worst breaker state shows");
        assert_eq!(a.elapsed_ns, 5_000, "the widest window wins");
        assert_eq!(
            a.trace_events, b.trace_events,
            "the ring counter is not summed"
        );
        // SLO counts sum and the rate is recomputed, never averaged.
        let rows = a.slo_burn();
        assert_eq!(rows.len(), 2 * SloVerb::COUNT);
        assert_eq!(
            (rows[0].verb.as_str(), rows[0].window.as_str()),
            ("open", slo::WINDOW_TOTAL)
        );
        assert_eq!((rows[0].good, rows[0].total), (190, 200));
        assert!((rows[0].burn_rate - 5.0).abs() < 1e-9, "5% bad / 1% budget");
        assert_eq!(rows[1].window, slo::WINDOW_RECENT);
        assert_eq!((rows[1].total, rows[1].burn_rate), (10, 0.0));
        let stats = a.stats();
        assert_eq!(stats.expand_count, 2);
        // Only stages with samples report, in `Stage::ALL` order, with
        // exact merged counts and sums.
        let rows: Vec<(&str, u64, f64)> = stats
            .stages
            .iter()
            .map(|row| (row.stage.as_str(), row.count, row.total_ms))
            .collect();
        assert_eq!(
            rows,
            [
                ("partition", 2, 2_000.0 / 1e6),
                ("solve", 2, 10_000.0 / 1e6)
            ]
        );
    }

    #[test]
    fn window_reset_restarts_tallies_but_keeps_gauges() {
        let window = Window::new(0);
        window.session_opened();
        window.session_opened();
        window.session_quarantined();
        window.add(Tally::DegradedMyopic);
        let health = window.health();
        assert_eq!(health.degraded_expands, 1);
        assert_eq!(health.session_panics, 1);
        assert_eq!(health.sessions_quarantined, 1);
        window.reset(100);
        let snap = window.snapshot(250);
        assert_eq!(snap.tally(Tally::SessionsOpened), 0);
        assert_eq!(snap.tally(Tally::SessionPanics), 0);
        assert_eq!(snap.sessions_active, 2, "parked sessions survive a reset");
        assert_eq!(snap.sessions_quarantined, 1);
        assert_eq!(snap.elapsed_ns, 150);
        window.session_closed(true);
        let snap = window.snapshot(300);
        assert_eq!(
            (snap.tally(Tally::SessionsClosed), snap.sessions_active),
            (1, 1)
        );
        assert_eq!(snap.sessions_quarantined, 0, "draining releases the gauge");
    }

    #[test]
    fn histogram_is_send_and_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        const _: () = assert_send_sync::<LatencyHistogram>();
        const _: () = assert_send_sync::<Window>();
    }
}
