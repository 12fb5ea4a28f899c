//! Per-shard circuit breaker (DESIGN.md §5k): the sharded tier's one
//! sick-shard state machine.
//!
//! ```text
//!              sick                    probe delay elapsed
//!   Closed ─────────────▶ Open ──────────────────────────▶ HalfOpen
//!     ▲                     ▲                                 │ │
//!     │  PROBES_TO_CLOSE    └──────────── still sick ─────────┘ │
//!     └───── healthy probes ────────────────────────────────────┘
//! ```
//!
//! * **Closed** — requests pass; a sick verdict trips the breaker.
//! * **Open** — requests fast-fail with a `retry_after_ns` hint; after
//!   [`OPEN_NS`] plus a *seeded-jitter* backoff (deterministic per seed and
//!   trip ordinal, so drills replay bit-identically while real fleets
//!   still decorrelate their probes) the next request becomes a probe.
//! * **HalfOpen** — probes pass; [`PROBES_TO_CLOSE`] consecutive healthy
//!   verdicts close the breaker, one sick verdict re-opens it.
//!
//! The verdict is the breaker's own: a shard is sick iff any session sits
//! quarantined, or any fault-plane counter of its [`HealthCounters`]
//! (degraded, shed, panics, deadline rejects) grew since the last trip's
//! baseline — so a shard that degraded once long ago is not condemned
//! forever. The breaker is pure atomic state with the clock injected,
//! which is what lets the interleave models drive racing
//! trip/probe/close transitions exhaustively.

use crate::engine::HealthCounters;
use crate::sync::{AtomicU64, Ordering};

/// Healthy-probe count required to close a half-open breaker. More than
/// one so a single lucky probe does not un-trip a still-sick shard; small
/// enough that recovery is visible within a few requests.
pub const PROBES_TO_CLOSE: u64 = 3;

/// Base open period before a half-open probe is admitted: wide enough
/// that a drill's fast-fail asserts run while the breaker is still open
/// (even on a loaded CI box), short enough to recover in-test. Each open
/// period adds up to 25 % seeded jitter ([`probe_delay_ns`]).
pub const OPEN_NS: u64 = 200_000_000;

/// The monotone fault-plane counters of a health snapshot, in baseline
/// slot order. Quarantine is a gauge, not a counter: it has no slot and
/// is always judged absolutely.
fn counters(h: &HealthCounters) -> [u64; 4] {
    [
        h.degraded_expands,
        h.shed_expands,
        h.session_panics,
        h.deadline_rejects,
    ]
}

/// The three breaker states. Discriminants are the wire/metric encoding
/// (`bionav_breaker_state` gauge), so they are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal service; health verdicts can trip to [`BreakerState::Open`].
    Closed = 0,
    /// Fast-failing; waits out the probe delay.
    Open = 1,
    /// Probing; healthy probes close, a sick one re-opens.
    HalfOpen = 2,
}

impl BreakerState {
    /// Stable lowercase name for tables and labels.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    fn from_code(code: u64) -> BreakerState {
        match code {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// One admission verdict from [`Breaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// The request may proceed (in half-open it *is* the probe).
    Admit,
    /// Fast-fail; the client should back off for `retry_after_ns`.
    Reject {
        /// Remaining time until the breaker will accept a probe.
        retry_after_ns: u64,
    },
}

/// Probe delay for one open period: [`OPEN_NS`] plus up to 25 % seeded
/// jitter, deterministic in `(seed, trip ordinal)` so a chaos drill
/// replays exactly while distinct shards/seeds decorrelate.
pub fn probe_delay_ns(seed: u64, trip: u64) -> u64 {
    let jitter_span = OPEN_NS / 4 + 1;
    OPEN_NS + crate::mix(seed ^ trip.wrapping_mul(0xa076_1d64_78bd_642f)) % jitter_span
}

/// One shard's circuit breaker. All state is atomic; see the module docs
/// for the protocol.
#[derive(Debug)]
pub struct Breaker {
    /// Current [`BreakerState`] discriminant.
    state: AtomicU64,
    /// Trace-clock stamp of the most recent trip.
    opened_at_ns: AtomicU64,
    /// Times the breaker has opened (closed→open and half-open→open).
    trips: AtomicU64,
    /// Requests fast-failed while open / on trip.
    rejects: AtomicU64,
    /// Consecutive healthy probes seen in the current half-open episode.
    probe_successes: AtomicU64,
    /// Fault-plane counter snapshot taken at the last trip (slot order of
    /// [`counters`]); health deltas are judged against these.
    baselines: [AtomicU64; 4],
}

impl Default for Breaker {
    fn default() -> Self {
        Self::new()
    }
}

impl Breaker {
    /// A closed breaker with zeroed baselines.
    pub fn new() -> Self {
        Breaker {
            state: AtomicU64::new(BreakerState::Closed as u64),
            opened_at_ns: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            probe_successes: AtomicU64::new(0),
            baselines: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Current state (may be stale by one transition under races; every
    /// consumer tolerates that).
    pub fn state(&self) -> BreakerState {
        // Relaxed: observational read; transitions are CAS-serialized.
        BreakerState::from_code(self.state.load(Ordering::Relaxed))
    }

    /// Times the breaker has opened.
    pub fn trips(&self) -> u64 {
        // Relaxed: monotone statistics counter.
        self.trips.load(Ordering::Relaxed)
    }

    /// Requests fast-failed by this breaker.
    pub fn rejects(&self) -> u64 {
        // Relaxed: monotone statistics counter.
        self.rejects.load(Ordering::Relaxed)
    }

    /// The counter snapshot recorded at the last trip (zeros before the
    /// first trip, so a never-tripped breaker judges absolute counters;
    /// `sessions_quarantined` is always 0 — quarantine has no baseline).
    pub fn baseline(&self) -> HealthCounters {
        // Relaxed: read side of the trip-time snapshot; skew vs. live
        // counters only widens the recovery window by one verdict.
        let [degraded_expands, shed_expands, session_panics, deadline_rejects] =
            self.baselines.each_ref().map(|b| b.load(Ordering::Relaxed));
        HealthCounters {
            degraded_expands,
            shed_expands,
            session_panics,
            deadline_rejects,
            sessions_quarantined: 0,
        }
    }

    /// The verdict: sick iff any session sits quarantined, or any
    /// fault-plane counter grew past its trip baseline. A counter below
    /// its baseline (the stats window was reset) reads healthy.
    fn sick(&self, health: &HealthCounters) -> bool {
        health.sessions_quarantined > 0
            || counters(health)
                .iter()
                .zip(&self.baselines)
                // Relaxed: see `baseline`.
                .any(|(&now, base)| now > base.load(Ordering::Relaxed))
    }

    fn trip_from(&self, from: BreakerState, now_ns: u64, health: &HealthCounters) {
        let open = BreakerState::Open as u64;
        if self
            .state
            // Relaxed CAS: exactly one racer performs the transition; losers
            // fall through and simply report the (now open) breaker.
            .compare_exchange(from as u64, open, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            // Relaxed (×3): owned by the CAS winner for this transition.
            self.opened_at_ns.store(now_ns, Ordering::Relaxed);
            self.trips.fetch_add(1, Ordering::Relaxed);
            self.probe_successes.store(0, Ordering::Relaxed);
            for (slot, v) in self.baselines.iter().zip(counters(health)) {
                // Relaxed: written only by the CAS winner of a trip.
                slot.store(v, Ordering::Relaxed);
            }
        }
    }

    /// One admission decision at `now_ns` for a shard whose fault plane
    /// reads `health` (the verdict is judged here — see the module docs);
    /// `seed` feeds the probe jitter. If *this* call trips the breaker,
    /// `health`'s counters become the new baseline.
    pub fn admit(&self, now_ns: u64, health: &HealthCounters, seed: u64) -> BreakerDecision {
        match self.state() {
            BreakerState::Closed => {
                if !self.sick(health) {
                    return BreakerDecision::Admit;
                }
                self.trip_from(BreakerState::Closed, now_ns, health);
                self.reject(probe_delay_ns(seed, self.trips()))
            }
            BreakerState::Open => {
                let delay = probe_delay_ns(seed, self.trips());
                // Relaxed: stamp written by the trip CAS winner; a stale
                // read only delays the first probe by one request.
                let opened = self.opened_at_ns.load(Ordering::Relaxed);
                let elapsed = now_ns.saturating_sub(opened);
                if elapsed < delay {
                    return self.reject(delay - elapsed);
                }
                let (open, half) = (BreakerState::Open as u64, BreakerState::HalfOpen as u64);
                // Relaxed CAS: one racer becomes the probe; losers re-enter
                // through the half-open arm on their next decision. The
                // transitioning request is itself the first probe, so its
                // verdict goes through the same half-open bookkeeping.
                let _ =
                    self.state
                        .compare_exchange(open, half, Ordering::Relaxed, Ordering::Relaxed);
                self.half_open_verdict(now_ns, health, seed)
            }
            BreakerState::HalfOpen => self.half_open_verdict(now_ns, health, seed),
        }
    }

    /// One probe verdict while half-open: healthy probes accumulate toward
    /// [`PROBES_TO_CLOSE`], a sick one re-opens with fresh baselines.
    fn half_open_verdict(
        &self,
        now_ns: u64,
        health: &HealthCounters,
        seed: u64,
    ) -> BreakerDecision {
        if !self.sick(health) {
            // Relaxed: probe bookkeeping; the close CAS below is the real
            // transition.
            let ok = self.probe_successes.fetch_add(1, Ordering::Relaxed) + 1;
            if ok >= PROBES_TO_CLOSE {
                let (half, closed) = (BreakerState::HalfOpen as u64, BreakerState::Closed as u64);
                // Relaxed CAS: idempotent close; a lost race means another
                // probe (or a re-trip) got there first.
                let _ =
                    self.state
                        .compare_exchange(half, closed, Ordering::Relaxed, Ordering::Relaxed);
            }
            BreakerDecision::Admit
        } else {
            self.trip_from(BreakerState::HalfOpen, now_ns, health);
            self.reject(probe_delay_ns(seed, self.trips()))
        }
    }

    fn reject(&self, retry_after_ns: u64) -> BreakerDecision {
        // Relaxed: monotone statistics counter.
        self.rejects.fetch_add(1, Ordering::Relaxed);
        BreakerDecision::Reject { retry_after_ns }
    }
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    const SEED: u64 = 7;

    /// A fault plane whose four monotone counters all read `n`.
    fn counters_at(n: u64) -> HealthCounters {
        HealthCounters {
            degraded_expands: n,
            shed_expands: n,
            session_panics: n,
            deadline_rejects: n,
            sessions_quarantined: 0,
        }
    }

    #[test]
    fn state_names_and_codes_round_trip() {
        for (code, state) in [
            (0, BreakerState::Closed),
            (1, BreakerState::Open),
            (2, BreakerState::HalfOpen),
        ] {
            assert_eq!(state as u64, code);
            assert_eq!(BreakerState::from_code(code), state);
        }
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }

    #[test]
    fn healthy_closed_breaker_admits_everything() {
        let b = Breaker::new();
        for t in 0..10 {
            assert_eq!(
                b.admit(t, &HealthCounters::default(), SEED),
                BreakerDecision::Admit
            );
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        assert_eq!(b.rejects(), 0);
    }

    #[test]
    fn each_signal_alone_trips_a_closed_breaker() {
        let signals: [fn(&mut HealthCounters); 5] = [
            |h| h.degraded_expands = 1,
            |h| h.shed_expands = 1,
            |h| h.session_panics = 1,
            |h| h.deadline_rejects = 1,
            |h| h.sessions_quarantined = 1,
        ];
        for (i, raise) in signals.iter().enumerate() {
            let mut health = HealthCounters::default();
            raise(&mut health);
            let b = Breaker::new();
            assert!(
                matches!(
                    b.admit(0, &health, SEED),
                    BreakerDecision::Reject { retry_after_ns } if retry_after_ns >= OPEN_NS
                ),
                "signal {i} must trip"
            );
            assert_eq!(b.state(), BreakerState::Open, "signal {i}");
            assert_eq!(b.trips(), 1, "signal {i}");
        }
    }

    #[test]
    fn counters_below_the_trip_baseline_read_healthy() {
        let b = Breaker::new();
        b.admit(0, &counters_at(5), SEED);
        assert_eq!(b.baseline(), counters_at(5), "the trip pins its counters");
        // A stats-window reset drops every counter below the baseline:
        // that reads healthy, and three probes after the delay close.
        let probe_at = probe_delay_ns(SEED, 1);
        for i in 0..PROBES_TO_CLOSE {
            assert_eq!(
                b.admit(probe_at + i, &counters_at(2), SEED),
                BreakerDecision::Admit
            );
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Counters back *at* the baseline are no growth either; one past
        // it trips again.
        assert_eq!(
            b.admit(probe_at + 5, &counters_at(5), SEED),
            BreakerDecision::Admit
        );
        let mut grown = counters_at(5);
        grown.deadline_rejects = 6;
        assert!(matches!(
            b.admit(probe_at + 6, &grown, SEED),
            BreakerDecision::Reject { .. }
        ));
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn full_trip_probe_close_cycle() {
        let b = Breaker::new();
        // A sick verdict trips closed → open and pins the baselines.
        let sick = HealthCounters {
            degraded_expands: 5,
            session_panics: 1,
            ..HealthCounters::default()
        };
        let d = b.admit(100, &sick, SEED);
        assert!(matches!(d, BreakerDecision::Reject { retry_after_ns } if retry_after_ns > 0));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.baseline(), sick);
        // Before the probe delay: fast-fail with a shrinking hint.
        let delay = probe_delay_ns(SEED, 1);
        match b.admit(200, &sick, SEED) {
            BreakerDecision::Reject { retry_after_ns } => {
                assert_eq!(
                    retry_after_ns,
                    delay - 100,
                    "hint counts down from the trip stamp"
                );
            }
            BreakerDecision::Admit => panic!("must fast-fail before the probe delay"),
        }
        // After the delay: the next request is the probe (half-open); the
        // counters have not grown past the baseline, so it is healthy.
        let probe_at = 100 + delay;
        assert_eq!(b.admit(probe_at, &sick, SEED), BreakerDecision::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Two more healthy probes close it (PROBES_TO_CLOSE = 3).
        assert_eq!(b.admit(probe_at + 1, &sick, SEED), BreakerDecision::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(probe_at + 2, &sick, SEED), BreakerDecision::Admit);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn sick_probe_reopens_with_fresh_baselines() {
        let b = Breaker::new();
        b.admit(0, &counters_at(1), SEED);
        let delay = probe_delay_ns(SEED, 1);
        // Probe admitted…
        assert_eq!(
            b.admit(delay, &counters_at(1), SEED),
            BreakerDecision::Admit
        );
        // …but the counters grow before the next verdict: re-open, trip
        // count grows, baselines move to the new snapshot.
        let d = b.admit(delay + 1, &counters_at(2), SEED);
        assert!(matches!(d, BreakerDecision::Reject { .. }));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert_eq!(b.baseline(), counters_at(2));
    }

    #[test]
    fn probe_delay_is_deterministic_jittered_and_bounded() {
        let d1 = probe_delay_ns(SEED, 1);
        assert_eq!(
            d1,
            probe_delay_ns(SEED, 1),
            "deterministic per (seed, trip)"
        );
        assert!(
            (OPEN_NS..=OPEN_NS + OPEN_NS / 4 + 1).contains(&d1),
            "≤ 25 % jitter: {d1}"
        );
        // Different trips / seeds decorrelate.
        let spread: std::collections::HashSet<u64> =
            (1..20).map(|t| probe_delay_ns(SEED, t)).collect();
        assert!(
            spread.len() > 10,
            "jitter must actually spread: {}",
            spread.len()
        );
        assert_ne!(probe_delay_ns(SEED, 1), probe_delay_ns(SEED + 1, 1));
    }
}
