//! The static in-flight admission gate (DESIGN.md §5k).
//!
//! [`AdmissionGate`] caps how many EXPANDs one engine (= one shard) runs at
//! once. A request past the cap is shed at the door with
//! [`ShedReason::Queue`] instead of queueing behind the solver. Together
//! with end-to-end deadlines (rejected before any solver work) and the
//! per-shard circuit breakers, the fixed cap is the whole overload plane.
//! The cap does not adapt to measured latency: with deadlines on, an AIMD
//! controller bought no goodput over it (EXPERIMENTS.md "Overload audit").
//!
//! The gate is pure atomic state: no locks, no clock, no thread-locals —
//! which is what lets the interleave model checker explore concurrent
//! admit/release schedules exhaustively (`tests/interleave_models.rs`).

use crate::sync::{AtomicUsize, Ordering};

/// Why a request was refused before reaching the solver. The typed reason
/// flows into the flight recorder (2-bit `shed` field), the Prometheus
/// exposition (`bionav_shed_total{reason=...}`), and [`ServeStats`]
/// (`shed_expands` / `deadline_rejects` / `breaker_rejects`), so an
/// operator can tell queue pressure from deadline misses from a tripped
/// breaker without correlating logs.
///
/// [`ServeStats`]: crate::engine::ServeStats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission gate's in-flight limit was reached (queue pressure).
    Queue = 0,
    /// The request's end-to-end deadline had already expired on arrival.
    Deadline = 1,
    /// The target shard's circuit breaker is open.
    Breaker = 2,
}

impl ShedReason {
    /// Number of shed reasons.
    pub const COUNT: usize = 3;

    /// Every reason, in discriminant order.
    pub const ALL: [ShedReason; ShedReason::COUNT] =
        [ShedReason::Queue, ShedReason::Deadline, ShedReason::Breaker];

    /// Stable snake_case name used as the Prometheus `reason` label value
    /// and in decoded flight-recorder records.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Queue => "queue",
            ShedReason::Deadline => "deadline",
            ShedReason::Breaker => "breaker",
        }
    }
}

/// The in-flight EXPAND cap for one engine (= one shard).
#[derive(Debug)]
pub struct AdmissionGate {
    /// Current admit limit. 0 means the gate is disabled (admit everything).
    limit: AtomicUsize,
    /// Requests currently inside the gate.
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// A gate starting at `limit` in-flight requests (0 disables the gate).
    pub fn new(limit: usize) -> Self {
        AdmissionGate {
            limit: AtomicUsize::new(limit),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Current admit limit (0 = disabled).
    pub fn limit(&self) -> usize {
        // Relaxed: statistics/decision read; admit() tolerates a stale
        // limit for one request.
        self.limit.load(Ordering::Relaxed)
    }

    /// Requests currently admitted and not yet released.
    pub fn inflight(&self) -> usize {
        // Relaxed: gauge read; may transiently lag in-flight transitions.
        self.inflight.load(Ordering::Relaxed)
    }

    /// Overwrites the limit (policy changes).
    pub fn set_limit(&self, limit: usize) {
        // Relaxed: plain control-plane store; readers act on whichever
        // value they observe next.
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Tries to admit one request. On success the returned guard holds the
    /// in-flight slot until dropped; `None` means the caller must shed
    /// with [`ShedReason::Queue`].
    pub fn try_admit(&self) -> Option<AdmitGuard<'_>> {
        // Relaxed: the counter is the only shared state; the limit check
        // is advisory (one request of overshoot is fine, the fetch_sub
        // undoes it before returning).
        let prev = self.inflight.fetch_add(1, Ordering::Relaxed);
        let limit = self.limit();
        if limit != 0 && prev >= limit {
            // Relaxed: undo of the optimistic increment above.
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(AdmitGuard(self))
    }
}

/// RAII in-flight slot from [`AdmissionGate::try_admit`]; dropping it
/// releases the slot (panic-safe, so a caught solver panic still balances
/// the books).
#[derive(Debug)]
pub struct AdmitGuard<'a>(&'a AdmissionGate);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        // Relaxed: pairs with the optimistic increment in try_admit.
        self.0.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    #[test]
    fn shed_reason_names_are_stable_label_values() {
        assert_eq!(ShedReason::ALL.len(), ShedReason::COUNT);
        assert_eq!(ShedReason::Queue.name(), "queue");
        assert_eq!(ShedReason::Deadline.name(), "deadline");
        assert_eq!(ShedReason::Breaker.name(), "breaker");
        for r in ShedReason::ALL {
            assert!(r.name().chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn gate_admits_to_the_limit_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let g1 = gate.try_admit().expect("first slot");
        let g2 = gate.try_admit().expect("second slot");
        assert!(gate.try_admit().is_none(), "third must shed");
        assert_eq!(gate.inflight(), 2);
        drop(g1);
        let g3 = gate.try_admit().expect("released slot is reusable");
        drop(g2);
        drop(g3);
        assert_eq!(gate.inflight(), 0, "books balance after drops");
    }

    #[test]
    fn zero_limit_disables_the_gate() {
        let gate = AdmissionGate::new(0);
        let guards: Vec<_> = (0..64).map(|_| gate.try_admit().expect("no cap")).collect();
        assert_eq!(gate.inflight(), 64);
        drop(guards);
        assert_eq!(gate.inflight(), 0);
    }
}
