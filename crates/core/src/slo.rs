//! Per-verb latency objectives and multi-window burn rates (DESIGN.md §5j).
//!
//! An [`Slo`] declares, in code, the latency objective for one serve verb:
//! "99% of requests complete under `target_p99_ns`". The monitor does not
//! add new counters — it derives **burn rates** from the per-stage
//! histograms the engine already keeps:
//!
//! ```text
//! burn = (bad / total) / error_budget        error_budget = 1 − 0.99
//! ```
//!
//! A burn rate of 1.0 means the service is consuming its error budget
//! exactly as fast as the objective allows; above 1.0 the budget is
//! burning too fast. Two windows are reported per verb, the classic
//! multi-window pattern:
//!
//! * `"total"` — cumulative since the last `reset-stats`, from the live
//!   histogram snapshot directly. Slow-burn signal.
//! * `"recent"` — a rotating baseline window ([`Slo::window_ns`], default
//!   60 s): [`SloState`] remembers the `(good, total)` counts at the last
//!   rotation and reports the delta since. Fast-burn signal; page-worthy
//!   when `total` is also significant.
//!
//! A telemetry [`Snapshot`](crate::telemetry::Snapshot) carries the raw
//! `(good, total)` counts, so a sharded tier's merged burn is computed
//! from summed counts, never averaged. Exported as
//! `bionav_slo_burn_rate{verb,window}` gauges and surfaced in
//! `serve-stats`. The `cargo xtask analyze` coverage matrix fails CI when
//! a verb in [`SloVerb::ALL`] is missing from the exporter or the tests.

use crate::sync::{AtomicU64, Ordering};
use crate::telemetry::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// The serve verbs that carry a latency objective.
///
/// Deliberately a subset of the wire verbs: only the latency-sensitive
/// interactive operations (§VI-B: EXPAND must feel instant; opening a
/// session gates the first paint) — not the bulk/diagnostic verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SloVerb {
    /// Session open (cold build or cache hit) — [`crate::Stage::OpenSession`].
    Open = 0,
    /// Interactive EXPAND — [`crate::Stage::Expand`].
    Expand = 1,
}

impl SloVerb {
    /// Number of SLO verbs (length of [`SloVerb::ALL`]).
    pub const COUNT: usize = 2;

    /// Every SLO verb, indexed by discriminant.
    pub const ALL: [SloVerb; SloVerb::COUNT] = [SloVerb::Open, SloVerb::Expand];

    /// Stable snake_case name used as the `verb` metric label.
    pub fn name(self) -> &'static str {
        match self {
            SloVerb::Open => "open",
            SloVerb::Expand => "expand",
        }
    }
}

/// One latency objective: 99% of `verb` requests under `target_p99_ns`,
/// with a `window_ns` rotating fast-burn window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// The verb the objective covers.
    pub verb: SloVerb,
    /// The p99 latency target in nanoseconds.
    pub target_p99_ns: u64,
    /// Width of the `"recent"` rotating window in nanoseconds.
    pub window_ns: u64,
}

/// The workspace's declared objectives, [`SloVerb::ALL`] order.
pub const SLOS: [Slo; SloVerb::COUNT] = [
    Slo {
        verb: SloVerb::Open,
        target_p99_ns: 100_000_000, // 100 ms: first paint of a navigation
        window_ns: 60_000_000_000,
    },
    Slo {
        verb: SloVerb::Expand,
        target_p99_ns: 25_000_000, // 25 ms: EXPAND must feel instant
        window_ns: 60_000_000_000,
    },
];

/// The objective declared for `verb`.
pub fn slo_for(verb: SloVerb) -> &'static Slo {
    &SLOS[verb as usize]
}

/// Error budget fraction implied by a p99 objective.
const ERROR_BUDGET: f64 = 0.01;

/// Burn rate from `(good, total)` counts: fraction of requests over
/// target, normalized by the 1% error budget. 0.0 when the window is
/// empty.
pub fn burn_rate(good: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let bad = total.saturating_sub(good) as f64;
    (bad / total as f64) / ERROR_BUDGET
}

/// Window label for the cumulative-since-reset burn.
pub const WINDOW_TOTAL: &str = "total";
/// Window label for the rotating fast-burn window.
pub const WINDOW_RECENT: &str = "recent";

/// One reported burn-rate row (JSON in `ServeStats`, one Prometheus
/// series), with the raw `(good, total)` counts its rate derives from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloBurn {
    /// Verb label ([`SloVerb::name`]).
    pub verb: String,
    /// Window label ([`WINDOW_TOTAL`] / [`WINDOW_RECENT`]).
    pub window: String,
    /// Error-budget burn rate (1.0 = burning exactly at the objective).
    pub burn_rate: f64,
    /// The declared p99 target, in milliseconds, for display.
    pub target_p99_ms: f64,
    /// Requests within target in this window.
    pub good: u64,
    /// Requests observed in this window.
    pub total: u64,
}

/// Per-engine rotating-baseline state for the `"recent"` windows: the
/// `(good, total)` counts captured at the last rotation, one pair per
/// [`SloVerb`]. All plain atomics — reading the monitor never locks.
pub struct SloState {
    base_good: [AtomicU64; SloVerb::COUNT],
    base_total: [AtomicU64; SloVerb::COUNT],
    rotated_ns: [AtomicU64; SloVerb::COUNT],
}

impl Default for SloState {
    fn default() -> Self {
        Self::new()
    }
}

impl SloState {
    /// Fresh state: every recent window starts at the next observation.
    pub fn new() -> Self {
        SloState {
            base_good: [(); SloVerb::COUNT].map(|()| AtomicU64::new(0)),
            base_total: [(); SloVerb::COUNT].map(|()| AtomicU64::new(0)),
            rotated_ns: [(); SloVerb::COUNT].map(|()| AtomicU64::new(0)),
        }
    }

    /// The `[total, recent]` windows' `(good, total)` counts for `verb`
    /// from the live cumulative histogram snapshot, rotating the recent
    /// baseline if its window has elapsed at `now_ns` (trace-epoch
    /// nanoseconds). Burn rates derive from these counts in
    /// [`crate::telemetry::Snapshot::slo_burn`].
    pub fn observe(&self, verb: SloVerb, snap: &HistogramSnapshot, now_ns: u64) -> [(u64, u64); 2] {
        let slo = slo_for(verb);
        let idx = verb as usize;
        let good = snap.count_at_or_below(slo.target_p99_ns);
        let total = snap.total();

        // Ordering: Relaxed throughout — the baselines are advisory
        // telemetry; a racing rotation can only shift a window edge by one
        // observation, never corrupt a count.
        let rotated = self.rotated_ns[idx].load(Ordering::Relaxed);
        if rotated == 0 || now_ns.saturating_sub(rotated) >= slo.window_ns {
            // Ordering: Relaxed — same advisory-telemetry claim as above.
            self.rotated_ns[idx].store(now_ns.max(1), Ordering::Relaxed);
            self.base_good[idx].store(good, Ordering::Relaxed);
            self.base_total[idx].store(total, Ordering::Relaxed);
        }
        // Ordering: Relaxed — deltas against the same advisory baselines.
        let recent_good = good.saturating_sub(self.base_good[idx].load(Ordering::Relaxed));
        let recent_total = total.saturating_sub(self.base_total[idx].load(Ordering::Relaxed));
        [(good, total), (recent_good, recent_total)]
    }

    /// Forget every baseline (the histograms were reset underneath us).
    pub fn reset(&self) {
        for i in 0..SloVerb::COUNT {
            // Ordering: Relaxed — see `burns`.
            self.base_good[i].store(0, Ordering::Relaxed);
            self.base_total[i].store(0, Ordering::Relaxed);
            self.rotated_ns[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::LatencyHistogram;

    #[test]
    fn burn_rate_is_budget_normalized() {
        assert_eq!(burn_rate(0, 0), 0.0);
        assert_eq!(burn_rate(100, 100), 0.0);
        // 1% of requests over target = burning exactly at budget.
        assert!((burn_rate(99, 100) - 1.0).abs() < 1e-9);
        // Every request over target = 100× budget.
        assert!((burn_rate(0, 100) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn slos_cover_every_verb_in_order() {
        assert_eq!(SLOS.len(), SloVerb::COUNT);
        assert!(matches!(SLOS[0].verb, SloVerb::Open));
        assert!(matches!(SLOS[1].verb, SloVerb::Expand));
        for (i, slo) in SLOS.iter().enumerate() {
            assert_eq!(slo.verb as usize, i);
            assert!(slo.target_p99_ns > 0);
            assert!(slo.window_ns > 0);
            assert_eq!(slo_for(slo.verb).target_p99_ns, slo.target_p99_ns);
        }
    }

    #[test]
    fn state_reports_total_and_recent_windows() {
        let hist = LatencyHistogram::new();
        let state = SloState::new();
        let target = slo_for(SloVerb::Expand).target_p99_ns;
        let window = slo_for(SloVerb::Expand).window_ns;

        for _ in 0..9 {
            hist.record(target / 2);
        }
        hist.record(target.saturating_mul(4)); // one breach
        let t0 = 1_000;
        let [total, recent] = state.observe(SloVerb::Expand, &hist.snapshot(), t0);
        assert_eq!(total, (9, 10));
        assert!(
            (burn_rate(total.0, total.1) - 10.0).abs() < 1e-9,
            "10% bad / 1% budget"
        );
        // The first observation rotates the recent baseline to "now", so
        // the recent window is empty until more samples arrive.
        assert_eq!(recent, (0, 0));
        assert_eq!(burn_rate(recent.0, recent.1), 0.0);

        // Within the window: recent = delta since rotation.
        for _ in 0..5 {
            hist.record(target / 2);
        }
        let [total, recent] = state.observe(SloVerb::Expand, &hist.snapshot(), t0 + window / 2);
        assert_eq!(total.1, 15);
        assert_eq!(recent, (5, 5));

        // After the window elapses the baseline rotates forward.
        let [_, recent] = state.observe(SloVerb::Expand, &hist.snapshot(), t0 + 2 * window);
        assert_eq!(recent.1, 0, "rotation empties the recent window");

        state.reset();
        let [total, _] = state.observe(SloVerb::Expand, &hist.snapshot(), t0 + 3 * window);
        assert_eq!(total.1, 15, "total window unaffected by reset");
    }

    #[test]
    fn burn_rows_round_trip_through_json() {
        let rows = vec![SloBurn {
            verb: "expand".to_string(),
            window: WINDOW_RECENT.to_string(),
            burn_rate: 2.5,
            target_p99_ms: 25.0,
            good: 95,
            total: 100,
        }];
        let json = serde_json::to_string(&rows).expect("serialize");
        let back: Vec<SloBurn> = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, rows);
    }
}
