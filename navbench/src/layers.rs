//! Per-layer metrics of the traced run, shared by every workload.
//!
//! Engine layers come from the tier's own stage statistics and flight
//! recorder; the index, tree builder and wire codec are timed by the
//! benchmark around their public functions.

use bionav_core::{FlightRecord, ServeStats};
use bionav_proto::{encode_reply, encode_request, Conn, Reply, ReplyReader, Request};

use crate::report::Report;
use crate::stats::Samples;

/// Everything the per-layer metrics are folded from.
pub struct Inputs<'a> {
    /// `(index query ns, tree build ns)` per timed build.
    pub query_build_ns: Vec<(u64, u64)>,
    /// Trees the tier built in the measured window.
    pub tier_builds: u64,
    /// Engine statistics of the measured window.
    pub stats: &'a ServeStats,
    /// Materialization triggered by the client's own reads, outside the
    /// engine's stages.
    pub client_materialize_ns: u64,
    /// The flight recorder's last completed requests.
    pub flight: Vec<FlightRecord>,
    /// Sessions opened per shard in the measured window.
    pub sessions_opened: Vec<u64>,
    /// The run's request/reply pairs, re-encoded for the codec timing.
    pub frames: Vec<(Request, Reply)>,
    /// Client-observed time per verb: OPEN, EXPAND, SHOWRESULTS, CLOSE.
    pub rtt: [&'a Samples; 4],
    /// 1 − engine-attributed time ÷ client-observed time (OPEN + EXPAND).
    pub unattributed: f64,
    /// How late the load generator issued requests.
    pub lag: &'a Samples,
    /// Sessions per second with tracing off and on.
    pub trace_rates: (f64, f64),
    /// Trace events recorded by the run.
    pub trace_events: u64,
}

/// The median of `v` with no sample-count rule, for small per-layer sets
/// such as tree builds; `NaN` when empty.
fn mid(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2)
        .map_or(f64::NAN, |&x| x as f64)
}

/// Exact total time of one engine stage in the stats window, nanoseconds.
pub fn stage_total_ns(stats: &ServeStats, stage: &str) -> u64 {
    stats
        .stages
        .iter()
        .find(|s| s.stage == stage)
        .map_or(0, |s| (s.total_ms * 1e6) as u64)
}

fn stage(stats: &ServeStats, name: &str) -> (u64, f64, f64) {
    stats
        .stages
        .iter()
        .find(|s| s.stage == name)
        .map_or((0, 0.0, 0.0), |s| (s.count, s.total_ms, s.p50_us))
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Encode and decode every frame of the run, as client and server would,
/// repeating until 100 ms have passed; mean nanoseconds per frame.
pub fn codec_ns_per_frame(frames: &[(Request, Reply)]) -> f64 {
    if frames.is_empty() {
        return f64::NAN;
    }
    let t0 = bionav_core::trace::now_ns();
    let mut passes = 0u64;
    let mut decoded = 0usize;
    while passes == 0 || bionav_core::trace::now_ns() - t0 < 100_000_000 {
        let mut server = Conn::new();
        let mut client = ReplyReader::new();
        for (req, reply) in frames {
            decoded += server
                .feed_bytes(&encode_request(req))
                .map_or(0, |e| e.len());
            decoded += client
                .feed_bytes(&encode_reply(reply))
                .map_or(0, |r| r.len());
        }
        passes += 1;
    }
    let elapsed = bionav_core::trace::now_ns() - t0;
    std::hint::black_box(decoded);
    elapsed as f64 / (passes as f64 * 2.0 * frames.len() as f64)
}

impl Inputs<'_> {
    pub fn report(self, r: &mut Report) {
        let s = self.stats;
        let (queries, builds): (Vec<u64>, Vec<u64>) = self.query_build_ns.iter().copied().unzip();
        r.counted(
            "medline.query_us_p50",
            mid(queries) / 1e3,
            "us",
            builds.len(),
        );
        r.counted(
            "navtree.build_ms_p50",
            mid(builds.clone()) / 1e6,
            "ms",
            builds.len(),
        );
        r.metric("navtree.build_count", self.tier_builds as f64, "count");

        let (expands, expand_ms, _) = stage(s, "expand");
        let (planned, partition_ms, _) = stage(s, "partition");
        r.metric("edgecut.partition_ms_total", partition_ms, "ms");
        r.metric(
            "edgecut.partition_share",
            if expand_ms > 0.0 {
                partition_ms / expand_ms
            } else {
                0.0
            },
            "ratio",
        );
        r.metric("edgecut.solve_ms_total", stage(s, "solve").1, "ms");
        r.metric(
            "edgecut.reduced_build_ms_total",
            stage(s, "reduced_build").1,
            "ms",
        );
        r.metric("edgecut.planned_expands", planned as f64, "count");
        let materialize_ms = stage(s, "materialize").1 + self.client_materialize_ns as f64 / 1e6;
        r.metric("navtree.materialize_ms_total", materialize_ms, "ms");
        let (applied, _, apply_p50) = stage(s, "apply_cut");
        r.counted("active.apply_cut_us_p50", apply_p50, "us", applied as usize);

        r.metric(
            "engine.tree_cache_hit_ratio",
            ratio(s.cache_hits, s.cache_misses),
            "ratio",
        );
        r.metric(
            "engine.tree_cache_evictions",
            s.cache_evictions as f64,
            "count",
        );
        // Every EXPAND the cut memo does not answer runs the planner once
        // (one partition span); the engine's own memo counters only cover
        // trees still cached, so evictions would hide misses.
        r.metric(
            "engine.cut_cache_hit_ratio",
            ratio(expands.saturating_sub(planned), planned),
            "ratio",
        );
        r.metric("engine.lock_wait_ms_total", stage(s, "lock_wait").1, "ms");
        let overheads: Vec<u64> = self
            .flight
            .iter()
            .filter(|f| f.verb == "expand" && f.error.is_empty())
            .map(|f| {
                let inner: f64 = f
                    .stages
                    .iter()
                    .filter(|st| st.stage != "expand")
                    .map(|st| st.us)
                    .sum();
                ((f.total_us - inner).max(0.0) * 1e3) as u64
            })
            .collect();
        r.counted(
            "engine.overhead_us_p50",
            mid(overheads.clone()) / 1e3,
            "us",
            overheads.len(),
        );
        r.metric(
            "engine.shed_count",
            (s.shed_expands + s.deadline_rejects + s.breaker_rejects) as f64,
            "count",
        );
        r.metric("engine.degraded_count", s.degraded_expands as f64, "count");

        let opened = &self.sessions_opened;
        let mean = opened.iter().sum::<u64>() as f64 / opened.len().max(1) as f64;
        let max = opened.iter().copied().max().unwrap_or(0) as f64;
        r.metric(
            "shard.session_imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
            "ratio",
        );

        r.counted(
            "proto.codec_ns_per_frame",
            codec_ns_per_frame(&self.frames),
            "ns",
            self.frames.len() * 2,
        );
        let names = [
            "wire.open_rtt_us_p50",
            "wire.expand_rtt_us_p50",
            "wire.showresults_rtt_us_p50",
            "wire.close_rtt_us_p50",
        ];
        for (name, samples) in names.into_iter().zip(self.rtt) {
            let n = samples.len();
            match samples.pct(0.50) {
                Some(ns) => r.counted(name, ns / 1e3, "us", n),
                None => r.problem(format!("{name}: only {n} samples")),
            }
        }
        r.metric("wire.unattributed_frac", self.unattributed, "ratio");
        let n = self.lag.len();
        match self.lag.pct(0.99) {
            Some(ns) => r.counted("loadgen.lag_ms_p99", ns / 1e6, "ms", n),
            None => r.problem(format!("loadgen.lag_ms_p99: only {n} samples")),
        }
        let (off, on) = self.trace_rates;
        r.metric(
            "trace.overhead_frac",
            if off > 0.0 { 1.0 - on / off } else { f64::NAN },
            "ratio",
        );
        r.metric("trace.events", self.trace_events as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_timing_covers_both_directions() {
        let frames = vec![
            (Request::Stats, Reply::Closed),
            (Request::Close { session: 9 }, Reply::Closed),
        ];
        let ns = codec_ns_per_frame(&frames);
        assert!(ns.is_finite() && ns > 0.0);
        assert!(codec_ns_per_frame(&[]).is_nan());
    }
}
