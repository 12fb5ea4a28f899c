//! Sharded multi-core serving tier (DESIGN.md §5h).
//!
//! One [`Engine`] owns one LRU tree cache, one session table, and one
//! admission gate behind shared locks — fast on a few cores, capped well
//! below a machine. [`ShardedEngine`] scales that out *inside* one
//! process: N fully independent engine shards (each with its own cache,
//! session table, [`CutCache`](crate::session::CutCache), admission gate,
//! and telemetry) behind a consistent-hash router, so shards never share
//! a lock and throughput scales with cores.
//!
//! Three routing invariants:
//!
//! 1. **Stickiness by query.** The ring hashes the *normalized* query
//!    text ([`Engine::cache_key`]), so every session over a query lands on
//!    the shard whose cache already holds that query's navigation tree —
//!    sharding multiplies cache capacity instead of diluting hit rate.
//! 2. **Stickiness by session.** A [`ShardSessionId`] carries its shard
//!    in the high bits; EXPAND / SHOWRESULTS / CLOSE route by arithmetic,
//!    no lookup table, no cross-shard chatter.
//! 3. **Sick shards trip their breaker.** On a tier armed with
//!    [`ShardedEngine::with_breakers`], each shard's [`Breaker`] judges
//!    the shard's fault-plane counters ([`Engine::health`]); while it is
//!    open, *new* opens walk the ring to the next admitting node and
//!    sticky EXPANDs fast-fail, while existing sessions stay put
//!    (invariant 2 — a sick shard drains instead of churning). An
//!    unarmed tier places every open on its home shard.
//!
//! The router itself is lock-free by construction: the ring is immutable
//! after construction and breaker verdicts are relaxed atomic loads. The
//! `no-cross-shard-lock` xtask rule polices that no future edit acquires
//! a lock here while calling into a shard's engine — the one shape that
//! would re-serialize the tier.

use crate::breaker::{Breaker, BreakerDecision, BreakerState};
use crate::engine::{
    Engine, EngineError, ExpandReply, HealthCounters, ScriptOp, ScriptOutcome, ServeStats,
    SessionId, SharedTree,
};
use crate::navtree::NavNodeId;
use crate::session::{Session, SessionState};
use crate::telemetry::Snapshot;
use crate::trace;
use crate::trace::flightrec::{self, Verb};

/// Virtual ring nodes per shard: enough that the keyspace split stays
/// within a few percent of even for any shard count this tier targets,
/// cheap enough that routing is one binary search over `shards × 32`
/// points.
const VNODES_PER_SHARD: usize = 32;

/// Bits of a packed [`ShardSessionId`] holding the shard-local session id.
const LOCAL_BITS: u32 = 48;
const LOCAL_MASK: u64 = (1 << LOCAL_BITS) - 1;

/// FNV-1a 64-bit + SplitMix finalizer ([`crate::mix`]): a tiny,
/// dependency-free, stable hash for ring points and query routing.
/// Stability matters — the ring layout must not move between processes or
/// releases, or restarts would dump every shard's warm cache onto a
/// different shard. The finalizer gives full-width avalanche: raw FNV-1a
/// diffuses trailing-byte differences mostly into the *low* bits, and the
/// ring orders points by the full `u64` — without it, similar query
/// suffixes cluster onto a few arcs (measured: one of four shards received
/// 0 of 256 near-identical keys).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    crate::mix(h)
}

/// Session handle in the sharded tier: the owning shard plus the shard's
/// local [`SessionId`]. Packs into one `u64` ([`ShardSessionId::to_bits`])
/// so the wire protocol ships a single integer and the router recovers the
/// shard with a shift — no session→shard lookup table anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSessionId {
    shard: u16,
    local: u64,
}

impl ShardSessionId {
    /// The owning shard's index.
    pub fn shard(self) -> usize {
        usize::from(self.shard)
    }

    /// Packs `shard` into the high 16 bits and the local session id into
    /// the low 48. Local ids are a per-shard counter from 1, so 48 bits
    /// outlast any process (2^48 opens at 10M sessions/sec is ~90 years).
    pub fn to_bits(self) -> u64 {
        (u64::from(self.shard) << LOCAL_BITS) | (self.local & LOCAL_MASK)
    }

    /// Inverse of [`ShardSessionId::to_bits`]. Forged bits are harmless:
    /// an out-of-range shard or unknown local id surfaces as a typed
    /// [`EngineError::UnknownSession`] at the next operation.
    pub fn from_bits(bits: u64) -> Self {
        ShardSessionId {
            shard: (bits >> LOCAL_BITS) as u16,
            local: bits & LOCAL_MASK,
        }
    }

    fn wrap(shard: usize, local: SessionId) -> Self {
        let raw = local.to_raw();
        debug_assert!(raw <= LOCAL_MASK, "local session ids stay within 48 bits");
        ShardSessionId {
            shard: shard as u16,
            local: raw & LOCAL_MASK,
        }
    }

    fn local_id(self) -> SessionId {
        SessionId::from_raw(self.local)
    }
}

impl std::fmt::Display for ShardSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.shard, self.local)
    }
}

/// N independent [`Engine`] shards behind a consistent-hash router. See
/// the module docs for the routing invariants; see
/// [`ShardedEngine::stats`] / [`ShardedEngine::prometheus_text`] for the
/// cross-shard telemetry merge.
pub struct ShardedEngine<B>
where
    B: Fn(&str) -> Option<SharedTree> + Send + Sync,
{
    shards: Vec<Engine<B>>,
    /// Consistent-hash ring: `(point, shard)` sorted by point, immutable
    /// after construction — routing is a lock-free binary search.
    ring: Vec<(u64, u16)>,
    /// One circuit breaker per shard (all-atomic state machines).
    breakers: Vec<Breaker>,
    /// Probe-jitter seed of an armed tier ([`ShardedEngine::with_breakers`]);
    /// `None` leaves every breaker closed and placement on the home shard.
    breaker_seed: Option<u64>,
}

impl<B> ShardedEngine<B>
where
    B: Fn(&str) -> Option<SharedTree> + Send + Sync,
{
    /// Builds `n_shards` engines via `factory(shard_index)` — a factory,
    /// not a prototype, because every shard needs its own builder closure,
    /// cache, and session table. Each member engine is fault-tagged with
    /// its shard index ([`Engine::set_fault_shard`]) so
    /// [`FaultPlan::only_shard`](crate::fault::FaultPlan::only_shard)
    /// chaos plans can storm one shard in isolation.
    ///
    /// # Panics
    /// `n_shards` must be in `1..=u16::MAX` (the [`ShardSessionId`] shard
    /// field is 16 bits).
    pub fn new(n_shards: usize, mut factory: impl FnMut(usize) -> Engine<B>) -> Self {
        assert!(
            (1..=usize::from(u16::MAX)).contains(&n_shards),
            "shard count must be in 1..=65535, got {n_shards}"
        );
        let shards: Vec<Engine<B>> = (0..n_shards)
            .map(|i| {
                let mut engine = factory(i);
                engine.set_fault_shard(i);
                engine
            })
            .collect();
        let mut ring: Vec<(u64, u16)> = (0..n_shards as u16)
            .flat_map(|s| {
                (0..VNODES_PER_SHARD).map(move |v| {
                    let mut key = [0u8; 12];
                    key[..2].copy_from_slice(&s.to_le_bytes());
                    key[2..10].copy_from_slice(&(v as u64).to_le_bytes());
                    key[10..].copy_from_slice(b"vn");
                    (fnv1a(&key), s)
                })
            })
            .collect();
        ring.sort_unstable();
        let breakers = (0..n_shards).map(|_| Breaker::new()).collect();
        ShardedEngine {
            shards,
            ring,
            breakers,
            breaker_seed: None,
        }
    }

    /// Arms the per-shard circuit breakers (DESIGN.md §5k). `seed` feeds
    /// the probe-delay jitter, so a chaos drill replays bit-exactly per
    /// seed; shards decorrelate by XOR-ing their index in.
    pub fn with_breakers(mut self, seed: u64) -> Self {
        self.breaker_seed = Some(seed);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's engine (bounds-checked), for tests,
    /// chaos drills, and per-shard REPL commands.
    pub fn engine(&self, shard: usize) -> &Engine<B> {
        &self.shards[shard]
    }

    /// One shard's breaker (bounds-checked), for tests, chaos drills, and
    /// the REPL's per-shard table.
    pub fn breaker(&self, shard: usize) -> &Breaker {
        &self.breakers[shard]
    }

    /// One shard's current breaker state (lock-free).
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.breakers[shard].state()
    }

    /// Drives shard `shard`'s breaker one step against the shard's health
    /// counters and reports whether it may take traffic right now. Always
    /// `Admit` on an unarmed tier.
    fn breaker_admit(&self, shard: usize) -> BreakerDecision {
        let Some(seed) = self.breaker_seed else {
            return BreakerDecision::Admit;
        };
        self.breakers[shard].admit(
            trace::now_ns(),
            &self.shards[shard].health(),
            // Decorrelate per-shard probe jitter so N breakers tripped by
            // one incident don't re-probe in lockstep.
            seed ^ (shard as u64),
        )
    }

    /// The ring position a query routes to, as an index into `self.ring`.
    fn ring_index(&self, query: &str) -> usize {
        let h = fnv1a(Engine::<B>::cache_key(query).as_bytes());
        let idx = self.ring.partition_point(|&(p, _)| p < h);
        if idx == self.ring.len() {
            0
        } else {
            idx
        }
    }

    /// The sticky home shard for `query` — pure consistent hashing, no
    /// breaker verdict. This is where the query's tree is (or will be) warm.
    pub fn shard_for_query(&self, query: &str) -> usize {
        usize::from(self.ring[self.ring_index(query)].1)
    }

    /// Where a *new* session over `query` would be placed right now: the
    /// sticky home shard unless its breaker refuses, in which case the ring
    /// is walked clockwise to the next node whose breaker admits. Falls
    /// back to the home shard when every breaker refuses (degrading in
    /// place beats bouncing between sick shards). On an unarmed tier every
    /// breaker admits, so this is the home shard.
    pub fn open_placement(&self, query: &str) -> usize {
        let start = self.ring_index(query);
        // The placement probe doubles as the breaker's clock: a sick shard
        // trips here (cold opens divert silently — the caller never sees an
        // error), and after the open period a healthy one re-earns traffic
        // through half-open probes.
        (0..self.ring.len())
            .map(|k| usize::from(self.ring[(start + k) % self.ring.len()].1))
            .find(|&shard| matches!(self.breaker_admit(shard), BreakerDecision::Admit))
            .unwrap_or(usize::from(self.ring[start].1))
    }

    /// Opens a session on the placement shard for `query`.
    /// Typed failures are the shard engine's ([`Engine::open_session`]).
    pub fn open_session(&self, query: &str) -> Result<ShardSessionId, EngineError> {
        let shard = self.open_placement(query);
        let local = self.shards[shard].open_session(query)?;
        Ok(ShardSessionId::wrap(shard, local))
    }

    /// Re-parks exported session state on `query`'s placement shard (the
    /// §VII resume path, sharded). Typed refusals are the shard engine's
    /// ([`Engine::restore_session`]): `DeadlineExceeded` when the deadline
    /// expired on arrival, `UnknownQuery` and `StateMismatch`.
    pub fn restore_session(
        &self,
        query: &str,
        state: SessionState,
    ) -> Result<ShardSessionId, EngineError> {
        let shard = self.open_placement(query);
        let local = self.shards[shard].restore_session(query, state)?;
        Ok(ShardSessionId::wrap(shard, local))
    }

    /// The shard an id routes to, or a typed refusal for forged ids whose
    /// shard field is out of range.
    fn route_id(&self, id: ShardSessionId) -> Result<&Engine<B>, EngineError> {
        self.shards
            .get(id.shard())
            .ok_or(EngineError::UnknownSession(id.local_id()))
    }

    /// EXPAND on a parked session; routes by the id's shard field alone
    /// (sticky — a breaker never moves an existing session). On an armed
    /// tier, a sticky EXPAND into an open breaker fast-fails with
    /// a typed [`EngineError::BreakerOpen`] carrying a retry-after hint —
    /// queueing work behind a sick shard is how overload spreads. CLOSE
    /// and [`ShardedEngine::with_session`] bypass the breaker on purpose:
    /// a draining shard must stay drainable.
    pub fn expand(&self, id: ShardSessionId, node: NavNodeId) -> Result<ExpandReply, EngineError> {
        let engine = self.route_id(id)?;
        if let BreakerDecision::Reject { retry_after_ns } = self.breaker_admit(id.shard()) {
            // Record the refusal as a first-class flight entry: the
            // recorder may have no scope yet (REPL/direct callers), so
            // mint one; the proto tier's outer scope stays outermost.
            let _scope = flightrec::ensure_scope(Verb::Expand);
            flightrec::note_shard(id.shard());
            flightrec::note_shed(flightrec::SHED_BREAKER);
            let err = EngineError::BreakerOpen {
                shard: id.shard(),
                retry_after_ns,
            };
            flightrec::note_error(err.flight_code());
            return Err(err);
        }
        engine.expand(id.local_id(), node)
    }

    /// Runs `f` against the parked session, like [`Engine::with_session`].
    pub fn with_session<R>(
        &self,
        id: ShardSessionId,
        f: impl FnOnce(&mut Session<SharedTree>) -> R,
    ) -> Option<R> {
        self.shards.get(id.shard())?.with_session(id.local_id(), f)
    }

    /// The raw query a parked session was opened with.
    pub fn session_query(&self, id: ShardSessionId) -> Option<String> {
        self.shards.get(id.shard())?.session_query(id.local_id())
    }

    /// Closes a session on its shard, returning exported state.
    pub fn close_session(&self, id: ShardSessionId) -> Result<SessionState, EngineError> {
        self.route_id(id)?.close_session(id.local_id())
    }

    /// Replays one script in a fresh session on `query`'s placement shard.
    pub fn run_script(
        &self,
        query: &str,
        script: &[ScriptOp],
    ) -> Result<ScriptOutcome, EngineError> {
        let shard = self.open_placement(query);
        self.shards[shard].run_script(query, script)
    }

    /// Replays `jobs` across the tier with `workers` total worker threads:
    /// jobs partition by their query's placement shard, the worker budget
    /// splits as evenly as possible over the shards that drew work (every
    /// busy shard gets ≥ 1), and each shard replays its slice on its own
    /// engine concurrently. Results come back in `jobs` order, exactly
    /// like [`Engine::replay`].
    pub fn replay(
        &self,
        jobs: &[(String, Vec<ScriptOp>)],
        workers: usize,
    ) -> Vec<Result<ScriptOutcome, EngineError>> {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, (query, _)) in jobs.iter().enumerate() {
            per_shard[self.open_placement(query)].push(j);
        }
        let busy: Vec<usize> = (0..n).filter(|&s| !per_shard[s].is_empty()).collect();
        if busy.is_empty() {
            return Vec::new();
        }
        // Even split of the total budget over busy shards, remainder to
        // the first ranks, floor 1 — fixed *total* parallelism, so a
        // shard-count sweep at constant `workers` measures the tier, not
        // extra threads.
        let workers = workers.max(1);
        let base = workers / busy.len();
        let extra = workers % busy.len();
        let mut results: Vec<Option<Result<ScriptOutcome, EngineError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let shard_outs: Vec<(usize, Vec<Result<ScriptOutcome, EngineError>>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = busy
                    .iter()
                    .enumerate()
                    .map(|(rank, &s)| {
                        let slice: Vec<(String, Vec<ScriptOp>)> =
                            per_shard[s].iter().map(|&j| jobs[j].clone()).collect();
                        let w = (base + usize::from(rank < extra)).max(1);
                        let engine = &self.shards[s];
                        scope.spawn(move || (s, engine.replay(&slice, w)))
                    })
                    .collect();
                handles
                    .into_iter()
                    // lint: allow(no-unwrap) — a shard replay thread can
                    // only die if Engine::replay itself panicked, which
                    // the pool's isolation contract rules out; propagate
                    // loudly rather than invent a typed error for it.
                    .map(|h| h.join().expect("shard replay thread panicked"))
                    .collect()
            });
        for (s, outs) in shard_outs {
            for (&j, out) in per_shard[s].iter().zip(outs) {
                results[j] = Some(out);
            }
        }
        results
            .into_iter()
            // lint: allow(no-unwrap) — the partition above assigns every
            // job index to exactly one shard slice, so every slot is
            // filled; a hole is a router bug worth a loud abort.
            .map(|r| r.expect("every job was assigned to exactly one shard"))
            .collect()
    }

    /// One shard's fault-plane health signals (lock-free).
    pub fn shard_health(&self, shard: usize) -> HealthCounters {
        self.shards[shard].health()
    }

    /// One shard's raw telemetry snapshot, with the tier-owned breaker
    /// fields filled in (the member engine can't see its breaker).
    fn shard_snapshot(&self, shard: usize) -> Snapshot {
        Snapshot {
            breaker_rejects: self.breakers[shard].rejects(),
            breaker_state: self.breakers[shard].state() as u64,
            ..self.shards[shard].snapshot()
        }
    }

    /// One shard's telemetry report.
    pub fn shard_stats(&self, shard: usize) -> ServeStats {
        self.shard_snapshot(shard).stats()
    }

    /// Tier-wide report: every shard's snapshot folded by
    /// [`Snapshot::merge`] (counters sum, histograms merge exactly, the
    /// widest window and the worst breaker state win), derived once.
    pub fn stats(&self) -> ServeStats {
        let mut merged = self.shard_snapshot(0);
        for shard in 1..self.shards.len() {
            merged.merge(&self.shard_snapshot(shard));
        }
        merged.stats()
    }

    /// Prometheus exposition with one `shard="i"`-labeled series set per
    /// shard under a single set of `# HELP`/`# TYPE` headers; cross-shard
    /// aggregation is the scraper's `sum by`/`histogram_quantile` job.
    pub fn prometheus_text(&self) -> String {
        let views: Vec<(String, Snapshot)> = (0..self.shards.len())
            .map(|shard| (format!("shard=\"{shard}\""), self.shard_snapshot(shard)))
            .collect();
        trace::export::prometheus_text(&views)
    }

    /// Resets every shard's telemetry window ([`Engine::reset_stats`]).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.reset_stats();
        }
    }

    /// Resets one shard's telemetry window.
    pub fn reset_shard_stats(&self, shard: usize) {
        self.shards[shard].reset_stats();
    }
}

// The whole point of the tier: it must be shareable across serving
// threads. (Engine<B> is Send + Sync for any valid B; the ring and seed
// are plain immutable data.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedEngine<fn(&str) -> Option<SharedTree>>>();
    assert_send_sync::<ShardSessionId>();
};

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use crate::navtree::NavigationTree;
    use bionav_medline::corpus::{self, CorpusConfig};
    use bionav_medline::InvertedIndex;
    use bionav_mesh::synth::{self, sanitizer_scaled, SynthConfig};
    use std::sync::Arc;

    /// A sharded fixture over one shared synthetic corpus: every shard's
    /// builder resolves queries against the same hierarchy/index, so any
    /// placement decision yields identical trees (what real shards over
    /// one database see). Returns result-bearing query labels alongside.
    fn fixture(
        n_shards: usize,
    ) -> (
        ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
        Vec<String>,
    ) {
        let h =
            Arc::new(synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap());
        let store = Arc::new(corpus::generate(
            &h,
            &CorpusConfig {
                n_citations: sanitizer_scaled(400, 64),
                ..CorpusConfig::default()
            },
        ));
        let index = Arc::new(InvertedIndex::build(&store));
        let labels: Vec<String> = {
            let mut seen = Vec::new();
            for n in h.iter_preorder().skip(1) {
                let label = h.node(n).label().to_string();
                if !index.query(&label).citations.is_empty() && !seen.contains(&label) {
                    seen.push(label);
                }
                if seen.len() == 8 {
                    break;
                }
            }
            seen
        };
        assert!(
            labels.len() >= 4,
            "fixture needs several result-bearing labels"
        );
        let sharded = ShardedEngine::new(n_shards, |_| {
            let h = Arc::clone(&h);
            let store = Arc::clone(&store);
            let index = Arc::clone(&index);
            Engine::new(
                move |query: &str| {
                    let results = index.query(query).citations;
                    if results.is_empty() {
                        return None;
                    }
                    Some(Arc::new(NavigationTree::build(&h, &store, &results)))
                },
                CostParams::default(),
                4,
            )
        });
        (sharded, labels)
    }

    #[test]
    fn session_ids_pack_and_route() {
        let id = ShardSessionId::wrap(7, SessionId::from_raw(123_456));
        assert_eq!(id.shard(), 7);
        let bits = id.to_bits();
        assert_eq!(ShardSessionId::from_bits(bits), id);
        assert_eq!(bits >> 48, 7);
        assert_eq!(bits & ((1 << 48) - 1), 123_456);
        // Display pairs shard and local id for logs.
        assert_eq!(id.to_string(), "7:123456");
    }

    #[test]
    fn session_id_bits_round_trip_at_the_field_boundaries() {
        // The packing is a bijection on u64 (16 shard bits + 48 local
        // bits, no spare): every boundary pattern must survive a
        // from_bits → to_bits round trip unchanged.
        for bits in [
            0u64,
            1,
            LOCAL_MASK,                        // max local, shard 0
            LOCAL_MASK + 1,                    // local 0, shard 1
            u64::from(u16::MAX) << LOCAL_BITS, // max shard, local 0
            u64::MAX,                          // max shard, max local
        ] {
            let id = ShardSessionId::from_bits(bits);
            assert_eq!(id.to_bits(), bits, "{bits:#x}");
        }
        // Field extraction at the top corner.
        let corner = ShardSessionId::from_bits(u64::MAX);
        assert_eq!(corner.shard(), usize::from(u16::MAX));
        assert_eq!(corner.local_id().to_raw(), LOCAL_MASK);
        // wrap at the 48-bit local boundary: the largest representable
        // local id packs and unpacks exactly.
        let edge = ShardSessionId::wrap(usize::from(u16::MAX), SessionId::from_raw(LOCAL_MASK));
        assert_eq!(edge.to_bits(), u64::MAX);
        assert_eq!(ShardSessionId::from_bits(edge.to_bits()), edge);
    }

    #[test]
    fn forged_ids_are_typed_refusals_on_every_entry_point() {
        let (sharded, labels) = fixture(2);
        let query = &labels[0];

        // A genuine session, exported and re-parked through the §VII
        // resume path: the restored id must be live...
        let id = sharded.open_session(query).unwrap();
        let state = sharded.close_session(id).unwrap();
        let restored = sharded.restore_session(query, state).unwrap();
        assert!(sharded.expand(restored, NavNodeId::ROOT).is_ok());

        // ...while the same id with its shard field forged out of range
        // (u16::MAX on a 2-shard tier — what a hostile or stale wire
        // client would send) is refused with a typed error on every
        // session entry point, never a panic or a misroute.
        let forged_bits = (u64::from(u16::MAX) << LOCAL_BITS) | (restored.to_bits() & LOCAL_MASK);
        let forged = ShardSessionId::from_bits(forged_bits);
        assert_eq!(forged.to_bits(), forged_bits, "forgery survives packing");
        assert!(matches!(
            sharded.expand(forged, NavNodeId::ROOT),
            Err(EngineError::UnknownSession(_))
        ));
        assert!(matches!(
            sharded.close_session(forged),
            Err(EngineError::UnknownSession(_))
        ));
        assert!(sharded.with_session(forged, |_| ()).is_none());
        assert!(sharded.session_query(forged).is_none());

        // An in-range shard with an unknown 48-bit-boundary local id is
        // the shard engine's typed refusal, same contract.
        let stale = ShardSessionId::from_bits((restored.to_bits() & !LOCAL_MASK) | LOCAL_MASK);
        assert!(matches!(
            sharded.expand(stale, NavNodeId::ROOT),
            Err(EngineError::UnknownSession(_))
        ));

        // The genuine restored session is untouched by the refusals.
        assert!(sharded.close_session(restored).is_ok());
    }

    #[test]
    fn routing_is_sticky_and_normalization_invariant() {
        let (sharded, labels) = fixture(4);
        for label in &labels {
            let home = sharded.shard_for_query(label);
            // Same query, shouted and padded: same shard (the ring hashes
            // the engine's normalized cache key).
            let shouted = format!("  {}  ", label.to_uppercase());
            assert_eq!(sharded.shard_for_query(&shouted), home);
            // Stable across calls.
            assert_eq!(sharded.shard_for_query(label), home);
            // On an unarmed tier, placement IS the sticky home shard.
            assert_eq!(sharded.open_placement(label), home);
        }
    }

    #[test]
    fn ring_spreads_keys_across_shards() {
        let (sharded, _) = fixture(4);
        // Synthetic key population: the ring must not collapse onto a
        // proper subset of shards.
        let mut seen = [false; 4];
        for i in 0..256 {
            seen[sharded.shard_for_query(&format!("query term {i}"))] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all shards own ring keyspace: {seen:?}"
        );
    }

    #[test]
    fn sessions_open_expand_close_on_their_shard() {
        let (sharded, labels) = fixture(3);
        let query = &labels[0];
        let id = sharded.open_session(query).unwrap();
        assert_eq!(id.shard(), sharded.shard_for_query(query));
        let reply = sharded.expand(id, NavNodeId::ROOT).unwrap();
        assert!(!reply.revealed.is_empty());
        assert_eq!(sharded.session_query(id).as_deref(), Some(query.as_str()));
        let cost = sharded.with_session(id, |s| s.cost().clone()).unwrap();
        assert_eq!(cost.expands, 1);
        // Only the owning shard saw the session.
        for s in 0..sharded.shard_count() {
            let expected = u64::from(s == id.shard());
            assert_eq!(
                sharded.shard_stats(s).sessions_opened,
                expected,
                "shard {s}"
            );
        }
        let state = sharded.close_session(id).unwrap();
        assert_eq!(state.cost.expands, 1);
        assert!(matches!(
            sharded.close_session(id),
            Err(EngineError::UnknownSession(_))
        ));
        // A forged id with an out-of-range shard is a typed refusal, not a
        // panic.
        let forged = ShardSessionId::from_bits(u64::MAX);
        assert!(matches!(
            sharded.expand(forged, NavNodeId::ROOT),
            Err(EngineError::UnknownSession(_))
        ));
        assert!(sharded.with_session(forged, |_| ()).is_none());
    }

    #[test]
    fn sharded_costs_match_single_engine_bit_for_bit() {
        let (sharded, labels) = fixture(4);
        let (single, _) = fixture(1);
        for label in &labels {
            let script = [ScriptOp::ExpandFully];
            let a = sharded.run_script(label, &script).unwrap();
            let b = single.run_script(label, &script).unwrap();
            assert_eq!(a.cost.expands, b.cost.expands, "{label}");
            assert_eq!(
                a.cost.interaction_cost(),
                b.cost.interaction_cost(),
                "{label}"
            );
            assert_eq!(a.cost.total_cost(), b.cost.total_cost(), "{label}");
        }
    }

    #[test]
    fn replay_preserves_job_order_and_drains_all_shards() {
        let (sharded, labels) = fixture(4);
        let jobs: Vec<(String, Vec<ScriptOp>)> = (0..3)
            .flat_map(|_| {
                labels
                    .iter()
                    .map(|l| (l.clone(), vec![ScriptOp::ExpandFully]))
            })
            .collect();
        let outs = sharded.replay(&jobs, 4);
        assert_eq!(outs.len(), jobs.len());
        for (i, out) in outs.iter().enumerate() {
            let o = out.as_ref().expect("job completed");
            assert_eq!(o.query, jobs[i].0, "results come back in job order");
        }
        let merged = sharded.stats();
        assert_eq!(merged.sessions_opened, jobs.len() as u64);
        assert_eq!(merged.sessions_closed, jobs.len() as u64);
        assert_eq!(merged.sessions_active, 0);
        // The merge really is a sum of the per-shard snapshots.
        let by_shard: u64 = (0..sharded.shard_count())
            .map(|s| sharded.shard_stats(s).sessions_opened)
            .sum();
        assert_eq!(by_shard, merged.sessions_opened);
    }

    #[test]
    fn merged_stats_aggregate_counters_and_histograms() {
        let (sharded, labels) = fixture(2);
        for label in &labels {
            sharded.run_script(label, &[ScriptOp::ExpandFully]).unwrap();
        }
        let merged = sharded.stats();
        let a = sharded.shard_stats(0);
        let b = sharded.shard_stats(1);
        assert_eq!(merged.cache_misses, a.cache_misses + b.cache_misses);
        assert_eq!(merged.expand_count, a.expand_count + b.expand_count);
        assert!(merged.expand_count > 0);
        assert!(merged.expand_p99_us >= merged.expand_p50_us);
        assert_eq!(merged.cache_capacity, a.cache_capacity + b.cache_capacity);
        // Merged stage stats cover at least the expand/open stages, and
        // each merged stage count is the sum of the shard counts.
        let count_of = |st: &ServeStats, name: &str| {
            st.stages
                .iter()
                .find(|s| s.stage == name)
                .map_or(0, |s| s.count)
        };
        for stage in ["expand", "open_session", "solve"] {
            assert_eq!(
                count_of(&merged, stage),
                count_of(&a, stage) + count_of(&b, stage),
                "stage {stage}"
            );
        }
        // Tier reset clears every shard's window.
        sharded.reset_stats();
        assert_eq!(sharded.stats().expand_count, 0);
        assert_eq!(sharded.shard_stats(0).sessions_opened, 0);
        assert_eq!(sharded.shard_stats(1).sessions_opened, 0);
    }

    #[test]
    fn prometheus_exposition_labels_every_shard_once() {
        let (sharded, labels) = fixture(2);
        sharded
            .run_script(&labels[0], &[ScriptOp::ExpandFully])
            .unwrap();
        let prom = sharded.prometheus_text();
        for shard in 0..2 {
            assert!(
                prom.contains(&format!(
                    "bionav_sessions_opened_total{{shard=\"{shard}\"}}"
                )),
                "missing shard label {shard}"
            );
            assert!(prom.contains(&format!(
                "bionav_stage_latency_seconds_count{{shard=\"{shard}\",stage=\"solve\"}}"
            )));
        }
        // Headers appear exactly once despite two labeled series sets.
        let type_lines = prom
            .lines()
            .filter(|l| *l == "# TYPE bionav_sessions_opened_total counter")
            .count();
        assert_eq!(type_lines, 1);
    }

    /// An unarmed 2-shard fixture where exactly one shard degrades every
    /// EXPAND (exact budget floored to 1 node forces the myopic rung) — the
    /// policy-driven way to make one shard sick without the fault
    /// registry, which lib tests must not arm (see the NOTE below).
    fn degrading_fixture() -> (
        ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
        Vec<String>,
        usize,
    ) {
        let (probe, labels) = fixture(2);
        let sick = probe.shard_for_query(&labels[0]);
        drop(probe);
        let h =
            Arc::new(synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap());
        let store = Arc::new(corpus::generate(
            &h,
            &CorpusConfig {
                n_citations: sanitizer_scaled(400, 64),
                ..CorpusConfig::default()
            },
        ));
        let index = Arc::new(InvertedIndex::build(&store));
        let sharded = ShardedEngine::new(2, |i| {
            let h = Arc::clone(&h);
            let store = Arc::clone(&store);
            let index = Arc::clone(&index);
            let engine = Engine::new(
                move |query: &str| {
                    let results = index.query(query).citations;
                    if results.is_empty() {
                        return None;
                    }
                    Some(Arc::new(NavigationTree::build(&h, &store, &results)))
                },
                CostParams::default(),
                4,
            );
            if i == sick {
                engine.with_policy(crate::engine::DegradePolicy {
                    exact_node_budget: 1,
                    ..crate::engine::DegradePolicy::default()
                })
            } else {
                engine
            }
        });
        (sharded, labels, sick)
    }

    #[test]
    fn golden_ring_routing_and_probe_delays_are_stable() {
        // The ring layout and the probe schedule are documented to stay put
        // across releases (restarts keep each shard's warm cache; chaos
        // drills replay per seed). These values are the frozen layout.
        let sharded = ShardedEngine::new(4, |_| {
            Engine::new(|_: &str| None, crate::cost::CostParams::default(), 1)
        });
        for (query, shard) in [
            ("follistatin", 2),
            ("cell death", 1),
            ("Apoptosis  ", 2),
            ("query term 0", 3),
            ("insulin", 3),
            ("mesh", 0),
            ("éclair", 1),
            ("", 2),
        ] {
            assert_eq!(sharded.shard_for_query(query), shard, "{query:?}");
        }
        assert_eq!(crate::breaker::probe_delay_ns(7, 1), 206_571_130);
        assert_eq!(crate::breaker::probe_delay_ns(42, 3), 240_735_999);
        // The canonical first SplitMix64 output for state 0.
        assert_eq!(crate::mix(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn breaker_trips_diverts_fast_fails_and_recovers() {
        let (sharded, labels, sick) = degrading_fixture();
        let sharded = sharded.with_breakers(42);
        let well = 1 - sick;
        let query = &labels[0];
        assert_eq!(sharded.shard_for_query(query), sick);

        // Healthy shard: placement is sticky, breaker closed.
        assert_eq!(sharded.open_placement(query), sick);
        assert_eq!(sharded.breaker_state(sick), BreakerState::Closed);

        // Park a session and degrade one EXPAND on the sick shard.
        let parked = sharded.open_session(query).unwrap();
        assert_eq!(parked.shard(), sick);
        let reply = sharded.expand(parked, NavNodeId::ROOT).unwrap();
        assert!(reply.degraded.is_some(), "budget-1 shard must degrade");

        // The next placement probe sees the unhealthy delta, trips the
        // breaker, and diverts the cold open to the well shard.
        assert_eq!(sharded.open_placement(query), well);
        assert_eq!(sharded.breaker_state(sick), BreakerState::Open);
        assert_eq!(sharded.breaker(sick).trips(), 1);
        let diverted = sharded.open_session(query).unwrap();
        assert_eq!(diverted.shard(), well);
        sharded.close_session(diverted).unwrap();

        // Sticky EXPANDs into the open breaker fast-fail typed, with a
        // live retry hint — and never touch the shard engine.
        let before = sharded.shard_stats(sick).expand_count;
        match sharded.expand(parked, NavNodeId::ROOT) {
            Err(EngineError::BreakerOpen {
                shard,
                retry_after_ns,
            }) => {
                assert_eq!(shard, sick);
                assert!(retry_after_ns >= 1);
            }
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
        assert_eq!(sharded.shard_stats(sick).expand_count, before);
        assert!(sharded.shard_stats(sick).breaker_rejects >= 1);
        assert_eq!(sharded.shard_stats(sick).breaker_state, 1);

        // CLOSE bypasses the breaker: a sick shard stays drainable.
        sharded.close_session(parked).unwrap();

        // Recovery: the fault stops feeding counters (window reset → the
        // delta vs. the trip baseline is zero), the probe delay passes,
        // and three healthy probes re-close the breaker — placement snaps
        // back to the sticky home shard.
        sharded.reset_shard_stats(sick);
        // Past the worst-case probe delay (OPEN_NS + 25 % jitter).
        std::thread::sleep(std::time::Duration::from_millis(260));
        for _ in 0..crate::breaker::PROBES_TO_CLOSE {
            assert_eq!(sharded.open_placement(query), sick);
        }
        assert_eq!(sharded.breaker_state(sick), BreakerState::Closed);
        assert_eq!(sharded.open_placement(query), sick);

        // The tier-wide merge surfaces the breaker plane.
        let merged = sharded.stats();
        assert!(merged.breaker_rejects >= 1);
        assert_eq!(merged.breaker_state, 0, "recovered tier reads closed");
        assert!(merged.admission_limit >= 2, "both shards' gates sum");
    }

    #[test]
    fn unarmed_tier_keeps_home_placement_and_never_fast_fails() {
        let (sharded, labels, sick) = degrading_fixture();
        let query = &labels[0];
        for _ in 0..3 {
            let id = sharded.open_session(query).unwrap();
            assert_eq!(id.shard(), sick, "home placement");
            let reply = sharded.expand(id, NavNodeId::ROOT).unwrap();
            assert!(reply.degraded.is_some(), "budget-1 shard must degrade");
            sharded.close_session(id).unwrap();
        }
        assert_eq!(sharded.shard_health(sick).degraded_expands, 3);
        assert_eq!(sharded.open_placement(query), sick);
        assert_eq!(sharded.breaker_state(sick), BreakerState::Closed);
        assert_eq!(sharded.breaker(sick).trips(), 0);
        assert_eq!(sharded.shard_stats(sick).breaker_rejects, 0);
    }

    // NOTE: the fault-registry-arming reroute drill (quarantine shard 0 →
    // new opens walk the ring to shard 1) lives in `tests/chaos.rs`, where
    // the whole binary serializes on the registry mutex. Lib tests run on
    // parallel threads, and even a shard-scoped plan would leak injected
    // faults into the *other shard tests* here.
}
