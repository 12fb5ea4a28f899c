//! Deterministic, seeded failpoint registry + panic isolation
//! (DESIGN.md §5f).
//!
//! BioNav's serving engine must answer every EXPAND, fast, even when a
//! solver hits a pathological component or a worker thread dies. This
//! module provides the two primitives the fault-tolerance layer is built
//! on:
//!
//! 1. **Failpoints** — named injection sites ([`FailSite`]) threaded
//!    through the serve path (solver entry, cut-cache probe, tree build,
//!    the planner's citation-set fold, session-lock acquisition). A chaos
//!    test arms a seeded
//!    [`FaultPlan`]; each site then fires a [`Fault`] on a deterministic
//!    pseudo-random schedule. **Disarmed (the production default), a
//!    failpoint costs exactly one relaxed atomic load** — the same
//!    discipline as the [`trace`](crate::trace) span sites, and covered by
//!    the same CI overhead gate (`scripts/perf_gate.sh`).
//! 2. **Panic isolation** — [`isolate`] is the *only* place in first-party
//!    code where `catch_unwind` appears (enforced by clippy's
//!    `disallowed_methods` list in `clippy.toml`). The engine's tree build
//!    and EXPAND path run potentially-panicking work through it, convert
//!    escaped panics into typed errors, and quarantine the affected
//!    session instead of taking the process down.
//!
//! Determinism contract: whether the *n*-th evaluation of a site fires is
//! a pure function of `(plan seed, site, n)`. Under concurrency the
//! assignment of ordinals to threads is scheduling-dependent, but the
//! fired *set* — and therefore the fault counts a chaos run observes — is
//! fixed by the seed.
//!
//! Under `--cfg interleave` the registry compiles to no-ops ([`hit`]
//! returns `None`, [`isolate`] runs its closure directly) so the
//! interleave models keep their schedule space focused on the lock
//! protocols; quarantine bookkeeping is modeled through a dedicated engine
//! hook instead.

// The registry globals are deliberately *plain std atomics*, not the
// `crate::sync` interleave shim: modeling them would multiply every engine
// schedule by the (advisory) arm state without testing any protocol.
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named failpoint site in the serve path.
///
/// Discriminants index the registry's per-site state and feed each site's
/// coin, so renumbering a site changes which evaluations of a seeded plan
/// fire (period-1 plans fire every evaluation regardless). Every site must
/// be reachable from the open/expand/close serving path: the chaos suite
/// arms each one in turn and requires it to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FailSite {
    /// Entry of the EXPAND planning pipeline (before partition + solve).
    SolverEntry = 0,
    /// The cross-session [`CutCache`](crate::session::CutCache) probe.
    CutCacheProbe = 1,
    /// Navigation-tree construction on a tree-cache miss.
    TreeBuild = 2,
    /// Per-session lock acquisition inside `Engine::expand`.
    SessionLock = 3,
    /// The citation-set fold EXPAND's planner runs over the partitions of
    /// a fresh component, in `heuristic::reduced_problem` (DESIGN.md §5g).
    /// The fold has no error channel, so any armed fault here fires as an
    /// injected panic inside the caller's [`isolate`] region. The name is
    /// kept from the lazy bitset payload the fold replaced.
    TreeMaterialize = 4,
}

impl FailSite {
    /// Number of sites (length of [`FailSite::ALL`]).
    pub const COUNT: usize = 5;

    /// Every site, indexed by discriminant.
    pub const ALL: [FailSite; FailSite::COUNT] = [
        FailSite::SolverEntry,
        FailSite::CutCacheProbe,
        FailSite::TreeBuild,
        FailSite::SessionLock,
        FailSite::TreeMaterialize,
    ];

    /// Stable snake_case name (docs, panic messages, failpoint catalog).
    pub fn name(self) -> &'static str {
        match self {
            FailSite::SolverEntry => "solver_entry",
            FailSite::CutCacheProbe => "cut_cache_probe",
            FailSite::TreeBuild => "tree_build",
            FailSite::SessionLock => "session_lock",
            FailSite::TreeMaterialize => "tree_materialize",
        }
    }
}

/// What an armed failpoint does when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (caught by [`isolate`]; the session is
    /// quarantined, or a tree build reports `TreeBuildFailed`).
    Panic,
    /// Fail the site with a typed error (e.g. a refused probe or a
    /// `SessionBusy`); the caller takes its error path.
    Error,
    /// Pretend the site's deadline budget is already exhausted; EXPAND
    /// callers drop onto the degradation ladder.
    Deadline,
}

impl Fault {
    fn encode(self) -> u64 {
        match self {
            Fault::Panic => 0,
            Fault::Error => 1,
            Fault::Deadline => 2,
        }
    }

    // Under `--cfg interleave` the armed fast path is compiled out, so the
    // decoder has no caller there.
    #[cfg_attr(interleave, allow(dead_code))]
    fn decode(v: u64) -> Fault {
        match v {
            0 => Fault::Panic,
            1 => Fault::Error,
            _ => Fault::Deadline,
        }
    }
}

/// One site's schedule inside a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SitePlan {
    /// Fire roughly every `period`-th evaluation (pseudo-randomly, seeded);
    /// `0` disables the site. `1` fires on every evaluation.
    pub period: u64,
    /// What firing does.
    pub action: Fault,
    /// Stop firing after this many fires; `0` means unbounded.
    pub limit: u64,
}

impl SitePlan {
    const OFF: SitePlan = SitePlan {
        period: 0,
        action: Fault::Error,
        limit: 0,
    };
}

/// A seeded schedule over every [`FailSite`]; arm it with [`arm`] or
/// [`scoped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixing into every site's firing schedule.
    pub seed: u64,
    sites: [SitePlan; FailSite::COUNT],
    /// Encoded shard filter: 0 = fire on every shard, `s + 1` = fire only
    /// on operations running under [`enter_shard`]`(s)`.
    shard_filter: u64,
}

impl FaultPlan {
    /// A plan with every site disabled (arm it and nothing fires).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: [SitePlan::OFF; FailSite::COUNT],
            shard_filter: 0,
        }
    }

    /// Restrict every armed site to operations scoped to `shard` (see
    /// [`enter_shard`]): evaluations on other shards — or outside any
    /// shard scope — are invisible to the schedule, so the fired set on
    /// the targeted shard is unchanged by traffic elsewhere. This is how
    /// the chaos suite storms one shard of a
    /// [`ShardedEngine`](crate::shard::ShardedEngine) while proving its
    /// siblings stay bit-identical to a clean pass.
    pub fn only_shard(mut self, shard: usize) -> Self {
        self.shard_filter = shard as u64 + 1;
        self
    }

    /// Enable `site` to fire `action` roughly every `period`-th evaluation
    /// (builder style).
    pub fn site(mut self, site: FailSite, period: u64, action: Fault) -> Self {
        self.sites[site as usize] = SitePlan {
            period,
            action,
            limit: 0,
        };
        self
    }

    /// Like [`FaultPlan::site`], but stop after `limit` fires.
    pub fn site_limited(mut self, site: FailSite, period: u64, action: Fault, limit: u64) -> Self {
        self.sites[site as usize] = SitePlan {
            period,
            action,
            limit,
        };
        self
    }
}

// ---------------------------------------------------------------------------
// Registry state
// ---------------------------------------------------------------------------

/// Master switch: 0 = disarmed (the single relaxed load every failpoint
/// costs in production), nonzero = armed.
static ARMED: AtomicU64 = AtomicU64::new(0);

/// The armed plan's seed.
static SEED: AtomicU64 = AtomicU64::new(0);

// A const *initializer* (not a shared item): each use below expands to a
// fresh atomic, which is exactly what the per-site arrays need.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// Per-site `period` (0 = site disabled).
static SITE_PERIOD: [AtomicU64; FailSite::COUNT] = [ZERO; FailSite::COUNT];
/// Per-site encoded [`Fault`] action.
static SITE_ACTION: [AtomicU64; FailSite::COUNT] = [ZERO; FailSite::COUNT];
/// Per-site fire cap (0 = unbounded).
static SITE_LIMIT: [AtomicU64; FailSite::COUNT] = [ZERO; FailSite::COUNT];
/// Per-site evaluation ordinal since the last [`arm`].
static SITE_HITS: [AtomicU64; FailSite::COUNT] = [ZERO; FailSite::COUNT];
/// Per-site fire count since the last [`arm`].
static SITE_FIRES: [AtomicU64; FailSite::COUNT] = [ZERO; FailSite::COUNT];
/// Armed plan's encoded shard filter (see [`FaultPlan::only_shard`]).
static SHARD_FILTER: AtomicU64 = AtomicU64::new(0);

/// Sentinel for "not inside any shard scope".
const UNSCOPED: u64 = u64::MAX;

thread_local! {
    // Which shard the current thread's in-flight engine operation belongs
    // to. A plain thread-local Cell (not the interleave shim): scope
    // tagging is advisory fault-plane routing, never a synchronization
    // protocol.
    static CURRENT_SHARD: Cell<u64> = const { Cell::new(UNSCOPED) };
}

/// RAII guard returned by [`enter_shard`]; restores the previous scope on
/// drop (scopes nest, and panic unwinding through an [`isolate`] region
/// still restores the outer scope).
pub struct ShardScope {
    prev: u64,
}

impl Drop for ShardScope {
    fn drop(&mut self) {
        CURRENT_SHARD.with(|c| c.set(self.prev));
    }
}

/// Tag the current thread's in-flight work as belonging to `shard` until
/// the returned guard drops. [`ShardedEngine`](crate::shard::ShardedEngine)
/// shards tag every public engine operation so a
/// [`FaultPlan::only_shard`]-scoped plan can storm one shard in isolation.
#[must_use = "the scope ends when the guard drops"]
pub fn enter_shard(shard: usize) -> ShardScope {
    let prev = CURRENT_SHARD.with(|c| c.replace(shard as u64));
    ShardScope { prev }
}

/// The shard the current thread's in-flight operation is scoped to, if any.
pub fn current_shard() -> Option<usize> {
    let s = CURRENT_SHARD.with(|c| c.get());
    (s != UNSCOPED).then_some(s as usize)
}

/// Arm the registry with `plan`. Counters reset; sites observe the new
/// schedule on their next evaluation. Chaos tests serialize around the
/// registry (it is process-global); see `tests/chaos.rs`.
pub fn arm(plan: FaultPlan) {
    // Ordering: Relaxed throughout — the registry is advisory test
    // machinery; no data is published through it, and racing evaluations
    // may see the old or new plan, both of which are valid schedules.
    SEED.store(plan.seed, Ordering::Relaxed);
    for site in FailSite::ALL {
        let i = site as usize;
        let sp = plan.sites[i];
        // Ordering: Relaxed — see the comment on `arm` above.
        SITE_PERIOD[i].store(sp.period, Ordering::Relaxed);
        SITE_ACTION[i].store(sp.action.encode(), Ordering::Relaxed);
        SITE_LIMIT[i].store(sp.limit, Ordering::Relaxed);
        // Ordering: Relaxed — counter resets under the same advisory plan.
        SITE_HITS[i].store(0, Ordering::Relaxed);
        SITE_FIRES[i].store(0, Ordering::Relaxed);
    }
    // Ordering: Relaxed — advisory plan field, same contract as the rest.
    SHARD_FILTER.store(plan.shard_filter, Ordering::Relaxed);
    // Ordering: Relaxed — the master switch is advisory (see above); it is
    // stored last so a site that sees it armed finds a complete-enough
    // plan (any interleaving yields a valid schedule).
    ARMED.store(1, Ordering::Relaxed);
}

/// Disarm the registry; every failpoint returns to its one-relaxed-load
/// fast path. Fire/hit counters are preserved until the next [`arm`].
pub fn disarm() {
    // Ordering: Relaxed — advisory switch, same contract as `arm`.
    ARMED.store(0, Ordering::Relaxed);
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    // Ordering: Relaxed — advisory switch, same contract as `arm`.
    ARMED.load(Ordering::Relaxed) != 0
}

/// RAII guard returned by [`scoped`]: disarms on drop (panic-safe, so a
/// failing chaos assertion never leaves the registry armed for the next
/// test).
pub struct ArmGuard(());

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// [`arm`] with automatic [`disarm`] when the returned guard drops.
#[must_use = "the registry disarms when the guard drops"]
pub fn scoped(plan: FaultPlan) -> ArmGuard {
    arm(plan);
    ArmGuard(())
}

/// How many times `site` has fired since the last [`arm`].
pub fn fires(site: FailSite) -> u64 {
    // Ordering: Relaxed — telemetry counter, nothing ordered through it.
    SITE_FIRES[site as usize].load(Ordering::Relaxed)
}

/// How many times `site` has been evaluated (armed) since the last [`arm`].
pub fn hits_seen(site: FailSite) -> u64 {
    // Ordering: Relaxed — telemetry counter, nothing ordered through it.
    SITE_HITS[site as usize].load(Ordering::Relaxed)
}

/// Evaluate the failpoint at `site`.
///
/// Disarmed fast path: **one relaxed atomic load**, `None`. Armed, the
/// site's evaluation ordinal is drawn and the seeded schedule decides
/// whether (and which) [`Fault`] fires. Callers translate the fault into
/// their site's failure mode; for [`Fault::Panic`] they call
/// [`injected_panic`] *inside* an [`isolate`] region.
#[cfg(not(interleave))]
pub fn hit(site: FailSite) -> Option<Fault> {
    // Ordering: Relaxed — the master switch is advisory (see `arm`); this
    // single load IS the documented disarmed cost of a failpoint site.
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    hit_armed(site)
}

/// No-op under the interleave model checker: fault schedules would blow up
/// the explored state space without exercising any lock protocol.
#[cfg(interleave)]
pub fn hit(_site: FailSite) -> Option<Fault> {
    None
}

#[cfg(not(interleave))]
fn hit_armed(site: FailSite) -> Option<Fault> {
    // Ordering: Relaxed — advisory plan field (see `arm`). A shard-scoped
    // plan makes off-shard evaluations invisible *before* the ordinal
    // draw, so the targeted shard's fired set is a pure function of
    // `(seed, site, on-shard ordinal)` regardless of sibling traffic.
    let filter = SHARD_FILTER.load(Ordering::Relaxed);
    if filter != 0 && CURRENT_SHARD.with(|c| c.get()) != filter - 1 {
        return None;
    }
    let i = site as usize;
    // Ordering: Relaxed — plan fields are advisory configuration (see
    // `arm`); any interleaving with a racing re-arm yields a valid
    // schedule.
    let period = SITE_PERIOD[i].load(Ordering::Relaxed);
    if period == 0 {
        return None;
    }
    // Ordering: Relaxed — the ordinal counter only needs per-evaluation
    // uniqueness; nothing is published through it.
    let n = SITE_HITS[i].fetch_add(1, Ordering::Relaxed);
    // Ordering: Relaxed — limit/fire reads are advisory; an off-by-one
    // race against a concurrent fire only shifts which evaluation is the
    // last to fire.
    let limit = SITE_LIMIT[i].load(Ordering::Relaxed);
    if limit != 0 && SITE_FIRES[i].load(Ordering::Relaxed) >= limit {
        return None;
    }
    let coin = crate::mix(
        SEED
            // Ordering: Relaxed — seed is advisory configuration (see `arm`).
            .load(Ordering::Relaxed)
            .wrapping_add((i as u64).wrapping_mul(0xa076_1d64_78bd_642f))
            .wrapping_add(n.wrapping_mul(0xe703_7ed1_a0b4_28db)),
    );
    if !coin.is_multiple_of(period) {
        return None;
    }
    // Ordering: Relaxed — telemetry tally (see `fires`).
    SITE_FIRES[i].fetch_add(1, Ordering::Relaxed);
    // Attribute the fire to the in-flight request's flight-recorder
    // summary (DESIGN.md §5j); a no-op when no request scope is open.
    crate::trace::flightrec::note_fault(site as u8 + 1);
    // Ordering: Relaxed — advisory configuration read (see `arm`).
    Some(Fault::decode(SITE_ACTION[i].load(Ordering::Relaxed)))
}

/// Marker prefix on every injected panic's payload, so panic hooks (and
/// humans reading chaos-test logs) can tell deliberate faults from real
/// bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Panic with a recognizable payload for a fired [`Fault::Panic`]. Callers
/// must be running inside [`isolate`]; the engine turns the caught payload
/// into a typed error and quarantines the session.
#[expect(
    clippy::panic,
    reason = "this IS the deliberate injected panic; every caller is contractually inside a fault::isolate region"
)]
pub fn injected_panic(site: FailSite) -> ! {
    panic!("{INJECTED_PANIC_PREFIX} {}", site.name())
}

/// Run `f`, converting an escaped panic into `Err(payload message)`.
///
/// This is the **only** first-party home of `catch_unwind` (clippy's
/// `disallowed_methods` rejects it everywhere else): centralizing it keeps
/// the unwind boundary auditable and forces every caller through the
/// quarantine/typed-error discipline. `AssertUnwindSafe` is sound here
/// because callers treat the closure's state as poisoned on `Err` — the
/// engine quarantines the session or discards the failed build — so no
/// broken invariant is ever observed.
#[cfg(not(interleave))]
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned unwind boundary: injected panics, quarantine accounting and the session_panics counter all flow through here"
    )]
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic payload of unknown type".to_string()
        }
    })
}

/// Under the interleave model checker panics are real test failures, not
/// modeled faults: run the closure directly so the scheduler sees them.
#[cfg(interleave)]
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    Ok(f())
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    // NOTE: tests that *arm* the process-global registry do not live here.
    // The lib test binary runs its tests on parallel threads, and an armed
    // plan would leak injected faults into unrelated engine tests running
    // concurrently. Every arming test lives in `tests/chaos.rs`, where the
    // whole binary serializes on one mutex. The tests below only exercise
    // the disarmed path and the panic-isolation helper, which are safe to
    // run concurrently with anything.

    #[test]
    fn disarmed_sites_never_fire() {
        assert!(!is_armed());
        for site in FailSite::ALL {
            for _ in 0..100 {
                assert_eq!(hit(site), None);
            }
        }
    }

    #[test]
    fn shard_scopes_nest_and_restore() {
        assert_eq!(current_shard(), None);
        {
            let _outer = enter_shard(2);
            assert_eq!(current_shard(), Some(2));
            {
                let _inner = enter_shard(5);
                assert_eq!(current_shard(), Some(5));
            }
            assert_eq!(current_shard(), Some(2));
            // Unwinding through an isolate region restores the outer scope.
            let _ = isolate(|| {
                let _deep = enter_shard(7);
                panic!("{INJECTED_PANIC_PREFIX} scope test");
            });
            assert_eq!(current_shard(), Some(2));
        }
        assert_eq!(current_shard(), None);
    }

    #[test]
    fn isolate_catches_panics_and_passes_values() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        let err = isolate(|| -> u32 { injected_panic(FailSite::TreeBuild) })
            .expect_err("injected panic must be caught");
        assert!(
            err.starts_with(INJECTED_PANIC_PREFIX),
            "payload carries the marker: {err}"
        );
        assert!(err.contains("tree_build"));
        // Non-&'static str payloads are stringified too.
        let err = isolate(|| -> u32 { panic!("formatted {}", 7) }).expect_err("caught");
        assert_eq!(err, "formatted 7");
    }
}
