//! Chaos suite for the fault-injection harness and the graceful-degradation
//! ladder (DESIGN.md §5f).
//!
//! Every test that *arms* the process-global failpoint registry lives here,
//! serialized behind [`CHAOS_LOCK`] — the lib test binary never arms, so
//! its parallel tests can't be contaminated. The suite asserts the three
//! contracts the issue names:
//!
//! 1. **No panic escapes**: injected panics at any site become typed
//!    [`EngineError`]s; sessions drain; gauges balance.
//! 2. **Bit-identical clean path**: when no degradation fired (including
//!    under forced cut-cache misses), per-query costs and reveals are
//!    identical to the exact pipeline.
//! 3. **The ladder is monotone and valid**: every degraded answer is a real
//!    EdgeCut accepted by the active tree — exported state round-trips
//!    through [`Engine::restore_session`]'s `fits` validation.
//!
//! The schedule seed comes from `BIONAV_CHAOS_SEED` (CI runs 7, 1009,
//! 424242); the fired set is a pure function of the seed, so a failing
//! seed reproduces locally with the same env var.

#![cfg(not(interleave))]

mod common;

use std::sync::{Mutex, MutexGuard, Once};

use bionav_core::fault::{self, FailSite, Fault, FaultPlan, INJECTED_PANIC_PREFIX};
use bionav_core::session::SessionState;
use bionav_core::trace::flightrec;
use bionav_core::{
    BreakerState, CostParams, DegradePolicy, DegradeReason, Engine, EngineError, NavNodeId,
    RequestCtx, ShardedEngine, SharedTree, Verb,
};
use serde::{Deserialize, Serialize, Value};

use common::{expand_fully, fixture_engine_with, multi_node_queries, on_threads};

/// Serializes the whole suite: the failpoint registry is process-global, so
/// two armed tests (or an armed test racing an unarmed engine test in this
/// binary) would cross-contaminate schedules and counters.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    // A poisoned lock only means an earlier chaos test failed its assert;
    // the registry is re-armed per test, so continuing is sound.
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The seed under test; CI sweeps `BIONAV_CHAOS_SEED` over 7, 1009, 424242.
fn chaos_seed() -> u64 {
    std::env::var("BIONAV_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

/// Injected panics are expected noise here: filter their reports so the
/// test output stays readable, while every *unexpected* panic still prints
/// through the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// The shared engine fixture (the engine unit tests' recipe), caching up
/// to 8 trees.
fn fixture_engine() -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
    fixture_engine_with(CostParams::default(), 8)
}

// ---------------------------------------------------------------------------
// Registry mechanics (moved here from fault.rs unit tests: these arm)
// ---------------------------------------------------------------------------

#[test]
fn armed_schedule_is_deterministic_per_seed() {
    let _serial = chaos_lock();
    let schedule = |seed: u64| -> Vec<bool> {
        let _g = fault::scoped(FaultPlan::new(seed).site(FailSite::SolverEntry, 3, Fault::Error));
        (0..200)
            .map(|_| fault::hit(FailSite::SolverEntry).is_some())
            .collect()
    };
    let a = schedule(chaos_seed());
    let b = schedule(chaos_seed());
    let c = schedule(chaos_seed().wrapping_add(1));
    assert_eq!(a, b, "same seed, same schedule");
    assert_ne!(a, c, "different seed, different schedule");
    let fired = a.iter().filter(|&&f| f).count();
    assert!(
        (20..=120).contains(&fired),
        "period 3 fires roughly a third of 200 evaluations, got {fired}"
    );
}

#[test]
fn period_one_fires_every_time_and_limits_cap_fires() {
    let _serial = chaos_lock();
    let _g = fault::scoped(FaultPlan::new(chaos_seed()).site_limited(
        FailSite::TreeBuild,
        1,
        Fault::Panic,
        3,
    ));
    let fired: Vec<Option<Fault>> = (0..6).map(|_| fault::hit(FailSite::TreeBuild)).collect();
    assert_eq!(
        fired,
        vec![
            Some(Fault::Panic),
            Some(Fault::Panic),
            Some(Fault::Panic),
            None,
            None,
            None
        ]
    );
    assert_eq!(fault::fires(FailSite::TreeBuild), 3);
    assert_eq!(fault::hits_seen(FailSite::TreeBuild), 6);
    // Sites not named in the plan stay silent.
    assert_eq!(fault::hit(FailSite::SessionLock), None);
}

#[test]
fn scoped_guard_disarms_on_drop() {
    let _serial = chaos_lock();
    {
        let _g = fault::scoped(FaultPlan::new(chaos_seed()).site(
            FailSite::SessionLock,
            1,
            Fault::Error,
        ));
        assert!(fault::is_armed());
        assert_eq!(fault::hit(FailSite::SessionLock), Some(Fault::Error));
    }
    assert!(!fault::is_armed());
    assert_eq!(fault::hit(FailSite::SessionLock), None);
}

// ---------------------------------------------------------------------------
// Contract 1: no panic escapes; accounting balances under a panic storm
// ---------------------------------------------------------------------------

#[test]
fn panic_storm_fails_jobs_typed_and_drains_every_session() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let engine = fixture_engine();
    let queries = multi_node_queries(&engine, 3, 3);
    let jobs: Vec<String> = (0..4).flat_map(|_| queries.iter().cloned()).collect();

    // Unarmed reference pass: the ground-truth per-query costs.
    let reference: Vec<_> = jobs
        .iter()
        .map(|q| expand_fully(&engine, q).expect("unarmed navigation completes every job"))
        .collect();

    // Storm pass: every third solver entry dies. The fired *set* is fixed
    // by the seed; which job absorbs each fire races across threads.
    let plan = FaultPlan::new(chaos_seed()).site(FailSite::SolverEntry, 3, Fault::Panic);
    let (outcomes, fires, hits) = {
        let _armed = fault::scoped(plan);
        let outcomes = on_threads(&jobs, |q| expand_fully(&engine, q));
        (
            outcomes,
            fault::fires(FailSite::SolverEntry),
            fault::hits_seen(FailSite::SolverEntry),
        )
    };

    let mut panicked_jobs = 0u64;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(o) => {
                // A job that survived the storm untouched is bit-identical
                // to the reference (no degradation fired on this path —
                // SolverEntry panics kill, they never degrade).
                let expected = &reference[i];
                assert_eq!(o.cost, expected.cost, "job {i}: cost diverged");
                assert_eq!(o.degraded, 0);
            }
            Err(EngineError::SessionPanicked { message, .. }) => {
                assert!(
                    message.starts_with(INJECTED_PANIC_PREFIX),
                    "job {i}: unexpected panic payload {message:?}"
                );
                panicked_jobs += 1;
            }
            Err(other) => panic!("job {i}: unexpected typed error {other}"),
        }
    }

    // Accounting: every fire killed exactly one EXPAND, which killed
    // exactly one job, which was quarantined once and then drained by
    // the navigation's error path.
    assert_eq!(panicked_jobs, fires, "typed errors must match fired faults");
    if hits >= 32 {
        assert!(
            fires > 0,
            "period-3 storm over {hits} evaluations fired nothing"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.session_panics, fires);
    assert_eq!(stats.sessions_active, 0, "every session drained");
    assert_eq!(
        stats.sessions_quarantined, 0,
        "every quarantined session was closed by the drain path"
    );
    assert_eq!(stats.sessions_opened, stats.sessions_closed);
}

#[test]
fn injected_panic_quarantines_only_its_session() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let engine = fixture_engine();
    let query = &multi_node_queries(&engine, 1, 3)[0];
    let healthy = engine.open_session(query).unwrap();
    let doomed = engine.open_session(query).unwrap();

    let plan = FaultPlan::new(chaos_seed()).site_limited(FailSite::SolverEntry, 1, Fault::Panic, 1);
    let err = {
        let _armed = fault::scoped(plan);
        engine.expand(doomed, NavNodeId::ROOT).unwrap_err()
    };
    match err {
        EngineError::SessionPanicked { id, ref message } => {
            assert_eq!(id, doomed);
            assert!(
                message.starts_with(INJECTED_PANIC_PREFIX),
                "unexpected payload: {message}"
            );
        }
        other => panic!("expected SessionPanicked, got {other:?}"),
    }

    // The poisoned session refuses further work with a typed error…
    assert!(matches!(
        engine.expand(doomed, NavNodeId::ROOT),
        Err(EngineError::Quarantined(_))
    ));
    let stats = engine.stats();
    assert_eq!(stats.session_panics, 1);
    assert_eq!(stats.sessions_quarantined, 1);

    // …while its neighbor keeps serving the exact pipeline.
    let reply = engine.expand(healthy, NavNodeId::ROOT).unwrap();
    assert_eq!(reply.degraded, None);

    // close_session drains the quarantined slot and releases the gauge.
    engine.close_session(doomed).unwrap();
    assert_eq!(engine.stats().sessions_quarantined, 0);
    engine.close_session(healthy).unwrap();
}

#[test]
fn tree_build_faults_surface_as_typed_errors_then_recover() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let engine = fixture_engine();
    let queries = multi_node_queries(&engine, 2, 3);

    // Separate engine so the tree cache holds nothing yet.
    let fresh = fixture_engine();
    {
        let _armed =
            fault::scoped(FaultPlan::new(chaos_seed()).site(FailSite::TreeBuild, 1, Fault::Error));
        assert!(matches!(
            fresh.open_session(&queries[0]),
            Err(EngineError::TreeBuildFailed(_))
        ));
    }
    {
        let _armed =
            fault::scoped(FaultPlan::new(chaos_seed()).site(FailSite::TreeBuild, 1, Fault::Panic));
        // A *panicking* builder is caught by the isolation layer and comes
        // back as the same typed error, payload attached.
        match fresh.open_session(&queries[1]) {
            Err(EngineError::TreeBuildFailed(msg)) => {
                assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "payload: {msg}");
            }
            other => panic!("expected TreeBuildFailed, got {other:?}"),
        }
    }
    // Disarmed, both queries build and serve normally.
    let id = fresh.open_session(&queries[0]).unwrap();
    assert!(!fresh
        .expand(id, NavNodeId::ROOT)
        .unwrap()
        .revealed
        .is_empty());
    fresh.close_session(id).unwrap();
    let _ = engine;
}

/// Every failpoint is reachable from the open/expand/close serving path:
/// armed alone at period 1 over one cold navigation, each site fires and
/// the request comes back typed, as a failed tree build or as a panicked,
/// quarantined (and then drained) session. A site that no session can
/// reach fails here.
#[test]
fn every_failpoint_fires_from_the_serving_path() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let query = multi_node_queries(&fixture_engine(), 1, 3).remove(0);
    for site in FailSite::ALL {
        // A fresh engine per site, so the open builds its tree cold.
        let engine = fixture_engine();
        let outcome = {
            let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site(site, 1, Fault::Panic));
            let outcome = expand_fully(&engine, &query);
            assert!(fault::fires(site) > 0, "{}: never fired", site.name());
            outcome
        };
        let stats = engine.stats();
        match outcome {
            Err(EngineError::TreeBuildFailed(message)) => {
                assert!(message.contains(site.name()), "payload: {message}");
                assert_eq!(stats.sessions_opened, 0);
            }
            Err(EngineError::SessionPanicked { message, .. }) => {
                assert!(message.contains(site.name()), "payload: {message}");
                assert_eq!(stats.session_panics, 1, "{}: one quarantine", site.name());
            }
            Err(other) => panic!("{}: unexpected typed error {other}", site.name()),
            Ok(_) => panic!("{}: a period-1 panic left the request whole", site.name()),
        }
        assert_eq!(stats.sessions_active, 0, "{}: session leaked", site.name());
        assert_eq!(stats.sessions_quarantined, 0);
    }
}

#[test]
fn materialize_panic_quarantines_then_retries_bit_identical() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let engine = fixture_engine();
    let query = multi_node_queries(&engine, 1, 3)[0].clone();

    // Unarmed reference pass on a separate engine (so the engine under
    // test still plans its first EXPAND fresh, with an empty cut cache).
    let reference = expand_fully(&fixture_engine(), &query)
        .expect("unarmed navigation completes")
        .cost;

    // open_session runs no planner fold, so the failpoint must not fire
    // yet — the first fold is the EXPAND's reduced-problem build below.
    let doomed = {
        let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site_limited(
            FailSite::TreeMaterialize,
            1,
            Fault::Panic,
            1,
        ));
        let doomed = engine.open_session(&query).unwrap();
        assert_eq!(
            fault::fires(FailSite::TreeMaterialize),
            0,
            "open_session must not materialize"
        );
        match engine.expand(doomed, NavNodeId::ROOT).unwrap_err() {
            EngineError::SessionPanicked { id, ref message } => {
                assert_eq!(id, doomed);
                assert!(
                    message.starts_with(INJECTED_PANIC_PREFIX)
                        && message.contains("tree_materialize"),
                    "unexpected payload: {message}"
                );
            }
            other => panic!("expected SessionPanicked, got {other:?}"),
        }
        assert_eq!(fault::fires(FailSite::TreeMaterialize), 1);
        doomed
    };
    assert_eq!(engine.stats().sessions_quarantined, 1);
    engine.close_session(doomed).unwrap();

    // Recovery on the SAME cached tree: the fold writes only sets the
    // panicking call owned, and the tree itself is immutable, so the next
    // EXPAND folds anew and the cost is bit-identical to the
    // reference.
    let outcome = expand_fully(&engine, &query).expect("recovery navigation");
    assert_eq!(outcome.cost, reference, "post-fault cost diverged");
    assert_eq!(outcome.degraded, 0);
}

#[test]
fn session_lock_fault_is_transient_and_never_quarantines() {
    let _serial = chaos_lock();
    let engine = fixture_engine();
    let query = &multi_node_queries(&engine, 1, 3)[0];
    let id = engine.open_session(query).unwrap();
    {
        let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site(
            FailSite::SessionLock,
            1,
            Fault::Error,
        ));
        assert!(matches!(
            engine.expand(id, NavNodeId::ROOT),
            Err(EngineError::SessionBusy(_))
        ));
    }
    // Transient by contract: the retry (disarmed) serves exactly.
    let reply = engine.expand(id, NavNodeId::ROOT).unwrap();
    assert_eq!(reply.degraded, None);
    assert_eq!(engine.stats().sessions_quarantined, 0);
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Contract 2: bit-identical costs when no degradation fired
// ---------------------------------------------------------------------------

#[test]
fn forced_cut_cache_misses_recompute_bit_identical_cuts() {
    let _serial = chaos_lock();
    let engine = fixture_engine();
    let queries = multi_node_queries(&engine, 3, 3);
    let jobs: Vec<String> = (0..3).flat_map(|_| queries.iter().cloned()).collect();

    let clean: Vec<_> = on_threads(&jobs, |q| expand_fully(&engine, q))
        .into_iter()
        .map(|r| r.expect("clean navigation completes"))
        .collect();

    // Every cut-cache probe refuses (a forced miss): each EXPAND re-solves
    // from scratch. The solver is deterministic, so costs and reveal
    // orders must be *bit-identical* — and nothing counts as degraded,
    // because the exact planner still answered.
    let faulted: Vec<_> = {
        let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site(
            FailSite::CutCacheProbe,
            1,
            Fault::Error,
        ));
        on_threads(&jobs, |q| expand_fully(&engine, q))
            .into_iter()
            .map(|r| r.expect("forced-miss navigation completes"))
            .collect()
    };
    for (i, (a, b)) in clean.iter().zip(&faulted).enumerate() {
        assert_eq!(a.cost, b.cost, "job {i}: forced miss changed the cost");
        assert_eq!(
            a.cost.expands, b.cost.expands,
            "job {i}: forced miss changed the EXPAND count"
        );
        assert_eq!(b.degraded, 0, "a recompute is not a degradation");
    }
    assert_eq!(engine.stats().degraded_expands, 0);
}

// ---------------------------------------------------------------------------
// Contract 3: the ladder degrades monotonically into *valid* cuts
// ---------------------------------------------------------------------------

#[test]
fn fault_degradation_yields_valid_restorable_state() {
    let _serial = chaos_lock();
    let engine = fixture_engine();
    let query = &multi_node_queries(&engine, 1, 3)[0];
    let id = engine.open_session(query).unwrap();

    // A non-panic solver-entry fault drops EXPAND onto the ladder; with no
    // retained plans the static rung answers.
    let reply = {
        let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site(
            FailSite::SolverEntry,
            1,
            Fault::Deadline,
        ));
        engine.expand(id, NavNodeId::ROOT).unwrap()
    };
    assert_eq!(reply.degraded, Some(DegradeReason::Fault));
    assert!(!reply.revealed.is_empty());
    let stats = engine.stats();
    assert_eq!(stats.degraded_expands, 1);
    assert_eq!(stats.degraded_static, 1);

    // Validity, the strong form: the degraded cut went through the active
    // tree like any exact cut, so the exported state passes the `fits`
    // connectivity validation and restores into a serving session.
    let state: SessionState = engine.close_session(id).unwrap();
    let restored = engine
        .restore_session(query, state)
        .expect("degraded state restores");
    let next = engine.expand(restored, NavNodeId::ROOT);
    match next {
        Ok(r) => assert_eq!(r.degraded, None, "disarmed engine serves exactly"),
        Err(EngineError::Cut(_)) => {} // root may already be fully expanded
        Err(other) => panic!("restored session must serve: {other}"),
    }
    engine.close_session(restored).unwrap();
}

#[test]
fn myopic_rung_serves_from_retained_plans() {
    let _serial = chaos_lock();
    // reuse_plans retains solver memos in the session; the myopic rung can
    // then answer a degraded EXPAND from the retained plan instead of
    // falling all the way to the static cut.
    let mut engine = fixture_engine_with(
        CostParams {
            reuse_plans: true,
            ..CostParams::default()
        },
        8,
    );
    let query = &multi_node_queries(&engine, 1, 5)[0];
    let id = engine.open_session(query).unwrap();
    // Exact first EXPAND retains the children's plans…
    let first = engine.expand(id, NavNodeId::ROOT).unwrap();
    assert_eq!(first.degraded, None);
    // …then every further EXPAND is forced onto the ladder by policy.
    engine.set_policy(DegradePolicy {
        exact_node_budget: 1,
        ..DegradePolicy::default()
    });
    let target = engine
        .with_session(id, |s| {
            s.nav()
                .iter_preorder()
                .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1)
        })
        .unwrap();
    if let Some(node) = target {
        let reply = engine.expand(id, node).unwrap();
        assert_eq!(reply.degraded, Some(DegradeReason::StepBudget));
        assert!(!reply.revealed.is_empty());
        let stats = engine.stats();
        assert_eq!(stats.degraded_expands, 1);
        assert!(
            stats.degraded_myopic == 1 || stats.degraded_static == 1,
            "one ladder rung answered: {stats:?}"
        );
        // With a retained plan for this node the memo rung specifically
        // must have answered.
        assert_eq!(
            stats.degraded_myopic, 1,
            "retained plan feeds the myopic rung"
        );
    }
    engine.close_session(id).unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: stale / corrupt SessionState is refused, never a panic
// ---------------------------------------------------------------------------

#[test]
fn stale_or_foreign_session_state_is_refused_typed() {
    let _serial = chaos_lock();
    let engine = fixture_engine();
    let queries = multi_node_queries(&engine, 2, 3);
    // Only meaningful when the two queries build different-shaped trees.
    let len0 = engine.tree_for(&queries[0]).unwrap().len();
    let len1 = engine.tree_for(&queries[1]).unwrap().len();

    let id = engine.open_session(&queries[0]).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let state = engine.close_session(id).unwrap();

    if len0 != len1 {
        // Foreign tree: the state was exported over queries[0]'s tree.
        assert!(matches!(
            engine.restore_session(&queries[1], state.clone()),
            Err(EngineError::StateMismatch)
        ));
    }
    // Unknown query still reports the query problem, not a state problem.
    assert!(matches!(
        engine.restore_session("zzz-no-such-term-zzz", state.clone()),
        Err(EngineError::UnknownQuery(_))
    ));
    // The untampered state still restores.
    let ok = engine.restore_session(&queries[0], state).unwrap();
    engine.close_session(ok).unwrap();
}

#[test]
fn json_tampered_session_state_with_out_of_range_ids_is_refused() {
    let _serial = chaos_lock();
    let engine = fixture_engine();
    let query = &multi_node_queries(&engine, 1, 3)[0];
    let id = engine.open_session(query).unwrap();
    engine.expand(id, NavNodeId::ROOT).unwrap();
    let state = engine.close_session(id).unwrap();

    // Round-trip the persisted document and corrupt the component map: an
    // out-of-range node id (as a hostile or stale save file would carry).
    // The vendored serde framework is Value-tree based, so tampering edits
    // the tree directly instead of going through a `json!` macro.
    let mut doc = state.to_value();
    {
        fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
            match v {
                Value::Object(entries) => entries
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, val)| val),
                _ => None,
            }
        }
        let comp_root = field_mut(&mut doc, "active")
            .and_then(|a| field_mut(a, "comp_root"))
            .expect("persisted state exposes active.comp_root");
        match comp_root {
            Value::Array(ids) => {
                assert!(!ids.is_empty());
                ids[0] = Value::U64(9_999_999);
            }
            other => panic!("active.comp_root should be an array, got {other:?}"),
        }
    }
    let corrupt =
        SessionState::from_value(&doc).expect("tampered doc still parses as SessionState");

    // The engine refuses with the typed error — no panic, no session leak.
    assert!(matches!(
        engine.restore_session(query, corrupt),
        Err(EngineError::StateMismatch)
    ));
    assert_eq!(engine.stats().sessions_active, 0);
}

// ---------------------------------------------------------------------------
// Admission gate accounting under real concurrency
// ---------------------------------------------------------------------------

#[test]
fn admission_gate_accounting_balances_under_concurrency() {
    let _serial = chaos_lock();
    let engine = fixture_engine().with_policy(DegradePolicy {
        max_inflight_expands: 1,
        ..DegradePolicy::default()
    });
    let query = &multi_node_queries(&engine, 1, 3)[0];
    let sessions: Vec<_> = (0..4)
        .map(|_| engine.open_session(query).unwrap())
        .collect();

    // Four threads hammer EXPAND through a one-slot gate. Whether any
    // request is actually shed is scheduling-dependent (never asserted);
    // what must hold is the books: served + shed == attempted, and the
    // engine's shed counter matches the callers' observations.
    let (served, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|&id| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut served = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..8 {
                        match engine.expand(id, NavNodeId::ROOT) {
                            Ok(_) | Err(EngineError::Cut(_)) => served += 1,
                            Err(EngineError::Overloaded) => shed += 1,
                            Err(other) => panic!("unexpected refusal: {other}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate worker panicked"))
            .fold((0u64, 0u64), |(s, d), (a, b)| (s + a, d + b))
    });
    assert_eq!(served + shed, 32, "every attempt accounted for");
    let stats = engine.stats();
    assert_eq!(stats.shed_expands, shed, "engine agrees with the callers");
    assert_eq!(stats.degraded_expands, 0, "shedding is not degradation");
    for id in sessions {
        engine.close_session(id).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Sharded tier: per-shard fault scoping (DESIGN.md §5h)
// ---------------------------------------------------------------------------

/// A sharded fixture tier: `n` independent copies of the fixture engine
/// behind the consistent-hash router (each tagged with its shard index at
/// construction, which is what `FaultPlan::only_shard` filters on).
fn fixture_sharded(n: usize) -> ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
    ShardedEngine::new(n, |_| fixture_engine())
}

/// [`expand_fully`] on the shard the tier places `query` on.
fn navigate_tier(
    tier: &ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
    query: &str,
) -> Result<common::Navigated, EngineError> {
    expand_fully(tier.engine(tier.open_placement(query)), query)
}

/// Fixture queries partitioned by their sticky home shard on a 2-shard
/// ring; both sides must be populated (the ring layout is deterministic,
/// so this is a property of the fixture, not of the run).
fn queries_by_home_shard(
    sharded: &ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
    want: usize,
) -> [Vec<String>; 2] {
    let queries = multi_node_queries(sharded.engine(0), want, 3);
    let mut homes: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for q in queries {
        let home = sharded.shard_for_query(&q);
        homes[home].push(q);
    }
    assert!(
        !homes[0].is_empty() && !homes[1].is_empty(),
        "fixture queries must cover both shards: {homes:?}"
    );
    homes
}

/// A panic storm armed with `only_shard(0)` on a two-shard tier: every
/// typed failure lands on a job homed on shard 0, shard 1's outcomes are
/// *bit-identical* to an unarmed pass of the same job tape, shard 1's
/// health counters never move, and both shards drain fully — the blast
/// radius of a shard-scoped fault is exactly one shard.
#[test]
fn shard_scoped_panic_storm_quarantines_only_shard_zero() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let reference_tier = fixture_sharded(2);
    let homes = queries_by_home_shard(&reference_tier, 4);
    let jobs: Vec<String> = (0..3)
        .flat_map(|_| homes.iter().flatten().cloned())
        .collect();
    let home_of: Vec<usize> = jobs
        .iter()
        .map(|q| reference_tier.shard_for_query(q))
        .collect();

    // Unarmed reference pass on its own tier: ground truth per job.
    let reference: Vec<_> = on_threads(&jobs, |q| navigate_tier(&reference_tier, q))
        .into_iter()
        .map(|r| r.expect("unarmed navigation completes every job"))
        .collect();

    // Storm pass: every solver entry on shard 0 dies; shard 1 is outside
    // the plan's scope and must not notice the storm at all.
    let storm_tier = fixture_sharded(2);
    let plan = FaultPlan::new(chaos_seed())
        .site(FailSite::SolverEntry, 1, Fault::Panic)
        .only_shard(0);
    let (outcomes, fires) = {
        let _armed = fault::scoped(plan);
        let outcomes = on_threads(&jobs, |q| navigate_tier(&storm_tier, q));
        (outcomes, fault::fires(FailSite::SolverEntry))
    };

    let mut panicked_jobs = 0u64;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(o) => {
                assert_eq!(
                    o.cost, reference[i].cost,
                    "job {i} (shard {}): survived jobs must be bit-identical",
                    home_of[i]
                );
                assert_eq!(o.degraded, 0);
            }
            Err(EngineError::SessionPanicked { message, .. }) => {
                assert_eq!(
                    home_of[i], 0,
                    "job {i}: a shard-0-scoped storm killed a shard-{} job",
                    home_of[i]
                );
                assert!(
                    message.starts_with(INJECTED_PANIC_PREFIX),
                    "job {i}: unexpected panic payload {message:?}"
                );
                panicked_jobs += 1;
            }
            Err(other) => panic!("job {i}: unexpected typed error {other}"),
        }
    }
    assert!(panicked_jobs > 0, "period-1 storm on shard 0 fired nothing");
    assert_eq!(panicked_jobs, fires, "typed errors must match fired faults");

    // Shard 1 never saw a fault; shard 0 absorbed every one of them.
    let h1 = storm_tier.shard_health(1);
    assert_eq!(h1.session_panics, 0, "the storm leaked across shards");
    assert_eq!(h1.sessions_quarantined, 0);
    assert_eq!(h1.degraded_expands, 0);
    assert_eq!(storm_tier.shard_health(0).session_panics, fires);
    // And the whole tier drained: the navigation's error path closes what
    // it kills.
    let merged = storm_tier.stats();
    assert_eq!(merged.sessions_active, 0);
    assert_eq!(merged.sessions_quarantined, 0);
    assert_eq!(merged.sessions_opened, merged.sessions_closed);
}

/// The quarantine drill: a shard-0-scoped panic quarantines a session,
/// and the next placement probe trips shard 0's breaker — new cold opens
/// for shard-0-homed queries divert to shard 1 (and serve cleanly there
/// even while the shard-0 storm is still armed), sticky EXPANDs into the
/// open breaker fail typed with `BreakerOpen`, CLOSE still drains the
/// poisoned session on shard 0, and once the probe delay elapses the
/// drained shard re-earns its home placement.
#[test]
fn quarantine_trips_the_breaker_diverts_opens_and_recovers() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    let sharded = fixture_sharded(2).with_breakers(chaos_seed());
    let homes = queries_by_home_shard(&sharded, 4);
    let on_zero = homes[0][0].clone();

    let doomed = sharded.open_session(&on_zero).expect("healthy tier opens");
    assert_eq!(doomed.shard(), 0, "healthy tier: sticky home placement");

    let plan = FaultPlan::new(11)
        .site(FailSite::SolverEntry, 1, Fault::Panic)
        .only_shard(0);
    let _armed = fault::scoped(plan);
    match sharded.expand(doomed, NavNodeId::ROOT) {
        Err(EngineError::SessionPanicked { .. }) => {}
        other => panic!("expected SessionPanicked on shard 0, got {other:?}"),
    }
    assert_eq!(sharded.shard_health(0).sessions_quarantined, 1);

    // The quarantine trips shard 0's breaker and moves *new* opens off it…
    assert_eq!(sharded.open_placement(&on_zero), 1);
    assert_eq!(sharded.breaker_state(0), BreakerState::Open);
    assert_eq!(sharded.breaker(1).trips(), 0);
    let rerouted = sharded.open_session(&on_zero).expect("reroute opens");
    assert_eq!(rerouted.shard(), 1, "cold open must divert to shard 1");
    // …where it serves exactly, even with the shard-0 storm still armed
    // (the shard filter keeps shard 1 outside the blast radius).
    let reply = sharded
        .expand(rerouted, NavNodeId::ROOT)
        .expect("rerouted session serves on the healthy shard");
    assert_eq!(reply.degraded, None);
    sharded.close_session(rerouted).expect("rerouted drains");

    // Stickiness: the poisoned session still routes to shard 0, where the
    // open breaker refuses its EXPAND typed…
    match sharded.expand(doomed, NavNodeId::ROOT) {
        Err(EngineError::BreakerOpen {
            shard,
            retry_after_ns,
        }) => {
            assert_eq!(shard, 0);
            assert!(retry_after_ns >= 1, "retry hint must be live");
        }
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    // …and CLOSE bypasses the breaker, draining the quarantined slot.
    sharded.close_session(doomed).expect("quarantined drains");
    assert_eq!(sharded.shard_health(0).sessions_quarantined, 0);

    // Past the worst-case probe delay (OPEN_NS + 25 % jitter) the drained
    // shard's counters sit at the trip baseline: healthy probes re-close
    // the breaker and placement returns to the home shard.
    std::thread::sleep(std::time::Duration::from_millis(260));
    for _ in 0..bionav_core::breaker::PROBES_TO_CLOSE {
        assert_eq!(sharded.open_placement(&on_zero), 0);
    }
    assert_eq!(sharded.breaker_state(0), BreakerState::Closed);
    assert_eq!(sharded.open_placement(&on_zero), 0, "placement returned");
    let merged = sharded.stats();
    assert_eq!(merged.sessions_active, 0);
    assert_eq!(merged.sessions_opened, merged.sessions_closed);
}

// ---------------------------------------------------------------------------
// Circuit breaker: the shard-scoped slow-shard drill (DESIGN.md §5k)
// ---------------------------------------------------------------------------

/// The slow-shard drill: a shard-0-scoped Deadline storm at the solver
/// entry degrades every shard-0 EXPAND onto the ladder, which trips
/// *only* shard 0's breaker. While the storm is still armed, shard-1-homed
/// jobs navigate bit-identical to an unarmed reference tier and shard 1's
/// health counters never move; sticky EXPANDs into the open breaker
/// fast-fail typed with a live retry hint without touching the shard
/// engine; and once the storm lifts, the jittered probe schedule re-closes
/// the breaker and placement snaps back to the home shard.
#[test]
fn slow_shard_storm_trips_only_its_own_breaker_and_recovers() {
    let _serial = chaos_lock();
    let sharded = fixture_sharded(2).with_breakers(chaos_seed());
    let homes = queries_by_home_shard(&sharded, 4);
    let on_zero = homes[0][0].clone();

    // Ground truth for the healthy shard: an unarmed reference tier
    // navigates the shard-1-homed job tape.
    let well_jobs = &homes[1];
    let reference_tier = fixture_sharded(2);
    let reference: Vec<_> = on_threads(well_jobs, |q| navigate_tier(&reference_tier, q))
        .into_iter()
        .map(|r| r.expect("unarmed navigation completes every job"))
        .collect();

    let parked = sharded.open_session(&on_zero).unwrap();
    assert_eq!(parked.shard(), 0, "sticky home placement before the storm");

    let armed = fault::scoped(
        FaultPlan::new(chaos_seed())
            .site(FailSite::SolverEntry, 1, Fault::Deadline)
            .only_shard(0),
    );

    // The slow shard *degrades* (the ladder answers); it does not error.
    let reply = sharded.expand(parked, NavNodeId::ROOT).unwrap();
    assert_eq!(reply.degraded, Some(DegradeReason::Fault));
    assert!(!reply.revealed.is_empty());

    // The next placement probe sees the degrade delta and trips only the
    // faulted shard's breaker; cold opens divert to the well shard.
    assert_eq!(sharded.open_placement(&on_zero), 1);
    assert_eq!(sharded.breaker_state(0), BreakerState::Open);
    assert_eq!(sharded.breaker(0).trips(), 1);
    assert_eq!(sharded.breaker_state(1), BreakerState::Closed);
    assert_eq!(sharded.breaker(1).trips(), 0);

    // Sticky EXPANDs into the open breaker fast-fail typed with a live
    // retry hint — and never reach the shard engine. (Checked right after
    // the trip, well inside the 200 ms open period; the slower navigation
    // drill below would otherwise outlast the probe delay.)
    let before = sharded.shard_stats(0).expand_count;
    match sharded.expand(parked, NavNodeId::ROOT) {
        Err(EngineError::BreakerOpen {
            shard,
            retry_after_ns,
        }) => {
            assert_eq!(shard, 0);
            assert!(retry_after_ns >= 1, "retry hint must be live");
        }
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    assert_eq!(sharded.shard_stats(0).expand_count, before);
    assert!(sharded.shard_stats(0).breaker_rejects >= 1);

    // Blast radius: with the storm still armed, the well shard serves the
    // whole tape bit-identical to the unarmed reference, and its health
    // counters never move.
    let stormy: Vec<_> = on_threads(well_jobs, |q| navigate_tier(&sharded, q))
        .into_iter()
        .map(|r| r.expect("well-shard navigation completes under the storm"))
        .collect();
    for (i, (a, b)) in reference.iter().zip(&stormy).enumerate() {
        assert_eq!(a.cost, b.cost, "well job {i}: cost diverged");
        assert_eq!(b.degraded, 0, "well job {i}: degraded");
    }
    assert_eq!(
        sharded.shard_health(1).degraded_expands,
        0,
        "the storm leaked across shards"
    );

    // CLOSE bypasses the breaker: the sick shard stays drainable.
    sharded.close_session(parked).unwrap();

    // The storm lifts; stale counters reset; past the worst-case probe
    // delay (OPEN_NS + 25 % jitter), PROBES_TO_CLOSE healthy probes
    // re-close the breaker and placement snaps back to the home shard.
    drop(armed);
    sharded.reset_shard_stats(0);
    std::thread::sleep(std::time::Duration::from_millis(260));
    for _ in 0..bionav_core::breaker::PROBES_TO_CLOSE {
        assert_eq!(sharded.open_placement(&on_zero), 0);
    }
    assert_eq!(sharded.breaker_state(0), BreakerState::Closed);
    assert_eq!(
        sharded.open_placement(&on_zero),
        0,
        "placement snapped back"
    );
    let merged = sharded.stats();
    assert_eq!(merged.sessions_active, 0);
    assert_eq!(merged.sessions_opened, merged.sessions_closed);
}

// ---------------------------------------------------------------------------
// Flight recorder: black-box capture of faulted requests (DESIGN.md §5j)
// ---------------------------------------------------------------------------

/// The acceptance drill for the request-context plane: an EXPAND carrying
/// a wire-style request context hits an armed failpoint, and the flight
/// recorder must end up holding exactly one entry naming the request id,
/// the owning shard, the fired fault site, and the degradation rung that
/// answered — the black-box record an operator reads after the fact.
#[test]
fn armed_failpoint_lands_in_the_flight_recorder_with_full_attribution() {
    let _serial = chaos_lock();
    let sharded = fixture_sharded(2);
    let homes = queries_by_home_shard(&sharded, 4);
    // A shard-1-homed query, so the shard attribution below can't pass by
    // accident of a zero default.
    let query = homes[1][0].clone();
    let id = sharded.open_session(&query).unwrap();
    assert_eq!(id.shard(), 1, "fixture query is homed on shard 1");

    let rid = 0xBEEF_0001u64;
    {
        let _armed = fault::scoped(FaultPlan::new(chaos_seed()).site(
            FailSite::SolverEntry,
            1,
            Fault::Deadline,
        ));
        let ctx = RequestCtx {
            request_id: rid,
            session: Some(id.to_bits()),
            deadline_ns: 0,
        };
        let _scope = flightrec::request_scope(ctx, Verb::Expand);
        let reply = sharded.expand(id, NavNodeId::ROOT).unwrap();
        assert_eq!(reply.degraded, Some(DegradeReason::Fault));
    }
    sharded.close_session(id).unwrap();

    let entries: Vec<_> = flightrec::flight_snapshot()
        .into_iter()
        .filter(|e| e.request_id == rid)
        .collect();
    assert_eq!(
        entries.len(),
        1,
        "exactly one summary for the faulted request"
    );
    let e = &entries[0];
    assert_eq!(e.verb, Verb::Expand);
    assert_eq!(e.shard, Some(1), "the owning shard is named");
    assert_eq!(
        e.fault_site_name(),
        "solver_entry",
        "the fired fault site is named"
    );
    assert_eq!(e.rung_name(), "static", "the answering rung is named");
    assert_eq!(
        e.error, 0,
        "the ladder absorbed the fault; no error escaped"
    );
    assert!(e.total_ns > 0, "the request accrued wall time");
    // The JSON export carries the same attribution (what the wire `DEBUG`
    // verb and the CI smoke step consume).
    let json = flightrec::entries_json(&entries);
    assert!(json.contains("\"fault_site\":\"solver_entry\""), "{json}");
    assert!(json.contains("\"rung\":\"static\""), "{json}");
}
