//! Deterministic interleaving models for the riskiest concurrent
//! structures of the serving stack (DESIGN.md §5d/§5e):
//!
//! 1. [`bionav_core::telemetry::LatencyHistogram`] record / snapshot / reset,
//! 2. the cross-session [`CutCache`] insert / get / capacity protocol,
//! 3. the [`Engine`] park / resume session protocol (open → expand → close
//!    from concurrent workers), plus the quarantine transition (DESIGN.md
//!    §5f) racing a healthy neighbor's open / expand / close,
//! 4. the one seqlock slot protocol (`trace::ring`'s `SeqRing`, writers
//!    vs snapshot vs clear) through both of its codecs: the
//!    [`bionav_core::trace::SpanRing`], plus a seeded torn-write meta-test,
//!    and the flight recorder's [`bionav_core::trace::flightrec::FlightRing`]
//!    (wider multi-word payload) under the same writer/reader races
//!    (DESIGN.md §5e/§5j). Only the process-global rings are compiled out
//!    of this build; the request scopes the engine models of item 3 open
//!    are plain thread-local code and add no yield points,
//! 5. the [`ShardedEngine`] tier (DESIGN.md §5h): concurrent open / route /
//!    close across two shards keeps every per-shard and merged gauge
//!    balanced, and a breaker trip racing an in-flight cold open never
//!    deadlocks, strands, or misroutes a session,
//! 6. the overload plane (DESIGN.md §5k): the
//!    [`bionav_core::admission::AdmissionGate`] under racing
//!    admit / release / AIMD-adjust (books balance, limit stays in
//!    `[1, ceiling]`), and the [`bionav_core::breaker::Breaker`] under
//!    racing trip/admit verdicts and post-delay probe elections (one trip
//!    per CAS, no torn baselines, probes accumulate without lost updates).
//!
//! Compiled and run only under `RUSTFLAGS='--cfg interleave'`, which swaps
//! `bionav_core`'s sync shim onto the vendored `interleave` model checker:
//! every lock/atomic op inside the *production* code becomes a scheduler
//! yield point and the bounded-exhaustive DFS explores all interleavings up
//! to the preemption bound.
//!
//! ```text
//! RUSTFLAGS='--cfg interleave' CARGO_TARGET_DIR=target/interleave \
//!     cargo test -p bionav-core --test interleave_models -- --nocapture
//! ```
//!
//! The final test is the *meta-test* required by the analysis-toolchain
//! issue: a seeded, knowingly racy counter that the scheduler MUST flag,
//! proving the checker finds real races in this exact build configuration.

#![cfg(interleave)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use bionav_core::session::CutCache;
use bionav_core::telemetry::LatencyHistogram;
use bionav_core::{
    CostParams, EdgeCut, Engine, EngineError, NavNodeId, NavigationTree, ShardedEngine, SharedTree,
};
use bionav_medline::{Citation, CitationId, CitationStore};
use bionav_mesh::{ConceptHierarchy, Descriptor, DescriptorId, TreeNumber};
use interleave::{check, Config};

/// Run a model to completion and insist the bounded schedule tree was
/// exhausted with zero findings (the issue's acceptance criterion).
fn explore(name: &str, cfg: Config, f: impl Fn() + Send + Sync + 'static) {
    let start = std::time::Instant::now();
    match check(cfg, f) {
        Ok(report) => {
            assert!(
                report.complete,
                "{name}: exploration truncated after {} executions",
                report.executions
            );
            println!(
                "{name}: {} schedules explored to completion in {:?}",
                report.executions,
                start.elapsed()
            );
        }
        Err(failure) => panic!("{name}: {failure}"),
    }
}

// ---------------------------------------------------------------------------
// 1. LatencyHistogram
// ---------------------------------------------------------------------------

/// A concurrent snapshot never observes more samples than were recorded and
/// never corrupts the final tallies (record is two relaxed increments; the
/// model proves no interleaving of them with a merge loses or invents
/// samples).
#[test]
fn histogram_record_vs_snapshot() {
    explore("histogram_record_vs_snapshot", Config::default(), || {
        let hist = Arc::new(LatencyHistogram::new());
        let recorder = {
            let hist = Arc::clone(&hist);
            interleave::thread::spawn(move || {
                hist.record(1);
                hist.record(2);
            })
        };
        let mid = hist.snapshot();
        assert!(
            mid.total() <= 2,
            "snapshot invented samples: {}",
            mid.total()
        );
        recorder.join().unwrap();
        let fin = hist.snapshot();
        assert_eq!(fin.total(), 2, "final snapshot lost a sample");
        assert_eq!(hist.count(), 2, "count diverged from snapshot");
    });
}

/// `reset` racing `record`: samples may land on either side of the reset
/// (the documented contract) but tallies stay bounded and the structure
/// stays sound — no interleaving may panic, deadlock, or overcount.
#[test]
fn histogram_record_vs_reset() {
    explore("histogram_record_vs_reset", Config::default(), || {
        let hist = Arc::new(LatencyHistogram::new());
        let recorder = {
            let hist = Arc::clone(&hist);
            interleave::thread::spawn(move || {
                hist.record(1);
                hist.record(2);
            })
        };
        hist.reset();
        recorder.join().unwrap();
        // Depending on where the reset fell, 0..=2 samples survive; the
        // count and bucket totals may transiently disagree (benign, see
        // LatencyHistogram::reset docs) but neither can exceed what was
        // recorded.
        assert!(hist.count() <= 2);
        assert!(hist.snapshot().total() <= 2);
    });
}

// ---------------------------------------------------------------------------
// 2. CutCache
// ---------------------------------------------------------------------------

/// Two sessions miss on the same component and both insert: the cache must
/// end with exactly one entry, serve the identical cut afterwards, and
/// account every lookup as a hit or a miss.
#[test]
fn cut_cache_concurrent_miss_and_insert() {
    explore(
        "cut_cache_concurrent_miss_and_insert",
        Config::default(),
        || {
            let cache = Arc::new(CutCache::new(4));
            let comp = [NavNodeId(1), NavNodeId(2), NavNodeId(3)];
            let cut = EdgeCut::new(vec![NavNodeId(2)]);
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let cut = cut.clone();
                    interleave::thread::spawn(move || {
                        let comp = [NavNodeId(1), NavNodeId(2), NavNodeId(3)];
                        if cache.model_get(&comp).is_none() {
                            cache.model_put(&comp, &cut);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(cache.len(), 1, "duplicate insert must overwrite, not grow");
            assert_eq!(
                cache.hits() + cache.misses(),
                2,
                "every lookup is a hit or a miss"
            );
            let served = cache.model_get(&comp).expect("component is memoized");
            assert_eq!(served.lower_roots(), cut.lower_roots());
        },
    );
}

/// Capacity-1 cache under concurrent inserts of two distinct components:
/// the bound must hold in every interleaving (no transient over-capacity),
/// and whichever component won stays retrievable.
#[test]
fn cut_cache_capacity_bound_under_races() {
    explore(
        "cut_cache_capacity_bound_under_races",
        Config::default(),
        || {
            let cache = Arc::new(CutCache::new(1));
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    interleave::thread::spawn(move || {
                        let comp = [NavNodeId(10 + t as u32), NavNodeId(20 + t as u32)];
                        let cut = EdgeCut::new(vec![NavNodeId(10 + t as u32)]);
                        if cache.model_get(&comp).is_none() {
                            cache.model_put(&comp, &cut);
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(cache.len(), 1, "capacity bound violated");
            assert_eq!(cache.misses(), 2, "both first lookups must miss");
        },
    );
}

// ---------------------------------------------------------------------------
// 3. Engine park/resume protocol
// ---------------------------------------------------------------------------

/// The paper's Fig 3 MeSH fragment as a hand-built navigation tree — tiny
/// and fully deterministic, so each explored schedule re-runs the real
/// open → expand → close pipeline in microseconds.
fn fig3_tree() -> NavigationTree {
    fn tn(s: &str) -> TreeNumber {
        TreeNumber::parse(s).expect("fixture tree number parses")
    }
    let descs = vec![
        Descriptor::new(DescriptorId(1), "BiologicalPhenomena", vec![tn("G07")]),
        Descriptor::new(DescriptorId(2), "CellPhysiology", vec![tn("G07.100")]),
        Descriptor::new(DescriptorId(3), "CellDeath", vec![tn("G07.100.100")]),
        Descriptor::new(DescriptorId(4), "Autophagy", vec![tn("G07.100.100.100")]),
        Descriptor::new(DescriptorId(5), "Apoptosis", vec![tn("G07.100.100.200")]),
        Descriptor::new(DescriptorId(6), "Necrosis", vec![tn("G07.100.100.300")]),
        Descriptor::new(DescriptorId(7), "CellGrowth", vec![tn("G07.200")]),
        Descriptor::new(
            DescriptorId(8),
            "CellProliferation",
            vec![tn("G07.200.100")],
        ),
        Descriptor::new(DescriptorId(9), "CellDivision", vec![tn("G07.200.100.100")]),
    ];
    let h = ConceptHierarchy::from_descriptors(&descs).expect("fixture hierarchy is valid");
    let mut store = CitationStore::new();
    for i in 1..=9u32 {
        store
            .insert(Citation::new(
                CitationId(i),
                format!("c{i}"),
                vec![],
                vec![DescriptorId(i)],
                vec![],
            ))
            .expect("fixture citation inserts");
    }
    let results: Vec<CitationId> = (1..=9).map(CitationId).collect();
    NavigationTree::build(&h, &store, &results)
}

/// Two workers concurrently open, EXPAND, and close sessions against one
/// engine: the park/resume protocol must be deadlock-free in every
/// schedule, both EXPANDs must succeed, and the gauges must balance
/// (opened == closed, zero live sessions) when the dust settles.
#[test]
fn engine_park_resume_protocol() {
    // Built once: the tree is plain immutable data (no modeled primitives),
    // so sharing it across executions is sound and keeps each schedule fast.
    let tree: SharedTree = Arc::new(fig3_tree());
    let cfg = Config {
        preemption_bound: 2,
        max_executions: 400_000,
        ..Config::default()
    };
    explore("engine_park_resume_protocol", cfg, move || {
        let tree = Arc::clone(&tree);
        let engine = Arc::new(Engine::new(
            move |_query: &str| Some(Arc::clone(&tree)),
            CostParams::default(),
            2,
        ));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                interleave::thread::spawn(move || {
                    let id = engine
                        .open_session("cell death")
                        .expect("fixture query has results");
                    let expanded = engine
                        .expand(id, NavNodeId::ROOT)
                        .expect("root EXPAND on a parked session must succeed");
                    assert!(
                        !expanded.revealed.is_empty(),
                        "root EXPAND must reveal concepts"
                    );
                    assert!(expanded.degraded.is_none(), "clean path never degrades");
                    engine.close_session(id).expect("session closes once");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.sessions_closed, 2);
        assert_eq!(stats.sessions_active, 0, "gauge must balance");
    });
}

/// A session quarantined mid-flight (modeling a caught EXPAND panic,
/// driven through [`Engine::model_quarantine`] since injected faults are
/// compiled out under interleave) racing a healthy neighbor: no schedule
/// may deadlock, the poisoned session is refused with the typed
/// `Quarantined` error (or served, if its EXPAND ran before the quarantine
/// landed — both legal), `close_session` still drains it in every
/// schedule, and the quarantine gauge balances to zero after the drain.
#[test]
fn engine_quarantine_protocol() {
    let tree: SharedTree = Arc::new(fig3_tree());
    let cfg = Config {
        preemption_bound: 2,
        max_executions: 400_000,
        ..Config::default()
    };
    explore("engine_quarantine_protocol", cfg, move || {
        let tree = Arc::clone(&tree);
        let engine = Arc::new(Engine::new(
            move |_query: &str| Some(Arc::clone(&tree)),
            CostParams::default(),
            2,
        ));
        let doomed = engine
            .open_session("cell death")
            .expect("fixture query has results");
        let poisoner = {
            let engine = Arc::clone(&engine);
            interleave::thread::spawn(move || {
                engine.model_quarantine(doomed);
            })
        };
        let navigator = {
            let engine = Arc::clone(&engine);
            interleave::thread::spawn(move || {
                // A *different* session must keep serving regardless of
                // where the quarantine transition lands in the schedule.
                let healthy = engine
                    .open_session("cell death")
                    .expect("fixture query has results");
                let reply = engine
                    .expand(healthy, NavNodeId::ROOT)
                    .expect("healthy session serves");
                assert!(reply.degraded.is_none(), "clean path never degrades");
                engine.close_session(healthy).expect("healthy closes");
                // EXPAND on the doomed session: served if it beat the
                // quarantine, refused with the typed error otherwise —
                // never a panic, never a deadlock.
                match engine.expand(doomed, NavNodeId::ROOT) {
                    Ok(_) | Err(EngineError::Quarantined(_)) => {}
                    Err(other) => panic!("unexpected EXPAND refusal: {other}"),
                }
            })
        };
        poisoner.join().unwrap();
        navigator.join().unwrap();
        // The quarantined slot is visible in the gauge, still drains, and
        // the books balance afterwards.
        assert_eq!(engine.stats().sessions_quarantined, 1);
        engine
            .close_session(doomed)
            .expect("quarantined slot drains");
        let stats = engine.stats();
        assert_eq!(stats.sessions_quarantined, 0, "drain releases the gauge");
        assert_eq!(stats.sessions_active, 0, "gauge must balance");
        assert_eq!(stats.sessions_opened, stats.sessions_closed);
    });
}

// ---------------------------------------------------------------------------
// 3b. Sharded tier (DESIGN.md §5h)
// ---------------------------------------------------------------------------

/// A two-shard tier over the Fig 3 fixture plus one query routing to each
/// shard (found by walking candidate strings over the deterministic ring —
/// the ring layout is pure hashing, so this runs outside the model).
fn two_shard_tier(
    tree: &SharedTree,
) -> (
    ShardedEngine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
    [String; 2],
) {
    let sharded = ShardedEngine::new(2, |_| {
        let tree = Arc::clone(tree);
        Engine::new(
            move |_query: &str| Some(Arc::clone(&tree)),
            CostParams::default(),
            2,
        )
    });
    let mut queries: [Option<String>; 2] = [None, None];
    for i in 0.. {
        let q = format!("cell death {i}");
        let home = sharded.shard_for_query(&q);
        if queries[home].is_none() {
            queries[home] = Some(q);
            if queries.iter().all(Option::is_some) {
                break;
            }
        }
    }
    let [a, b] = queries;
    (sharded, [a.unwrap(), b.unwrap()])
}

/// Two workers open / EXPAND / close concurrently, one per shard: every
/// schedule must route each session to its sticky home shard (the packed
/// id's shard field), serve both EXPANDs, and leave the per-shard *and*
/// merged gauges balanced — proving the tier adds no coordination (and so
/// no new deadlock or double-count) on top of the member engines.
#[test]
fn sharded_open_route_close_gauge_consistency() {
    let tree: SharedTree = Arc::new(fig3_tree());
    let cfg = Config {
        preemption_bound: 2,
        max_executions: 400_000,
        ..Config::default()
    };
    explore(
        "sharded_open_route_close_gauge_consistency",
        cfg,
        move || {
            let (sharded, queries) = two_shard_tier(&tree);
            let sharded = Arc::new(sharded);
            let workers: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(home, query)| {
                    let sharded = Arc::clone(&sharded);
                    let query = query.clone();
                    interleave::thread::spawn(move || {
                        let id = sharded.open_session(&query).expect("fixture query opens");
                        assert_eq!(
                            id.shard(),
                            home,
                            "unarmed routing must land on the sticky home shard"
                        );
                        let reply = sharded
                            .expand(id, NavNodeId::ROOT)
                            .expect("EXPAND routes by the packed shard field");
                        assert!(!reply.revealed.is_empty());
                        sharded.close_session(id).expect("session closes once");
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            for shard in 0..2 {
                let s = sharded.shard_stats(shard);
                assert_eq!(s.sessions_opened, 1, "each shard owned exactly one open");
                assert_eq!(s.sessions_closed, 1);
                assert_eq!(s.sessions_active, 0);
            }
            let merged = sharded.stats();
            assert_eq!(merged.sessions_opened, 2);
            assert_eq!(merged.sessions_closed, 2);
            assert_eq!(merged.sessions_active, 0, "merged gauge must balance");
        },
    );
}

/// A quarantine on shard 0 (the breaker's sick signal) racing an
/// in-flight cold open for a query homed on shard 0, on an armed tier.
/// Both orders are legal — the open may beat the quarantine and land
/// home, or see it, trip shard 0's breaker and divert to shard 1 — and the
/// EXPAND may then be served or refused typed with `BreakerOpen` (a
/// breaker tripped after the open landed home). In every schedule the
/// opened session is drained by CLOSE wherever it landed (stickiness: a
/// breaker moves only new opens, never live sessions), new placements
/// divert while the slot sits poisoned, and the merged gauges balance.
#[test]
fn sharded_breaker_trip_vs_inflight_open() {
    let tree: SharedTree = Arc::new(fig3_tree());
    let cfg = Config {
        preemption_bound: 2,
        max_executions: 400_000,
        ..Config::default()
    };
    explore("sharded_breaker_trip_vs_inflight_open", cfg, move || {
        let (sharded, queries) = two_shard_tier(&tree);
        let sharded = Arc::new(sharded.with_breakers(7));
        let on_zero = queries[0].clone();
        // The trip's raw material: a session on shard 0, opened before
        // any concurrency, quarantined by the poisoner mid-model.
        let doomed = sharded
            .engine(0)
            .open_session(&on_zero)
            .expect("fixture query opens");
        let poisoner = {
            let sharded = Arc::clone(&sharded);
            interleave::thread::spawn(move || {
                sharded.engine(0).model_quarantine(doomed);
            })
        };
        let opener = {
            let sharded = Arc::clone(&sharded);
            let on_zero = on_zero.clone();
            interleave::thread::spawn(move || {
                let id = sharded
                    .open_session(&on_zero)
                    .expect("a cold open always finds a shard");
                assert!(id.shard() < 2, "placement must name a real shard");
                match sharded.expand(id, NavNodeId::ROOT) {
                    Ok(reply) => {
                        assert!(reply.degraded.is_none(), "clean path never degrades")
                    }
                    Err(EngineError::BreakerOpen { shard, .. }) => {
                        assert_eq!(shard, id.shard(), "refused by its own shard");
                    }
                    Err(other) => panic!("served or refused typed, got {other}"),
                }
                sharded
                    .close_session(id)
                    .expect("sticky routing drains the session where it opened");
            })
        };
        poisoner.join().unwrap();
        opener.join().unwrap();
        // Quarantine is now visible: new placements for the query must
        // divert off the home shard while the slot sits poisoned...
        assert_eq!(sharded.shard_health(0).sessions_quarantined, 1);
        assert_eq!(
            sharded.open_placement(&on_zero),
            1,
            "a tripped breaker must divert new opens off the home shard"
        );
        assert_eq!(sharded.breaker(1).trips(), 0, "shard 1 never trips");
        // ...and CLOSE drains the poisoned slot through the breaker.
        sharded
            .engine(0)
            .close_session(doomed)
            .expect("quarantined slot drains");
        let merged = sharded.stats();
        assert_eq!(merged.sessions_active, 0, "merged gauge must balance");
        assert_eq!(merged.sessions_opened, merged.sessions_closed);
        assert_eq!(merged.sessions_quarantined, 0);
    });
}

// ---------------------------------------------------------------------------
// 3c. Overload plane: admission gate and circuit breaker (DESIGN.md §5k)
// ---------------------------------------------------------------------------

/// Concurrent `try_admit` / guard-drop / AIMD `adjust` against one
/// [`AdmissionGate`]: in every schedule the books must balance (in-flight
/// returns to zero once all guards drop), an admitted+shed pair can never
/// exceed the attempts, and the AIMD step — wherever the scheduler lands
/// it between the optimistic increments — must keep the limit inside
/// `[1, ceiling]`.
#[test]
fn admission_gate_admit_release_adjust_races() {
    use bionav_core::admission::{AdmissionGate, ADJUST_INTERVAL_NS};
    explore(
        "admission_gate_admit_release_adjust_races",
        Config::default(),
        || {
            let gate = Arc::new(AdmissionGate::new(1));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    interleave::thread::spawn(move || {
                        // One admit attempt; the guard (if any) drops at
                        // scope end, releasing the slot panic-safely.
                        gate.try_admit().is_some()
                    })
                })
                .collect();
            // An over-budget window races the admits: multiplicative
            // decrease may land before, between, or after them.
            gate.adjust(ADJUST_INTERVAL_NS, 0, 100, 4);
            let admitted = workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&b| b)
                .count();
            assert!(admitted <= 2, "admitted more than attempted");
            assert_eq!(gate.inflight(), 0, "books must balance after drops");
            let limit = gate.limit();
            assert!(
                (1..=4).contains(&limit),
                "AIMD limit left [1, ceiling]: {limit}"
            );
        },
    );
}

/// Two racing verdicts against one [`Breaker`] — one healthy, one
/// sick, at the same instant: whatever order the scheduler picks, the
/// state must land on a real state code, at most one trip is recorded (the
/// CAS serializes the transition), the reject count matches the rejected
/// callers exactly, and the baselines are the trip winner's snapshot —
/// never a torn mix.
#[test]
fn breaker_racing_trip_and_admit() {
    use bionav_core::breaker::{Breaker, BreakerDecision, BreakerState};
    explore("breaker_racing_trip_and_admit", Config::default(), || {
        let breaker = Arc::new(Breaker::new());
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let breaker = Arc::clone(&breaker);
                interleave::thread::spawn(move || {
                    // Writer 0 reads all-zero counters (healthy); writer 1
                    // reads 11 in every slot (sick), so a torn snapshot
                    // (slots from different writers) is detectable.
                    matches!(
                        breaker.admit(100, &counters_at(11 * t), 7),
                        BreakerDecision::Reject { .. }
                    )
                })
            })
            .collect();
        let rejected = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&b| b)
            .count() as u64;
        let state = breaker.state();
        assert!(
            matches!(state, BreakerState::Closed | BreakerState::Open),
            "state must be a real code, got {state:?}"
        );
        // The sick verdict always trips (the healthy caller may admit
        // before or after, but never un-trips a just-opened breaker).
        assert_eq!(state, BreakerState::Open, "the sick verdict trips");
        assert_eq!(breaker.trips(), 1, "the CAS serializes to one trip");
        assert_eq!(breaker.rejects(), rejected, "rejects match the callers");
        // Baselines are one writer's snapshot, not a torn mix: the tripper
        // is the sick writer (t == 1), so every slot reads 11.
        assert_eq!(breaker.baseline(), counters_at(11), "torn baseline");
    });
}

/// A shard health snapshot whose four fault-plane counters all read `n`.
fn counters_at(n: u64) -> bionav_core::engine::HealthCounters {
    bionav_core::engine::HealthCounters {
        degraded_expands: n,
        shed_expands: n,
        session_panics: n,
        deadline_rejects: n,
        sessions_quarantined: 0,
    }
}

/// An open breaker racing two probe candidates at the same post-delay
/// instant: at most one may transition open → half-open (both may then be
/// admitted as probes — legal — but the state machine must never land
/// outside the three real states, and healthy probes must accumulate
/// toward close without a lost update).
#[test]
fn breaker_racing_probes_after_the_delay() {
    use bionav_core::breaker::{probe_delay_ns, Breaker, BreakerState, PROBES_TO_CLOSE};
    explore(
        "breaker_racing_probes_after_the_delay",
        Config::default(),
        || {
            const SEED: u64 = 7;
            let breaker = Arc::new(Breaker::new());
            // The trip pins the counters at 1; probes reading the same
            // counters (no growth) are healthy.
            let tripped = counters_at(1);
            breaker.admit(0, &tripped, SEED);
            assert_eq!(breaker.state(), BreakerState::Open);
            let probe_at = probe_delay_ns(SEED, 1);
            let probes: Vec<_> = (0..2u64)
                .map(|_| {
                    let breaker = Arc::clone(&breaker);
                    interleave::thread::spawn(move || breaker.admit(probe_at, &tripped, SEED))
                })
                .collect();
            for p in probes {
                p.join().unwrap();
            }
            let state = breaker.state();
            assert!(
                matches!(state, BreakerState::HalfOpen | BreakerState::Closed),
                "post-delay probes must leave open, got {state:?}"
            );
            // No lost update on the probe tally: two healthy probes landed;
            // one more must close it in every schedule.
            for _ in 0..PROBES_TO_CLOSE {
                breaker.admit(probe_at + 1, &tripped, SEED);
            }
            assert_eq!(breaker.state(), BreakerState::Closed);
            assert_eq!(breaker.trips(), 1, "probing never re-trips a healthy shard");
        },
    );
}

// ---------------------------------------------------------------------------
// 4. Trace ring (DESIGN.md §5e)
// ---------------------------------------------------------------------------

/// Two writers race a mid-flight snapshot of a deliberately tiny (2-slot)
/// ring: every accepted event must be internally consistent (its `ns`
/// encodes its `tid`), the mid-snapshot can never exceed the capacity, and
/// after both writers join, both sequence numbers are observable.
#[test]
fn trace_ring_concurrent_writers_and_snapshot() {
    use bionav_core::trace::{SpanKind, SpanRing};
    explore(
        "trace_ring_concurrent_writers_and_snapshot",
        Config::default(),
        || {
            let ring = Arc::new(SpanRing::new(2));
            let writers: Vec<_> = (0..2u16)
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    interleave::thread::spawn(move || {
                        // Encode the writer in tid, ns, and rid so a torn
                        // slot (meta from one writer, ns or rid from the
                        // other) is detectable below.
                        ring.push(
                            t as u8,
                            SpanKind::Begin,
                            t,
                            1_000 + u64::from(t),
                            7_000 + u64::from(t),
                        );
                    })
                })
                .collect();
            let mid = ring.snapshot();
            assert!(mid.len() <= 2, "snapshot exceeded ring capacity");
            for e in &mid {
                assert_eq!(
                    e.ns,
                    1_000 + u64::from(e.tid),
                    "torn slot: meta/ns from different writers"
                );
                assert_eq!(e.stage, e.tid as u8, "torn slot: stage/tid mismatch");
                assert_eq!(
                    e.rid,
                    7_000 + u64::from(e.tid),
                    "torn slot: rid/tid mismatch"
                );
            }
            for w in writers {
                w.join().unwrap();
            }
            let fin = ring.snapshot();
            assert_eq!(fin.len(), 2, "both events must survive in a 2-slot ring");
            let mut seqs: Vec<u64> = fin.iter().map(|e| e.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, vec![0, 1], "each push claims a unique sequence");
            assert_eq!(ring.pushed(), 2, "push counter is exact");
        },
    );
}

/// `clear` racing a writer: the documented benign window (a mid-push event
/// may land after the clear) is allowed, but every event a snapshot accepts
/// must still be internally consistent, and a clear *after* the writer
/// joins must empty the ring without rewinding the monotone counter.
#[test]
fn trace_ring_clear_vs_writer() {
    use bionav_core::trace::{SpanKind, SpanRing};
    explore("trace_ring_clear_vs_writer", Config::default(), || {
        let ring = Arc::new(SpanRing::new(2));
        let writer = {
            let ring = Arc::clone(&ring);
            interleave::thread::spawn(move || {
                ring.push(1, SpanKind::Begin, 1, 1_001, 7_001);
                ring.push(1, SpanKind::End, 1, 1_001, 7_001);
            })
        };
        ring.clear();
        let mid = ring.snapshot();
        assert!(mid.len() <= 2);
        for e in &mid {
            assert_eq!(e.ns, 1_001, "accepted event must be fully written");
            assert_eq!(e.tid, 1);
            assert_eq!(e.rid, 7_001, "accepted event must carry its rid");
        }
        writer.join().unwrap();
        ring.clear();
        assert!(
            ring.snapshot().is_empty(),
            "a quiescent clear must empty the ring"
        );
        assert_eq!(ring.pushed(), 2, "clear never rewinds the push counter");
    });
}

/// Two writers race a snapshot of a 2-slot flight ring (DESIGN.md §5j):
/// every accepted summary must be internally consistent — its rid,
/// shard, end-to-end latency, and stage breakdown all encode the same
/// writer — the mid-flight snapshot never exceeds capacity, and after
/// both writers join, both sequence numbers survive. The flight ring is
/// the span ring's `SeqRing` with a wider codec, so a torn slot here
/// would mean the protocol does not extend to `4 + STAGE_WORDS` atomics.
#[test]
fn flight_ring_concurrent_writers_and_snapshot() {
    use bionav_core::trace::flightrec::{FlightRing, RawSummary, Verb};
    use bionav_core::trace::Stage;
    explore(
        "flight_ring_concurrent_writers_and_snapshot",
        Config::default(),
        || {
            let ring = Arc::new(FlightRing::new(2));
            let writers: Vec<_> = (0..2u64)
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    interleave::thread::spawn(move || {
                        let mut stage_ns = [0u64; Stage::COUNT];
                        stage_ns[0] = (1 + t) * 1_000_000;
                        let verb = if t == 0 { Verb::Open } else { Verb::Expand };
                        ring.push(&RawSummary {
                            rid: 100 + t,
                            verb: verb as u8,
                            shard_p1: t as u16 + 1,
                            cache: 0,
                            rung: 0,
                            shed: 0,
                            error: 0,
                            fault: 0,
                            total_ns: (100 + t) * 1_000,
                            stage_ns,
                        });
                    })
                })
                .collect();
            let mid = ring.snapshot();
            assert!(mid.len() <= 2, "snapshot exceeded ring capacity");
            for e in &mid {
                let t = e.request_id.wrapping_sub(100);
                assert!(t < 2, "torn slot: unknown rid {}", e.request_id);
                assert_eq!(
                    e.total_ns,
                    (100 + t) * 1_000,
                    "torn slot: rid/total from different writers"
                );
                assert_eq!(e.shard, Some(t as u16), "torn slot: rid/shard mismatch");
                assert_eq!(
                    e.stage_us[0],
                    (1 + t as u32) * 1_000,
                    "torn slot: rid/stage-payload mismatch"
                );
            }
            for w in writers {
                w.join().unwrap();
            }
            let fin = ring.snapshot();
            assert_eq!(fin.len(), 2, "both summaries survive in a 2-slot ring");
            let mut seqs: Vec<u64> = fin.iter().map(|e| e.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, vec![0, 1], "each push claims a unique sequence");
            assert_eq!(ring.pushed(), 2, "push counter is exact");
            ring.clear();
            assert!(
                ring.snapshot().is_empty(),
                "a quiescent clear must empty the ring"
            );
            assert_eq!(ring.pushed(), 2, "clear never rewinds the push counter");
        },
    );
}

/// Meta-test for the ring protocol: `model_torn_push` validates the slot
/// *before* storing `ns`, so a racing reader can accept a stale timestamp.
/// The checker MUST find that interleaving — otherwise the passing models
/// above prove nothing about the real seqlock.
#[test]
fn meta_torn_ring_write_is_flagged() {
    use bionav_core::trace::{SpanKind, SpanRing};
    let result = check(Config::default(), || {
        let ring = Arc::new(SpanRing::new(2));
        let writer = {
            let ring = Arc::clone(&ring);
            interleave::thread::spawn(move || {
                // Seeded bug: stamp validated before ns lands.
                ring.model_torn_push(1, SpanKind::Begin, 1, 999, 0);
            })
        };
        for e in ring.snapshot() {
            assert_eq!(e.ns, 999, "torn ring write: accepted a stale timestamp");
        }
        writer.join().unwrap();
    });
    let failure = result.expect_err("the checker MUST flag the torn ring write");
    assert!(
        failure.message.contains("torn"),
        "unexpected failure: {}",
        failure.message
    );
    println!(
        "meta: torn ring write flagged after {} executions, schedule {:?}",
        failure.executions, failure.schedule
    );
}

// ---------------------------------------------------------------------------
// 5. Meta-test: the checker must catch a seeded race
// ---------------------------------------------------------------------------

/// A knowingly racy read-modify-write counter. If the scheduler ever stops
/// finding this lost update, the whole analysis layer is silently blind —
/// so this test FAILS unless the checker reports a failure.
#[test]
fn meta_seeded_racy_counter_is_flagged() {
    use interleave::sync::{AtomicU64, Ordering};
    let result = check(Config::default(), || {
        let counter = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                interleave::thread::spawn(move || {
                    // Seeded bug: torn load/store instead of fetch_add.
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = result.expect_err("the checker MUST flag the seeded race");
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure: {}",
        failure.message
    );
    println!(
        "meta: seeded race flagged after {} executions, schedule {:?}",
        failure.executions, failure.schedule
    );
}
