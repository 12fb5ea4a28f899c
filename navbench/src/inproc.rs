//! `cold_explore`: a closed-loop client calling the sharded tier's public
//! API directly, the way the `bionav serve` connection handler does for
//! each wire verb (minus the socket and the codec).
//!
//! The run is a series of passes. Each pass builds a fresh tier, warms it
//! by a fixed operation count and serves the same seeded population of
//! navigations in the same order, so passes differ only in how fast the
//! host ran them; the run reports its figures over the faster half of
//! its passes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bionav_core::engine::Engine;
use bionav_core::trace::{self, flightrec, now_ns, Stage};
use bionav_core::{CostParams, NavNodeId, NavigationTree, ServeStats, ShardedEngine, SharedTree};
use bionav_proto::{Reply, Request, WireNode};

use crate::layers::{self, stage_total_ns};
use crate::oracle::{self, Digest, Served, MAX_EXPANDS};
use crate::report::{peak_rss_mib, Report};
use crate::spans::{write_spans, Span, MAX_SPANS};
use crate::stats::{fast_half_rate, Samples};
use crate::universe::{population, Plan, Universe, Zipf};
use crate::{finish_setups, timed_setups, RunArgs, CACHE_SLOTS, SCALE, SETUP_BEFORE, SHARDS};

/// Seeded synthetic queries added to the ten of Table I: 64 queries, 4×
/// the tier's 16 tree-cache slots.
const SYNTHETIC: usize = 54;
/// Zipf exponent of query popularity.
const ZIPF_S: f64 = 0.8;
/// Navigations per pass, before rounding each query's share: about four
/// seconds of work at paper scale, so a run holds nine or more passes.
const POPULATION: usize = 192;
/// Warm-up of every fresh tier: open and close the most popular queries,
/// so their trees are cached when the pass starts.
const WARM_TOP: usize = 16;
/// Passes every run makes, however long they take.
const MIN_PASSES: usize = 4;

type Builder = Box<dyn Fn(&str) -> Option<SharedTree> + Send + Sync>;
type Tier = ShardedEngine<Builder>;

/// Timings taken inside the benchmark's own tree-builder closure.
#[derive(Default)]
struct BuildProbe {
    on: AtomicBool,
    /// `(index query ns, tree build ns)` per cold build.
    samples: Mutex<Vec<(u64, u64)>>,
}

/// The tier `bionav serve` builds: `SHARDS` engines with `CACHE_SLOTS`
/// tree-cache slots each and default cost parameters, each building trees
/// from the keyword index on a miss; warmed by opening the `WARM_TOP` most
/// popular queries.
fn make_tier(universe: &Universe, probe: &Arc<BuildProbe>) -> Result<Tier, String> {
    let tier = ShardedEngine::new(SHARDS, |_| {
        let w = Arc::clone(&universe.workload);
        let probe = Arc::clone(probe);
        let builder: Builder = Box::new(move |query: &str| {
            let t0 = now_ns();
            let outcome = w.index.query(query);
            let t1 = now_ns();
            if outcome.is_empty() {
                return None;
            }
            let tree = NavigationTree::build(&w.hierarchy, &w.store, &outcome.citations);
            if probe.on.load(Ordering::Relaxed) {
                let t2 = now_ns();
                probe
                    .samples
                    .lock()
                    .expect("probe lock")
                    .push((t1 - t0, t2 - t1));
            }
            Some(Arc::new(tree))
        });
        Engine::new(builder, CostParams::default(), CACHE_SLOTS)
    });
    for info in universe.queries.iter().take(WARM_TOP) {
        let id = tier
            .open_session(&info.keywords)
            .map_err(|e| e.to_string())?;
        tier.close_session(id).map_err(|e| e.to_string())?;
    }
    tier.reset_stats();
    Ok(tier)
}

/// Everything a run needs, made by one deterministic set-up.
struct Setup {
    universe: Universe,
    /// The population every pass serves, in the seed's order.
    plans: Vec<Plan>,
    /// The first pass's tier.
    tier: Tier,
    probe: Arc<BuildProbe>,
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let universe = Universe::build(SCALE, SYNTHETIC);
    let zipf = Zipf::new(universe.queries.len(), ZIPF_S);
    let plans = population(&universe.queries, &zipf, POPULATION, seed);
    let probe = Arc::new(BuildProbe::default());
    let tier = make_tier(&universe, &probe)?;
    Ok(Setup {
        universe,
        plans,
        tier,
        probe,
    })
}

/// The run's measurements, each latency binned by its pass. Its memory
/// does not grow with the number of sessions served, so a faster program
/// does not read as a bigger one in `rss_mb`.
struct ClientRec {
    /// The pass under way: the unit every sample is binned in.
    pass: Option<usize>,
    open: Samples,
    expand: Samples,
    show: Samples,
    close: Samples,
    session: Samples,
    /// Client-side gap between one reply and the next request.
    gap: Samples,
    /// Each distinct (query, target) navigation as first served.
    served: HashMap<(usize, u32), Served>,
    /// Navigations served differently from an earlier serve of the same one.
    inconsistent: Vec<String>,
    completed: u64,
    /// §III cost of every completed session.
    cost: u64,
    attempted: u64,
    failed: u64,
    degraded: u64,
    /// Lazy-bitset materialization the client's reads triggered outside
    /// any engine call (traced runs).
    materialize_ns: u64,
    spans: Vec<Span>,
    /// Request/reply pairs kept for the codec timing (traced runs).
    frames: Vec<(Request, Reply)>,
}

const MAX_FRAMES: usize = 4096;

impl ClientRec {
    fn new() -> Self {
        ClientRec {
            pass: None,
            open: Samples::new(),
            expand: Samples::new(),
            show: Samples::new(),
            close: Samples::new(),
            session: Samples::new(),
            gap: Samples::new(),
            served: HashMap::new(),
            inconsistent: Vec::new(),
            completed: 0,
            cost: 0,
            attempted: 0,
            failed: 0,
            degraded: 0,
            materialize_ns: 0,
            spans: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Records a completed session: keeps it as its navigation's first
    /// serve, or checks it against that.
    fn serve(&mut self, s: Served) {
        self.completed += 1;
        self.cost += s.cost;
        let first = *self.served.entry((s.query, s.target.0)).or_insert(s);
        if first != s && self.inconsistent.len() < 3 {
            self.inconsistent
                .push(format!("served {s:?} after {first:?}"));
        }
    }
}

/// The wire nodes a reply would carry for `nodes`: label and distinct
/// citation count, read under the session lock exactly as the connection
/// handler does.
fn wire_nodes(
    tier: &Tier,
    id: bionav_core::ShardSessionId,
    nodes: &[NavNodeId],
) -> Option<Vec<WireNode>> {
    tier.with_session(id, |s| {
        nodes
            .iter()
            .map(|&n| WireNode {
                node: n.0,
                label: s.nav().label(n).to_string(),
                count: u64::from(s.component_distinct(n)),
            })
            .collect()
    })
}

/// Runs `f` with the program's own span tape on when `on`, adding the
/// lazy-bitset materialization it triggered to `ns`: reads made under the
/// session lock outside an engine call never reach the engine's stages.
fn captured<R>(on: bool, ns: &mut u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let tape = trace::capture();
    let out = f();
    drop(tape);
    *ns += trace::take_captured()
        .into_iter()
        .filter(|(stage, ..)| *stage == Stage::Materialize)
        .map(|(_, ns, _)| ns)
        .sum::<u64>();
    out
}

/// One TOPDOWN navigation: OPEN, EXPAND the component covering `target`
/// until it is visible (at most `MAX_EXPANDS` times), SHOWRESULTS on the
/// component now covering it, CLOSE. Every call is counted as
/// attempted; a failed call ends the session.
fn run_session(
    tier: &Tier,
    universe: &Universe,
    Plan { query, target }: Plan,
    k: u64,
    rec: &mut ClientRec,
    traced_run: bool,
) -> Result<(), String> {
    let keywords = &universe.queries[query].keywords;
    let path = universe.queries[query].path(target);
    let keep_frames = traced_run && rec.frames.len() < MAX_FRAMES;
    let traced = traced_run && trace::is_enabled() && rec.spans.len() < MAX_SPANS;
    let t_start = now_ns();

    rec.attempted += 1;
    let opened = tier.open_session(keywords).ok().and_then(|id| {
        let roots = captured(traced_run, &mut rec.materialize_ns, || {
            tier.with_session(id, |s| {
                s.visualize()
                    .iter()
                    .map(|v| WireNode {
                        node: v.node.0,
                        label: s.nav().label(v.node).to_string(),
                        count: u64::from(v.component_distinct),
                    })
                    .collect::<Vec<_>>()
            })
        })?;
        Some((id, roots))
    });
    let mut t_prev = now_ns();
    let Some((id, roots)) = opened else {
        rec.failed += 1;
        return Err(format!("OPEN {keywords:?} failed"));
    };
    rec.open.push(rec.pass, t_prev - t_start);
    if traced {
        rec.spans.push(Span {
            session: k,
            name: "open",
            start_ns: t_start,
            end_ns: t_prev,
        });
    }
    if keep_frames {
        rec.frames.push((
            Request::Open {
                query: keywords.clone(),
            },
            Reply::Opened {
                session: id.to_bits(),
                roots: roots.clone(),
            },
        ));
    }
    let mut visible = vec![false; path.len()];
    let mark = |visible: &mut Vec<bool>, nodes: &[WireNode]| {
        for n in nodes {
            if let Some(i) = path.iter().position(|p| p.0 == n.node) {
                visible[i] = true;
            }
        }
    };
    mark(&mut visible, &roots);
    let mut digest = Digest::default();
    let mut expands = 0u32;
    let outcome = (|| {
        // The component root covering the target: its deepest visible
        // ancestor-or-self.
        let shown_node = loop {
            let deepest = visible.iter().rposition(|&v| v).ok_or("root not visible")?;
            if deepest == path.len() - 1 || expands as usize == MAX_EXPANDS {
                break path[deepest];
            }
            let node = path[deepest];
            rec.attempted += 1;
            let t0 = now_ns();
            rec.gap.push(rec.pass, t0 - t_prev);
            let reply = tier.expand(id, node).map_err(|e| format!("EXPAND: {e}"))?;
            let revealed = captured(traced_run, &mut rec.materialize_ns, || {
                wire_nodes(tier, id, &reply.revealed)
            })
            .ok_or("EXPAND: session vanished")?;
            t_prev = now_ns();
            rec.expand.push(rec.pass, t_prev - t0);
            if traced {
                rec.spans.push(Span {
                    session: k,
                    name: "expand",
                    start_ns: t0,
                    end_ns: t_prev,
                });
            }
            if reply.degraded.is_some() {
                rec.degraded += 1;
            }
            digest.expand(node.0, reply.revealed.iter().map(|n| n.0));
            expands += 1;
            mark(&mut visible, &revealed);
            if keep_frames {
                rec.frames.push((
                    Request::Expand {
                        session: id.to_bits(),
                        node: node.0,
                    },
                    Reply::Expanded {
                        revealed,
                        degraded: reply.degraded.is_some(),
                    },
                ));
            }
        };
        rec.attempted += 1;
        let t0 = now_ns();
        rec.gap.push(rec.pass, t0 - t_prev);
        let citations = captured(traced_run, &mut rec.materialize_ns, || {
            tier.with_session(id, |s| s.show_results(shown_node))
        })
        .ok_or("SHOWRESULTS: session vanished")?
        .map_err(|e| format!("SHOWRESULTS: {e}"))?;
        t_prev = now_ns();
        rec.show.push(rec.pass, t_prev - t0);
        rec.session.push(rec.pass, t_prev - t_start);
        if traced {
            rec.spans.push(Span {
                session: k,
                name: "showresults",
                start_ns: t0,
                end_ns: t_prev,
            });
        }
        if keep_frames {
            rec.frames.push((
                Request::ShowResults {
                    session: id.to_bits(),
                    node: shown_node.0,
                },
                Reply::Results {
                    citations: citations.iter().map(|c| u64::from(c.0)).collect(),
                },
            ));
        }
        Ok::<u32, String>(citations.len() as u32)
    })();
    let shown = match outcome {
        Ok(n) => n,
        Err(e) => {
            rec.failed += 1;
            let _ = tier.close_session(id);
            return Err(e);
        }
    };
    rec.attempted += 1;
    let t0 = now_ns();
    let state = tier.close_session(id).map_err(|e| {
        rec.failed += 1;
        format!("CLOSE: {e}")
    })?;
    let t1 = now_ns();
    rec.close.push(rec.pass, t1 - t0);
    if traced {
        rec.spans.push(Span {
            session: k,
            name: "close",
            start_ns: t0,
            end_ns: t1,
        });
        rec.spans.push(Span {
            session: k,
            name: "session",
            start_ns: t_start,
            end_ns: t1,
        });
    }
    if keep_frames {
        rec.frames.push((
            Request::Close {
                session: id.to_bits(),
            },
            Reply::Closed,
        ));
    }
    rec.serve(Served {
        query,
        target,
        digest,
        expands,
        shown,
        cost: state.cost.total_cost() as u64,
    });
    Ok(())
}

/// What the passes measured.
struct Passes {
    rec: ClientRec,
    /// Sessions completed and nanoseconds taken, per pass.
    rates: Vec<(u64, u64)>,
    /// Sessions per second over the passes with tracing off and on
    /// (traced runs alternate by pass).
    trace_rates: (f64, f64),
    /// Engine statistics and sessions opened per shard of the last pass.
    stats: ServeStats,
    opened: Vec<u64>,
    /// Sessions in one pass.
    population: usize,
    /// Trees built during the last pass.
    builds: u64,
    /// Client-observed OPEN and EXPAND time, and the materialization the
    /// client's own reads triggered, during the last pass.
    client_ns: u64,
    materialize_ns: u64,
    errors: Vec<String>,
}

/// Serves the population in passes, the first on the set-up's tier and
/// each later one on a fresh tier, for `seconds`: a pass is started while
/// the previous one would still end in time, and at least `MIN_PASSES`
/// are made. A traced run traces every other pass.
fn passes(setup: Setup, seconds: u64, traced: bool) -> (Passes, Universe) {
    let Setup {
        universe,
        plans,
        tier,
        probe,
    } = setup;
    let mut out = Passes {
        rec: ClientRec::new(),
        rates: Vec::new(),
        trace_rates: (0.0, 0.0),
        stats: tier.stats(),
        opened: Vec::new(),
        population: plans.len(),
        builds: 0,
        client_ns: 0,
        materialize_ns: 0,
        errors: Vec::new(),
    };
    let deadline = now_ns() + seconds * 1_000_000_000;
    let mut tier = Some(tier);
    let mut last_ns = 0;
    let (mut off, mut on) = ((0u64, 0u64), (0u64, 0u64));
    for pass in 0.. {
        let now = now_ns();
        if pass >= MIN_PASSES && now + last_ns > deadline {
            break;
        }
        let tier = match tier.take().map_or_else(|| make_tier(&universe, &probe), Ok) {
            Ok(t) => t,
            Err(e) => {
                out.errors.push(format!("pass {pass} set-up: {e}"));
                break;
            }
        };
        let tracing = traced && pass % 2 == 1;
        trace::set_enabled(tracing);
        let builds0 = probe.samples.lock().expect("probe lock").len();
        out.rec.pass = Some(pass);
        let client_ns = |r: &ClientRec| r.open.sum() + r.expand.sum();
        let (client0, materialize0) = (client_ns(&out.rec), out.rec.materialize_ns);
        let (done0, t0) = (out.rec.completed, now_ns());
        for (k, plan) in plans.iter().enumerate() {
            let id = (pass * plans.len() + k) as u64;
            if let Err(e) = run_session(&tier, &universe, *plan, id, &mut out.rec, traced) {
                out.errors.push(format!("pass {pass} session {k}: {e}"));
            }
        }
        last_ns = now_ns() - t0;
        let done = out.rec.completed - done0;
        out.rates.push((done, last_ns));
        let acc = if tracing { &mut on } else { &mut off };
        acc.0 += done;
        acc.1 += last_ns;
        out.stats = tier.stats();
        out.opened = (0..SHARDS)
            .map(|s| tier.shard_stats(s).sessions_opened)
            .collect();
        out.builds = (probe.samples.lock().expect("probe lock").len() - builds0) as u64;
        out.client_ns = client_ns(&out.rec) - client0;
        out.materialize_ns = out.rec.materialize_ns - materialize0;
    }
    trace::set_enabled(false);
    let rate = |(n, ns): (u64, u64)| n as f64 / (ns as f64 / 1e9);
    out.trace_rates = (rate(off), rate(on));
    (out, universe)
}

/// Runs `cold_explore`: set up (the last set-up is measured), measure in
/// passes, check against the sequential replay, report, and in an
/// untraced run time the set-ups after the run.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut query_build_ns = Vec::new();
    let (setup, setup_secs) = match timed_setups(SETUP_BEFORE, || {
        let s = set_up(args.seed)?;
        query_build_ns.extend_from_slice(&s.universe.build_ns);
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("set-up: {e}"));
            return report;
        }
    };
    setup.probe.on.store(args.trace, Ordering::Relaxed);
    let probe = Arc::clone(&setup.probe);
    let ring_before = trace::ring_pushed();
    let (mut out, universe) = passes(setup, args.seconds, args.trace);
    let ring_events = trace::ring_pushed() - ring_before;
    let rss = peak_rss_mib("self");
    let flight = flightrec::flight_snapshot();
    let n_passes = out.rates.len();

    report.prov("universe_queries", universe.queries.len());
    report.prov("clients", 1);
    report.prov("population", out.population);
    report.prov("passes", n_passes);
    report.prov("sessions_completed", out.rec.completed);
    report.attempted = out.rec.attempted;
    report.failed = out.rec.failed;
    for e in out.errors.iter().take(3) {
        report.problem(e.clone());
    }
    if out.rec.failed > 0 {
        report.problem(format!(
            "{} operations failed on a clean in-process workload",
            out.rec.failed
        ));
    }
    clean_engine_checks(&out.stats, out.rec.degraded, &mut report);
    for e in &out.rec.inconsistent {
        report.problem(format!("one navigation served two ways: {e}"));
    }
    let served: Vec<Served> = out.rec.served.values().copied().collect();
    match oracle::verify(&universe, &served, crate::nproc()) {
        Ok(n) => report.prov("distinct_navigations_replayed", n),
        Err(e) => report.problem(format!("sequential replay mismatch: {e}")),
    }

    if !args.trace {
        let r = &out.rec;
        report.unit_ms("open_p50_ms", &r.open, 0.50, n_passes);
        report.unit_ms("open_p90_ms", &r.open, 0.90, n_passes);
        report.unit_ms("expand_p50_ms", &r.expand, 0.50, n_passes);
        report.unit_ms("expand_p99_ms", &r.expand, 0.99, n_passes);
        report.unit_ms("session_p50_ms", &r.session, 0.50, n_passes);
        report.counted(
            "sessions_per_s",
            fast_half_rate(&out.rates),
            "1/s",
            r.session.len(),
        );
        // Every pass serves the same population, so this is its mean.
        report.counted(
            "nav_cost_per_session",
            r.cost as f64 / r.completed.max(1) as f64,
            "concepts_cites",
            r.completed as usize,
        );
        report.counted(
            "ok_frac",
            (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64,
            "ratio",
            r.attempted as usize,
        );
        report.metric("rss_mb", rss.unwrap_or(f64::NAN), "MiB");
        drop(universe);
        finish_setups(&mut report, setup_secs, || set_up(args.seed));
    } else {
        let tier_builds = probe.samples.lock().expect("probe lock").clone();
        let stats = &out.stats;
        let engine_ns = stage_total_ns(stats, "expand") + stage_total_ns(stats, "open_session");
        let unattributed = 1.0 - engine_ns as f64 / out.client_ns.max(1) as f64;
        let spans = write_spans(args, &[std::mem::take(&mut out.rec.spans)], &mut report);
        let layers = layers::Inputs {
            tier_builds: out.builds,
            query_build_ns: query_build_ns.into_iter().chain(tier_builds).collect(),
            stats,
            client_materialize_ns: out.materialize_ns,
            flight: flight
                .iter()
                .map(bionav_core::FlightRecord::from_entry)
                .collect(),
            sessions_opened: out.opened.clone(),
            frames: std::mem::take(&mut out.rec.frames),
            rtt: [
                &out.rec.open,
                &out.rec.expand,
                &out.rec.show,
                &out.rec.close,
            ],
            unattributed,
            lag: &out.rec.gap,
            trace_rates: out.trace_rates,
            trace_events: ring_events + spans as u64,
        };
        layers.report(&mut report);
    }
    report
}

/// The clean in-process workloads must never shed, degrade or quarantine.
fn clean_engine_checks(stats: &ServeStats, degraded_replies: u64, report: &mut Report) {
    let bad = [
        ("shed", stats.shed_expands),
        ("deadline-rejected", stats.deadline_rejects),
        ("breaker-rejected", stats.breaker_rejects),
        ("degraded", stats.degraded_expands.max(degraded_replies)),
        ("panicked", stats.session_panics),
        ("quarantined", stats.sessions_quarantined as u64),
    ];
    for (what, n) in bad {
        if n > 0 {
            report.problem(format!(
                "{n} operations {what} on a clean in-process workload"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_against_attempts() {
        let universe = Universe::build(0.05, 0);
        let probe = Arc::new(BuildProbe::default());
        let tier = make_tier(&universe, &probe).expect("tier");
        let mut rec = ClientRec::new();
        let plan = |query| Plan {
            query,
            target: NavNodeId(1),
        };
        run_session(&tier, &universe, plan(0), 0, &mut rec, false).expect("clean session");
        let clean = rec.attempted;
        assert_eq!(rec.failed, 0);
        assert!(clean >= 3, "OPEN, SHOWRESULTS and CLOSE at least");
        // A query with no results makes OPEN fail: an attempt that failed.
        let mut bad = Universe::build(0.05, 0);
        bad.queries[0] = crate::universe::QueryInfo::from_tree(
            "zzznoresultszzz",
            &crate::universe::fresh_tree(&universe.workload, &universe.queries[0].keywords),
        );
        assert!(run_session(&tier, &bad, plan(0), 1, &mut rec, false).is_err());
        assert_eq!(rec.attempted, clean + 1);
        assert_eq!(rec.failed, 1);
        assert_eq!(rec.served.len(), 1);
    }
}
