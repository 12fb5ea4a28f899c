//! `wire_openloop`: a `bionav serve --shards 2` child process reached over
//! loopback TCP, driven open-loop from a `bionav_workload::openloop`
//! schedule at a fixed offered rate.
//!
//! Every session replays its plan's EXPAND/EXPLORE steps along a walk the
//! sequential reference computed up front (EXPAND the most recently
//! revealed expandable node, EXPLORE the latest revealed one), ends with a
//! SHOWRESULTS and a CLOSE, and every reply is compared with the reference.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bionav_core::session::Session;
use bionav_core::trace::{self, now_ns};
use bionav_core::{CostParams, FlightRecord, NavNodeId, ServeStats};
use bionav_proto::{encode_request, Reply, ReplyReader, Request};
use bionav_workload::openloop::{generate, OpenLoopConfig, SessionOp, SessionPlan};
use bionav_workload::paper_queries;

use crate::layers::{self, stage_total_ns};
use crate::report::{peak_rss_mib, Report};
use crate::spans::{alternate_tracing, write_spans, Span, MAX_SPANS};
use crate::stats::{Samples, Windows};
use crate::universe::{fresh_tree, Universe};
use crate::{finish_setups, timed_setups, RunArgs, SCALE, SETUP_BEFORE, SHARDS};
/// Offered load, sessions per second. Fixed, never calibrated per run, so
/// parent and change receive the same schedule.
pub const OFFERED_RATE: f64 = 200.0;
/// Client connections, one client thread each.
const CONNECTIONS: usize = 2;
/// Mean think time before each follow-up step.
const THINK_MEAN_NS: u64 = 200_000;
/// Longest step chain a plan can have (the schedule generator's cap).
const MAX_STEPS: usize = 32;
/// Length of the time windows the measured run is cut into for its
/// statistics: about 800 sessions and 1600 EXPANDs each.
const WINDOW_SECS: u64 = 4;
/// How close to a session's intended start a client stops sleeping and
/// spins.
const SPIN_NS: u64 = 200_000;
/// Request/reply pairs kept per connection for the codec timing.
const MAX_FRAMES: usize = 4096;

/// `sched_param` of `sched_setscheduler(2)`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `SCHED_IDLE`: runs only when no other thread wants the CPU.
const SCHED_IDLE: i32 = 5;

/// Spins at `SCHED_IDLE` priority until `on` clears, so a core never
/// halts while the run measures (the effect of booting with `idle=poll`).
/// A virtual CPU that halts between requests is woken by the hypervisor,
/// which on a shared host takes a time that doubles with the host's load;
/// any thread of the program or of the clients preempts the spinner at
/// once.
fn idle_spinner(on: &AtomicBool) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `sched_param` that outlives the call, and
    // pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        return;
    }
    // Ordering: Relaxed — a stop flag; nothing is published through it.
    while on.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

/// Clears its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // Ordering: Relaxed — a stop flag; nothing is published through it.
        self.0.store(false, Ordering::Relaxed);
    }
}

/// The `bionav serve` child; killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &SHARDS.to_string(),
            ])
            .args(["--workload", &SCALE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        // Two banner lines: the bound address, then a query suggestion.
        let mut banner = String::new();
        for _ in 0..2 {
            let mut line = String::new();
            if server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?
                == 0
            {
                return Err(format!("server exited before its banner: {banner:?}"));
            }
            banner.push_str(&line);
        }
        server.addr = banner
            .lines()
            .find_map(|l| l.strip_prefix("bionav serving on "))
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or(format!("no address in banner {banner:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection: a blocking socket plus the reply decoder.
struct Client {
    stream: TcpStream,
    reader: ReplyReader,
    pending: VecDeque<Reply>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            reader: ReplyReader::new(),
            pending: VecDeque::new(),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Reply, String> {
        self.stream
            .write_all(&encode_request(req))
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = [0u8; 8192];
        loop {
            if let Some(r) = self.pending.pop_front() {
                return Ok(r);
            }
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let replies = self
                .reader
                .feed_bytes(&buf[..n])
                .map_err(|e| e.to_string())?;
            self.pending.extend(replies);
        }
    }

    fn stats(&mut self) -> Result<ServeStats, String> {
        match self.call(&Request::Stats)? {
            Reply::Stats { json } => ServeStats::from_json(&json).map_err(|e| e.to_string()),
            other => Err(format!("STATS answered {other:?}")),
        }
    }
}

/// The open-loop schedule of a run: Poisson arrivals at `OFFERED_RATE`
/// over `seconds`, Zipf over the ten Table I queries, Markov steps.
fn schedule(seed: u64, seconds: u64) -> Vec<SessionPlan> {
    generate(&OpenLoopConfig {
        seed,
        arrival_rate_per_sec: OFFERED_RATE,
        duration_ns: seconds * 1_000_000_000,
        zipf_s: 1.0,
        expand_continue: 0.6,
        explore_bias: 0.3,
        think_mean_ns: THINK_MEAN_NS,
    })
}

/// The reference walk of one query: what every reply along it must be.
#[derive(Debug, PartialEq)]
struct Walk {
    keywords: String,
    roots: Vec<u32>,
    /// EXPANDed nodes in order, with the cut each revealed.
    expands: Vec<(u32, Vec<u32>)>,
    /// SHOWRESULTS node and citations after `j` EXPANDs, `j = 0..=len`.
    shown: Vec<(u32, Vec<u64>)>,
}

/// Walks each Table I query sequentially over a fresh tree, up to
/// `MAX_STEPS` EXPANDs.
fn walks(universe: &Universe) -> Result<Vec<Walk>, String> {
    universe
        .queries
        .iter()
        .map(|q| {
            let nav = fresh_tree(&universe.workload, &q.keywords);
            let mut s = Session::new(&nav, CostParams::default());
            let ids = |c: Vec<bionav_medline::CitationId>| {
                c.into_iter().map(|c| u64::from(c.0)).collect()
            };
            let roots = s.visualize().iter().map(|v| v.node.0).collect();
            let mut frontier = vec![NavNodeId::ROOT];
            let mut current = NavNodeId::ROOT;
            let mut shown = vec![(
                current.0,
                ids(s.show_results(current).map_err(|e| e.to_string())?),
            )];
            let mut expands = Vec::new();
            while expands.len() < MAX_STEPS {
                let Some(node) =
                    std::iter::from_fn(|| frontier.pop()).find(|&n| s.component_size(n) > 1)
                else {
                    break;
                };
                let revealed = s
                    .expand(node)
                    .map_err(|e| format!("reference EXPAND: {e}"))?;
                frontier.extend(revealed.iter().rev());
                current = revealed[0];
                expands.push((node.0, revealed.iter().map(|n| n.0).collect()));
                shown.push((
                    current.0,
                    ids(s.show_results(current).map_err(|e| e.to_string())?),
                ));
            }
            Ok(Walk {
                keywords: q.keywords.clone(),
                roots,
                expands,
                shown,
            })
        })
        .collect()
}

/// One connection's measurements.
struct ConnRec {
    /// The windows samples are binned in.
    w: Windows,
    /// OPEN from the session's intended start to the Opened reply.
    open: Samples,
    open_rtt: Samples,
    expand: Samples,
    show: Samples,
    close: Samples,
    /// Intended start to the final SHOWRESULTS reply.
    session: Samples,
    /// How late each session was picked up.
    lag: Samples,
    costs: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    spans: Vec<Span>,
    frames: Vec<(Request, Reply)>,
}

impl ConnRec {
    fn new(w: Windows) -> Self {
        ConnRec {
            w,
            open: Samples::new(),
            open_rtt: Samples::new(),
            expand: Samples::new(),
            show: Samples::new(),
            close: Samples::new(),
            session: Samples::new(),
            lag: Samples::new(),
            costs: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            spans: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Sends one request, times it and checks the reply with `check`.
    fn op(
        &mut self,
        client: &mut Client,
        req: Request,
        keep: bool,
        check: impl FnOnce(&Reply) -> Result<(), String>,
    ) -> Result<(Reply, u64, u64), String> {
        self.attempted += 1;
        let t0 = now_ns();
        let reply = client.call(&req).inspect_err(|_| self.failed += 1)?;
        let t1 = now_ns();
        if let Reply::Error { message } | Reply::Throttled { message, .. } = &reply {
            self.failed += 1;
            return Err(format!("{req:?}: {message}"));
        }
        if let Err(e) = check(&reply) {
            self.mismatches.push(e.clone());
            return Err(e);
        }
        if keep && self.frames.len() < MAX_FRAMES {
            self.frames.push((req, reply.clone()));
        }
        Ok((reply, t0, t1))
    }
}

/// Drives one session of the schedule over `client`; returns its §III
/// cost, counted from the replies.
fn run_session(
    client: &mut Client,
    walk: &Walk,
    plan: &SessionPlan,
    sid: u64,
    intended_ns: u64,
    rec: &mut ConnRec,
    traced: bool,
) -> Result<u64, String> {
    let traced = traced && rec.spans.len() < MAX_SPANS;
    let (reply, t0, t1) = rec.op(
        client,
        Request::Open {
            query: walk.keywords.clone(),
        },
        traced,
        |r| match r {
            Reply::Opened { roots, .. }
                if roots.iter().map(|n| n.node).eq(walk.roots.iter().copied()) =>
            {
                Ok(())
            }
            other => Err(format!("OPEN {:?}: {other:?}", walk.keywords)),
        },
    )?;
    let Reply::Opened { session, .. } = reply else {
        unreachable!("checked above")
    };
    rec.open.push(rec.w.index(t1), t1 - intended_ns);
    rec.open_rtt.push(rec.w.index(t1), t1 - t0);
    if traced {
        rec.spans.push(Span {
            session: sid,
            name: "open",
            start_ns: t0,
            end_ns: t1,
        });
    }
    let mut cost = 0u64;
    let mut j = 0usize;
    let show = |rec: &mut ConnRec, client: &mut Client, j: usize| -> Result<u64, String> {
        let (node, want) = &walk.shown[j];
        let (_, t0, t1) = rec.op(
            client,
            Request::ShowResults {
                session,
                node: *node,
            },
            traced,
            |r| match r {
                Reply::Results { citations } if citations == want => Ok(()),
                other => Err(format!(
                    "SHOWRESULTS {node} of {:?}: {other:?}",
                    walk.keywords
                )),
            },
        )?;
        rec.show.push(rec.w.index(t1), t1 - t0);
        if traced {
            rec.spans.push(Span {
                session: sid,
                name: "showresults",
                start_ns: t0,
                end_ns: t1,
            });
        }
        Ok(want.len() as u64)
    };
    for step in &plan.steps {
        if step.think_ns > 0 {
            std::thread::sleep(Duration::from_nanos(step.think_ns));
        }
        match step.op {
            SessionOp::Expand => {
                let Some((node, want)) = walk.expands.get(j) else {
                    continue;
                };
                let (_, t0, t1) = rec.op(
                    client,
                    Request::Expand {
                        session,
                        node: *node,
                    },
                    traced,
                    |r| match r {
                        Reply::Expanded {
                            revealed,
                            degraded: false,
                        } if revealed.iter().map(|n| n.node).eq(want.iter().copied()) => Ok(()),
                        other => Err(format!("EXPAND {node} of {:?}: {other:?}", walk.keywords)),
                    },
                )?;
                rec.expand.push(rec.w.index(t1), t1 - t0);
                if traced {
                    rec.spans.push(Span {
                        session: sid,
                        name: "expand",
                        start_ns: t0,
                        end_ns: t1,
                    });
                }
                cost += 1 + want.len() as u64;
                j += 1;
            }
            SessionOp::Explore => cost += show(rec, client, j)?,
        }
    }
    cost += show(rec, client, j)?;
    let t_done = now_ns();
    rec.session.push(rec.w.index(t_done), t_done - intended_ns);
    let (_, t0, t1) = rec.op(client, Request::Close { session }, traced, |r| match r {
        Reply::Closed => Ok(()),
        other => Err(format!("CLOSE: {other:?}")),
    })?;
    rec.close.push(rec.w.index(t1), t1 - t0);
    if traced {
        rec.spans.push(Span {
            session: sid,
            name: "close",
            start_ns: t0,
            end_ns: t1,
        });
        rec.spans.push(Span {
            session: sid,
            name: "session",
            start_ns: intended_ns,
            end_ns: t1,
        });
    }
    Ok(cost)
}

/// Server, reference walks and warm connections, ready to measure.
struct Setup {
    server: Server,
    walks: Vec<Walk>,
    clients: Vec<Client>,
    query_build_ns: Vec<(u64, u64)>,
}

/// Starts the server, computes the reference walks while it builds its
/// dataset, connects, and warms every walk once (a fixed operation count).
fn set_up(args: &RunArgs) -> Result<Setup, String> {
    let server = Server::spawn(&args.bionav)?;
    let universe = Universe::build(SCALE, 0);
    let walks = walks(&universe)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rec = ConnRec::new(Windows::new(0, 1, 1));
    for walk in &walks {
        let plan = SessionPlan {
            intended_start_ns: 0,
            query: String::new(),
            steps: vec![
                bionav_workload::SessionStep {
                    think_ns: 0,
                    op: SessionOp::Expand
                };
                walk.expands.len().max(1)
            ],
        };
        run_session(&mut clients[0], walk, &plan, 0, now_ns(), &mut rec, false)?;
    }
    Ok(Setup {
        server,
        walks,
        clients,
        query_build_ns: universe.build_ns,
    })
}

/// Engine statistics of the measured window: counters and stage totals as
/// `after − before`; stage percentiles as of `after`.
fn window(before: &ServeStats, after: &ServeStats) -> ServeStats {
    let mut w = after.clone();
    w.cache_hits -= before.cache_hits;
    w.cache_misses -= before.cache_misses;
    w.cache_evictions -= before.cache_evictions;
    w.cut_cache_hits -= before.cut_cache_hits;
    w.cut_cache_misses -= before.cut_cache_misses;
    w.shed_expands -= before.shed_expands;
    w.deadline_rejects -= before.deadline_rejects;
    w.breaker_rejects -= before.breaker_rejects;
    w.degraded_expands -= before.degraded_expands;
    for st in &mut w.stages {
        if let Some(b) = before.stages.iter().find(|b| b.stage == st.stage) {
            st.count -= b.count;
            st.total_ms -= b.total_ms;
        }
    }
    w
}

/// `bionav_sessions_opened_total` per shard, from the Prometheus text.
fn sessions_per_shard(prom: &str) -> Vec<u64> {
    let mut v: Vec<(String, u64)> = prom
        .lines()
        .filter(|l| l.starts_with("bionav_sessions_opened_total{"))
        .filter_map(|l| {
            let shard = l.split("shard=\"").nth(1)?.split('"').next()?.to_string();
            Some((shard, l.rsplit(' ').next()?.parse().ok()?))
        })
        .collect();
    v.sort();
    v.into_iter().map(|(_, n)| n).collect()
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut query_build_ns = Vec::new();
    let (setup, setup_secs) = match timed_setups(SETUP_BEFORE, || {
        let s = set_up(args)?;
        query_build_ns.extend_from_slice(&s.query_build_ns);
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("set-up: {e}"));
            return report;
        }
    };
    let Setup {
        server,
        walks,
        mut clients,
        ..
    } = setup;
    let names: Vec<String> = paper_queries().into_iter().map(|q| q.name).collect();
    let plans = schedule(args.seed, args.seconds);
    let before = match clients[0].stats() {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("STATS: {e}"));
            return report;
        }
    };

    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let errors = Mutex::new(Vec::new());
    let t0 = now_ns();
    let windows = Windows::new(
        t0,
        args.seconds,
        (args.seconds / WINDOW_SECS).max(1) as usize,
    );
    let spinning = AtomicBool::new(true);
    let (recs, rates) = std::thread::scope(|scope| {
        for _ in 0..crate::nproc() {
            scope.spawn(|| idle_spinner(&spinning));
        }
        // Stops the spinners however this closure ends, a client panic
        // included: the scope waits for every thread it spawned.
        let _stop = StopOnDrop(&spinning);
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (plans, walks, names, next, completed, errors) =
                    (&plans, &walks, &names, &next, &completed, &errors);
                scope.spawn(move || {
                    let mut rec = ConnRec::new(windows);
                    loop {
                        // Ordering: Relaxed — the counter only hands out plan
                        // indices; results travel through the join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else { break };
                        let intended = t0 + plan.intended_start_ns;
                        // Sleep to within SPIN_NS of the intended start, then
                        // spin: a sleeping thread wakes late by a scheduler-
                        // dependent delay that would otherwise land in OPEN.
                        loop {
                            let now = now_ns();
                            if now >= intended {
                                rec.lag.push(rec.w.index(now), now - intended);
                                break;
                            }
                            if intended - now > SPIN_NS {
                                std::thread::sleep(Duration::from_nanos(
                                    (intended - now - SPIN_NS).min(2_000_000),
                                ));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let q = names
                            .iter()
                            .position(|n| *n == plan.query)
                            .expect("plans name Table I queries");
                        let traced = args.trace && trace::is_enabled();
                        match run_session(
                            client, &walks[q], plan, i as u64, intended, &mut rec, traced,
                        ) {
                            Ok(cost) => {
                                rec.costs.push(cost);
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => errors
                                .lock()
                                .expect("error list")
                                .push(format!("session {i}: {e}")),
                        }
                    }
                    rec
                })
            })
            .collect();
        // Benchmark-side spans only: the server is another process and
        // keeps its own tracing off.
        let rates = if args.trace {
            alternate_tracing(&completed, args.seconds)
        } else {
            (0.0, 0.0)
        };
        let recs: Vec<ConnRec> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (recs, rates)
    });

    let mut all = ConnRec::new(windows);
    let mut spans = Vec::new();
    for mut r in recs {
        spans.push(std::mem::take(&mut r.spans));
        all.open.extend(r.open);
        all.open_rtt.extend(r.open_rtt);
        all.expand.extend(r.expand);
        all.show.extend(r.show);
        all.close.extend(r.close);
        all.session.extend(r.session);
        all.lag.extend(r.lag);
        all.costs.extend(r.costs);
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.mismatches.extend(r.mismatches);
        all.frames.extend(r.frames);
    }
    let client = &mut clients[0];
    let after = client.stats();
    let prom = client.call(&Request::Prom);
    let flight = client.call(&Request::Debug);
    let rss = peak_rss_mib(&server.pid());
    drop(clients);
    drop(server);

    report.prov("offered_rate_per_s", OFFERED_RATE);
    report.prov("connections", CONNECTIONS);
    report.prov("sessions_planned", plans.len());
    report.prov("sessions_completed", all.costs.len());
    report.attempted = all.attempted;
    report.failed = all.failed;
    for e in errors.lock().expect("error list").iter().take(3) {
        report.problem(e.clone());
    }
    for m in all.mismatches.iter().take(3) {
        report.problem(format!("reply differs from the sequential reference: {m}"));
    }
    let window = match after {
        Ok(after) => window(&before, &after),
        Err(e) => {
            report.problem(format!("STATS: {e}"));
            return report;
        }
    };
    if window.degraded_expands > 0 {
        report.problem(format!("{} EXPANDs degraded", window.degraded_expands));
    }

    if !args.trace {
        let n = windows.n;
        report.unit_ms("open_p50_ms", &all.open, 0.50, n);
        report.unit_ms("open_p90_ms", &all.open, 0.90, n);
        report.unit_ms("expand_p50_ms", &all.expand, 0.50, n);
        report.unit_ms("expand_p99_ms", &all.expand, 0.99, n);
        report.unit_ms("session_p50_ms", &all.session, 0.50, n);
        let in_windows: usize = all.session.unit_counts().iter().sum();
        report.counted(
            "sessions_per_s",
            in_windows as f64 / (n as f64 * windows.len_ns as f64 / 1e9),
            "1/s",
            in_windows,
        );
        let mean_cost = all.costs.iter().sum::<u64>() as f64 / all.costs.len().max(1) as f64;
        report.counted(
            "nav_cost_per_session",
            mean_cost,
            "concepts_cites",
            all.costs.len(),
        );
        report.counted(
            "ok_frac",
            (all.attempted - all.failed) as f64 / all.attempted.max(1) as f64,
            "ratio",
            all.attempted as usize,
        );
        report.metric("rss_mb", rss.unwrap_or(f64::NAN), "MiB");
        finish_setups(&mut report, setup_secs, || set_up(args));
    } else {
        let flight: Vec<FlightRecord> = match flight {
            Ok(Reply::Flight { json }) => serde_json::from_str(&json).unwrap_or_default(),
            _ => Vec::new(),
        };
        let opened = match prom {
            Ok(Reply::Prom { text }) => sessions_per_shard(&text),
            _ => Vec::new(),
        };
        let engine_ns = stage_total_ns(&window, "expand") + stage_total_ns(&window, "open_session");
        let client_ns = all.open_rtt.sum() + all.expand.sum();
        let written = write_spans(args, &spans, &mut report);
        let layers = layers::Inputs {
            query_build_ns,
            tier_builds: window.cache_misses,
            stats: &window,
            client_materialize_ns: 0,
            flight,
            sessions_opened: opened,
            frames: std::mem::take(&mut all.frames),
            rtt: [&all.open_rtt, &all.expand, &all.show, &all.close],
            unattributed: 1.0 - engine_ns as f64 / client_ns.max(1) as f64,
            lag: &all.lag,
            trace_rates: rates,
            trace_events: written as u64,
        };
        layers.report(&mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_walks() {
        assert_eq!(schedule(4, 2), schedule(4, 2));
        assert_ne!(schedule(4, 2), schedule(5, 2));
        let plans = schedule(4, 2);
        // ~400 arrivals at 200/s over 2 s.
        assert!((300..500).contains(&plans.len()), "{}", plans.len());
        let universe = Universe::build(0.05, 0);
        let walks = walks(&universe).expect("reference walks");
        assert_eq!(walks, super::walks(&universe).expect("reference walks"));
        for w in &walks {
            assert_eq!(w.shown.len(), w.expands.len() + 1);
            assert!(w.expands.len() <= MAX_STEPS);
        }
    }

    #[test]
    fn per_shard_sessions_come_from_the_prometheus_text() {
        let prom = "# TYPE bionav_sessions_opened_total counter\n\
                    bionav_sessions_opened_total{shard=\"1\"} 7\n\
                    bionav_sessions_opened_total{shard=\"0\"} 5\n\
                    bionav_sessions_closed_total{shard=\"0\"} 5\n";
        assert_eq!(sessions_per_shard(prom), vec![5, 7]);
    }
}
