//! The I/O-free REPL core: one command line in, one response string out.
//!
//! Navigation runs through the [`bionav_core::Engine`] serving layer: every
//! `query` resolves its navigation tree through the engine's LRU cache (so
//! re-issuing a query is a cache hit, not a rebuild), every navigation
//! lives in an engine-managed session, and `serve-stats` surfaces the
//! engine telemetry — cache hit rate, per-EXPAND latency percentiles,
//! session counts.

#![expect(
    clippy::expect_used,
    reason = "interactive surface: commands validate the session up front, then expect() on engine calls the validation made infallible; an abort here ends one REPL turn, not a serving process"
)]

use std::fmt::Write as _;
use std::sync::Arc;

use bionav_core::engine::{Engine, SharedTree};
use bionav_core::session::SessionState;
use bionav_core::trace::flightrec;
use bionav_core::{CostParams, NavNodeId, NavigationTree, ShardSessionId, ShardedEngine, Verb};

use crate::Dataset;

/// Writes `bytes` to `path` through a temp sibling plus rename, so a
/// concurrent reader (or a crash mid-write) never observes a truncated
/// file — the dump commands overwrite prior dumps in place.
fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = format!("{path}.tmp.{}", std::process::id());
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// What `save` writes and `load` restores: the query plus the exported
/// session state (the tree itself is rebuilt from the query, like the
/// paper's online subsystem does between requests).
#[derive(serde::Serialize, serde::Deserialize)]
struct SavedSession {
    keywords: String,
    state: SessionState,
}

/// State of one keyword query under navigation: the engine session handle
/// plus the numbering of the last rendered listing.
struct NavState {
    keywords: String,
    id: ShardSessionId,
    /// The numbering used by the last rendered listing: index `i` shown to
    /// the user as `#(i+1)`.
    numbered: Vec<NavNodeId>,
}

/// What a handled command produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Response {
    /// Text to print.
    Text(String),
    /// The user asked to leave.
    Quit,
}

impl Response {
    /// The rendered text (empty for [`Response::Quit`]).
    pub fn text(&self) -> &str {
        match self {
            Response::Text(t) => t,
            Response::Quit => "",
        }
    }
}

/// The navigation-tree builder the REPL's engine uses.
pub type ReplBuilder = Box<dyn Fn(&str) -> Option<SharedTree> + Send + Sync>;

/// Builds the sharded serving tier every front end (REPL and `serve`)
/// navigates through: `n_shards` engines, each with its own tree builder
/// over the shared dataset and a per-shard cache of `cache_capacity`.
pub fn sharded_engine(
    dataset: &Arc<Dataset>,
    params: CostParams,
    n_shards: usize,
    cache_capacity: usize,
) -> ShardedEngine<ReplBuilder> {
    ShardedEngine::new(n_shards, |_| {
        let data = Arc::clone(dataset);
        let builder: ReplBuilder = Box::new(move |query: &str| {
            let outcome = data.index.query(query);
            if outcome.is_empty() {
                return None;
            }
            Some(Arc::new(NavigationTree::build(
                &data.hierarchy,
                &data.store,
                &outcome.citations,
            )))
        });
        Engine::new(builder, params.clone(), cache_capacity)
    })
}

/// The interactive navigation loop over one [`Dataset`].
pub struct Repl {
    dataset: Arc<Dataset>,
    state: Option<NavState>,
    engine: ShardedEngine<ReplBuilder>,
}

impl Repl {
    /// Creates a REPL over a dataset (a single-shard serving tier — the
    /// interactive loop has one user).
    pub fn new(dataset: Dataset, params: CostParams) -> Self {
        Repl::with_shards(dataset, params, 1)
    }

    /// Creates a REPL over an `n_shards` serving tier (what `serve-stats
    /// --shards` inspects; the TCP server uses the same constructor path).
    pub fn with_shards(dataset: Dataset, params: CostParams, n_shards: usize) -> Self {
        let dataset = Arc::new(dataset);
        Repl {
            engine: sharded_engine(&dataset, params, n_shards, 8),
            dataset,
            state: None,
        }
    }

    /// The startup banner.
    pub fn banner(&self) -> String {
        let mut s = format!(
            "BioNav — navigate query results along a concept hierarchy\n\
             data: {} ({} concepts, {} citations)\n",
            self.dataset.origin,
            self.dataset.hierarchy.len() - 1,
            self.dataset.store.len()
        );
        if let Some(hint) = &self.dataset.suggestion {
            let _ = writeln!(s, "try:  query {hint}");
        }
        s.push_str("type `help` for commands\n");
        s
    }

    /// Handles one command line.
    pub fn handle(&mut self, line: &str) -> Response {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "" => Response::Text(String::new()),
            "help" | "?" => Response::Text(HELP.to_string()),
            "quit" | "exit" | "q" => Response::Quit,
            "query" => Response::Text(self.cmd_query(rest)),
            "ls" | "tree" => Response::Text(self.render_tree()),
            "expand" | "x" => Response::Text(self.cmd_expand(rest)),
            "cut" => Response::Text(self.cmd_cut(rest)),
            "info" | "i" => Response::Text(self.cmd_info(rest)),
            "show" | "s" => Response::Text(self.cmd_show(rest)),
            "ignore" => Response::Text(self.cmd_ignore(rest)),
            "back" | "undo" => Response::Text(self.cmd_back()),
            "cost" => Response::Text(self.cmd_cost()),
            "save" => Response::Text(self.cmd_save(rest)),
            "load" => Response::Text(self.cmd_load(rest)),
            "serve-stats" | "stats" => Response::Text(self.cmd_serve_stats(rest)),
            "serve-reset" => Response::Text(self.cmd_serve_reset(rest)),
            "trace" => Response::Text(self.cmd_trace(rest)),
            "flightrec" => Response::Text(self.cmd_flightrec(rest)),
            other => Response::Text(format!("unknown command {other:?}; type `help`\n")),
        }
    }

    /// Closes the active engine session, if any. The exported state is
    /// discarded (the REPL only persists on `save`), and an unknown-session
    /// refusal is moot — the slot is gone either way.
    fn drop_session(&mut self) {
        if let Some(old) = self.state.take() {
            let _ = self.engine.close_session(old.id);
        }
    }

    fn cmd_query(&mut self, keywords: &str) -> String {
        if keywords.is_empty() {
            return "usage: query <keywords>\n".to_string();
        }
        let outcome = self.dataset.index.query(keywords);
        if outcome.is_empty() {
            return format!("no citations match {keywords:?}\n");
        }
        self.drop_session();
        let id = self
            .engine
            .open_session(keywords)
            .expect("non-empty results open a session");
        self.state = Some(NavState {
            keywords: keywords.to_string(),
            id,
            numbered: Vec::new(),
        });
        let (concepts, attached) = self
            .engine
            .with_session(id, |s| {
                (s.nav().len() - 1, s.nav().total_attached_with_duplicates())
            })
            .expect("just opened");
        format!(
            "{} citations; navigation tree: {} concepts, {} attachments w/ duplicates\n{}",
            outcome.len(),
            concepts,
            attached,
            self.render_tree()
        )
    }

    fn render_tree(&mut self) -> String {
        let Some(state) = self.state.as_mut() else {
            return NO_QUERY.to_string();
        };
        let (out, numbered) = self
            .engine
            .with_session(state.id, |s| {
                let vis = s.visualize();
                let mut out = String::new();
                for (i, v) in vis.iter().enumerate() {
                    // Indent by the chain of *visible* ancestors.
                    let mut depth = 0;
                    let mut cur = v.parent;
                    while let Some(p) = cur {
                        depth += 1;
                        cur = vis.iter().find(|w| w.node == p).and_then(|w| w.parent);
                    }
                    let marker = if v.expandable { "  >>>" } else { "" };
                    let _ = writeln!(
                        out,
                        "{:>3}. {}{} ({}){}",
                        i + 1,
                        "  ".repeat(depth),
                        s.nav().label(v.node),
                        v.component_distinct,
                        marker
                    );
                }
                let numbered = vis.iter().map(|v| v.node).collect();
                (out, numbered)
            })
            .expect("active state always has a live session");
        state.numbered = numbered;
        out
    }

    fn pick(&self, arg: &str) -> Result<NavNodeId, String> {
        let state = self.state.as_ref().ok_or_else(|| NO_QUERY.to_string())?;
        let idx: usize = arg
            .parse()
            .map_err(|_| format!("expected a concept number, got {arg:?}\n"))?;
        state
            .numbered
            .get(idx.wrapping_sub(1))
            .copied()
            .ok_or_else(|| format!("no concept #{idx}; run `ls`\n"))
    }

    fn cmd_expand(&mut self, arg: &str) -> String {
        let node = match self.pick(arg) {
            Ok(n) => n,
            Err(e) => return e,
        };
        let id = self.state.as_ref().expect("pick checked").id;
        let blocked = self
            .engine
            .with_session(id, |s| {
                (s.component_size(node) <= 1).then(|| s.nav().label(node).to_string())
            })
            .expect("active state has a live session");
        if let Some(label) = blocked {
            return format!("{label:?} hides nothing (no >>>)\n");
        }
        let start = bionav_core::trace::now_ns();
        let reply = match self.engine.expand(id, node) {
            Ok(reply) => reply,
            Err(e) => return format!("expand failed: {e}\n"),
        };
        let degraded = match reply.degraded {
            Some(reason) => format!(" [degraded: {}]", reason.name()),
            None => String::new(),
        };
        format!(
            "revealed {} concepts in {:.1} ms{}\n{}",
            reply.revealed.len(),
            bionav_core::trace::now_ns().saturating_sub(start) as f64 / 1e6,
            degraded,
            self.render_tree()
        )
    }

    /// A manual EdgeCut: the user names the hidden concepts to reveal (by
    /// label substring), all inside one visible component.
    fn cmd_cut(&mut self, args: &str) -> String {
        use bionav_core::active::EdgeCut;
        let Some(state) = self.state.as_ref() else {
            return NO_QUERY.to_string();
        };
        if args.is_empty() {
            return "usage: cut <label substring> [; <label substring>]…\n".to_string();
        }
        let id = state.id;
        let outcome = self
            .engine
            .with_session(id, |s| {
                let mut lower = Vec::new();
                for needle in args.split(';').map(str::trim).filter(|s| !s.is_empty()) {
                    let needle_l = needle.to_lowercase();
                    let hit = s.nav().iter_preorder().find(|&n| {
                        !s.active().is_visible(n)
                            && s.nav().label(n).to_lowercase().contains(&needle_l)
                    });
                    match hit {
                        Some(n) => lower.push(n),
                        None => return Err(format!("no hidden concept matches {needle:?}\n")),
                    }
                }
                let root = s.active().component_root_of(lower[0]);
                let cut = EdgeCut::new(lower);
                match s.expand_with(root, &cut) {
                    Ok(revealed) => Ok(format!(
                        "manual EdgeCut on {:?} revealed {} concepts\n",
                        s.nav().label(root),
                        revealed.len()
                    )),
                    Err(e) => Err(format!("invalid EdgeCut: {e}\n")),
                }
            })
            .expect("active state has a live session");
        match outcome {
            Ok(head) => format!("{head}{}", self.render_tree()),
            Err(e) => e,
        }
    }

    /// Details of a visible concept.
    fn cmd_info(&mut self, arg: &str) -> String {
        let node = match self.pick(arg) {
            Ok(n) => n,
            Err(e) => return e,
        };
        let id = self.state.as_ref().expect("pick checked").id;
        self.engine
            .with_session(id, |s| {
                let nav = s.nav();
                format!(
                    "{label}\n  MeSH level {level}, navigation depth {navd}\n  |L(n)| = {attached}              citations attached directly\n  component: {size} hidden concepts, {distinct}              distinct citations\n",
                    label = nav.label(node),
                    level = nav.hierarchy_depth(node),
                    navd = nav.nav_depth(node),
                    attached = nav.results_count(node),
                    size = s.component_size(node),
                    distinct = s.component_distinct(node),
                )
            })
            .expect("active state has a live session")
    }

    fn cmd_show(&mut self, arg: &str) -> String {
        // SHOWRESULTS has no engine entry point of its own, so the REPL
        // front end mints its request context here.
        let _scope = flightrec::ensure_scope(Verb::ShowResults);
        let node = match self.pick(arg) {
            Ok(n) => n,
            Err(e) => return e,
        };
        let id = self.state.as_ref().expect("pick checked").id;
        let dataset = &self.dataset;
        self.engine
            .with_session(id, |s| match s.show_results(node) {
                Err(e) => format!("{e}\n"),
                Ok(ids) => {
                    let mut out =
                        format!("{} citations under {:?}:\n", ids.len(), s.nav().label(node));
                    for (shown, pmid) in ids.iter().enumerate() {
                        if shown == 10 {
                            let _ = writeln!(out, "  … {} more", ids.len() - 10);
                            break;
                        }
                        let title = dataset
                            .store
                            .get(*pmid)
                            .map(|c| c.title.as_str())
                            .unwrap_or("<missing>");
                        let _ = writeln!(out, "  PMID {:>8}  {}", pmid.0, title);
                    }
                    out
                }
            })
            .expect("active state has a live session")
    }

    fn cmd_ignore(&mut self, arg: &str) -> String {
        match self.pick(arg) {
            Ok(n) => {
                let id = self.state.as_ref().expect("pick checked").id;
                self.engine
                    .with_session(id, |s| {
                        s.ignore(n);
                        format!("ignored {:?}\n", s.nav().label(n))
                    })
                    .expect("active state has a live session")
            }
            Err(e) => e,
        }
    }

    fn cmd_back(&mut self) -> String {
        let Some(state) = self.state.as_ref() else {
            return NO_QUERY.to_string();
        };
        let undone = self
            .engine
            .with_session(state.id, |s| s.backtrack())
            .expect("active state has a live session");
        match undone {
            Ok(()) => format!("undid the last expansion\n{}", self.render_tree()),
            Err(e) => format!("{e}\n"),
        }
    }

    /// Persists the navigation (query + state) as JSON.
    fn cmd_save(&mut self, path: &str) -> String {
        let Some(state) = self.state.as_ref() else {
            return NO_QUERY.to_string();
        };
        if path.is_empty() {
            return "usage: save <file>\n".to_string();
        }
        let saved = SavedSession {
            keywords: state.keywords.clone(),
            state: self
                .engine
                .with_session(state.id, |s| s.export_state())
                .expect("active state has a live session"),
        };
        match std::fs::File::create(path)
            .map_err(|e| e.to_string())
            .and_then(|f| serde_json::to_writer(f, &saved).map_err(|e| e.to_string()))
        {
            Ok(()) => format!("session saved to {path}\n"),
            Err(e) => format!("save failed: {e}\n"),
        }
    }

    /// Restores a navigation saved with `save` (re-runs the query through
    /// the engine — a warm cache makes this a tree-cache hit — then
    /// re-attaches the session state, which the engine validates against
    /// the rebuilt tree).
    fn cmd_load(&mut self, path: &str) -> String {
        if path.is_empty() {
            return "usage: load <file>\n".to_string();
        }
        let saved: SavedSession = match std::fs::File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|f| serde_json::from_reader(f).map_err(|e| e.to_string()))
        {
            Ok(s) => s,
            Err(e) => return format!("load failed: {e}\n"),
        };
        let id = match self.engine.restore_session(&saved.keywords, saved.state) {
            Ok(id) => id,
            Err(e) => {
                return format!("load failed for {:?}: {e}\n", saved.keywords);
            }
        };
        self.drop_session();
        self.state = Some(NavState {
            keywords: saved.keywords.clone(),
            id,
            numbered: Vec::new(),
        });
        format!(
            "restored session for {:?}\n{}",
            saved.keywords,
            self.render_tree()
        )
    }

    fn cmd_cost(&self) -> String {
        let Some(state) = self.state.as_ref() else {
            return NO_QUERY.to_string();
        };
        let cost = self
            .engine
            .with_session(state.id, |s| s.cost().clone())
            .expect("active state has a live session");
        format!(
            "query {:?}: {} concepts examined + {} actions + {} citations listed = {}\n",
            state.keywords,
            cost.revealed,
            cost.expands,
            cost.results_inspected,
            cost.total_cost()
        )
    }

    /// Serving-engine telemetry: tree-cache behaviour, session counts,
    /// per-EXPAND latency percentiles, and the per-stage latency breakdown.
    /// `--json` emits the machine-readable [`ServeStats`] document and
    /// `--prom` the Prometheus text exposition.
    fn cmd_serve_stats(&self, rest: &str) -> String {
        // The telemetry verbs are REPL-minted request scopes too, so even
        // scrapes show up in the flight recorder.
        let _scope = flightrec::ensure_scope(if rest == "--prom" {
            Verb::Prom
        } else {
            Verb::Stats
        });
        match rest {
            "--json" => {
                // Serialization failure is reported, not papered over with
                // a placeholder document (DESIGN.md §5f error taxonomy).
                return match self.engine.stats().to_json() {
                    Ok(mut doc) => {
                        doc.push('\n');
                        doc
                    }
                    Err(e) => format!("serve-stats --json failed: {e}\n"),
                };
            }
            "--prom" => return self.engine.prometheus_text(),
            "--shards" => return self.render_shard_table(),
            "" => {}
            other => {
                return format!("usage: serve-stats [--json|--prom|--shards] (got {other:?})\n")
            }
        }
        let st = self.engine.stats();
        let mut out = format!(
            "serving engine telemetry\n\
             tree cache : {entries}/{cap} entries, {hits} hits / {misses} misses (hit rate {rate:.1}%), {ev} evictions\n\
             sessions   : {opened} opened, {closed} closed, {active} active\n\
             EXPAND     : {n} measured, p50 {p50:.0} µs, p95 {p95:.0} µs, p99 {p99:.0} µs\n\
             throughput : {sps:.2} sessions/sec over {secs:.1} s\n\
             fault plane: {deg} degraded ({myo} myopic / {sta} static), {shed} shed, {pan} panics, {quar} quarantined\n",
            entries = st.cache_entries,
            cap = st.cache_capacity,
            hits = st.cache_hits,
            misses = st.cache_misses,
            rate = st.cache_hit_rate * 100.0,
            ev = st.cache_evictions,
            opened = st.sessions_opened,
            closed = st.sessions_closed,
            active = st.sessions_active,
            n = st.expand_count,
            p50 = st.expand_p50_us,
            p95 = st.expand_p95_us,
            p99 = st.expand_p99_us,
            sps = st.sessions_per_sec,
            secs = st.elapsed_secs,
            deg = st.degraded_expands,
            myo = st.degraded_myopic,
            sta = st.degraded_static,
            shed = st.shed_expands,
            pan = st.session_panics,
            quar = st.sessions_quarantined,
        );
        let measured: Vec<_> = st.stages.iter().filter(|s| s.count > 0).collect();
        if !measured.is_empty() {
            out.push_str("stages     :\n");
            for s in measured {
                let _ = writeln!(
                    out,
                    "  {:<17} {:>6}×  p50 {:>7.0} µs  p95 {:>7.0} µs  p99 {:>7.0} µs",
                    s.stage, s.count, s.p50_us, s.p95_us, s.p99_us
                );
            }
        }
        if !st.slo_burn.is_empty() {
            out.push_str("SLO burn   :\n");
            for b in &st.slo_burn {
                let _ = writeln!(
                    out,
                    "  {:<8} p99 ≤ {:>6.1} ms  window {:<7} burn {:>6.2}×  ({}/{} within target)",
                    b.verb, b.target_p99_ms, b.window, b.burn_rate, b.good, b.total
                );
            }
        }
        out
    }

    /// The `trace` command: toggle span tracing, report its status, or dump
    /// the ring as Chrome trace-event JSON.
    fn cmd_trace(&self, rest: &str) -> String {
        use bionav_core::trace;
        let (sub, arg) = match rest.split_once(char::is_whitespace) {
            Some((s, a)) => (s, a.trim()),
            None => (rest, ""),
        };
        match sub {
            "on" => {
                trace::set_enabled(true);
                "tracing on (span events sampled into the ring)\n".to_string()
            }
            "off" => {
                trace::set_enabled(false);
                "tracing off\n".to_string()
            }
            "dump" => {
                if arg.is_empty() {
                    return "usage: trace dump <file>\n".to_string();
                }
                let json = trace::chrome_trace_json();
                match write_atomic(arg, json.as_bytes()) {
                    Ok(()) => format!(
                        "wrote Chrome trace-event JSON to {arg} (load in Perfetto or chrome://tracing)\n"
                    ),
                    Err(e) => format!("trace dump failed: {e}\n"),
                }
            }
            "" => format!(
                "tracing {}: sample 1/{}, {} events ever pushed to the ring\n",
                if trace::is_enabled() { "on" } else { "off" },
                trace::sample_every(),
                trace::ring_pushed(),
            ),
            other => format!("usage: trace [on|off|dump <file>] (got {other:?})\n"),
        }
    }

    /// The `flightrec` command: report the black-box flight recorder's
    /// fill level, or dump it as a JSON array of request summaries
    /// (atomically — the CI smoke step parses the file while serves run).
    fn cmd_flightrec(&self, rest: &str) -> String {
        let _scope = flightrec::ensure_scope(Verb::Debug);
        let (sub, arg) = match rest.split_once(char::is_whitespace) {
            Some((s, a)) => (s, a.trim()),
            None => (rest, ""),
        };
        match sub {
            "" => format!(
                "flight recorder: {} requests ever recorded, {} summaries in the ring\n",
                flightrec::flight_recorded(),
                flightrec::flight_snapshot().len(),
            ),
            "dump" => {
                if arg.is_empty() {
                    return "usage: flightrec dump <file>\n".to_string();
                }
                let entries = flightrec::flight_snapshot();
                let json = flightrec::entries_json(&entries);
                match write_atomic(arg, json.as_bytes()) {
                    Ok(()) => format!("wrote {} flight records to {arg}\n", entries.len()),
                    Err(e) => format!("flightrec dump failed: {e}\n"),
                }
            }
            other => format!("usage: flightrec [dump <file>] (got {other:?})\n"),
        }
    }

    /// One row per shard of the serving tier: cache behaviour, session
    /// counts, EXPAND latency, and fault-plane counters, side by side so a
    /// hot or sick shard stands out (the merged view hides skew).
    fn render_shard_table(&self) -> String {
        let mut out = format!(
            "per-shard serving telemetry ({} shards)\n\
             shard   cache(hit/miss)  sessions(open/active)  expands    p99 µs  deg  shed  ddl  quar  adm  breaker\n",
            self.engine.shard_count()
        );
        for shard in 0..self.engine.shard_count() {
            let st = self.engine.shard_stats(shard);
            let _ = writeln!(
                out,
                "{shard:>5}   {:>7}/{:<7}  {:>10}/{:<10}  {:>7}  {:>8.0}  {:>3}  {:>4}  {:>3}  {:>4}  {:>3}  {}",
                st.cache_hits,
                st.cache_misses,
                st.sessions_opened,
                st.sessions_active,
                st.expand_count,
                st.expand_p99_us,
                st.degraded_expands,
                st.shed_expands,
                st.deadline_rejects,
                st.sessions_quarantined,
                st.admission_limit,
                // The overload column pairs the breaker state with its
                // reject tally so a fast-failing shard stands out.
                if st.breaker_rejects > 0 {
                    format!(
                        "{} ({} rejected)",
                        self.engine.breaker_state(shard).name(),
                        st.breaker_rejects
                    )
                } else {
                    self.engine.breaker_state(shard).name().to_string()
                },
            );
        }
        out
    }

    /// Resets the engine's telemetry window (histogram, cache counters,
    /// session tallies, wall clock) — tier-wide, or one shard with
    /// `--shard N`. Cached trees and the live session survive — only the
    /// statistics restart.
    fn cmd_serve_reset(&self, rest: &str) -> String {
        match rest {
            "" => {
                self.engine.reset_stats();
                "serving telemetry reset (cached trees and live sessions kept)\n".to_string()
            }
            _ => match rest
                .strip_prefix("--shard")
                .map(str::trim)
                .and_then(|n| n.parse::<usize>().ok())
            {
                Some(shard) if shard < self.engine.shard_count() => {
                    self.engine.reset_shard_stats(shard);
                    format!("shard {shard} telemetry reset\n")
                }
                Some(shard) => format!(
                    "no shard {shard}; the tier has {} (0..{})\n",
                    self.engine.shard_count(),
                    self.engine.shard_count() - 1
                ),
                None => format!("usage: serve-reset [--shard N] (got {rest:?})\n"),
            },
        }
    }
}

const NO_QUERY: &str = "no active query; start with `query <keywords>`\n";

const HELP: &str = "\
commands:
  query <keywords>   run a keyword search and build its navigation tree
  ls                 show the current visualization (numbered; >>> = expandable)
  expand <#>         EXPAND a concept (Heuristic-ReducedOpt picks the EdgeCut)
  cut <label>[; …]   manual EdgeCut: reveal hidden concepts by label substring
  info <#>           details of a visible concept (level, |L(n)|, component)
  show <#>           SHOWRESULTS: list the citations of a component
  ignore <#>         dismiss a concept (free; the label was already paid)
  back               BACKTRACK: undo the last expansion
  cost               the session's accumulated navigation cost
  save <file>        persist the navigation (query + state) as JSON
  load <file>        restore a saved navigation over this dataset
  serve-stats        engine telemetry: cache hit rate, EXPAND latency, stages
  serve-stats --json machine-readable telemetry (one JSON document)
  serve-stats --prom Prometheus text exposition (per-shard labeled series)
  serve-stats --shards  one telemetry row per shard of the serving tier
  trace on|off       toggle span tracing into the fixed-memory event ring
  trace dump <file>  write the ring as Chrome trace-event JSON (Perfetto)
  flightrec          black-box recorder fill level (last N request summaries)
  flightrec dump <file>  write the flight recorder as JSON request records
  serve-reset        restart the telemetry window (keeps trees and sessions)
  serve-reset --shard N  restart one shard's telemetry window
  help               this text
  quit               leave
";

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the process-global tracing toggle or clear the
    /// global span ring (`serve-reset` does, via `Engine::reset_stats`)
    /// must not interleave with each other.
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn repl() -> Repl {
        Repl::new(Dataset::demo(7, 250), CostParams::default())
    }

    fn query_of(r: &Repl) -> String {
        r.dataset.suggestion.clone().expect("demo suggests")
    }

    #[test]
    fn banner_mentions_the_dataset() {
        let r = repl();
        assert!(r.banner().contains("synthetic demo"));
        assert!(r.banner().contains("query "));
    }

    #[test]
    fn help_and_unknown_commands() {
        let mut r = repl();
        assert!(r.handle("help").text().contains("EXPAND"));
        assert!(r.handle("frobnicate").text().contains("unknown command"));
        assert_eq!(r.handle("quit"), Response::Quit);
        assert_eq!(r.handle("").text(), "");
    }

    #[test]
    fn commands_require_a_query_first() {
        let mut r = repl();
        for cmd in ["ls", "expand 1", "show 1", "back", "cost"] {
            assert!(
                r.handle(cmd).text().contains("no active query"),
                "{cmd} should demand a query"
            );
        }
    }

    #[test]
    fn full_navigation_flow() {
        let mut r = repl();
        let q = query_of(&r);
        let resp = r.handle(&format!("query {q}"));
        assert!(
            resp.text().contains("citations; navigation tree"),
            "{}",
            resp.text()
        );
        assert!(resp.text().contains("1. MeSH"), "{}", resp.text());

        let resp = r.handle("expand 1");
        assert!(resp.text().contains("revealed"), "{}", resp.text());
        // Numbered listing grew beyond the root.
        assert!(resp.text().contains("2. "));

        let resp = r.handle("show 2");
        assert!(resp.text().contains("citations under"), "{}", resp.text());
        assert!(resp.text().contains("PMID"));

        let resp = r.handle("cost");
        assert!(resp.text().contains("= "), "{}", resp.text());

        let resp = r.handle("back");
        assert!(resp.text().contains("undid"), "{}", resp.text());
    }

    #[test]
    fn expand_rejects_bad_numbers() {
        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        assert!(r
            .handle("expand zero")
            .text()
            .contains("expected a concept number"));
        assert!(r.handle("expand 99").text().contains("no concept #99"));
        assert!(r.handle("expand 0").text().contains("no concept #0"));
    }

    #[test]
    fn empty_results_are_reported() {
        let mut r = repl();
        assert!(r
            .handle("query zzzznonexistenttoken")
            .text()
            .contains("no citations match"));
    }

    #[test]
    fn info_and_manual_cut() {
        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        let out = r.handle("info 1");
        assert!(out.text().contains("MeSH level"), "{}", out.text());
        assert!(out.text().contains("|L(n)|"));
        // Pick a hidden concept's label from an automatic expansion preview:
        // expand once, backtrack, then cut one of the previously revealed
        // labels manually.
        let revealed = r.handle("expand 1").text().to_string();
        let label = revealed
            .lines()
            .filter(|l| l.trim_start().starts_with("2."))
            .map(|l| {
                l.trim_start()
                    .trim_start_matches("2.")
                    .trim()
                    .split('(')
                    .next()
                    .unwrap()
                    .trim()
                    .to_string()
            })
            .next()
            .expect("expansion listed a second row");
        r.handle("back");
        let out = r.handle(&format!("cut {label}"));
        assert!(
            out.text().contains("manual EdgeCut"),
            "cut {label:?} failed: {}",
            out.text()
        );
        // Garbage cut arguments are reported, not panicked on.
        assert!(r
            .handle("cut zzz-no-such-label")
            .text()
            .contains("no hidden concept"));
        assert!(r.handle("cut").text().contains("usage"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("bionav-repl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("session.json");
        let path = file.to_str().unwrap();

        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        let before_tree = r.handle("ls").text().to_string();
        let before_cost = r.handle("cost").text().to_string();
        assert!(r.handle(&format!("save {path}")).text().contains("saved"));

        // A fresh REPL over the same dataset restores the exact view.
        let mut r2 = repl();
        let out = r2.handle(&format!("load {path}"));
        assert!(out.text().contains("restored"), "{}", out.text());
        assert_eq!(r2.handle("ls").text(), before_tree);
        assert_eq!(r2.handle("cost").text(), before_cost);
        // And it keeps navigating.
        let out = r2.handle("expand 1");
        assert!(
            out.text().contains("revealed") || out.text().contains("hides nothing"),
            "{}",
            out.text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_errors_are_reported() {
        let mut r = repl();
        assert!(r
            .handle("load /nonexistent/x.json")
            .text()
            .contains("load failed"));
        assert!(r.handle("load").text().contains("usage"));
        assert!(r.handle("save x").text().contains("no active query"));
    }

    #[test]
    fn serve_stats_reports_cache_hits_and_expand_latency() {
        let mut r = repl();
        let q = query_of(&r);
        // Telemetry is available before any query.
        assert!(r.handle("serve-stats").text().contains("tree cache"));
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        // Re-issuing the same query hits the engine's tree cache.
        r.handle(&format!("query {q}"));
        let out = r.handle("stats").text().to_string();
        assert!(out.contains("1 hits / 1 misses"), "{out}");
        assert!(out.contains("2 opened, 1 closed, 1 active"), "{out}");
        assert!(out.contains("1 measured"), "{out}");
    }

    #[test]
    fn serve_stats_json_and_prom_outputs_are_machine_readable() {
        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        r.handle("expand 1");

        let json = r.handle("serve-stats --json").text().to_string();
        let st = bionav_core::engine::ServeStats::from_json(&json)
            .expect("serve-stats --json round-trips through ServeStats");
        assert_eq!(st.expand_count, 1);
        assert!(
            st.stages
                .iter()
                .any(|s| s.stage == "expand" && s.count == 1),
            "{json}"
        );

        let prom = r.handle("serve-stats --prom").text().to_string();
        assert!(
            prom.contains("# TYPE bionav_expand_latency_seconds histogram"),
            "{prom}"
        );
        assert!(
            prom.contains("bionav_stage_latency_seconds_count{shard=\"0\",stage=\"expand\"} 1"),
            "{prom}"
        );

        assert!(r.handle("serve-stats --bogus").text().contains("usage"));
    }

    #[test]
    fn trace_toggle_and_dump_produce_a_loadable_trace() {
        let _guard = TRACE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("bionav-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("repl.trace.json");
        let path = file.to_str().unwrap();

        let mut r = repl();
        let q = query_of(&r);
        assert!(r.handle("trace on").text().contains("tracing on"));
        assert!(r.handle("trace").text().contains("tracing on"));
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        let out = r.handle(&format!("trace dump {path}")).text().to_string();
        assert!(out.contains("Chrome trace-event JSON"), "{out}");
        assert!(r.handle("trace off").text().contains("tracing off"));
        assert!(r.handle("trace").text().contains("tracing off"));

        let dumped = std::fs::read_to_string(&file).unwrap();
        assert!(dumped.contains("\"expand\""), "{dumped}");
        // Usage errors are reported, not panicked on.
        assert!(r.handle("trace dump").text().contains("usage"));
        assert!(r.handle("trace sideways").text().contains("usage"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flightrec_reports_and_dumps_request_records_atomically() {
        let dir = std::env::temp_dir().join(format!("bionav-flightrec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("flight.json");
        let path = file.to_str().unwrap();

        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        r.handle("show 2");

        let status = r.handle("flightrec").text().to_string();
        assert!(status.contains("flight recorder:"), "{status}");

        // Pre-seed the target with junk: the dump must replace it whole
        // (temp file + rename), never truncate-then-write in place.
        std::fs::write(&file, "NOT JSON").unwrap();
        let out = r
            .handle(&format!("flightrec dump {path}"))
            .text()
            .to_string();
        assert!(out.contains("flight records"), "{out}");
        let dumped = std::fs::read_to_string(&file).unwrap();
        let records: Vec<bionav_core::FlightRecord> =
            serde_json::from_str(&dumped).expect("dump parses");
        assert!(!records.is_empty());
        assert!(records.iter().all(|rec| rec.request_id != 0));
        assert!(
            records.iter().any(|rec| rec.verb == "show_results"),
            "{dumped}"
        );
        // No temp sibling was left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");

        // Usage errors are reported, not panicked on.
        assert!(r.handle("flightrec dump").text().contains("usage"));
        assert!(r.handle("flightrec sideways").text().contains("usage"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_reset_restarts_the_telemetry_window() {
        let _guard = TRACE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        assert!(r.handle("stats").text().contains("1 measured"));
        let out = r.handle("serve-reset").text().to_string();
        assert!(out.contains("reset"), "{out}");
        let out = r.handle("stats").text().to_string();
        assert!(out.contains("0 measured"), "{out}");
        assert!(out.contains("0 opened, 0 closed, 1 active"), "{out}");
        // The live session keeps serving after the reset.
        assert!(!r.handle("ls").text().contains("unknown"));
    }

    #[test]
    fn serve_stats_shards_table_and_per_shard_reset() {
        let mut r = Repl::with_shards(Dataset::demo(7, 250), CostParams::default(), 3);
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        r.handle("expand 1");
        let table = r.handle("serve-stats --shards").text().to_string();
        assert!(table.contains("3 shards"), "{table}");
        // One row per shard, and exactly one shard did the work.
        for shard in 0..3 {
            assert!(
                table
                    .lines()
                    .any(|l| l.trim_start().starts_with(&shard.to_string())),
                "{table}"
            );
        }
        // The overload-control columns render: every healthy shard shows
        // its admission limit and a closed breaker.
        assert!(table.contains("adm  breaker"), "{table}");
        assert_eq!(
            table.matches("closed").count(),
            3,
            "one closed breaker per shard row: {table}"
        );
        let limit = r.engine.engine(0).admission_limit().to_string();
        assert!(table.contains(&limit), "{table}");

        let home = r.state.as_ref().expect("query opened").id.shard();
        assert_eq!(r.engine.shard_stats(home).sessions_opened, 1);

        // Resetting a *different* shard leaves the busy shard's telemetry.
        let other = (home + 1) % 3;
        let out = r
            .handle(&format!("serve-reset --shard {other}"))
            .text()
            .to_string();
        assert!(out.contains(&format!("shard {other}")), "{out}");
        assert_eq!(r.engine.shard_stats(home).sessions_opened, 1);
        // Out-of-range and garbage arguments are reported, not panicked on.
        assert!(r
            .handle("serve-reset --shard 99")
            .text()
            .contains("no shard 99"));
        assert!(r.handle("serve-reset sideways").text().contains("usage"));
        // Resetting the busy shard clears it.
        r.handle(&format!("serve-reset --shard {home}"));
        assert_eq!(r.engine.shard_stats(home).sessions_opened, 0);
    }

    #[test]
    fn repl_never_panics_on_arbitrary_command_soup() {
        // A deterministic pseudo-fuzz over command fragments, including
        // nonsense arguments and out-of-order actions.
        let mut r = repl();
        let q = query_of(&r);
        let fragments = [
            "ls",
            "expand",
            "expand -1",
            "expand 999999",
            "show x",
            "back",
            "cost",
            "query",
            "help",
            "ignore 3",
            "x 1",
            "s 1",
            "tree",
            "undo",
            "  ",
            "q uit",
            "expand 18446744073709551615",
        ];
        for (i, f) in fragments.iter().cycle().take(60).enumerate() {
            if i == 7 {
                r.handle(&format!("query {q}"));
            }
            let _ = r.handle(f);
        }
    }

    #[test]
    fn leaf_expansion_is_explained() {
        let mut r = repl();
        let q = query_of(&r);
        r.handle(&format!("query {q}"));
        // Expand until some listed node is a singleton, then poke it.
        let mut resp = r.handle("expand 1").text().to_string();
        for _ in 0..6 {
            if resp.lines().any(|l| !l.contains(">>>") && l.contains('.')) {
                break;
            }
            resp = r.handle("expand 1").text().to_string();
        }
        let singleton = resp
            .lines()
            .filter(|l| {
                l.trim_start()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
            })
            .find(|l| !l.contains(">>>"));
        if let Some(line) = singleton {
            let num = line.trim_start().split('.').next().unwrap().to_string();
            let out = r.handle(&format!("expand {num}"));
            assert!(out.text().contains("hides nothing"), "{}", out.text());
        }
    }
}
