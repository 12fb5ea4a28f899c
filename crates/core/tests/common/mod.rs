//! The engine fixture and navigation helpers shared by the integration
//! suites. The helpers drive an engine the way a client does, through
//! `open_session` / `expand` / `with_session` / `close_session`.

use std::sync::Arc;

use bionav_core::sim::NavOutcome;
use bionav_core::{CostParams, Engine, EngineError, NavigationTree, SharedTree};
use bionav_medline::corpus::{self, CorpusConfig};
use bionav_medline::InvertedIndex;
use bionav_mesh::synth::{self, sanitizer_scaled, SynthConfig};

/// The engine unit tests' fixture recipe: a small synthetic hierarchy +
/// corpus, trees built per keyword on demand, sessions priced with
/// `params`, at most `capacity` cached trees.
pub fn fixture_engine_with(
    params: CostParams,
    capacity: usize,
) -> Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync> {
    let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
    let store = corpus::generate(
        &h,
        &CorpusConfig {
            n_citations: sanitizer_scaled(400, 64),
            ..CorpusConfig::default()
        },
    );
    let index = InvertedIndex::build(&store);
    Engine::new(
        move |query: &str| {
            let results = index.query(query).citations;
            if results.is_empty() {
                return None;
            }
            Some(Arc::new(NavigationTree::build(&h, &store, &results)))
        },
        params,
        capacity,
    )
}

/// Distinct result-bearing labels whose navigation trees have more than
/// `min_len` nodes (so EXPAND does real planning work).
pub fn multi_node_queries(
    engine: &Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
    want: usize,
    min_len: usize,
) -> Vec<String> {
    let h = synth::generate(&SynthConfig::small(5, sanitizer_scaled(300, 48))).unwrap();
    let mut out: Vec<String> = Vec::new();
    for n in h.iter_preorder().skip(1) {
        let label = h.node(n).label().to_string();
        if out.contains(&label) {
            continue;
        }
        if engine.tree_for(&label).is_some_and(|t| t.len() > min_len) {
            out.push(label);
        }
        if out.len() == want {
            break;
        }
    }
    assert!(
        out.len() == want,
        "fixture needs {want} multi-node queries, found {}",
        out.len()
    );
    out
}

/// One query navigated to full expansion through the serving API.
pub struct Navigated {
    /// The session's accumulated §III cost at close.
    pub cost: NavOutcome,
    /// EXPANDs the degradation ladder answered.
    pub degraded: u32,
}

/// Opens a session over `query`, EXPANDs the first visible multi-node
/// component in pre-order until the tree is fully expanded, and closes the
/// session. An error drains the session before it surfaces (closing works
/// on a quarantined session too), so a failed navigation never leaks a
/// parked session.
pub fn expand_fully(
    engine: &Engine<impl Fn(&str) -> Option<SharedTree> + Send + Sync>,
    query: &str,
) -> Result<Navigated, EngineError> {
    let id = engine.open_session(query)?;
    let mut degraded = 0;
    let driven = loop {
        let next = engine.with_session(id, |s| {
            s.nav()
                .iter_preorder()
                .find(|&n| s.active().is_visible(n) && s.component_size(n) > 1)
        });
        match next {
            None => break Err(EngineError::UnknownSession(id)),
            Some(None) => break Ok(()),
            Some(Some(node)) => match engine.expand(id, node) {
                Ok(reply) => degraded += u32::from(reply.degraded.is_some()),
                Err(e) => break Err(e),
            },
        }
    };
    let closed = engine.close_session(id);
    driven?;
    Ok(Navigated {
        cost: closed?.cost,
        degraded,
    })
}

/// Runs `f` over every job on its own scoped thread and returns the
/// results in job order.
pub fn on_threads<J: Sync, T: Send>(jobs: &[J], f: impl Fn(&J) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.iter().map(|job| scope.spawn(|| f(job))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("navigation thread panicked"))
            .collect()
    })
}
