//! Benchmark-side spans of the traced run.
//!
//! Each client thread keeps its spans in memory; they are written out once,
//! when the run ends, as Chrome trace-event JSON (loadable in Perfetto). A
//! session's spans share its id, and each operation span names the session
//! span that caused it.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bionav_core::trace::{self, now_ns};

use crate::report::Report;
use crate::RunArgs;

/// Spans kept per client in a traced run.
pub const MAX_SPANS: usize = 50_000;

/// One timed call into the program.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The navigation session the call belongs to.
    pub session: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Writes every client's spans to `path`. Operation spans carry their
/// session span as parent (`args.parent`).
pub fn write_chrome_trace(path: &Path, clients: &[Vec<Span>]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "[")?;
    let mut n = 0usize;
    for (tid, spans) in clients.iter().enumerate() {
        for s in spans {
            let parent = if s.name == "session" { "" } else { "session" };
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"session\":{},\"parent\":\"{}\"}}}}",
                if n == 0 { "" } else { ",\n" },
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.session,
                parent,
            )?;
            n += 1;
        }
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(n)
}

/// Slices a traced run alternates between tracing off and on.
const SLICES: u32 = 10;

/// Alternates tracing off and on in equal slices for `seconds` while the
/// clients run, so drift hits both halves alike. Returns sessions
/// completed per second with tracing off and with it on.
pub fn alternate_tracing(completed: &AtomicU64, seconds: u64) -> (f64, f64) {
    let slice = Duration::from_nanos(seconds * 1_000_000_000 / u64::from(SLICES));
    let (mut off, mut on) = ((0u64, 0u64), (0u64, 0u64));
    for i in 0..SLICES {
        let tracing = i % 2 == 1;
        trace::set_enabled(tracing);
        // Ordering: Relaxed — a progress counter; nothing is published
        // through it.
        let (c0, t0) = (completed.load(Ordering::Relaxed), now_ns());
        std::thread::sleep(slice);
        let acc = if tracing { &mut on } else { &mut off };
        acc.0 += completed.load(Ordering::Relaxed) - c0;
        acc.1 += now_ns() - t0;
    }
    trace::set_enabled(false);
    let rate = |(n, ns): (u64, u64)| n as f64 / (ns as f64 / 1e9);
    (rate(off), rate(on))
}

/// Writes the traced run's spans; returns how many were written.
pub fn write_spans(args: &RunArgs, spans: &[Vec<Span>], report: &mut Report) -> usize {
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match write_chrome_trace(&path, spans) {
        Ok(n) => {
            report.prov("spans_file", path.display());
            n
        }
        Err(e) => {
            report.problem(format!("writing spans to {}: {e}", path.display()));
            0
        }
    }
}
