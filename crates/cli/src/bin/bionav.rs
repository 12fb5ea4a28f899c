//! The `bionav` terminal app: interactive navigation over a demo corpus,
//! the evaluation workload, or your own MeSH + citation files.
//!
//! ```text
//! bionav                      # synthetic demo corpus
//! bionav --workload [SCALE]   # the ICDE 2009 Table I workload (default 0.25)
//! bionav --mesh d2009.bin --store citations.json
//! bionav --k 6                # partition budget for Heuristic-ReducedOpt
//! bionav serve --addr 127.0.0.1:4662 --shards 4   # TCP serving tier
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use bionav_cli::{serve, sharded_engine, Dataset, Repl};
use bionav_core::CostParams;

/// `bionav serve`: bind, announce the bound address (port 0 lets tests
/// pick a free port and read it back), then serve the sharded tier until
/// killed.
fn serve_main(argv: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:4662".to_string();
    let mut shards = 1usize;
    let mut workload: Option<f64> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                i += 1;
                match argv.get(i) {
                    Some(a) => addr = a.clone(),
                    None => {
                        eprintln!("--addr needs HOST:PORT");
                        return ExitCode::from(2);
                    }
                }
            }
            "--shards" => {
                i += 1;
                match argv.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if (1..=usize::from(u16::MAX)).contains(&n) => shards = n,
                    _ => {
                        eprintln!("--shards needs a count in 1..=65535");
                        return ExitCode::from(2);
                    }
                }
            }
            "--workload" => {
                workload = Some(
                    argv.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(0.25),
                );
            }
            other => {
                eprintln!("unknown serve flag {other}; usage: bionav serve [--addr HOST:PORT] [--shards N] [--workload [SCALE]]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let dataset = Arc::new(match workload {
        Some(scale) => Dataset::workload(scale),
        None => Dataset::demo(2009, 1_200),
    });
    let engine = Arc::new(sharded_engine(&dataset, CostParams::default(), shards, 8));
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(bound) => println!("bionav serving on {bound} ({shards} shards)"),
        Err(e) => {
            eprintln!("local_addr failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    // A second banner line names a query known to return results, so a
    // client (or the e2e test) can open a session without guessing at the
    // synthetic corpus's vocabulary.
    println!(
        "suggest: {}",
        dataset.suggestion.as_deref().unwrap_or("prothymosin")
    );
    let _ = std::io::stdout().flush();
    serve::serve(listener, engine, dataset);
    ExitCode::FAILURE // the accept loop only returns on error
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    let mut mesh: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut workload: Option<f64> = None;
    let mut k = 10usize;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--mesh" => {
                i += 1;
                mesh = argv.get(i).map(PathBuf::from);
            }
            "--store" => {
                i += 1;
                store = argv.get(i).map(PathBuf::from);
            }
            "--workload" => {
                // Optional numeric argument.
                workload = Some(
                    argv.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(0.25),
                );
            }
            "--k" => {
                i += 1;
                k = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(10);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bionav [--workload [SCALE] | --mesh FILE --store FILE] [--k K]\n\
                     \x20      bionav serve [--addr HOST:PORT] [--shards N] [--workload [SCALE]]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let dataset = match (mesh, store, workload) {
        (Some(m), Some(s), _) => match Dataset::from_files(&m, &s) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("failed to load data: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None, Some(scale)) => Dataset::workload(scale),
        (None, None, None) => Dataset::demo(2009, 1_200),
        _ => {
            eprintln!("--mesh and --store must be given together");
            return ExitCode::from(2);
        }
    };

    let mut repl = Repl::new(dataset, CostParams::default().with_max_partitions(k));
    print!("{}", repl.banner());

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("bionav> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        match repl.handle(&line) {
            bionav_cli::Response::Quit => break,
            resp => print!("{}", resp.text()),
        }
    }
    ExitCode::SUCCESS
}
