//! # bionav-cli — the interactive BioNav front end
//!
//! A terminal rendition of the paper's web interface (§VII): issue a
//! keyword query, watch the navigation tree get built, then EXPAND /
//! SHOWRESULTS / IGNORE / BACKTRACK your way to the citations you care
//! about. Each visible concept is numbered; commands refer to those
//! numbers, and `>>>` marks expandable components exactly like the paper's
//! screenshots.
//!
//! The REPL core ([`Repl`]) is I/O-free — it maps one command line to one
//! response string — so the whole interface is unit-testable; the `bionav`
//! binary wraps it in a stdin/stdout loop.
//!
//! ```
//! use bionav_cli::{Dataset, Repl, Response};
//! use bionav_core::CostParams;
//!
//! let mut repl = Repl::new(Dataset::demo(1, 150), CostParams::default());
//! assert!(repl.handle("help").text().contains("EXPAND"));
//! assert_eq!(repl.handle("quit"), Response::Quit);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dataset;
mod repl;
pub mod serve;

pub use dataset::Dataset;
pub use repl::{sharded_engine, Repl, ReplBuilder, Response};
