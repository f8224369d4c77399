//! # pifo-bench
//!
//! Experiment drivers (`repro` binary) and the bench harness
//! ([`measure`]) every target under `benches/` runs on.
//!
//! Every table and figure of the paper has a regenerator here — run
//! `cargo run -p pifo-bench --bin repro --release -- list` for the
//! experiment index, `… -- <id>` for one experiment, or `… -- all` for
//! everything.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod measure;
