//! # bench — the `repro` binary that regenerates the paper's tables and figures
//!
//! * `cargo run -p bench --release --bin repro -- list` — enumerate
//!   experiments.
//! * `cargo run -p bench --release --bin repro -- table6.1 fig6.17` —
//!   regenerate specific tables/figures.
//! * `cargo run -p bench --release --bin repro -- all` — regenerate
//!   everything (the non-local figure sweeps take a few minutes).
//!
//! Performance is measured by the repository's benchmark
//! (`benchmark/run.sh`), not by this crate.

#![forbid(unsafe_code)]

pub use hsipc::experiments;
