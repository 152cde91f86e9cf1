//! The repository's benchmark. `benchmark/run.sh` builds this binary and
//! calls `hsipc-benchmark run ...`; see `benchmark/README.md`.
//!
//! The `run` side is the parent: it executes a workload as repeated cold
//! child processes of this same binary (`hsipc-benchmark child ...`), times
//! them from outside, checks their outputs and prints every metric. The
//! `child` side calls into the program.

mod child;
mod json;
mod metrics;
mod parent;
mod procfs;
mod stats;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parent::main(&args[1..]),
        Some("child") => parent::child_main(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            Err("usage: hsipc-benchmark run|child|benchmark-json ... (see benchmark/run.sh)".into())
        }
    };
    result.unwrap_or_else(|message: String| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
