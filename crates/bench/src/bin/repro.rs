//! Regenerates the paper's tables and figures. See `bench` crate docs.
//!
//! Experiments run through the sweep engine: the requested ids run one
//! after another, in request order, and each swept experiment fans its own
//! points out on the worker pool, the program's one layer of threads.
//! Output is byte-identical to a sequential run (`HSIPC_SWEEP=<n>` sets
//! the worker count; `HSIPC_SWEEP=1` is the sequential run).
//!
//! `--timing` additionally reports wall-clock, cache statistics, the
//! exact solver's stage ledger (`gtpn::engine::stage_totals`) and the
//! process's peak resident memory on stderr — stdout stays byte-identical
//! either way; `repro live` always reports the peak resident memory on
//! stderr. `repro` writes no files.

use hsipc::livesweep::SweepSpec;
use runtime::{Architecture, ClockMode, Config, Locality};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Checks a knob's value with the parser the library reads it through.
type KnobCheck = fn(&str) -> Result<(), String>;

/// The environment variables the program reads, each with its check. Any
/// other `HSIPC_*` variable is an error, so a stale or misspelt knob cannot
/// be silently ignored, and so is a value its parser rejects, so a bad
/// value cannot silently mean the default.
const KNOBS: [(&str, KnobCheck); 2] = [
    ("HSIPC_SWEEP", |v| sweep::parse_threads(v).map(drop)),
    ("HSIPC_CACHE_CAP", |v| {
        gtpn::cache::parse_entry_cap(v).map(drop)
    }),
];

/// The names of [`KNOBS`], comma-separated.
fn knob_names() -> String {
    KNOBS.map(|(name, _)| name).join(", ")
}

/// Every live flag: name, value hint (empty: none), and whether `repro
/// live` and `repro live-sweep` take it. `--help` is printed from here.
const FLAGS: [(&str, &str, bool, bool); 11] = [
    ("--arch", "I|II|III|IV|all", true, true),
    ("--nodes", "N", true, true),
    ("--conversations", "N", true, false),
    ("--duration-ms", "N", true, true),
    ("--server-compute-us", "F", true, false),
    ("--buffers", "N", true, false),
    ("--remote", "", true, true),
    ("--clock", "real|virtual|both", true, false),
    ("--x-list", "F,F,...", false, true),
    ("--conversations-list", "N,N,...", false, true),
    ("--buffers-list", "N,N,...", false, true),
];

/// Whether `repro live` (`sweep = false`) or `repro live-sweep` takes
/// `flag`.
fn takes(flag: &str, sweep: bool) -> bool {
    FLAGS
        .iter()
        .any(|&(f, _, live, swept)| f == flag && if sweep { swept } else { live })
}

fn main() -> ExitCode {
    if let Err(e) = check_environment() {
        eprintln!("repro: {e}");
        return ExitCode::from(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let timing = args.iter().any(|a| a == "--timing");
    args.retain(|a| a != "--timing");
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: repro [--timing] [list | all | live | live-sweep | <experiment-id>...]");
        eprintln!("experiment ids: table3.1..table3.7, table5.1, table5.2,");
        eprintln!("  table6.1, table6.2, table6.4..table6.25, fig6.7..fig6.23, fig7.1, fig7.scale");
        for (command, sweep) in [("live", false), ("live-sweep", true)] {
            eprintln!("{command} flags (also --flag=value):");
            for &(flag, hint, ..) in FLAGS.iter().filter(|f| takes(f.0, sweep)) {
                eprintln!("  {}", format!("{flag} {hint}").trim_end());
            }
        }
        eprintln!("environment: {}", knob_names());
        return ExitCode::from(2);
    }
    if args[0] == "live" {
        return run_live(&args[1..]);
    }
    if args[0] == "live-sweep" {
        return run_live_sweep(&args[1..]);
    }
    if args[0] == "list" {
        for e in hsipc::experiments::all() {
            println!("{:<10} {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<String> = if args[0] == "all" {
        hsipc::experiments::all()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    } else {
        args
    };

    let threads = sweep::threads();
    let started = Instant::now();
    // The experiments run one after another, each fanning its own grid
    // points out `threads` wide: the pool is the one layer of threads.
    let mut failed = false;
    for id in &ids {
        match hsipc::experiments::run_with(id, threads) {
            Some(output) => println!("{output}"),
            None => {
                eprintln!("unknown experiment `{id}` (try `repro list`)");
                failed = true;
            }
        }
    }
    if timing {
        eprintln!(
            "repro: {} experiment(s) in {:.2?} ({threads} thread(s))",
            ids.len(),
            started.elapsed()
        );
        // Cache statistics go to stderr with the timing report; stdout
        // stays byte-identical whether caching is on or off.
        let engine = gtpn::engine::cache_stats();
        eprintln!(
            "engine solution cache: {} hits, {} misses, {} evictions, {} dedup drops, {} entries, {:.1} MiB",
            engine.hits,
            engine.misses,
            engine.evictions,
            engine.dedup_drops,
            engine.entries,
            engine.bytes as f64 / (1024.0 * 1024.0)
        );
        let store = gtpn::engine::store_stats();
        eprintln!(
            "skeleton store: {} skeletons, {} sightings, {} evictions, {} dedup drops, {:.1} KiB",
            store.skeletons,
            store.sightings,
            store.evictions,
            store.dedup_drops,
            store.bytes as f64 / 1024.0
        );
        // Where the exact backend's misses spent their time, summed over
        // every run of the process (seconds add up across sweep workers).
        let stages = gtpn::engine::stage_totals();
        eprintln!(
            "exact solver stages: net compile {:.3} s, bfs {:.3} s, reprice {:.3} s, solve {:.3} s, delump {:.3} s; {} replays, {} records, {} fallbacks, {} states, {} edges, {} sweeps, {} phase calls, {} phase hits, {} phase configs",
            stages.net_compile_s,
            stages.bfs_s,
            stages.reprice_s,
            stages.solve_s,
            stages.delump_s,
            stages.replays,
            stages.records,
            stages.fallbacks,
            stages.states,
            stages.edges,
            stages.sweeps,
            stages.phase_calls,
            stages.phase_hits,
            stages.phase_configs
        );
        eprintln!("peak resident memory: {}", peak_resident());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The process's peak resident set so far — `VmHWM` in
/// `/proc/self/status` — in MiB, or `unknown` where that cannot be read.
fn peak_resident() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
            Some(format!("{:.1} MiB", kib / 1024.0))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Rejects any set `HSIPC_*` variable that is not one of [`KNOBS`], and
/// any knob whose value its parser rejects.
fn check_environment() -> Result<(), String> {
    for (name, value) in std::env::vars_os() {
        let Some(name) = name.to_str().filter(|name| name.starts_with("HSIPC_")) else {
            continue;
        };
        let Some((_, parse)) = KNOBS.iter().find(|(knob, _)| *knob == name) else {
            return Err(format!(
                "{name} is not a knob (the knobs are {})",
                knob_names()
            ));
        };
        parse(&value.to_string_lossy())?;
    }
    Ok(())
}

/// The one flag parser of `repro live` (`sweep = false`) and `repro
/// live-sweep` (`sweep = true`): the clocks to run, the single-run values,
/// and the grid (whose architectures both commands run). Every
/// configuration the command would run is validated before it returns, so
/// a bad value is an error, not a panic halfway through.
fn parse_live(args: &[String], sweep: bool) -> Result<(Vec<ClockMode>, Config, SweepSpec), String> {
    let mut spec = SweepSpec::default_curve();
    let mut config = Config::new(Architecture::Uniprocessor);
    if sweep {
        config.duration = spec.duration;
    }
    let mut clocks = vec![config.clock];
    // Accept both `--flag value` and `--flag=value`.
    let split = |a: &String| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
        Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
        None => vec![a.clone()],
    };
    let mut it = args.iter().flat_map(split);
    while let Some(flag) = it.next() {
        if !takes(&flag, sweep) {
            return Err(format!("unknown flag `{flag}` (try `repro --help`)"));
        }
        if flag == "--remote" {
            config.locality = Locality::NonLocal;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--arch" => spec.archs = parse_archs(&v)?,
            "--nodes" => config.nodes = parse(&v, &flag)?,
            "--conversations" => config.conversations = parse(&v, &flag)?,
            "--duration-ms" => config.duration = Duration::from_millis(parse(&v, &flag)?),
            "--server-compute-us" => config.server_compute_us = parse(&v, &flag)?,
            "--buffers" => config.buffers = parse(&v, &flag)?,
            "--clock" => {
                clocks = match v.as_str() {
                    "both" => vec![ClockMode::Real, ClockMode::Virtual],
                    other => vec![other.parse().map_err(|e| format!("--clock: {e}"))?],
                };
            }
            "--x-list" => spec.x_us = parse_csv(&v, &flag)?,
            "--conversations-list" => spec.conversations = parse_csv(&v, &flag)?,
            "--buffers-list" => spec.buffers = parse_csv(&v, &flag)?,
            other => unreachable!("flag `{other}` is listed but not parsed"),
        }
    }
    // Non-local traffic needs a second node: one node is raised to two.
    if config.locality == Locality::NonLocal && config.nodes == 1 {
        config.nodes = 2;
    }
    spec.nodes = config.nodes;
    spec.duration = config.duration;
    spec.locality = config.locality;
    if !sweep {
        // A live run validates as the one-point grid of its own values.
        spec.x_us = vec![config.server_compute_us];
        spec.conversations = vec![config.conversations];
        spec.buffers = vec![config.buffers];
    }
    spec.validate()?;
    Ok((clocks, config, spec))
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("{flag}: bad value `{s}`"))
}

fn parse_csv<T: std::str::FromStr>(s: &str, flag: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(|item| {
            if item.trim().is_empty() {
                return Err(format!("{flag}: empty item in `{s}`"));
            }
            parse(item, flag)
        })
        .collect()
}

/// Parses an architecture selection: `I`–`IV` (or `1`–`4`), or `all`.
fn parse_archs(s: &str) -> Result<Vec<Architecture>, String> {
    use Architecture::*;
    Ok(match s {
        "all" | "ALL" => Architecture::ALL.to_vec(),
        "I" | "1" => vec![Uniprocessor],
        "II" | "2" => vec![MessageCoprocessor],
        "III" | "3" => vec![SmartBus],
        "IV" | "4" => vec![PartitionedSmartBus],
        other => return Err(format!("--arch: unknown architecture `{other}`")),
    })
}

/// `repro live`: executes the requested architectures under load and
/// prints the measured throughput and latency. Not part of `repro all` —
/// real-clock live output is wall-clock-dependent, and `repro all`'s
/// stdout is kept byte-identical for the golden-output check. (Virtual
/// runs *are* deterministic; CI diffs their stdout directly.)
fn run_live(args: &[String]) -> ExitCode {
    let (clocks, mut config, archs) = match parse_live(args, false) {
        Ok((clocks, config, spec)) => (clocks, config, spec.archs),
        Err(e) => {
            eprintln!("repro live: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for (i, &mode) in clocks.iter().enumerate() {
        if i > 0 {
            println!();
        }
        config.clock = mode;
        println!(
            "live runtime: {} conversation(s)/node x {} node(s), {} traffic, X = {:.0} us, {} ms load, {} clock",
            config.conversations,
            config.nodes,
            match config.locality {
                Locality::Local => "local",
                Locality::NonLocal => "non-local",
            },
            config.server_compute_us,
            config.duration.as_millis(),
            mode,
        );
        // The headings of the row format below.
        println!("arch   roundtrips   thru/ms   mean_us    p50_us    p95_us    p99_us    max_us  stalls  parked  frames  shutdown");
        let mut reports = Vec::with_capacity(archs.len());
        for &architecture in &archs {
            let report = runtime::run(&Config {
                architecture,
                ..config.clone()
            });
            let shutdown = if report.clean_shutdown {
                "clean"
            } else {
                "UNCLEAN"
            };
            println!(
                "{:<5} {:>11} {:>9.2} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>7} {:>7}  {shutdown}",
                architecture.label(),
                report.round_trips,
                report.throughput_per_ms,
                report.latency.mean_us,
                report.latency.p50_us,
                report.latency.p95_us,
                report.latency.p99_us,
                report.latency.max_us,
                report.buffer_stalls,
                report.packets_parked,
                report.ring_frames,
            );
            // Wall-clock figures go to stderr: virtual stdout stays
            // byte-deterministic for the CI diff legs.
            if mode == ClockMode::Virtual {
                eprintln!(
                    "virtual {}: {:.3} s simulated in {:.3} s wall ({:.0}x)",
                    architecture.label(),
                    report.elapsed.as_secs_f64(),
                    report.wall.as_secs_f64(),
                    report.elapsed.as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
                );
            }
            eprintln!(
                "{mode} {} wall split: setup {:.4} s, run {:.4} s, teardown {:.4} s",
                architecture.label(),
                report.setup.as_secs_f64(),
                report.run.as_secs_f64(),
                report.teardown.as_secs_f64(),
            );
            if report.round_trips == 0 || !report.clean_shutdown {
                failed = true;
            }
            reports.push(report);
        }
        // The real clock's error bars: how far OS sleeps overshot each
        // activity class's requested occupancy.
        if mode == ClockMode::Real {
            println!("sleep overshoot (real clock; requested vs actual occupancy):");
            println!(
                "{:<5} {:<24} {:>9} {:>13} {:>13} {:>13}",
                "arch", "class", "calls", "requested_us", "actual_us", "mean_over_us"
            );
            for (architecture, report) in archs.iter().zip(&reports) {
                for row in &report.overshoot {
                    println!(
                        "{:<5} {:<24} {:>9} {:>13.1} {:>13.1} {:>13.2}",
                        architecture.label(),
                        row.class,
                        row.count,
                        row.requested_us,
                        row.actual_us,
                        row.mean_overshoot_us(),
                    );
                }
            }
        }
    }
    eprintln!("peak resident memory: {}", peak_resident());
    if failed {
        eprintln!("repro live: an architecture made no progress or shut down unclean");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro live-sweep`: the tentpole grid — one virtual-clock live run per
/// (conversations × buffers × arch × X) point, fanned out on the sweep
/// worker pool, rendered in paper order next to the matching GTPN model
/// points. Stdout is byte-deterministic (virtual clock everywhere, no
/// wall-clock content); wall-clock totals go to stderr.
fn run_live_sweep(args: &[String]) -> ExitCode {
    let spec = match parse_live(args, true) {
        Ok((.., spec)) => spec,
        Err(e) => {
            eprintln!("repro live-sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = sweep::threads();
    let started = Instant::now();
    let outcome = hsipc::livesweep::run_with(&spec, threads);
    let total_seconds = started.elapsed().as_secs_f64();
    print!("{}", outcome.rendered);
    // Wall-clock lives on stderr only: the rendered stdout is the
    // byte-identity surface CI diffs across runs and thread counts.
    eprintln!(
        "live-sweep: {} point(s) in {:.2} s wall ({} thread(s)); {:.2} s virtual simulated in {:.2} s of run wall ({:.0}x aggregate)",
        outcome.outcomes.len(),
        total_seconds,
        threads,
        outcome.virtual_seconds,
        outcome.run_wall_seconds,
        outcome.virtual_seconds / outcome.run_wall_seconds.max(1e-9),
    );
    if !outcome.all_clean || !outcome.all_progressed {
        eprintln!("repro live-sweep: a grid point made no progress or shut down unclean");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
