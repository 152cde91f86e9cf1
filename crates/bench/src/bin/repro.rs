//! Regenerates the paper's tables and figures. See `bench` crate docs.
//!
//! Experiments run through the sweep engine: the requested ids are a grid
//! whose points execute on a worker pool, and each swept experiment fans
//! its own points out on the same policy. Output is printed in request
//! order and is byte-identical to a sequential run (`--sequential` or
//! `HSIPC_SWEEP=1` forces one; `HSIPC_SWEEP=<n>` / `RAYON_NUM_THREADS` /
//! `HSIPC_SWEEP_THREADS` set the worker count).
//!
//! `--timing` additionally reports wall-clock, cache statistics and the
//! exact solver's stage ledger (`gtpn::engine::stage_totals`) on stderr,
//! runs the non-local n=4 solver micro-benchmark at one thread vs
//! the full budget, and writes the machine-readable perf trajectory to
//! `BENCH_solver.json` — stdout stays byte-identical either way.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use sweep::ExecMode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = sweep::exec_mode();
    let mut timing = false;
    args.retain(|a| match a.as_str() {
        "--sequential" | "--seq" => {
            mode = ExecMode::Sequential;
            false
        }
        "--timing" => {
            timing = true;
            false
        }
        _ => true,
    });
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: repro [--sequential] [--timing] [list | all | live | live-sweep | <experiment-id>...]"
        );
        eprintln!("experiment ids: table3.1..table3.7, table5.1, table5.2,");
        eprintln!("  table6.1, table6.2, table6.4..table6.25, fig6.7..fig6.23, fig7.1, fig7.scale");
        eprintln!("live flags: [--arch I|II|III|IV|all] [--nodes N] [--conversations N]");
        eprintln!("  [--duration-ms N] [--scale F] [--server-compute-us F] [--buffers N]");
        eprintln!("  [--remote] [--no-json]");
        eprintln!("  [--clock real|virtual|both]  (flags also accept --flag=value)");
        eprintln!(
            "live-sweep flags: [--arch ...] [--x-list F,F,...] [--conversations-list N,N,...]"
        );
        eprintln!(
            "  [--buffers-list N,N,...] [--nodes N] [--duration-ms N] [--scale F] [--remote] [--no-json]"
        );
        return ExitCode::from(2);
    }
    if args[0] == "live" {
        return run_live(&args[1..]);
    }
    if args[0] == "live-sweep" {
        return run_live_sweep(&args[1..], mode);
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
    // One grid point per experiment; each result slot comes back in request
    // order no matter which worker produced it. Swept experiments fan out
    // their own points on the same pool policy. Per-experiment wall-clock
    // rides along for the `--timing` report (and is dropped otherwise).
    let grid = sweep::Grid::new(ids);
    let results = grid.eval_with(mode, threads, |id| {
        let t0 = Instant::now();
        let out = hsipc::experiments::run_with(id, mode, threads);
        (out, t0.elapsed().as_secs_f64())
    });
    let total_seconds = started.elapsed().as_secs_f64();

    let mut failed = false;
    let mut timed: Vec<(String, f64)> = Vec::with_capacity(grid.len());
    for (id, (result, seconds)) in grid.points().iter().zip(results) {
        match result {
            Some(output) => {
                println!("{output}");
                timed.push((id.clone(), seconds));
            }
            None => {
                eprintln!("unknown experiment `{id}` (try `repro list`)");
                failed = true;
            }
        }
    }
    if timing {
        eprintln!(
            "repro: {} experiment(s) in {:.2?} ({mode:?}, {threads} thread(s))",
            grid.len(),
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
        let reach = gtpn::cache::stats();
        eprintln!(
            "reachability cache: {} hits, {} misses, {} evictions, {} dedup drops, {} entries, {:.1} MiB",
            reach.hits,
            reach.misses,
            reach.evictions,
            reach.dedup_drops,
            reach.entries,
            reach.bytes as f64 / (1024.0 * 1024.0)
        );
        // Where the exact backend's misses spent their time, summed over
        // every run of the process (seconds add up across sweep workers).
        let stages = gtpn::engine::stage_totals();
        eprintln!(
            "exact solver stages: net compile {:.3} s, bfs {:.3} s, solve {:.3} s, delump {:.3} s; {} states, {} edges, {} sweeps, {} phase calls, {} phase configs",
            stages.net_compile_s,
            stages.bfs_s,
            stages.solve_s,
            stages.delump_s,
            stages.states,
            stages.edges,
            stages.sweeps,
            stages.phase_calls,
            stages.phase_configs
        );
        let json = timing_json(mode, threads, total_seconds, &timed, engine, reach);
        match std::fs::write("BENCH_solver.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_solver.json"),
            Err(e) => eprintln!("could not write BENCH_solver.json: {e}"),
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro live`: executes the requested architectures under load and
/// prints the measured throughput and latency. Not part of `repro all` —
/// real-clock live output is wall-clock-dependent, and `repro all`'s
/// stdout is kept byte-identical for the golden-output check. (Virtual
/// runs *are* deterministic; CI diffs their stdout directly.)
fn run_live(args: &[String]) -> ExitCode {
    // Accept both `--flag value` and `--flag=value`.
    let args: Vec<String> = args
        .iter()
        .flat_map(
            |a| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
                Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
                None => vec![a.clone()],
            },
        )
        .collect();
    // Environment first (validated: typos and malformed values are hard
    // errors), CLI flags override.
    let env = match runtime::LiveEnv::from_env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("repro live: {e}");
            return ExitCode::from(2);
        }
    };
    let mut archs = env.archs.clone();
    let mut base = runtime::Config::new(runtime::Architecture::Uniprocessor);
    env.apply(&mut base);
    let mut modes = vec![base.clock];
    let mut json = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--arch" => archs = Some(runtime::env::parse_archs(&value("--arch")?)?),
                "--nodes" => base.nodes = parse(&value("--nodes")?, "--nodes")?,
                "--conversations" => {
                    base.conversations = parse(&value("--conversations")?, "--conversations")?;
                }
                "--duration-ms" => {
                    base.duration = std::time::Duration::from_millis(parse(
                        &value("--duration-ms")?,
                        "--duration-ms",
                    )?);
                }
                "--scale" => base.scale = parse(&value("--scale")?, "--scale")?,
                "--server-compute-us" => {
                    let x: f64 = parse(&value("--server-compute-us")?, "--server-compute-us")?;
                    if !(x >= 0.0 && x.is_finite()) {
                        return Err(format!(
                            "--server-compute-us: must be a non-negative finite number, got `{x}`"
                        ));
                    }
                    base.server_compute_us = x;
                }
                "--buffers" => base.buffers = parse(&value("--buffers")?, "--buffers")?,
                "--clock" => {
                    let v = value("--clock")?;
                    modes = match v.as_str() {
                        "both" => vec![runtime::ClockMode::Real, runtime::ClockMode::Virtual],
                        other => vec![other.parse::<runtime::ClockMode>()?],
                    };
                }
                "--remote" => base.locality = runtime::Locality::NonLocal,
                "--no-json" => json = false,
                other => return Err(format!("unknown flag `{other}` (try `repro --help`)")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("repro live: {e}");
            return ExitCode::from(2);
        }
    }
    let archs = archs.unwrap_or_else(|| runtime::Architecture::ALL.to_vec());
    if base.locality == runtime::Locality::NonLocal && base.nodes < 2 {
        base.nodes = 2;
    }

    let mut reports = Vec::with_capacity(modes.len() * archs.len());
    let mut failed = false;
    for (i, &mode) in modes.iter().enumerate() {
        if i > 0 {
            println!();
        }
        base.clock = mode;
        println!(
            "live runtime: {} conversation(s)/node x {} node(s), {} traffic, X = {:.0} us, scale {}, {} ms load, {} clock",
            base.conversations,
            base.nodes,
            match base.locality {
                runtime::Locality::Local => "local",
                runtime::Locality::NonLocal => "non-local",
            },
            base.server_compute_us,
            base.scale,
            base.duration.as_millis(),
            mode,
        );
        println!(
            "{:<5} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}  shutdown",
            "arch",
            "roundtrips",
            "thru/ms",
            "mean_us",
            "p50_us",
            "p95_us",
            "p99_us",
            "max_us",
            "stalls",
            "frames"
        );
        for &arch in &archs {
            let mut config = base.clone();
            config.architecture = arch;
            let report = runtime::run(&config);
            println!(
                "{:<5} {:>11} {:>9.2} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>7}  {}",
                arch.label(),
                report.round_trips,
                report.throughput_per_ms,
                report.latency.mean_us,
                report.latency.p50_us,
                report.latency.p95_us,
                report.latency.p99_us,
                report.latency.max_us,
                report.buffer_stalls,
                report.ring_frames,
                if report.clean_shutdown {
                    "clean"
                } else {
                    "UNCLEAN"
                }
            );
            // Wall-clock figures go to stderr: virtual stdout stays
            // byte-deterministic for the CI diff legs.
            if mode == runtime::ClockMode::Virtual {
                eprintln!(
                    "virtual {}: {:.3} s simulated in {:.3} s wall ({:.0}x)",
                    arch.label(),
                    report.elapsed.as_secs_f64(),
                    report.wall.as_secs_f64(),
                    report.elapsed.as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
                );
            }
            eprintln!(
                "{mode} {} wall split: setup {:.4} s, run {:.4} s, teardown {:.4} s",
                arch.label(),
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
        if mode == runtime::ClockMode::Real {
            println!("sleep overshoot (real clock; requested vs actual occupancy):");
            println!(
                "{:<5} {:<24} {:>9} {:>13} {:>13} {:>13}",
                "arch", "class", "calls", "requested_us", "actual_us", "mean_over_us"
            );
            for report in reports.iter().filter(|r| r.clock == mode) {
                for row in &report.overshoot {
                    println!(
                        "{:<5} {:<24} {:>9} {:>13.1} {:>13.1} {:>13.2}",
                        report.architecture.label(),
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
    if json {
        let out = live_json(&base, &modes, &reports);
        match std::fs::write("BENCH_runtime.json", &out) {
            Ok(()) => eprintln!("wrote BENCH_runtime.json"),
            Err(e) => eprintln!("could not write BENCH_runtime.json: {e}"),
        }
    }
    if failed {
        eprintln!("repro live: an architecture made no progress or shut down unclean");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad value `{s}`"))
}

fn parse_csv<T: std::str::FromStr>(s: &str, flag: &str) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = s
        .split(',')
        .map(|item| {
            let item = item.trim();
            if item.is_empty() {
                return Err(format!("{flag}: empty item in `{s}`"));
            }
            parse(item, flag)
        })
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{flag}: needs at least one value"));
    }
    Ok(items)
}

/// `repro live-sweep`: the tentpole grid — one virtual-clock live run per
/// (conversations × buffers × arch × X) point, fanned out on the sweep
/// worker pool, rendered in paper order next to the matching GTPN model
/// points. Stdout is byte-deterministic (virtual clock everywhere, no
/// wall-clock content); wall-clock totals go to stderr and
/// `BENCH_runtime.json`.
fn run_live_sweep(args: &[String], mode: ExecMode) -> ExitCode {
    let args: Vec<String> = args
        .iter()
        .flat_map(
            |a| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
                Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
                None => vec![a.clone()],
            },
        )
        .collect();
    let env = match runtime::LiveEnv::from_env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("repro live-sweep: {e}");
            return ExitCode::from(2);
        }
    };
    // Environment first, CLI flags override. The list knobs
    // (HSIPC_LIVE_SWEEP_*) define axes; the single-run scalars
    // (HSIPC_LIVE_CONVERSATIONS etc.) degrade to one-point axes when no
    // list is given. HSIPC_LIVE_CLOCK is ignored: the sweep is
    // virtual-clock by construction.
    let mut spec = hsipc::livesweep::SweepSpec::default_curve();
    if let Some(archs) = env.archs.clone() {
        spec.archs = archs;
    }
    if let Some(nodes) = env.nodes {
        spec.nodes = nodes;
    }
    if let Some(ms) = env.duration_ms {
        spec.duration = std::time::Duration::from_millis(ms);
    }
    if let Some(scale) = env.scale {
        spec.scale = scale;
    }
    if let Some(x) = env.sweep_x_us.clone() {
        spec.x_us = x;
    } else if let Some(x) = env.server_compute_us {
        spec.x_us = vec![x];
    }
    if let Some(conversations) = env.sweep_conversations.clone() {
        spec.conversations = conversations;
    } else if let Some(c) = env.conversations {
        spec.conversations = vec![c];
    }
    if let Some(buffers) = env.sweep_buffers.clone() {
        spec.buffers = buffers;
    } else if let Some(b) = env.buffers {
        spec.buffers = vec![b];
    }
    let mut json = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--arch" => spec.archs = runtime::env::parse_archs(&value("--arch")?)?,
                "--x-list" => {
                    let xs: Vec<f64> = parse_csv(&value("--x-list")?, "--x-list")?;
                    if let Some(bad) = xs.iter().find(|x| !(**x >= 0.0 && x.is_finite())) {
                        return Err(format!(
                            "--x-list: must be non-negative finite numbers, got `{bad}`"
                        ));
                    }
                    spec.x_us = xs;
                }
                "--conversations-list" => {
                    let convs: Vec<u32> =
                        parse_csv(&value("--conversations-list")?, "--conversations-list")?;
                    if convs.contains(&0) {
                        return Err("--conversations-list: conversations must be >= 1".into());
                    }
                    spec.conversations = convs;
                }
                "--buffers-list" => {
                    let buffers: Vec<u16> = parse_csv(&value("--buffers-list")?, "--buffers-list")?;
                    if buffers.contains(&0) {
                        return Err("--buffers-list: buffers must be >= 1".into());
                    }
                    spec.buffers = buffers;
                }
                "--nodes" => spec.nodes = parse(&value("--nodes")?, "--nodes")?,
                "--duration-ms" => {
                    spec.duration = std::time::Duration::from_millis(parse(
                        &value("--duration-ms")?,
                        "--duration-ms",
                    )?);
                }
                "--scale" => spec.scale = parse(&value("--scale")?, "--scale")?,
                "--remote" => spec.locality = runtime::Locality::NonLocal,
                "--no-json" => json = false,
                other => return Err(format!("unknown flag `{other}` (try `repro --help`)")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("repro live-sweep: {e}");
            return ExitCode::from(2);
        }
    }
    if spec.locality == runtime::Locality::NonLocal && spec.nodes < 2 {
        spec.nodes = 2;
    }

    let threads = sweep::threads();
    let started = Instant::now();
    let outcome = hsipc::livesweep::run_with(&spec, mode, threads);
    let total_seconds = started.elapsed().as_secs_f64();
    print!("{}", outcome.rendered);
    // Wall-clock lives on stderr only: the rendered stdout is the
    // byte-identity surface CI diffs across runs and thread counts.
    eprintln!(
        "live-sweep: {} point(s) in {:.2} s wall ({:?}, {} thread(s)); {:.2} s virtual simulated in {:.2} s of run wall ({:.0}x aggregate)",
        outcome.outcomes.len(),
        total_seconds,
        mode,
        threads,
        outcome.virtual_seconds,
        outcome.run_wall_seconds,
        outcome.virtual_seconds / outcome.run_wall_seconds.max(1e-9),
    );
    if json {
        let out = live_sweep_json(&spec, mode, threads, total_seconds, &outcome);
        match std::fs::write("BENCH_runtime.json", &out) {
            Ok(()) => eprintln!("wrote BENCH_runtime.json"),
            Err(e) => eprintln!("could not write BENCH_runtime.json: {e}"),
        }
    }
    if !outcome.all_clean || !outcome.all_progressed {
        eprintln!("repro live-sweep: a grid point made no progress or shut down unclean");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The machine-readable `repro live-sweep` report: schema v3 with the
/// per-point rows under `runs` and the sweep summary under `live_sweep`.
fn live_sweep_json(
    spec: &hsipc::livesweep::SweepSpec,
    mode: ExecMode,
    threads: usize,
    total_seconds: f64,
    outcome: &hsipc::livesweep::SweepOutcome,
) -> String {
    let mut rows = String::from("[");
    for (i, o) in outcome.outcomes.iter().enumerate() {
        if i > 0 {
            rows.push_str(", ");
        }
        let model = o
            .model_per_ms
            .map_or_else(|| "null".to_string(), |m| format!("{m:.4}"));
        let err = o
            .rel_err_pct(spec.nodes)
            .map_or_else(|| "null".to_string(), |e| format!("{e:.2}"));
        let _ = write!(
            rows,
            concat!(
                "{{\"architecture\": \"{arch}\", \"x_us\": {x}, ",
                "\"conversations_per_node\": {convs}, \"buffers\": {buffers}, ",
                "\"round_trips\": {rts}, ",
                "\"live_per_node_ms\": {live:.4}, \"model_per_ms\": {model}, ",
                "\"rel_err_pct\": {err}, ",
                "\"latency_us\": {{\"p50\": {p50:.2}, \"p99\": {p99:.2}, \"max\": {max:.2}}}, ",
                "\"buffer_stalls\": {stalls}, \"peak_ring_queue\": {peak}, ",
                "\"clean_shutdown\": {clean}}}"
            ),
            arch = o.point.architecture.label(),
            x = o.point.x_us,
            convs = o.point.conversations,
            buffers = o.point.buffers,
            rts = o.report.round_trips,
            live = o.live_per_node_ms(spec.nodes),
            model = model,
            err = err,
            p50 = o.report.latency.p50_us,
            p99 = o.report.latency.p99_us,
            max = o.report.latency.max_us,
            stalls = o.report.buffer_stalls,
            peak = o.report.peak_ring_queue,
            clean = o.report.clean_shutdown,
        );
    }
    rows.push(']');
    let list = |items: &[String]| {
        let mut s = String::from("[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(item);
        }
        s.push(']');
        s
    };
    let archs = list(
        &spec
            .archs
            .iter()
            .map(|a| format!("\"{}\"", a.label()))
            .collect::<Vec<_>>(),
    );
    let x_us = list(&spec.x_us.iter().map(|x| format!("{x}")).collect::<Vec<_>>());
    let conversations = list(
        &spec
            .conversations
            .iter()
            .map(|c| format!("{c}"))
            .collect::<Vec<_>>(),
    );
    let buffers = list(
        &spec
            .buffers
            .iter()
            .map(|b| format!("{b}"))
            .collect::<Vec<_>>(),
    );
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"hsipc-bench-runtime/v3\",\n",
            "  \"workload\": {{\n",
            "    \"nodes\": {nodes},\n",
            "    \"archs\": {archs},\n",
            "    \"x_us\": {x_us},\n",
            "    \"conversations_per_node\": {convs},\n",
            "    \"buffers\": {buffers},\n",
            "    \"locality\": \"{locality}\",\n",
            "    \"scale\": {scale},\n",
            "    \"duration_ms\": {dur},\n",
            "    \"clock_modes\": [\"virtual\"]\n",
            "  }},\n",
            "  \"runs\": {rows},\n",
            "  \"live_sweep\": {{\n",
            "    \"mode\": \"{mode:?}\",\n",
            "    \"threads\": {threads},\n",
            "    \"grid_points\": {points},\n",
            "    \"total_wall_seconds\": {total:.4},\n",
            "    \"virtual_seconds\": {virt:.4},\n",
            "    \"run_wall_seconds\": {run_wall:.4},\n",
            "    \"aggregate_virtual_speedup\": {agg:.1}\n",
            "  }}\n",
            "}}\n",
        ),
        nodes = spec.nodes,
        archs = archs,
        x_us = x_us,
        convs = conversations,
        buffers = buffers,
        locality = match spec.locality {
            runtime::Locality::Local => "local",
            runtime::Locality::NonLocal => "non-local",
        },
        scale = spec.scale,
        dur = spec.duration.as_millis(),
        rows = rows,
        mode = mode,
        threads = threads,
        points = outcome.outcomes.len(),
        total = total_seconds,
        virt = outcome.virtual_seconds,
        run_wall = outcome.run_wall_seconds,
        agg = outcome.virtual_seconds / outcome.run_wall_seconds.max(1e-9),
    )
}

/// The machine-readable `repro live` report.
fn live_json(
    base: &runtime::Config,
    modes: &[runtime::ClockMode],
    reports: &[runtime::RunReport],
) -> String {
    let mut rows = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            rows.push_str(", ");
        }
        let _ = write!(
            rows,
            concat!(
                "{{\"architecture\": \"{arch}\", \"clock\": \"{clock}\", ",
                "\"round_trips\": {rts}, ",
                "\"elapsed_seconds\": {elapsed:.4}, ",
                "\"wall_seconds\": {wall:.4}, ",
                "\"throughput_per_ms\": {tp:.4}, ",
                "\"latency_us\": {{\"mean\": {mean:.2}, \"p50\": {p50:.2}, ",
                "\"p95\": {p95:.2}, \"p99\": {p99:.2}, \"max\": {max:.2}}}, ",
                "\"buffer_stalls\": {stalls}, \"ring_frames\": {frames}, ",
                "\"clean_shutdown\": {clean}}}"
            ),
            arch = r.architecture.label(),
            clock = r.clock,
            rts = r.round_trips,
            elapsed = r.elapsed.as_secs_f64(),
            wall = r.wall.as_secs_f64(),
            tp = r.throughput_per_ms,
            mean = r.latency.mean_us,
            p50 = r.latency.p50_us,
            p95 = r.latency.p95_us,
            p99 = r.latency.p99_us,
            max = r.latency.max_us,
            stalls = r.buffer_stalls,
            frames = r.ring_frames,
            clean = r.clean_shutdown,
        );
    }
    rows.push(']');
    let mut clock_modes = String::from("[");
    for (i, mode) in modes.iter().enumerate() {
        if i > 0 {
            clock_modes.push_str(", ");
        }
        let _ = write!(clock_modes, "\"{mode}\"");
    }
    clock_modes.push(']');
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"hsipc-bench-runtime/v3\",\n",
            "  \"workload\": {{\n",
            "    \"nodes\": {nodes},\n",
            "    \"conversations_per_node\": {convs},\n",
            "    \"locality\": \"{locality}\",\n",
            "    \"server_compute_us\": {x},\n",
            "    \"scale\": {scale},\n",
            "    \"buffers\": {buffers},\n",
            "    \"duration_ms\": {dur},\n",
            "    \"clock_modes\": {clocks}\n",
            "  }},\n",
            "  \"runs\": {rows},\n",
            "  \"live_sweep\": null\n",
            "}}\n",
        ),
        nodes = base.nodes,
        convs = base.conversations,
        locality = match base.locality {
            runtime::Locality::Local => "local",
            runtime::Locality::NonLocal => "non-local",
        },
        x = base.server_compute_us,
        scale = base.scale,
        buffers = base.buffers,
        dur = base.duration.as_millis(),
        clocks = clock_modes,
        rows = rows,
    )
}

/// Times one non-local n=4 fixed-point solve under an isolated engine with
/// a `cores`-wide budget. The process-global reachability cache is cleared
/// first and the engine carries a private solution cache, so neither the
/// experiment run above nor the sibling measurement can feed this one.
fn nonlocal_n4_case(cores: usize) -> (f64, f64) {
    gtpn::cache::clear();
    let engine = models::AnalysisEngine::new(models::EngineConfig {
        backend: models::BackendSel::Exact,
        tolerance: models::TOLERANCE,
        max_sweeps: models::MAX_SWEEPS,
        state_budget: models::STATE_BUDGET,
        des: models::DesOptions::default(),
        par_solve: gtpn::par::par_solve_enabled(),
        warm_start: gtpn::engine::warm_start_enabled(),
        // Raw-solver micro-benchmark: lumping off keeps the timed work (full
        // reachability + Gauss–Seidel on the unreduced chain) stable across
        // environments so the BENCH trajectory stays comparable.
        lump: gtpn::LumpSel::Off,
    })
    .with_cache(256)
    .with_budget(Arc::new(gtpn::ParallelBudget::new(cores)));
    let t0 = Instant::now();
    let s = models::nonlocal::solve_in(&engine, models::Architecture::MessageCoprocessor, 4, 0.0)
        .expect("non-local n=4 solves");
    (t0.elapsed().as_secs_f64(), s.throughput_per_ms)
}

/// Times the fig7.scale n=8 point both ways — the lumped exact quotient
/// chain vs the DES estimator — under fresh engines with private caches,
/// and reports the JSON fragment. Neither path touches the process-global
/// reachability cache (lumped runs build their own quotient; DES builds no
/// graph), so the measurement is isolated from the experiment run above.
fn fig7_scale_case() -> String {
    let x = 5_700.0;
    let mk = |backend: models::BackendSel, lump: gtpn::LumpSel| {
        models::AnalysisEngine::new(models::EngineConfig {
            backend,
            tolerance: models::TOLERANCE,
            max_sweeps: models::MAX_SWEEPS,
            state_budget: models::STATE_BUDGET,
            des: models::DesOptions::default(),
            par_solve: gtpn::par::par_solve_enabled(),
            warm_start: gtpn::engine::warm_start_enabled(),
            lump,
        })
        // A private cache: without one the engine shares the process-global
        // solution cache and the exact point would time as a cache hit on
        // the experiment run above.
        .with_cache(16)
    };
    let t0 = Instant::now();
    let exact = models::local::solve_in(
        &mk(models::BackendSel::Exact, gtpn::LumpSel::On),
        models::Architecture::MessageCoprocessor,
        8,
        x,
    )
    .expect("lumped exact n=8 solves");
    let exact_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let des = models::local::solve_in(
        &mk(models::BackendSel::Des, gtpn::LumpSel::Off),
        models::Architecture::MessageCoprocessor,
        8,
        x,
    )
    .expect("DES n=8 estimates");
    let des_s = t0.elapsed().as_secs_f64();
    format!(
        concat!(
            "{{\n",
            "    \"description\": \"fig7.scale arch II local, n=8, x=5700: lumped exact quotient chain vs DES estimate (uncached)\",\n",
            "    \"exact_seconds\": {exact_s:.4},\n",
            "    \"exact_states\": {states},\n",
            "    \"exact_throughput_per_ms\": {exact_tp},\n",
            "    \"des_seconds\": {des_s:.4},\n",
            "    \"des_throughput_per_ms\": {des_tp},\n",
            "    \"des_half_width_per_ms\": {hw},\n",
            "    \"gap_per_ms\": {gap:.6}\n",
            "  }}"
        ),
        exact_s = exact_s,
        states = exact.states,
        exact_tp = exact.throughput_per_ms,
        des_s = des_s,
        des_tp = des.throughput_per_ms,
        hw = des.half_width_per_ms.unwrap_or(0.0),
        gap = (exact.throughput_per_ms - des.throughput_per_ms).abs(),
    )
}

/// The machine-readable `--timing` report: per-experiment wall-clock,
/// cache hit rates, the thread policy, the non-local n=4 solver
/// micro-benchmark at 1 thread vs the full thread budget, and the
/// fig7.scale lumped-exact vs DES comparison.
fn timing_json(
    mode: ExecMode,
    threads: usize,
    total_seconds: f64,
    timed: &[(String, f64)],
    engine: gtpn::cache::CacheStats,
    reach: gtpn::cache::CacheStats,
) -> String {
    // The solver benchmark: same model, same engine config, budgets of 1
    // and `threads.max(8)` cores. The results must agree to the bit —
    // thread budgets change wall-clock only.
    let bench_cores = threads.max(8);
    let (serial_s, serial_tp) = nonlocal_n4_case(1);
    let (par_s, par_tp) = nonlocal_n4_case(bench_cores);
    assert_eq!(
        serial_tp.to_bits(),
        par_tp.to_bits(),
        "thread budget changed the non-local result"
    );
    let physical = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let cache = |s: gtpn::cache::CacheStats| {
        let lookups = s.hits + s.misses;
        let rate = if lookups > 0 {
            s.hits as f64 / lookups as f64
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, ",
                "\"dedup_drops\": {}, \"entries\": {}, \"bytes\": {}, ",
                "\"hit_rate\": {:.4}}}"
            ),
            s.hits, s.misses, s.evictions, s.dedup_drops, s.entries, s.bytes, rate
        )
    };
    let mut experiments = String::from("[");
    for (i, (id, seconds)) in timed.iter().enumerate() {
        if i > 0 {
            experiments.push_str(", ");
        }
        let _ = write!(
            experiments,
            "{{\"id\": \"{id}\", \"seconds\": {seconds:.4}}}"
        );
    }
    experiments.push(']');

    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"hsipc-bench-solver/v2\",\n",
            "  \"mode\": \"{mode:?}\",\n",
            "  \"threads\": {threads},\n",
            "  \"physical_cores\": {physical},\n",
            "  \"total_seconds\": {total:.4},\n",
            "  \"engine_cache\": {engine},\n",
            "  \"reachability_cache\": {reach},\n",
            "  \"nonlocal_n4\": {{\n",
            "    \"description\": \"§6.6.3 fixed point, arch II, n=4, x=0: one solve under a 1-core budget vs a {cores}-core budget (uncached; results bit-identical)\",\n",
            "    \"serial_seconds\": {serial:.4},\n",
            "    \"parallel_seconds\": {par:.4},\n",
            "    \"parallel_cores\": {cores},\n",
            "    \"speedup\": {speedup:.3},\n",
            "    \"throughput_per_ms\": {tp}\n",
            "  }},\n",
            "  \"fig7_scale_n8\": {scale},\n",
            "  \"experiments\": {experiments}\n",
            "}}\n",
        ),
        mode = mode,
        threads = threads,
        physical = physical,
        total = total_seconds,
        engine = cache(engine),
        reach = cache(reach),
        cores = bench_cores,
        serial = serial_s,
        par = par_s,
        speedup = serial_s / par_s.max(1e-9),
        tp = serial_tp,
        scale = fig7_scale_case(),
        experiments = experiments,
    )
}
