//! The parent side: runs a workload as repeated cold child processes, times
//! them from outside, checks what they report and prints every metric.

use crate::child::{self, Inputs, Outcome};
use crate::metrics::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{json, procfs, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Exit code when a workload could not be measured under the conditions
/// its numbers need (no `taskset`): unresolved, not a result.
const UNRESOLVED: u8 = 3;

// ---------------------------------------------------------------------------
// Command lines
// ---------------------------------------------------------------------------

/// Splits `--key value` pairs (and the bare `switches`) into a map.
fn flags(args: &[String], switches: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = if switches.contains(&key) {
            "1".to_string()
        } else {
            args.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        if map.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(map)
}

fn take<T: std::str::FromStr>(
    map: &mut BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match map.remove(key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key}: cannot read `{text}`")),
        None => Ok(default),
    }
}

fn take_switch(map: &mut BTreeMap<String, String>, key: &str) -> Result<bool, String> {
    match take(map, key, 0u8)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--{key}: expected 0 or 1, got {other}")),
    }
}

fn no_leftovers(map: BTreeMap<String, String>) -> Result<(), String> {
    match map.keys().next() {
        Some(key) => Err(format!("unknown option --{key}")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The child's side of the wire: `key=value` lines on stdout.
// ---------------------------------------------------------------------------

pub fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let mut map = flags(args, &[])?;
    let workload: String = take(&mut map, "workload", String::new())?;
    let seed = take(&mut map, "seed", 1u64)?;
    let traced = take_switch(&mut map, "trace")?;
    let quick = take_switch(&mut map, "quick")?;
    let golden_path: String = take(&mut map, "golden", String::new())?;
    let trace_out: String = take(&mut map, "trace-out", String::new())?;
    no_leftovers(map)?;

    let golden = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("cannot read the golden output {golden_path}: {e}"))?;
    let inputs = Inputs {
        seed,
        quick,
        golden: &golden,
    };
    let unknown = || format!("unknown workload `{workload}`");
    let outcome = if traced {
        let (outcome, trace) = child::run_traced(&workload, &inputs).ok_or_else(unknown)?;
        std::fs::write(&trace_out, trace.to_json())
            .map_err(|e| format!("cannot write {trace_out}: {e}"))?;
        outcome
    } else {
        child::run(&workload, &inputs).ok_or_else(unknown)?
    };
    let read = |path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    print!(
        "{}",
        report_text(
            &outcome,
            &read("/proc/self/status")?,
            &read("/proc/self/stat")?
        )?
    );
    Ok(ExitCode::SUCCESS)
}

fn report_text(outcome: &Outcome, status: &str, stat: &str) -> Result<String, String> {
    let rss_mb = procfs::peak_rss_mb(status).ok_or("no VmHWM in /proc/self/status")?;
    let cpu = procfs::cpu_use(stat).ok_or("cannot parse /proc/self/stat")?;
    let mut text = format!(
        "op_s={}\nwork={}\nattempted={}\nfailed={}\nfingerprint={}\nrss_mb={rss_mb}\ncpu_s={}\n\
         processor={}\n",
        outcome.op_s,
        outcome.work,
        outcome.attempted,
        outcome.failed,
        outcome.fingerprint,
        cpu.cpu_s,
        cpu.processor
    );
    for (name, value) in &outcome.metrics {
        text.push_str(&format!("metric.{name}={value}\n"));
    }
    Ok(text)
}

/// One child process as the parent saw it.
#[derive(Debug, Default, PartialEq)]
struct Rep {
    /// Spawn to exit, seconds.
    wall_s: f64,
    op_s: f64,
    work: f64,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    rss_mb: f64,
    cpu_s: f64,
    processor: u32,
    metrics: Vec<(String, f64)>,
}

fn parse_report(text: &str, wall_s: f64) -> Result<Rep, String> {
    let mut rep = Rep {
        wall_s,
        ..Rep::default()
    };
    let mut seen = 0;
    for line in text.lines() {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("child report line `{line}` has no `=`"))?;
        let number = || read::<f64>(line, value);
        let count = || read::<u64>(line, value);
        seen += 1;
        match key {
            "op_s" => rep.op_s = number()?,
            "work" => rep.work = number()?,
            "attempted" => rep.attempted = count()?,
            "failed" => rep.failed = count()?,
            "fingerprint" => rep.fingerprint = value.to_string(),
            "rss_mb" => rep.rss_mb = number()?,
            "cpu_s" => rep.cpu_s = number()?,
            "processor" => rep.processor = read(line, value)?,
            _ => {
                seen -= 1;
                let name = key
                    .strip_prefix("metric.")
                    .ok_or_else(|| format!("child report: unknown key `{key}`"))?;
                rep.metrics.push((name.to_string(), number()?));
            }
        }
    }
    if seen != 8 || rep.attempted == 0 {
        return Err("child report is incomplete".to_string());
    }
    Ok(rep)
}

fn read<T: std::str::FromStr>(line: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("child report: cannot read `{line}`"))
}

// ---------------------------------------------------------------------------
// Host discipline
// ---------------------------------------------------------------------------

struct Host {
    /// CPUs this process may run on.
    cpus: Vec<usize>,
    /// Whether `taskset` can pin a child.
    taskset: bool,
    rustc: String,
    commit: String,
}

fn first_line_of(command: &mut Command) -> Option<String> {
    let output = command.stderr(Stdio::null()).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    (output.status.success() && !text.trim().is_empty())
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

impl Host {
    fn detect() -> Host {
        let cpus = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| procfs::cpus_allowed(&status))
            .unwrap_or_else(|| {
                let n = std::thread::available_parallelism().map_or(1, |n| n.get());
                (0..n).collect()
            });
        let taskset = Command::new("taskset")
            .args(["-c", &cpus[cpus.len() - 1].to_string(), "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|status| status.success());
        let unknown = || "unknown".to_string();
        Host {
            cpus,
            taskset,
            rustc: first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown),
            commit: first_line_of(Command::new("git").args(["rev-parse", "HEAD"]))
                .unwrap_or_else(unknown),
        }
    }

    /// The one CPU measured children are pinned to: the last allowed one
    /// (CPU 0 tends to take the interrupts).
    fn pinned_cpu(&self) -> String {
        self.cpus[self.cpus.len() - 1].to_string()
    }

    /// Up to four CPUs, for the traced run's sweep-pool measurement.
    fn pool_cpus(&self) -> Vec<String> {
        self.cpus.iter().take(4).map(usize::to_string).collect()
    }
}

// ---------------------------------------------------------------------------
// Measuring
// ---------------------------------------------------------------------------

struct Context {
    host: Host,
    exe: PathBuf,
    golden: PathBuf,
    /// Where children run and the traces land: the cargo target directory
    /// (it holds this binary, so it exists), never the repository.
    out_dir: PathBuf,
    seed: u64,
    quick: bool,
}

impl Context {
    /// Runs one child under `taskset -c <cpus>` and reads its report.
    fn spawn(&self, workload: &Workload, traced: bool, cpus: &str) -> Result<Rep, String> {
        let mut command = Command::new("taskset");
        command.args(["-c", cpus]).arg(&self.exe);
        command
            .arg("child")
            .args(["--workload", workload.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--quick", if self.quick { "1" } else { "0" }])
            .arg("--golden")
            .arg(&self.golden)
            .arg("--trace-out")
            .arg(self.trace_path(workload))
            .current_dir(&self.out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let output = command
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        if !output.status.success() {
            return Err(format!(
                "{} child ended with {}",
                workload.name, output.status
            ));
        }
        parse_report(&String::from_utf8_lossy(&output.stdout), wall_s)
    }

    fn trace_path(&self, workload: &Workload) -> PathBuf {
        self.out_dir.join(format!("trace.{}.json", workload.name))
    }
}

/// One printed line: a metric's reported value beside the spread of the
/// samples behind it.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl Row {
    fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Row {
        Row {
            name,
            unit,
            value: stats::median(samples),
            min: stats::min(samples),
            max: stats::max(samples),
            n: samples.len(),
        }
    }
}

/// The end-to-end measurement of one workload.
struct Measured {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    op_s: f64,
    processors: Vec<u32>,
}

impl Measured {
    fn value(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|row| row.name == name)
            .map_or(0.0, |row| row.value)
    }
}

/// Runs `workload` as one warm-up process (the first process of a batch
/// pays for a cold page cache) and then cold processes for `seconds`.
fn measure(ctx: &Context, workload: &Workload, seconds: f64) -> Result<Measured, String> {
    let cpu = ctx.host.pinned_cpu();
    let warm_up = ctx.spawn(workload, false, &cpu)?;
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        reps.push(ctx.spawn(workload, false, &cpu)?);
        let spent = started.elapsed().as_secs_f64();
        let next = reps[reps.len() - 1].wall_s;
        if reps.len() >= 2 && (ctx.quick || spent + next > seconds) {
            break;
        }
    }

    let mut failed: u64 = warm_up.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    let attempted = warm_up.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();
    for rep in &reps {
        if rep.fingerprint != warm_up.fingerprint {
            eprintln!(
                "benchmark: FAILED: {}: outputs differ between processes: `{}` then `{}`",
                workload.name, warm_up.fingerprint, rep.fingerprint
            );
            failed += 1;
        }
    }

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let rss = column(|r| r.rss_mb);
    let rows = vec![
        Row::median("wall_s", "s", &column(|r| r.wall_s)),
        Row::median("work_per_wall_s", "1/s", &column(|r| r.work / r.op_s)),
        Row {
            // Peak memory is the worst process, not the typical one.
            value: stats::max(&rss),
            ..Row::median("peak_rss_mb", "MiB", &rss)
        },
        // What a cold process costs around the operation itself: exec,
        // start-up, building inputs, checking and reporting outputs,
        // tearing the process down.
        Row::median("setup_s", "s", &column(|r| r.wall_s - r.op_s)),
    ];
    let mut processors: Vec<u32> = reps.iter().map(|r| r.processor).collect();
    processors.sort_unstable();
    processors.dedup();
    Ok(Measured {
        rows,
        attempted,
        failed,
        fingerprint: warm_up.fingerprint,
        op_s: stats::median(&column(|r| r.op_s)),
        processors,
    })
}

/// The traced run: one traced child beside the untraced measurement.
fn traced(ctx: &Context, workload: &Workload, untraced: &Measured) -> Result<Measured, String> {
    let rep = ctx.spawn(workload, true, &ctx.host.pinned_cpu())?;
    let mut values: BTreeMap<&str, f64> =
        rep.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    if workload.pool {
        // What the sweep pool buys: the workload once more, untraced, on
        // up to four CPUs, against the pinned median.
        let cpus = ctx.host.pool_cpus();
        let pooled = ctx.spawn(workload, false, &cpus.join(","))?;
        values.insert("sweep.figs_wall_s.t1", untraced.op_s);
        values.insert("sweep.figs_speedup", untraced.op_s / pooled.op_s);
        values.insert("sweep.cpus", cpus.len() as f64);
    }
    values.insert("host.cpu_s", rep.cpu_s);
    values.insert("host.untraced_wall_s", untraced.op_s);
    values.insert("host.traced_wall_s", rep.op_s);
    values.insert(
        "trace.overhead_pct",
        100.0 * (rep.op_s - untraced.op_s) / untraced.op_s,
    );
    let rows = PER_LAYER
        .iter()
        .map(|metric| {
            let value = values.remove(metric.name).unwrap_or(0.0);
            Row::median(metric.name, metric.unit, &[value])
        })
        .collect();
    if let Some(stray) = values.keys().next() {
        return Err(format!(
            "the traced child reported `{stray}`, which is not a metric"
        ));
    }
    let mut failed = untraced.failed + rep.failed;
    if rep.fingerprint != untraced.fingerprint {
        eprintln!(
            "benchmark: FAILED: {}: the traced replay's outputs differ: `{}` vs `{}`",
            workload.name, rep.fingerprint, untraced.fingerprint
        );
        failed += 1;
    }
    Ok(Measured {
        rows,
        attempted: untraced.attempted + rep.attempted,
        failed,
        fingerprint: rep.fingerprint,
        op_s: rep.op_s,
        processors: vec![rep.processor],
    })
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn print_rows(rows: &[Row], hide_zero: bool) {
    println!(
        "  {:<34} {:<6} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "value", "min", "max", "n"
    );
    for row in rows.iter().filter(|row| !(hide_zero && row.value == 0.0)) {
        println!(
            "  {:<34} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            row.name, row.unit, row.value, row.min, row.max, row.n
        );
    }
}

fn print_result_line(m: &Measured) {
    let metrics: Vec<(&str, String)> = m
        .rows
        .iter()
        .map(|row| {
            let value = json::object(&[
                ("value", json::number(row.value)),
                ("unit", json::string(row.unit)),
            ]);
            (row.name, value)
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct", (m.failed == 0).to_string()),
            ("attempted", json::number(m.attempted as f64)),
            ("failed", json::number(m.failed as f64)),
            ("metrics", json::object(&metrics)),
        ])
    );
}

fn print_measured(ctx: &Context, workload: &Workload, m: &Measured, what: &str) {
    let processors: Vec<String> = m.processors.iter().map(u32::to_string).collect();
    println!(
        "\nworkload {} ({what}): pinned to CPU {} (ran on {}), {} operations, {} failed, \
         failed_share {}",
        workload.name,
        ctx.host.pinned_cpu(),
        processors.join(","),
        m.attempted,
        m.failed,
        m.failed as f64 / m.attempted as f64,
    );
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut map = flags(args, &["quick", "repeat-check"])?;
    let only: String = take(&mut map, "workload", String::new())?;
    let seed = take(&mut map, "seed", 1u64)?;
    let seconds = take(&mut map, "seconds", f64::from(metrics::RUN_SECONDS))?;
    let trace = take_switch(&mut map, "trace")?;
    let quick = take_switch(&mut map, "quick")?;
    let repeat_check = take_switch(&mut map, "repeat-check")?;
    let build_s = take(&mut map, "build-s", f64::NAN)?;
    no_leftovers(map)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds: {seconds} is not a run length"));
    }
    let workloads: Vec<&Workload> = if only.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        vec![metrics::workload(&only).ok_or_else(|| format!("unknown workload `{only}`"))?]
    };

    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let golden = root.join("repro_output.txt");
    if !golden.is_file() {
        return Err(format!(
            "{} is missing: run from the repository root",
            golden.display()
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or("target/benchmark".into(), PathBuf::from);
    let ctx = Context {
        host: Host::detect(),
        exe: std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?,
        golden,
        out_dir: root.join(target),
        seed,
        quick,
    };
    print_header(&ctx, seconds, trace, build_s);

    let mut code = ExitCode::SUCCESS;
    for workload in workloads {
        if !ctx.host.taskset {
            println!(
                "\nworkload {}: unresolved — `taskset` cannot pin a child here, and unpinned runs \
                 measure the scheduler and the neighbours (see benchmark/README.md)",
                workload.name
            );
            code = ExitCode::from(UNRESOLVED);
            continue;
        }
        if repeat_check {
            if !repeat(&ctx, workload, seconds)? {
                code = ExitCode::FAILURE;
            }
            continue;
        }
        // A traced run spends most of its time in the traced child; the
        // untraced baseline beside it gets a shorter window.
        let untraced = measure(&ctx, workload, if trace { seconds * 0.4 } else { seconds })?;
        print_measured(&ctx, workload, &untraced, "tracing off");
        print_rows(&untraced.rows, false);
        if trace {
            let layers = traced(&ctx, workload, &untraced)?;
            print_measured(&ctx, workload, &layers, "traced run");
            print_rows(&layers.rows, true);
            println!("  spans: {}", ctx.trace_path(workload).display());
            print_result_line(&layers);
        } else {
            print_result_line(&untraced);
        }
    }
    Ok(code)
}

fn print_header(ctx: &Context, seconds: f64, trace: bool, build_s: f64) {
    let list = |cpus: &[usize]| {
        cpus.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "hsipc-benchmark: seed {}, {}, tracing {}",
        ctx.seed,
        if ctx.quick {
            "toy sizes (--quick)".to_string()
        } else {
            format!("{seconds} s per workload")
        },
        if trace { "on" } else { "off" },
    );
    println!(
        "host: {} CPU(s) allowed ({}); taskset {}; {}; commit {}",
        ctx.host.cpus.len(),
        list(&ctx.host.cpus),
        if ctx.host.taskset {
            "pins children"
        } else {
            "unavailable"
        },
        ctx.host.rustc,
        ctx.host.commit,
    );
    if build_s.is_finite() {
        println!("build: cargo build --release --offline took {build_s:.3} s");
    }
}

/// `--repeat-check`: the end-to-end set twice back to back; every metric's
/// two medians must agree within its own bound and the exact outputs must
/// be equal.
fn repeat(ctx: &Context, workload: &Workload, seconds: f64) -> Result<bool, String> {
    let first = measure(ctx, workload, seconds)?;
    let second = measure(ctx, workload, seconds)?;
    println!("\nworkload {} (repeat check)", workload.name);
    println!(
        "  {:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "first", "second", "apart", "bound"
    );
    let mut agree = true;
    for (metric, bound) in &END_TO_END {
        let (a, b) = (first.value(metric.name), second.value(metric.name));
        let ok = stats::agree_within(a, b, metric.better, *bound);
        agree &= ok;
        println!(
            "  {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
            metric.name,
            a,
            b,
            100.0 * stats::worse_by(a, b, metric.better),
            100.0 * bound,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    let exact = first.fingerprint == second.fingerprint && first.failed == second.failed;
    println!(
        "  exact outputs ({}) and failures ({} of {}): {}",
        first.fingerprint,
        first.failed,
        first.attempted,
        if exact { "equal" } else { "DIFFER" }
    );
    Ok(agree && exact && first.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_split_pairs_and_switches() {
        let mut map = flags(
            &strings(&["--seed", "7", "--quick", "--trace", "1"]),
            &["quick"],
        )
        .expect("well formed");
        assert_eq!(take(&mut map, "seed", 1u64), Ok(7));
        assert_eq!(take_switch(&mut map, "quick"), Ok(true));
        assert_eq!(take_switch(&mut map, "trace"), Ok(true));
        assert_eq!(take(&mut map, "seconds", 15.0), Ok(15.0));
        assert!(no_leftovers(map).is_ok());

        assert!(flags(&strings(&["seed"]), &[]).is_err());
        assert!(flags(&strings(&["--seed"]), &[]).is_err());
        assert!(flags(&strings(&["--seed", "1", "--seed", "2"]), &[]).is_err());
        let mut map = flags(
            &strings(&["--trace", "2", "--seed", "x", "--zzz", "1"]),
            &[],
        )
        .unwrap();
        assert!(take_switch(&mut map, "trace").is_err());
        assert!(take(&mut map, "seed", 1u64).is_err());
        assert!(no_leftovers(map).is_err());
    }

    #[test]
    fn a_child_report_round_trips() {
        let mut outcome = Outcome {
            op_s: 0.75,
            work: 3246.0,
            attempted: 9,
            failed: 1,
            fingerprint: "round_trips=5,handoffs=7".to_string(),
            metrics: vec![("gtpn.cache_hit_rate".to_string(), 0.39)],
        };
        let status = "VmHWM:\t  2048 kB\n";
        let stat = format!(
            "1 (x) S{} 0 0",
            " 0".repeat(10) + " 120 30" + &" 0".repeat(23) + " 1"
        );
        let text = report_text(&outcome, status, &stat).expect("procfs text parses");
        let rep = parse_report(&text, 0.8).expect("own report parses");
        assert_eq!(
            rep,
            Rep {
                wall_s: 0.8,
                op_s: 0.75,
                work: 3246.0,
                attempted: 9,
                failed: 1,
                fingerprint: "round_trips=5,handoffs=7".to_string(),
                rss_mb: 2.0,
                cpu_s: 1.5,
                processor: 1,
                metrics: vec![("gtpn.cache_hit_rate".to_string(), 0.39)],
            }
        );
        assert!(report_text(&outcome, "", &stat).is_err());

        // A truncated, a garbled and an empty-handed report are all refused.
        assert!(parse_report("op_s=1\n", 1.0).is_err());
        assert!(parse_report(&text.replace("work=3246", "work=many"), 1.0).is_err());
        assert!(parse_report(&text.replace("op_s=", "ops="), 1.0).is_err());
        outcome.attempted = 0;
        let text = report_text(&outcome, status, &stat).unwrap();
        assert!(parse_report(&text, 1.0).is_err());
    }
}
