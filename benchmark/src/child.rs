//! What one child process does: a single cold execution of a workload
//! through the library's public entry points — the ones `repro` calls —
//! followed by the output checks, or, with tracing on, a replay of the same
//! work with a span around every call into a layer plus that workload's
//! layer probes.
//!
//! A child is a fresh process so that `models::default_engine()`'s caches
//! start empty, as a user's do.

use crate::trace::Trace;
use hsipc::gtpn::{self, AnalysisEngine, BackendKind, BackendSel, EngineConfig, LumpSel};
use hsipc::livesweep::{self, SweepOutcome, SweepPoint, SweepSpec};
use hsipc::models::{self, local, nonlocal, validation};
use hsipc::msgkernel::{
    Kernel, KernelEvent, Message, NodeId, Packet, SendMode, ServiceAddr, Syscall,
};
use hsipc::netsim::{live::live_ring, RingNodeId};
use hsipc::runtime::{self, Architecture, ClockMode, Config, Histogram, Locality, RunReport};
use hsipc::smartmem::shared::{ListId, LockFreeModule, LockedModule, SharedQueue};
use hsipc::{experiments, sweep};
use std::hash::{DefaultHasher, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The nine figures of `figs`, in paper order.
pub const FIG_IDS: [&str; 9] = [
    "fig6.15", "fig6.17", "fig6.18", "fig6.19", "fig6.20", "fig6.21", "fig6.22", "fig6.23",
    "fig7.1",
];

/// Conversations of the `scale` solve. `fig7.scale` itself solves n = 16
/// (330,429 lumped states, 10–12 s): too long to repeat inside one run, so
/// the workload solves the same net at n = 12 and the traced run measures
/// n = 8, 16, 32 and the whole experiment once.
const SCALE_N: u32 = 12;
/// `fig7.scale`'s server time.
const SCALE_X_US: f64 = 5_700.0;
/// Golden `fig7.scale` throughputs (repro_output.txt) that bracket n = 12.
const SCALE_N8_PER_MS: f64 = 0.1374;
const SCALE_N16_PER_MS: f64 = 0.1377;

/// What a child reports to its parent.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds inside the library calls (tracing on: inside the replay).
    pub op_s: f64,
    /// Work completed: analyses (`figs`), lumped states (`scale`) or
    /// simulated round trips (`curve`, `deep`, `remote`).
    pub work: f64,
    /// Operations attempted: experiment ids, grid points or runs.
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic facts of the outputs; must repeat across processes.
    pub fingerprint: String,
    /// Per-layer metrics (tracing on).
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("benchmark: FAILED: {why}");
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }
}

pub struct Inputs<'a> {
    pub seed: u64,
    pub quick: bool,
    /// Text of the root `repro_output.txt`.
    pub golden: &'a str,
}

impl Inputs<'_> {
    /// The seed's offset on the server compute time X of the runtime
    /// workloads: 0 at seed 1, then a walk over [0, 95) µs in steps of a
    /// third of a microsecond, 285 distinct inputs. Not wider: from about
    /// +140 µs `deep`'s schedule changes regime (7% fewer handoffs for the
    /// same round trips), and seeds on both sides of that step would
    /// measure two workloads.
    pub fn x_offset_us(&self) -> f64 {
        (self.seed.wrapping_sub(1).wrapping_mul(97) % 285) as f64 / 3.0
    }

    fn deep(&self) -> Config {
        let mut config = Config::new(Architecture::SmartBus);
        (config.nodes, config.conversations, config.buffers) = if self.quick {
            (8, 16, 8)
        } else {
            (64, 400, 64)
        };
        config.duration = Duration::from_millis(150);
        config.locality = Locality::Local;
        config.server_compute_us += self.x_offset_us();
        config.clock = ClockMode::Virtual;
        config
    }

    fn remote(&self) -> Config {
        let mut config = Config::new(Architecture::MessageCoprocessor);
        (config.nodes, config.conversations) = if self.quick { (4, 8) } else { (16, 64) };
        config.buffers = 64;
        config.duration = Duration::from_millis(if self.quick { 1_000 } else { 16_000 });
        config.locality = Locality::NonLocal;
        config.server_compute_us += self.x_offset_us();
        config.clock = ClockMode::Virtual;
        config
    }

    fn curve(&self) -> SweepSpec {
        let mut spec = SweepSpec::default_curve();
        if self.quick {
            spec.x_us.truncate(3);
            spec.conversations = vec![1];
            spec.duration = Duration::from_millis(200);
        } else {
            spec.conversations = vec![1, 2, 3, 4];
            spec.duration = Duration::from_millis(2_000);
        }
        for x in &mut spec.x_us {
            *x += self.x_offset_us();
        }
        spec
    }

    fn fig_ids(&self) -> &'static [&'static str] {
        if self.quick {
            &FIG_IDS[4..5]
        } else {
            &FIG_IDS
        }
    }

    fn scale_n(&self) -> u32 {
        if self.quick {
            6
        } else {
            SCALE_N
        }
    }
}

/// Runs `workload` once, untraced.
pub fn run(workload: &str, inputs: &Inputs) -> Option<Outcome> {
    Some(match workload {
        "figs" => figs(inputs),
        "scale" => scale(inputs),
        "curve" => curve(inputs),
        "deep" => live(&inputs.deep(), false),
        "remote" => live(&inputs.remote(), true),
        _ => return None,
    })
}

/// Replays `workload` once with spans, then probes its layers.
pub fn run_traced(workload: &str, inputs: &Inputs) -> Option<(Outcome, Trace)> {
    let mut trace = Trace::new(workload);
    let mut out = match workload {
        "figs" => figs_traced(inputs, &mut trace),
        "scale" => scale_traced(inputs, &mut trace),
        "curve" => curve_traced(inputs, &mut trace),
        "deep" => live_traced(&inputs.deep(), false, inputs, &mut trace),
        "remote" => live_traced(&inputs.remote(), true, inputs, &mut trace),
        _ => return None,
    };
    out.op_s = trace.spans()[0].seconds();
    out.metric("trace.coverage_pct", 100.0 * trace.coverage(0));
    queue_probes(&mut out, &mut trace, inputs.quick);
    out.metric("trace.spans", trace.spans().len() as f64);
    Some((out, trace))
}

// ---------------------------------------------------------------------------
// figs
// ---------------------------------------------------------------------------

fn analyses() -> f64 {
    let stats = gtpn::engine::cache_stats();
    (stats.hits + stats.misses) as f64
}

/// The global solution cache as the workload left it.
fn cache_metrics(out: &mut Outcome) {
    let stats = gtpn::engine::cache_stats();
    out.metric(
        "gtpn.cache_hit_rate",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    out.metric("gtpn.cache_bytes", stats.bytes as f64);
}

fn check_figs(out: &mut Outcome, ids: &[&str], texts: &[String], golden: &str) {
    out.attempted = ids.len() as u64;
    for (id, text) in ids.iter().zip(texts) {
        if !golden.contains(text.as_str()) {
            out.fail(&format!("{id}: rendered text is not in repro_output.txt"));
        }
    }
    out.work = analyses();
    out.fingerprint = digest(texts.iter().map(String::as_str));
}

fn figs(inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    let ids = inputs.fig_ids();
    let start = Instant::now();
    let texts: Vec<String> = ids
        .iter()
        .map(|id| experiments::run(id).expect("a registered experiment id"))
        .collect();
    out.op_s = start.elapsed().as_secs_f64();
    check_figs(&mut out, ids, &texts, inputs.golden);
    out
}

fn figs_traced(inputs: &Inputs, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let ids = inputs.fig_ids();
    let (texts, _) = trace.span("workload", |trace| {
        ids.iter()
            .map(|id| {
                trace
                    .span(&format!("core.experiment:{id}"), |_| {
                        experiments::run(id).expect("a registered experiment id")
                    })
                    .0
            })
            .collect::<Vec<String>>()
    });
    check_figs(&mut out, ids, &texts, inputs.golden);
    for id in ids {
        let seconds = trace.total_seconds(&format!("core.experiment:{id}"));
        out.metric(&format!("core.experiment_s.{id}"), seconds);
    }
    cache_metrics(&mut out);

    // models: the fig6.15 validation grid through a private engine.
    let engine = private_engine(models::default_engine().config().clone());
    let (_, validation_s) = trace.span("models.validation", |_| {
        for n in 1..=if inputs.quick { 1 } else { 4 } {
            for (i, server_us) in [570.0, 2_850.0, 11_400.0].into_iter().enumerate() {
                let seed = sweep::point_seed("fig6.15", &[u64::from(n), i as u64]);
                black_box(validation::compare_in(&engine, n, server_us, seed))
                    .expect("validation point solves");
            }
        }
    });
    out.metric("models.validation_s", validation_s);
    small_solve_probes(&mut out, trace);
    out
}

/// The cost of one small model at n = 4, stage by stage: net build, cold
/// local and non-local solves, a cache hit, and — with lumping off, the only
/// path whose stages are public — raw reachability then the raw solve.
fn small_solve_probes(out: &mut Outcome, trace: &mut Trace) {
    let x_us = 1_140.0;
    let config = models::default_engine().config().clone();

    const BUILDS: u32 = 50;
    let (_, build_s) = trace.span("models.build", |_| {
        for _ in 0..BUILDS {
            for arch in Architecture::ALL {
                black_box(local::build(arch, 4, x_us)).expect("net builds");
            }
        }
    });
    out.metric("models.build_us", build_s * 1e6 / f64::from(4 * BUILDS));

    let engine = private_engine(config.clone());
    let (_, local_s) = trace.span("models.local_solve", |_| {
        for arch in Architecture::ALL {
            black_box(local::solve_in(&engine, arch, 4, x_us)).expect("local model solves");
        }
    });
    out.metric("models.local_solve_ms.n4", local_s * 1e3 / 4.0);

    let engine = private_engine(config.clone());
    let (_, nonlocal_s) = trace.span("models.nonlocal_solve", |_| {
        for arch in Architecture::ALL {
            black_box(nonlocal::solve_in(&engine, arch, 4, x_us)).expect("fixed point converges");
        }
    });
    out.metric("models.nonlocal_solve_ms.n4", nonlocal_s * 1e3 / 4.0);

    let engine = private_engine(config);
    let net = local::build(Architecture::MessageCoprocessor, 4, x_us).expect("net builds");
    engine.analyze(&net).expect("first analysis solves");
    const HITS: u32 = 2_000;
    let (_, hit_s) = trace.span("gtpn.cache_hit", |_| {
        for _ in 0..HITS {
            black_box(engine.analyze(black_box(&net))).expect("cached analysis");
        }
    });
    assert_eq!(engine.cache_stats().hits, u64::from(HITS), "probe must hit");
    out.metric("gtpn.cache_hit_us", hit_s * 1e6 / f64::from(HITS));

    let mut raw_states = 0;
    for arch in Architecture::ALL {
        let net = local::build(arch, 4, x_us).expect("net builds");
        let (graph, _) = trace.span(&format!("gtpn.raw_reach:{}", arch.label()), |_| {
            net.reachability(models::STATE_BUDGET).expect("n = 4 fits")
        });
        raw_states += graph.state_count();
        trace.span(&format!("gtpn.raw_solve:{}", arch.label()), |_| {
            black_box(graph.solve(models::TOLERANCE, models::MAX_SWEEPS)).expect("chain solves");
        });
    }
    out.metric("gtpn.raw_reach_s", trace.total_seconds("gtpn.raw_reach"));
    out.metric("gtpn.raw_solve_s", trace.total_seconds("gtpn.raw_solve"));
    out.metric("gtpn.raw_states", raw_states as f64);
}

/// An engine whose solution cache is its own and starts empty.
fn private_engine(config: EngineConfig) -> AnalysisEngine {
    AnalysisEngine::new(config).with_cache(4_096)
}

// ---------------------------------------------------------------------------
// scale
// ---------------------------------------------------------------------------

/// `fig7.scale`'s engine configuration, on a private cache.
fn scale_engine(backend: BackendSel) -> AnalysisEngine {
    private_engine(EngineConfig {
        backend,
        lump: LumpSel::On,
        ..models::default_engine().config().clone()
    })
}

struct ScaleSolve {
    build_s: f64,
    analyze_s: f64,
    states: usize,
    sweeps: usize,
}

/// Times `f` under a span when tracing, with a bare timer otherwise.
fn timed<R>(trace: &mut Option<&mut Trace>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    match trace {
        Some(trace) => trace.span(name, |_| f()),
        None => {
            let start = Instant::now();
            let result = f();
            (result, start.elapsed().as_secs_f64())
        }
    }
}

/// Builds and analyzes the arch II local net at `n` conversations; returns
/// the stage costs and the throughput per ms.
fn scale_solve(
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
    engine: &AnalysisEngine,
    n: u32,
    expect: BackendKind,
) -> (ScaleSolve, f64) {
    let (net, build_s) = timed(&mut trace, &format!("models.build:n{n}"), || {
        local::build(Architecture::MessageCoprocessor, n, SCALE_X_US).expect("net builds")
    });
    let (analysis, analyze_s) = timed(&mut trace, &format!("gtpn.analyze:n{n}"), || {
        engine.analyze(&net)
    });
    out.attempted += 1;
    let mut per_ms = 0.0;
    let mut solve = ScaleSolve {
        build_s,
        analyze_s,
        states: 0,
        sweeps: 0,
    };
    match analysis {
        Ok(analysis) if analysis.backend() == expect => {
            per_ms = 1_000.0 * analysis.resource_usage("lambda").unwrap_or(0.0);
            solve.states = analysis.states();
            solve.sweeps = analysis.iterations().unwrap_or(0);
            if expect == BackendKind::Exact && !analysis.lumped() {
                out.fail(&format!("scale n = {n}: solved unlumped"));
            }
        }
        Ok(analysis) => out.fail(&format!(
            "scale n = {n}: {} backend, expected {expect}",
            analysis.backend()
        )),
        Err(e) => out.fail(&format!("scale n = {n}: {e}")),
    }
    (solve, per_ms)
}

fn check_scale(out: &mut Outcome, n: u32, solve: &ScaleSolve, per_ms: f64) {
    // Throughput grows with n; the golden fig7.scale rows bracket n = 12.
    if n == SCALE_N && !(SCALE_N8_PER_MS - 5e-5..=SCALE_N16_PER_MS + 5e-5).contains(&per_ms) {
        out.fail(&format!(
            "scale n = {n}: {per_ms:.5}/ms outside the golden n = 8 .. 16 bracket"
        ));
    }
    out.work = solve.states as f64;
    out.fingerprint = format!("states={},per_ms={per_ms:.9}", solve.states);
}

fn scale(inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    let n = inputs.scale_n();
    let engine = scale_engine(BackendSel::Auto);
    let (solve, per_ms) = scale_solve(&mut out, None, &engine, n, BackendKind::Exact);
    out.op_s = solve.build_s + solve.analyze_s;
    check_scale(&mut out, n, &solve, per_ms);
    out
}

fn scale_traced(inputs: &Inputs, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let n = inputs.scale_n();
    let ((solve, per_ms), _) = trace.span("workload", |trace| {
        let engine = scale_engine(BackendSel::Auto);
        scale_solve(&mut out, Some(trace), &engine, n, BackendKind::Exact)
    });
    check_scale(&mut out, n, &solve, per_ms);
    out.metric("gtpn.analyze_s.n12", solve.analyze_s);
    out.metric("models.build_us", solve.build_s * 1e6);
    if inputs.quick {
        return out;
    }

    // The whole experiment first, from the cold global cache; the single
    // points after it on private caches, so neither feeds the other.
    let (text, experiment_s) = trace.span("core.experiment:fig7.scale", |_| {
        experiments::run("fig7.scale").expect("a registered experiment id")
    });
    out.attempted += 1;
    if !inputs.golden.contains(&text) {
        out.fail("fig7.scale: rendered text is not in repro_output.txt");
    }
    out.metric("core.experiment_s.fig7.scale", experiment_s);
    cache_metrics(&mut out);

    let engine = scale_engine(BackendSel::Auto);
    let (n8, _) = scale_solve(&mut out, Some(trace), &engine, 8, BackendKind::Exact);
    out.metric("gtpn.analyze_s.n8", n8.analyze_s);
    let (n16, _) = scale_solve(&mut out, Some(trace), &engine, 16, BackendKind::Exact);
    out.metric("gtpn.analyze_s.n16", n16.analyze_s);
    out.metric("gtpn.states.n16", n16.states as f64);
    out.metric("gtpn.sweeps.n16", n16.sweeps as f64);
    out.metric(
        "gtpn.us_per_state.n16",
        n16.analyze_s * 1e6 / n16.states.max(1) as f64,
    );
    let des = scale_engine(BackendSel::Des);
    let (n32, _) = scale_solve(&mut out, Some(trace), &des, 32, BackendKind::Des);
    out.metric("gtpn.des_s.n32", n32.analyze_s);
    out
}

// ---------------------------------------------------------------------------
// curve
// ---------------------------------------------------------------------------

fn check_curve(out: &mut Outcome, sweep: &SweepOutcome) {
    out.attempted = sweep.outcomes.len() as u64;
    for o in &sweep.outcomes {
        let p = &o.point;
        let at = format!(
            "curve {} n={} X={}",
            p.architecture.label(),
            p.conversations,
            p.x_us
        );
        if !o.report.clean_shutdown {
            out.fail(&format!("{at}: unclean shutdown"));
        } else if o.report.round_trips == 0 {
            out.fail(&format!("{at}: no round trips"));
        } else if o.model_per_ms.is_none() {
            out.fail(&format!("{at}: no model point"));
        }
    }
    out.work = sweep
        .outcomes
        .iter()
        .map(|o| o.report.round_trips as f64)
        .sum();
    out.fingerprint = digest([sweep.rendered.as_str()]);
}

fn curve(inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    let spec = inputs.curve();
    let start = Instant::now();
    let sweep = livesweep::run(&spec);
    out.op_s = start.elapsed().as_secs_f64();
    check_curve(&mut out, &sweep);
    out
}

/// The [`Config`] `livesweep` runs a grid point as.
fn point_config(spec: &SweepSpec, point: &SweepPoint) -> Config {
    let mut config = Config::new(point.architecture);
    config.nodes = spec.nodes;
    config.conversations = point.conversations;
    config.buffers = point.buffers;
    config.duration = spec.duration;
    config.locality = spec.locality;
    config.server_compute_us = point.x_us;
    config.clock = ClockMode::Virtual;
    config
}

fn curve_traced(inputs: &Inputs, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let spec = inputs.curve();
    // The grid replayed by hand, so the sweep's own cost is what remains
    // of its wall time after the runs and the model points — a residual,
    // not a guess.
    let (reports, _) = trace.span("workload", |trace| {
        spec.points()
            .iter()
            .map(|point| {
                let arch = point.architecture;
                let (report, _) = trace.span(&format!("runtime.run:{}", arch.label()), |_| {
                    runtime::run(&point_config(&spec, point))
                });
                trace.span("models.live_throughput", |_| {
                    black_box(models::live_throughput_in(
                        models::default_engine(),
                        arch,
                        spec.locality,
                        point.conversations,
                        point.x_us,
                    ))
                    .ok()
                });
                report
            })
            .collect::<Vec<RunReport>>()
    });
    let model_s = trace.total_seconds("models.live_throughput");
    runtime_metrics(&mut out, trace.total_seconds("runtime.run"), &reports);
    out.metric("models.live_model_s", model_s);
    cache_metrics(&mut out);

    gtpn::engine::clear_cache();
    let (sweep, sweep_s) = trace.span("core.livesweep", |_| livesweep::run(&spec));
    check_curve(&mut out, &sweep);
    out.metric(
        "core.livesweep_overhead_s",
        sweep_s - sweep.run_wall_seconds - model_s,
    );
    for (o, replayed) in sweep.outcomes.iter().zip(&reports) {
        if fleet_facts(&o.report) != fleet_facts(replayed) {
            out.fail("curve: the hand replay and the sweep disagree on a point");
        }
    }
    let errors: Vec<f64> = sweep
        .outcomes
        .iter()
        .filter_map(|o| o.rel_err_pct(spec.nodes))
        .map(f64::abs)
        .collect();
    out.metric(
        "live_model_err_mean_pct",
        errors.iter().sum::<f64>() / errors.len().max(1) as f64,
    );
    out.metric(
        "live_model_err_max_pct",
        crate::stats::max(&errors).max(0.0),
    );

    let mut idle = Config::new(Architecture::SmartBus);
    idle.clock = ClockMode::Virtual;
    setup_teardown(
        &mut out,
        trace,
        &idle,
        "n1",
        if inputs.quick { 3 } else { 25 },
    );
    kernel_and_hist_probes(&mut out, trace, false, inputs.quick);
    out
}

// ---------------------------------------------------------------------------
// deep, remote
// ---------------------------------------------------------------------------

/// The exact counts of a virtual run.
fn fleet_facts(report: &RunReport) -> String {
    format!(
        "round_trips={},handoffs={},stalls={},frames={}",
        report.round_trips, report.handoffs, report.buffer_stalls, report.ring_frames
    )
}

fn check_live(out: &mut Outcome, report: &RunReport, remote: bool) {
    out.attempted += 1;
    let frames_expected = if remote { 2 * report.round_trips } else { 0 };
    if !report.clean_shutdown {
        out.fail("unclean shutdown");
    } else if report.round_trips == 0 {
        out.fail("no round trips");
    } else if report.ring_frames != frames_expected {
        out.fail(&format!(
            "{} ring frames for {} round trips, expected {frames_expected}",
            report.ring_frames, report.round_trips
        ));
    }
    out.work = report.round_trips as f64;
    out.fingerprint = fleet_facts(report);
}

fn live(config: &Config, remote: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let report = runtime::run(config);
    out.op_s = start.elapsed().as_secs_f64();
    check_live(&mut out, &report, remote);
    out
}

fn live_traced(config: &Config, remote: bool, inputs: &Inputs, trace: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let (report, _) = trace.span("workload", |trace| {
        trace.span("runtime.run", |_| runtime::run(config)).0
    });
    check_live(&mut out, &report, remote);
    runtime_metrics(&mut out, trace.total_seconds("runtime.run"), &[report]);

    let mut idle = config.clone();
    idle.server_compute_us = Config::new(config.architecture).server_compute_us;
    let size = if remote { "n16" } else { "n64" };
    setup_teardown(
        &mut out,
        trace,
        &idle,
        size,
        if inputs.quick { 2 } else { 7 },
    );
    kernel_and_hist_probes(&mut out, trace, remote, inputs.quick);
    if remote {
        ring_probe(&mut out, trace, inputs.quick);
    }
    out
}

fn runtime_metrics(out: &mut Outcome, run_s: f64, reports: &[RunReport]) {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let round_trips = sum(|r| r.round_trips).max(1.0);
    let handoffs = sum(|r| r.handoffs);
    let virtual_s: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    out.metric("runtime.run_s", run_s);
    out.metric("runtime.us_per_round_trip", run_s * 1e6 / round_trips);
    out.metric("runtime.us_per_handoff", run_s * 1e6 / handoffs.max(1.0));
    out.metric("runtime.handoffs_per_round_trip", handoffs / round_trips);
    out.metric("runtime.virtual_speedup", virtual_s / run_s);
    out.metric(
        "runtime.stalls_per_round_trip",
        sum(|r| r.buffer_stalls) / round_trips,
    );
    out.metric(
        "runtime.peak_ring_queue",
        reports.iter().map(|r| r.peak_ring_queue).max().unwrap_or(0) as f64,
    );
    out.metric("netsim.ring_frames", sum(|r| r.ring_frames));
}

/// What a run costs before and after its load: the fleet of `like` with
/// one conversation per node and a zero-length load phase (each client
/// completes the one round trip it starts with, then drains).
fn setup_teardown(out: &mut Outcome, trace: &mut Trace, like: &Config, size: &str, runs: usize) {
    let mut idle = like.clone();
    idle.conversations = 1;
    idle.duration = Duration::ZERO;
    let name = format!("runtime.setup_teardown:{size}");
    let seconds: Vec<f64> = (0..runs)
        .map(|_| trace.span(&name, |_| black_box(runtime::run(&idle))).1)
        .collect();
    out.metric(
        &format!("runtime.setup_teardown_ms.{size}"),
        crate::stats::median(&seconds) * 1e3,
    );
}

// ---------------------------------------------------------------------------
// Single-threaded probes of the layers beneath the runtime.
// ---------------------------------------------------------------------------

/// What a node's two processors do between requests: the MP processes the
/// communication list, the host takes the tasks made runnable off the
/// computation list (left there, it grows and every wake-up scans it).
fn drain(kernel: &mut Kernel) -> Vec<KernelEvent> {
    let mut events = Vec::new();
    while let Some(task) = kernel.next_communication() {
        events.extend(kernel.process(task).expect("a valid request"));
    }
    while kernel.next_computation().is_some() {}
    events
}

fn packet_out(events: Vec<KernelEvent>) -> Packet {
    events
        .into_iter()
        .find_map(|event| match event {
            KernelEvent::PacketOut(packet) => Some(packet),
            _ => None,
        })
        .expect("the request leaves the node")
}

/// One blocking invocation through the kernel per iteration — local, or
/// across two kernels with the packets handed over directly — and the
/// histogram's record path.
fn kernel_and_hist_probes(out: &mut Outcome, trace: &mut Trace, remote: bool, quick: bool) {
    let trips: u32 = if quick { 2_000 } else { 100_000 };
    let mut client_side = Kernel::new(NodeId(0), 16);
    let mut other = Kernel::new(NodeId(1), 16);
    let client = client_side.create_task("client", 1, 64);
    let server_side = if remote { &mut other } else { &mut client_side };
    let server = server_side.create_task("server", 1, 64);
    let service = server_side.create_service("probe");
    let to = ServiceAddr {
        node: server_side.node(),
        service,
    };
    server_side
        .submit(server, Syscall::Offer { service })
        .expect("a fresh service");
    drain(server_side);
    let send = || Syscall::Send {
        to,
        message: Message::empty(),
        mode: SendMode::invocation(),
    };
    let reply = || Syscall::Reply {
        message: Message::empty(),
    };
    if remote {
        let (_, seconds) = trace.span("msgkernel.remote_round_trips", |_| {
            for _ in 0..trips {
                other.submit(server, Syscall::Receive).expect("idle");
                drain(&mut other);
                client_side.submit(client, send()).expect("idle");
                let request = packet_out(drain(&mut client_side));
                other.handle_packet(request).expect("routable");
                other.submit(server, reply()).expect("idle");
                let answer = packet_out(drain(&mut other));
                client_side.handle_packet(answer).expect("routable");
            }
        });
        assert_eq!(client_side.stats().packets_in, u64::from(trips));
        out.metric(
            "msgkernel.remote_round_trip_ns",
            seconds * 1e9 / f64::from(trips),
        );
    } else {
        let (_, seconds) = trace.span("msgkernel.local_round_trips", |_| {
            for _ in 0..trips {
                client_side.submit(server, Syscall::Receive).expect("idle");
                drain(&mut client_side);
                client_side.submit(client, send()).expect("idle");
                drain(&mut client_side);
                client_side.submit(server, reply()).expect("idle");
                drain(&mut client_side);
            }
        });
        assert_eq!(client_side.stats().replies, u64::from(trips));
        out.metric(
            "msgkernel.local_round_trip_ns",
            seconds * 1e9 / f64::from(trips),
        );
    }

    let records: u64 = if quick { 100_000 } else { 4_000_000 };
    let hist = Histogram::default();
    let (_, seconds) = trace.span("runtime.hist_record", |_| {
        for i in 0..records {
            hist.record_ns(black_box(50_000 + (i % 4_096) * 977));
        }
    });
    assert_eq!(hist.count(), records);
    out.metric("runtime.hist_record_ns", seconds * 1e9 / records as f64);
}

/// Enqueue/first pairs through both `SharedQueue` implementations, single
/// threaded. This is the only place the real-clock queues enter the
/// benchmark: real-clock mode's wall time is its configured duration by
/// construction, so it is not a workload.
fn queue_probes(out: &mut Outcome, trace: &mut Trace, quick: bool) {
    let pairs: u32 = if quick { 20_000 } else { 1_000_000 };
    let mut probe = |name: &str, queue: &dyn SharedQueue| {
        let list = ListId(0);
        let (_, seconds) = trace.span(&format!("smartmem.{name}_txns"), |_| {
            for i in 0..pairs {
                queue.enqueue(list, (i % 64) as u16);
                black_box(queue.first(list)).expect("the element just enqueued");
            }
        });
        out.metric(
            &format!("smartmem.{name}_ns_per_txn"),
            seconds * 1e9 / f64::from(2 * pairs),
        );
    };
    probe("lockfree", &LockFreeModule::new(2, 64));
    probe("locked", &LockedModule::new(2, 64));
}

/// `LiveRing::transmit` + `Port::try_recv` per frame, single threaded.
fn ring_probe(out: &mut Outcome, trace: &mut Trace, quick: bool) {
    let frames: u32 = if quick { 20_000 } else { 1_000_000 };
    let (ring, ports) = live_ring::<u32>(2, 0);
    let (_, seconds) = trace.span("netsim.frames", |_| {
        for i in 0..frames {
            ring.transmit(RingNodeId(0), RingNodeId(1), 40, i)
                .expect("an attached node");
            black_box(ports[1].try_recv()).expect("the frame just sent");
        }
    });
    assert_eq!(ring.stats().frames, u64::from(frames));
    out.metric("netsim.frame_ns", seconds * 1e9 / f64::from(frames));
}

/// A 64-bit digest of rendered text. `DefaultHasher::new()` is keyed with
/// constants, so processes of one binary agree on it — all a fingerprint
/// is compared against.
fn digest<'a>(chunks: impl IntoIterator<Item = &'a str>) -> String {
    let mut hasher = DefaultHasher::new();
    for chunk in chunks {
        hasher.write(chunk.as_bytes());
    }
    format!("{:016x}", hasher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Inputs<'static> {
        Inputs {
            seed,
            quick: false,
            golden: "",
        }
    }

    #[test]
    fn seed_one_leaves_x_alone_and_offsets_stay_in_range() {
        assert_eq!(inputs(1).x_offset_us(), 0.0);
        let offsets: Vec<f64> = (1..=285).map(|s| inputs(s).x_offset_us()).collect();
        assert!(offsets.iter().all(|o| (0.0..95.0).contains(o)));
        let mut distinct = offsets.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), 285, "285 consecutive seeds, 285 inputs");
    }

    #[test]
    fn workload_inputs_follow_the_seed() {
        assert_eq!(inputs(1).deep().server_compute_us, 1_140.0);
        assert_eq!(inputs(4).deep().server_compute_us, 1_142.0);
        assert_eq!(inputs(4).remote().server_compute_us, 1_142.0);
        let spec = inputs(4).curve();
        assert_eq!(spec.x_us[0], 2.0);
        assert_eq!(spec.points().len(), 176);
        assert_eq!(inputs(1).remote().locality, Locality::NonLocal);
        assert_eq!(inputs(1).deep().clock, ClockMode::Virtual);
    }
}
