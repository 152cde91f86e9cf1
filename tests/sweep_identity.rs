//! The sweep engine's two contracts, held end to end:
//!
//! 1. **Byte identity** — a figure or table rendered by the parallel worker
//!    pool is byte-for-byte the output of the sequential reference path,
//!    whatever the thread count.
//! 2. **Determinism** — DES replications seed from their grid coordinates,
//!    so the same point gives the same metrics on every run, no matter
//!    which worker executes it.

use hsipc::archsim::{Architecture, Locality, Simulation, WorkloadSpec};
use hsipc::models::{self, AnalysisEngine, EngineConfig};
use hsipc::sweep;

/// fig6.17 — four GTPN solves per architecture column, the slowest swept
/// figure in the registry — must render identically on 1 and 4 workers.
#[test]
fn fig_6_17_parallel_matches_sequential() {
    let seq = hsipc::experiments::run_with("fig6.17", 1).unwrap();
    let par = hsipc::experiments::run_with("fig6.17", 4).unwrap();
    assert_eq!(par, seq, "fig6.17 diverged under the worker pool");
    // Sanity: this is the real figure, not an empty render.
    assert!(seq.contains("Maximum Communication Load (Local)"));
    assert!(seq.lines().count() > 10);
}

/// table6.24 — the offered-load rows sweep — must render identically at
/// every worker count.
#[test]
fn table_6_24_parallel_matches_sequential() {
    let seq = hsipc::experiments::run_with("table6.24", 1).unwrap();
    for threads in [2, 4] {
        let par = hsipc::experiments::run_with("table6.24", threads).unwrap();
        assert_eq!(par, seq, "table6.24 diverged at {threads} threads");
    }
    assert!(seq.contains("Offered Loads"));
    // Title + header + rule + 13 rows.
    assert_eq!(seq.lines().count(), 16);
}

/// The multi-host Chapter 7 grid also survives the pool.
#[test]
fn fig_7_1_parallel_matches_sequential() {
    let seq = hsipc::experiments::run_with("fig7.1", 1).unwrap();
    let par = hsipc::experiments::run_with("fig7.1", 3).unwrap();
    assert_eq!(par, seq);
}

/// fig6.19 — realistic workload, non-local: every column goes through the
/// §6.6.3 fixed point, so its solves run nested in pool workers.
#[test]
fn nonlocal_figure_is_identical_at_1_and_8_threads() {
    let seq = hsipc::experiments::run_with("fig6.19", 1).unwrap();
    let par = hsipc::experiments::run_with("fig6.19", 8).unwrap();
    assert_eq!(par, seq, "fig6.19 diverged between 1 and 8 threads");
    assert!(seq.contains("Realistic Workload (Non-local)"));
    assert!(seq.lines().count() > 10);
}

/// Exact lumping is a solver optimization, not a result change: the same
/// compute × conversations grid rendered at figure precision through a
/// lumping engine prints exactly what the raw-chain engine prints. Each
/// engine carries a private cache (the orbit-aware key would otherwise
/// keep the two policies apart anyway), and the lumped leg runs on the
/// worker pool.
#[test]
fn lumped_grid_matches_raw_grid() {
    let engine = |lump: hsipc::gtpn::LumpSel| {
        AnalysisEngine::new(EngineConfig {
            lump,
            ..EngineConfig::default()
        })
        .with_cache(256)
    };
    let grid = sweep::cartesian(&[0.0f64, 1_500.0, 5_700.0], &[1u32, 2, 4]);
    let render = |e: &AnalysisEngine, &(x_us, n): &(f64, u32)| {
        let s = models::local::solve_in(e, Architecture::MessageCoprocessor, n, x_us)
            .expect("local model solves");
        format!("{:.4}", s.throughput_per_ms)
    };
    let on = engine(hsipc::gtpn::LumpSel::On);
    let off = engine(hsipc::gtpn::LumpSel::Off);
    let lumped = grid.eval_with(4, |p| render(&on, p));
    let raw = grid.eval_with(1, |p| render(&off, p));
    assert_eq!(lumped, raw, "lumped grid diverged from the raw chain");
}

/// Two DES runs from the same seed produce identical metrics — the
/// foundation the fig6.15 validation grid's reproducibility rests on.
#[test]
fn same_seed_des_runs_are_identical() {
    let spec = WorkloadSpec {
        conversations: 2,
        server_compute_us: 1_140.0,
        locality: Locality::NonLocal,
        horizon_us: 400_000.0,
        warmup_us: 40_000.0,
        seed: sweep::point_seed("sweep-identity", &[2, 0]),
    };
    let a = Simulation::new(Architecture::MessageCoprocessor, &spec).run();
    let b = Simulation::new(Architecture::MessageCoprocessor, &spec).run();
    assert_eq!(a, b, "same seed must give bitwise-identical metrics");
    assert!(a.completed > 0, "simulation actually ran");

    // A different grid coordinate gives a different seed and (for this
    // workload) different sampled compute times.
    let other = WorkloadSpec {
        seed: sweep::point_seed("sweep-identity", &[2, 1]),
        ..spec
    };
    let c = Simulation::new(Architecture::MessageCoprocessor, &spec).run();
    let d = Simulation::new(Architecture::MessageCoprocessor, &other).run();
    assert_eq!(a, c);
    assert_ne!(d, a, "distinct coordinates should not replay the same run");
}

/// Evaluating a grid point on a pool is observationally the same as calling
/// the model directly — the engine adds no hidden state.
#[test]
fn pooled_model_solve_equals_direct_call() {
    let direct = hsipc::models::local::solve(Architecture::SmartBus, 2, 0.0)
        .unwrap()
        .throughput_per_ms;
    let grid = sweep::Grid::new(vec![2u32; 4]);
    let pooled = grid.eval_with(4, |&n| {
        hsipc::models::local::solve(Architecture::SmartBus, n, 0.0)
            .unwrap()
            .throughput_per_ms
    });
    for (i, t) in pooled.iter().enumerate() {
        assert_eq!(
            t.to_bits(),
            direct.to_bits(),
            "slot {i} differs from direct solve"
        );
    }
}
