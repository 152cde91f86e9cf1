//! Thread-count invariance of the solver stack, end to end:
//!
//! * a non-local figure renders byte-identically whether the sweep pool
//!   and the solver's inner parallelism get 1 core or 8;
//! * the §6.6.3 fixed point solves to bit-identical numbers under a
//!   1-core and an 8-core engine budget (the concurrent client/server
//!   sub-solves and the frontier-parallel reachability build must not
//!   perturb a single float).

use std::sync::Arc;

use hsipc::gtpn::ParallelBudget;
use hsipc::models::{self, AnalysisEngine, Architecture, BackendSel, DesOptions, EngineConfig};
use hsipc::sweep::ExecMode;

/// A fresh Exact-backend engine with a private cache and an explicit
/// core budget — nothing shared between the configurations under test.
fn engine(cores: usize) -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        tolerance: models::TOLERANCE,
        max_sweeps: models::MAX_SWEEPS,
        state_budget: models::STATE_BUDGET,
        des: DesOptions::default(),
        // Explicitly on: the budget-invariance assertions below must
        // also hold when the lumped chain is built frontier-parallel.
        lump: hsipc::gtpn::LumpSel::On,
    })
    .with_cache(256)
    .with_budget(Arc::new(ParallelBudget::new(cores)))
}

/// fig6.19 — realistic workload, non-local: every column goes through the
/// §6.6.3 fixed point, so this exercises the concurrent sub-solves, the
/// budgeted reachability build, and the worker pool at once.
#[test]
fn nonlocal_figure_is_identical_at_1_and_8_threads() {
    let seq = hsipc::experiments::run_with("fig6.19", ExecMode::Sequential, 1).unwrap();
    let par = hsipc::experiments::run_with("fig6.19", ExecMode::Parallel, 8).unwrap();
    assert_eq!(par, seq, "fig6.19 diverged between 1 and 8 threads");
    assert!(seq.contains("Realistic Workload (Non-local)"));
    assert!(seq.lines().count() > 10);
}

/// The fixed point itself: bit-identical floats under serial and 8-wide
/// engine budgets.
#[test]
fn nonlocal_fixed_point_is_budget_invariant() {
    let narrow = engine(1);
    let wide = engine(8);
    for n in [1, 3] {
        let a =
            models::nonlocal::solve_in(&narrow, Architecture::MessageCoprocessor, n, 0.0).unwrap();
        let b =
            models::nonlocal::solve_in(&wide, Architecture::MessageCoprocessor, n, 0.0).unwrap();
        assert_eq!(
            a.throughput_per_ms.to_bits(),
            b.throughput_per_ms.to_bits(),
            "n={n}: throughput diverged across budgets"
        );
        assert_eq!(
            a.s_d_us.to_bits(),
            b.s_d_us.to_bits(),
            "n={n}: S_d diverged"
        );
        assert_eq!(
            a.c_d_us.to_bits(),
            b.c_d_us.to_bits(),
            "n={n}: C_d diverged"
        );
        assert_eq!(
            a.iterations, b.iterations,
            "n={n}: iteration count diverged"
        );
    }
}
