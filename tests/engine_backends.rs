//! The analysis engine's backend policy, end to end: `auto` solves small
//! nets exactly and falls back to the discrete-event estimator past the
//! state budget — opening the n > 4 axis the paper's tools could not reach
//! (§6.9.2) — and the DES estimates cross-check against independent
//! replications of the `archsim` experimental simulator.

use hsipc::archsim;
use hsipc::archsim::{Architecture, Locality, WorkloadSpec};
use hsipc::models::{
    local, nonlocal, offered, AnalysisEngine, BackendKind, BackendSel, EngineConfig,
};

/// An `auto` engine whose budget lands between the n=4 and n=5 Arch II
/// local state spaces (6_336 vs 18_982 states).
fn auto_engine() -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Auto,
        state_budget: 10_000,
        // Lumping off: the n=6 lumped chain (2_982 states) would fit the
        // 10k budget and defeat the fallback this suite exercises.
        lump: hsipc::gtpn::LumpSel::Off,
        ..EngineConfig::default()
    })
}

/// An exact engine on the lumped chain, at the default two-million-state
/// budget.
fn lumped_engine() -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        lump: hsipc::gtpn::LumpSel::On,
        ..EngineConfig::default()
    })
}

/// n ≤ 4 solves exactly; n > 4 exceeds the budget and comes back as a DES
/// estimate carrying a 95% confidence interval — an interval that holds
/// the exact n = 6 value the lumped chain computes.
#[test]
fn auto_backend_opens_the_n_gt_4_axis() {
    let engine = auto_engine();
    let x = 5_700.0;

    let small = local::solve_in(&engine, Architecture::MessageCoprocessor, 4, x).unwrap();
    assert_eq!(small.backend, BackendKind::Exact);
    assert!(small.states > 0);
    assert!(small.half_width_per_ms.is_none());

    let big = local::solve_in(&engine, Architecture::MessageCoprocessor, 6, x).unwrap();
    assert_eq!(big.backend, BackendKind::Des, "n=6 must exceed the budget");
    assert_eq!(big.states, 0, "no reachability graph was built");
    assert!(big.throughput_per_ms > 0.0);
    let hw = big
        .half_width_per_ms
        .expect("DES estimates carry a confidence interval");
    assert!(hw > 0.0 && hw < big.throughput_per_ms, "half-width {hw}");

    // More conversations on a compute-bound node: throughput keeps rising
    // (each conversation brings its own server compute). The n = 6 step
    // over n = 4 is smaller than one DES estimate's spread, so it is
    // asserted on the exact lumped value, which the estimate must cover.
    let exact = local::solve_in(&lumped_engine(), Architecture::MessageCoprocessor, 6, x).unwrap();
    assert!(
        exact.throughput_per_ms > small.throughput_per_ms,
        "n=6 {} vs n=4 {}",
        exact.throughput_per_ms,
        small.throughput_per_ms
    );
    assert!(
        (big.throughput_per_ms - exact.throughput_per_ms).abs() <= hw,
        "exact n=6 {} outside DES {} ± {hw}",
        exact.throughput_per_ms,
        big.throughput_per_ms
    );
}

/// The DES backend's n=6 estimate agrees with batched replications of the
/// completely independent `archsim` discrete-event simulator.
#[test]
fn des_estimate_cross_checks_with_archsim_replications() {
    let engine = auto_engine();
    let x = 5_700.0;
    let model = local::solve_in(&engine, Architecture::MessageCoprocessor, 6, x).unwrap();
    assert_eq!(model.backend, BackendKind::Des);

    let spec = WorkloadSpec {
        conversations: 6,
        server_compute_us: x,
        locality: Locality::Local,
        horizon_us: 2_000_000.0,
        warmup_us: 200_000.0,
        seed: 7,
    };
    let measured = archsim::replicate(Architecture::MessageCoprocessor, &spec, 1, 4);
    assert_eq!(measured.replications, 4);
    assert!(measured.half_width_per_ms > 0.0);

    // Geometric stages + processor sharing vs FCFS + task binding: the
    // paper's validation band at computation-heavy loads was ~25%.
    let rel =
        (model.throughput_per_ms - measured.throughput_per_ms).abs() / measured.throughput_per_ms;
    assert!(
        rel < 0.25,
        "model {} ± {:?} vs measured {} ± {} ({rel:.3})",
        model.throughput_per_ms,
        model.half_width_per_ms,
        measured.throughput_per_ms,
        measured.half_width_per_ms
    );
}

/// Lumping does not lean on client symmetry — the delay-homogeneity
/// criterion admits every chapter-6/7 net. The two-host Chapter 7 variant
/// (the host pair breaks the single-processor exchangeability) must still
/// agree with the raw chain to solver precision.
#[test]
fn lumped_multi_host_net_agrees_with_raw() {
    let engine = |lump: hsipc::gtpn::LumpSel| {
        AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Exact,
            // Tighter than the default: the 1e-10 agreement bound below
            // needs both chains converged past it.
            tolerance: 1e-13,
            max_sweeps: 400_000,
            lump,
            ..EngineConfig::default()
        })
    };
    let on = local::solve_with_hosts_in(
        &engine(hsipc::gtpn::LumpSel::On),
        Architecture::MessageCoprocessor,
        3,
        5_700.0,
        2,
    )
    .unwrap();
    let off = local::solve_with_hosts_in(
        &engine(hsipc::gtpn::LumpSel::Off),
        Architecture::MessageCoprocessor,
        3,
        5_700.0,
        2,
    )
    .unwrap();
    assert_eq!(on.backend, BackendKind::Exact);
    assert!(
        on.states < off.states,
        "quotient {} vs raw {}",
        on.states,
        off.states
    );
    // Residual tolerance, not solution error: the raw chain's larger
    // spectral radius leaves it a couple of decades above the 1e-13
    // stopping residual, so the agreement bound is 1e-9 relative.
    let gap = (on.throughput_per_ms - off.throughput_per_ms).abs();
    assert!(
        gap < 1e-9 * off.throughput_per_ms.max(1e-3),
        "lumped {} vs raw {}",
        on.throughput_per_ms,
        off.throughput_per_ms
    );
}

/// The lumped exact solution at n=8 — a population the raw chain could
/// only estimate — cross-checks against the DES backend's own 95%
/// confidence interval on the identical net. Two independent paths to the
/// same number: quotient-chain Gauss–Seidel vs replicated simulation.
#[test]
fn lumped_exact_n8_lands_inside_the_des_interval() {
    let x = 5_700.0;
    let e = local::solve_in(&lumped_engine(), Architecture::MessageCoprocessor, 8, x).unwrap();
    assert_eq!(e.backend, BackendKind::Exact);
    assert!(e.states > 0, "lumped runs report the quotient state count");
    assert!(e.half_width_per_ms.is_none());

    let des = AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Des,
        ..EngineConfig::default()
    });
    let d = local::solve_in(&des, Architecture::MessageCoprocessor, 8, x).unwrap();
    assert_eq!(d.backend, BackendKind::Des);
    let hw = d
        .half_width_per_ms
        .expect("DES estimates carry a confidence interval");
    let gap = (e.throughput_per_ms - d.throughput_per_ms).abs();
    assert!(
        gap <= hw,
        "exact {} outside DES {} ± {hw}",
        e.throughput_per_ms,
        d.throughput_per_ms
    );
}

/// Replication seeds are derived, not shared: the same spec always yields
/// the same batch estimate, and replication r is stable across batch sizes.
#[test]
fn replications_are_deterministic() {
    let spec = WorkloadSpec::max_load(2, Locality::Local);
    let a = archsim::replicate(Architecture::SmartBus, &spec, 1, 3);
    let b = archsim::replicate(Architecture::SmartBus, &spec, 1, 3);
    assert_eq!(a, b);
    assert!(a.contains(a.throughput_per_ms));
}

/// The exact chain pinned by constants, not by print precision: state
/// count, sweep count and the *bits* of `lambda` usage, of the final
/// residual and of the mean tokens in `Matched` for six solves under
/// `fig7.scale`'s engine settings (arch II and III local, X = 5700 µs, a
/// private cache per solve). The n = 4 and n = 8 usage and residual bits
/// were recorded on the commit before the flat-key expansion kernel, the
/// n = 12 ones on the commit before the phase memo, and every `Matched`
/// bit pattern and the n = 16 case on the commit before the fold memo. A
/// reordered sum or a renumbered state moves the last ulp long before it
/// moves a digit of `repro_output.txt`; usage bits cannot see a drift in a
/// lumped chain's token rows, the `Matched` bits can. n = 12 is the
/// benchmark's `scale` solve, n = 16 the largest row of `fig7.scale`.
#[test]
fn exact_chain_is_pinned_by_constants() {
    use hsipc::gtpn::LumpSel;
    let x = 5_700.0;
    // (architecture, n, lumping, states, sweeps, usage bits, residual
    // bits, `Matched` mean-token bits)
    type Case = (Architecture, u32, LumpSel, usize, usize, u64, u64, u64);
    let cases: [Case; 6] = [
        (
            Architecture::MessageCoprocessor,
            4,
            LumpSel::On,
            574,
            69,
            0x3f21_5f2d_45fe_8f18,
            0x3d92_6a50_0000_0000,
            0x3fff_e0ba_3dc5_958b,
        ),
        (
            Architecture::MessageCoprocessor,
            8,
            LumpSel::On,
            10_791,
            84,
            0x3f22_0240_c1c6_79a5,
            0x3d8a_7278_0000_0000,
            0x4016_ff53_f73c_ba3c,
        ),
        (
            Architecture::MessageCoprocessor,
            12,
            LumpSel::On,
            76_076,
            96,
            0x3f22_0c8b_4549_6848,
            0x3d85_ce18_0000_0000,
            0x4023_71f6_195c_6e61,
        ),
        (
            Architecture::MessageCoprocessor,
            16,
            LumpSel::On,
            330_429,
            142,
            0x3f22_0d34_5276_6ddc,
            0x3d90_6caa_0000_0000,
            0x402b_70b4_458c_c21a,
        ),
        (
            Architecture::MessageCoprocessor,
            4,
            LumpSel::Off,
            6_336,
            6_041,
            0x3f21_5f2d_261d_f3c1,
            0x3d9e_1b6c_0000_0000,
            0x3fff_e0ba_2202_1ff9,
        ),
        (
            Architecture::SmartBus,
            8,
            LumpSel::On,
            10_791,
            75,
            0x3f23_084b_865a_fdfe,
            0x3d90_3910_0000_0000,
            0x4019_39e1_7272_1890,
        ),
    ];
    for (arch, n, lump, states, sweeps, usage_bits, residual_bits, matched_bits) in cases {
        let engine = AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Auto,
            tolerance: hsipc::models::TOLERANCE,
            max_sweeps: hsipc::models::MAX_SWEEPS,
            state_budget: hsipc::models::STATE_BUDGET,
            lump,
            ..EngineConfig::default()
        })
        .with_cache(4_096);
        let net = local::build(arch, n, x).unwrap();
        let a = engine.analyze(&net).unwrap();
        let at = format!("arch {} n={n} {lump:?}", arch.label());
        assert_eq!(a.backend(), BackendKind::Exact, "{at}");
        assert_eq!(a.lumped(), lump == LumpSel::On, "{at}");
        assert_eq!(a.states(), states, "{at}: states");
        assert_eq!(a.iterations(), Some(sweeps), "{at}: sweeps");
        assert_eq!(
            a.resource_usage("lambda").unwrap().to_bits(),
            usage_bits,
            "{at}: lambda usage bits"
        );
        assert_eq!(
            a.residual().unwrap().to_bits(),
            residual_bits,
            "{at}: residual bits"
        );
        let matched = net.place_by_name("Matched").expect("a Matched place");
        assert_eq!(
            a.mean_tokens(matched).to_bits(),
            matched_bits,
            "{at}: Matched mean-token bits"
        );
    }
}

/// The default engine's settings, pinned rather than read from the
/// environment, on a private cache: what `figs` solves through, with the
/// skeleton store beside its solution cache.
fn pinned_engine() -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Auto,
        tolerance: hsipc::models::TOLERANCE,
        max_sweeps: hsipc::models::MAX_SWEEPS,
        state_budget: hsipc::models::STATE_BUDGET,
        lump: hsipc::gtpn::LumpSel::On,
        ..EngineConfig::default()
    })
    .with_cache(4_096)
}

/// The §6.6.3 fixed point pinned by constants: arch II and III, n = 4,
/// X = 1140 µs. Every iteration re-solves the client and server nets with
/// a new surrogate delay, so past the second iteration each solve is a
/// re-priced chain — the bits of Λ and `S_d` and the iteration count must
/// be those recorded on the commit before chains were re-priced.
#[test]
fn nonlocal_fixed_point_is_pinned_by_constants() {
    // (architecture, throughput bits, S_d bits, iterations)
    let cases = [
        (
            Architecture::MessageCoprocessor,
            0x3fd1_4149_2f78_5fb3_u64,
            0x40c4_71f4_8e7d_178e_u64,
            10,
        ),
        (
            Architecture::SmartBus,
            0x3fd6_ab8e_7710_b122,
            0x40c0_6270_098d_720b,
            10,
        ),
    ];
    for (arch, throughput_bits, s_d_bits, iterations) in cases {
        let s = nonlocal::solve_in(&pinned_engine(), arch, 4, 1_140.0).unwrap();
        let at = format!("arch {}", arch.label());
        assert_eq!(
            s.throughput_per_ms.to_bits(),
            throughput_bits,
            "{at}: Λ bits"
        );
        assert_eq!(s.s_d_us.to_bits(), s_d_bits, "{at}: S_d bits");
        assert_eq!(s.iterations, iterations, "{at}: iterations");
    }
}

/// One Figure 6.19 point per architecture, pinned by constants: offered
/// load 0.7 non-local at n = 4 — the figure's X sweep, where only the
/// server's geometric stage changes its rate from point to point.
#[test]
fn realistic_load_points_are_pinned_by_constants() {
    let x = offered::server_time_for_load_arch1(Locality::NonLocal, 0.7);
    let cases = [
        (Architecture::Uniprocessor, 0x3fc3_6245_7767_6c2f_u64, 11),
        (Architecture::MessageCoprocessor, 0x3fcc_782c_92f3_8b84, 10),
        (Architecture::SmartBus, 0x3fd0_c97a_fd73_b164, 10),
    ];
    for (arch, throughput_bits, iterations) in cases {
        let s = nonlocal::solve_in(&pinned_engine(), arch, 4, x).unwrap();
        let at = format!("arch {}", arch.label());
        assert_eq!(
            s.throughput_per_ms.to_bits(),
            throughput_bits,
            "{at}: Λ bits"
        );
        assert_eq!(s.iterations, iterations, "{at}: iterations");
    }
}
