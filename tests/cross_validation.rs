//! Cross-validation between the three evaluation engines: the exact GTPN
//! solver, the Monte-Carlo token-game simulator, and the discrete-event
//! architecture simulator. Three independent implementations of the same
//! system should agree — this is the strongest internal-consistency check
//! the reproduction has.

use hsipc::archsim::{Architecture, Locality, Simulation, WorkloadSpec};
use hsipc::gtpn::sim::{simulate, SimOptions};
use hsipc::models::local;
use hsipc::models::{AnalysisEngine, BackendSel, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact GTPN solution vs Monte-Carlo simulation of the *same net*.
#[test]
fn exact_solver_agrees_with_monte_carlo() {
    let engine = AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        tolerance: 1e-11,
        max_sweeps: 400_000,
        state_budget: 2_000_000,
        ..EngineConfig::default()
    });
    for (arch, n) in [
        (Architecture::Uniprocessor, 2u32),
        (Architecture::MessageCoprocessor, 2),
        (Architecture::SmartBus, 3),
    ] {
        let net = local::build(arch, n, 1_140.0).unwrap();
        let exact = engine
            .analyze(&net)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let mc = simulate(
            &net,
            &SimOptions {
                horizon: 3_000_000,
                warmup: 300_000,
            },
            &mut rng,
        )
        .unwrap()
        .resource_usage("lambda")
        .unwrap();
        let rel = (exact - mc).abs() / exact;
        assert!(
            rel < 0.03,
            "{arch} n={n}: exact {exact} vs MC {mc} ({rel:.3})"
        );
    }
}

/// GTPN model vs discrete-event simulation for local conversations: two
/// completely different abstractions of the same architecture.
#[test]
fn gtpn_model_agrees_with_des_local() {
    for (arch, n, x) in [
        (Architecture::Uniprocessor, 1u32, 0.0),
        (Architecture::Uniprocessor, 3, 2_850.0),
        (Architecture::MessageCoprocessor, 3, 2_850.0),
        (Architecture::SmartBus, 2, 1_140.0),
    ] {
        let model = local::solve(arch, n, x).unwrap().throughput_per_ms;
        let spec = WorkloadSpec {
            conversations: n as usize,
            server_compute_us: x,
            locality: Locality::Local,
            horizon_us: 4_000_000.0,
            warmup_us: 400_000.0,
            seed: 3,
        };
        let des = Simulation::new(arch, &spec).run().throughput_per_ms;
        let rel = (model - des).abs() / des;
        // The model uses geometric stages / processor sharing / contention
        // constants; the DES uses FCFS, task binding and endogenous
        // contention. The paper saw 3–25% depending on load; we require
        // the tight end for these mid-load points.
        assert!(
            rel < 0.15,
            "{arch} n={n} x={x}: model {model} vs DES {des} ({rel:.3})"
        );
    }
}

/// The architecture ordering is invariant across all three engines.
#[test]
fn architecture_ordering_invariant() {
    let x = 1_710.0;
    let mut model_t = Vec::new();
    let mut des_t = Vec::new();
    for arch in [
        Architecture::Uniprocessor,
        Architecture::MessageCoprocessor,
        Architecture::SmartBus,
    ] {
        model_t.push(local::solve(arch, 3, x).unwrap().throughput_per_ms);
        let spec = WorkloadSpec {
            conversations: 3,
            server_compute_us: x,
            locality: Locality::Local,
            horizon_us: 3_000_000.0,
            warmup_us: 300_000.0,
            seed: 17,
        };
        des_t.push(Simulation::new(arch, &spec).run().throughput_per_ms);
    }
    assert!(
        model_t[0] < model_t[1] && model_t[1] < model_t[2],
        "model {model_t:?}"
    );
    assert!(des_t[0] < des_t[1] && des_t[1] < des_t[2], "DES {des_t:?}");
}

/// The Chapter 7 multi-host extension: GTPN model and DES agree on how
/// much a second host buys.
#[test]
fn multi_host_extension_cross_validates() {
    let x = 5_700.0;
    let model_1 = hsipc::models::local::solve_with_hosts(Architecture::MessageCoprocessor, 3, x, 1)
        .unwrap()
        .throughput_per_ms;
    let model_2 = hsipc::models::local::solve_with_hosts(Architecture::MessageCoprocessor, 3, x, 2)
        .unwrap()
        .throughput_per_ms;
    let spec = WorkloadSpec {
        conversations: 3,
        server_compute_us: x,
        locality: Locality::Local,
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed: 23,
    };
    let des_1 = Simulation::with_hosts(Architecture::MessageCoprocessor, &spec, 1)
        .run()
        .throughput_per_ms;
    let des_2 = Simulation::with_hosts(Architecture::MessageCoprocessor, &spec, 2)
        .run()
        .throughput_per_ms;
    let model_gain = model_2 / model_1;
    let des_gain = des_2 / des_1;
    assert!(
        model_gain > 1.2 && des_gain > 1.2,
        "model {model_gain} des {des_gain}"
    );
    assert!(
        (model_gain - des_gain).abs() / des_gain < 0.25,
        "model gain {model_gain} vs DES gain {des_gain}"
    );
}

/// The live runtime under virtual time vs the GTPN local model, along the
/// offered-load curve: three X points spanning light to heavy server
/// compute. The virtual clock makes the live side deterministic and cheap
/// (each point is milliseconds of wall time for a second of virtual load),
/// so real threads driving the real kernel/queue code can be checked
/// against the analytic model at every point — the paper's §6.3 claim that
/// the MP relieves the host (II > I) and the smart bus relieves the MP
/// (III ≳ II) must hold in both engines all along the curve.
#[test]
fn virtual_runtime_tracks_model_ordering_along_the_load_curve() {
    use hsipc::runtime::{ClockMode, Config};
    use std::time::Duration;

    let archs = [
        Architecture::Uniprocessor,
        Architecture::MessageCoprocessor,
        Architecture::SmartBus,
    ];
    let xs = [570.0, 1_140.0, 2_850.0];
    let mut live_curve: Vec<Vec<f64>> = Vec::new();
    for &x in &xs {
        let model: Vec<f64> = archs
            .iter()
            .map(|&arch| {
                local::solve(arch, 4, x)
                    .expect("local model solves at this workload")
                    .throughput_per_ms
            })
            .collect();
        let live: Vec<f64> = archs
            .iter()
            .map(|&arch| {
                let mut config = Config::new(arch);
                config.clock = ClockMode::Virtual;
                config.conversations = 4;
                config.server_compute_us = x;
                config.duration = Duration::from_millis(1_000);
                let report = hsipc::runtime::run(&config);
                assert!(report.clean_shutdown, "{arch} x={x}: drain incomplete");
                assert!(report.round_trips > 0, "{arch} x={x}: no round trips");
                report.throughput_per_ms
            })
            .collect();
        assert!(
            model[1] > model[0] && model[2] >= model[1],
            "x={x}: model ordering broken: {model:?}"
        );
        assert!(
            live[1] > live[0],
            "x={x}: live ordering disagrees with model: II {:.3}/ms <= I {:.3}/ms",
            live[1],
            live[0]
        );
        // III's edge over II is small at n=4; allow the same 5% scheduling
        // slack the wall-clock test uses (the virtual runtime binds tasks
        // and queues FCFS, which the processor-sharing model does not).
        assert!(
            live[2] >= 0.95 * live[1],
            "x={x}: live ordering disagrees with model: III {:.3}/ms << II {:.3}/ms",
            live[2],
            live[1]
        );
        live_curve.push(live);
    }
    // Along the curve: heavier server compute never raises throughput. On
    // II/III the MP's kernel-processing demand, not the host's compute, is
    // the n=4 bottleneck, so X may leave throughput flat; on I the single
    // processor pays X directly, so the decline must be strict.
    for (a, arch) in archs.iter().enumerate() {
        let curve = [live_curve[0][a], live_curve[1][a], live_curve[2][a]];
        assert!(
            curve[0] >= curve[1] && curve[1] >= curve[2],
            "{arch}: live throughput increases with X: {curve:?}"
        );
    }
    let uni = [live_curve[0][0], live_curve[1][0], live_curve[2][0]];
    assert!(
        uni[0] > uni[1] && uni[1] > uni[2],
        "Architecture I: host-bound throughput not strictly falling in X: {uni:?}"
    );
}

/// Place invariants of the architecture nets: processor tokens and
/// conversation tokens are conserved.
#[test]
fn architecture_nets_conserve_tokens() {
    use hsipc::gtpn::invariant;
    for arch in [Architecture::Uniprocessor, Architecture::SmartBus] {
        let net = local::build(arch, 2, 0.0).unwrap();
        let basis = invariant::p_invariants(&net);
        assert!(!basis.is_empty(), "{arch}: no invariants");
        for y in &basis {
            assert!(
                invariant::is_invariant(&net, y),
                "{arch}: basis vector fails"
            );
        }
        // The Host place participates in some conservation law (the
        // processor token never leaks).
        let host = net.place_by_name("Host").unwrap();
        assert!(
            basis.iter().any(|y| y[host.0] != 0),
            "{arch}: Host not covered by any invariant"
        );
    }
}

/// [`archsim_schedule_is_pinned_by_constants`]'s runs: I local, I
/// non-local, II local, … IV non-local, then the two-host run.
const ARCHSIM_PINS: [[u64; 5]; 9] = [
    [
        144,
        0x3fc47ae147ae147b,
        0x40d1e0d7ea7ef9db,
        0x3ff002debd520f12,
        0,
    ],
    [
        171,
        0x3fc851eb851eb852,
        0x40ce713fd72f083a,
        0x3feffa71866cf59d,
        0,
    ],
    [
        212,
        0x3fce26af37c048d1,
        0x40c883c22668df81,
        0x3fe476d30c30cdf5,
        0x3fef9354857b75f2,
    ],
    [
        246,
        0x3fd17e4b17e4b17e,
        0x40c5355e0b49fa4e,
        0x3fe33264b34f94da,
        0x3fee887433de3c01,
    ],
    [
        293,
        0x3fd4d5e6f8091a2b,
        0x40c1caa26a743d5f,
        0x3fe846d128b56434,
        0x3feda67004d9110c,
    ],
    [
        293,
        0x3fd4d5e6f8091a2b,
        0x40c1ccc66813d9d6,
        0x3fe42f220a7a3abd,
        0x3fee51218c4687f0,
    ],
    [
        301,
        0x3fd56789abcdf012,
        0x40c1496c140ee31b,
        0x3fe8bee63ecbe41e,
        0x3fee163ce868b49f,
    ],
    [
        296,
        0x3fd50c83fb72ea62,
        0x40c19cbba0cbb166,
        0x3fe4496d30c30cdf,
        0x3fee3d070e2ddccf,
    ],
    [
        706,
        0x3fc91a2b3c4d5e70,
        0x40c3d860532c54ae,
        0x3fd8a65c594c09ba,
        0x3fe58aacc4bb0a40,
    ],
];

/// The discrete-event simulator's schedule, pinned bit for bit: Figure
/// 6.15's measured column and Figure 4.6's timeline come from it, and the
/// golden output shows only four digits of a few of its points. Each run
/// is `(completed, throughput, mean round trip, host utilization, MP
/// utilization)`, the four figures as `f64::to_bits`, recorded before the
/// simulator's event queue was rewritten.
#[test]
fn archsim_schedule_is_pinned_by_constants() {
    let bits = |m: hsipc::archsim::Metrics| {
        [
            m.completed,
            m.throughput_per_ms.to_bits(),
            m.mean_round_trip_us.to_bits(),
            m.host_utilization.to_bits(),
            m.mp_utilization.to_bits(),
        ]
    };
    let mut runs = Vec::new();
    for arch in Architecture::ALL {
        for locality in [Locality::Local, Locality::NonLocal] {
            let spec = WorkloadSpec {
                conversations: 3,
                server_compute_us: 1_140.0,
                locality,
                horizon_us: 1_000_000.0,
                warmup_us: 100_000.0,
                seed: 7,
            };
            runs.push(bits(Simulation::new(arch, &spec).run()));
        }
    }
    // The two-host validation run of Figure 6.15 (§6.8's test-bed shape).
    let two_hosts = WorkloadSpec {
        conversations: 2,
        server_compute_us: 2_850.0,
        locality: Locality::NonLocal,
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed: 31,
    };
    runs.push(bits(
        Simulation::with_hosts(Architecture::MessageCoprocessor, &two_hosts, 2).run(),
    ));
    assert_eq!(runs, ARCHSIM_PINS);

    // Figure 4.6's traced run: its segment count and where it ends.
    let figure_4_6 = WorkloadSpec {
        conversations: 1,
        server_compute_us: 1_000.0,
        locality: Locality::NonLocal,
        horizon_us: 12_000.0,
        warmup_us: 0.0,
        seed: 1,
    };
    let (_, trace) = Simulation::new(Architecture::MessageCoprocessor, &figure_4_6).run_traced();
    let last = trace.last().expect("a traced run records segments");
    assert_eq!(
        (trace.len(), last.end_us.to_bits()),
        (22, 0x40c411ce56041893)
    );
}
