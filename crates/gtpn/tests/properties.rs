//! Property-based tests of the GTPN engine.

use gtpn::geometric::GeometricStage;
use gtpn::sim::{simulate, SimOptions};
use gtpn::{
    invariant, AnalysisEngine, BackendSel, EngineConfig, LumpSel, Net, PlaceId, TransId, Transition,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a ring of geometric stages with the given means; a single token
/// cycles through all of them.
fn stage_ring(means: &[f64]) -> Net {
    let mut net = Net::new("ring");
    let places: Vec<_> = (0..means.len())
        .map(|i| net.add_place(format!("P{i}"), u32::from(i == 0)))
        .collect();
    for (i, &m) in means.iter().enumerate() {
        let next = places[(i + 1) % places.len()];
        let mut stage = GeometricStage::new(format!("S{i}"), m)
            .input(places[i], 1)
            .output(next, 1);
        if i == 0 {
            stage = stage.resource("lambda");
        }
        stage.build(&mut net).unwrap();
    }
    net
}

/// Pinned regression from `properties.proptest-regressions`: a ring where
/// one stage has mean exactly 1.0. That stage's geometric loop transition
/// gets frequency `1 - 1/mean = 0` — a legal zero-frequency transition the
/// reachability expansion must treat as never selected, not as a
/// `BadFrequency` or a spurious conflict branch.
#[test]
fn tandem_cycle_rate_mean_one_stage() {
    let means = [20.581752334812006, 1.0];
    let net = stage_ring(&means);
    let sol = net
        .reachability(200_000)
        .unwrap()
        .solve(1e-12, 300_000)
        .unwrap();
    let total: f64 = means.iter().sum();
    let usage = sol.resource_usage("lambda").unwrap();
    let expect = 1.0 / total;
    assert!(
        (usage - expect).abs() < 1e-6 * expect.max(1e-3),
        "means {means:?}: usage {usage} vs {expect}"
    );
}

/// As [`stage_ring`], but adding places and stages in caller-chosen orders
/// — the same model under a permuted build sequence.
fn stage_ring_ordered(means: &[f64], place_order: &[usize], stage_order: &[usize]) -> Net {
    let mut net = Net::new("ring");
    let mut ids = vec![PlaceId(0); means.len()];
    for &i in place_order {
        ids[i] = net.add_place(format!("P{i}"), u32::from(i == 0));
    }
    for &i in stage_order {
        let next = ids[(i + 1) % means.len()];
        let mut stage = GeometricStage::new(format!("S{i}"), means[i])
            .input(ids[i], 1)
            .output(next, 1);
        if i == 0 {
            stage = stage.resource("lambda");
        }
        stage.build(&mut net).unwrap();
    }
    net
}

/// `n` exchangeable clients cycling think → serve through a single shared
/// server token — the shape whose permutation symmetry the exact lumping
/// pre-pass collapses. Both stages build to unit-delay transitions, so the
/// net always qualifies for lumping.
fn symmetric_station(n: u32, think_m: f64, serve_m: f64) -> Net {
    let mut net = Net::new("sym-station");
    let think = net.add_place("Think", n);
    let queue = net.add_place("Queue", 0);
    let server = net.add_place("Server", 1);
    GeometricStage::new("Think", think_m)
        .input(think, 1)
        .output(queue, 1)
        .build(&mut net)
        .unwrap();
    GeometricStage::new("Serve", serve_m)
        .input(queue, 1)
        .output(think, 1)
        .held(server)
        .resource("lambda")
        .build(&mut net)
        .unwrap();
    net
}

/// A fresh Exact engine with the given lumping policy and no shared cache.
fn lump_engine(lump: LumpSel) -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        tolerance: 1e-13,
        max_sweeps: 300_000,
        state_budget: 200_000,
        lump,
        ..EngineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Build order does not change the model: a ring built under random
    /// place/transition permutations solves, through the engine, to the
    /// analytically known cycle rate (`tandem_cycle_rate_exact` holds
    /// the natural build to it), and its per-id queries resolve by its own
    /// ids (stage 0's exit transition carries the `lambda` usage wherever
    /// it was inserted).
    #[test]
    fn permuted_build_solves_to_the_cycle_rate(
        means in proptest::collection::vec(1.0f64..40.0, 2..5),
        seed in 0u64..10_000,
    ) {
        // Fisher–Yates (the vendored rand has no `seq` module).
        fn shuffle(v: &mut [usize], rng: &mut StdRng) {
            for i in (1..v.len()).rev() {
                let j = rng.gen_range(0..=i);
                v.swap(i, j);
            }
        }
        let mut place_order: Vec<usize> = (0..means.len()).collect();
        let mut stage_order = place_order.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        shuffle(&mut place_order, &mut rng);
        shuffle(&mut stage_order, &mut rng);

        let engine = AnalysisEngine::new(EngineConfig {
            backend: BackendSel::Exact,
            tolerance: 1e-12,
            max_sweeps: 300_000,
            state_budget: 200_000,
            ..EngineConfig::default()
        });
        let net = stage_ring_ordered(&means, &place_order, &stage_order);
        let a = engine.analyze(&net).unwrap();
        let expect = 1.0 / means.iter().sum::<f64>();
        let usage = a.resource_usage("lambda").unwrap();
        prop_assert!((usage - expect).abs() < 1e-6 * expect.max(1e-3),
            "means {:?}: usage {} vs {}", means, usage, expect);
        let exit = a.transition_usage(net.transition_by_name("S0_exit").unwrap());
        prop_assert!((exit - expect).abs() < 1e-6 * expect.max(1e-3),
            "means {:?}: S0_exit usage {} vs {}", means, exit, expect);
    }

    /// The cycle rate of a tandem of geometric stages is 1/Σmeans, for any
    /// stage means — the exact solver must get this analytically-known
    /// answer right. The `lambda` resource sits on stage 0's delay-1 exit
    /// transition, so its usage equals the cycle rate.
    #[test]
    fn tandem_cycle_rate_exact(means in proptest::collection::vec(1.0f64..60.0, 2..5)) {
        let net = stage_ring(&means);
        let sol = net.reachability(200_000).unwrap().solve(1e-12, 300_000).unwrap();
        let total: f64 = means.iter().sum();
        let usage = sol.resource_usage("lambda").unwrap();
        let expect = 1.0 / total;
        prop_assert!((usage - expect).abs() < 1e-6 * expect.max(1e-3),
            "means {:?}: usage {} vs {}", means, usage, expect);
    }

    /// Every reachable tangible state has a stochastic out-distribution.
    #[test]
    fn out_edges_stochastic(means in proptest::collection::vec(1.0f64..20.0, 2..4),
                            tokens in 1u32..3) {
        // Multiple tokens: build the ring with `tokens` on P0.
        let net = {
            let mut n2 = Net::new("ring-multi");
            let places: Vec<_> = (0..means.len())
                .map(|i| n2.add_place(format!("P{i}"), if i == 0 { tokens } else { 0 }))
                .collect();
            for (i, &m) in means.iter().enumerate() {
                let next = places[(i + 1) % places.len()];
                GeometricStage::new(format!("S{i}"), m)
                    .input(places[i], 1)
                    .output(next, 1)
                    .build(&mut n2)
                    .unwrap();
            }
            n2
        };
        let g = net.reachability(500_000).unwrap();
        for i in 0..g.state_count() {
            let p: f64 = g.out_edges(i).iter().map(|&(_, p)| p).sum();
            prop_assert!((p - 1.0).abs() < 1e-9, "state {i}: mass {p}");
        }
    }

    /// Monte-Carlo simulation of the same net agrees with the exact solver.
    #[test]
    fn simulation_tracks_solver(means in proptest::collection::vec(2.0f64..30.0, 2..4),
                                seed in 0u64..1000) {
        let net = stage_ring(&means);
        let exact = net
            .reachability(200_000).unwrap()
            .solve(1e-12, 300_000).unwrap()
            .resource_usage("lambda").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mc = simulate(&net, &SimOptions { horizon: 300_000, warmup: 30_000 }, &mut rng)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        prop_assert!((exact - mc).abs() < 0.05 * exact.max(0.02),
            "exact {exact} vs MC {mc} (means {:?})", means);
    }

    /// P-invariant analysis: a pure cycle of single-token transitions is
    /// conservative with the all-ones weighting, whatever its length.
    #[test]
    fn cycles_are_conservative(len in 2usize..8) {
        let mut net = Net::new("cycle");
        let places: Vec<_> = (0..len).map(|i| net.add_place(format!("P{i}"), 1)).collect();
        for i in 0..len {
            net.add_transition(
                Transition::new(format!("T{i}"))
                    .delay(1)
                    .input(places[i], 1)
                    .output(places[(i + 1) % len], 1),
            )
            .unwrap();
        }
        let ones = vec![1i64; len];
        prop_assert!(invariant::is_invariant(&net, &ones));
        let basis = invariant::p_invariants(&net);
        prop_assert!(!basis.is_empty());
        for y in &basis {
            prop_assert!(invariant::is_invariant(&net, y));
        }
    }

    /// The frontier-parallel reachability build is byte-identical to the
    /// serial one: same state numbering, sojourns, successor lists, and
    /// bit-for-bit edge probabilities, for random products of independent
    /// stage rings (independent rings multiply the state space, widening
    /// the BFS frontier enough to exercise the parallel expansion path).
    #[test]
    fn parallel_reachability_is_byte_identical(
        rings in proptest::collection::vec(
            proptest::collection::vec(1.0f64..30.0, 1..4), 1..4),
    ) {
        let mut net = Net::new("rings");
        for (r, means) in rings.iter().enumerate() {
            let places: Vec<_> = (0..means.len())
                .map(|i| net.add_place(format!("P{r}_{i}"), u32::from(i == 0)))
                .collect();
            for (i, &m) in means.iter().enumerate() {
                let next = places[(i + 1) % places.len()];
                let mut stage = GeometricStage::new(format!("S{r}_{i}"), m)
                    .input(places[i], 1)
                    .output(next, 1);
                if i == 0 {
                    stage = stage.resource(format!("lambda{r}"));
                }
                stage.build(&mut net).unwrap();
            }
        }

        let serial = net.reachability(200_000).unwrap();
        let budget = gtpn::ParallelBudget::new(8);
        let par = net.reachability_budgeted(200_000, &budget).unwrap();

        prop_assert_eq!(par.state_count(), serial.state_count());
        prop_assert_eq!(par.states(), serial.states(),
            "state numbering must match the serial FIFO order");
        prop_assert_eq!(par.sojourns(), serial.sojourns());
        for i in 0..serial.state_count() {
            let (se, pe) = (serial.out_edges(i), par.out_edges(i));
            prop_assert_eq!(pe.len(), se.len(), "out-degree of state {}", i);
            for (a, b) in se.iter().zip(pe) {
                prop_assert_eq!(a.0, b.0, "successor from state {}", i);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(),
                    "edge probability from state {}", i);
            }
        }
        prop_assert_eq!(budget.available(), 7, "expansion must release its leases");

        // Identical graphs solve to bit-identical stationary vectors.
        let ss = serial.solve(1e-12, 300_000).unwrap();
        let ps = par.solve(1e-12, 300_000).unwrap();
        for (a, b) in ss.state_probabilities().iter().zip(ps.state_probabilities()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Exact lumping is exact: on random symmetric client–server stations
    /// the lumped engine reproduces the raw chain's numbers — resource
    /// usage, per-place mean tokens, and per-transition usage — within
    /// 1e-10, while never enlarging the chain.
    #[test]
    fn lumped_solution_matches_raw(
        n in 2u32..=4,
        think_m in 1.0f64..30.0,
        serve_m in 1.0f64..30.0,
    ) {
        let net = symmetric_station(n, think_m, serve_m);
        prop_assert!(gtpn::lump::lumpable(&net), "unit-delay net must qualify");
        let raw = lump_engine(LumpSel::Off).analyze(&net).unwrap();
        let lumped = lump_engine(LumpSel::On).analyze(&net).unwrap();
        prop_assert!(lumped.lumped() && !raw.lumped());
        prop_assert!(lumped.states() <= raw.states(),
            "quotient {} vs raw {}", lumped.states(), raw.states());
        let (a, b) = (
            raw.resource_usage("lambda").unwrap(),
            lumped.resource_usage("lambda").unwrap(),
        );
        prop_assert!((a - b).abs() < 1e-10,
            "n={} think={} serve={}: raw usage {} vs lumped {}",
            n, think_m, serve_m, a, b);
        for p in 0..net.place_count() {
            let (a, b) = (raw.mean_tokens(PlaceId(p)), lumped.mean_tokens(PlaceId(p)));
            prop_assert!((a - b).abs() < 1e-10, "place {}: {} vs {}", p, a, b);
        }
        for t in 0..net.transition_count() {
            let (a, b) = (raw.transition_usage(TransId(t)), lumped.transition_usage(TransId(t)));
            prop_assert!((a - b).abs() < 1e-10, "transition {}: {} vs {}", t, a, b);
        }
    }

    /// Delay heterogeneity disqualifies lumping, for any slow-phase length:
    /// the engine declines the pre-pass and falls back to the raw chain,
    /// so an Auto-lump engine matches a lump-off engine to the bit.
    #[test]
    fn heterogeneous_delays_decline_lumping(d in 2u64..6) {
        let mut net = Net::new("hetero");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(
            Transition::new("slow").delay(d).resource("lambda").input(a, 1).output(b, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("back").delay(1).input(b, 1).output(a, 1))
            .unwrap();
        prop_assert!(!gtpn::lump::lumpable(&net), "delay {} must disqualify", d);
        let on = lump_engine(LumpSel::On).analyze(&net).unwrap();
        let off = lump_engine(LumpSel::Off).analyze(&net).unwrap();
        prop_assert!(!on.lumped());
        prop_assert_eq!(
            on.resource_usage("lambda").unwrap().to_bits(),
            off.resource_usage("lambda").unwrap().to_bits(),
            "declined lumping must leave the raw path untouched"
        );
    }

    /// Weighted production/consumption: T consuming a of A and producing b
    /// of B is conserved exactly by the weighting (b, a).
    #[test]
    fn weighted_conservation(a in 1u32..5, b in 1u32..5) {
        let mut net = Net::new("w");
        let pa = net.add_place("A", a * 4);
        let pb = net.add_place("B", 0);
        net.add_transition(Transition::new("fwd").delay(1).input(pa, a).output(pb, b)).unwrap();
        net.add_transition(Transition::new("rev").delay(1).input(pb, b).output(pa, a)).unwrap();
        prop_assert!(invariant::is_invariant(&net, &[i64::from(b), i64::from(a)]));
        prop_assert!(!invariant::is_invariant(&net, &[i64::from(b) + 1, i64::from(a)])
            || a == 0);
    }
}
