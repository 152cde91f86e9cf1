//! Criterion benchmarks of the GTPN engine: reachability construction and
//! steady-state solution of the chapter-6 architecture models.

use criterion::{criterion_group, criterion_main, Criterion};
use models::{local, Architecture};

fn bench_local_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("gtpn/local");
    group.sample_size(20);
    for &(arch, label) in &[
        (Architecture::Uniprocessor, "archI"),
        (Architecture::MessageCoprocessor, "archII"),
        (Architecture::SmartBus, "archIII"),
    ] {
        for &n in &[1u32, 3] {
            group.bench_function(format!("{label}_{n}conv"), |b| {
                b.iter(|| local::solve(arch, n, 1_140.0).expect("model solves"))
            });
        }
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    use models::{AnalysisEngine, BackendSel, EngineConfig};
    let engine = AnalysisEngine::new(EngineConfig {
        backend: BackendSel::Exact,
        ..EngineConfig::default()
    });
    let net = local::build(Architecture::MessageCoprocessor, 4, 0.0).expect("builds");
    let mut group = c.benchmark_group("gtpn/engine");
    group.sample_size(20);
    // Cold path: canonicalize + reachability + solve, caches cleared each
    // iteration.
    group.bench_function("archII_local_4conv_cold", |b| {
        b.iter(|| {
            gtpn::engine::clear_cache();
            engine.analyze(&net).expect("fits budget").states()
        })
    });
    // Hot path: the canonical-fingerprint cache hit every call site pays
    // after the first solve of a structurally-identical net.
    group.bench_function("archII_local_4conv_cache_hit", |b| {
        engine.analyze(&net).expect("fits budget");
        b.iter(|| engine.analyze(&net).expect("cached").states())
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gtpn/monte-carlo");
    group.sample_size(10);
    group.bench_function("archII_local_2conv_sim_1s", |b| {
        use gtpn::sim::{simulate, SimOptions};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let net = local::build(Architecture::MessageCoprocessor, 2, 0.0).expect("builds");
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            simulate(
                &net,
                &SimOptions {
                    horizon: 1_000_000,
                    warmup: 100_000,
                },
                &mut rng,
            )
            .expect("simulates")
            .measured_time
        })
    });
    group.finish();
}

criterion_group!(benches, bench_local_models, bench_engine, bench_simulation);
criterion_main!(benches);
