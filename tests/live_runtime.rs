//! Live-runtime integration: the four architectures execute on real
//! threads under load, and the measured throughput ordering is
//! cross-validated against the GTPN local model's predictions at the §6.3
//! workload (X = 1140 µs).
//!
//! Everything lives in ONE test function on purpose: the live runs measure
//! wall-clock throughput, and the default test harness runs `#[test]`
//! functions concurrently — parallel timing-sensitive runs on one machine
//! would contaminate each other. Virtual-clock runs are deterministic and
//! timing-insensitive, so they live in `tests/live_virtual.rs` instead.

use hsipc::models::local;
use hsipc::runtime::{Architecture, Config, Locality};
use std::time::Duration;

const X_US: f64 = 1_140.0;

fn measured(arch: Architecture, conversations: u32, duration_ms: u64) -> f64 {
    let mut config = Config::new(arch);
    config.conversations = conversations;
    config.duration = Duration::from_millis(duration_ms);
    let report = hsipc::runtime::run(&config);
    assert!(
        report.clean_shutdown,
        "{arch}: drain did not complete within the real clock's grace"
    );
    assert!(report.round_trips > 0, "{arch}: no round trips completed");
    report.throughput_per_ms
}

#[test]
fn live_execution_sustains_load_and_matches_model_ordering() {
    // --- Sustained load: 64 concurrent conversations per architecture,
    // clean shutdown, nonzero throughput.
    for arch in Architecture::ALL {
        let tp = measured(arch, 64, 300);
        assert!(tp > 0.0, "{arch}: zero throughput under 64 conversations");
    }

    // --- Cross-validation: measured ordering of Architectures I/II/III at
    // the §6.3 workload agrees with the GTPN model's prediction. Longer
    // runs, moderate fleet, so queueing reaches steady state.
    let archs = [
        Architecture::Uniprocessor,
        Architecture::MessageCoprocessor,
        Architecture::SmartBus,
    ];
    let model: Vec<f64> = archs
        .iter()
        .map(|&arch| {
            local::solve(arch, 4, X_US)
                .expect("local model solves at the §6.3 workload")
                .throughput_per_ms
        })
        .collect();
    // The paper's claim at this workload (§6.3): the MP relieves the host
    // (II > I) and the smart bus relieves the MP (III >= II).
    assert!(
        model[1] > model[0],
        "model ordering: II {} <= I {}",
        model[1],
        model[0]
    );
    assert!(
        model[2] >= model[1],
        "model ordering: III {} < II {}",
        model[2],
        model[1]
    );

    let live: Vec<f64> = archs.iter().map(|&a| measured(a, 16, 1_200)).collect();
    // Measured ordering must agree. The live numbers ride on OS scheduling,
    // so III >= II is asserted with a small noise allowance; the II > I gap
    // the model predicts (~1.4x) needs none.
    assert!(
        live[1] > live[0],
        "measured ordering disagrees with model: II {:.3}/ms <= I {:.3}/ms",
        live[1],
        live[0]
    );
    assert!(
        live[2] >= 0.9 * live[1],
        "measured ordering disagrees with model: III {:.3}/ms << II {:.3}/ms",
        live[2],
        live[1]
    );

    // --- Remote traffic: two nodes, each node's clients invoking the other
    // node's servers; every round trip crosses the ring twice (§4.6).
    let mut config = Config::new(Architecture::MessageCoprocessor);
    config.nodes = 2;
    config.conversations = 8;
    config.locality = Locality::NonLocal;
    config.duration = Duration::from_millis(400);
    let report = hsipc::runtime::run(&config);
    assert!(report.clean_shutdown, "remote drain did not complete");
    assert!(report.round_trips > 0, "no remote round trips completed");
    assert!(
        report.ring_frames >= 2 * report.round_trips,
        "ring frames {} < 2 x round trips {}",
        report.ring_frames,
        report.round_trips
    );
}
