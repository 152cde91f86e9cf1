//! The benchmark's contract: workloads, metric names, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is generated
//! from these tables (`hsipc-benchmark benchmark-json`) and a unit test
//! holds the checked-in file to them, so the names the binary prints and
//! the names the file lists cannot drift apart.

use crate::json;
use crate::stats::Better::{self, Higher, Lower};

/// Seconds one run measures (`run_seconds`). With five workloads the
/// driver makes 114 runs inside 3420 s, so a run — one warm-up process
/// plus the measured ones — has to stay near 20 s.
pub const RUN_SECONDS: u32 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the traced run also measures the workload once on up to
    /// four CPUs, for the sweep pool's speed-up. End to end every workload
    /// runs pinned to one CPU.
    pub pool: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "figs",
        why: "nine paper figures, 3246 small exact solves at 39% cache hits: cache, warm start, \
              the non-local fixed point and the archsim validation runs do the work; big-chain \
              code none",
        pool: true,
    },
    Workload {
        name: "scale",
        why: "one large lumped BFS + Gauss-Seidel solve (arch II, n = 12), zero cache hits: the \
              gtpn layer used the opposite way from figs",
        pool: false,
    },
    Workload {
        name: "curve",
        why: "176 short 1-node virtual runs beside 176 model points: per-run set-up/tear-down, \
              thread spawn, histogram merge and cached model solves dominate; ready set stays tiny",
        pool: false,
    },
    Workload {
        name: "deep",
        why: "arch III, 64 nodes x 400 conversations on 64 buffers, overloaded: 129 actors, \
              coordinator handoff and the buffer-shortage path do nearly all the work",
        pool: false,
    },
    Workload {
        name: "remote",
        why: "arch II, 16 nodes x 64 conversations, non-local, no overload: ring frames, the \
              kernel's remote path and the locked queues carry the load",
        pool: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse. Host time, measured with tracing off, reported by every
/// workload. Failures are not a metric here: every result line carries
/// `attempted` and `failed`, and any failure makes the run incorrect.
///
/// The time bounds are wide because this class of host is not steady: a
/// single-threaded process pinned to one CPU drifts by ±10% over minutes
/// (README, "Noise"), and run medians follow. Peak memory does not drift.
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("wall_s", "s", Lower), 0.25),
    (m("work_per_wall_s", "1/s", Higher), 0.25),
    (m("peak_rss_mb", "MiB", Lower), 0.10),
    (m("setup_s", "s", Lower), 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Per-layer metrics of the traced run. A traced run reports all of them;
/// one the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 57] = [
    // gtpn — the big chain (`scale`).
    m("gtpn.analyze_s.n8", "s", Lower),
    m("gtpn.analyze_s.n12", "s", Lower),
    m("gtpn.analyze_s.n16", "s", Lower),
    m("gtpn.states.n16", "count", Lower),
    m("gtpn.sweeps.n16", "count", Lower),
    m("gtpn.us_per_state.n16", "us", Lower),
    m("gtpn.des_s.n32", "s", Lower),
    // gtpn — many small solves (`figs`).
    m("gtpn.raw_reach_s", "s", Lower),
    m("gtpn.raw_solve_s", "s", Lower),
    m("gtpn.raw_states", "count", Lower),
    m("gtpn.cache_hit_us", "us", Lower),
    m("gtpn.cache_hit_rate", "ratio", Higher),
    m("gtpn.cache_bytes", "B", Lower),
    // models
    m("models.build_us", "us", Lower),
    m("models.local_solve_ms.n4", "ms", Lower),
    m("models.nonlocal_solve_ms.n4", "ms", Lower),
    m("models.validation_s", "s", Lower),
    m("models.live_model_s", "s", Lower),
    // core
    m("core.experiment_s.fig6.15", "s", Lower),
    m("core.experiment_s.fig6.17", "s", Lower),
    m("core.experiment_s.fig6.18", "s", Lower),
    m("core.experiment_s.fig6.19", "s", Lower),
    m("core.experiment_s.fig6.20", "s", Lower),
    m("core.experiment_s.fig6.21", "s", Lower),
    m("core.experiment_s.fig6.22", "s", Lower),
    m("core.experiment_s.fig6.23", "s", Lower),
    m("core.experiment_s.fig7.1", "s", Lower),
    m("core.experiment_s.fig7.scale", "s", Lower),
    m("core.livesweep_overhead_s", "s", Lower),
    // sweep
    m("sweep.figs_wall_s.t1", "s", Lower),
    m("sweep.figs_speedup", "ratio", Higher),
    m("sweep.cpus", "count", Higher),
    // runtime
    m("runtime.run_s", "s", Lower),
    m("runtime.us_per_round_trip", "us", Lower),
    m("runtime.us_per_handoff", "us", Lower),
    m("runtime.handoffs_per_round_trip", "ratio", Lower),
    m("runtime.virtual_speedup", "ratio", Higher),
    m("runtime.stalls_per_round_trip", "ratio", Lower),
    m("runtime.peak_ring_queue", "count", Lower),
    m("runtime.setup_teardown_ms.n1", "ms", Lower),
    m("runtime.setup_teardown_ms.n16", "ms", Lower),
    m("runtime.setup_teardown_ms.n64", "ms", Lower),
    m("runtime.hist_record_ns", "ns", Lower),
    // smartmem, msgkernel, netsim — single-threaded probes.
    m("smartmem.lockfree_ns_per_txn", "ns", Lower),
    m("smartmem.locked_ns_per_txn", "ns", Lower),
    m("msgkernel.local_round_trip_ns", "ns", Lower),
    m("msgkernel.remote_round_trip_ns", "ns", Lower),
    m("netsim.frame_ns", "ns", Lower),
    m("netsim.ring_frames", "count", Lower),
    // Simulated-result agreement of `curve` with the repo's own GTPN model
    // (no paper-measured numbers are checked in: agreement, not validation).
    m("live_model_err_mean_pct", "%", Lower),
    m("live_model_err_max_pct", "%", Lower),
    // host
    m("host.cpu_s", "s", Lower),
    m("host.untraced_wall_s", "s", Lower),
    m("host.traced_wall_s", "s", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.coverage_pct", "%", Higher),
    m("trace.spans", "count", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            json::object(&[
                ("name", json::string(w.name)),
                ("why", json::string(&squeeze(w.why))),
            ])
        })
        .collect();
    let describe = |metric: &Metric| {
        vec![
            ("name", json::string(metric.name)),
            ("unit", json::string(metric.unit)),
            ("better", json::string(metric.better.as_str())),
        ]
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(metric, bound)| {
            let mut pairs = describe(metric);
            pairs.push(("bound", json::number(*bound)));
            json::object(&pairs)
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|metric| json::object(&describe(metric)))
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json::array(&[json::string("bash"), json::string("benchmark/run.sh")]),
        json::array(&[json::string("benchmark")]),
        RUN_SECONDS,
        json::array_lines(&workloads, 2),
        json::array_lines(&end_to_end, 2),
        json::array_lines(&per_layer, 2),
    )
}

/// Collapses the source-code line continuations of a `why` into single
/// spaces.
fn squeeze(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for name in metrics
            .clone()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for metric in metrics {
            assert!(
                metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                metric.name,
                metric.unit
            );
        }
        for (metric, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", metric.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            let why = squeeze(w.why);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                w.name,
                why.len()
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let checked_in = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            checked_in,
            benchmark_json(),
            "regenerate with `hsipc-benchmark benchmark-json > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 * 1024);
    }
}
