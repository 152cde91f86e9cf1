//! Offered-load tables (6.24 / 6.25).
//!
//! Offered load is `C / (C + S)` — the fraction of a conversation's demand
//! that is communication processing — where `C` is architecture-dependent
//! and `S` is the workload's server time. The paper tabulates thirteen
//! server times from 0 to 45.6 ms.

use archsim::timings::{offered_load, Architecture, Locality};

/// The server times (ms) of Tables 6.24/6.25.
pub const SERVER_TIMES_MS: [f64; 13] = [
    0.0, 0.57, 1.14, 1.71, 2.85, 5.7, 11.4, 17.1, 22.8, 28.5, 34.2, 39.9, 45.6,
];

/// One row of Table 6.24/6.25: server time and the offered load under each
/// architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferedLoadRow {
    /// Server computation time, milliseconds.
    pub server_ms: f64,
    /// Offered load per architecture, in I, II, III, IV order.
    pub loads: [f64; 4],
}

/// Computes one row of Table 6.24/6.25 — an independent sweep point.
pub fn row(locality: Locality, server_ms: f64) -> OfferedLoadRow {
    let s_us = server_ms * 1_000.0;
    let loads = [
        offered_load(Architecture::Uniprocessor, locality, s_us),
        offered_load(Architecture::MessageCoprocessor, locality, s_us),
        offered_load(Architecture::SmartBus, locality, s_us),
        offered_load(Architecture::PartitionedSmartBus, locality, s_us),
    ];
    OfferedLoadRow { server_ms, loads }
}

/// Server time (µs) that produces a given offered load under architecture
/// I — used to sweep the figures' x-axes, which plot "offered load computed
/// for architecture I" (§6.9.2).
pub fn server_time_for_load_arch1(locality: Locality, load: f64) -> f64 {
    assert!(load > 0.0 && load <= 1.0, "offered load must be in (0, 1]");
    let c = archsim::timings::round_trip_us(Architecture::Uniprocessor, locality, false);
    c * (1.0 - load) / load
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(locality: Locality) -> Vec<OfferedLoadRow> {
        SERVER_TIMES_MS
            .iter()
            .map(|&ms| row(locality, ms))
            .collect()
    }

    #[test]
    fn zero_server_time_is_unit_load() {
        for row in [table(Locality::Local), table(Locality::NonLocal)] {
            assert_eq!(row[0].server_ms, 0.0);
            for l in row[0].loads {
                assert_eq!(l, 1.0);
            }
        }
    }

    #[test]
    fn loads_decrease_with_server_time() {
        let t = table(Locality::Local);
        for w in t.windows(2) {
            for i in 0..4 {
                assert!(w[1].loads[i] < w[0].loads[i]);
            }
        }
    }

    #[test]
    fn spot_check_table_6_24() {
        // S = 1.14 ms local, architecture I: 0.813.
        let t = table(Locality::Local);
        let row = t
            .iter()
            .find(|r| (r.server_ms - 1.14).abs() < 1e-9)
            .unwrap();
        assert!((row.loads[0] - 0.813).abs() < 0.005, "{}", row.loads[0]);
        // Architecture IV always offers the least load for a given S.
        for r in &t[1..] {
            assert!(r.loads[3] <= r.loads[2] + 1e-12);
            assert!(r.loads[2] < r.loads[0]);
        }
    }

    #[test]
    fn load_inversion_round_trips() {
        for load in [0.9, 0.5, 0.2] {
            let s = server_time_for_load_arch1(Locality::Local, load);
            let back =
                archsim::timings::offered_load(Architecture::Uniprocessor, Locality::Local, s);
            assert!((back - load).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_rejected() {
        server_time_for_load_arch1(Locality::Local, 0.0);
    }
}
