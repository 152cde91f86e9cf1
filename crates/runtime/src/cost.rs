//! Per-activity processing costs replayed as processor occupancy.
//!
//! The live runtime does not re-measure 1987 hardware; it *replays* the
//! paper's measured per-activity times (Tables 6.4–6.23, via
//! [`archsim::timings::activity_table`]) on whichever thread performs the
//! activity — syscall entry on the host, send/receive/reply processing on
//! the MP, DMA and interrupt handling on the MP's network side. While a
//! thread is occupied it processes nothing else, so queueing behavior is
//! faithful. *How* the occupancy elapses is the clock's business
//! ([`crate::clock::ClockHandle`]): the real clock spins or sleeps the
//! activity's wall time (sleeping so that two busy processors overlap even
//! when the machine has fewer cores than the node has processors), the
//! virtual clock advances a logical timestamp. The throughput ordering of
//! the four architectures then emerges from the paper's own numbers plus
//! genuinely concurrent execution, which is exactly what the
//! cross-validation harness checks against the GTPN model's predictions.

use crate::clock::ClockHandle;
use archsim::timings::{activity_table, ActivityKind, Architecture, Locality};
use std::time::{Duration, Instant};

/// Busy-spins the calling thread for `us` microseconds (no-op for `<= 0`).
pub(crate) fn spin_us(us: f64) {
    if us <= 0.0 {
        return;
    }
    let deadline = Instant::now() + Duration::from_nanos((us * 1_000.0) as u64);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Per-kind activity costs for one architecture and locality.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    /// Indexed by `kind as usize`.
    us: [f64; ActivityKind::ALL.len()],
}

impl CostModel {
    /// Sums the `best_us` of every table row per [`ActivityKind`]. Kinds
    /// absent from the table (e.g. MP processing on
    /// Architecture I, DMA on local conversations) cost zero.
    pub(crate) fn new(arch: Architecture, locality: Locality) -> CostModel {
        let mut us = [0.0; ActivityKind::ALL.len()];
        for activity in activity_table(arch, locality) {
            us[activity.kind as usize] += activity.best_us();
        }
        CostModel { us }
    }

    /// The cost of one activity kind, microseconds.
    pub(crate) fn us(&self, kind: ActivityKind) -> f64 {
        self.us[kind as usize]
    }

    /// Occupies the calling processor's clock for the activity's time.
    pub(crate) async fn charge(&self, kind: ActivityKind, clock: &ClockHandle) {
        clock.occupy_us(self.us(kind), kind as usize).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch1_charges_syscalls_but_no_mp_processing() {
        let c = CostModel::new(Architecture::Uniprocessor, Locality::Local);
        assert!(c.us(ActivityKind::SyscallSend) > 0.0);
        assert_eq!(c.us(ActivityKind::ProcessSend), 0.0);
    }

    #[test]
    fn arch2_splits_work_between_host_and_mp() {
        let c = CostModel::new(Architecture::MessageCoprocessor, Locality::Local);
        assert!(c.us(ActivityKind::SyscallSend) > 0.0);
        assert!(c.us(ActivityKind::ProcessSend) > 0.0);
        // The host-side syscall entry is cheaper than Architecture I's
        // all-inclusive send — that offload is the whole design.
        let a1 = CostModel::new(Architecture::Uniprocessor, Locality::Local);
        assert!(c.us(ActivityKind::SyscallSend) < a1.us(ActivityKind::SyscallSend));
    }

    #[test]
    fn spin_burns_at_least_the_requested_time() {
        let t0 = Instant::now();
        spin_us(200.0);
        assert!(t0.elapsed() >= Duration::from_micros(200));
        spin_us(0.0); // no-op
        spin_us(-3.0); // no-op
    }
}
