//! Cross-system analysis (§3.4–§3.7).
//!
//! The chapter's inferences: message passing has a large *fixed* overhead
//! independent of message size; copy time is a *variable* overhead
//! proportional to size; the fixed part dominates until messages grow to
//! kilobytes; and server "computation" times are comparable to kernel
//! "communication" times — which is what motivates splitting computation
//! (host) from communication (message coprocessor).

use crate::harness::Breakdown;
use crate::systems::{UNIX_READ_WRITE, UNIX_SERVERS};

/// Fixed (size-independent) overhead of a round trip, ms: everything but
/// the copy (§3.4 reports 19.4 ms for Charlotte, 0.612 ms for Jasmin,
/// 4.76 ms for the 925).
pub fn fixed_overhead_ms(b: &Breakdown) -> f64 {
    b.round_trip_ms - b.copy_ms
}

/// Per-byte copy cost, µs/byte (copy time is for the bytes moved in one
/// round trip, i.e. the message both ways through kernel buffers).
pub(crate) fn copy_us_per_byte(b: &Breakdown) -> f64 {
    if b.message_bytes == 0 {
        return 0.0;
    }
    b.copy_ms * 1_000.0 / f64::from(b.message_bytes)
}

/// Message size (bytes) at which copy time reaches half the round trip —
/// where the variable overhead starts to dominate (§3.2's 6000-byte
/// Charlotte observation, §3.6's "larger than 1000 bytes" characteristic).
pub fn copy_crossover_bytes(b: &Breakdown) -> u64 {
    let per_byte_ms = copy_us_per_byte(b) / 1_000.0;
    if per_byte_ms <= 0.0 {
        return u64::MAX;
    }
    (fixed_overhead_ms(b) / per_byte_ms).ceil() as u64
}

/// Mean Unix server computation time (Table 3.6), ms.
pub fn mean_server_time_ms() -> f64 {
    let sum: f64 = UNIX_SERVERS.iter().map(|&(_, t)| t).sum();
    sum / UNIX_SERVERS.len() as f64
}

/// Linear-regression slope and intercept of read (or write) time vs block
/// size (Table 3.7): `time_ms ≈ intercept + slope_ms_per_kb * kb`.
pub fn read_write_fit(write: bool) -> (f64, f64) {
    let points: Vec<(f64, f64)> = UNIX_READ_WRITE
        .iter()
        .map(|&(b, r, w)| (f64::from(b) / 1024.0, if write { w } else { r }))
        .collect();
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::KernelRun;
    use crate::systems;

    #[test]
    fn fixed_overheads_match_section_3_4() {
        let pairs: [(fn() -> crate::KernelSpec, f64); 3] = [
            (systems::charlotte, 19.4),
            (systems::jasmin, 0.612),
            (systems::sys925, 4.76),
        ];
        for (mk, want) in pairs {
            let spec = mk();
            let b = KernelRun::new(&spec).execute(100).breakdown();
            let got = fixed_overhead_ms(&b);
            assert!(
                (got - want).abs() / want < 0.05,
                "{}: {got} vs {want}",
                b.system
            );
        }
    }

    #[test]
    fn copy_dominates_only_for_large_messages() {
        // §3.6: for messages under ~100 bytes copy is <20% of the round
        // trip; crossover sits in the kilobytes.
        for mk in [systems::jasmin, systems::sys925, systems::unix_local] {
            let spec = mk();
            let b = KernelRun::new(&spec).execute(100).breakdown();
            let copy_pct = 100.0 * b.copy_ms / b.round_trip_ms;
            assert!(copy_pct < 20.5, "{}: copy {copy_pct}%", b.system);
            // Crossover lies well beyond the measured message size in every
            // system (the fixed overhead dominates the measured points).
            assert!(
                copy_crossover_bytes(&b) > u64::from(b.message_bytes) * 2,
                "{}: crossover {}",
                b.system,
                copy_crossover_bytes(&b)
            );
        }
    }

    #[test]
    fn computation_comparable_to_communication() {
        // §3.5: mean service times are of the same order as the 4.57 ms
        // local communication time — the basis for the even host/MP split.
        let mean = mean_server_time_ms();
        assert!(mean > 1.0 && mean < 10.0, "mean {mean}");
        let spec = systems::unix_local();
        let b = KernelRun::new(&spec).execute(100).breakdown();
        let ratio = mean / b.round_trip_ms;
        assert!(ratio > 0.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn filesystem_times_grow_linearly() {
        let (intercept, slope) = read_write_fit(false);
        assert!(intercept > 0.5, "reads have a fixed cost: {intercept}");
        assert!(slope > 0.3, "and a per-KB cost: {slope}");
        let (wi, ws) = read_write_fit(true);
        assert!(ws > slope, "writes cost more per KB: {ws} vs {slope}");
        assert!(wi > 0.5);
    }
}
