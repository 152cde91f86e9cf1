//! Shared helpers for assembling the chapter-6 nets from the timing tables.

use archsim::timings::{activity, ActivityKind, Architecture, Locality};

/// Mean stage duration (µs) for a set of activity kinds, using the paper's
/// contention completion times (the models' frequency expressions are built
/// from the contention column, §6.6.2).
pub(crate) fn stage_mean(arch: Architecture, locality: Locality, kinds: &[ActivityKind]) -> f64 {
    kinds
        .iter()
        .filter_map(|&k| activity(arch, locality, k))
        .map(|a| a.contention_us)
        .sum()
}

/// Rounds a mean to at least one time unit (geometric stages need mean ≥ 1).
pub(crate) fn clamp_mean(mean: f64) -> f64 {
    mean.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActivityKind as K;

    #[test]
    fn arch2_local_client_stage_matches_table_6_10() {
        // T0 frequency 1/519.9 ~ contention(1) + contention(9) = 520.3.
        let m = stage_mean(
            Architecture::MessageCoprocessor,
            Locality::Local,
            &[K::SyscallSend, K::RestartClient],
        );
        assert!((m - 520.3).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn missing_activities_contribute_zero() {
        // Architecture I has no ProcessSend.
        let m = stage_mean(
            Architecture::Uniprocessor,
            Locality::Local,
            &[K::ProcessSend],
        );
        assert_eq!(m, 0.0);
        assert_eq!(clamp_mean(m), 1.0);
    }
}
