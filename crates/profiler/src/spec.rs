//! Synthetic-kernel specifications.

/// One message-passing activity of a kernel (a row of Tables 3.1–3.5).
#[derive(Debug, Clone)]
pub struct ActivitySpec {
    /// Activity name as printed in the table.
    pub name: &'static str,
    /// Instructions executed for this activity in one round trip.
    pub instructions_per_round_trip: u64,
    /// Procedure invocations per round trip (entry/exit instrumentation
    /// fires once per visit).
    pub visits_per_round_trip: u32,
}

/// A profiled system: processor speed, message size, and its activity
/// structure.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// System name ("Charlotte", "Jasmin", "925", "Unix").
    pub name: &'static str,
    /// Processor description for the table header.
    pub processor: &'static str,
    /// Instruction rate, MIPS.
    pub mips: f64,
    /// Message payload in bytes (one way).
    pub message_bytes: u32,
    /// Whether this is the local or non-local measurement.
    pub local: bool,
    /// The activity rows.
    pub activities: Vec<ActivitySpec>,
}

impl KernelSpec {
    /// Time for one instruction, microseconds.
    pub(crate) fn instruction_us(&self) -> f64 {
        1.0 / self.mips
    }
}

/// Builds an activity spec from a published activity time (ms) at a given
/// MIPS rating: the instruction budget is what that time buys on that
/// processor.
pub(crate) fn activity_from_time(
    name: &'static str,
    time_ms: f64,
    mips: f64,
    visits: u32,
) -> ActivitySpec {
    ActivitySpec {
        name,
        instructions_per_round_trip: (time_ms * 1_000.0 * mips).round() as u64,
        visits_per_round_trip: visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_budget_round_trips_time() {
        let a = activity_from_time("X", 2.0, 0.5, 1);
        // 2 ms at 0.5 MIPS = 1000 instructions.
        assert_eq!(a.instructions_per_round_trip, 1_000);
        let spec = KernelSpec {
            name: "t",
            processor: "test",
            mips: 0.5,
            message_bytes: 100,
            local: true,
            activities: vec![a],
        };
        let a = &spec.activities[0];
        let us = a.instructions_per_round_trip as f64 * spec.instruction_us();
        assert!((us - 2_000.0).abs() < 1e-9);
    }
}
