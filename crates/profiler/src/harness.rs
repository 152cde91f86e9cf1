//! The §3.3 profiling harness.
//!
//! Instrumentation per the thesis:
//!
//! ```text
//! procedure_entry = record
//!     count                : integer;
//!     timer_value_at_entry : integer;
//!     elapsed_time         : integer;
//! end;
//! statistics : array (procedure_names) of procedure_entry;
//! ```
//!
//! A *kernel run* executes a producer that sends a fixed number of messages
//! and a consumer that receives them; the hardware timer is read on entering
//! and leaving each instrumented kernel procedure, wrap-corrected, and the
//! per-procedure elapsed time accumulated. The cost of the timing code
//! itself is measured and subtracted ("suitable corrections have to be made
//! to remove the cost incurred due to the timing code itself").

use crate::spec::KernelSpec;
use crate::timer::HardwareTimer;
use std::collections::HashMap;

/// Cost of one timer read on the instrumented machine, microseconds.
pub(crate) const TIMER_READ_US: u64 = 4;

/// Per-procedure statistics record.
#[derive(Debug, Clone, Copy, Default)]
struct ProcedureEntry {
    count: u64,
    timer_value_at_entry: u64,
    elapsed_time: u64,
}

/// The statistics array plus the virtual clock and timer.
#[derive(Debug)]
pub(crate) struct Profiler {
    timer: HardwareTimer,
    statistics: HashMap<&'static str, ProcedureEntry>,
    now_us: u64,
}

impl Profiler {
    /// A profiler over a fresh virtual clock.
    pub(crate) fn new(timer: HardwareTimer) -> Profiler {
        Profiler {
            timer,
            statistics: HashMap::new(),
            now_us: 0,
        }
    }

    /// Enters an instrumented procedure: read the timer (the read itself
    /// costs time that lands inside the measured window) and record the
    /// value.
    pub(crate) fn enter(&mut self, name: &'static str) {
        let value = self.timer.read(self.now_us);
        self.now_us += TIMER_READ_US;
        let e = self.statistics.entry(name).or_default();
        e.timer_value_at_entry = value;
    }

    /// Burns `us` microseconds of procedure body.
    pub(crate) fn execute_us(&mut self, us: u64) {
        self.now_us += us;
    }

    /// Exits the procedure: read the timer again (paying for the read),
    /// wrap-correct, accumulate.
    pub(crate) fn exit(&mut self, name: &'static str) {
        self.now_us += TIMER_READ_US;
        let value = self.timer.read(self.now_us);
        let e = self.statistics.get_mut(name).expect("exit without enter");
        e.elapsed_time += self.timer.elapsed(e.timer_value_at_entry, value);
        e.count += 1;
    }

    /// Elapsed time with the timing-code overhead removed: both timer reads
    /// sit inside the measured window, so each visit carries
    /// `2 × TIMER_READ_US` of instrumentation cost — "suitable corrections
    /// have to be made to remove the cost incurred due to the timing code
    /// itself" (§3.3).
    pub(crate) fn corrected_elapsed_us(&self, name: &str) -> u64 {
        let e = match self.statistics.get(name) {
            Some(e) => *e,
            None => return 0,
        };
        e.elapsed_time.saturating_sub(2 * TIMER_READ_US * e.count)
    }
}

/// One row of a Table 3.x breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Activity name.
    pub name: &'static str,
    /// Time per round trip, milliseconds.
    pub time_ms: f64,
    /// Percentage of the round-trip time.
    pub percent: f64,
}

/// A complete breakdown (one of Tables 3.1–3.5).
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// System name.
    pub system: &'static str,
    /// Processor description.
    pub processor: &'static str,
    /// Measured round-trip time, milliseconds.
    pub round_trip_ms: f64,
    /// Copy time per round trip, milliseconds (0 when not broken out).
    pub copy_ms: f64,
    /// Message size in bytes.
    pub message_bytes: u32,
    /// The activity rows.
    pub rows: Vec<BreakdownRow>,
}

/// A kernel run: executes the producer/consumer loop of a synthetic kernel
/// under the profiling harness.
#[derive(Debug)]
pub struct KernelRun<'a> {
    spec: &'a KernelSpec,
    profiler: Profiler,
    round_trips: u64,
}

impl<'a> KernelRun<'a> {
    /// Prepares a run of `spec`.
    pub fn new(spec: &'a KernelSpec) -> KernelRun<'a> {
        KernelRun {
            spec,
            profiler: Profiler::new(HardwareTimer::sixteen_bit()),
            round_trips: 0,
        }
    }

    /// Executes `messages` round trips (producer sends, consumer replies),
    /// visiting every activity's procedures with its instruction budget.
    pub fn execute(mut self, messages: u64) -> KernelRun<'a> {
        let instr_us = self.spec.instruction_us();
        for _ in 0..messages {
            for a in &self.spec.activities {
                let per_visit_us = (a.instructions_per_round_trip as f64 * instr_us
                    / f64::from(a.visits_per_round_trip.max(1)))
                .round() as u64;
                for _ in 0..a.visits_per_round_trip.max(1) {
                    self.profiler.enter(a.name);
                    self.profiler.execute_us(per_visit_us);
                    self.profiler.exit(a.name);
                }
            }
            self.round_trips += 1;
        }
        self
    }

    /// Analyzes the statistics array into a Table 3.x breakdown.
    ///
    /// # Panics
    ///
    /// Panics if no round trips were executed.
    pub fn breakdown(&self) -> Breakdown {
        assert!(self.round_trips > 0, "execute() the run first");
        let mut rows = Vec::new();
        let mut total_us = 0.0;
        for a in &self.spec.activities {
            let us = self.profiler.corrected_elapsed_us(a.name) as f64 / self.round_trips as f64;
            total_us += us;
            rows.push((a.name, us));
        }
        let copy_ms = rows
            .iter()
            .find(|(n, _)| n.contains("Copy"))
            .map_or(0.0, |(_, us)| us / 1_000.0);
        let rows = rows
            .into_iter()
            .map(|(name, us)| BreakdownRow {
                name,
                time_ms: us / 1_000.0,
                percent: 100.0 * us / total_us,
            })
            .collect();
        Breakdown {
            system: self.spec.name,
            processor: self.spec.processor,
            round_trip_ms: total_us / 1_000.0,
            copy_ms,
            message_bytes: self.spec.message_bytes,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ActivitySpec, KernelSpec};

    fn tiny_spec() -> KernelSpec {
        KernelSpec {
            name: "tiny",
            processor: "1 MIPS test CPU",
            mips: 1.0,
            message_bytes: 64,
            local: true,
            activities: vec![
                ActivitySpec {
                    name: "Alpha",
                    instructions_per_round_trip: 3_000,
                    visits_per_round_trip: 1,
                },
                ActivitySpec {
                    name: "Copy Time",
                    instructions_per_round_trip: 1_000,
                    visits_per_round_trip: 4,
                },
            ],
        }
    }

    #[test]
    fn percentages_sum_to_100() {
        let spec = tiny_spec();
        let b = KernelRun::new(&spec).execute(50).breakdown();
        let total: f64 = b.rows.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(b.rows.len(), 2);
    }

    #[test]
    fn times_recover_instruction_budgets() {
        let spec = tiny_spec();
        let b = KernelRun::new(&spec).execute(50).breakdown();
        // 3000 instructions at 1 MIPS = 3 ms.
        let alpha = &b.rows[0];
        assert!((alpha.time_ms - 3.0).abs() < 0.01, "{}", alpha.time_ms);
        assert!((b.copy_ms - 1.0).abs() < 0.01, "{}", b.copy_ms);
        assert!((b.round_trip_ms - 4.0).abs() < 0.02);
    }

    #[test]
    fn counts_track_visits() {
        let spec = tiny_spec();
        let run = KernelRun::new(&spec).execute(10);
        assert_eq!(run.profiler.statistics["Alpha"].count, 10);
        assert_eq!(run.profiler.statistics["Copy Time"].count, 40);
    }

    #[test]
    fn survives_timer_wrap() {
        // Run long enough that the 16-bit µs timer wraps many times; the
        // per-procedure elapsed stays correct because each measured window
        // is far shorter than the 65.5 ms period.
        let spec = tiny_spec();
        let run = KernelRun::new(&spec).execute(1_000);
        assert!(run.profiler.now_us > 4 * 65_536);
        let b = run.breakdown();
        assert!((b.round_trip_ms - 4.0).abs() < 0.02, "{}", b.round_trip_ms);
    }

    #[test]
    #[should_panic(expected = "execute")]
    fn breakdown_requires_a_run() {
        let spec = tiny_spec();
        KernelRun::new(&spec).breakdown();
    }
}
