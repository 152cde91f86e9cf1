//! Message-path time-stamping (§3.3, measurement 3).
//!
//! The third profiling technique follows each message from source to
//! destination, time-stamping it at the "interesting points" — queueing,
//! dequeueing, copying — to learn which kernel data structures it crosses
//! and where it waits. "If the network device is the bottleneck, messages
//! will probably spend most of the time on the device queues."
//!
//! [`MessagePath`] models the route as a tandem of FCFS service stages
//! (e.g. `socket queue → protocol processing → device queue → wire`); a
//! deterministic arrival schedule is pushed through, every message carries
//! its stamp record, and [`PathReport`] summarizes waiting time per stage
//! and names the bottleneck.

/// One stage of the message route.
#[derive(Debug, Clone)]
pub(crate) struct PathStage {
    /// Stage name ("device queue", "copy to kernel buffer", …).
    pub name: &'static str,
    /// Service time per message, µs.
    pub service_us: u64,
}

/// The stamp record a message accumulates: `(stage, enqueued_at,
/// dequeued_at, completed_at)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stamp {
    /// Stage name.
    pub stage: &'static str,
    /// Arrival at the stage's queue.
    pub enqueued_at: u64,
    /// Start of service (dequeue).
    pub dequeued_at: u64,
    /// End of service.
    pub completed_at: u64,
}

impl Stamp {
    /// Time spent waiting on this stage's queue.
    pub(crate) fn wait_us(&self) -> u64 {
        self.dequeued_at - self.enqueued_at
    }
}

/// A traced message.
#[derive(Debug, Clone)]
pub(crate) struct TracedMessage {
    /// Arrival time of the message at the first stage.
    pub arrived_at: u64,
    /// Stamps, one per stage in route order.
    pub stamps: Vec<Stamp>,
}

impl TracedMessage {
    /// Total source-to-destination latency.
    pub(crate) fn latency_us(&self) -> u64 {
        self.stamps
            .last()
            .map_or(0, |s| s.completed_at - self.arrived_at)
    }
}

/// Per-stage summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name.
    pub name: &'static str,
    /// Mean queue-waiting time, µs.
    pub mean_wait_us: f64,
    /// Service time, µs.
    pub service_us: u64,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Per-stage statistics, in route order.
    pub stages: Vec<StageStats>,
    /// Mean end-to-end latency, µs.
    pub mean_latency_us: f64,
    /// Stage with the highest mean wait — the route's bottleneck queue.
    pub bottleneck: &'static str,
}

/// A message route: a tandem of FCFS stages.
#[derive(Debug, Clone)]
pub struct MessagePath {
    stages: Vec<PathStage>,
}

impl MessagePath {
    /// Builds a route from its stages.
    ///
    /// # Panics
    ///
    /// Panics on an empty route.
    pub(crate) fn new(stages: Vec<PathStage>) -> MessagePath {
        assert!(
            !stages.is_empty(),
            "a message route needs at least one stage"
        );
        MessagePath { stages }
    }

    /// The Unix non-local transmit path of Table 3.5: socket queue →
    /// copies → TCP → IP → device queue → wire, with the paper's times.
    pub fn unix_transmit() -> MessagePath {
        MessagePath::new(vec![
            PathStage {
                name: "socket routines",
                service_us: 510,
            },
            PathStage {
                name: "copy to kernel buffer",
                service_us: 250,
            },
            PathStage {
                name: "TCP processing",
                service_us: 650,
            },
            PathStage {
                name: "IP processing",
                service_us: 800,
            },
            PathStage {
                name: "device queue + DMA",
                service_us: 550,
            },
            PathStage {
                name: "wire (4 Mb/s)",
                service_us: 112,
            },
        ])
    }

    /// Pushes messages arriving every `interarrival_us` through the route
    /// and returns the fully stamped messages.
    pub(crate) fn run(&self, messages: usize, interarrival_us: u64) -> Vec<TracedMessage> {
        // Each stage is FCFS: it becomes free at `free_at[i]`.
        let mut free_at = vec![0u64; self.stages.len()];
        let mut out = Vec::with_capacity(messages);
        for m in 0..messages as u64 {
            let arrived = m * interarrival_us;
            let mut t = arrived;
            let mut stamps = Vec::with_capacity(self.stages.len());
            for (i, stage) in self.stages.iter().enumerate() {
                let enqueued_at = t;
                let dequeued_at = t.max(free_at[i]);
                let completed_at = dequeued_at + stage.service_us;
                free_at[i] = completed_at;
                stamps.push(Stamp {
                    stage: stage.name,
                    enqueued_at,
                    dequeued_at,
                    completed_at,
                });
                t = completed_at;
            }
            out.push(TracedMessage {
                arrived_at: arrived,
                stamps,
            });
        }
        out
    }

    /// Runs and summarizes: per-stage mean waits and the bottleneck queue.
    pub fn report(&self, messages: usize, interarrival_us: u64) -> PathReport {
        let traced = self.run(messages, interarrival_us);
        let n = traced.len() as f64;
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| StageStats {
                name: s.name,
                mean_wait_us: traced
                    .iter()
                    .map(|m| m.stamps[i].wait_us() as f64)
                    .sum::<f64>()
                    / n,
                service_us: s.service_us,
            })
            .collect::<Vec<_>>();
        let bottleneck = stages
            .iter()
            .max_by(|a, b| a.mean_wait_us.total_cmp(&b.mean_wait_us))
            .expect("non-empty route")
            .name;
        PathReport {
            mean_latency_us: traced.iter().map(|m| m.latency_us() as f64).sum::<f64>() / n,
            stages,
            bottleneck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(times: &[u64]) -> MessagePath {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        MessagePath::new(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| PathStage {
                    name: NAMES[i],
                    service_us: t,
                })
                .collect(),
        )
    }

    #[test]
    fn unloaded_message_never_waits() {
        let p = route(&[100, 200, 50]);
        let traced = p.run(1, 1_000_000);
        let m = &traced[0];
        assert_eq!(m.latency_us(), 350);
        for s in &m.stamps {
            assert_eq!(s.wait_us(), 0, "{}", s.stage);
        }
    }

    #[test]
    fn slowest_stage_is_the_bottleneck() {
        // Arrivals faster than the slowest stage's service rate: the queue
        // in front of it grows and dominates waiting time.
        let p = route(&[100, 500, 50]);
        let r = p.report(200, 200);
        assert_eq!(r.bottleneck, "b");
        let b = &r.stages[1];
        assert!(
            b.mean_wait_us > 10.0 * r.stages[2].mean_wait_us,
            "b waits {} vs c {}",
            b.mean_wait_us,
            r.stages[2].mean_wait_us
        );
    }

    #[test]
    fn stamps_are_causally_ordered() {
        let p = route(&[120, 80, 300]);
        for m in p.run(50, 100) {
            let mut prev_end = m.arrived_at;
            for s in &m.stamps {
                assert_eq!(s.enqueued_at, prev_end);
                assert!(s.dequeued_at >= s.enqueued_at);
                assert_eq!(s.completed_at, s.dequeued_at + p_stage_time(&p, s.stage));
                prev_end = s.completed_at;
            }
        }
    }

    fn p_stage_time(p: &MessagePath, name: &str) -> u64 {
        p.stages.iter().find(|s| s.name == name).unwrap().service_us
    }

    #[test]
    fn unix_transmit_path_matches_table_3_5_half_trip() {
        // The transmit chain (one direction) sums to half the 128-byte
        // non-local profile's kernel time plus the wire.
        let p = MessagePath::unix_transmit();
        let r = p.report(1, 1_000_000);
        assert!(
            (r.mean_latency_us - 2_872.0).abs() < 1.0,
            "{}",
            r.mean_latency_us
        );
        // Lightly loaded: no queueing anywhere.
        assert!(r.stages.iter().all(|s| s.mean_wait_us == 0.0));
        // Saturated: IP processing (the costliest kernel stage) becomes the
        // bottleneck queue, exactly the §3.3 diagnosis pattern.
        let r = p.report(300, 700);
        assert_eq!(r.bottleneck, "IP processing");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_route_rejected() {
        MessagePath::new(Vec::new());
    }
}
