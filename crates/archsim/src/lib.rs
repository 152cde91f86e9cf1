//! # archsim — discrete-event simulation of the four node architectures
//!
//! The thesis evaluates its software partition and smart-bus proposals by
//! modeling four architectures (Chapter 6):
//!
//! | # | Architecture | Figure |
//! |---|--------------|--------|
//! | I   | Uniprocessor: the host runs everything          | 6.1 |
//! | II  | Host + message coprocessor, conventional memory | 6.2 |
//! | III | Host + MP + smart bus + smart shared memory     | 6.3 |
//! | IV  | Like III with the bus/memory partitioned (TCBs between host and MP, kernel buffers between MP and the network interfaces) | 6.4 |
//!
//! This crate is the repository's stand-in for the paper's *experimental
//! implementation* on the 925 multiprocessor: a discrete-event simulation
//! that runs the real [`msgkernel`] logic under the per-activity processing
//! times measured on the 925 (Tables 6.4–6.23, transcribed in [`timings`]),
//! over the [`netsim`] token ring for non-local conversations.
//!
//! The workload is the paper's §6.3 client–server conversation benchmark:
//! clients loop issuing blocking remote-invocation sends; servers loop
//! receive → compute (uniformly distributed busy-loop) → reply; FCFS
//! scheduling among equal priorities. Offered load is
//! `C / (C + S)` where `C` is the round-trip communication time and `S` the
//! server compute time.
//!
//! ```
//! use archsim::{Architecture, Locality, WorkloadSpec, Simulation};
//!
//! let spec = WorkloadSpec {
//!     conversations: 2,
//!     server_compute_us: 1_140.0,
//!     locality: Locality::Local,
//!     horizon_us: 2_000_000.0,
//!     warmup_us: 200_000.0,
//!     seed: 42,
//! };
//! let metrics = Simulation::new(Architecture::MessageCoprocessor, &spec).run();
//! assert!(metrics.throughput_per_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod sim;

pub mod timings;

pub use sim::{Metrics, Simulation, TraceSegment};
pub use timings::{Architecture, Locality};

use gtpn::sim::splitmix64;

/// Workload parameters (§6.3 / §4.8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of simultaneous conversations (client/server pairs).
    pub conversations: usize,
    /// Mean server computation per conversation, microseconds (the paper's
    /// workload parameter X). Sampled uniformly in `[0.5X, 1.5X]`.
    pub server_compute_us: f64,
    /// Local (same node) or non-local (clients and servers on different
    /// nodes) conversations.
    pub locality: Locality,
    /// Simulated time horizon, microseconds.
    pub horizon_us: f64,
    /// Statistics warm-up discard, microseconds.
    pub warmup_us: f64,
    /// RNG seed (compute-time sampling).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A maximum-communication-load workload (X = 0) for `n` conversations.
    pub fn max_load(n: usize, locality: Locality) -> WorkloadSpec {
        WorkloadSpec {
            conversations: n,
            server_compute_us: 0.0,
            locality,
            horizon_us: 3_000_000.0,
            warmup_us: 300_000.0,
            seed: 1,
        }
    }
}

/// A batch of independent replications: mean throughput with a 95%
/// confidence half-width, the same batch-means estimate the GTPN engine's
/// DES backend reports ([`gtpn::sim::batch_means_interval`]) — so model
/// estimates and "experimental" measurements carry comparable error bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replicated {
    /// Mean throughput across replications, conversations per millisecond.
    pub throughput_per_ms: f64,
    /// 95% confidence half-width on the mean, conversations per millisecond.
    pub half_width_per_ms: f64,
    /// Number of replications run.
    pub replications: usize,
}

impl Replicated {
    /// Whether `value` lies inside the confidence interval.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.throughput_per_ms).abs() <= self.half_width_per_ms
    }
}

/// Runs `replications` independent simulations of `spec` (seeds derived
/// from `spec.seed` by [`gtpn::sim::splitmix64`], so replication *r* is the
/// same run no matter the batch size) and aggregates their throughputs.
pub fn replicate(
    arch: Architecture,
    spec: &WorkloadSpec,
    hosts: usize,
    replications: usize,
) -> Replicated {
    let replications = replications.max(2);
    let samples: Vec<f64> = (0..replications)
        .map(|r| {
            let rep = WorkloadSpec {
                seed: splitmix64(spec.seed ^ splitmix64(r as u64 + 1)),
                ..*spec
            };
            Simulation::with_hosts(arch, &rep, hosts)
                .run()
                .throughput_per_ms
        })
        .collect();
    let ci = gtpn::sim::batch_means_interval(&samples);
    Replicated {
        throughput_per_ms: ci.estimate,
        half_width_per_ms: ci.half_width,
        replications,
    }
}
