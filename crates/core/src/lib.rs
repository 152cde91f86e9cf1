//! # hsipc — Hardware Support for Interprocess Communication
//!
//! A full reproduction of Umakishore Ramachandran's *Hardware Support for
//! Interprocess Communication* (UW–Madison TR #667, 1986; ISCA 1987): the
//! message-coprocessor software partition, the smart bus and smart shared
//! memory, the 925-style message kernel, the Chapter 3 profiling study, and
//! the Chapter 6 GTPN performance models of four node architectures —
//! plus a discrete-event simulator standing in for the paper's experimental
//! 925 implementation.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`gtpn`] | Generalized Timed Petri Net engine: nets, state-dependent frequencies, reachability, Markov solve, Monte-Carlo simulation, invariants |
//! | [`smartbus`] | The smart bus: Table 5.1 signals, Table 5.2 commands, Taub arbitration, edge-accurate protocol engine |
//! | [`smartmem`] | The smart shared memory controller: block table with preempt/restart, atomic queue primitives, Appendix A micro-routines |
//! | [`msgkernel`] | The 925-style message kernel: tasks, services, send/receive/reply rendezvous, memory moves, computation & communication lists |
//! | [`netsim`] | The 4 Mb/s token ring |
//! | [`archsim`] | Discrete-event simulation of Architectures I–IV under the paper's measured activity costs |
//! | [`models`] | The Chapter 6 GTPN models: local, non-local (iterative client/server), contention, offered loads, validation |
//! | [`profiler`] | The Chapter 3 profiling study: synthetic Charlotte/Jasmin/925/Unix kernels under the §3.3 harness |
//! | [`runtime`] | Live node runtime: real host/MP threads per node driving the kernel through shared atomic queues under load |
//! | [`sweep`] | Parallel experiment/sweep engine: order-preserving grid evaluation, deterministic per-point seeding |
//! | [`experiments`] | Regeneration of every table and figure in the evaluation |
//!
//! ## Quickstart
//!
//! ```
//! use hsipc::archsim::{Architecture, Locality, Simulation, WorkloadSpec};
//!
//! // How much does a message coprocessor help two local conversations with
//! // ~1.1 ms of server computation each?
//! let spec = WorkloadSpec {
//!     conversations: 2,
//!     server_compute_us: 1_140.0,
//!     locality: Locality::Local,
//!     horizon_us: 1_000_000.0,
//!     warmup_us: 100_000.0,
//!     seed: 1,
//! };
//! let uni = Simulation::new(Architecture::Uniprocessor, &spec).run();
//! let mp = Simulation::new(Architecture::MessageCoprocessor, &spec).run();
//! assert!(mp.throughput_per_ms > uni.throughput_per_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use archsim;
pub use gtpn;
pub use models;
pub use msgkernel;
pub use netsim;
pub use profiler;
pub use runtime;
pub use smartbus;
pub use smartmem;
pub use sweep;

pub mod experiments;
pub mod livesweep;
