//! # runtime — live execution of the four node architectures
//!
//! Everywhere else in this repository the paper's architectures are
//! *modeled*: the GTPN solver computes equilibria, `archsim` replays a
//! discrete-event schedule. This crate *runs* them. Each node gets one
//! loop per processor — a host, plus a dedicated message coprocessor on
//! Architectures II–IV — each a real OS thread under the real clock, each
//! a future polled on the caller's thread under the virtual clock
//! ([`clock`]). The loops drive the **same** `msgkernel`
//! task / service / rendezvous logic through a shared-memory image whose
//! task-control-block and kernel-buffer queues are genuine concurrent
//! queues implementing the §5.1 enqueue / first / dequeue transactions:
//!
//! * Architectures I–II — [`smartmem::shared::LockedModule`]: the real
//!   linked-list micro-routines under a module-wide lock (conventional
//!   memory, kernel-software critical sections);
//! * Architectures III–IV — [`smartmem::shared::LockFreeModule`]: each
//!   transaction one atomic operation (smart memory), with IV splitting
//!   TCB and kernel-buffer traffic across two modules.
//!
//! Cross-node traffic travels over real channels
//! ([`netsim::live::LiveRing`]) standing in for the 4 Mb/s token ring. A
//! load generator spawns fleets of client–server conversations — blocking
//! remote invocations with reply semantics, kernel-buffer backpressure
//! (§3.2.3), graceful shutdown — while every activity occupies its
//! processor for its measured Table 6.4–6.23 time (`cost`). Throughput
//! and latency come out of a lock-free histogram ([`Histogram`]); the `repro
//! live` subcommand prints them and `tests/live_runtime.rs` cross-validates
//! the measured architecture ordering against the GTPN model's predictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cost;
mod hist;
mod node;
mod shm;

pub mod clock;

pub use archsim::timings::{Architecture, Locality};
pub use clock::{ClockMode, OvershootRow};
pub use hist::Histogram;

use clock::{block_on, Actor, Bell, ClockSystem};
use msgkernel::{Kernel, NodeId, Packet, ServiceAddr, ServiceId, Syscall};
use netsim::RingNodeId;
use node::{HostCtx, MpCtx, NodeShared, Role};
use shm::{NodeShm, TcbSlot};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one live run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Node architecture to execute.
    pub architecture: Architecture,
    /// Number of nodes (each with its own kernel, shared memory and
    /// processors). Non-local traffic needs at least two.
    pub nodes: u32,
    /// Client–server conversations per node.
    pub conversations: u32,
    /// Server compute time per request (the workload's X), *unscaled*
    /// microseconds. §6.3's workload is 1140 µs.
    pub server_compute_us: f64,
    /// How long the load generator runs before draining.
    pub duration: Duration,
    /// Local (client and server on one node) or non-local (each node's
    /// clients invoke the next node's servers) conversations.
    pub locality: Locality,
    /// Factor applied to every paper-measured activity time before it is
    /// replayed as wall-clock occupancy. Ratios — and therefore the
    /// architecture ordering — are scale-invariant, but scales far below 1
    /// push activities under the OS sleep/wake granularity.
    pub scale: f64,
    /// Kernel message buffers per node; fewer buffers than conversations
    /// exercises the §3.2.3 blocking-on-shortage path.
    pub buffers: u16,
    /// How long the drain may take before shutdown is declared unclean.
    pub grace: Duration,
    /// Time base: wall clock ([`ClockMode::Real`]) or conservative
    /// discrete-event virtual time ([`ClockMode::Virtual`], deterministic
    /// and orders of magnitude faster — see [`clock`]).
    pub clock: ClockMode,
}

impl Config {
    /// The default workload: 64 local conversations on one node at the
    /// §6.3 server compute time, full-scale activity times.
    pub fn new(architecture: Architecture) -> Config {
        Config {
            architecture,
            nodes: 1,
            conversations: 64,
            server_compute_us: 1_140.0,
            duration: Duration::from_millis(400),
            locality: Locality::Local,
            scale: 1.0,
            buffers: 32,
            grace: Duration::from_secs(10),
            clock: ClockMode::Real,
        }
    }

    /// Checks that [`run`] can execute this configuration: at least one
    /// node and one conversation, every task and kernel buffer addressable
    /// in the node's shared memory, a positive finite scale, a non-negative
    /// finite server compute time, at least one buffer, and two nodes for
    /// non-local traffic.
    ///
    /// # Errors
    ///
    /// A message naming the offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 1 {
            return Err(format!("nodes must be at least 1, got {}", self.nodes));
        }
        if self.conversations < 1 {
            return Err(format!(
                "conversations must be at least 1, got {}",
                self.conversations
            ));
        }
        if self.buffers < 1 {
            return Err(format!("buffers must be at least 1, got {}", self.buffers));
        }
        let blocks = 2 * u64::from(self.conversations) + u64::from(self.buffers);
        let max = NodeShm::max_blocks(self.architecture);
        if blocks > u64::from(max) {
            return Err(format!(
                "conversations: 2 x {} tasks + {} buffers exceed the {max} control blocks of an arch {} node",
                self.conversations,
                self.buffers,
                self.architecture.label()
            ));
        }
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(format!(
                "scale must be a positive finite number, got {}",
                self.scale
            ));
        }
        if !(self.server_compute_us >= 0.0 && self.server_compute_us.is_finite()) {
            return Err(format!(
                "server-compute-us must be a non-negative finite number, got {}",
                self.server_compute_us
            ));
        }
        if self.locality == Locality::NonLocal && self.nodes < 2 {
            return Err(format!(
                "nodes: non-local traffic needs at least 2, got {}",
                self.nodes
            ));
        }
        Ok(())
    }
}

/// Latency quantiles of the completed round trips, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

/// Everything one live run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Architecture executed.
    pub architecture: Architecture,
    /// Nodes run.
    pub nodes: u32,
    /// Conversations per node.
    pub conversations: u32,
    /// Traffic locality.
    pub locality: Locality,
    /// Time base the run executed under.
    pub clock: ClockMode,
    /// Completed client round trips across all nodes.
    pub round_trips: u64,
    /// Run time from load start to drain completion, *in the run's time
    /// base*: wall clock under [`ClockMode::Real`], virtual time under
    /// [`ClockMode::Virtual`]. Throughput and latency are measured against
    /// this clock.
    pub elapsed: Duration,
    /// Wall clock the run actually took, whatever the time base — the
    /// virtual-time speedup is `elapsed / wall`. It is `setup + run +
    /// teardown`.
    pub wall: Duration,
    /// Wall clock spent building the fleet: kernels, services, tasks,
    /// initial offers, shared memory and clock actors.
    pub setup: Duration,
    /// Wall clock from the first processor step to the last retire (thread
    /// joins included under the real clock).
    pub run: Duration,
    /// Wall clock spent merging histograms and assembling this report.
    pub teardown: Duration,
    /// Round trips per millisecond (the paper's Λ), aggregated over nodes.
    pub throughput_per_ms: f64,
    /// Round-trip latency distribution.
    pub latency: LatencySummary,
    /// Sends that blocked on kernel-buffer shortage (§3.2.3).
    pub buffer_stalls: u64,
    /// Frames the ring carried (2 × remote round trips: one send packet,
    /// one reply packet, §4.6).
    pub ring_frames: u64,
    /// Whether every client drained within the grace period.
    pub clean_shutdown: bool,
    /// Execution-token handoffs: scheduling decisions of the virtual clock
    /// that moved the token to another actor (0 under [`ClockMode::Real`]).
    pub handoffs: u64,
    /// High-water mark of any single node's inbound ring queue — how far
    /// the slowest receiver fell behind at the worst moment (0 for local
    /// traffic, which never touches the ring).
    pub peak_ring_queue: u64,
    /// Requested-vs-actual occupancy per activity class — the error bars
    /// of a real-time run (empty under [`ClockMode::Virtual`], where
    /// occupancy is exact by construction).
    pub overshoot: Vec<OvershootRow>,
}

/// One processor's loop; resolves to the buffer-shortage stalls its kernel
/// counted.
type Processor = Pin<Box<dyn Future<Output = u64> + Send>>;

/// Runs one live workload to completion and reports what was measured.
///
/// # Panics
///
/// On a configuration [`Config::validate`] rejects, with its message, and
/// on internal runtime invariant violations.
pub fn run(config: &Config) -> RunReport {
    if let Err(e) = config.validate() {
        panic!("invalid live configuration: {e}");
    }
    let n = config.conversations as usize;
    let tasks = u16::try_from(2 * n).expect("validated: tasks fit the control-block space");

    // Bit rate 0: the ring's wire time is not modeled because §4.6 assumes
    // the network is not a bottleneck — interface costs (DmaIn/DmaOut) are
    // charged on the MP instead.
    let (ring, ports) = netsim::live::live_ring::<Packet>(config.nodes, 0);
    let mut ports = ports.into_iter();

    let clock_sys = ClockSystem::new(config.clock);
    // Actor 0: the load generator and drain driver. In virtual mode it
    // starts out holding the execution token, so the node actors registered
    // below all suspend in attach() until the load-phase sleep yields it.
    let main_clock = clock_sys.register();

    // One histogram per node, merged into fleet-wide quantiles at report
    // time: recording never contends across nodes, the bucket grids are
    // lazily allocated, and the merge is exactly equivalent to one shared
    // histogram (see [`Histogram::merge`]).
    let mut hists: Vec<Arc<Histogram>> = Vec::with_capacity(config.nodes as usize);
    let round_trips = Arc::new(AtomicU64::new(0));
    let active = Arc::new(AtomicUsize::new(config.nodes as usize * n));
    let stopping = Arc::new(AtomicBool::new(false));
    let halt = Arc::new(AtomicBool::new(false));
    let cost = Arc::new(cost::CostModel::new(
        config.architecture,
        config.locality,
        config.scale,
    ));

    let mut shareds: Vec<Arc<NodeShared>> = Vec::with_capacity(config.nodes as usize);
    // Phase 1: build every node's contexts and register its clock actors
    // in node order — actor ids are the virtual scheduler's determinism
    // tie-break. One future per processor, in registration order; each
    // resolves to the buffer-shortage stalls its kernel counted (0 for a
    // host, which has none).
    let mut processors: Vec<(String, Processor)> = Vec::with_capacity(2 * config.nodes as usize);

    let started = Instant::now();
    for node in 0..config.nodes {
        let (shm, buffer_queue) = NodeShm::for_arch(config.architecture, tasks, config.buffers);
        let mut kernel = Kernel::with_queues(NodeId(node), Box::new(buffer_queue), 2 * n, n);

        let services: Vec<ServiceId> = (0..n).map(|_| kernel.create_service("svc")).collect();
        let mut clients = Vec::with_capacity(n);
        let mut servers = Vec::with_capacity(n);
        let mut roles = vec![Role::Client(0); 2 * n];
        // Neither clients nor servers move memory by reference, so their
        // address spaces are empty: a task holds no heap of its own.
        for i in 0..n {
            let client = kernel.create_task("client", 1, 0);
            roles[client.0 as usize] = Role::Client(i);
            clients.push(client);
        }
        for (i, &service) in services.iter().enumerate() {
            let server = kernel.create_task("server", 1, 0);
            roles[server.0 as usize] = Role::Server(i);
            // The offer rides the kernel's internal communication list; the
            // MP drains it on its first pass.
            kernel
                .submit(server, Syscall::Offer { service })
                .expect("initial offer");
            servers.push(server);
        }

        // `create_task` queues newborn tasks on the kernel's internal
        // computation list; if the MP's first flush published them, every
        // client would get a spurious wake (and double-send while its real
        // send is parked on a buffer shortage). The live host drives clients
        // from kickoff() and servers from the Offer-completion wake, so the
        // creation-time entries are discarded here.
        while kernel.next_computation().is_some() {}

        let target_node = match config.locality {
            Locality::Local => node,
            Locality::NonLocal => (node + 1) % config.nodes,
        };
        // Nodes are built identically, so conversation i's service has the
        // same id everywhere — a remote client can address it by index.
        let targets: Vec<ServiceAddr> = services
            .iter()
            .map(|&service| ServiceAddr {
                node: NodeId(target_node),
                service,
            })
            .collect();

        let shared = Arc::new(NodeShared {
            shm,
            slots: (0..2 * n).map(|_| TcbSlot::default()).collect(),
            host_bell: Bell::new(&clock_sys),
            mp_bell: Bell::new(&clock_sys),
        });
        shareds.push(Arc::clone(&shared));

        // Remote arrivals ring the bell the receiving loop waits on: the
        // MP's on II–IV, the combined loop's host bell on I. In virtual
        // mode this is what wakes a blocked node at the sender's virtual
        // timestamp; in real mode it saves the IDLE_PARK timeout.
        {
            let shared = Arc::clone(&shared);
            let has_mp = config.architecture.has_mp();
            ring.set_arrival_notifier(RingNodeId(node), move || {
                if has_mp {
                    shared.mp_bell.ring();
                } else {
                    shared.host_bell.ring();
                }
            });
        }

        // One actor per processor: host, plus the MP on II–IV. On I the
        // combined loop is one processor, hence one actor for both contexts.
        let host_clock = clock_sys.register();
        let mp_clock = if config.architecture.has_mp() {
            clock_sys.register()
        } else {
            host_clock.clone()
        };

        let node_hist = Arc::new(Histogram::default());
        hists.push(Arc::clone(&node_hist));

        let host = HostCtx::new(
            Arc::clone(&shared),
            Arc::clone(&cost),
            host_clock,
            roles,
            clients,
            targets,
            servers,
            config.server_compute_us * config.scale,
            node_hist,
            Arc::clone(&round_trips),
            Arc::clone(&active),
            Arc::clone(&stopping),
            Arc::clone(&halt),
        );
        let mp = MpCtx {
            shared,
            cost: Arc::clone(&cost),
            clock: mp_clock,
            kernel,
            port: ports.next().expect("one port per node"),
            ring: ring.clone(),
            halt: Arc::clone(&halt),
        };
        if config.architecture.has_mp() {
            processors.push((
                format!("hsipc-host{node}"),
                Box::pin(async move {
                    host.run().await;
                    0
                }),
            ));
            processors.push((
                format!("hsipc-mp{node}"),
                Box::pin(async move { mp.run().await.buffer_stalls }),
            ));
        } else {
            processors.push((
                format!("hsipc-node{node}"),
                Box::pin(async move { node::combined_run(host, mp).await.buffer_stalls }),
            ));
        }
    }

    // The driver. Load phase — real: wall sleep; virtual: the driver's
    // clock jumps to `duration` and yields the token, and the conservative
    // frontier hands it back only once every node actor's clock has passed
    // `duration`. Drain: clients finish their outstanding round trip and
    // stop. Halt: the whole sequence runs while the driver holds the
    // virtual execution token, so every processor observes halt + rung
    // bells atomically; the driver then retires — it must release the
    // token or the processors could never run their exit path.
    let driver = async {
        main_clock.sleep(config.duration).await;
        stopping.store(true, Ordering::SeqCst);
        for shared in &shareds {
            shared.host_bell.ring();
        }
        let deadline_ns = main_clock.now_ns() + config.grace.as_nanos() as u64;
        while active.load(Ordering::Acquire) > 0 && main_clock.now_ns() < deadline_ns {
            main_clock.sleep(Duration::from_millis(1)).await;
        }
        let clean_shutdown = active.load(Ordering::Acquire) == 0;
        let elapsed = Duration::from_nanos(main_clock.now_ns());
        halt.store(true, Ordering::SeqCst);
        for shared in &shareds {
            shared.host_bell.ring();
            shared.mp_bell.ring();
        }
        main_clock.retire();
        (clean_shutdown, elapsed)
    };

    // Phase 2: run. Each processor's first statement is attach(), so no
    // node code runs before it holds the execution token.
    let run_started = Instant::now();
    let ((clean_shutdown, elapsed), buffer_stalls) = match config.clock {
        // One OS thread per processor, the driver on this one; real clock
        // operations complete inside the call, so each future is one poll.
        ClockMode::Real => {
            let handles: Vec<_> = processors
                .into_iter()
                .map(|(name, processor)| {
                    std::thread::Builder::new()
                        .name(name)
                        .spawn(move || block_on(processor))
                        .expect("spawn processor thread")
                })
                .collect();
            let drained = block_on(driver);
            let stalls = handles
                .into_iter()
                .map(|handle| handle.join().expect("processor thread exits cleanly"))
                .sum();
            (drained, stalls)
        }
        // No threads: the clock polls, on this one, whichever actor holds
        // the execution token.
        ClockMode::Virtual => {
            let mut drained = None;
            let mut actors: Vec<Actor<'_, u64>> = vec![Box::pin(async {
                drained = Some(driver.await);
                0
            })];
            actors.extend(processors.into_iter().map(|(_, p)| p as Actor<'_, u64>));
            let stalls = clock_sys.run_actors(actors).into_iter().sum();
            (drained.expect("the driver retired"), stalls)
        }
    };
    let run_ended = Instant::now();

    let round_trips = round_trips.load(Ordering::Relaxed);
    let elapsed_ms = elapsed.as_secs_f64() * 1_000.0;
    let hist = Histogram::default();
    for node_hist in &hists {
        hist.merge(node_hist);
    }
    let latency = LatencySummary {
        mean_us: hist.mean_us(),
        p50_us: hist.quantile_us(0.50),
        p95_us: hist.quantile_us(0.95),
        p99_us: hist.quantile_us(0.99),
        max_us: hist.max_us(),
    };
    let ended = Instant::now();
    RunReport {
        architecture: config.architecture,
        nodes: config.nodes,
        conversations: config.conversations,
        locality: config.locality,
        clock: config.clock,
        round_trips,
        elapsed,
        wall: ended - started,
        setup: run_started - started,
        run: run_ended - run_started,
        teardown: ended - run_ended,
        throughput_per_ms: if elapsed_ms > 0.0 {
            round_trips as f64 / elapsed_ms
        } else {
            0.0
        },
        latency,
        buffer_stalls,
        ring_frames: ring.stats().frames,
        clean_shutdown,
        handoffs: clock_sys.handoffs(),
        peak_ring_queue: ring.peak_queued(),
        overshoot: clock_sys.overshoot_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end run per architecture: a handful of conversations,
    /// short duration. Heavyweight load and ordering assertions live in
    /// `tests/live_runtime.rs`; this is the crate's own smoke check.
    #[test]
    fn all_architectures_complete_round_trips_and_drain() {
        for arch in Architecture::ALL {
            let mut config = Config::new(arch);
            config.conversations = 8;
            config.buffers = 4; // force §3.2.3 backpressure
            config.duration = Duration::from_millis(60);
            let report = run(&config);
            assert!(report.round_trips > 0, "{arch}: no round trips completed");
            assert!(report.clean_shutdown, "{arch}: drain did not complete");
            assert!(report.throughput_per_ms > 0.0, "{arch}: zero throughput");
            assert!(
                report.latency.p50_us > 0.0 && report.latency.max_us >= report.latency.p50_us,
                "{arch}: latency distribution is empty or inconsistent"
            );
        }
    }

    /// A conventional module's 64 KiB image holds 32,764 control blocks; a
    /// smart module numbers up to 65,535. (The other checks are driven
    /// through `repro` by `crates/bench/tests/cli.rs`.)
    #[test]
    fn validate_bounds_control_blocks_by_architecture() {
        let mut config = Config::new(Architecture::Uniprocessor);
        config.conversations = 16_366; // 2 × 16,366 tasks + 32 buffers = 32,764
        assert_eq!(config.validate(), Ok(()));
        config.conversations = 16_367;
        let e = config.validate().unwrap_err();
        assert!(e.contains("exceed the 32764 control blocks"), "{e}");
        config.architecture = Architecture::SmartBus;
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn remote_conversations_exchange_two_packets_per_round_trip() {
        let mut config = Config::new(Architecture::MessageCoprocessor);
        config.nodes = 2;
        config.conversations = 4;
        config.locality = Locality::NonLocal;
        config.duration = Duration::from_millis(60);
        let report = run(&config);
        assert!(report.round_trips > 0, "no remote round trips");
        assert!(report.clean_shutdown, "remote drain did not complete");
        // One send packet + one reply packet per round trip (§4.6); frames
        // may exceed 2×round-trips only by conversations still in flight
        // when the clock stopped.
        assert!(
            report.ring_frames >= 2 * report.round_trips,
            "frames {} < 2 × round trips {}",
            report.ring_frames,
            report.round_trips
        );
    }
}
