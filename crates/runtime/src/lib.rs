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
//! queues implementing the §5.1 enqueue and first transactions:
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
use msgkernel::{Kernel, KernelStats, NodeId, Packet, ServiceId, Syscall, TaskId};
use node::{Fleet, HostCtx, MpCtx, NodeShared, Processor};
use shm::{NodeShm, TcbSlot};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The least time a real-clock drain may take before shutdown is declared
/// unclean, nanoseconds (ten seconds).
const DRAIN_GRACE_FLOOR_NS: u64 = 10_000_000_000;

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
    /// Server compute time per request (the workload's X), microseconds.
    /// §6.3's workload is 1140 µs.
    pub server_compute_us: f64,
    /// How long the load generator runs before draining.
    pub duration: Duration,
    /// Local (client and server on one node) or non-local (each node's
    /// clients invoke the next node's servers) conversations.
    pub locality: Locality,
    /// Kernel message buffers per node; fewer buffers than conversations
    /// exercises the §3.2.3 blocking-on-shortage path.
    pub buffers: u16,
    /// Time base: wall clock ([`ClockMode::Real`]) or conservative
    /// discrete-event virtual time ([`ClockMode::Virtual`], deterministic
    /// and orders of magnitude faster — see [`clock`]).
    pub clock: ClockMode,
}

impl Config {
    /// The default workload: 64 local conversations on one node at the
    /// §6.3 server compute time.
    pub fn new(architecture: Architecture) -> Config {
        Config {
            architecture,
            nodes: 1,
            conversations: 64,
            server_compute_us: 1_140.0,
            duration: Duration::from_millis(400),
            locality: Locality::Local,
            buffers: 32,
            clock: ClockMode::Real,
        }
    }

    /// Checks that [`run`] can execute this configuration: at least one
    /// node and one conversation, every task and kernel buffer addressable
    /// in the node's shared memory, a non-negative finite server compute
    /// time, at least one buffer, and two nodes for
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

    /// How long a real-clock drain may take, nanoseconds: twice the time a
    /// host shared by every outstanding conversation needs to finish them
    /// all, each a server compute plus a contention-free round trip, and
    /// at least [`DRAIN_GRACE_FLOOR_NS`]. A virtual-clock drain has no
    /// deadline.
    fn drain_grace_ns(&self) -> u64 {
        let round_trip_us =
            archsim::timings::round_trip_us(self.architecture, self.locality, false);
        let drain_us = f64::from(self.conversations) * (self.server_compute_us + round_trip_us);
        // `as` saturates: a huge X waits indefinitely rather than wrapping.
        ((2_000.0 * drain_us) as u64).max(DRAIN_GRACE_FLOOR_NS)
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
    /// Send packets a receiving kernel parked on kernel-buffer shortage
    /// until a buffer freed (§3.2.3).
    pub packets_parked: u64,
    /// Frames the ring carried (2 × remote round trips: one send packet,
    /// one reply packet, §4.6).
    pub ring_frames: u64,
    /// Whether every client finished its outstanding round trip and
    /// stopped. A virtual-clock drain waits as long as that takes and is
    /// unclean only on a deadlock; a real-clock drain is unclean past a
    /// grace derived from the configuration (at least ten seconds).
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

impl RunReport {
    /// What every run of a legitimate configuration ends with, checked on
    /// each leaf of a property test or a schedule search: a clean drain,
    /// at least one round trip, and a send frame plus a reply frame per
    /// round trip on non-local traffic (no frames on local traffic).
    ///
    /// # Errors
    ///
    /// The first of these the report breaks, with its numbers.
    pub fn check_leaf(&self, config: &Config) -> Result<(), String> {
        if !self.clean_shutdown {
            return Err(format!(
                "unclean drain after {} round trips",
                self.round_trips
            ));
        }
        if self.round_trips == 0 {
            return Err("no round trips".to_string());
        }
        let frames = match config.locality {
            Locality::Local => 0,
            Locality::NonLocal => 2 * self.round_trips,
        };
        if self.ring_frames != frames {
            return Err(format!(
                "{} ring frames for {} {:?} round trips, expected {frames}",
                self.ring_frames, self.round_trips, config.locality
            ));
        }
        Ok(())
    }
}

/// One processor's loop; resolves to its kernel's statistics.
type ProcessorLoop = Pin<Box<dyn Future<Output = KernelStats> + Send>>;

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
    let started = Instant::now();

    let clock_sys = ClockSystem::new(config.clock);
    // Actor 0: the load generator and drain driver. In virtual mode it
    // starts out holding the execution token, so the node actors registered
    // below all suspend in attach() until the load-phase sleep yields it.
    let main_clock = clock_sys.register();

    // Phase 1: every node's kernel and shared-memory image.
    let mut kernels = Vec::with_capacity(config.nodes as usize);
    let mut nodes = Vec::with_capacity(config.nodes as usize);
    for node in 0..config.nodes {
        let (shm, buffer_queue) = NodeShm::for_arch(config.architecture, tasks, config.buffers);
        let mut kernel = Kernel::with_queues(NodeId(node), Box::new(buffer_queue), 2 * n, n);

        // The host knows a task's role by its id (`HostCtx`): conversation
        // i is client task i, server task n + i and service i — on every
        // node, so a remote client addresses its service by index too.
        for i in 0..n {
            assert_eq!(kernel.create_service("svc"), ServiceId(i as u32));
        }
        // Neither clients nor servers move memory by reference, so their
        // address spaces are empty: a task holds no heap of its own.
        for i in 0..n {
            assert_eq!(kernel.create_task("client", 1, 0), TaskId(i as u32));
        }
        for i in 0..n {
            let server = kernel.create_task("server", 1, 0);
            assert_eq!(server, TaskId((n + i) as u32));
            // The offer rides the kernel's internal communication list; the
            // MP drains it on its first pass.
            kernel
                .submit(
                    server,
                    Syscall::Offer {
                        service: ServiceId(i as u32),
                    },
                )
                .expect("initial offer");
        }
        kernels.push(kernel);
        nodes.push(NodeShared {
            shm,
            slots: (0..2 * n).map(|_| TcbSlot::default()).collect(),
            host_bell: Bell::new(&clock_sys),
            mp_bell: Bell::new(&clock_sys),
            hist: Histogram::default(),
        });
    }

    // Bit rate 0: the ring's wire time is not modeled because §4.6 assumes
    // the network is not a bottleneck — interface costs (DmaIn/DmaOut) are
    // charged on the MP instead.
    let (ring, ports) = netsim::live::live_ring::<Packet>(config.nodes, 0);
    let fleet = Arc::new(Fleet {
        nodes,
        ring,
        cost: cost::CostModel::new(config.architecture, config.locality),
        architecture: config.architecture,
        locality: config.locality,
        conversations: n,
        compute_us: config.server_compute_us,
        round_trips: AtomicU64::new(0),
        active: AtomicUsize::new(config.nodes as usize * n),
        stopping: AtomicBool::new(false),
        halt: AtomicBool::new(false),
    });

    // Phase 2: one clock actor per processor — host, plus the MP on
    // II–IV — registered in node order: actor ids are the virtual
    // scheduler's determinism tie-break. One future per processor, in
    // registration order.
    let mut processors: Vec<(String, ProcessorLoop)> =
        Vec::with_capacity(2 * config.nodes as usize);
    for (node, (kernel, port)) in kernels.into_iter().zip(ports).enumerate() {
        let host_clock = clock_sys.register();
        // On I the one processor is one actor for both roles.
        let mp_clock = if config.architecture.has_mp() {
            clock_sys.register()
        } else {
            host_clock.clone()
        };
        let host = HostCtx::new(Arc::clone(&fleet), node, host_clock);
        let mp = MpCtx {
            fleet: Arc::clone(&fleet),
            node,
            clock: mp_clock,
            kernel,
            port,
        };
        if config.architecture.has_mp() {
            processors.push((
                format!("hsipc-host{node}"),
                Box::pin(Processor::Host(host).run()),
            ));
            processors.push((format!("hsipc-mp{node}"), Box::pin(Processor::Mp(mp).run())));
        } else {
            processors.push((
                format!("hsipc-node{node}"),
                Box::pin(Processor::Uniprocessor(host, mp).run()),
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
        fleet.stopping.store(true, Ordering::SeqCst);
        for shared in &fleet.nodes {
            shared.host_bell.ring();
        }
        // Virtual: no deadline — but a driver left as the one runnable
        // actor while conversations are active is watching a deadlock, as
        // every other actor waits on a bell only a running actor can ring.
        let deadline_ns = match config.clock {
            ClockMode::Real => main_clock.now_ns().saturating_add(config.drain_grace_ns()),
            ClockMode::Virtual => u64::MAX,
        };
        while fleet.active.load(Ordering::Acquire) > 0
            && !main_clock.alone()
            && main_clock.now_ns() < deadline_ns
        {
            main_clock.sleep(Duration::from_millis(1)).await;
        }
        let clean_shutdown = fleet.active.load(Ordering::Acquire) == 0;
        let elapsed = Duration::from_nanos(main_clock.now_ns());
        fleet.halt.store(true, Ordering::SeqCst);
        for shared in &fleet.nodes {
            shared.host_bell.ring();
            shared.mp_bell.ring();
        }
        main_clock.retire();
        (clean_shutdown, elapsed)
    };

    // Phase 3: run. Each processor's first statement is attach(), so no
    // node code runs before it holds the execution token.
    let run_started = Instant::now();
    let ((clean_shutdown, elapsed), kernels) = match config.clock {
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
            let kernels: Vec<KernelStats> = handles
                .into_iter()
                .map(|handle| handle.join().expect("processor thread exits cleanly"))
                .collect();
            (drained, kernels)
        }
        // No threads: the clock polls, on this one, whichever actor holds
        // the execution token.
        ClockMode::Virtual => {
            let mut drained = None;
            let mut actors: Vec<Actor<'_, KernelStats>> = vec![Box::pin(async {
                drained = Some(driver.await);
                KernelStats::default()
            })];
            actors.extend(processors.into_iter().map(|(_, p)| p as Actor<'_, _>));
            let kernels = clock_sys.run_actors(actors);
            (drained.expect("the driver retired"), kernels)
        }
    };
    let run_ended = Instant::now();

    let round_trips = fleet.round_trips.load(Ordering::Relaxed);
    let elapsed_ms = elapsed.as_secs_f64() * 1_000.0;
    let hist = Histogram::default();
    for shared in &fleet.nodes {
        hist.merge(&shared.hist);
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
        buffer_stalls: kernels.iter().map(|k| k.buffer_stalls).sum(),
        packets_parked: kernels.iter().map(|k| k.packets_parked).sum(),
        ring_frames: fleet.ring.stats().frames,
        clean_shutdown,
        handoffs: clock_sys.handoffs(),
        peak_ring_queue: fleet.ring.peak_queued(),
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

    /// What a live conversation holds (DESIGN §9): a TCB slot is one
    /// mailbox, a kernel task control block owns no heap beside its fixed
    /// fields, and the runtime's own per-conversation tables — the two TCB
    /// slots, a client and a server state machine — sum to 161 B. A field
    /// that regrows the fleet fails here.
    #[test]
    fn a_conversation_stays_within_its_byte_budget() {
        use std::mem::size_of;
        assert!(
            size_of::<TcbSlot>() <= 72,
            "{} B TCB slot",
            size_of::<TcbSlot>()
        );
        assert!(
            size_of::<msgkernel::Task>() <= 72,
            "{} B task control block",
            size_of::<msgkernel::Task>()
        );
        let runtime =
            2 * size_of::<TcbSlot>() + size_of::<node::ClientSm>() + size_of::<node::ServerPhase>();
        assert!(
            runtime <= 161,
            "{runtime} B of runtime tables per conversation"
        );
        // An arch III node of 400 conversations on 64 buffers: the two TCB
        // lists' rings grow with the conversations, the free list's with
        // the buffers.
        let (conversations, buffers) = (400, 64);
        let (shm, bq) = NodeShm::for_arch(Architecture::SmartBus, 2 * conversations, buffers);
        let links = shm.link_bytes(&bq);
        assert!(
            links <= 41 * usize::from(conversations) + 8 * usize::from(buffers),
            "{links} B of shared-memory links for {conversations} conversations on {buffers} buffers"
        );
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
