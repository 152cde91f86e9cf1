//! The per-node execution loops: the host multiplexing task state
//! machines (Figure 4.4) and the message coprocessor running the kernel's
//! communication side (Figure 4.5). Each loop is an `async fn` whose only
//! suspension points are clock operations: under the real clock it runs on
//! its own OS thread and never suspends, under the virtual clock the
//! clock's executor polls it ([`crate::clock`]).
//!
//! The division of labor follows §4.4 exactly:
//!
//! * the **host** pops runnable tasks off the shared *computation list*,
//!   runs them (client bookkeeping, server compute), and when a task issues
//!   a kernel call it writes the arguments into the task's control-block
//!   slot and enqueues the TCB on the shared *communication list*;
//! * the **MP** pops the communication list, injects the request into the
//!   kernel ([`Kernel::place_request`] + [`Kernel::process`]), services the
//!   network interface, and makes tasks runnable again by enqueueing them
//!   on the computation list — strictly *after* depositing any delivered
//!   message in the TCB inbox, so the host can never pop a runnable server
//!   whose message has not arrived.
//!
//! Architecture I has no MP: one loop alternates both sides, which is
//! precisely why its host saturates first under load.

use crate::clock::{Bell, ClockHandle, CLASS_COMPUTE};
use crate::cost::CostModel;
use crate::hist::Histogram;
use crate::shm::{NodeShm, TcbSlot};
use archsim::timings::ActivityKind;
use msgkernel::{
    Kernel, KernelEvent, KernelStats, Message, Packet, SendMode, ServiceAddr, Syscall, TaskId,
};
use netsim::live::{LiveRing, Port};
use netsim::RingNodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long an idle loop parks on its doorbell before re-polling. A missed
/// ring costs at most this much extra latency.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Empty polls a worker absorbs by spinning before it parks on its
/// doorbell: enough to catch a peer that is about to publish work without
/// paying a condvar wake, short enough not to steal the core from threads
/// sleeping out an activity's occupancy on a small machine.
const SPIN_POLLS: u32 = 256;

/// What a popped computation-list element means to the host.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Role {
    /// Client state machine `i`.
    Client(usize),
    /// Server state machine `i`.
    Server(usize),
}

/// One node's shared-memory image as both processors see it.
#[derive(Debug)]
pub(crate) struct NodeShared {
    pub shm: NodeShm,
    pub slots: Vec<TcbSlot>,
    pub host_bell: Bell,
    pub mp_bell: Bell,
}

#[derive(Debug, Default)]
struct ClientSm {
    /// Send timestamp of the outstanding round trip, clock nanoseconds.
    sent_at: Option<u64>,
    done: bool,
}

/// The server task's position in its offer → receive → reply cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerPhase {
    /// Woken once the `Offer` completed; must post the first `Receive`.
    Offered,
    /// `Receive` posted; the next wake carries a delivered message.
    AwaitDelivery,
    /// Woken after the `Reply` completed; must post the next `Receive`.
    Replied,
}

/// The host side of one node: client/server state machines multiplexed on
/// one processor.
pub(crate) struct HostCtx {
    pub shared: Arc<NodeShared>,
    pub cost: Arc<CostModel>,
    /// This processor's time base (host).
    pub clock: ClockHandle,
    /// Role of each task id.
    pub roles: Vec<Role>,
    pub clients: Vec<TaskId>,
    /// Destination service per client index.
    pub targets: Vec<ServiceAddr>,
    pub servers: Vec<TaskId>,
    /// Scaled server compute time (the workload's X), microseconds.
    pub compute_us: f64,
    pub hist: Arc<Histogram>,
    pub round_trips: Arc<AtomicU64>,
    /// Clients still running, across all nodes.
    pub active: Arc<AtomicUsize>,
    pub stopping: Arc<AtomicBool>,
    pub halt: Arc<AtomicBool>,
    client_sm: Vec<ClientSm>,
    server_phase: Vec<ServerPhase>,
}

impl HostCtx {
    #[allow(clippy::too_many_arguments)] // plain assembly of the run() wiring
    pub(crate) fn new(
        shared: Arc<NodeShared>,
        cost: Arc<CostModel>,
        clock: ClockHandle,
        roles: Vec<Role>,
        clients: Vec<TaskId>,
        targets: Vec<ServiceAddr>,
        servers: Vec<TaskId>,
        compute_us: f64,
        hist: Arc<Histogram>,
        round_trips: Arc<AtomicU64>,
        active: Arc<AtomicUsize>,
        stopping: Arc<AtomicBool>,
        halt: Arc<AtomicBool>,
    ) -> HostCtx {
        let n_clients = clients.len();
        let n_servers = servers.len();
        HostCtx {
            shared,
            cost,
            clock,
            roles,
            clients,
            targets,
            servers,
            compute_us,
            hist,
            round_trips,
            active,
            stopping,
            halt,
            client_sm: (0..n_clients).map(|_| ClientSm::default()).collect(),
            server_phase: vec![ServerPhase::Offered; n_servers],
        }
    }

    /// Issues a kernel call: burn the syscall-entry cost, write the request
    /// into the TCB, enqueue the TCB on the communication list, ring the MP.
    async fn issue(&self, task: TaskId, kind: ActivityKind, request: Syscall) {
        self.cost.charge(kind, &self.clock).await;
        *self.shared.slots[task.0 as usize]
            .request
            .lock()
            .expect("request slot") = Some(request);
        self.shared.shm.push_communication(task);
        self.shared.mp_bell.ring();
    }

    async fn issue_send(&mut self, client: usize) {
        let task = self.clients[client];
        self.client_sm[client].sent_at = Some(self.clock.now_ns());
        self.issue(
            task,
            ActivityKind::SyscallSend,
            Syscall::Send {
                to: self.targets[client],
                message: Message::from_bytes(b"request"),
                mode: SendMode::invocation(),
            },
        )
        .await;
    }

    /// Starts every client's first round trip.
    pub(crate) async fn kickoff(&mut self) {
        for client in 0..self.clients.len() {
            self.issue_send(client).await;
        }
    }

    /// Pops and dispatches one computation-list entry; false when idle.
    pub(crate) async fn step(&mut self) -> bool {
        let Some(task) = self.shared.shm.pop_computation() else {
            return false;
        };
        match self.roles[task.0 as usize] {
            Role::Client(i) => self.wake_client(i).await,
            Role::Server(i) => self.wake_server(i).await,
        }
        true
    }

    /// A client wake means its reply arrived: close the round trip and
    /// (unless draining) immediately start the next one.
    async fn wake_client(&mut self, client: usize) {
        if self.client_sm[client].done {
            return;
        }
        let Some(sent_at) = self.client_sm[client].sent_at.take() else {
            return;
        };
        self.hist
            .record_ns(self.clock.now_ns().saturating_sub(sent_at));
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if self.stopping.load(Ordering::Relaxed) {
            self.client_sm[client].done = true;
            self.active.fetch_sub(1, Ordering::AcqRel);
        } else {
            self.issue_send(client).await;
        }
    }

    async fn wake_server(&mut self, server: usize) {
        let task = self.servers[server];
        match self.server_phase[server] {
            ServerPhase::Offered | ServerPhase::Replied => {
                self.server_phase[server] = ServerPhase::AwaitDelivery;
                self.issue(task, ActivityKind::SyscallReceive, Syscall::Receive)
                    .await;
            }
            ServerPhase::AwaitDelivery => {
                let message = self.shared.slots[task.0 as usize]
                    .inbox
                    .lock()
                    .expect("inbox slot")
                    .take();
                debug_assert!(
                    message.is_some(),
                    "server woken for delivery with an empty inbox"
                );
                // The conversation's server compute (the workload's X).
                self.clock.occupy_us(self.compute_us, CLASS_COMPUTE).await;
                self.server_phase[server] = ServerPhase::Replied;
                self.issue(
                    task,
                    ActivityKind::SyscallReply,
                    Syscall::Reply {
                        message: Message::from_bytes(b"reply"),
                    },
                )
                .await;
            }
        }
    }

    /// The host loop (Architectures II–IV).
    pub(crate) async fn run(mut self) {
        self.clock.attach().await;
        self.kickoff().await;
        let mut empty_polls: u32 = 0;
        while !self.halt.load(Ordering::Relaxed) {
            if self.step().await {
                empty_polls = 0;
                continue;
            }
            empty_polls += 1;
            if self.clock.spins() && empty_polls < SPIN_POLLS {
                std::hint::spin_loop();
                continue;
            }
            let epoch = self.shared.host_bell.epoch();
            if !self.step().await {
                self.clock
                    .wait_past(&self.shared.host_bell, epoch, IDLE_PARK)
                    .await;
            }
        }
        self.clock.retire();
    }
}

/// The message-coprocessor side of one node: the kernel plus the network
/// interface.
pub(crate) struct MpCtx {
    pub shared: Arc<NodeShared>,
    pub cost: Arc<CostModel>,
    /// This processor's time base (MP; on Architecture I a clone of the
    /// host's handle, since one loop plays both roles).
    pub clock: ClockHandle,
    pub kernel: Kernel,
    pub port: Port<Packet>,
    pub ring: LiveRing<Packet>,
    pub halt: Arc<AtomicBool>,
}

impl MpCtx {
    /// Occupies the MP for one activity. (`&mut`: the MP's future moves to
    /// its real-clock thread, and `&MpCtx` is not `Send`.)
    async fn charge(&mut self, kind: ActivityKind) {
        self.cost.charge(kind, &self.clock).await;
    }

    /// MP-side processing cost of an injected request.
    async fn charge_for(&mut self, request: &Syscall) {
        match request {
            Syscall::Send { .. } => self.charge(ActivityKind::ProcessSend).await,
            Syscall::Receive => self.charge(ActivityKind::ProcessReceive).await,
            Syscall::Reply { .. } => {
                self.charge(ActivityKind::ProcessReply).await;
                self.charge(ActivityKind::RestartServerAfterReply).await;
            }
            _ => {}
        }
    }

    async fn handle(&mut self, events: Vec<KernelEvent>) {
        for event in events {
            match event {
                KernelEvent::PacketOut(packet) => {
                    self.charge(ActivityKind::DmaOut).await;
                    let (from, to) = (RingNodeId(packet.from.0), RingNodeId(packet.to.0));
                    self.ring
                        .transmit(from, to, msgkernel::MESSAGE_SIZE as u32, packet)
                        .expect("destination node attached to the ring");
                }
                KernelEvent::Delivered { server } => {
                    self.charge(ActivityKind::Match).await;
                    self.charge(ActivityKind::RestartServer).await;
                    let message = self
                        .kernel
                        .task(server)
                        .expect("delivered server exists")
                        .delivered;
                    *self.shared.slots[server.0 as usize]
                        .inbox
                        .lock()
                        .expect("inbox slot") = message;
                }
                KernelEvent::ReplyDelivered { client } => {
                    self.charge(ActivityKind::CleanupClient).await;
                    self.charge(ActivityKind::RestartClient).await;
                    if let Ok(task) = self.kernel.task(client) {
                        let message = task.delivered;
                        *self.shared.slots[client.0 as usize]
                            .inbox
                            .lock()
                            .expect("inbox slot") = message;
                    }
                }
                _ => {}
            }
        }
    }

    /// Services the kernel's *internal* communication list: initial offers
    /// queued at construction and buffer-shortage retries, which the kernel
    /// re-queues itself (§3.2.3).
    async fn drain_internal(&mut self) -> bool {
        let mut did = false;
        while let Some(task) = self.kernel.next_communication() {
            did = true;
            let events = self.kernel.process(task).expect("internal request");
            self.handle(events).await;
        }
        did
    }

    /// Flushes newly runnable TCBs to the shared computation list. Runs
    /// after event handling, so inboxes are populated before the host can
    /// observe the task as runnable.
    fn flush(&mut self) -> bool {
        let mut any = false;
        while let Some(task) = self.kernel.next_computation() {
            self.shared.shm.push_computation(task);
            any = true;
        }
        if any {
            self.shared.host_bell.ring();
        }
        any
    }

    /// One scheduling pass: internal work, host requests, network arrivals,
    /// then the runnable flush. Returns whether anything happened.
    pub(crate) async fn pump(&mut self) -> bool {
        let mut did = self.drain_internal().await;
        while let Some(task) = self.shared.shm.pop_communication() {
            did = true;
            let request = self.shared.slots[task.0 as usize]
                .request
                .lock()
                .expect("request slot")
                .take()
                .expect("host writes the request before enqueueing the TCB");
            self.charge_for(&request).await;
            self.kernel
                .place_request(task, request)
                .expect("live request is valid");
            let events = self.kernel.process(task).expect("live syscall succeeds");
            self.handle(events).await;
            self.drain_internal().await;
            // Publish eagerly: the host resumes restarted tasks while this
            // loop keeps processing, instead of waiting for the backlog to
            // drain (which would serialize the two processors in batches).
            self.flush();
        }
        while let Some(frame) = self.port.try_recv() {
            did = true;
            self.charge(ActivityKind::DmaIn).await;
            let events = self
                .kernel
                .handle_packet(frame.payload)
                .expect("live packet is well-formed");
            self.handle(events).await;
            self.drain_internal().await;
            self.flush();
        }
        if self.flush() {
            did = true;
        }
        did
    }

    /// The MP loop (Architectures II–IV). Returns the kernel's cumulative
    /// statistics.
    pub(crate) async fn run(mut self) -> KernelStats {
        self.clock.attach().await;
        let mut empty_polls: u32 = 0;
        while !self.halt.load(Ordering::Relaxed) {
            if self.pump().await {
                empty_polls = 0;
                continue;
            }
            empty_polls += 1;
            if self.clock.spins() && empty_polls < SPIN_POLLS {
                std::hint::spin_loop();
                continue;
            }
            let epoch = self.shared.mp_bell.epoch();
            if !self.pump().await {
                self.clock
                    .wait_past(&self.shared.mp_bell, epoch, IDLE_PARK)
                    .await;
            }
        }
        self.clock.retire();
        self.kernel.stats()
    }
}

/// Architecture I: one loop alternates host and kernel duties — the
/// uniprocessor cannot overlap server compute with communication
/// processing, which is exactly the bottleneck the MP removes. The two
/// contexts share one clock handle (one processor, one actor).
pub(crate) async fn combined_run(mut host: HostCtx, mut mp: MpCtx) -> KernelStats {
    host.clock.attach().await;
    host.kickoff().await;
    loop {
        let did_mp = mp.pump().await;
        let did_host = host.step().await;
        if mp.halt.load(Ordering::Relaxed) {
            break;
        }
        if !did_mp && !did_host {
            let epoch = host.shared.host_bell.epoch();
            host.clock
                .wait_past(&host.shared.host_bell, epoch, IDLE_PARK)
                .await;
        }
    }
    host.clock.retire();
    mp.kernel.stats()
}
