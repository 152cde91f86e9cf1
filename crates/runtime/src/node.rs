//! The per-node processors: the host multiplexing task state machines
//! (Figure 4.4) and the message coprocessor running the kernel's
//! communication side (Figure 4.5), each driven by one processor loop
//! ([`Processor::run`]) whose only suspension points are clock
//! operations: under the real clock it runs on its own OS thread and never
//! suspends, under the virtual clock the clock's executor polls it
//! ([`crate::clock`]). Every processor of a run holds the one [`Fleet`]:
//! each node's shared-memory image, the ring and the run-wide flags.
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
//!   on the computation list — strictly *after* depositing a delivered
//!   request in the server's TCB mailbox, so the host can never pop a
//!   runnable server whose message has not arrived. A packet it sends
//!   rings the destination node's arrival bell (§4.6).
//!
//! Architecture I has no MP: its one processor steps both sides, which is
//! precisely why its host saturates first under load.

use crate::clock::{Bell, ClockHandle, CLASS_COMPUTE};
use crate::cost::CostModel;
use crate::hist::Histogram;
use crate::shm::{Mail, NodeShm, TcbSlot};
use archsim::timings::{ActivityKind, Architecture, Locality};
use msgkernel::{
    Kernel, KernelEvent, KernelStats, Message, NodeId, Packet, SendMode, ServiceAddr, ServiceId,
    Syscall, TaskId,
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

/// The payload of every client request.
const REQUEST: &[u8] = b"request";

/// One node's shared-memory image as both processors see it, and the
/// latencies its clients measured.
#[derive(Debug)]
pub(crate) struct NodeShared {
    pub shm: NodeShm,
    pub slots: Vec<TcbSlot>,
    pub host_bell: Bell,
    pub mp_bell: Bell,
    /// Merged fleet-wide at report time: recording never contends across
    /// nodes, and the merge equals one shared histogram
    /// ([`Histogram::merge`]).
    pub hist: Histogram,
}

/// What every processor of a run shares: each node's image, the ring
/// between them, the cost model, the configuration facts a node needs,
/// and the run-wide counters and flags.
#[derive(Debug)]
pub(crate) struct Fleet {
    /// Indexed by node id.
    pub nodes: Vec<NodeShared>,
    pub ring: LiveRing<Packet>,
    pub cost: CostModel,
    pub architecture: Architecture,
    pub locality: Locality,
    /// Conversations per node: `n` in [`HostCtx`].
    pub conversations: usize,
    /// Server compute time per request (the workload's X), microseconds.
    pub compute_us: f64,
    pub round_trips: AtomicU64,
    /// Clients still running, across all nodes.
    pub active: AtomicUsize,
    /// Set by the driver when the load phase ends: each client closes its
    /// outstanding round trip and stops.
    pub stopping: AtomicBool,
    /// Set by the driver once drained: every processor loop exits.
    pub halt: AtomicBool,
}

impl Fleet {
    /// The node whose services `node`'s clients invoke.
    fn target(&self, node: usize) -> NodeId {
        let target = match self.locality {
            Locality::Local => node,
            Locality::NonLocal => (node + 1) % self.nodes.len(),
        };
        NodeId(target as u32)
    }

    /// The bell a packet arriving at `node` rings: the MP's on II–IV, the
    /// host's on I, whose one loop also receives.
    fn arrival_bell(&self, node: usize) -> &Bell {
        let shared = &self.nodes[node];
        if self.architecture.has_mp() {
            &shared.mp_bell
        } else {
            &shared.host_bell
        }
    }
}

/// A client's position in its round-trip cycle.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum ClientSm {
    /// No round trip outstanding.
    #[default]
    Idle,
    /// A round trip is outstanding, sent at this clock time (nanoseconds).
    Sent(u64),
    /// Drained: the run is stopping and the last round trip closed.
    Done,
}

/// The host side of one node: client/server state machines multiplexed on
/// one processor. A task's role follows from its id: the node creates its
/// `conversations` clients first, as tasks `0..n`, then their servers as
/// tasks `n..2n`, and conversation `i`'s service as service `i` on every
/// node ([`crate::run`] asserts all three).
pub(crate) struct HostCtx {
    fleet: Arc<Fleet>,
    node: usize,
    clock: ClockHandle,
    client_sm: Vec<ClientSm>,
}

impl HostCtx {
    pub(crate) fn new(fleet: Arc<Fleet>, node: usize, clock: ClockHandle) -> HostCtx {
        let n = fleet.conversations;
        HostCtx {
            fleet,
            node,
            clock,
            client_sm: vec![ClientSm::Idle; n],
        }
    }

    fn shared(&self) -> &NodeShared {
        &self.fleet.nodes[self.node]
    }

    /// Issues a kernel call: burn the syscall-entry cost, write the request
    /// into the TCB, enqueue the TCB on the communication list, ring the MP.
    async fn issue(&self, task: TaskId, kind: ActivityKind, request: Syscall) {
        self.fleet.cost.charge(kind, &self.clock).await;
        let shared = self.shared();
        {
            let mut slot = shared.slots[task.0 as usize].lock().expect("TCB slot");
            debug_assert!(
                matches!(*slot, Mail::Empty),
                "{task:?} issues over unread mail: {:?}",
                *slot
            );
            *slot = Mail::Request(request);
        }
        shared.shm.push_communication(task);
        shared.mp_bell.ring();
    }

    async fn issue_send(&mut self, client: usize) {
        self.client_sm[client] = ClientSm::Sent(self.clock.now_ns());
        self.issue(
            TaskId(client as u32),
            ActivityKind::SyscallSend,
            Syscall::Send {
                to: ServiceAddr {
                    node: self.fleet.target(self.node),
                    service: ServiceId(client as u32),
                },
                message: Message::from_bytes(REQUEST),
                mode: SendMode::invocation(),
            },
        )
        .await;
    }

    /// Starts every client's first round trip.
    async fn kickoff(&mut self) {
        for client in 0..self.fleet.conversations {
            self.issue_send(client).await;
        }
    }

    /// Pops and dispatches one computation-list entry — task `i` is client
    /// `i` below `n`, server `i - n` from there — false when idle.
    async fn step(&mut self) -> bool {
        let Some(task) = self.shared().shm.pop_computation() else {
            return false;
        };
        let i = task.0 as usize;
        let n = self.fleet.conversations;
        if i < n {
            self.wake_client(i).await;
        } else {
            self.wake_server(i - n).await;
        }
        true
    }

    /// A client wake means its reply arrived: close the round trip and
    /// (unless draining) immediately start the next one.
    async fn wake_client(&mut self, client: usize) {
        let ClientSm::Sent(sent_at) = self.client_sm[client] else {
            return;
        };
        let fleet = &self.fleet;
        fleet.nodes[self.node]
            .hist
            .record_ns(self.clock.now_ns().saturating_sub(sent_at));
        fleet.round_trips.fetch_add(1, Ordering::Relaxed);
        if fleet.stopping.load(Ordering::Relaxed) {
            self.client_sm[client] = ClientSm::Done;
            fleet.active.fetch_sub(1, Ordering::AcqRel);
        } else {
            self.issue_send(client).await;
        }
    }

    /// A server wake reads its mailbox. A delivered request is served:
    /// compute, then reply. An empty mailbox means its `Offer` or its last
    /// `Reply` completed: post the next `Receive`. There is no third wake:
    /// the MP deposits a delivery before it flushes the server to the
    /// computation list ([`MpCtx::handle`], then [`MpCtx::flush`]).
    async fn wake_server(&mut self, server: usize) {
        let task = TaskId((self.fleet.conversations + server) as u32);
        let mail = std::mem::take(
            &mut *self.shared().slots[task.0 as usize]
                .lock()
                .expect("TCB slot"),
        );
        match mail {
            Mail::Empty => {
                self.issue(task, ActivityKind::SyscallReceive, Syscall::Receive)
                    .await;
            }
            Mail::Delivered(request) => {
                debug_assert!(
                    request.data.starts_with(REQUEST),
                    "server woken with another message than its client's request: {request:?}"
                );
                // The conversation's server compute (the workload's X).
                self.clock
                    .occupy_us(self.fleet.compute_us, CLASS_COMPUTE)
                    .await;
                self.issue(
                    task,
                    ActivityKind::SyscallReply,
                    Syscall::Reply {
                        message: Message::from_bytes(b"reply"),
                    },
                )
                .await;
            }
            Mail::Request(request) => {
                panic!("server woken over its own unread request: {request:?}")
            }
        }
    }
}

/// The message-coprocessor side of one node: the kernel plus the network
/// interface.
pub(crate) struct MpCtx {
    pub fleet: Arc<Fleet>,
    pub node: usize,
    /// On Architecture I a clone of the host's handle: one processor plays
    /// both roles.
    pub clock: ClockHandle,
    pub kernel: Kernel,
    pub port: Port<Packet>,
}

impl MpCtx {
    fn shared(&self) -> &NodeShared {
        &self.fleet.nodes[self.node]
    }

    /// Occupies the MP for one activity. (`&mut`: the MP's future moves to
    /// its real-clock thread, and `&MpCtx` is not `Send`.)
    async fn charge(&mut self, kind: ActivityKind) {
        self.fleet.cost.charge(kind, &self.clock).await;
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
                    self.fleet
                        .ring
                        .transmit(from, to, msgkernel::MESSAGE_SIZE as u32, packet)
                        .expect("destination node attached to the ring");
                    // The arrival interrupt (§4.6): in virtual mode this
                    // wakes a parked receiver at the sender's timestamp.
                    self.fleet.arrival_bell(to.0 as usize).ring();
                }
                KernelEvent::Delivered { server } => {
                    self.charge(ActivityKind::Match).await;
                    self.charge(ActivityKind::RestartServer).await;
                    // Deposit the request in the server's mailbox, where
                    // the host picks it up and so knows to serve it. (A
                    // client reads nothing from its reply, so a
                    // `ReplyDelivered` deposits nothing.)
                    let message = self
                        .kernel
                        .task(server)
                        .expect("the kernel delivered to a task it has")
                        .delivered
                        .expect("a delivery leaves its message with the task");
                    *self.shared().slots[server.0 as usize]
                        .lock()
                        .expect("TCB slot") = Mail::Delivered(message);
                }
                KernelEvent::ReplyDelivered { .. } => {
                    self.charge(ActivityKind::CleanupClient).await;
                    self.charge(ActivityKind::RestartClient).await;
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
    /// after event handling, so mailboxes are filled before the host can
    /// observe the task as runnable.
    fn flush(&mut self) -> bool {
        let shared = &self.fleet.nodes[self.node];
        let mut any = false;
        while let Some(task) = self.kernel.next_computation() {
            shared.shm.push_computation(task);
            any = true;
        }
        if any {
            shared.host_bell.ring();
        }
        any
    }

    /// One scheduling pass: internal work, host requests, network arrivals,
    /// then the runnable flush. Returns whether anything happened.
    async fn pump(&mut self) -> bool {
        let mut did = self.drain_internal().await;
        while let Some(task) = self.shared().shm.pop_communication() {
            did = true;
            let mail = std::mem::take(
                &mut *self.shared().slots[task.0 as usize]
                    .lock()
                    .expect("TCB slot"),
            );
            let Mail::Request(request) = mail else {
                panic!("host writes the request before enqueueing the TCB, found {mail:?}");
            };
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
}

/// One processor and its duties: a host, an MP, or on Architecture I both
/// — the uniprocessor cannot overlap server compute with communication
/// processing, which is exactly the bottleneck the MP removes.
pub(crate) enum Processor {
    Host(HostCtx),
    Mp(MpCtx),
    Uniprocessor(HostCtx, MpCtx),
}

impl Processor {
    /// The run, this processor's clock, and the bell it parks on: the
    /// MP's, or the host's (on I, also the node's arrival bell).
    fn parts(&self) -> (&Fleet, &ClockHandle, &Bell) {
        match self {
            Processor::Host(host) | Processor::Uniprocessor(host, _) => {
                (&host.fleet, &host.clock, &host.shared().host_bell)
            }
            Processor::Mp(mp) => (&mp.fleet, &mp.clock, &mp.shared().mp_bell),
        }
    }

    /// One pass over the processor's duties; false when it found nothing
    /// to do.
    async fn step(&mut self) -> bool {
        match self {
            Processor::Host(host) => host.step().await,
            Processor::Mp(mp) => mp.pump().await,
            Processor::Uniprocessor(host, mp) => {
                let kernel = mp.pump().await;
                let task = host.step().await;
                kernel || task
            }
        }
    }

    /// The processor loop: step until halted, parking on the bell when
    /// idle. Resolves to its kernel's statistics (all zero for a host,
    /// which has none).
    pub(crate) async fn run(mut self) -> KernelStats {
        self.parts().1.attach().await;
        if let Processor::Host(host) | Processor::Uniprocessor(host, _) = &mut self {
            host.kickoff().await;
        }
        let mut empty_polls: u32 = 0;
        loop {
            let (fleet, _, bell) = self.parts();
            if fleet.halt.load(Ordering::Relaxed) {
                break;
            }
            // The epoch is taken before the poll, so a ring after an empty
            // poll makes the wait return at once: one empty poll to park.
            let epoch = bell.epoch();
            if self.step().await {
                empty_polls = 0;
                continue;
            }
            empty_polls += 1;
            let (_, clock, bell) = self.parts();
            if clock.spins() && empty_polls < SPIN_POLLS {
                std::hint::spin_loop();
                continue;
            }
            clock.wait_past(bell, epoch, IDLE_PARK).await;
        }
        self.parts().1.retire();
        match self {
            Processor::Host(_) => KernelStats::default(),
            Processor::Mp(mp) | Processor::Uniprocessor(_, mp) => mp.kernel.stats(),
        }
    }
}
