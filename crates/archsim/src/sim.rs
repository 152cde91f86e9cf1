//! The discrete-event simulator.
//!
//! Runs the real [`msgkernel::Kernel`] under the per-activity costs of
//! [`crate::timings`], with:
//!
//! * one host (and, for Architectures II–IV, one message coprocessor) per
//!   node, FCFS run-to-completion dispatch, network-interrupt work served
//!   with priority over task work (the tables' `NetIntr` gating);
//! * separate DMA engines for outgoing and incoming packets (the models'
//!   `IoOut` / `IoIn` places);
//! * endogenous shared-memory contention: an activity's shared-access time
//!   is inflated by the memory-cycle demand of concurrently running
//!   activities on the same bus — Architecture IV's partitioned bus
//!   interferes only within a partition, which is exactly the effect the
//!   paper's low-level contention model (Table 6.2) captures;
//! * the [`netsim::TokenRing`] timing one `send` and one `reply` packet
//!   per conversation.
//!
//! One queue, ordered by time and then by scheduling order, holds every
//! pending event: a finished job carries the job, an arrival its packet.
//! As in the live runtime, the computation list alone says which tasks a
//! kernel call made runnable (§4.4); each continues by its last call.

use crate::timings::{activity, Activity, ActivityKind, Architecture, Locality};
use crate::WorkloadSpec;
use msgkernel::{
    Kernel, KernelEvent, Message, NodeId, Packet, PacketBody, SendMode, ServiceAddr, Syscall,
    TaskId,
};
use netsim::{RingNodeId, TokenRing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// One processor-occupancy segment recorded by a traced run — the raw
/// material of the paper's Figure 4.6 timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// Node index (0 = client node).
    pub node: usize,
    /// Processor name ("Host", "MP", "IoOut", "IoIn").
    pub processor: &'static str,
    /// What ran.
    pub label: String,
    /// Start, microseconds.
    pub start_us: f64,
    /// End, microseconds.
    pub end_us: f64,
}

/// Simulation output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Completed conversations per millisecond (the paper's Λ).
    pub throughput_per_ms: f64,
    /// Mean client round-trip time, microseconds.
    pub mean_round_trip_us: f64,
    /// Host utilization on the (server-side) node.
    pub host_utilization: f64,
    /// MP utilization on the (server-side) node (0 for Architecture I).
    pub mp_utilization: f64,
    /// Conversations completed after warm-up.
    pub completed: u64,
    /// Measured interval, microseconds.
    pub measured_us: f64,
}

/// A node's processors, in [`Node::procs`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcKind {
    Host,
    Mp,
    IoOut,
    IoIn,
}

#[derive(Debug, Clone)]
enum Job {
    /// Timed activity followed by a kernel submission.
    Syscall {
        task: TaskId,
        kind: ActivityKind,
        call: Syscall,
    },
    /// MP (or Architecture-I host) processing of a pending request.
    Process { task: TaskId, kind: ActivityKind },
    /// Matching client and server after a local rendezvous forms.
    Match { server: TaskId },
    /// Host restart of a task, continuing its behavior.
    Restart { task: TaskId, kind: ActivityKind },
    /// Server busy-loop computation.
    Compute { server: TaskId, duration_us: f64 },
    /// DMA of an outgoing packet.
    DmaOut { packet: Packet },
    /// DMA of an arrived packet.
    DmaIn { packet: Packet },
    /// Interrupt-level processing of an arrived packet (includes the match
    /// or client-cleanup work), then `handle_packet`.
    Interrupt { packet: Packet, kind: ActivityKind },
}

/// A (possibly multi-server) processor: `capacity` identical units share
/// the FCFS queues — capacity > 1 models the Chapter 7 organization of
/// several hosts served by one MP (and the 925 test-bed's two hosts).
#[derive(Debug)]
struct Proc {
    capacity: usize,
    busy: usize,
    interrupt_queue: VecDeque<Job>,
    task_queue: VecDeque<Job>,
    busy_ns: u64,
}

impl Proc {
    fn new(capacity: usize) -> Proc {
        Proc {
            capacity,
            busy: 0,
            interrupt_queue: VecDeque::new(),
            task_queue: VecDeque::new(),
            busy_ns: 0,
        }
    }

    fn pop(&mut self) -> Option<Job> {
        self.interrupt_queue
            .pop_front()
            .or_else(|| self.task_queue.pop_front())
    }
}

/// Bus demand of a running activity for the interference model.
#[derive(Debug, Clone, Copy, Default)]
struct BusShare {
    kb_rho: f64,
    tcb_rho: f64,
}

/// The kernel call a task made last: how it continues once the
/// computation list hands it back.
#[derive(Debug, Clone, Copy)]
enum LastCall {
    Offer,
    Receive,
    Reply,
    Send,
}

#[derive(Debug)]
struct Node {
    /// Indexed by [`ProcKind`]; the MP idles on Architecture I.
    procs: [Proc; 4],
    /// The running activities' bus shares by job id, in dispatch order, so
    /// `Simulation::interference` sums them in an order the run fixes.
    running: Vec<(u64, BusShare)>,
    /// Each task's last call, by task id (a server's first is its offer).
    last_call: Vec<LastCall>,
    /// When each client issued its current send, nanoseconds, by task id.
    send_start_ns: Vec<u64>,
}

impl Node {
    fn new(hosts: usize, tasks: usize) -> Node {
        Node {
            procs: [hosts, 1, 1, 1].map(Proc::new),
            running: Vec::new(),
            last_call: vec![LastCall::Offer; tasks],
            send_start_ns: vec![0; tasks],
        }
    }
}

#[derive(Debug)]
enum Event {
    /// A job finished on a processor it took at `started_ns`.
    WorkDone {
        node: usize,
        proc: ProcKind,
        started_ns: u64,
        job: Job,
    },
    /// A packet reached its destination's network interface.
    Arrival(Packet),
}

/// The architecture simulator. See the crate docs for an example.
#[derive(Debug)]
pub struct Simulation {
    arch: Architecture,
    spec: WorkloadSpec,
    kernels: Vec<Kernel>,
    nodes: Vec<Node>,
    ring: TokenRing,
    /// Pending events by `(time_ns, seq)`: `seq` counts scheduled events,
    /// breaks ties in scheduling order and is a job's id.
    events: BTreeMap<(u64, u64), Event>,
    trace: Option<Vec<TraceSegment>>,
    seq: u64,
    now_ns: u64,
    rng: StdRng,
    client_node: usize,
    server_node: usize,
    service: ServiceAddr,
    completed: u64,
    round_trip_sum_ns: u64,
}

const US: f64 = 1_000.0; // nanoseconds per microsecond

fn us_to_ns(us: f64) -> u64 {
    (us * US).round() as u64
}

impl Simulation {
    /// Builds a simulation of `arch` under `spec` with one host per node.
    pub fn new(arch: Architecture, spec: &WorkloadSpec) -> Simulation {
        Simulation::with_hosts(arch, spec, 1)
    }

    /// Builds a simulation with `hosts` host processors per node — the
    /// thesis's Chapter 7 organization (one MP serving a collection of
    /// hosts; its 925 test-bed ran two hosts per node).
    ///
    /// # Panics
    ///
    /// Panics when `hosts` is zero.
    pub fn with_hosts(arch: Architecture, spec: &WorkloadSpec, hosts: usize) -> Simulation {
        assert!(hosts >= 1, "a node needs at least one host");
        let two_nodes = spec.locality == Locality::NonLocal;
        let node_count = if two_nodes { 2 } else { 1 };
        let mut kernels: Vec<Kernel> = (0..node_count)
            .map(|i| Kernel::new(NodeId(i as u32), 64))
            .collect();
        let nodes: Vec<Node> = (0..node_count)
            .map(|_| Node::new(hosts, 2 * spec.conversations))
            .collect();
        let mut ring = TokenRing::default();
        for i in 0..node_count {
            ring.attach(RingNodeId(i as u32));
        }
        let client_node = 0;
        let server_node = node_count - 1;
        let svc = kernels[server_node].create_service("workload");
        let service = ServiceAddr {
            node: NodeId(server_node as u32),
            service: svc,
        };

        let mut sim = Simulation {
            arch,
            spec: *spec,
            kernels,
            nodes,
            ring,
            events: BTreeMap::new(),
            trace: None,
            seq: 0,
            now_ns: 0,
            rng: StdRng::seed_from_u64(spec.seed),
            client_node,
            server_node,
            service,
            completed: 0,
            round_trip_sum_ns: 0,
        };
        sim.setup_tasks();
        sim
    }

    /// Enables recording of processor-occupancy segments (Figure 4.6).
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    fn setup_tasks(&mut self) {
        for _ in 0..self.spec.conversations {
            let server = self.kernels[self.server_node].create_task("server", 1, 64);
            // Offers are issued once at startup; their cost is not part of
            // the steady-state conversation loop.
            self.kernels[self.server_node]
                .submit(
                    server,
                    Syscall::Offer {
                        service: self.service.service,
                    },
                )
                .expect("fresh task");
            let t = self.kernels[self.server_node]
                .next_communication()
                .expect("offer pending");
            let events = self.kernels[self.server_node]
                .process(t)
                .expect("offer valid");
            self.apply_events(self.server_node, events, false);
        }
        for _ in 0..self.spec.conversations {
            let client = self.kernels[self.client_node].create_task("client", 1, 64);
            self.start_client_send(client);
        }
    }

    fn act(&self, kind: ActivityKind) -> Option<&'static Activity> {
        activity(self.arch, self.spec.locality, kind)
    }

    /// The processor that runs kernel work: the MP, or Architecture I's
    /// host.
    fn kernel_proc(&self) -> ProcKind {
        if self.arch.has_mp() {
            ProcKind::Mp
        } else {
            ProcKind::Host
        }
    }

    /// Schedules `job` on the given processor; interrupt-initiated work goes
    /// to the priority queue.
    fn enqueue(&mut self, node: usize, proc: ProcKind, job: Job, interrupt: bool) {
        let p = &mut self.nodes[node].procs[proc as usize];
        if interrupt {
            p.interrupt_queue.push_back(job);
        } else {
            p.task_queue.push_back(job);
        }
        self.dispatch(node, proc);
    }

    /// Schedules task-level `job` on the node's host.
    fn on_host(&mut self, node: usize, job: Job) {
        self.enqueue(node, ProcKind::Host, job, false);
    }

    /// Queues `event` at `at_ns`, after the events already queued for that
    /// instant, and returns its sequence number.
    fn schedule(&mut self, at_ns: u64, event: Event) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.events.insert((at_ns, seq), event);
        seq
    }

    /// Bus interference: the shared-access demand fraction of concurrently
    /// running activities.
    fn interference(&self, node: usize) -> (f64, f64) {
        let mut kb = 0.0;
        let mut tcb = 0.0;
        for (_, share) in &self.nodes[node].running {
            kb += share.kb_rho;
            tcb += share.tcb_rho;
        }
        (kb, tcb)
    }

    fn job_duration_and_share(&mut self, node: usize, job: &Job) -> (f64, BusShare) {
        let act = match job {
            Job::Syscall { kind, .. }
            | Job::Process { task: _, kind }
            | Job::Restart { kind, .. }
            | Job::Interrupt { kind, .. } => self.act(*kind),
            Job::Match { .. } => {
                // A local match always uses the *local* table even in a
                // non-local workload run (it only arises for local
                // rendezvous).
                activity(self.arch, Locality::Local, ActivityKind::Match)
            }
            Job::Compute { duration_us, .. } => return (*duration_us, BusShare::default()),
            Job::DmaOut { .. } => self.act(ActivityKind::DmaOut),
            Job::DmaIn { .. } => self.act(ActivityKind::DmaIn),
        };
        let Some(act) = act else {
            return (0.0, BusShare::default());
        };
        let (kb_i, tcb_i) = self.interference(node);
        let duration = if self.arch.partitioned() {
            act.processing_us + act.kb_us * (1.0 + kb_i) + act.tcb_us * (1.0 + tcb_i)
        } else {
            act.processing_us + act.shared_us() * (1.0 + kb_i + tcb_i)
        };
        let best = act.best_us().max(1e-9);
        // The KB/TCB split is tracked either way; for I-III the duration
        // formula above sums both against the single bus.
        let share = BusShare {
            kb_rho: act.kb_us / best,
            tcb_rho: act.tcb_us / best,
        };
        (duration, share)
    }

    fn dispatch(&mut self, node: usize, proc: ProcKind) {
        loop {
            let p = &mut self.nodes[node].procs[proc as usize];
            if p.busy >= p.capacity {
                return;
            }
            let Some(job) = p.pop() else { return };
            p.busy += 1;
            let (duration_us, share) = self.job_duration_and_share(node, &job);
            let done = Event::WorkDone {
                node,
                proc,
                started_ns: self.now_ns,
                job,
            };
            let id = self.schedule(self.now_ns + us_to_ns(duration_us), done);
            self.nodes[node].running.push((id, share));
        }
    }

    fn start_client_send(&mut self, client: TaskId) {
        self.nodes[self.client_node].send_start_ns[client.0 as usize] = self.now_ns;
        let call = Syscall::Send {
            to: self.service,
            message: Message::empty(),
            mode: SendMode::invocation(),
        };
        self.on_host(
            self.client_node,
            Job::Syscall {
                task: client,
                kind: ActivityKind::SyscallSend,
                call,
            },
        );
    }

    /// Pumps the communication list: on Architectures II–IV the MP picks up
    /// requests; on I the host processes them inline (their cost is folded
    /// into the syscall activities, so processing takes zero extra time).
    fn pump_mp(&mut self, node: usize) {
        if self.arch.has_mp() {
            // The MP's dispatcher: one Process job per pending request.
            while let Some(task) = self.kernels[node].next_communication() {
                let kind = match self.kernels[node].pending_request(task) {
                    Some(Syscall::Send { .. }) => ActivityKind::ProcessSend,
                    Some(Syscall::Receive) => ActivityKind::ProcessReceive,
                    Some(Syscall::Reply { .. }) => ActivityKind::ProcessReply,
                    _ => ActivityKind::ProcessReceive,
                };
                self.enqueue(node, ProcKind::Mp, Job::Process { task, kind }, false);
            }
        } else {
            // Architecture I: execute the kernel effects immediately; the
            // host time was already charged in the syscall activity.
            while let Some(task) = self.kernels[node].next_communication() {
                let events = self.kernels[node]
                    .process(task)
                    .expect("valid workload request");
                self.apply_events(node, events, false);
            }
        }
    }

    /// Acts on one kernel call: its outgoing packets go to the DMA engine,
    /// then every task it made runnable leaves the computation list and
    /// continues by its last call. `from_packet` marks an arrived packet's
    /// interrupt, which already charged a delivered server's match work.
    fn apply_events(&mut self, node: usize, events: Vec<KernelEvent>, from_packet: bool) {
        for e in events {
            if let KernelEvent::PacketOut(packet) = e {
                self.enqueue(node, ProcKind::IoOut, Job::DmaOut { packet }, false);
            }
        }
        while let Some(task) = self.kernels[node].next_computation() {
            let restart = |kind| Job::Restart { task, kind };
            let job = match self.nodes[node].last_call[task.0 as usize] {
                LastCall::Send => restart(ActivityKind::RestartClient),
                LastCall::Receive if from_packet => restart(ActivityKind::RestartServer),
                LastCall::Receive => {
                    let proc = self.kernel_proc();
                    self.enqueue(node, proc, Job::Match { server: task }, false);
                    continue;
                }
                // Server is ready: post the first receive.
                LastCall::Offer => Job::Syscall {
                    task,
                    kind: ActivityKind::SyscallReceive,
                    call: Syscall::Receive,
                },
                LastCall::Reply => restart(ActivityKind::RestartServerAfterReply),
            };
            self.on_host(node, job);
        }
    }

    fn complete_job(&mut self, id: u64, node: usize, proc: ProcKind, started_ns: u64, job: Job) {
        self.nodes[node]
            .running
            .retain(|&(running, _)| running != id);
        let p = &mut self.nodes[node].procs[proc as usize];
        p.busy -= 1;
        p.busy_ns += self.now_ns - started_ns;
        if let Some(trace) = &mut self.trace {
            let label = match &job {
                Job::Syscall { kind, task, .. } => format!("{kind:?} {task}"),
                Job::Process { task, kind } => format!("{kind:?} {task}"),
                Job::Match { server } => format!("Match {server}"),
                Job::Restart { task, kind } => format!("{kind:?} {task}"),
                Job::Compute { server, .. } => format!("Compute {server}"),
                Job::DmaOut { .. } => "DMA out".to_string(),
                Job::DmaIn { .. } => "DMA in".to_string(),
                Job::Interrupt { kind, .. } => format!("Interrupt: {kind:?}"),
            };
            trace.push(TraceSegment {
                node,
                processor: ["Host", "MP", "IoOut", "IoIn"][proc as usize],
                label,
                start_us: started_ns as f64 / US,
                end_us: self.now_ns as f64 / US,
            });
        }

        match job {
            Job::Syscall {
                task,
                kind: _,
                call,
            } => {
                self.nodes[node].last_call[task.0 as usize] = match &call {
                    Syscall::Send { .. } => LastCall::Send,
                    Syscall::Receive => LastCall::Receive,
                    Syscall::Reply { .. } => LastCall::Reply,
                    _ => LastCall::Offer,
                };
                self.kernels[node].submit(task, call).expect("task idle");
                self.pump_mp(node);
            }
            Job::Process { task, .. } => {
                let events = self.kernels[node].process(task).expect("valid request");
                self.apply_events(node, events, false);
            }
            Job::Match { server } => self.on_host(
                node,
                Job::Restart {
                    task: server,
                    kind: ActivityKind::RestartServer,
                },
            ),
            Job::Restart { task, kind } => match kind {
                ActivityKind::RestartServer => {
                    let x = self.spec.server_compute_us;
                    let duration_us = if x <= 0.0 {
                        0.0
                    } else {
                        self.rng.gen_range(0.5 * x..=1.5 * x)
                    };
                    self.on_host(
                        node,
                        Job::Compute {
                            server: task,
                            duration_us,
                        },
                    );
                }
                ActivityKind::RestartServerAfterReply => self.on_host(
                    node,
                    Job::Syscall {
                        task,
                        kind: ActivityKind::SyscallReceive,
                        call: Syscall::Receive,
                    },
                ),
                ActivityKind::RestartClient => {
                    // Round trip complete.
                    let start = self.nodes[node].send_start_ns[task.0 as usize];
                    if start >= us_to_ns(self.spec.warmup_us) {
                        self.completed += 1;
                        self.round_trip_sum_ns += self.now_ns - start;
                    }
                    self.start_client_send(task);
                }
                _ => unreachable!("not a restart kind"),
            },
            Job::Compute { server, .. } => self.on_host(
                node,
                Job::Syscall {
                    task: server,
                    kind: ActivityKind::SyscallReply,
                    call: Syscall::Reply {
                        message: Message::empty(),
                    },
                },
            ),
            Job::DmaOut { packet } => {
                let from = RingNodeId(packet.from.0);
                let to = RingNodeId(packet.to.0);
                let arrive = self
                    .ring
                    .transmit(self.now_ns, from, to, 40)
                    .expect("nodes attached");
                self.schedule(arrive, Event::Arrival(packet));
            }
            Job::DmaIn { packet } => {
                let kind = match packet.body {
                    PacketBody::SendMsg { .. } => ActivityKind::Match,
                    PacketBody::ReplyMsg { .. } => ActivityKind::CleanupClient,
                };
                let proc = self.kernel_proc();
                self.enqueue(node, proc, Job::Interrupt { packet, kind }, true);
            }
            Job::Interrupt { packet, .. } => {
                let events = self.kernels[node]
                    .handle_packet(packet)
                    .expect("routable packet");
                self.apply_events(node, events, true);
            }
        }
        self.dispatch(node, proc);
    }

    /// Runs to the horizon and reports metrics plus the recorded trace.
    pub fn run_traced(mut self) -> (Metrics, Vec<TraceSegment>) {
        self.enable_trace();
        let metrics = self.run_inner();
        let trace = self.trace.take().unwrap_or_default();
        (metrics, trace)
    }

    /// Runs to the horizon and reports metrics.
    pub fn run(mut self) -> Metrics {
        self.run_inner()
    }

    fn run_inner(&mut self) -> Metrics {
        let horizon = us_to_ns(self.spec.horizon_us);
        let warmup = us_to_ns(self.spec.warmup_us);
        let busy_ns = |sim: &Simulation, proc: ProcKind| {
            sim.nodes[sim.server_node].procs[proc as usize].busy_ns
        };
        let mut warm_host_busy = 0u64;
        let mut warm_mp_busy = 0u64;
        let mut warmed = false;
        while let Some(((at, id), event)) = self.events.pop_first() {
            if at > horizon {
                break;
            }
            self.now_ns = at;
            if !warmed && at >= warmup {
                warmed = true;
                // Snapshot busy time consumed before the measured window.
                warm_host_busy = busy_ns(self, ProcKind::Host);
                warm_mp_busy = busy_ns(self, ProcKind::Mp);
            }
            match event {
                Event::WorkDone {
                    node,
                    proc,
                    started_ns,
                    job,
                } => self.complete_job(id, node, proc, started_ns, job),
                Event::Arrival(packet) => {
                    let node = packet.to.0 as usize;
                    self.enqueue(node, ProcKind::IoIn, Job::DmaIn { packet }, true);
                }
            }
        }

        let measured_ns = horizon.saturating_sub(warmup);
        let measured_us = measured_ns as f64 / US;
        let host_capacity = self.nodes[self.server_node].procs[ProcKind::Host as usize].capacity;
        let host_busy =
            busy_ns(self, ProcKind::Host).saturating_sub(warm_host_busy) / host_capacity as u64;
        let mp_busy = busy_ns(self, ProcKind::Mp).saturating_sub(warm_mp_busy);
        Metrics {
            throughput_per_ms: self.completed as f64 / (measured_us / 1_000.0),
            mean_round_trip_us: if self.completed == 0 {
                0.0
            } else {
                self.round_trip_sum_ns as f64 / self.completed as f64 / US
            },
            host_utilization: host_busy as f64 / measured_ns as f64,
            mp_utilization: mp_busy as f64 / measured_ns as f64,
            completed: self.completed,
            measured_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timings::{activity_table, round_trip_us};

    fn spec(n: usize, x: f64, locality: Locality) -> WorkloadSpec {
        WorkloadSpec {
            conversations: n,
            server_compute_us: x,
            locality,
            horizon_us: 2_000_000.0,
            warmup_us: 200_000.0,
            seed: 7,
        }
    }

    #[test]
    fn arch1_local_single_conversation_matches_analysis() {
        // One conversation, X = 0: throughput = 1 / C with C = 4.97 ms.
        let m = Simulation::new(Architecture::Uniprocessor, &spec(1, 0.0, Locality::Local)).run();
        let c = round_trip_us(Architecture::Uniprocessor, Locality::Local, false);
        let expect = 1_000.0 / c;
        assert!(
            (m.throughput_per_ms - expect).abs() / expect < 0.02,
            "throughput {} vs {}",
            m.throughput_per_ms,
            expect
        );
        assert!(
            (m.mean_round_trip_us - c).abs() / c < 0.02,
            "rt {}",
            m.mean_round_trip_us
        );
    }

    #[test]
    fn arch2_single_conversation_slightly_slower_than_arch1() {
        // §6.9.1: for one conversation the partition *loses* a little
        // (~10%) to host-MP information transfer.
        let m1 = Simulation::new(Architecture::Uniprocessor, &spec(1, 0.0, Locality::Local)).run();
        let m2 = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(1, 0.0, Locality::Local),
        )
        .run();
        assert!(m2.throughput_per_ms < m1.throughput_per_ms);
        let loss = 1.0 - m2.throughput_per_ms / m1.throughput_per_ms;
        assert!(loss < 0.25, "loss {loss}");
    }

    #[test]
    fn arch2_scales_with_conversations_under_realistic_load() {
        // With computation in the mix, the MP offloads the host and
        // multiple conversations outperform Architecture I.
        let x = 2_850.0;
        let m1 = Simulation::new(Architecture::Uniprocessor, &spec(4, x, Locality::Local)).run();
        let m2 = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(4, x, Locality::Local),
        )
        .run();
        assert!(
            m2.throughput_per_ms > m1.throughput_per_ms * 1.1,
            "arch2 {} vs arch1 {}",
            m2.throughput_per_ms,
            m1.throughput_per_ms
        );
    }

    #[test]
    fn arch3_beats_arch2() {
        let m2 = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(3, 1_140.0, Locality::Local),
        )
        .run();
        let m3 = Simulation::new(Architecture::SmartBus, &spec(3, 1_140.0, Locality::Local)).run();
        assert!(
            m3.throughput_per_ms > m2.throughput_per_ms,
            "arch3 {} vs arch2 {}",
            m3.throughput_per_ms,
            m2.throughput_per_ms
        );
    }

    #[test]
    fn arch4_close_to_arch3() {
        // §6.9.3: the partitioned bus does not help significantly — shared
        // memory access is not the bottleneck.
        let m3 = Simulation::new(Architecture::SmartBus, &spec(3, 0.0, Locality::Local)).run();
        let m4 = Simulation::new(
            Architecture::PartitionedSmartBus,
            &spec(3, 0.0, Locality::Local),
        )
        .run();
        let gain = m4.throughput_per_ms / m3.throughput_per_ms - 1.0;
        assert!(gain.abs() < 0.10, "gain {gain}");
        assert!(m4.throughput_per_ms >= m3.throughput_per_ms * 0.97);
    }

    #[test]
    fn nonlocal_round_trip_includes_network() {
        let m = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(1, 0.0, Locality::NonLocal),
        )
        .run();
        // Round trip = the serial critical path (the server's next receive
        // posting overlaps the reply's flight, DMA is on it) + two 112 µs
        // wire transits.
        let critical_path: f64 =
            activity_table(Architecture::MessageCoprocessor, Locality::NonLocal)
                .iter()
                .filter(|a| {
                    !matches!(
                        a.kind,
                        ActivityKind::SyscallReceive
                            | ActivityKind::ProcessReceive
                            | ActivityKind::RestartServerAfterReply
                    )
                })
                .map(Activity::best_us)
                .sum();
        let expect = critical_path + 2.0 * 112.0;
        assert!(
            (m.mean_round_trip_us - expect).abs() / expect < 0.05,
            "rt {} vs {}",
            m.mean_round_trip_us,
            expect
        );
    }

    #[test]
    fn throughput_grows_with_conversations_nonlocal() {
        let one = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(1, 0.0, Locality::NonLocal),
        )
        .run();
        let four = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(4, 0.0, Locality::NonLocal),
        )
        .run();
        assert!(
            four.throughput_per_ms > one.throughput_per_ms * 1.3,
            "1: {} 4: {}",
            one.throughput_per_ms,
            four.throughput_per_ms
        );
    }

    #[test]
    fn second_host_helps_compute_bound_load() {
        // Chapter 7: with heavy server computation the host is the
        // bottleneck, so a second host on the node raises throughput; at
        // max communication load the MP caps it.
        let heavy = spec(4, 5_700.0, Locality::Local);
        let one = Simulation::with_hosts(Architecture::MessageCoprocessor, &heavy, 1).run();
        let two = Simulation::with_hosts(Architecture::MessageCoprocessor, &heavy, 2).run();
        assert!(
            two.throughput_per_ms > one.throughput_per_ms * 1.3,
            "1 host {} vs 2 hosts {}",
            one.throughput_per_ms,
            two.throughput_per_ms
        );
        let max = spec(4, 0.0, Locality::Local);
        let one = Simulation::with_hosts(Architecture::MessageCoprocessor, &max, 1).run();
        let two = Simulation::with_hosts(Architecture::MessageCoprocessor, &max, 2).run();
        let gain = two.throughput_per_ms / one.throughput_per_ms - 1.0;
        assert!(gain < 0.35, "gain {gain}");
    }

    #[test]
    fn trace_reconstructs_figure_4_6_sequence() {
        // One non-local conversation: the recorded segments must follow the
        // blocking-remote-invocation-send timeline of Figure 4.6.
        let mut s = spec(1, 500.0, Locality::NonLocal);
        s.horizon_us = 20_000.0;
        s.warmup_us = 0.0;
        let (_, trace) = Simulation::new(Architecture::MessageCoprocessor, &s).run_traced();
        let labels: Vec<&str> = trace.iter().map(|t| t.label.as_str()).collect();
        let idx = |needle: &str| {
            labels
                .iter()
                .position(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("{needle} not in {labels:?}"))
        };
        // Client side: syscall, MP processing, DMA out — in order.
        assert!(idx("SyscallSend") < idx("ProcessSend"));
        assert!(idx("ProcessSend") < idx("DMA out"));
        // Server side: the arriving packet is matched, the server restarts,
        // computes, replies.
        assert!(idx("Interrupt: Match") < idx("RestartServer"));
        assert!(idx("RestartServer") < idx("Compute"));
        assert!(idx("Compute") < idx("SyscallReply"));
        assert!(idx("SyscallReply") < idx("ProcessReply"));
        // And the client eventually restarts.
        assert!(idx("Interrupt: CleanupClient") < idx("RestartClient"));
        // Segments are well-formed.
        for t in &trace {
            assert!(t.end_us >= t.start_us, "{t:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Simulation::new(Architecture::SmartBus, &spec(2, 1_000.0, Locality::Local)).run();
        let b = Simulation::new(Architecture::SmartBus, &spec(2, 1_000.0, Locality::Local)).run();
        assert_eq!(a, b);
    }

    /// Every task a kernel call makes runnable is taken off the computation
    /// list after the call, so no kernel's list outlives a run.
    #[test]
    fn computation_lists_are_drained() {
        for arch in [Architecture::Uniprocessor, Architecture::MessageCoprocessor] {
            for locality in [Locality::Local, Locality::NonLocal] {
                let mut sim = Simulation::new(arch, &spec(3, 1_000.0, locality));
                assert!(sim.run_inner().completed > 0);
                for k in &mut sim.kernels {
                    assert_eq!(k.next_computation(), None, "{arch:?} {locality:?}");
                }
            }
        }
    }

    #[test]
    fn utilizations_sane() {
        let m = Simulation::new(
            Architecture::MessageCoprocessor,
            &spec(4, 0.0, Locality::Local),
        )
        .run();
        // Utilizations may exceed 1.0 by a hair: the job in flight at the
        // warm-up boundary is credited wholly to the measured window.
        assert!(m.host_utilization > 0.0 && m.host_utilization <= 1.01);
        assert!(
            m.mp_utilization > 0.5,
            "MP should be the bottleneck at max load"
        );
        assert!(m.mp_utilization <= 1.01, "mp {}", m.mp_utilization);
    }
}
