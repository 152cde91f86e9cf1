//! The buffer-resident service queues against a reference model that keeps
//! one `VecDeque` of messages per service.
//!
//! Random histories of local sends (blocking invocations, stalled on buffer
//! shortage when no buffer is free, §3.2.3), arriving send packets (parked
//! on a shortage), receives and replies drive one kernel. The model
//! predicts, from the same history, every delivery in order, every queue
//! length, the free-buffer count and the stalls; the kernel must match it
//! after every step, and a kernel whose queues have drained must hold no
//! message in any buffer slot.

use super::*;
use proptest::prelude::*;

/// The service each server offers: two servers share service 0, so the
/// waiting list holds more than one server.
const SERVES: [usize; 4] = [0, 0, 1, 2];
const SERVICES: usize = 3;
const CLIENTS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Client `client` sends to a service, if it has no send outstanding.
    Send { client: usize, service: usize },
    /// A send packet from another node arrives for a service.
    Packet { service: usize },
    /// Server `.0` posts a receive, if it is neither serving nor waiting.
    Receive(usize),
    /// Server `.0` replies, if it is serving.
    Reply(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..CLIENTS, 0..SERVICES).prop_map(|(client, service)| Step::Send { client, service }),
        (0..SERVICES).prop_map(|service| Step::Packet { service }),
        (0..SERVES.len()).prop_map(Step::Receive),
        (0..SERVES.len()).prop_map(Step::Reply),
    ]
}

/// Who sent message `id`: a local client or a remote one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Origin {
    Client(usize),
    Remote,
}

/// The reference: plain FIFOs, and the kernel's documented delivery and
/// retry rules written out directly.
#[derive(Debug)]
struct Model {
    free: usize,
    queues: Vec<VecDeque<u32>>,
    waiting: Vec<VecDeque<usize>>,
    /// Local sends stalled on a shortage: (client, service, message).
    stalled: VecDeque<(usize, usize, u32)>,
    /// Send packets parked on a shortage: (service, message).
    parked: VecDeque<(usize, u32)>,
    stalls: u64,
    /// The message each server is serving.
    serving: Vec<Option<u32>>,
    /// Deliveries of the current step, in order: (server, message).
    delivered: Vec<(usize, u32)>,
}

impl Model {
    fn new(buffers: usize) -> Model {
        Model {
            free: buffers,
            queues: vec![VecDeque::new(); SERVICES],
            waiting: vec![VecDeque::new(); SERVICES],
            stalled: VecDeque::new(),
            parked: VecDeque::new(),
            stalls: 0,
            serving: vec![None; SERVES.len()],
            delivered: Vec::new(),
        }
    }

    /// A message reaches a service: the first waiting server takes it, or
    /// it queues in a buffer. Either way it needs a free buffer.
    fn deliver(&mut self, service: usize, id: u32) -> bool {
        if self.free == 0 {
            return false;
        }
        match self.waiting[service].pop_front() {
            Some(server) => self.hand(server, id),
            None => {
                self.free -= 1;
                self.queues[service].push_back(id);
            }
        }
        true
    }

    fn hand(&mut self, server: usize, id: u32) {
        self.serving[server] = Some(id);
        self.delivered.push((server, id));
    }

    fn send(&mut self, client: usize, service: usize, id: u32) {
        if !self.deliver(service, id) {
            self.stalls += 1;
            self.stalled.push_back((client, service, id));
        }
    }

    fn packet(&mut self, service: usize, id: u32) {
        if !self.deliver(service, id) {
            self.parked.push_back((service, id));
        }
    }

    /// A receive takes the head of the server's queue, freeing its buffer:
    /// parked packets are replayed while buffers are free, then one stalled
    /// send is retried. On an empty queue the server waits.
    fn receive(&mut self, server: usize) {
        let service = SERVES[server];
        let Some(id) = self.queues[service].pop_front() else {
            self.waiting[service].push_back(server);
            return;
        };
        self.free += 1;
        self.hand(server, id);
        while self.free > 0 {
            if let Some((service, id)) = self.parked.pop_front() {
                self.packet(service, id);
                continue;
            }
            if let Some((client, service, id)) = self.stalled.pop_front() {
                self.send(client, service, id);
            }
            break;
        }
    }

    fn idle(&self, server: usize) -> bool {
        self.serving[server].is_none() && !self.waiting[SERVES[server]].contains(&server)
    }

    /// A step that serves a queued message: a reply that frees a server,
    /// or a receive by an idle server whose service has a message queued.
    fn serving_step(&self) -> Option<Step> {
        (0..SERVES.len()).find_map(|s| {
            if self.serving[s].is_some() {
                Some(Step::Reply(s))
            } else if self.idle(s) && !self.queues[SERVES[s]].is_empty() {
                Some(Step::Receive(s))
            } else {
                None
            }
        })
    }
}

/// The kernel under test with its tasks and services.
struct Node {
    k: Kernel,
    clients: Vec<TaskId>,
    servers: Vec<TaskId>,
    services: Vec<ServiceId>,
    /// Where each message came from, by id.
    origins: Vec<Origin>,
    /// Clients with a send outstanding.
    busy: Vec<bool>,
}

impl Node {
    fn new(buffers: usize) -> Node {
        let mut k = Kernel::new(NodeId(0), buffers);
        let clients = (0..CLIENTS)
            .map(|_| k.create_task("client", 1, 0))
            .collect();
        let services: Vec<ServiceId> = (0..SERVICES).map(|_| k.create_service("svc")).collect();
        let servers: Vec<TaskId> = SERVES
            .iter()
            .map(|&s| {
                let server = k.create_task("server", 1, 0);
                k.submit(
                    server,
                    Syscall::Offer {
                        service: services[s],
                    },
                )
                .unwrap();
                server
            })
            .collect();
        let mut node = Node {
            k,
            clients,
            servers,
            services,
            origins: Vec::new(),
            busy: vec![false; CLIENTS],
        };
        node.drain();
        node
    }

    fn drain(&mut self) -> Vec<KernelEvent> {
        let mut events = Vec::new();
        while let Some(t) = self.k.next_communication() {
            events.extend(self.k.process(t).expect("valid request"));
        }
        while self.k.next_computation().is_some() {}
        events
    }

    fn new_message(&mut self, origin: Origin) -> (u32, Message) {
        let id = self.origins.len() as u32;
        self.origins.push(origin);
        (id, Message::from_bytes(&id.to_le_bytes()))
    }

    /// Applies `step` to the kernel and the model; the events it produced.
    fn apply(&mut self, m: &mut Model, step: Step) -> Vec<KernelEvent> {
        m.delivered.clear();
        match step {
            Step::Send { client, service } => {
                if self.busy[client] {
                    return Vec::new();
                }
                self.busy[client] = true;
                let (id, message) = self.new_message(Origin::Client(client));
                let to = ServiceAddr {
                    node: self.k.node(),
                    service: self.services[service],
                };
                let mode = SendMode::invocation();
                self.k
                    .submit(self.clients[client], Syscall::Send { to, message, mode })
                    .unwrap();
                m.send(client, service, id);
                self.drain()
            }
            Step::Packet { service } => {
                let (id, message) = self.new_message(Origin::Remote);
                let packet = Packet {
                    from: NodeId(1),
                    to: NodeId(0),
                    body: PacketBody::SendMsg {
                        service: self.services[service],
                        client: TaskId(id),
                        message,
                        await_reply: true,
                    },
                };
                let mut events = self.k.handle_packet(packet).expect("well-formed packet");
                m.packet(service, id);
                events.extend(self.drain());
                events
            }
            Step::Receive(server) => {
                if !m.idle(server) {
                    return Vec::new();
                }
                self.k
                    .submit(self.servers[server], Syscall::Receive)
                    .unwrap();
                m.receive(server);
                self.drain()
            }
            Step::Reply(server) => {
                let Some(id) = m.serving[server].take() else {
                    return Vec::new();
                };
                let message = Message::empty();
                self.k
                    .submit(self.servers[server], Syscall::Reply { message })
                    .unwrap();
                let events = self.drain();
                let replied = match self.origins[id as usize] {
                    Origin::Client(client) => {
                        self.busy[client] = false;
                        let c = self.clients[client];
                        events.iter().any(
                            |e| matches!(e, KernelEvent::ReplyDelivered { client } if *client == c),
                        )
                    }
                    Origin::Remote => events.iter().any(|e| {
                        matches!(e, KernelEvent::PacketOut(Packet {
                            body: PacketBody::ReplyMsg { client, .. }, ..
                        }) if client.0 == id)
                    }),
                };
                assert!(replied, "reply to message {id} not delivered: {events:?}");
                events
            }
        }
    }

    /// The kernel agrees with the model after a step.
    fn check(&self, m: &Model, events: &[KernelEvent], capacity: usize) -> Result<(), String> {
        let delivered: Vec<TaskId> = events
            .iter()
            .filter_map(|e| match e {
                KernelEvent::Delivered { server } => Some(*server),
                _ => None,
            })
            .collect();
        let want: Vec<TaskId> = m.delivered.iter().map(|&(s, _)| self.servers[s]).collect();
        if delivered != want {
            return Err(format!("delivered to {delivered:?}, model {want:?}"));
        }
        for &(server, id) in &m.delivered {
            let got = self.k.task(self.servers[server]).unwrap().delivered;
            let got = got.map(|msg| u32::from_le_bytes(msg.data[..4].try_into().unwrap()));
            if got != Some(id) {
                return Err(format!("server {server} holds message {got:?}, model {id}"));
            }
        }
        let mut queued = 0;
        for (s, &service) in self.services.iter().enumerate() {
            let len = self.k.service_queue_len(service).unwrap();
            if len != m.queues[s].len() {
                return Err(format!(
                    "service {s} queues {len}, model {}",
                    m.queues[s].len()
                ));
            }
            queued += len;
        }
        let free = self.k.buffers_available();
        if free != m.free || free + queued != capacity {
            return Err(format!(
                "{free} free + {queued} queued, model {} free, capacity {capacity}",
                m.free
            ));
        }
        let held = self.k.queued.iter().filter(|slot| slot.is_some()).count();
        if held != queued {
            return Err(format!(
                "{held} buffer slots hold a message, {queued} queued"
            ));
        }
        if self.k.stats().buffer_stalls != m.stalls {
            return Err(format!(
                "{} stalls, model {}",
                self.k.stats().buffer_stalls,
                m.stalls
            ));
        }
        for (c, &client) in self.clients.iter().enumerate() {
            let stopped = self.k.task(client).unwrap().state == TaskState::Stopped;
            if stopped != self.busy[c] {
                return Err(format!(
                    "client {c} stopped {stopped}, busy {}",
                    self.busy[c]
                ));
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn buffer_resident_queues_match_a_deque_per_service(
        steps in proptest::collection::vec(step(), 1..160),
        buffers in 1usize..5,
    ) {
        let mut node = Node::new(buffers);
        let mut model = Model::new(buffers);
        for (i, &step) in steps.iter().enumerate() {
            let events = node.apply(&mut model, step);
            if let Err(e) = node.check(&model, &events, buffers) {
                panic!("step {i} {step:?}: {e}");
            }
        }
        // Serve until every queue is empty: each receive of a queued
        // message frees its buffer; a server with nothing queued is left
        // idle rather than parked, so the loop ends.
        while let Some(step) = model.serving_step() {
            let events = node.apply(&mut model, step);
            if let Err(e) = node.check(&model, &events, buffers) {
                panic!("drain {step:?}: {e}");
            }
        }
        prop_assert!(model.queues.iter().all(VecDeque::is_empty));
        prop_assert_eq!(node.k.buffers_available(), buffers);
        prop_assert!(node.k.queued.iter().all(Option::is_none), "a drained kernel holds a message");
    }
}
