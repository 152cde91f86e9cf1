//! The IPC kernel: syscalls, rendezvous, the computation/communication
//! lists, and network packets mirroring IPC calls.
//!
//! Every per-event operation is indexed, not scanned: per-task state lives
//! in a dense table indexed by [`TaskId`], a queued message lives in the
//! slot of the kernel buffer it holds, linked into its service's FIFO by
//! buffer index, and a server that receives leaves only the waiting lists
//! of the services it offers — so the cost of a delivery does not grow
//! with the number of services or tasks on the node, and neither does the
//! memory of the messages queued on them.

use crate::buffer::{BufferPool, BufferQueue};
use crate::error::KernelError;
use crate::message::Message;
use crate::sched::PriorityList;
use crate::service::{Offer, OfferId, QueuedMessage, ReplyTo, Service, ServiceAddr, ServiceId};
use crate::task::{NodeId, Task, TaskId, TaskState};
use std::collections::VecDeque;

/// Direction of a [`Syscall::MemoryMove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDirection {
    /// From the client's referenced segment into the server's space.
    FromClient,
    /// From the server's space into the client's referenced segment.
    ToClient,
}

/// The flavors of `send` that 925 offers (§3.2.4, §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Fire-and-forget: no reply expected; the client continues as soon as
    /// the message is queued.
    NoWait,
    /// Remote invocation: the server will reply. `blocking` stops the
    /// client until the reply arrives; a non-blocking client continues and
    /// eventually issues [`Syscall::Wait`] for the response.
    RemoteInvocation {
        /// Whether the client stops until the reply arrives.
        blocking: bool,
    },
}

impl SendMode {
    /// The workload's usual flavor: blocking remote invocation.
    pub fn invocation() -> SendMode {
        SendMode::RemoteInvocation { blocking: true }
    }

    /// Whether a reply is expected at all.
    pub(crate) fn awaits_reply(self) -> bool {
        matches!(self, SendMode::RemoteInvocation { .. })
    }
}

/// A communication request, issued by a task on the host and processed by
/// the message coprocessor.
#[derive(Debug, Clone)]
pub enum Syscall {
    /// Send a message to a service.
    Send {
        /// Destination service (local or remote).
        to: ServiceAddr,
        /// The 40-byte message.
        message: Message,
        /// No-wait vs (blocking / non-blocking) remote invocation.
        mode: SendMode,
    },
    /// Block until the response to an outstanding non-blocking
    /// remote-invocation send arrives (returns immediately if it already
    /// has).
    Wait,
    /// Block until a message arrives on any offered service.
    Receive,
    /// Complete the current rendezvous with a reply message.
    Reply {
        /// The reply payload.
        message: Message,
    },
    /// Advertise intent to receive on a service.
    Offer {
        /// The service to serve.
        service: ServiceId,
    },
    /// Non-blocking poll: is a message waiting on any offered service?
    Inquire,
    /// Move a block between the server's space and the client's referenced
    /// segment (the paper's `memory move`, §4.2.1).
    MemoryMove {
        /// Transfer direction.
        direction: MoveDirection,
        /// Offset in the *server's* address space.
        local_offset: u32,
        /// Bytes to move (must fit the granted segment).
        length: u32,
    },
}

/// A network packet; non-local IPC exchanges packets that mirror the kernel
/// calls — exactly one `Send` and one `Reply` packet per round trip (§4.6).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Originating node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload.
    pub body: PacketBody,
}

/// Packet payloads.
#[derive(Debug, Clone)]
pub enum PacketBody {
    /// A `send` crossing the network.
    SendMsg {
        /// Destination service on the receiving node.
        service: ServiceId,
        /// Client task on the sending node (for the reply).
        client: TaskId,
        /// The message.
        message: Message,
        /// Whether the client awaits a reply.
        await_reply: bool,
    },
    /// A `reply` crossing the network back to the client.
    ReplyMsg {
        /// The client task on the destination node.
        client: TaskId,
        /// The reply message.
        message: Message,
    },
}

/// What a kernel call did beyond scheduling, returned to its caller (the
/// architecture simulator and the live runtime's MP). Scheduling is not an
/// event: a task made runnable is on the computation list
/// ([`Kernel::next_computation`]), and a stopped or buffer-stalled one
/// shows in [`Task::state`] and [`KernelStats`].
#[derive(Debug, Clone)]
pub enum KernelEvent {
    /// A receive completed: the message is in the server's control block.
    Delivered {
        /// The receiving server.
        server: TaskId,
    },
    /// A reply reached its client.
    ReplyDelivered {
        /// The client task.
        client: TaskId,
    },
    /// A packet must be transmitted by the network interface.
    PacketOut(Packet),
    /// A [`Syscall::Wait`] completed (the awaited response had arrived).
    WaitComplete {
        /// The waiting client.
        client: TaskId,
    },
    /// Result of an [`Syscall::Inquire`].
    InquireResult {
        /// The polling task.
        task: TaskId,
        /// Whether any offered service has a message waiting.
        ready: bool,
    },
}

/// A server's open rendezvous: where the reply goes and the memory
/// reference the request enclosed.
#[derive(Debug, Clone, Copy)]
struct RendezvousInfo {
    reply_to: ReplyTo,
    memory_ref: Option<crate::message::MemoryRef>,
}

/// The kernel's private state of one task, indexed by [`TaskId`] beside
/// the task control blocks.
#[derive(Debug, Default)]
struct TaskIpc {
    /// The pending communication request.
    request: Option<Syscall>,
    /// The rendezvous this task serves (received, not yet replied).
    rendezvous: Option<RendezvousInfo>,
    /// Outstanding non-blocking remote invocation: true once the reply has
    /// arrived.
    completion: Option<bool>,
    /// Stopped inside a `Wait`.
    in_wait: bool,
    /// The pending request is a buffer-stalled send being retried.
    retrying: bool,
    /// The task's first offer in the offer table.
    first_offer: Option<OfferId>,
}

/// Cumulative kernel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Messages sent (local + remote).
    pub sends: u64,
    /// Completed receives.
    pub deliveries: u64,
    /// Replies completed.
    pub replies: u64,
    /// Packets emitted.
    pub packets_out: u64,
    /// Packets consumed.
    pub packets_in: u64,
    /// Times a send blocked on buffer shortage.
    pub buffer_stalls: u64,
    /// Send packets parked on a buffer shortage until a buffer frees
    /// (§3.2.3); a parked packet counts in `packets_in` once replayed.
    pub packets_parked: u64,
}

/// The per-node message kernel.
#[derive(Debug)]
pub struct Kernel {
    node: NodeId,
    tasks: Vec<Task>,
    /// Per-task IPC state, indexed like `tasks`.
    ipc: Vec<TaskIpc>,
    services: Vec<Service>,
    buffers: Box<dyn BufferQueue>,
    /// The message each kernel buffer holds while queued on a service,
    /// indexed by [`BufferId`]; one slot per buffer.
    queued: Vec<Option<QueuedMessage>>,
    /// Every offer made, in the order made.
    offers: Vec<Offer>,
    computation_list: PriorityList,
    communication_list: PriorityList,
    /// Sends blocked on buffer shortage, retried as buffers free.
    resource_waiters: VecDeque<TaskId>,
    /// Incoming packets parked during buffer shortage.
    pending_packets: VecDeque<Packet>,
    stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel for `node` with `buffer_capacity` kernel buffers.
    pub fn new(node: NodeId, buffer_capacity: usize) -> Kernel {
        Kernel::with_queues(node, Box::new(BufferPool::new(buffer_capacity)), 0, 0)
    }

    /// Creates a kernel whose buffer free list is supplied by the caller —
    /// the live runtime passes one backed by `smartmem`'s shared
    /// transactions, so every buffer acquisition is a real operation on the
    /// shared module (§5.1). The task tables are sized for `tasks` tasks
    /// and the service and offer tables for `services` services offered
    /// once each up front, so a node built to a known size holds no growth
    /// slack; creating more still works.
    pub fn with_queues(
        node: NodeId,
        buffers: Box<dyn BufferQueue>,
        tasks: usize,
        services: usize,
    ) -> Kernel {
        Kernel {
            node,
            tasks: Vec::with_capacity(tasks),
            ipc: Vec::with_capacity(tasks),
            services: Vec::with_capacity(services),
            queued: vec![None; buffers.capacity()],
            offers: Vec::with_capacity(services),
            buffers,
            computation_list: PriorityList::default(),
            communication_list: PriorityList::default(),
            resource_waiters: VecDeque::new(),
            pending_packets: VecDeque::new(),
            stats: KernelStats::default(),
        }
    }

    /// This kernel's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Statistics so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Creates a task with an address space of `space` bytes (0 allocates
    /// none). It starts computing but off the computation list: its creator
    /// runs it, and only the kernel's own scheduling puts a task on the
    /// list. The kernel names tasks by [`TaskId`] only; `_name` labels the
    /// call site.
    pub fn create_task(&mut self, _name: impl Into<String>, priority: u8, space: usize) -> TaskId {
        self.tasks.push(Task::new(priority, space));
        self.ipc.push(TaskIpc::default());
        TaskId(self.tasks.len() as u32 - 1)
    }

    /// Creates a service. The kernel names services by [`ServiceId`] only;
    /// `_name` labels the call site.
    pub fn create_service(&mut self, _name: impl Into<String>) -> ServiceId {
        self.services.push(Service::default());
        ServiceId(self.services.len() as u32 - 1)
    }

    /// Number of messages currently queued on a service.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownService`] for an id never created.
    pub fn service_queue_len(&self, id: ServiceId) -> Result<usize, KernelError> {
        self.service(id).map(Service::len)
    }

    /// Immutable task lookup.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] for an id never created.
    pub fn task(&self, id: TaskId) -> Result<&Task, KernelError> {
        self.tasks
            .get(id.0 as usize)
            .ok_or(KernelError::UnknownTask(id))
    }

    fn task_mut(&mut self, id: TaskId) -> Result<&mut Task, KernelError> {
        self.tasks
            .get_mut(id.0 as usize)
            .ok_or(KernelError::UnknownTask(id))
    }

    fn service(&self, id: ServiceId) -> Result<&Service, KernelError> {
        self.services
            .get(id.0 as usize)
            .ok_or(KernelError::UnknownService(id))
    }

    /// IPC state of a task (`None` for an id never created).
    fn ipc(&self, task: TaskId) -> Option<&TaskIpc> {
        self.ipc.get(task.0 as usize)
    }

    fn ipc_mut(&mut self, task: TaskId) -> Option<&mut TaskIpc> {
        self.ipc.get_mut(task.0 as usize)
    }

    /// Whether a message is queued on `sid` (false for an unknown service).
    fn has_messages(&self, sid: ServiceId) -> bool {
        self.service(sid).is_ok_and(|s| !s.is_empty())
    }

    /// The services `task` offers, in offer order, with the offer of each.
    fn offers_of(&self, task: TaskId) -> impl Iterator<Item = (OfferId, ServiceId)> + '_ {
        let mut next = self.ipc(task).and_then(|s| s.first_offer);
        std::iter::from_fn(move || {
            let id = next?;
            let offer = &self.offers[id.0 as usize];
            next = offer.next;
            Some((id, offer.service))
        })
    }

    /// Appends an offer of `service` to `task`'s chain.
    fn add_offer(&mut self, task: TaskId, service: ServiceId) {
        let id = OfferId(self.offers.len() as u32);
        let last = self.offers_of(task).last().map(|(last, _)| last);
        self.offers.push(Offer::new(task, service));
        match last {
            Some(last) => self.offers[last.0 as usize].next = Some(id),
            None => self.ipc[task.0 as usize].first_offer = Some(id),
        }
    }

    /// Host side: the task issues a communication request and moves to the
    /// communication list (Figure 4.4).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] or [`KernelError::RequestOutstanding`].
    pub fn submit(&mut self, task: TaskId, request: Syscall) -> Result<(), KernelError> {
        self.place_request(task, request)?;
        let p = self.tasks[task.0 as usize].priority;
        self.communication_list.insert_by_priority(task, p);
        Ok(())
    }

    /// Records a task's pending request and marks it communicating
    /// *without* touching the communication list. The live runtime's host
    /// threads enqueue the TCB on the shared communication queue themselves
    /// (the §4.4 host side of Figure 4.4); the MP pops the queue and calls
    /// this before [`Kernel::process`].
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] or [`KernelError::RequestOutstanding`].
    pub fn place_request(&mut self, task: TaskId, request: Syscall) -> Result<(), KernelError> {
        if self.ipc(task).is_some_and(|s| s.request.is_some()) {
            return Err(KernelError::RequestOutstanding(task));
        }
        self.task_mut(task)?.state = TaskState::Communicating;
        self.ipc[task.0 as usize].request = Some(request);
        Ok(())
    }

    /// MP side: first task of the communication list, if any (Figure 4.5).
    pub fn next_communication(&mut self) -> Option<TaskId> {
        self.communication_list.pop_front()
    }

    /// The request a task has pending (for cost attribution by simulators).
    pub fn pending_request(&self, task: TaskId) -> Option<&Syscall> {
        self.ipc(task)?.request.as_ref()
    }

    /// The rendezvous server `task` is inside, if any.
    fn rendezvous(&self, task: TaskId) -> Option<RendezvousInfo> {
        self.ipc(task)?.rendezvous
    }

    /// Whether `task` is a server currently inside a rendezvous (received a
    /// remote-invocation message it has not yet replied to).
    pub fn in_rendezvous(&self, task: TaskId) -> bool {
        self.rendezvous(task).is_some()
    }

    /// Host side: first task of the computation list, if any. Whoever
    /// drives the kernel drains the list after the calls that make tasks
    /// runnable ([`Kernel::process`], [`Kernel::handle_packet`]).
    pub fn next_computation(&mut self) -> Option<TaskId> {
        self.computation_list.pop_front()
    }

    /// Puts a created task on the computation list — the list's only
    /// producer. A task is on it at most once: only a communicating or
    /// stopped task is made runnable.
    fn make_runnable(&mut self, task: TaskId) {
        let t = &mut self.tasks[task.0 as usize];
        debug_assert_ne!(t.state, TaskState::Computing, "{task} made runnable twice");
        t.state = TaskState::Computing;
        self.computation_list.insert_by_priority(task, t.priority);
    }

    /// Stops a created task.
    fn stop(&mut self, task: TaskId) {
        self.tasks[task.0 as usize].state = TaskState::Stopped;
    }

    /// MP side: execute `task`'s pending communication request. Returns the
    /// events produced (deliveries, packets to transmit); the tasks it made
    /// runnable are on the computation list.
    ///
    /// # Errors
    ///
    /// Validity-check failures per [`KernelError`]; the request is consumed
    /// either way (the paper's kernels reflect errors to the caller).
    pub fn process(&mut self, task: TaskId) -> Result<Vec<KernelEvent>, KernelError> {
        let request = self
            .ipc_mut(task)
            .and_then(|s| s.request.take())
            .ok_or(KernelError::UnknownTask(task))?;
        let mut events = Vec::new();
        match request {
            Syscall::Send { to, message, mode } => {
                self.do_send(task, to, message, mode, &mut events)?;
            }
            Syscall::Wait => self.do_wait(task, &mut events)?,
            Syscall::Receive => self.do_receive(task, &mut events)?,
            Syscall::Reply { message } => self.do_reply(task, message, &mut events)?,
            Syscall::Offer { service } => {
                self.service(service)?;
                self.task(task)?;
                if self.offers_of(task).any(|(_, s)| s == service) {
                    return Err(KernelError::DuplicateOffer { task, service });
                }
                self.add_offer(task, service);
                self.make_runnable(task);
            }
            Syscall::Inquire => {
                self.task(task)?;
                if self.ipc[task.0 as usize].first_offer.is_none() {
                    return Err(KernelError::NoOffers(task));
                }
                let ready = self.offers_of(task).any(|(_, s)| self.has_messages(s));
                events.push(KernelEvent::InquireResult { task, ready });
                self.make_runnable(task);
            }
            Syscall::MemoryMove {
                direction,
                local_offset,
                length,
            } => {
                self.do_memory_move(task, direction, local_offset, length)?;
                self.make_runnable(task);
            }
        }
        Ok(events)
    }

    /// Post-send scheduling: a blocking invocation stops the client; a
    /// non-blocking one registers an outstanding completion; no-wait just
    /// continues.
    fn after_send(&mut self, client: TaskId, mode: SendMode) {
        match mode {
            SendMode::RemoteInvocation { blocking: true } => self.stop(client),
            SendMode::RemoteInvocation { blocking: false } => {
                self.ipc[client.0 as usize].completion = Some(false);
                self.make_runnable(client);
            }
            SendMode::NoWait => self.make_runnable(client),
        }
    }

    fn do_send(
        &mut self,
        client: TaskId,
        to: ServiceAddr,
        message: Message,
        mode: SendMode,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        self.task(client)?;
        let await_reply = mode.awaits_reply();
        if to.node != self.node {
            // Non-local: one packet mirroring the send call.
            self.stats.sends += 1;
            self.stats.packets_out += 1;
            events.push(KernelEvent::PacketOut(Packet {
                from: self.node,
                to: to.node,
                body: PacketBody::SendMsg {
                    service: to.service,
                    client,
                    message,
                    await_reply,
                },
            }));
            self.after_send(client, mode);
            return Ok(());
        }

        let reply_to = await_reply.then_some(ReplyTo::Local(client));
        let retrying = std::mem::take(&mut self.ipc[client.0 as usize].retrying);
        match self.deliver_to_service(to.service, message, reply_to, events)? {
            Delivery::Direct => {
                self.stats.sends += 1;
                self.after_send(client, mode);
                if retrying {
                    // A retry that went straight to a waiting server holds
                    // no buffer: the one freed for it is still free, so it
                    // passes to the next stalled send.
                    self.retry_stalled(events)?;
                }
            }
            Delivery::Queued => {
                self.stats.sends += 1;
                self.after_send(client, mode);
            }
            Delivery::NoBuffer => {
                // Block the client on the resource; retry when a buffer
                // frees (§3.2.3).
                self.stats.buffer_stalls += 1;
                self.ipc[client.0 as usize].request = Some(Syscall::Send { to, message, mode });
                self.resource_waiters.push_back(client);
                self.stop(client);
            }
        }
        Ok(())
    }

    /// `Wait` (§4.2.1): returns immediately when the awaited response has
    /// already arrived; otherwise the client stops until it does.
    fn do_wait(
        &mut self,
        client: TaskId,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        let slot = self
            .ipc_mut(client)
            .ok_or(KernelError::NoRendezvous(client))?;
        match slot.completion {
            Some(true) => {
                slot.completion = None;
                events.push(KernelEvent::WaitComplete { client });
                self.make_runnable(client);
            }
            Some(false) => {
                slot.in_wait = true;
                self.stop(client);
            }
            None => return Err(KernelError::NoRendezvous(client)),
        }
        Ok(())
    }

    fn do_receive(
        &mut self,
        server: TaskId,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        self.task(server)?;
        let first = self.ipc[server.0 as usize]
            .first_offer
            .ok_or(KernelError::NoOffers(server))?;
        // First waiting message across the offered services, in offer order.
        let ready = self
            .offers_of(server)
            .map(|(_, s)| s)
            .find(|&s| self.has_messages(s));
        if let Some(sid) = ready {
            return self.deliver_first(sid, server, events);
        }
        // Nothing waiting: park on every offered service.
        let mut next = Some(first);
        while let Some(id) = next {
            let offer = &self.offers[id.0 as usize];
            next = offer.next;
            service_in(&mut self.services, offer.service)?.wait(&mut self.offers, id);
        }
        self.stop(server);
        Ok(())
    }

    /// Takes `server` off the waiting list of every service it offers —
    /// the only lists [`Kernel::do_receive`] ever parks it on.
    fn leave_waiting_lists(&mut self, server: TaskId) {
        let mut next = self.ipc(server).and_then(|s| s.first_offer);
        while let Some(id) = next {
            let offer = &self.offers[id.0 as usize];
            next = offer.next;
            if let Ok(svc) = service_in(&mut self.services, offer.service) {
                svc.leave(&mut self.offers, id);
            }
        }
    }

    /// Completes a receive: the server leaves its waiting lists, enters the
    /// rendezvous when the sender awaits a reply, and becomes runnable with
    /// the message in its control block.
    fn hand_to_server(
        &mut self,
        server: TaskId,
        message: Message,
        reply_to: Option<ReplyTo>,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        self.leave_waiting_lists(server);
        self.task_mut(server)?.delivered = Some(message);
        if let Some(reply_to) = reply_to {
            self.ipc[server.0 as usize].rendezvous = Some(RendezvousInfo {
                reply_to,
                memory_ref: message.memory_ref,
            });
        }
        self.stats.deliveries += 1;
        events.push(KernelEvent::Delivered { server });
        self.make_runnable(server);
        Ok(())
    }

    fn deliver_first(
        &mut self,
        sid: ServiceId,
        server: TaskId,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        let (buffer, qm) = service_in(&mut self.services, sid)?
            .pop_front(&mut self.queued)
            .expect("caller checked non-empty");
        self.buffers.release(buffer);
        self.hand_to_server(server, qm.message, qm.reply_to, events)?;
        // A freed buffer may unblock a stalled send.
        self.retry_stalled(events)
    }

    /// Hands a free buffer to the work stalled on a shortage: parked
    /// packets are replayed while buffers are free, then the first stalled
    /// send is re-submitted at the front of the communication list, so it
    /// retries before new work. A retried send that goes straight to a
    /// waiting server comes back here ([`Kernel::do_send`]), so no send
    /// stays stalled while a buffer is free.
    fn retry_stalled(&mut self, events: &mut Vec<KernelEvent>) -> Result<(), KernelError> {
        while self.buffers.available() > 0 {
            // Prefer parked packets (network data must drain first to avoid
            // overrun), then blocked sends.
            if let Some(packet) = self.pending_packets.pop_front() {
                let evs = self.handle_packet(packet)?;
                events.extend(evs);
                continue;
            }
            let Some(task) = self.resource_waiters.pop_front() else {
                break;
            };
            let t = &mut self.tasks[task.0 as usize];
            t.state = TaskState::Communicating;
            self.communication_list.push_front(task, t.priority);
            self.ipc[task.0 as usize].retrying = true;
            break;
        }
        Ok(())
    }

    fn do_reply(
        &mut self,
        server: TaskId,
        message: Message,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        let info = self
            .ipc_mut(server)
            .and_then(|s| s.rendezvous.take())
            .ok_or(KernelError::NoRendezvous(server))?;
        self.stats.replies += 1;
        match info.reply_to {
            ReplyTo::Local(client) => self.deliver_reply(client, message, events)?,
            ReplyTo::Remote { node, task } => {
                self.stats.packets_out += 1;
                events.push(KernelEvent::PacketOut(Packet {
                    from: self.node,
                    to: node,
                    body: PacketBody::ReplyMsg {
                        client: task,
                        message,
                    },
                }));
            }
        }
        // The server continues computing; it has lost all access rights to
        // the enclosed memory reference (§4.2.1).
        self.make_runnable(server);
        Ok(())
    }

    fn do_memory_move(
        &mut self,
        server: TaskId,
        direction: MoveDirection,
        local_offset: u32,
        length: u32,
    ) -> Result<(), KernelError> {
        let info = self
            .rendezvous(server)
            .ok_or(KernelError::NoRendezvous(server))?;
        let mref = info.memory_ref.ok_or(KernelError::AccessViolation {
            task: server,
            reason: "message enclosed no memory reference",
        })?;
        let ReplyTo::Local(client) = info.reply_to else {
            return Err(KernelError::AccessViolation {
                task: server,
                reason: "memory reference belongs to a remote client",
            });
        };
        if length > mref.length {
            return Err(KernelError::AccessViolation {
                task: server,
                reason: "move exceeds granted segment",
            });
        }
        match direction {
            MoveDirection::FromClient if !mref.rights.read => {
                return Err(KernelError::AccessViolation {
                    task: server,
                    reason: "no read right",
                });
            }
            MoveDirection::ToClient if !mref.rights.write => {
                return Err(KernelError::AccessViolation {
                    task: server,
                    reason: "no write right",
                });
            }
            _ => {}
        }
        let (c_off, s_off, len) = (mref.offset as usize, local_offset as usize, length as usize);
        // Bounds checks against both address spaces.
        let c_len = self.task(client)?.address_space.len();
        let s_len = self.task(server)?.address_space.len();
        if c_off + len > c_len || s_off + len > s_len {
            return Err(KernelError::AccessViolation {
                task: server,
                reason: "segment outside address space",
            });
        }
        // Copy via a scratch buffer: the borrows are on two distinct tasks
        // but the checker cannot know that.
        match direction {
            MoveDirection::FromClient => {
                let data = self.task(client)?.address_space[c_off..c_off + len].to_vec();
                self.task_mut(server)?.address_space[s_off..s_off + len].copy_from_slice(&data);
            }
            MoveDirection::ToClient => {
                let data = self.task(server)?.address_space[s_off..s_off + len].to_vec();
                self.task_mut(client)?.address_space[c_off..c_off + len].copy_from_slice(&data);
            }
        }
        Ok(())
    }

    /// Delivers a reply to a client, honoring the non-blocking-send
    /// protocol.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] for a client this node never created
    /// (only a packet can name one); nothing changes.
    fn deliver_reply(
        &mut self,
        client: TaskId,
        message: Message,
        events: &mut Vec<KernelEvent>,
    ) -> Result<(), KernelError> {
        self.task_mut(client)?.delivered = Some(message);
        events.push(KernelEvent::ReplyDelivered { client });
        let slot = &mut self.ipc[client.0 as usize];
        if slot.completion.is_some() {
            slot.completion = Some(true);
            if std::mem::take(&mut slot.in_wait) {
                slot.completion = None;
                events.push(KernelEvent::WaitComplete { client });
                self.make_runnable(client);
            }
            // A non-waiting, non-blocking client keeps running; nothing to
            // schedule.
        } else {
            self.make_runnable(client);
        }
        Ok(())
    }

    fn deliver_to_service(
        &mut self,
        sid: ServiceId,
        message: Message,
        reply_to: Option<ReplyTo>,
        events: &mut Vec<KernelEvent>,
    ) -> Result<Delivery, KernelError> {
        let waiting = self.service(sid)?.first_waiting(&self.offers);
        if let Some(server) = waiting {
            // Direct rendezvous: the message passes through a kernel buffer
            // momentarily; account for it without leaving it held. On a
            // shortage the server stays first in line.
            let Some(buf) = self.buffers.acquire() else {
                return Ok(Delivery::NoBuffer);
            };
            self.buffers.release(buf);
            self.hand_to_server(server, message, reply_to, events)?;
            Ok(Delivery::Direct)
        } else {
            let Some(buffer) = self.buffers.acquire() else {
                return Ok(Delivery::NoBuffer);
            };
            service_in(&mut self.services, sid)?.push_back(
                &mut self.queued,
                buffer,
                message,
                reply_to,
            );
            Ok(Delivery::Queued)
        }
    }

    /// MP side: handle an arriving network packet (the network interrupt
    /// path of Figure 4.5).
    ///
    /// # Errors
    ///
    /// [`KernelError::BadPacket`] for misrouted packets; service/task
    /// validity errors otherwise. A rejected packet changes nothing.
    pub fn handle_packet(&mut self, packet: Packet) -> Result<Vec<KernelEvent>, KernelError> {
        if packet.to != self.node {
            return Err(KernelError::BadPacket("packet routed to wrong node"));
        }
        let mut events = Vec::new();
        match packet.body {
            PacketBody::SendMsg {
                service,
                client,
                message,
                await_reply,
            } => {
                let reply_to = await_reply.then_some(ReplyTo::Remote {
                    node: packet.from,
                    task: client,
                });
                match self.deliver_to_service(service, message, reply_to, &mut events)? {
                    Delivery::Direct | Delivery::Queued => self.stats.packets_in += 1,
                    Delivery::NoBuffer => {
                        // Park the packet until a buffer frees: the network
                        // interface's receive buffering absorbs the burst.
                        self.stats.packets_parked += 1;
                        self.pending_packets.push_back(Packet {
                            from: packet.from,
                            to: packet.to,
                            body: PacketBody::SendMsg {
                                service,
                                client,
                                message,
                                await_reply,
                            },
                        });
                    }
                }
            }
            PacketBody::ReplyMsg { client, message } => {
                self.deliver_reply(client, message, &mut events)?;
                self.stats.packets_in += 1;
            }
        }
        Ok(events)
    }

    /// Kernel buffers currently free.
    pub fn buffers_available(&self) -> usize {
        self.buffers.available()
    }

    /// Loads bytes into a task's address space — the program/data loading a
    /// real kernel performs at task creation.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownTask`] for an id never created, or
    /// [`KernelError::AccessViolation`] if the range exceeds the task's
    /// address space.
    pub fn load_address_space(
        &mut self,
        task: TaskId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let t = self.task_mut(task)?;
        let end = offset + data.len();
        if end > t.address_space.len() {
            return Err(KernelError::AccessViolation {
                task,
                reason: "segment outside address space",
            });
        }
        t.address_space[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Direct mutable access to a task — test-only backdoor for seeding
    /// address spaces.
    #[cfg(test)]
    pub(crate) fn task_mut_for_tests(&mut self, id: TaskId) -> &mut Task {
        self.task_mut(id).expect("live task")
    }
}

/// Service `id` of a service table. A free function, so a caller can hold
/// the service beside the kernel's buffer slots or offer table, which its
/// queues are linked through.
fn service_in(services: &mut [Service], id: ServiceId) -> Result<&mut Service, KernelError> {
    services
        .get_mut(id.0 as usize)
        .ok_or(KernelError::UnknownService(id))
}

/// Internal delivery outcome.
enum Delivery {
    /// Handed straight to a waiting server.
    Direct,
    /// Queued on the service (holds a kernel buffer).
    Queued,
    /// No kernel buffer free.
    NoBuffer,
}

#[cfg(test)]
mod queue_model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{AccessRights, MemoryRef};

    fn kernel() -> Kernel {
        Kernel::new(NodeId(0), 8)
    }

    /// Drains the MP side: process every pending communication request and
    /// return all events.
    fn drain(k: &mut Kernel) -> Vec<KernelEvent> {
        let mut events = Vec::new();
        while let Some(t) = k.next_communication() {
            events.extend(k.process(t).unwrap());
        }
        events
    }

    fn addr(k: &Kernel, s: ServiceId) -> ServiceAddr {
        ServiceAddr {
            node: k.node(),
            service: s,
        }
    }

    #[test]
    fn blocking_remote_invocation_rendezvous() {
        // The §4.5 scenario: client send; server receive; match; reply.
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("echo");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        // Server posts receive first: it stops.
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        assert_eq!(k.task(server).unwrap().state, TaskState::Stopped);

        // Client sends: rendezvous, server runnable with the message,
        // client stopped awaiting reply.
        let msg = Message::from_bytes(b"ping");
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: msg,
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::Delivered { server: s } if *s == server)));
        assert_eq!(k.task(client).unwrap().state, TaskState::Stopped);
        assert_eq!(k.task(server).unwrap().state, TaskState::Computing);
        assert_eq!(
            &k.task(server).unwrap().delivered.unwrap().data[..4],
            b"ping"
        );

        // Server replies: client runnable with the reply.
        k.submit(
            server,
            Syscall::Reply {
                message: Message::from_bytes(b"pong"),
            },
        )
        .unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::ReplyDelivered { client: c } if *c == client)));
        assert_eq!(k.task(client).unwrap().state, TaskState::Computing);
        assert_eq!(
            &k.task(client).unwrap().delivered.unwrap().data[..4],
            b"pong"
        );
    }

    #[test]
    fn send_before_receive_queues_message() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::from_bytes(b"x"),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        drain(&mut k);
        // One buffer held by the queued message.
        assert_eq!(k.buffers_available(), 7);
        k.submit(server, Syscall::Receive).unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::Delivered { .. })));
        // Buffer released on delivery.
        assert_eq!(k.buffers_available(), 8);
    }

    #[test]
    fn no_wait_send_does_not_block_client() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let svc = k.create_service("log");
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::NoWait,
            },
        )
        .unwrap();
        drain(&mut k);
        assert_eq!(k.task(client).unwrap().state, TaskState::Computing);
    }

    #[test]
    fn buffer_exhaustion_blocks_sender_and_retries() {
        let mut k = Kernel::new(NodeId(0), 1);
        let c1 = k.create_task("c1", 1, 64);
        let c2 = k.create_task("c2", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        // Two queued sends with one buffer: the second stalls.
        k.submit(
            c1,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        k.submit(
            c2,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        drain(&mut k);
        assert_eq!(k.task(c2).unwrap().state, TaskState::Stopped);
        assert_eq!(k.stats().buffer_stalls, 1);
        // Server receives c1's message: buffer frees, c2's send retries.
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        // c2's message is now queued on the service.
        assert_eq!(k.buffers_available(), 0);
        k.submit(
            server,
            Syscall::Reply {
                message: Message::empty(),
            },
        )
        .unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Receive).unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::Delivered { .. })));
    }

    /// A send packet that finds no free buffer is parked, counted once,
    /// and counted in as a packet once a freed buffer replays it.
    #[test]
    fn a_packet_parked_on_a_shortage_counts_once() {
        let mut k = Kernel::new(NodeId(1), 1);
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        // A local send queues on the service and holds the only buffer.
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        drain(&mut k);
        let counts = |k: &Kernel| (k.stats().packets_parked, k.stats().packets_in);
        let packet = Packet {
            from: NodeId(0),
            to: NodeId(1),
            body: PacketBody::SendMsg {
                service: svc,
                client: TaskId(0),
                message: Message::from_bytes(b"remote"),
                await_reply: true,
            },
        };
        assert!(k.handle_packet(packet).unwrap().is_empty());
        assert_eq!(counts(&k), (1, 0));
        // The server takes the local message: its buffer frees and the
        // parked packet is replayed into it.
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        assert_eq!((k.buffers_available(), counts(&k)), (0, (1, 1)));
    }

    #[test]
    fn remote_send_emits_mirroring_packet() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let remote = ServiceAddr {
            node: NodeId(1),
            service: ServiceId(0),
        };
        k.submit(
            client,
            Syscall::Send {
                to: remote,
                message: Message::from_bytes(b"hi"),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        let events = drain(&mut k);
        let packet = events.iter().find_map(|e| match e {
            KernelEvent::PacketOut(p) => Some(p.clone()),
            _ => None,
        });
        let p = packet.expect("send packet");
        assert_eq!(p.from, NodeId(0));
        assert_eq!(p.to, NodeId(1));
        assert!(matches!(
            p.body,
            PacketBody::SendMsg {
                await_reply: true,
                ..
            }
        ));
        assert_eq!(k.task(client).unwrap().state, TaskState::Stopped);
    }

    #[test]
    fn full_cross_node_round_trip() {
        // Two kernels joined by hand-carried packets: exactly two packets
        // per round trip (§4.6).
        let mut a = Kernel::new(NodeId(0), 8);
        let mut b = Kernel::new(NodeId(1), 8);
        let client = a.create_task("client", 1, 64);
        let server = b.create_task("server", 1, 64);
        let svc = b.create_service("remote-svc");
        b.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut b);
        b.submit(server, Syscall::Receive).unwrap();
        drain(&mut b);

        a.submit(
            client,
            Syscall::Send {
                to: ServiceAddr {
                    node: NodeId(1),
                    service: svc,
                },
                message: Message::from_bytes(b"req"),
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        let events = drain(&mut a);
        let send_packet = events
            .iter()
            .find_map(|e| match e {
                KernelEvent::PacketOut(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();

        let events = b.handle_packet(send_packet).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::Delivered { .. })));
        b.submit(
            server,
            Syscall::Reply {
                message: Message::from_bytes(b"rsp"),
            },
        )
        .unwrap();
        let events = drain(&mut b);
        let reply_packet = events
            .iter()
            .find_map(|e| match e {
                KernelEvent::PacketOut(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(reply_packet.body, PacketBody::ReplyMsg { .. }));

        let events = a.handle_packet(reply_packet).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::ReplyDelivered { client: c } if *c == client)));
        assert_eq!(
            &a.task(client).unwrap().delivered.unwrap().data[..3],
            b"rsp"
        );
        assert_eq!(a.stats().packets_out, 1);
        assert_eq!(a.stats().packets_in, 1);
        assert_eq!(b.stats().packets_out, 1);
        assert_eq!(b.stats().packets_in, 1);
    }

    #[test]
    fn memory_move_editor_file_server_scenario() {
        // Figure 4.2: the editor sends a memory reference; the file server
        // writes a page into the editor's buffer and replies.
        let mut k = kernel();
        let editor = k.create_task("editor", 1, 4096);
        let file_server = k.create_task("file-server", 1, 4096);
        let svc = k.create_service("files");
        k.submit(file_server, Syscall::Offer { service: svc })
            .unwrap();
        drain(&mut k);
        k.submit(file_server, Syscall::Receive).unwrap();
        drain(&mut k);

        // Pretend the file server has the page at offset 0.
        k.task_mut_for_tests(file_server).address_space[..4].copy_from_slice(b"page");

        let msg = Message::from_bytes(b"read block 7").with_memory_ref(MemoryRef {
            offset: 100,
            length: 512,
            rights: AccessRights::read_write(),
        });
        k.submit(
            editor,
            Syscall::Send {
                to: addr(&k, svc),
                message: msg,
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        drain(&mut k);

        k.submit(
            file_server,
            Syscall::MemoryMove {
                direction: MoveDirection::ToClient,
                local_offset: 0,
                length: 512,
            },
        )
        .unwrap();
        drain(&mut k);
        assert_eq!(&k.task(editor).unwrap().address_space[100..104], b"page");

        k.submit(
            file_server,
            Syscall::Reply {
                message: Message::empty(),
            },
        )
        .unwrap();
        drain(&mut k);
        assert_eq!(k.task(editor).unwrap().state, TaskState::Computing);
        // Rights are gone after the reply.
        k.submit(
            file_server,
            Syscall::MemoryMove {
                direction: MoveDirection::ToClient,
                local_offset: 0,
                length: 4,
            },
        )
        .unwrap();
        let t = k.next_communication().unwrap();
        let err = k.process(t).unwrap_err();
        assert!(matches!(err, KernelError::NoRendezvous(_)));
    }

    #[test]
    fn memory_move_rights_enforced() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 256);
        let server = k.create_task("server", 1, 256);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        let msg = Message::empty().with_memory_ref(MemoryRef {
            offset: 0,
            length: 16,
            rights: AccessRights::read_only(),
        });
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: msg,
                mode: SendMode::invocation(),
            },
        )
        .unwrap();
        drain(&mut k);
        // Write into a read-only segment is refused.
        k.submit(
            server,
            Syscall::MemoryMove {
                direction: MoveDirection::ToClient,
                local_offset: 0,
                length: 8,
            },
        )
        .unwrap();
        let t = k.next_communication().unwrap();
        let err = k.process(t).unwrap_err();
        assert!(matches!(
            err,
            KernelError::AccessViolation {
                reason: "no write right",
                ..
            }
        ));
        // Over-length move is refused.
        k.submit(
            server,
            Syscall::MemoryMove {
                direction: MoveDirection::FromClient,
                local_offset: 0,
                length: 32,
            },
        )
        .unwrap();
        let t = k.next_communication().unwrap();
        let err = k.process(t).unwrap_err();
        assert!(matches!(
            err,
            KernelError::AccessViolation {
                reason: "move exceeds granted segment",
                ..
            }
        ));
    }

    #[test]
    fn inquire_polls_offered_services() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Inquire).unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::InquireResult { ready: false, .. })));
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::NoWait,
            },
        )
        .unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Inquire).unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::InquireResult { ready: true, .. })));
    }

    #[test]
    fn receive_without_offers_is_an_error() {
        let mut k = kernel();
        let t = k.create_task("t", 1, 64);
        k.submit(t, Syscall::Receive).unwrap();
        let id = k.next_communication().unwrap();
        assert_eq!(k.process(id).unwrap_err(), KernelError::NoOffers(t));
    }

    #[test]
    fn double_submission_rejected() {
        let mut k = kernel();
        let t = k.create_task("t", 1, 64);
        k.submit(t, Syscall::Inquire).unwrap();
        assert_eq!(
            k.submit(t, Syscall::Inquire).unwrap_err(),
            KernelError::RequestOutstanding(t)
        );
    }

    #[test]
    fn misrouted_packet_rejected() {
        let mut k = kernel();
        let p = Packet {
            from: NodeId(2),
            to: NodeId(9),
            body: PacketBody::ReplyMsg {
                client: TaskId(0),
                message: Message::empty(),
            },
        };
        assert!(matches!(k.handle_packet(p), Err(KernelError::BadPacket(_))));
    }

    /// A reply packet can name any task id; one this node never created is
    /// rejected as bad input and leaves the kernel as it was.
    #[test]
    fn reply_packet_for_an_unknown_task_is_rejected() {
        // A node with a queued message (one buffer held), a server parked
        // on a second service, and tasks on the computation list.
        let node = || {
            let mut k = kernel();
            let client = k.create_task("client", 1, 64);
            let server = k.create_task("server", 1, 64);
            let (queued, waited) = (k.create_service("q"), k.create_service("w"));
            k.submit(server, Syscall::Offer { service: waited })
                .unwrap();
            drain(&mut k);
            k.submit(server, Syscall::Receive).unwrap();
            drain(&mut k);
            send_no_wait(&mut k, client, queued);
            (k, client, waited)
        };
        let (mut k, client, waited) = node();
        let (mut twin, ..) = node();
        let stranger = TaskId(99);
        let reply = Packet {
            from: NodeId(1),
            to: k.node(),
            body: PacketBody::ReplyMsg {
                client: stranger,
                message: Message::empty(),
            },
        };
        assert_eq!(
            k.handle_packet(reply).unwrap_err(),
            KernelError::UnknownTask(stranger)
        );
        // Buffers, counters, the waiting list and both scheduling lists are
        // those of a node that never saw the packet.
        let state = |k: &mut Kernel| {
            let (buffers, stats) = (k.buffers_available(), k.stats());
            let reached = send_no_wait(k, client, waited)
                .iter()
                .any(|e| matches!(e, KernelEvent::Delivered { .. }));
            let computation: Vec<TaskId> = std::iter::from_fn(|| k.next_computation()).collect();
            (buffers, stats, reached, computation, k.next_communication())
        };
        let after = state(&mut k);
        assert_eq!(after, state(&mut twin));
        assert_eq!((after.0, after.2), (7, true));
    }

    #[test]
    fn non_blocking_send_then_wait() {
        // §4.2.1: a non-blocking remote-invocation send lets the client
        // continue; a later Wait picks up the response.
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::from_bytes(b"nb"),
                mode: SendMode::RemoteInvocation { blocking: false },
            },
        )
        .unwrap();
        drain(&mut k);
        // The client keeps computing rather than stopping.
        assert_eq!(k.task(client).unwrap().state, TaskState::Computing);

        // Server replies while the client is still "computing".
        k.submit(
            server,
            Syscall::Reply {
                message: Message::from_bytes(b"rsp"),
            },
        )
        .unwrap();
        drain(&mut k);
        assert_eq!(k.task(client).unwrap().state, TaskState::Computing);

        // Wait returns immediately: the response already arrived.
        k.submit(client, Syscall::Wait).unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::WaitComplete { client: c } if *c == client)));
        assert_eq!(
            &k.task(client).unwrap().delivered.unwrap().data[..3],
            b"rsp"
        );
    }

    #[test]
    fn wait_blocks_until_reply() {
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let svc = k.create_service("s");
        k.submit(server, Syscall::Offer { service: svc }).unwrap();
        drain(&mut k);
        k.submit(server, Syscall::Receive).unwrap();
        drain(&mut k);
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::RemoteInvocation { blocking: false },
            },
        )
        .unwrap();
        drain(&mut k);
        // Wait before the reply: the client stops.
        k.submit(client, Syscall::Wait).unwrap();
        drain(&mut k);
        assert_eq!(k.task(client).unwrap().state, TaskState::Stopped);
        // The reply wakes it with a WaitComplete.
        k.submit(
            server,
            Syscall::Reply {
                message: Message::empty(),
            },
        )
        .unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::WaitComplete { client: c } if *c == client)));
        assert_eq!(k.task(client).unwrap().state, TaskState::Computing);
    }

    #[test]
    fn wait_without_outstanding_send_is_an_error() {
        let mut k = kernel();
        let t = k.create_task("t", 1, 64);
        k.submit(t, Syscall::Wait).unwrap();
        let id = k.next_communication().unwrap();
        assert!(matches!(k.process(id), Err(KernelError::NoRendezvous(_))));
    }

    /// A server parked on two offered services.
    fn two_service_server(k: &mut Kernel) -> (TaskId, TaskId, ServiceId, ServiceId) {
        let client = k.create_task("client", 1, 64);
        let server = k.create_task("server", 1, 64);
        let (a, b) = (k.create_service("a"), k.create_service("b"));
        k.submit(server, Syscall::Offer { service: a }).unwrap();
        drain(k);
        k.submit(server, Syscall::Offer { service: b }).unwrap();
        drain(k);
        k.submit(server, Syscall::Receive).unwrap();
        drain(k);
        assert_eq!(k.task(server).unwrap().state, TaskState::Stopped);
        (client, server, a, b)
    }

    fn send_no_wait(k: &mut Kernel, client: TaskId, to: ServiceId) -> Vec<KernelEvent> {
        let to = addr(k, to);
        k.submit(
            client,
            Syscall::Send {
                to,
                message: Message::empty(),
                mode: SendMode::NoWait,
            },
        )
        .unwrap();
        drain(k)
    }

    #[test]
    fn delivery_on_either_offer_takes_the_server_off_both_lists() {
        for (first, second) in [(0, 1), (1, 0)] {
            let mut k = kernel();
            let (client, server, a, b) = two_service_server(&mut k);
            let services = [a, b];
            let events = send_no_wait(&mut k, client, services[first]);
            assert!(events
                .iter()
                .any(|e| matches!(e, KernelEvent::Delivered { server: s } if *s == server)));
            // The busy server is on neither list: a message to its other
            // service queues instead of reaching it.
            let events = send_no_wait(&mut k, client, services[second]);
            assert!(!events
                .iter()
                .any(|e| matches!(e, KernelEvent::Delivered { .. })));
            assert_eq!(k.service_queue_len(services[second]).unwrap(), 1);
            assert_eq!(k.buffers_available(), 7);
            // Its next receive picks the queued message up.
            k.submit(server, Syscall::Receive).unwrap();
            let events = drain(&mut k);
            assert!(events
                .iter()
                .any(|e| matches!(e, KernelEvent::Delivered { server: s } if *s == server)));
            assert_eq!(k.service_queue_len(services[second]).unwrap(), 0);
            assert_eq!(k.buffers_available(), 8);
        }
    }

    #[test]
    fn scheduling_lists_honor_priority() {
        // §4.4: the computation and communication lists are ordered by task
        // scheduling priority (FCFS among equals).
        let mut k = kernel();
        let low1 = k.create_task("low1", 1, 64);
        let low2 = k.create_task("low2", 1, 64);
        let high = k.create_task("high", 5, 64);
        // All three issue a request; the high-priority task jumps the
        // queue despite submitting last.
        for t in [low1, low2, high] {
            let svc = k.create_service("s");
            k.submit(t, Syscall::Offer { service: svc }).unwrap();
        }
        assert_eq!(k.next_communication(), Some(high));
        assert_eq!(k.next_communication(), Some(low1));
        assert_eq!(k.next_communication(), Some(low2));
    }

    #[test]
    fn created_task_starts_off_the_computation_list() {
        let mut k = kernel();
        let t = k.create_task("t", 1, 64);
        assert_eq!(k.task(t).unwrap().state, TaskState::Computing);
        assert_eq!(k.next_computation(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "made runnable twice")]
    fn a_task_is_on_the_computation_list_at_most_once() {
        let mut k = kernel();
        let t = k.create_task("t", 1, 64);
        k.stop(t);
        k.make_runnable(t);
        k.make_runnable(t);
    }

    #[test]
    fn fcfs_among_waiting_servers() {
        // A message goes to the server that has waited longest (§4.2.1).
        let mut k = kernel();
        let client = k.create_task("client", 1, 64);
        let s1 = k.create_task("s1", 1, 64);
        let s2 = k.create_task("s2", 1, 64);
        let svc = k.create_service("s");
        for s in [s1, s2] {
            k.submit(s, Syscall::Offer { service: svc }).unwrap();
        }
        drain(&mut k);
        k.submit(s1, Syscall::Receive).unwrap();
        drain(&mut k);
        k.submit(s2, Syscall::Receive).unwrap();
        drain(&mut k);
        k.submit(
            client,
            Syscall::Send {
                to: addr(&k, svc),
                message: Message::empty(),
                mode: SendMode::NoWait,
            },
        )
        .unwrap();
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::Delivered { server } if *server == s1)));
        assert_eq!(k.task(s2).unwrap().state, TaskState::Stopped);
    }
}
