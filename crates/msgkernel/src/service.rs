//! Services: queueing points for messages (§4.2.1).

use crate::buffer::BufferId;
use crate::message::Message;
use crate::task::{NodeId, TaskId};
use std::fmt;

/// Identifier of a service within its node's kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u32);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

/// A network-wide service address: messages are addressed to services
/// (§3.2.1), local or remote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceAddr {
    /// Node owning the service.
    pub node: NodeId,
    /// Service id on that node.
    pub service: ServiceId,
}

/// A message queued on a service. It is stored in the kernel's slot for
/// the buffer it occupies (§3.2.2) and linked to the next message of the
/// same service by buffer index, as §5.1 links kernel buffers in shared
/// memory: queued-message memory is one slot per kernel buffer, however
/// many services the node holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedMessage {
    pub message: Message,
    /// Reply destination for remote-invocation sends.
    pub reply_to: Option<ReplyTo>,
    /// The buffer of the next message queued on the same service.
    next: Option<BufferId>,
}

/// Where a server's eventual reply goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyTo {
    /// A client task on this node.
    Local(TaskId),
    /// A client on another node (the reply travels as a network packet).
    Remote { node: NodeId, task: TaskId },
}

/// Index of a row in the kernel's offer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OfferId(pub u32);

/// One task's offer of one service: a row of the kernel's offer table. A
/// task's offers are chained in the order it made them; while the task
/// waits to receive, each of its offers is also linked into its service's
/// waiting list. A task's offers and waits therefore take no memory of
/// their own, however many services it serves.
#[derive(Debug, Clone)]
pub(crate) struct Offer {
    pub task: TaskId,
    pub service: ServiceId,
    /// The task's next offer.
    pub next: Option<OfferId>,
    /// On its service's waiting list.
    waiting: bool,
    prev_waiting: Option<OfferId>,
    next_waiting: Option<OfferId>,
}

impl Offer {
    pub(crate) fn new(task: TaskId, service: ServiceId) -> Offer {
        Offer {
            task,
            service,
            next: None,
            waiting: false,
            prev_waiting: None,
            next_waiting: None,
        }
    }
}

/// A service control block: a FIFO of queued messages, kept as the head,
/// tail and length of a list linked through the kernel buffers that hold
/// them, and a FIFO of servers waiting to receive, linked through their
/// offers of the service. A message arriving at a service is delivered to
/// the first waiting server, ordered by time (§4.2.1).
#[derive(Debug, Clone, Default)]
pub(crate) struct Service {
    head: Option<BufferId>,
    tail: Option<BufferId>,
    len: u32,
    first_waiting: Option<OfferId>,
    last_waiting: Option<OfferId>,
}

impl Service {
    /// The server that has waited longest, if any.
    pub(crate) fn first_waiting(&self, offers: &[Offer]) -> Option<TaskId> {
        self.first_waiting.map(|id| offers[id.0 as usize].task)
    }

    /// Appends offer `id` (of this service) to the waiting list, unless it
    /// is already on it.
    pub(crate) fn wait(&mut self, offers: &mut [Offer], id: OfferId) {
        let offer = &mut offers[id.0 as usize];
        if offer.waiting {
            return;
        }
        offer.waiting = true;
        offer.prev_waiting = self.last_waiting;
        offer.next_waiting = None;
        match self.last_waiting.replace(id) {
            Some(last) => offers[last.0 as usize].next_waiting = Some(id),
            None => self.first_waiting = Some(id),
        }
    }

    /// Unlinks offer `id` (of this service) from the waiting list, if it is
    /// on it.
    pub(crate) fn leave(&mut self, offers: &mut [Offer], id: OfferId) {
        let offer = &mut offers[id.0 as usize];
        if !std::mem::take(&mut offer.waiting) {
            return;
        }
        let (prev, next) = (offer.prev_waiting.take(), offer.next_waiting.take());
        match prev {
            Some(p) => offers[p.0 as usize].next_waiting = next,
            None => self.first_waiting = next,
        }
        match next {
            Some(n) => offers[n.0 as usize].prev_waiting = prev,
            None => self.last_waiting = prev,
        }
    }

    /// Messages queued on this service.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no message is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Queues `message`, held in kernel buffer `buffer`, at the tail.
    /// `slots` is the kernel's table of queued messages, indexed by buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer's slot already holds a message — the buffer
    /// free list handed out a buffer that was not free.
    pub(crate) fn push_back(
        &mut self,
        slots: &mut [Option<QueuedMessage>],
        buffer: BufferId,
        message: Message,
        reply_to: Option<ReplyTo>,
    ) {
        let slot = &mut slots[buffer.0 as usize];
        assert!(
            slot.is_none(),
            "kernel buffer {buffer:?} already holds a message"
        );
        *slot = Some(QueuedMessage {
            message,
            reply_to,
            next: None,
        });
        match self.tail.replace(buffer) {
            Some(tail) => slots[tail.0 as usize].as_mut().expect("queued tail").next = Some(buffer),
            None => self.head = Some(buffer),
        }
        self.len += 1;
    }

    /// Unlinks the head message, emptying its slot, and returns it with
    /// the buffer it held (the caller frees the buffer).
    pub(crate) fn pop_front(
        &mut self,
        slots: &mut [Option<QueuedMessage>],
    ) -> Option<(BufferId, QueuedMessage)> {
        let buffer = self.head?;
        let queued = slots[buffer.0 as usize].take().expect("queued head");
        self.head = queued.next;
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        Some((buffer, queued))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_addr_equality() {
        let a = ServiceAddr {
            node: NodeId(0),
            service: ServiceId(1),
        };
        let b = ServiceAddr {
            node: NodeId(0),
            service: ServiceId(1),
        };
        let c = ServiceAddr {
            node: NodeId(1),
            service: ServiceId(1),
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn new_service_is_empty() {
        let s = Service::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.first_waiting(&[]).is_none());
    }

    #[test]
    fn waiting_list_is_fcfs_and_unlinks_anywhere() {
        let mut s = Service::default();
        let mut offers: Vec<Offer> = (0..4)
            .map(|t| Offer::new(TaskId(t), ServiceId(0)))
            .collect();
        for id in [2, 0, 3, 1, 0] {
            // Waiting twice does not queue twice.
            s.wait(&mut offers, OfferId(id));
        }
        let mut order = Vec::new();
        while let Some(task) = s.first_waiting(&offers) {
            order.push(task.0);
            s.leave(&mut offers, OfferId(task.0));
        }
        assert_eq!(order, [2, 0, 3, 1]);
        // Leaving from the middle and the tail keeps the rest in order.
        for id in 0..4 {
            s.wait(&mut offers, OfferId(id));
        }
        s.leave(&mut offers, OfferId(1));
        s.leave(&mut offers, OfferId(3));
        s.leave(&mut offers, OfferId(3));
        s.wait(&mut offers, OfferId(1));
        let mut order = Vec::new();
        while let Some(task) = s.first_waiting(&offers) {
            order.push(task.0);
            s.leave(&mut offers, OfferId(task.0));
        }
        assert_eq!(order, [0, 2, 1]);
        assert!(s.last_waiting.is_none());
    }

    #[test]
    fn queue_links_through_buffer_slots() {
        let mut slots = vec![None; 4];
        let (mut a, mut b) = (Service::default(), Service::default());
        // Two services interleave in one slot table, each in FIFO order.
        for (on_a, buffer, byte) in [(true, 2, 1), (false, 0, 2), (true, 3, 3), (true, 1, 4)] {
            let svc = if on_a { &mut a } else { &mut b };
            svc.push_back(
                &mut slots,
                BufferId(buffer),
                Message::from_bytes(&[byte]),
                None,
            );
        }
        assert_eq!((a.len(), b.len()), (3, 1));
        let mut order = Vec::new();
        while let Some((buffer, q)) = a.pop_front(&mut slots) {
            order.push((buffer.0, q.message.data[0]));
        }
        assert_eq!(order, [(2, 1), (3, 3), (1, 4)]);
        assert!(a.is_empty());
        assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 1);
        // A drained service reuses its slots from an empty list.
        a.push_back(&mut slots, BufferId(3), Message::empty(), None);
        assert_eq!(a.pop_front(&mut slots).map(|(b, _)| b), Some(BufferId(3)));
        assert_eq!(b.pop_front(&mut slots).map(|(b, _)| b), Some(BufferId(0)));
        assert!(slots.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "already holds a message")]
    fn a_held_buffer_is_not_queued_twice() {
        let mut slots = vec![None; 1];
        let mut s = Service::default();
        s.push_back(&mut slots, BufferId(0), Message::empty(), None);
        s.push_back(&mut slots, BufferId(0), Message::empty(), None);
    }
}
