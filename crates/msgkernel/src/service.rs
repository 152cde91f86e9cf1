//! Services: queueing points for messages (§4.2.1).

use crate::task::{NodeId, TaskId};
use std::collections::VecDeque;
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

/// A queued message together with who to reply to and the kernel buffer
/// it occupies until a server receives it.
#[derive(Debug, Clone)]
pub(crate) struct QueuedMessage {
    pub message: crate::message::Message,
    /// Reply destination for remote-invocation sends.
    pub reply_to: Option<ReplyTo>,
    /// The kernel buffer holding the message (§3.2.2).
    pub buffer: crate::buffer::BufferId,
}

/// Where a server's eventual reply goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyTo {
    /// A client task on this node.
    Local(TaskId),
    /// A client on another node (the reply travels as a network packet).
    Remote { node: NodeId, task: TaskId },
}

/// A service control block: a FIFO of buffered messages and a FIFO of
/// servers waiting to receive. A message arriving at a service is delivered
/// to the first waiting server, ordered by time (§4.2.1).
#[derive(Debug, Clone, Default)]
pub(crate) struct Service {
    pub messages: VecDeque<QueuedMessage>,
    pub waiting_servers: VecDeque<TaskId>,
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
        assert!(s.messages.is_empty());
        assert!(s.waiting_servers.is_empty());
    }
}
