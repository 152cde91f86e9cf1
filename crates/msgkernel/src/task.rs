//! Tasks and task control blocks.

use std::fmt;

/// Identifier of a node in the distributed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a task within its node's kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// The three task states of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Executing or ready to execute on the host. A task the kernel makes
    /// runnable enters the computation list once, until the host takes it
    /// off; a created task starts here without being on the list.
    Computing,
    /// Executing or ready to execute on the message coprocessor (on the
    /// communication list).
    Communicating,
    /// Waiting for a message or a reply.
    Stopped,
}

/// A task control block: fixed-size scheduling and delivery state. The
/// kernel's IPC state for the task (its pending request, open rendezvous,
/// outstanding non-blocking send and the services it offers) sits beside
/// it in tables indexed by the same [`TaskId`]. A task has no name: the
/// kernel knows it by id. It owns heap memory only for a non-empty address
/// space.
#[derive(Debug, Clone)]
pub struct Task {
    /// Scheduling priority; higher runs first, FCFS among equals.
    pub priority: u8,
    /// Current state.
    pub state: TaskState,
    /// The task's private address space (fixed at creation).
    pub address_space: Box<[u8]>,
    /// Message delivered by the last completed receive/wait.
    pub delivered: Option<crate::message::Message>,
}

impl Task {
    /// Creates a task with an address space of `space` bytes.
    pub(crate) fn new(priority: u8, space: usize) -> Task {
        Task {
            priority,
            state: TaskState::Computing,
            address_space: vec![0; space].into_boxed_slice(),
            delivered: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_starts_computing() {
        let t = Task::new(1, 1024);
        assert_eq!(t.state, TaskState::Computing);
        assert_eq!(t.address_space.len(), 1024);
        assert!(t.delivered.is_none());
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(TaskId(7).to_string(), "task7");
    }
}
