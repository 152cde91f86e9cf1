//! Per-node shared memory: the TCB scheduling queues and the kernel-buffer
//! free list, backed by `smartmem`'s concurrent queue transactions.
//!
//! The mapping mirrors §5.1 and the architectural split of Chapter 6:
//!
//! * Architectures I and II keep every list in one *conventional* module
//!   ([`LockedModule`]) — each transaction runs the linked-list
//!   micro-routines under a module-wide lock, the serialization a
//!   conventional bus imposes on kernel software.
//! * Architecture III keeps every list in one *smart* module
//!   ([`LockFreeModule`]) — each transaction is a single atomic operation.
//! * Architecture IV partitions the smart memory: the TCB lists live in one
//!   module, the kernel-buffer free list in another, so host/MP scheduling
//!   traffic and buffer traffic never contend with each other.
//!
//! Element numbering within a module: task control blocks occupy elements
//! `0..tasks`, kernel buffers `tasks..tasks + buffers` (a module has one
//! link word per element, so the two families must not collide when they
//! share a module).

use archsim::timings::Architecture;
use msgkernel::{BufferId, BufferQueue, TaskId};
use smartmem::shared::{ListId, LockFreeModule, LockedModule, SharedQueue};
use std::sync::{Arc, Mutex};

const COMPUTATION: ListId = ListId(0);
const COMMUNICATION: ListId = ListId(1);

/// One node's shared-memory image: the computation and communication lists
/// (and, on I–III, the buffer free list) as concurrent queue transactions.
#[derive(Debug, Clone)]
pub(crate) struct NodeShm {
    tcb: Arc<dyn SharedQueue>,
}

impl NodeShm {
    /// The most control blocks (tasks + kernel buffers) one node's shared
    /// memory can hold under `arch`: a conventional module is a 64 KiB
    /// image of two-byte words — the NULL word, three list anchors, then
    /// one link per block — while a smart module numbers blocks with a
    /// `u16`.
    pub(crate) fn max_blocks(arch: Architecture) -> u32 {
        match arch {
            Architecture::Uniprocessor | Architecture::MessageCoprocessor => {
                (64 * 1024 - 2 - 2 * 3) / 2
            }
            Architecture::SmartBus | Architecture::PartitionedSmartBus => u32::from(u16::MAX),
        }
    }

    /// Builds the shared memory for `arch` with `tasks` control blocks and
    /// `buffers` kernel buffers, returning the TCB image and the buffer
    /// free list (already full) for [`msgkernel::Kernel::with_queues`],
    /// whose only pluggable queue it is.
    pub(crate) fn for_arch(
        arch: Architecture,
        tasks: u16,
        buffers: u16,
    ) -> (NodeShm, SharedBufferQueue) {
        let elements = tasks
            .checked_add(buffers)
            .expect("tasks + buffers fit a u16");
        match arch {
            Architecture::Uniprocessor | Architecture::MessageCoprocessor => {
                let m: Arc<dyn SharedQueue> = Arc::new(LockedModule::new(3, elements));
                let bq = SharedBufferQueue::new(Arc::clone(&m), ListId(2), tasks, buffers);
                (NodeShm { tcb: m }, bq)
            }
            Architecture::SmartBus => {
                let m: Arc<dyn SharedQueue> = Arc::new(LockFreeModule::new(3, elements));
                let bq = SharedBufferQueue::new(Arc::clone(&m), ListId(2), tasks, buffers);
                (NodeShm { tcb: m }, bq)
            }
            Architecture::PartitionedSmartBus => {
                let tcb: Arc<dyn SharedQueue> = Arc::new(LockFreeModule::new(2, tasks));
                let kb: Arc<dyn SharedQueue> = Arc::new(LockFreeModule::new(1, buffers));
                let bq = SharedBufferQueue::new(kb, ListId(0), 0, buffers);
                (NodeShm { tcb }, bq)
            }
        }
    }

    /// Host side: pop the next runnable task (the §5.1 `First` transaction
    /// on the computation list).
    pub(crate) fn pop_computation(&self) -> Option<TaskId> {
        self.tcb.first(COMPUTATION).map(|e| TaskId(u32::from(e)))
    }

    /// MP side: make a task runnable on the host.
    pub(crate) fn push_computation(&self, task: TaskId) {
        self.tcb.enqueue(COMPUTATION, task.0 as u16);
    }

    /// MP side: pop the next communication request.
    pub(crate) fn pop_communication(&self) -> Option<TaskId> {
        self.tcb.first(COMMUNICATION).map(|e| TaskId(u32::from(e)))
    }

    /// Host side: submit a task's communication request to the MP.
    pub(crate) fn push_communication(&self, task: TaskId) {
        self.tcb.enqueue(COMMUNICATION, task.0 as u16);
    }
}

/// The kernel-buffer free list as shared-queue transactions, plugged into
/// the kernel through [`msgkernel::BufferQueue`]. Only the processor
/// running the kernel proper (the MP) acquires and releases, but the list
/// itself lives in the shared module so every acquisition is a real
/// `First` transaction — on Architecture IV against the kernel-buffer
/// partition.
#[derive(Debug)]
pub(crate) struct SharedBufferQueue {
    module: Arc<dyn SharedQueue>,
    list: ListId,
    /// Element index of buffer 0 within the module.
    base: u16,
    capacity: usize,
    available: usize,
}

impl SharedBufferQueue {
    fn new(module: Arc<dyn SharedQueue>, list: ListId, base: u16, buffers: u16) -> Self {
        for b in 0..buffers {
            module.enqueue(list, base + b);
        }
        SharedBufferQueue {
            module,
            list,
            base,
            capacity: buffers as usize,
            available: buffers as usize,
        }
    }
}

impl BufferQueue for SharedBufferQueue {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn available(&self) -> usize {
        self.available
    }

    fn acquire(&mut self) -> Option<BufferId> {
        let e = self.module.first(self.list)?;
        self.available -= 1;
        Some(BufferId(u32::from(e - self.base)))
    }

    fn release(&mut self, buffer: BufferId) {
        self.module.enqueue(self.list, self.base + buffer.0 as u16);
        self.available += 1;
    }
}

/// A task control block's host↔MP mailboxes. The request slot carries the
/// syscall arguments the host wrote before enqueueing the TCB on the
/// communication list (Figure 4.4); the inbox carries the message the MP
/// deposited before making the task runnable (Figure 4.5).
#[derive(Debug, Default)]
pub(crate) struct TcbSlot {
    /// Host → MP: the pending syscall.
    pub request: Mutex<Option<msgkernel::Syscall>>,
    /// MP → host: the delivered message.
    pub inbox: Mutex<Option<msgkernel::Message>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_queue_cycles_through_the_shared_list() {
        for arch in Architecture::ALL {
            let (_shm, mut bq) = NodeShm::for_arch(arch, 4, 2);
            assert_eq!(bq.capacity(), 2);
            assert_eq!(bq.available(), 2);
            let a = bq.acquire().unwrap();
            let b = bq.acquire().unwrap();
            assert_ne!(a, b);
            assert!(a.0 < 2 && b.0 < 2, "buffer ids are zero-based: {a:?} {b:?}");
            assert!(bq.acquire().is_none());
            assert_eq!(bq.available(), 0);
            bq.release(a);
            assert_eq!(bq.acquire(), Some(a));
        }
    }

    #[test]
    fn scheduling_lists_are_independent_of_buffers() {
        for arch in Architecture::ALL {
            let (shm, mut bq) = NodeShm::for_arch(arch, 4, 2);
            shm.push_computation(TaskId(3));
            shm.push_communication(TaskId(1));
            let _held = bq.acquire().unwrap();
            assert_eq!(shm.pop_computation(), Some(TaskId(3)));
            assert_eq!(shm.pop_communication(), Some(TaskId(1)));
            assert_eq!(shm.pop_computation(), None);
        }
    }
}
