//! The kernel buffer pool.
//!
//! Fixed-size messages are buffered by the kernel (§3.2.2); buffers live in
//! shared memory and are linked into a singly-linked circular free list
//! maintained by the message coprocessor (§5.1). Here the pool tracks only
//! counts and identities — the byte images live in `smartmem` when the
//! hardware is simulated — but it preserves the crucial behaviour that a
//! send *blocks when the pool is exhausted* (Jasmin and 925 both block the
//! requester on a temporary shortage of kernel resources, §3.2.3).

use std::collections::VecDeque;

/// Identifier of a kernel buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// A kernel-buffer free list.
///
/// The default pool (`Kernel::new`) is an in-process deque; the live runtime
/// substitutes a free list backed by `smartmem`'s shared queue
/// transactions, so buffer acquisition is a real atomic operation on the
/// shared module (§5.1 keeps the free-buffer list in shared memory).
pub trait BufferQueue: Send + std::fmt::Debug {
    /// Total buffers in the pool.
    fn capacity(&self) -> usize;
    /// Currently free buffers.
    fn available(&self) -> usize;
    /// Takes the first free buffer, or `None` when exhausted. Buffer ids
    /// run from 0 to `capacity() - 1`: the kernel keeps a queued message
    /// in the slot its buffer's id indexes.
    fn acquire(&mut self) -> Option<BufferId>;
    /// Returns a buffer to the free list.
    fn release(&mut self, buffer: BufferId);
}

/// A bounded pool of kernel message buffers with a free list.
#[derive(Debug, Clone)]
pub(crate) struct BufferPool {
    free: VecDeque<BufferId>,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers, all free.
    pub(crate) fn new(capacity: usize) -> BufferPool {
        BufferPool {
            free: (0..capacity as u32).map(BufferId).collect(),
            capacity,
        }
    }
}

impl BufferQueue for BufferPool {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn available(&self) -> usize {
        self.free.len()
    }

    /// Takes the first free buffer, or `None` when exhausted (the caller
    /// blocks the requesting task).
    fn acquire(&mut self) -> Option<BufferId> {
        self.free.pop_front()
    }

    /// Returns a buffer to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is already free (double release) — a kernel
    /// invariant violation.
    fn release(&mut self, buffer: BufferId) {
        assert!(
            !self.free.contains(&buffer),
            "double release of kernel buffer {buffer:?}"
        );
        assert!(
            (buffer.0 as usize) < self.capacity,
            "foreign buffer {buffer:?}"
        );
        self.free.push_back(buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.available(), 2);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_ne!(a, b);
        assert!(pool.acquire().is_none());
        pool.release(a);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.acquire(), Some(a));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut pool = BufferPool::new(1);
        let a = pool.acquire().unwrap();
        pool.release(a);
        pool.release(a);
    }

    #[test]
    #[should_panic(expected = "foreign buffer")]
    fn foreign_buffer_rejected() {
        let mut pool = BufferPool::new(1);
        pool.release(BufferId(5));
    }
}
