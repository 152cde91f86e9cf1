//! Thread-shareable queue transactions — the §5.1 primitives as seen from
//! *concurrent* processors.
//!
//! The simulated controller in [`crate::queue`] runs the enqueue / first /
//! dequeue micro-routines to completion on a single-threaded memory image;
//! atomicity is implicit. A *live* node (the `runtime` crate) has a real
//! host thread and a real MP thread racing on the task-control-block and
//! kernel-buffer lists, so the same three transactions must be supplied in
//! a form that is atomic under genuine concurrency. [`SharedQueue`] is that
//! interface, and the two implementations mirror the paper's architectural
//! split:
//!
//! * [`LockedModule`] — Architecture II: the lists live in *conventional*
//!   memory and the kernel software manipulates them inside a critical
//!   section. The implementation literally runs the [`crate::queue`]
//!   pseudo-code transliteration over a [`Memory`] image while holding a
//!   module-wide lock — one processor on the memory at a time, exactly the
//!   serialization a conventional bus imposes.
//! * [`LockFreeModule`] — Architectures III/IV: the smart memory executes a
//!   whole queue transaction atomically within one bus transaction, so
//!   concurrent processors never observe a half-updated list and never
//!   spin on a software lock. Each list is a linearizable non-blocking
//!   MPMC FIFO built from atomic sequence-stamped cells (every slot is an
//!   atomic word, no locks anywhere on the enqueue/first paths).
//!
//! Elements are control-block *indices* (`u16`, like the 16-bit addresses
//! the smart bus carries); a module hosts several independent lists
//! addressed by [`ListId`], mirroring the anchors of §5.1.

use crate::memory::Memory;
use crate::queue;
use crate::NULL_PTR;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A list anchor within a shared module (§5.1 keeps one anchor word per
/// list: the free-buffer list, the computation list, the communication
/// list, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListId(pub u16);

/// The three smart-memory queue transactions, callable concurrently from
/// any number of threads.
pub trait SharedQueue: Send + Sync + std::fmt::Debug {
    /// `Enqueue(element, list)` — appends `element` at the tail.
    fn enqueue(&self, list: ListId, element: u16);
    /// `First(list)` — dequeues and returns the head, or `None` when empty.
    fn first(&self, list: ListId) -> Option<u16>;
    /// `Dequeue(element, list)` — removes `element` wherever it sits; a
    /// no-operation when the element is not on the list.
    fn dequeue(&self, list: ListId, element: u16);
    /// Whether the list is (momentarily) empty. Advisory under concurrency.
    fn is_empty(&self, list: ListId) -> bool;
}

/// Architecture II's conventional shared memory: every transaction runs the
/// genuine singly-linked-circular-list micro-routine over a byte-addressed
/// [`Memory`] image, serialized by one module-wide lock.
#[derive(Debug)]
pub struct LockedModule {
    mem: Mutex<Memory>,
    lists: u16,
    blocks: u16,
}

impl LockedModule {
    /// A module with `lists` anchors and `blocks` control blocks.
    pub fn new(lists: u16, blocks: u16) -> LockedModule {
        // Word 0 is the distinguished NULL; anchors follow, then one
        // two-byte `next` word per control block.
        let bytes = 2 + 2 * (lists as usize) + 2 * (blocks as usize);
        LockedModule {
            mem: Mutex::new(Memory::new(bytes.next_power_of_two().max(64))),
            lists,
            blocks,
        }
    }

    fn anchor(&self, list: ListId) -> u16 {
        assert!(list.0 < self.lists, "list {} out of range", list.0);
        2 + 2 * list.0
    }

    fn block_addr(&self, element: u16) -> u16 {
        assert!(element < self.blocks, "element {element} out of range");
        2 + 2 * self.lists + 2 * element
    }

    fn element_of(&self, addr: u16) -> u16 {
        (addr - 2 - 2 * self.lists) / 2
    }
}

impl SharedQueue for LockedModule {
    fn enqueue(&self, list: ListId, element: u16) {
        let anchor = self.anchor(list);
        let addr = self.block_addr(element);
        let mut mem = self.mem.lock().expect("module lock");
        queue::enqueue(&mut mem, anchor, addr).expect("enqueue in range");
    }

    fn first(&self, list: ListId) -> Option<u16> {
        let anchor = self.anchor(list);
        let mut mem = self.mem.lock().expect("module lock");
        let head = queue::first(&mut mem, anchor).expect("first in range")?;
        Some(self.element_of(head))
    }

    fn dequeue(&self, list: ListId, element: u16) {
        let anchor = self.anchor(list);
        let addr = self.block_addr(element);
        let mut mem = self.mem.lock().expect("module lock");
        queue::dequeue(&mut mem, anchor, addr).expect("well-formed list");
    }

    fn is_empty(&self, list: ListId) -> bool {
        let anchor = self.anchor(list);
        let mem = self.mem.lock().expect("module lock");
        mem.read_word(anchor).expect("anchor in range") == NULL_PTR
    }
}

/// One slot of the non-blocking FIFO: a sequence stamp plus the element.
/// Keeping the element itself in an atomic word (it is only 16 bits) lets
/// the whole queue be built without `unsafe`.
#[derive(Debug)]
struct Cell {
    seq: AtomicUsize,
    val: AtomicU32,
}

/// A bounded linearizable MPMC FIFO of `u16` elements (sequence-stamped
/// ring, after D. Vyukov). Producers claim a slot by CAS on the enqueue
/// cursor, write the element, then publish by bumping the slot's sequence;
/// consumers mirror the dance on the dequeue cursor. No locks, no waiting
/// on the fast path.
#[derive(Debug)]
struct MpmcFifo {
    cells: Box<[Cell]>,
    mask: usize,
    enq: AtomicUsize,
    deq: AtomicUsize,
}

impl MpmcFifo {
    fn new(capacity: usize) -> MpmcFifo {
        let cap = capacity.max(2).next_power_of_two();
        let cells = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                val: AtomicU32::new(0),
            })
            .collect();
        MpmcFifo {
            cells,
            mask: cap - 1,
            enq: AtomicUsize::new(0),
            deq: AtomicUsize::new(0),
        }
    }

    /// Appends `v`; `false` only when the ring holds `mask + 1` elements.
    fn push(&self, v: u16) -> bool {
        loop {
            // Acquire/Release on `enq`: reading position `pos` happens after
            // everything the producers of the positions before it had seen —
            // in particular every consumer claim that freed an element for
            // them — so the `deq` reload below cannot miss such a claim.
            let pos = self.enq.load(Ordering::Acquire);
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub(pos as isize) {
                0 if self
                    .enq
                    .compare_exchange_weak(pos, pos + 1, Ordering::Release, Ordering::Relaxed)
                    .is_ok() =>
                {
                    cell.val.store(u32::from(v), Ordering::Relaxed);
                    cell.seq.store(pos + 1, Ordering::Release);
                    return true;
                }
                // The cell still carries the previous lap. Full only if that
                // lap's element is unclaimed; if a consumer has claimed it
                // (`deq` moved past it) the cell is about to be released.
                d if d < 0 => {
                    let deq = self.deq.load(Ordering::Relaxed);
                    if (pos as isize).wrapping_sub(deq as isize) > self.mask as isize {
                        return false; // full
                    }
                    std::hint::spin_loop();
                }
                _ => {} // another producer advanced; retry
            }
        }
    }

    fn pop(&self) -> Option<u16> {
        self.claim().map(|pos| self.release(pos))
    }

    /// First half of [`MpmcFifo::pop`]: wins the oldest filled cell and
    /// returns its position; `None` when the ring is empty. The element
    /// has left the list, but the cell stays busy until
    /// [`MpmcFifo::release`].
    fn claim(&self) -> Option<usize> {
        loop {
            let pos = self.deq.load(Ordering::Relaxed);
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub((pos + 1) as isize) {
                0 if self
                    .deq
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok() =>
                {
                    return Some(pos);
                }
                d if d < 0 => return None, // empty
                _ => {}                    // another consumer advanced; retry
            }
        }
    }

    /// Second half of [`MpmcFifo::pop`]: reads the claimed element and hands
    /// the cell to the producers' next lap.
    fn release(&self, pos: usize) -> u16 {
        let cell = &self.cells[pos & self.mask];
        let v = cell.val.load(Ordering::Relaxed) as u16;
        cell.seq.store(pos + self.mask + 1, Ordering::Release);
        v
    }

    fn is_empty(&self) -> bool {
        let pos = self.deq.load(Ordering::Relaxed);
        let seq = self.cells[pos & self.mask].seq.load(Ordering::Acquire);
        (seq as isize).wrapping_sub((pos + 1) as isize) < 0
    }
}

/// Architectures III/IV's smart memory: each list is a non-blocking FIFO
/// whose operations are single atomic transactions from the processors'
/// point of view — the simulated analogue of the controller executing a
/// whole `Enqueue`/`First` inside one bus tenure.
///
/// `Dequeue` (arbitrary removal) is implemented with per-element tombstone
/// flags: the element is marked dead and discarded when it surfaces at the
/// head. This preserves the §5.1 contract — the element no longer comes
/// back from `First` — under the runtime's invariant that a control block
/// sits on at most one list at a time.
#[derive(Debug)]
pub struct LockFreeModule {
    lists: Vec<MpmcFifo>,
    dead: Vec<AtomicBool>,
}

impl LockFreeModule {
    /// A module with `lists` anchors, each able to hold every one of the
    /// `blocks` control blocks at once.
    pub fn new(lists: u16, blocks: u16) -> LockFreeModule {
        LockFreeModule {
            lists: (0..lists).map(|_| MpmcFifo::new(blocks as usize)).collect(),
            dead: (0..blocks).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn list(&self, list: ListId) -> &MpmcFifo {
        &self.lists[list.0 as usize]
    }
}

impl SharedQueue for LockFreeModule {
    fn enqueue(&self, list: ListId, element: u16) {
        assert!((element as usize) < self.dead.len(), "element out of range");
        // A freshly enqueued element is live again even if a stale
        // tombstone was left behind by a remove that raced an in-flight pop.
        self.dead[element as usize].store(false, Ordering::Relaxed);
        assert!(self.list(list).push(element), "shared list overflow");
    }

    fn first(&self, list: ListId) -> Option<u16> {
        let fifo = self.list(list);
        while let Some(e) = fifo.pop() {
            if self.dead[e as usize].swap(false, Ordering::Relaxed) {
                continue; // tombstoned by a Dequeue; drop it
            }
            return Some(e);
        }
        None
    }

    fn dequeue(&self, _list: ListId, element: u16) {
        if (element as usize) < self.dead.len() {
            self.dead[element as usize].store(true, Ordering::Relaxed);
        }
    }

    fn is_empty(&self, list: ListId) -> bool {
        self.list(list).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn modules() -> Vec<Arc<dyn SharedQueue>> {
        vec![
            Arc::new(LockedModule::new(2, 64)),
            Arc::new(LockFreeModule::new(2, 64)),
        ]
    }

    #[test]
    fn fifo_order_single_thread() {
        for m in modules() {
            let l = ListId(0);
            for e in [3u16, 1, 4, 1 + 10, 5] {
                m.enqueue(l, e);
            }
            let got: Vec<u16> = std::iter::from_fn(|| m.first(l)).collect();
            assert_eq!(got, vec![3, 1, 4, 11, 5]);
            assert!(m.is_empty(l));
        }
    }

    #[test]
    fn lists_are_independent() {
        for m in modules() {
            m.enqueue(ListId(0), 7);
            m.enqueue(ListId(1), 9);
            assert_eq!(m.first(ListId(1)), Some(9));
            assert_eq!(m.first(ListId(0)), Some(7));
        }
    }

    #[test]
    fn dequeue_removes_element() {
        for m in modules() {
            let l = ListId(0);
            for e in [10u16, 20, 30] {
                m.enqueue(l, e);
            }
            m.dequeue(l, 20);
            let got: Vec<u16> = std::iter::from_fn(|| m.first(l)).collect();
            assert_eq!(got, vec![10, 30]);
            // Removing a missing element is a no-operation.
            m.dequeue(l, 55);
            m.enqueue(l, 55);
            assert_eq!(m.first(l), Some(55));
        }
    }

    /// A producer that wraps onto a cell a consumer has claimed but not yet
    /// released must wait for the release, not report the ring full: the
    /// claimed element has already left the list.
    #[test]
    fn push_waits_out_a_claimed_cell_instead_of_reporting_full() {
        let q = Arc::new(MpmcFifo::new(2));
        assert!(q.push(1) && q.push(2));
        assert!(!q.push(3), "two cells, two elements: really full");
        let pos = q.claim().expect("a filled cell");
        let (tx, rx) = std::sync::mpsc::channel();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.push(3)).expect("receiver alive"))
        };
        // While the claim is held the push can neither fail (one element is
        // out, so the ring is not full) nor complete (its cell is busy).
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "push returned while its cell was still claimed"
        );
        assert_eq!(q.release(pos), 1);
        assert!(rx.recv().expect("pusher reports"), "false full");
        pusher.join().unwrap();
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(2), Some(3), None));
    }

    /// The concurrency contract, exercised the way the runtime uses the
    /// lists (a control block is on at most one list at a time): 64
    /// elements circulate between two lists under four racing threads, and
    /// at the end every element is back, exactly once.
    #[test]
    fn concurrent_circulation_conserves_elements() {
        // Many rounds: the overlap that matters to the lock-free module (a
        // producer wrapping onto a claimed, unreleased cell) occurs in only
        // about one round in eight.
        for m in (0..50).flat_map(|_| modules()) {
            let blocks = 64u16;
            for e in 0..blocks {
                m.enqueue(ListId(0), e);
            }
            let mut handles = Vec::new();
            for t in 0..4usize {
                let m = Arc::clone(&m);
                // Two threads move 0 → 1, two move 1 → 0.
                let (src, dst) = if t % 2 == 0 {
                    (ListId(0), ListId(1))
                } else {
                    (ListId(1), ListId(0))
                };
                handles.push(std::thread::spawn(move || {
                    let mut moved = 0usize;
                    let mut idle = 0usize;
                    while moved < 20_000 && idle < 200_000 {
                        match m.first(src) {
                            Some(e) => {
                                m.enqueue(dst, e);
                                moved += 1;
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let mut seen: Vec<u16> = std::iter::from_fn(|| m.first(ListId(0)))
                .chain(std::iter::from_fn(|| m.first(ListId(1))))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..blocks).collect::<Vec<u16>>());
        }
    }
}
