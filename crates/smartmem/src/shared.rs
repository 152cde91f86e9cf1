//! Thread-shareable queue transactions — the §5.1 primitives as seen from
//! *concurrent* processors.
//!
//! The simulated controller in [`crate::queue`] runs the enqueue / first /
//! dequeue micro-routines to completion on a single-threaded memory image;
//! atomicity is implicit. A *live* node (the `runtime` crate) has a real
//! host thread and a real MP thread racing on the task-control-block and
//! kernel-buffer lists, so the transactions those lists use — `Enqueue`
//! and `First`; a control block leaves a list only at its head — must be
//! supplied in a form that is atomic under genuine concurrency.
//! [`SharedQueue`] is that interface, and the two implementations mirror
//! the paper's architectural split:
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
//!   atomic word, no locks anywhere on the enqueue/first paths), its ring
//!   sized to the most control blocks the list can hold at once.
//!
//! Elements are control-block *indices* (`u16`, like the 16-bit addresses
//! the smart bus carries); a module hosts several independent lists
//! addressed by [`ListId`], mirroring the anchors of §5.1.

use crate::memory::Memory;
use crate::queue;
use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};
use std::sync::Mutex;

/// A list anchor within a shared module (§5.1 keeps one anchor word per
/// list: the free-buffer list, the computation list, the communication
/// list, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListId(pub u16);

/// The smart-memory queue transactions a live list uses, callable
/// concurrently from any number of threads.
pub trait SharedQueue: Send + Sync + std::fmt::Debug {
    /// `Enqueue(element, list)` — appends `element` at the tail.
    fn enqueue(&self, list: ListId, element: u16);
    /// `First(list)` — dequeues and returns the head, or `None` when empty.
    fn first(&self, list: ListId) -> Option<u16>;
    /// Bytes the module's lists occupy: a conventional module's memory
    /// image of anchors and link words, or a smart module's ring cells.
    fn link_bytes(&self) -> usize;
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

    fn link_bytes(&self) -> usize {
        self.mem.lock().expect("module lock").size()
    }
}

/// One slot of the non-blocking FIFO: a sequence stamp plus the element,
/// 8 B. Keeping the element itself in an atomic word lets the whole queue
/// be built without `unsafe`.
#[derive(Debug)]
struct Cell {
    seq: AtomicU32,
    val: AtomicU16,
}

/// How far stamp `a` runs ahead of position `b` (negative: behind).
/// Positions and stamps count modulo 2³², so the difference is read in
/// `i32`, which is exact while a ring holds fewer than 2³¹ cells (a ring
/// of a `u16` bound holds at most 2¹⁶).
fn lead(a: u32, b: u32) -> i32 {
    a.wrapping_sub(b) as i32
}

/// A bounded linearizable MPMC FIFO of `u16` elements (sequence-stamped
/// ring, after D. Vyukov). Producers claim a slot by CAS on the enqueue
/// cursor, write the element, then publish by bumping the slot's sequence;
/// consumers mirror the dance on the dequeue cursor. No locks, no waiting
/// on the fast path.
#[derive(Debug)]
struct MpmcFifo {
    cells: Box<[Cell]>,
    mask: u32,
    enq: AtomicU32,
    deq: AtomicU32,
}

impl MpmcFifo {
    /// An empty ring able to hold `bound` elements: `bound` cells, at
    /// least two, rounded up to a power of two.
    fn new(bound: u16) -> MpmcFifo {
        MpmcFifo::starting_at(bound, 0)
    }

    /// [`MpmcFifo::new`] with both cursors at position `start`, so a test
    /// can start a ring a few positions below the stamps' wrap at 2³².
    fn starting_at(bound: u16, start: u32) -> MpmcFifo {
        let cap = u32::from(bound).max(2).next_power_of_two();
        let mask = cap - 1;
        let mut cells: Box<[Cell]> = (0..cap)
            .map(|_| Cell {
                seq: AtomicU32::new(0),
                val: AtomicU16::new(0),
            })
            .collect();
        // The cell of position p is stamped p: ready for the lap's producer.
        for pos in (0..cap).map(|i| start.wrapping_add(i)) {
            *cells[(pos & mask) as usize].seq.get_mut() = pos;
        }
        MpmcFifo {
            cells,
            mask,
            enq: AtomicU32::new(start),
            deq: AtomicU32::new(start),
        }
    }

    fn cell(&self, pos: u32) -> &Cell {
        &self.cells[(pos & self.mask) as usize]
    }

    /// Appends `v`; `false` only when the ring holds `mask + 1` elements.
    fn push(&self, v: u16) -> bool {
        loop {
            // Acquire/Release on `enq`: reading position `pos` happens after
            // everything the producers of the positions before it had seen —
            // in particular every consumer claim that freed an element for
            // them — so the `deq` reload below cannot miss such a claim.
            let pos = self.enq.load(Ordering::Acquire);
            let cell = self.cell(pos);
            let seq = cell.seq.load(Ordering::Acquire);
            match lead(seq, pos) {
                0 if self
                    .enq
                    .compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Release,
                        Ordering::Relaxed,
                    )
                    .is_ok() =>
                {
                    cell.val.store(v, Ordering::Relaxed);
                    cell.seq.store(pos.wrapping_add(1), Ordering::Release);
                    return true;
                }
                // The cell still carries the previous lap. Full only if that
                // lap's element is unclaimed; if a consumer has claimed it
                // (`deq` moved past it) the cell is about to be released.
                d if d < 0 => {
                    let deq = self.deq.load(Ordering::Relaxed);
                    if lead(pos, deq) > self.mask as i32 {
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
    fn claim(&self) -> Option<u32> {
        loop {
            let pos = self.deq.load(Ordering::Relaxed);
            let seq = self.cell(pos).seq.load(Ordering::Acquire);
            match lead(seq, pos.wrapping_add(1)) {
                0 if self
                    .deq
                    .compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
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
    fn release(&self, pos: u32) -> u16 {
        let cell = self.cell(pos);
        let v = cell.val.load(Ordering::Relaxed);
        cell.seq
            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
        v
    }
}

/// Architectures III/IV's smart memory: each list is a non-blocking FIFO
/// whose operations are single atomic transactions from the processors'
/// point of view — the simulated analogue of the controller executing a
/// whole `Enqueue`/`First` inside one bus tenure.
#[derive(Debug)]
pub struct LockFreeModule {
    lists: Vec<MpmcFifo>,
    blocks: u16,
}

impl LockFreeModule {
    /// A module with `lists` anchors, each able to hold every one of the
    /// `blocks` control blocks at once: [`LockFreeModule::bounded`] with
    /// every bound `blocks`. A caller that knows which blocks each list
    /// queues should bound the lists by that instead.
    pub fn new(lists: u16, blocks: u16) -> LockFreeModule {
        LockFreeModule::bounded(&vec![blocks; usize::from(lists)], blocks)
    }

    /// A module of `blocks` control blocks with one list per entry of
    /// `bounds`, each able to hold that many blocks at once. A block is on
    /// at most one list at a time, so a list's bound is the most blocks of
    /// the kind it queues; its ring holds `bound` cells of 8 B, at least
    /// two, rounded up to a power of two.
    ///
    /// # Panics
    ///
    /// If a bound exceeds `blocks`.
    pub fn bounded(bounds: &[u16], blocks: u16) -> LockFreeModule {
        assert!(
            bounds.iter().all(|&b| b <= blocks),
            "list bounds {bounds:?} exceed the module's {blocks} blocks"
        );
        LockFreeModule {
            lists: bounds.iter().map(|&b| MpmcFifo::new(b)).collect(),
            blocks,
        }
    }

    fn list(&self, list: ListId) -> &MpmcFifo {
        &self.lists[list.0 as usize]
    }
}

impl SharedQueue for LockFreeModule {
    fn enqueue(&self, list: ListId, element: u16) {
        assert!(element < self.blocks, "element out of range");
        assert!(
            self.list(list).push(element),
            "shared list overflow: list {} is past its bound",
            list.0
        );
    }

    fn first(&self, list: ListId) -> Option<u16> {
        self.list(list).pop()
    }

    fn link_bytes(&self) -> usize {
        let cells: usize = self.lists.iter().map(|l| l.cells.len()).sum();
        cells * std::mem::size_of::<Cell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

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
            assert_eq!(m.first(l), None);
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

    /// A producer that wraps onto a cell a consumer has claimed but not yet
    /// released must wait for the release, not report the ring full: the
    /// claimed element has already left the list.
    #[test]
    fn push_waits_out_a_claimed_cell_instead_of_reporting_full() {
        let q = Arc::new(MpmcFifo::new(2));
        assert!(q.push(1) && q.push(2));
        assert!(!q.push(3), "two cells, two elements: really full");
        let pos = q.claim().expect("a filled cell");
        let (tx, rx) = mpsc::channel();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.push(3)).expect("receiver alive"))
        };
        // While the claim is held the push can neither fail (one element is
        // out, so the ring is not full) nor complete (its cell is busy).
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "push returned while its cell was still claimed"
        );
        assert_eq!(q.release(pos), 1);
        assert!(rx.recv().expect("pusher reports"), "false full");
        pusher.join().unwrap();
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(2), Some(3), None));
    }

    /// Runs `body` on its own thread and fails unless it finishes within
    /// ten seconds: a ring that misreads a stamp spins forever rather than
    /// erring.
    fn within_ten_seconds(body: impl FnOnce() + Send + 'static) {
        let worker = std::thread::spawn(body);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !worker.is_finished() {
            assert!(Instant::now() < deadline, "ring operations spun for 10 s");
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Positions and stamps count modulo 2³². A ring started a few
    /// positions below the wrap keeps FIFO order across it, reports full
    /// only when it is, and waits out a claimed cell there as it does at
    /// position 0.
    #[test]
    fn stamps_wrap_at_two_to_the_thirty_two() {
        within_ten_seconds(|| {
            // One to four elements in, then drained to empty, round after
            // round on positions across the wrap: the empty ring is popped
            // at position 2³² − 1, among others.
            let q = MpmcFifo::starting_at(4, u32::MAX - 6);
            let mut next = 0u16;
            for round in 0..16u16 {
                let batch: Vec<u16> = (next..next + round % 4 + 1).collect();
                next += round % 4 + 1;
                assert!(batch.iter().all(|&v| q.push(v)));
                let drained: Vec<u16> = std::iter::from_fn(|| q.pop()).collect();
                assert_eq!(drained, batch, "round {round}");
            }

            // Positions 2³² − 1, 0, 1, 2: the fifth element does not fit.
            let q = MpmcFifo::starting_at(4, u32::MAX);
            assert!((1..=4).all(|v| q.push(v)));
            assert!(!q.push(5), "four cells, four elements: really full");
            let drained: Vec<u16> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, [1, 2, 3, 4]);

            // The cell of position 2³² − 1 is claimed; position 1 reuses it.
            let q = Arc::new(MpmcFifo::starting_at(2, u32::MAX));
            assert!(q.push(1) && q.push(2));
            assert!(!q.push(3), "two cells, two elements: really full");
            let pos = q.claim().expect("a filled cell");
            assert_eq!(pos, u32::MAX);
            let (tx, rx) = mpsc::channel();
            let pusher = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || tx.send(q.push(3)).expect("receiver alive"))
            };
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "push returned while its cell was still claimed"
            );
            assert_eq!(q.release(pos), 1);
            assert!(rx.recv().expect("pusher reports"), "false full");
            pusher.join().unwrap();
            assert_eq!((q.pop(), q.pop(), q.pop()), (Some(2), Some(3), None));
        });
    }

    /// A cell is 8 B, and a list's ring holds its bound in cells, at least
    /// two, rounded up to a power of two: a change that regrows the rings
    /// fails here.
    #[test]
    fn rings_are_sized_by_their_bounds_in_eight_byte_cells() {
        assert_eq!(std::mem::size_of::<Cell>(), 8);
        for bound in [0u16, 1, 2, 3, 64, 65, 800, 1024, u16::MAX] {
            let cells = MpmcFifo::new(bound).cells.len();
            assert_eq!(
                cells,
                usize::from(bound).max(2).next_power_of_two(),
                "{bound}"
            );
        }
        // An arch III node of 400 conversations on 64 buffers, sized per
        // list and as `new` sizes every list.
        let per_list = LockFreeModule::bounded(&[800, 800, 64], 864);
        assert_eq!(per_list.link_bytes(), (2 * 1024 + 64) * 8);
        assert_eq!(LockFreeModule::new(3, 864).link_bytes(), 3 * 1024 * 8);
    }

    /// A list holds its bound and no more; a bound past the module's
    /// blocks is refused.
    #[test]
    fn a_list_past_its_bound_overflows() {
        let m = LockFreeModule::bounded(&[2, 3], 8);
        m.enqueue(ListId(0), 0);
        m.enqueue(ListId(0), 1);
        let overflow = std::panic::catch_unwind(|| m.enqueue(ListId(0), 2));
        assert!(overflow.is_err(), "a third element fitted a 2-cell ring");
        for e in 2..5 {
            m.enqueue(ListId(1), e);
        }
        assert!(std::panic::catch_unwind(|| LockFreeModule::bounded(&[9], 8)).is_err());
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
