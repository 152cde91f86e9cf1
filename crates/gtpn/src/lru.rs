//! Intrusive, partition-aware LRU bookkeeping for the bounded caches.
//!
//! The engine solution cache (`engine`) and the skeleton store beside it
//! (`cache`) both bound their memory by resident bytes and entry count.
//! This module owns the eviction order: a slab of slots threaded onto two
//! doubly-linked lists — one global recency list and one per partition
//! (experiment id) — so picking a victim is O(1) instead of the old
//! O(entries) full-map scan, and eviction can prefer victims from the
//! partition that is inserting. A sweep that overflows the cache then eats
//! its own tail instead of wiping out another figure's still-hot entries.

use std::collections::HashMap;

/// Null link.
pub(crate) const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    bytes: usize,
    partition: u32,
    /// Global recency list (head = most recent).
    prev: usize,
    next: usize,
    /// Per-partition recency list (head = most recent).
    part_prev: usize,
    part_next: usize,
}

/// A slab of cache entries threaded onto intrusive recency lists.
///
/// The caller owns the key → slot-index mapping; this structure owns
/// recency order, byte accounting and victim selection.
#[derive(Debug)]
pub(crate) struct BoundedLru<T> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// partition → (head, tail) of that partition's recency list.
    parts: HashMap<u32, (usize, usize)>,
    count: usize,
    bytes: usize,
}

impl<T> BoundedLru<T> {
    pub(crate) fn new() -> BoundedLru<T> {
        BoundedLru {
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            parts: HashMap::new(),
            count: 0,
            bytes: 0,
        }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Estimated resident bytes of all live entries.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Borrow a live slot's value.
    pub(crate) fn get(&self, idx: usize) -> &T {
        self.slots[idx].value.as_ref().expect("live LRU slot")
    }

    /// Insert a value at the front (most recent) of both lists.
    pub(crate) fn insert(&mut self, value: T, bytes: usize, partition: u32) -> usize {
        let slot = Slot {
            value: Some(value),
            bytes,
            partition,
            prev: NIL,
            next: NIL,
            part_prev: NIL,
            part_next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.push_front_global(idx);
        self.push_front_part(idx);
        self.count += 1;
        self.bytes += bytes;
        idx
    }

    /// Mark a slot most recently used.
    pub(crate) fn touch(&mut self, idx: usize) {
        self.unlink_global(idx);
        self.push_front_global(idx);
        self.unlink_part(idx);
        self.push_front_part(idx);
    }

    /// Unlink a slot and return its value.
    pub(crate) fn remove(&mut self, idx: usize) -> T {
        self.unlink_global(idx);
        self.unlink_part(idx);
        let slot = &mut self.slots[idx];
        let bytes = std::mem::take(&mut slot.bytes);
        let value = slot.value.take().expect("live LRU slot");
        self.count -= 1;
        self.bytes -= bytes;
        self.free.push(idx);
        value
    }

    /// The slot to evict next: the least-recent entry of `prefer`'s own
    /// partition when it has any, otherwise the globally least-recent.
    pub(crate) fn victim(&self, prefer: u32) -> Option<usize> {
        if let Some(&(_, tail)) = self.parts.get(&prefer) {
            if tail != NIL {
                return Some(tail);
            }
        }
        (self.tail != NIL).then_some(self.tail)
    }

    fn push_front_global(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink_global(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front_part(&mut self, idx: usize) {
        let part = self.slots[idx].partition;
        let entry = self.parts.entry(part).or_insert((NIL, NIL));
        let (head, _) = *entry;
        self.slots[idx].part_prev = NIL;
        self.slots[idx].part_next = head;
        if head != NIL {
            self.slots[head].part_prev = idx;
        }
        entry.0 = idx;
        if entry.1 == NIL {
            entry.1 = idx;
        }
    }

    fn unlink_part(&mut self, idx: usize) {
        let part = self.slots[idx].partition;
        let (prev, next) = (self.slots[idx].part_prev, self.slots[idx].part_next);
        let entry = self.parts.get_mut(&part).expect("linked partition");
        if prev != NIL {
            self.slots[prev].part_next = next;
        } else {
            entry.0 = next;
        }
        if next != NIL {
            self.slots[next].part_prev = prev;
        } else {
            entry.1 = prev;
        }
        if self.parts[&part] == (NIL, NIL) {
            self.parts.remove(&part);
        }
        self.slots[idx].part_prev = NIL;
        self.slots[idx].part_next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_order_is_least_recent_first() {
        let mut lru = BoundedLru::new();
        let a = lru.insert("a", 10, 0);
        let b = lru.insert("b", 10, 0);
        let c = lru.insert("c", 10, 0);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.bytes(), 30);
        // a is oldest …
        assert_eq!(lru.victim(0), Some(a));
        // … unless touched back to the front.
        lru.touch(a);
        assert_eq!(lru.victim(0), Some(b));
        assert_eq!(lru.remove(b), "b");
        assert_eq!(lru.victim(0), Some(c));
        assert_eq!(lru.bytes(), 20);
    }

    #[test]
    fn victim_prefers_the_inserting_partition() {
        let mut lru = BoundedLru::new();
        let a = lru.insert("p1-old", 1, 1);
        let _b = lru.insert("p2-old", 1, 2);
        let c = lru.insert("p1-new", 1, 1);
        // Partition 1 evicts its own oldest entry, not partition 2's.
        assert_eq!(lru.victim(1), Some(a));
        lru.remove(a);
        assert_eq!(lru.victim(1), Some(c));
        lru.remove(c);
        // Partition 1 drained: fall back to the global tail.
        assert_eq!(lru.victim(1), Some(_b));
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut lru = BoundedLru::new();
        let a = lru.insert(1u32, 4, 0);
        lru.remove(a);
        let b = lru.insert(2u32, 4, 0);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(*lru.get(b), 2);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn empty_partition_entries_are_dropped() {
        let mut lru = BoundedLru::new();
        let a = lru.insert("x", 1, 7);
        lru.remove(a);
        assert!(lru.victim(7).is_none());
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.bytes(), 0);
    }
}
