//! Intrusive LRU bookkeeping for the bounded caches.
//!
//! The engine solution cache (`engine`) and the skeleton store beside it
//! (`cache`) both bound their memory by resident bytes and entry count.
//! This module owns the eviction order: a slab of slots threaded onto one
//! doubly-linked recency list, so touching an entry and picking the least
//! recently used one as the victim are both O(1).

/// Null link.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    bytes: usize,
    /// Recency list links (head = most recent).
    prev: usize,
    next: usize,
}

/// A slab of cache entries threaded onto an intrusive recency list.
///
/// The caller owns the key → slot-index mapping; this structure owns
/// recency order, byte accounting and victim selection.
#[derive(Debug)]
pub(crate) struct BoundedLru<T> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
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

    /// Insert a value as the most recently used.
    pub(crate) fn insert(&mut self, value: T, bytes: usize) -> usize {
        let slot = Slot {
            value: Some(value),
            bytes,
            prev: NIL,
            next: NIL,
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
        self.push_front(idx);
        self.count += 1;
        self.bytes += bytes;
        idx
    }

    /// Mark a slot most recently used.
    pub(crate) fn touch(&mut self, idx: usize) {
        self.unlink(idx);
        self.push_front(idx);
    }

    /// Unlink a slot and return its value.
    pub(crate) fn remove(&mut self, idx: usize) -> T {
        self.unlink(idx);
        let slot = &mut self.slots[idx];
        let bytes = std::mem::take(&mut slot.bytes);
        let value = slot.value.take().expect("live LRU slot");
        self.count -= 1;
        self.bytes -= bytes;
        self.free.push(idx);
        value
    }

    /// The slot to evict next: the least recently used one.
    pub(crate) fn victim(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    fn push_front(&mut self, idx: usize) {
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

    fn unlink(&mut self, idx: usize) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_order_is_least_recent_first() {
        let mut lru = BoundedLru::new();
        let a = lru.insert("a", 10);
        let b = lru.insert("b", 10);
        let c = lru.insert("c", 10);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.bytes(), 30);
        // a is oldest …
        assert_eq!(lru.victim(), Some(a));
        // … unless touched back to the front.
        lru.touch(a);
        assert_eq!(lru.victim(), Some(b));
        assert_eq!(lru.remove(b), "b");
        assert_eq!(lru.victim(), Some(c));
        assert_eq!(lru.bytes(), 20);
        lru.remove(c);
        lru.remove(a);
        assert!(lru.victim().is_none());
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut lru = BoundedLru::new();
        let a = lru.insert(1u32, 4);
        lru.remove(a);
        let b = lru.insert(2u32, 4);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(*lru.get(b), 2);
        assert_eq!(lru.len(), 1);
    }
}
