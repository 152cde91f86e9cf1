//! The smart shared memory controller: [`SmartMemory`].

use crate::blocktable::BlockTable;
use crate::memory::Memory;
use crate::queue;
use smartbus::{BlockDirection, BusSlave, SlaveError, Tag};

/// The smart shared memory: memory array + block table + queue micro-code.
///
/// Implements [`BusSlave`] so a [`smartbus::BusEngine`] can drive it; can
/// also be used directly (the kernel simulations manipulate the same image
/// without paying bus-protocol costs when modeling Architecture IV's
/// partitions separately).
#[derive(Debug, Clone)]
pub struct SmartMemory {
    memory: Memory,
    table: BlockTable,
}

impl SmartMemory {
    /// Creates a controller over a zeroed memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the 16-bit address space (see
    /// [`Memory::new`]).
    pub fn new(size: usize) -> SmartMemory {
        SmartMemory {
            memory: Memory::new(size),
            table: BlockTable::new(),
        }
    }

    /// The underlying memory image.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the memory image (loaders, tests).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// The internal block-request table.
    pub fn block_table(&self) -> &BlockTable {
        &self.table
    }
}

impl BusSlave for SmartMemory {
    fn simple_read(&mut self, addr: u16) -> Result<u16, SlaveError> {
        self.memory.read_word(addr)
    }

    fn write_word(&mut self, addr: u16, value: u16) -> Result<(), SlaveError> {
        self.memory.write_word(addr, value)
    }

    fn write_byte(&mut self, addr: u16, value: u8) -> Result<(), SlaveError> {
        self.memory.write_byte(addr, value)
    }

    fn block_transfer(
        &mut self,
        addr: u16,
        count: u16,
        direction: BlockDirection,
        priority: u8,
    ) -> Result<Tag, SlaveError> {
        // Validate the whole range up front (§A.5.1: bad block requests are
        // rejected at request time, not mid-stream).
        let end = u32::from(addr) + u32::from(count);
        if end > self.memory.size() as u32 {
            return Err(SlaveError::AddressOutOfRange { addr: end });
        }
        self.table.insert(addr, count, direction, priority)
    }

    fn pending_read(&self) -> Option<Tag> {
        self.table.next_read()
    }

    fn stream_out(&mut self, tag: Tag, max_words: usize) -> Result<(Vec<u16>, bool), SlaveError> {
        let entry = self.table.get(tag).ok_or(SlaveError::UnknownTag(tag))?;
        debug_assert_eq!(entry.direction, BlockDirection::Read);
        let mut words = Vec::with_capacity(max_words);
        for _ in 0..max_words {
            let entry = self.table.get(tag).expect("entry checked above");
            if entry.is_complete() {
                break;
            }
            let addr = entry.cursor();
            let w = self.memory.read_word(addr)?;
            words.push(w);
            self.table.get_mut(tag).expect("entry exists").done += 2;
        }
        let done = self.table.get(tag).expect("entry exists").is_complete();
        if done {
            self.table.remove(tag);
        }
        Ok((words, done))
    }

    fn stream_in(&mut self, tag: Tag, words: &[u16]) -> Result<bool, SlaveError> {
        {
            let entry = self.table.get(tag).ok_or(SlaveError::UnknownTag(tag))?;
            debug_assert_eq!(entry.direction, BlockDirection::Write);
        }
        for &w in words {
            let addr = self.table.get(tag).expect("entry exists").cursor();
            self.memory.write_word(addr, w)?;
            self.table.get_mut(tag).expect("entry exists").done += 2;
        }
        let done = self.table.get(tag).expect("entry exists").is_complete();
        if done {
            self.table.remove(tag);
        }
        Ok(done)
    }

    fn enqueue(&mut self, list: u16, element: u16) -> Result<(), SlaveError> {
        queue::enqueue(&mut self.memory, list, element)
    }

    fn dequeue(&mut self, list: u16, element: u16) -> Result<(), SlaveError> {
        queue::dequeue(&mut self.memory, list, element)
    }

    fn first(&mut self, list: u16) -> Result<Option<u16>, SlaveError> {
        queue::first(&mut self.memory, list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_ops_through_slave_interface() {
        let mut sm = SmartMemory::new(4096);
        sm.enqueue(0x20, 0x100).unwrap();
        sm.enqueue(0x20, 0x200).unwrap();
        assert_eq!(sm.first(0x20).unwrap(), Some(0x100));
        sm.dequeue(0x20, 0x200).unwrap();
        assert_eq!(sm.first(0x20).unwrap(), None);
    }

    #[test]
    fn block_round_trip_through_table() {
        let mut sm = SmartMemory::new(4096);
        let tag = sm
            .block_transfer(0x400, 8, BlockDirection::Write, 3)
            .unwrap();
        assert!(!sm.stream_in(tag, &[0x1111, 0x2222]).unwrap());
        assert!(sm.stream_in(tag, &[0x3333, 0x4444]).unwrap());
        // Table entry retired.
        assert!(sm.block_table().is_empty());

        let tag = sm
            .block_transfer(0x400, 8, BlockDirection::Read, 3)
            .unwrap();
        assert_eq!(sm.pending_read(), Some(tag));
        let (w1, done1) = sm.stream_out(tag, 2).unwrap();
        assert_eq!(w1, vec![0x1111, 0x2222]);
        assert!(!done1);
        let (w2, done2) = sm.stream_out(tag, 2).unwrap();
        assert_eq!(w2, vec![0x3333, 0x4444]);
        assert!(done2);
        assert_eq!(sm.pending_read(), None);
    }

    #[test]
    fn preempted_block_resumes_from_cursor() {
        let mut sm = SmartMemory::new(4096);
        for (addr, word) in [(0, 1), (2, 2), (4, 3), (6, 4)] {
            sm.memory_mut().write_word(addr, word).unwrap();
        }
        let tag = sm.block_transfer(0, 8, BlockDirection::Read, 1).unwrap();
        let (first_pair, _) = sm.stream_out(tag, 2).unwrap();
        assert_eq!(first_pair, vec![1, 2]);
        // ... a higher-priority transaction intervenes here ...
        let (second_pair, done) = sm.stream_out(tag, 2).unwrap();
        assert_eq!(second_pair, vec![3, 4]);
        assert!(done);
    }

    #[test]
    fn stale_tag_rejected() {
        let mut sm = SmartMemory::new(4096);
        let err = sm.stream_out(Tag(9), 2).unwrap_err();
        assert_eq!(err, SlaveError::UnknownTag(Tag(9)));
        let err = sm.stream_in(Tag(9), &[1]).unwrap_err();
        assert_eq!(err, SlaveError::UnknownTag(Tag(9)));
    }

    #[test]
    fn block_request_range_checked_up_front() {
        let mut sm = SmartMemory::new(256);
        let err = sm
            .block_transfer(250, 10, BlockDirection::Read, 0)
            .unwrap_err();
        assert!(matches!(err, SlaveError::AddressOutOfRange { .. }));
        assert!(sm.block_table().is_empty());
    }
}
