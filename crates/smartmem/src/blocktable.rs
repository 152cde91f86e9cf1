//! The controller's internal table of outstanding block transfers (§5.2).
//!
//! Each `block transfer` request is cached here — address, byte count,
//! direction, requester priority, and a progress cursor — so the memory can
//! multiplex simultaneous transfers, restart a preempted lower-priority one,
//! and match `block read data` / `block write data` streams to their
//! transaction by tag. Four `TG` lines bound the table at sixteen entries.

use smartbus::{BlockDirection, SlaveError, Tag};

/// One outstanding block transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockEntry {
    /// Identifying tag returned on the `TG` lines.
    pub tag: Tag,
    /// Starting byte address.
    pub addr: u16,
    /// Total bytes to move.
    pub count: u16,
    /// Transfer direction.
    pub direction: BlockDirection,
    /// Bytes already moved.
    pub done: u16,
    /// Requesting unit's arbitration priority.
    pub priority: u8,
}

impl BlockEntry {
    /// Next byte address to transfer.
    pub(crate) fn cursor(&self) -> u16 {
        self.addr.wrapping_add(self.done)
    }

    /// Whether the whole block has been moved.
    pub(crate) fn is_complete(&self) -> bool {
        self.done >= self.count
    }
}

/// The block-request table; at most [`BlockTable::CAPACITY`] live entries.
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    entries: Vec<BlockEntry>,
    next_tag: u8,
}

impl BlockTable {
    /// Sixteen entries: the tag bus is four bits wide (Table 5.1).
    pub(crate) const CAPACITY: usize = 16;

    /// Creates an empty table.
    pub(crate) fn new() -> BlockTable {
        BlockTable::default()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a transfer, allocating a fresh tag.
    ///
    /// # Errors
    ///
    /// [`SlaveError::BlockTableFull`] when all sixteen tags are live.
    pub(crate) fn insert(
        &mut self,
        addr: u16,
        count: u16,
        direction: BlockDirection,
        priority: u8,
    ) -> Result<Tag, SlaveError> {
        if self.entries.len() >= Self::CAPACITY {
            return Err(SlaveError::BlockTableFull);
        }
        // Allocate the next free 4-bit tag (round robin so recently-retired
        // tags are not immediately reused, which aids debugging).
        let tag = (0..=15u8)
            .map(|i| (self.next_tag.wrapping_add(i)) & 0x0F)
            .find(|t| self.entries.iter().all(|e| e.tag.0 != *t))
            .expect("capacity check guarantees a free tag");
        self.next_tag = (tag + 1) & 0x0F;
        self.entries.push(BlockEntry {
            tag: Tag(tag),
            addr,
            count,
            direction,
            done: 0,
            priority,
        });
        Ok(Tag(tag))
    }

    /// Looks up an entry by tag.
    pub(crate) fn get(&self, tag: Tag) -> Option<&BlockEntry> {
        self.entries.iter().find(|e| e.tag == tag)
    }

    /// Mutable lookup by tag.
    pub(crate) fn get_mut(&mut self, tag: Tag) -> Option<&mut BlockEntry> {
        self.entries.iter_mut().find(|e| e.tag == tag)
    }

    /// Removes an entry (transfer complete or aborted).
    pub(crate) fn remove(&mut self, tag: Tag) -> Option<BlockEntry> {
        let idx = self.entries.iter().position(|e| e.tag == tag)?;
        Some(self.entries.remove(idx))
    }

    /// The highest-priority pending *read* transfer — the one the memory
    /// masters the bus for next. Ties break toward the older request.
    pub(crate) fn next_read(&self) -> Option<Tag> {
        self.entries
            .iter()
            .filter(|e| e.direction == BlockDirection::Read && !e.is_complete())
            .max_by(|a, b| a.priority.cmp(&b.priority))
            .map(|e| e.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t = BlockTable::new();
        let tag = t.insert(0x100, 40, BlockDirection::Read, 3).unwrap();
        assert_eq!(t.entries.len(), 1);
        let e = t.get(tag).unwrap();
        assert_eq!(e.addr, 0x100);
        assert_eq!(e.cursor(), 0x100);
        assert!(!e.is_complete());
        t.get_mut(tag).unwrap().done = 40;
        assert!(t.get(tag).unwrap().is_complete());
        assert!(t.remove(tag).is_some());
        assert!(t.is_empty());
        assert!(t.remove(tag).is_none());
    }

    #[test]
    fn capacity_is_sixteen_tags() {
        let mut t = BlockTable::new();
        for _ in 0..BlockTable::CAPACITY {
            t.insert(0, 2, BlockDirection::Write, 0).unwrap();
        }
        assert_eq!(
            t.insert(0, 2, BlockDirection::Write, 0),
            Err(SlaveError::BlockTableFull)
        );
    }

    #[test]
    fn tags_unique_while_live() {
        let mut t = BlockTable::new();
        let mut tags = std::collections::HashSet::new();
        for _ in 0..BlockTable::CAPACITY {
            let tag = t.insert(0, 2, BlockDirection::Read, 0).unwrap();
            assert!(tags.insert(tag));
        }
    }

    #[test]
    fn next_read_prefers_priority() {
        let mut t = BlockTable::new();
        let lo = t.insert(0, 40, BlockDirection::Read, 1).unwrap();
        let hi = t.insert(64, 40, BlockDirection::Read, 6).unwrap();
        let _wr = t.insert(128, 40, BlockDirection::Write, 7).unwrap();
        assert_eq!(t.next_read(), Some(hi));
        t.remove(hi);
        assert_eq!(t.next_read(), Some(lo));
        t.remove(lo);
        assert_eq!(t.next_read(), None);
    }

    #[test]
    fn tag_reuse_after_retirement() {
        let mut t = BlockTable::new();
        for _ in 0..100 {
            let tag = t.insert(0, 2, BlockDirection::Write, 0).unwrap();
            t.remove(tag);
        }
        assert!(t.is_empty());
    }
}
