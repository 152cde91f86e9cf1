//! The §A.5 error analysis: what can go wrong at the smart memory, and why
//! the controller is immune to the rest.
//!
//! The thesis argues the controller can stay simple because the environment
//! is *limited and controlled*: only trusted kernel code on the host and MP
//! issues requests, each unit has exactly one outstanding request, and the
//! memory holds only protected kernel data structures. The §A.5 taxonomy,
//! with the [`smartbus::SlaveError`] each detected error raises:
//!
//! * §A.5.1, block requests: a request whose address + count runs past the
//!   module is rejected up front (`AddressOutOfRange`), as is one more
//!   outstanding transfer than there are tags (`BlockTableFull`); streaming
//!   data carrying a tag with no table entry is detected during execution
//!   (`UnknownTag`); two units streaming against one tag cannot happen, one
//!   request per unit and tags per request.
//! * §A.5.2, queue manipulation: a list whose links do not cycle back to the
//!   tail is detected during execution (`CorruptList`); enqueueing an
//!   element already on another list, or two operations interleaving
//!   mid-update, cannot happen — the kernel moves control blocks between
//!   lists atomically, and each operation completes inside one bus
//!   transaction.
//! * §A.5.3, non-programming errors: parity faults in the memory array and a
//!   unit dying mid-handshake belong to the array and the system reset path
//!   (watchdog, `CLR`), not to the controller.
//!
//! The test below raises every detected class through the controller.

#[cfg(test)]
mod tests {
    use crate::SmartMemory;
    use smartbus::{BlockDirection, BusSlave, SlaveError, Tag};

    /// Each surfaced error class is actually raised by the controller.
    #[test]
    fn surfaced_errors_reachable() {
        let mut sm = SmartMemory::new(256);
        // Address out of range, rejected up front.
        assert!(matches!(
            sm.block_transfer(250, 10, BlockDirection::Read, 0),
            Err(SlaveError::AddressOutOfRange { .. })
        ));
        // Table full.
        for _ in 0..16 {
            sm.block_transfer(0, 2, BlockDirection::Write, 0).unwrap();
        }
        assert!(matches!(
            sm.block_transfer(0, 2, BlockDirection::Write, 0),
            Err(SlaveError::BlockTableFull)
        ));
        // Unknown tag during execution.
        let mut sm = SmartMemory::new(256);
        assert!(matches!(
            sm.stream_out(Tag(7), 2),
            Err(SlaveError::UnknownTag(Tag(7)))
        ));
        // Corrupt list during execution: a "lasso" whose cycle skips the
        // tail, so the walk can never terminate legitimately.
        sm.memory_mut().write_word(0x10, 0x20).unwrap(); // anchor -> tail 0x20
        sm.memory_mut().write_word(0x20, 0x30).unwrap();
        sm.memory_mut().write_word(0x30, 0x40).unwrap();
        sm.memory_mut().write_word(0x40, 0x30).unwrap(); // cycle 0x30 <-> 0x40
        assert!(matches!(
            sm.dequeue(0x10, 0xFE),
            Err(SlaveError::CorruptList { .. })
        ));
    }
}
