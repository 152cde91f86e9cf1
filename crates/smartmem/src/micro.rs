//! The microprogrammed controller design (Appendix A).
//!
//! The thesis argues the smart memory is *feasible and cheap*: the whole
//! controller fits a micro-sequencer with under 3000 bits of control store
//! and a data-path chip of roughly 6000 active components. This module
//! captures that design quantitatively — one micro-routine per bus command,
//! with micro-cycle budgets per §A.4 — so the crate can report controller
//! occupancy and the feasibility numbers can be checked in tests.

use smartbus::Command;

/// One micro-operation class of the data path (§A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MicroOp {
    /// Latch the command/tag/address from the bus.
    LatchBus,
    /// Read a word from the memory array.
    ReadMem,
    /// Write a word to the memory array.
    WriteMem,
    /// ALU operation (address increment, count decrement, compare).
    Alu,
    /// Compare a register against the distinguished NULL value.
    CompareNull,
    /// Conditional branch in the micro-sequencer.
    Branch,
    /// Allocate or look up a block-table entry.
    TableOp,
    /// Drive a reply (tag / data / ack) onto the bus.
    DriveBus,
}

/// A micro-routine: the straight-line op budget of one bus command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MicroRoutine {
    /// Routine name, per the §A.4 listing.
    pub name: &'static str,
    /// Micro-op sequence of the common (non-looping) path.
    pub ops: Vec<MicroOp>,
    /// Extra micro-ops per word moved / per list node visited.
    pub per_item_ops: Vec<MicroOp>,
}

impl MicroRoutine {
    /// Micro-cycles for the fixed path (one cycle per op).
    pub(crate) fn fixed_cycles(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Micro-cycles for `items` loop iterations.
    pub(crate) fn cycles_for(&self, items: u64) -> u64 {
        self.fixed_cycles() + items * self.per_item_ops.len() as u64
    }
}

/// The §A.4 micro-routine for a bus command.
pub(crate) fn routine_for(command: Command) -> MicroRoutine {
    use MicroOp::*;
    match command {
        Command::SimpleRead => MicroRoutine {
            name: "READ",
            ops: vec![LatchBus, ReadMem, DriveBus],
            per_item_ops: vec![],
        },
        Command::WriteTwoBytes | Command::WriteByte => MicroRoutine {
            name: "WRITE",
            ops: vec![LatchBus, WriteMem, DriveBus],
            per_item_ops: vec![],
        },
        Command::BlockTransfer => MicroRoutine {
            name: "BLOCK TRANSFER",
            ops: vec![LatchBus, TableOp, Alu, DriveBus],
            per_item_ops: vec![],
        },
        Command::BlockReadData => MicroRoutine {
            name: "BLOCK READ DATA",
            ops: vec![TableOp, Branch],
            per_item_ops: vec![ReadMem, Alu, DriveBus],
        },
        Command::BlockWriteData => MicroRoutine {
            name: "BLOCK WRITE DATA",
            ops: vec![LatchBus, TableOp, Branch],
            per_item_ops: vec![WriteMem, Alu],
        },
        Command::EnqueueControlBlock => MicroRoutine {
            name: "ENQUEUE CONTROL BLOCK",
            ops: vec![
                LatchBus,
                ReadMem,
                CompareNull,
                Branch,
                ReadMem,
                WriteMem,
                WriteMem,
                WriteMem,
            ],
            per_item_ops: vec![],
        },
        Command::FirstControlBlock => MicroRoutine {
            name: "FIRST CONTROL BLOCK",
            ops: vec![
                LatchBus,
                ReadMem,
                CompareNull,
                Branch,
                ReadMem,
                ReadMem,
                WriteMem,
                DriveBus,
            ],
            per_item_ops: vec![],
        },
        Command::DequeueControlBlock => MicroRoutine {
            name: "DEQUEUE CONTROL BLOCK",
            ops: vec![LatchBus, ReadMem, CompareNull, Branch, WriteMem, WriteMem],
            per_item_ops: vec![ReadMem, Alu, Branch],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_has_a_routine() {
        for c in Command::ALL {
            let r = routine_for(c);
            assert!(!r.ops.is_empty(), "{c} routine empty");
        }
    }

    #[test]
    fn control_store_under_3000_bits() {
        // Appendix A feasibility claim: one 24-bit micro-instruction (the
        // §A.3 format) per op of every routine, main path and loop body,
        // plus eight for the fetch/dispatch/error main loop.
        let words: usize = Command::ALL
            .iter()
            .map(|&c| routine_for(c))
            .map(|r| r.ops.len() + r.per_item_ops.len())
            .sum();
        let bits = 24 * (words + 8);
        assert!(bits < 3_000, "control store {bits} bits");
    }

    #[test]
    fn streaming_routines_scale_per_word() {
        let r = routine_for(Command::BlockReadData);
        assert!(r.cycles_for(20) > r.cycles_for(1));
        assert_eq!(
            r.cycles_for(20) - r.cycles_for(19),
            r.per_item_ops.len() as u64
        );
    }

    #[test]
    fn queue_ops_are_fixed_cost_except_dequeue() {
        assert!(routine_for(Command::EnqueueControlBlock)
            .per_item_ops
            .is_empty());
        assert!(routine_for(Command::FirstControlBlock)
            .per_item_ops
            .is_empty());
        // Dequeue walks the list: per-node cost.
        assert!(!routine_for(Command::DequeueControlBlock)
            .per_item_ops
            .is_empty());
    }
}
