//! An executable micro-machine for the smart memory controller
//! (Appendix A).
//!
//! The thesis's feasibility argument rests on a microprogrammed controller:
//! a small data path (registers + ALU + memory port) driven by a
//! micro-sequencer whose control store holds under 3000 bits. This module
//! implements that machine *for real*: a 24-bit micro-instruction encoding
//! (§A.3), a register file, a micro-sequencer with conditional branching,
//! and hand-written micro-routines for the atomic queue primitives
//! (§A.4.5–§A.4.7) executed against the actual [`Memory`] image.
//!
//! The microcoded primitives are differentially tested against the
//! high-level [`crate::queue`] implementations — both must produce
//! identical memory images and results for every operation sequence.

use crate::memory::Memory;
use crate::NULL_PTR;
use smartbus::SlaveError;

/// Data-path registers (Figure A.2). `Zero` reads as the distinguished
/// NULL value and ignores writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Reg {
    /// Constant NULL/zero source.
    Zero = 0,
    /// Anchor (list) address latched from the bus.
    List = 1,
    /// Element address latched from the bus.
    Elem = 2,
    /// Tail pointer.
    Tail = 3,
    /// Walk cursor.
    Curr = 4,
    /// Walk predecessor.
    Prev = 5,
    /// Scratch.
    Tmp = 6,
    /// Result driven back onto the bus.
    Res = 7,
    /// Loop guard counter (corrupt-list watchdog).
    Count = 8,
}

const REG_COUNT: usize = 9;

/// Completion status of a micro-routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Completed normally.
    Ok,
    /// The corrupt-list watchdog expired (§A.5.2).
    CorruptList,
}

/// Micro-operations (the §A.3 instruction format's opcode field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `a <- MEM[b]`
    Load,
    /// `MEM[a] <- b`
    Store,
    /// `a <- b`
    Mov,
    /// `Z <- (a == b)`
    Cmp,
    /// `a <- a - 1; Z <- (a == 0)`
    Dec,
    /// Unconditional branch to `target`.
    Jmp,
    /// Branch to `target` when Z.
    Bz,
    /// Branch to `target` when not Z.
    Bnz,
    /// Stop with [`Status::Ok`].
    Halt,
    /// Stop with [`Status::CorruptList`].
    Fault,
}

/// One 24-bit micro-instruction: `[op:4][a:4][b:4][target:8]` with four
/// spare bits — the §A.3 format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MicroInstruction(u32);

impl MicroInstruction {
    fn new(op: Op, a: Reg, b: Reg, target: u8) -> MicroInstruction {
        let op_bits = match op {
            Op::Load => 0u32,
            Op::Store => 1,
            Op::Mov => 2,
            Op::Cmp => 3,
            Op::Dec => 4,
            Op::Jmp => 5,
            Op::Bz => 6,
            Op::Bnz => 7,
            Op::Halt => 8,
            Op::Fault => 9,
        };
        MicroInstruction(
            (op_bits << 20) | ((a as u32) << 16) | ((b as u32) << 12) | u32::from(target),
        )
    }

    fn op(self) -> Op {
        match self.0 >> 20 {
            0 => Op::Load,
            1 => Op::Store,
            2 => Op::Mov,
            3 => Op::Cmp,
            4 => Op::Dec,
            5 => Op::Jmp,
            6 => Op::Bz,
            7 => Op::Bnz,
            8 => Op::Halt,
            _ => Op::Fault,
        }
    }

    fn a(self) -> usize {
        ((self.0 >> 16) & 0xF) as usize
    }

    fn b(self) -> usize {
        ((self.0 >> 12) & 0xF) as usize
    }

    fn target(self) -> usize {
        (self.0 & 0xFF) as usize
    }
}

/// A micro-routine: a slice of the control store.
#[derive(Debug, Clone)]
pub(crate) struct MicroRoutine {
    code: Vec<MicroInstruction>,
}

fn mi(op: Op, a: Reg, b: Reg, t: u8) -> MicroInstruction {
    MicroInstruction::new(op, a, b, t)
}

/// §A.4.5 — ENQUEUE CONTROL BLOCK. Entry: `List` = anchor address,
/// `Elem` = element address.
pub(crate) fn enqueue_routine() -> MicroRoutine {
    use Op::*;
    use Reg::*;
    MicroRoutine {
        code: vec![
            /* 0 */ mi(Load, Tail, List, 0), // tail <- MEM[anchor]
            /* 1 */ mi(Cmp, Tail, Zero, 0), // empty list?
            /* 2 */ mi(Bz, Zero, Zero, 6), // -> singleton case
            /* 3 */ mi(Load, Tmp, Tail, 0), // first <- tail->next
            /* 4 */ mi(Store, Elem, Tmp, 0), // element->next <- first
            /* 5 */ mi(Jmp, Zero, Zero, 7),
            /* 6 */ mi(Mov, Tmp, Elem, 0), // element->next <- element
            /* 7 */ mi(Store, Elem, Tmp, 0), // (joined path: stores Tmp)
            /* 8 */ mi(Cmp, Tail, Zero, 0),
            /* 9 */ mi(Bz, Zero, Zero, 11), // empty: skip tail link
            /*10 */ mi(Store, Tail, Elem, 0), // tail->next <- element
            /*11 */ mi(Store, List, Elem, 0), // anchor <- element
            /*12 */ mi(Halt, Zero, Zero, 0),
        ],
    }
}

/// §A.4.6 — FIRST CONTROL BLOCK. Entry: `List` = anchor address. Exit:
/// `Res` = head element or NULL.
pub(crate) fn first_routine() -> MicroRoutine {
    use Op::*;
    use Reg::*;
    MicroRoutine {
        code: vec![
            /* 0 */ mi(Load, Tail, List, 0), // tail <- MEM[anchor]
            /* 1 */ mi(Cmp, Tail, Zero, 0),
            /* 2 */ mi(Bz, Zero, Zero, 10), // empty -> Res = NULL
            /* 3 */ mi(Load, Res, Tail, 0), // head <- tail->next
            /* 4 */ mi(Cmp, Res, Tail, 0), // single element?
            /* 5 */ mi(Bz, Zero, Zero, 11), // -> clear anchor
            /* 6 */ mi(Load, Tmp, Res, 0), // second <- head->next
            /* 7 */ mi(Store, Tail, Tmp, 0), // tail->next <- second
            /* 8 */ mi(Halt, Zero, Zero, 0),
            /* 9 */ mi(Halt, Zero, Zero, 0), // (alignment spare)
            /*10 */ mi(Mov, Res, Zero, 0), // Res <- NULL
            /*11 */ mi(Store, List, Zero, 0), // anchor <- NULL (empty path:
            //         harmless re-clear; singleton path: required)
            /*12 */
            mi(Halt, Zero, Zero, 0),
        ],
    }
}

/// §A.4.7 — DEQUEUE CONTROL BLOCK. Entry: `List` = anchor address,
/// `Elem` = element to remove, `Count` = watchdog bound.
pub(crate) fn dequeue_routine() -> MicroRoutine {
    use Op::*;
    use Reg::*;
    MicroRoutine {
        code: vec![
            /* 0 */ mi(Load, Tail, List, 0), // tail <- MEM[anchor]
            /* 1 */ mi(Cmp, Tail, Zero, 0),
            /* 2 */ mi(Bz, Zero, Zero, 18), // empty: no-op
            /* 3 */ mi(Mov, Curr, Tail, 0),
            // loop:
            /* 4 */ mi(Mov, Prev, Curr, 0),
            /* 5 */ mi(Load, Curr, Prev, 0), // curr <- prev->next
            /* 6 */ mi(Cmp, Curr, Elem, 0),
            /* 7 */ mi(Bz, Zero, Zero, 12), // found
            /* 8 */ mi(Cmp, Curr, Tail, 0),
            /* 9 */ mi(Bz, Zero, Zero, 18), // walked the whole cycle
            /*10 */ mi(Dec, Count, Zero, 0), // watchdog
            /*11 */ mi(Bnz, Zero, Zero, 4), // keep walking
            //      watchdog expired:
            /*12 */
            mi(Cmp, Curr, Elem, 0), // (re-test: fall-through from 11 means fault)
            /*13 */ mi(Bnz, Zero, Zero, 19), // not found + expired -> fault
            // found:
            /*14 */ mi(Cmp, Curr, Prev, 0), // singleton?
            /*15 */ mi(Bz, Zero, Zero, 20),
            /*16 */ mi(Load, Tmp, Elem, 0), // after <- element->next
            /*17 */ mi(Store, Prev, Tmp, 0), // prev->next <- after
            //      fix anchor if tail removed, then halt:
            /*18 */
            mi(Jmp, Zero, Zero, 21),
            /*19 */ mi(Fault, Zero, Zero, 0),
            /*20 */ mi(Store, List, Zero, 0), // singleton: anchor <- NULL
            /*21 */ mi(Cmp, Tail, Elem, 0),
            /*22 */ mi(Bnz, Zero, Zero, 25),
            /*23 */ mi(Cmp, Curr, Prev, 0), // singleton already handled
            /*24 */ mi(Bnz, Zero, Zero, 26),
            /*25 */ mi(Halt, Zero, Zero, 0),
            /*26 */ mi(Store, List, Prev, 0), // anchor <- prev
            /*27 */ mi(Halt, Zero, Zero, 0),
        ],
    }
}

/// The micro-sequencer: executes a routine against the memory image.
#[derive(Debug)]
pub(crate) struct Sequencer {
    regs: [u16; REG_COUNT],
    zero_flag: bool,
}

impl Default for Sequencer {
    fn default() -> Self {
        Sequencer::new()
    }
}

impl Sequencer {
    /// A sequencer with cleared registers.
    pub(crate) fn new() -> Sequencer {
        Sequencer {
            regs: [0; REG_COUNT],
            zero_flag: false,
        }
    }

    /// Latches a register from the bus (the `LatchBus` step).
    pub(crate) fn latch(&mut self, reg: Reg, value: u16) {
        if reg != Reg::Zero {
            self.regs[reg as usize] = value;
        }
    }

    /// Reads a register (e.g. `Res` after FIRST).
    pub(crate) fn reg(&self, reg: Reg) -> u16 {
        if reg == Reg::Zero {
            NULL_PTR
        } else {
            self.regs[reg as usize]
        }
    }

    fn get(&self, idx: usize) -> u16 {
        if idx == Reg::Zero as usize {
            NULL_PTR
        } else {
            self.regs[idx]
        }
    }

    fn set(&mut self, idx: usize, value: u16) {
        if idx != Reg::Zero as usize {
            self.regs[idx] = value;
        }
    }

    /// Runs `routine` to completion against `mem`.
    ///
    /// # Errors
    ///
    /// Propagates memory range errors; a watchdog fault surfaces as
    /// [`Status::CorruptList`], not an error.
    pub(crate) fn run(
        &mut self,
        routine: &MicroRoutine,
        mem: &mut Memory,
    ) -> Result<Status, SlaveError> {
        let mut pc = 0usize;
        loop {
            let inst = routine.code[pc];
            pc += 1;
            match inst.op() {
                Op::Load => {
                    let addr = self.get(inst.b());
                    let v = mem.read_word(addr)?;
                    self.set(inst.a(), v);
                }
                Op::Store => {
                    let addr = self.get(inst.a());
                    mem.write_word(addr, self.get(inst.b()))?;
                }
                Op::Mov => {
                    let v = self.get(inst.b());
                    self.set(inst.a(), v);
                }
                Op::Cmp => {
                    self.zero_flag = self.get(inst.a()) == self.get(inst.b());
                }
                Op::Dec => {
                    let v = self.get(inst.a()).wrapping_sub(1);
                    self.set(inst.a(), v);
                    self.zero_flag = v == 0;
                }
                Op::Jmp => pc = inst.target(),
                Op::Bz => {
                    if self.zero_flag {
                        pc = inst.target();
                    }
                }
                Op::Bnz => {
                    if !self.zero_flag {
                        pc = inst.target();
                    }
                }
                Op::Halt => return Ok(Status::Ok),
                Op::Fault => return Ok(Status::CorruptList),
            }
        }
    }
}

/// Convenience wrappers: run a primitive via microcode.
pub mod exec {
    use super::*;

    /// Microcoded `Enqueue(element, list)`.
    ///
    /// # Errors
    ///
    /// Propagates memory range errors.
    pub fn enqueue(mem: &mut Memory, list: u16, element: u16) -> Result<Status, SlaveError> {
        let mut seq = Sequencer::new();
        seq.latch(Reg::List, list);
        seq.latch(Reg::Elem, element);
        seq.run(&enqueue_routine(), mem)
    }

    /// Microcoded `First(list)`: returns the dequeued head, `None` when
    /// empty.
    ///
    /// # Errors
    ///
    /// Propagates memory range errors.
    pub fn first(mem: &mut Memory, list: u16) -> Result<Option<u16>, SlaveError> {
        let mut seq = Sequencer::new();
        seq.latch(Reg::List, list);
        seq.run(&first_routine(), mem)?;
        let r = seq.reg(Reg::Res);
        Ok(if r == NULL_PTR { None } else { Some(r) })
    }

    /// Microcoded `Dequeue(element, list)`.
    ///
    /// # Errors
    ///
    /// [`SlaveError::CorruptList`] when the watchdog expires; memory range
    /// errors otherwise.
    pub fn dequeue(mem: &mut Memory, list: u16, element: u16) -> Result<(), SlaveError> {
        let mut seq = Sequencer::new();
        seq.latch(Reg::List, list);
        seq.latch(Reg::Elem, element);
        seq.latch(Reg::Count, (mem.size() / 2 + 2) as u16);
        match seq.run(&dequeue_routine(), mem)? {
            Status::Ok => Ok(()),
            Status::CorruptList => Err(SlaveError::CorruptList { list }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue;

    const LIST: u16 = 0x10;

    #[test]
    fn microcoded_enqueue_matches_high_level() {
        let mut hw = Memory::new(1024);
        let mut sw = Memory::new(1024);
        for e in [0x100u16, 0x200, 0x300] {
            exec::enqueue(&mut hw, LIST, e).unwrap();
            queue::enqueue(&mut sw, LIST, e).unwrap();
        }
        assert_eq!(hw.dump(0, 1024).unwrap(), sw.dump(0, 1024).unwrap());
        assert_eq!(
            queue::elements(&mut hw, LIST).unwrap(),
            vec![0x100, 0x200, 0x300]
        );
    }

    #[test]
    fn microcoded_first_matches_high_level() {
        let mut hw = Memory::new(1024);
        for e in [0x100u16, 0x200] {
            exec::enqueue(&mut hw, LIST, e).unwrap();
        }
        assert_eq!(exec::first(&mut hw, LIST).unwrap(), Some(0x100));
        assert_eq!(exec::first(&mut hw, LIST).unwrap(), Some(0x200));
        assert_eq!(exec::first(&mut hw, LIST).unwrap(), None);
        // Anchor holds NULL afterwards.
        assert_eq!(hw.read_word(LIST).unwrap(), NULL_PTR);
    }

    #[test]
    fn microcoded_dequeue_cases() {
        // middle / tail / singleton / missing — against the high-level
        // implementation.
        for victim in [0x200u16, 0x300, 0x100, 0x999] {
            let mut hw = Memory::new(1024);
            let mut sw = Memory::new(1024);
            for e in [0x100u16, 0x200, 0x300] {
                exec::enqueue(&mut hw, LIST, e).unwrap();
                queue::enqueue(&mut sw, LIST, e).unwrap();
            }
            exec::dequeue(&mut hw, LIST, victim).unwrap();
            queue::dequeue(&mut sw, LIST, victim).unwrap();
            assert_eq!(
                queue::elements(&mut hw, LIST).unwrap(),
                queue::elements(&mut sw, LIST).unwrap(),
                "victim {victim:#x}"
            );
            assert_eq!(hw.read_word(LIST).unwrap(), sw.read_word(LIST).unwrap());
        }
        // Singleton removal empties the list.
        let mut hw = Memory::new(1024);
        exec::enqueue(&mut hw, LIST, 0x100).unwrap();
        exec::dequeue(&mut hw, LIST, 0x100).unwrap();
        assert_eq!(hw.read_word(LIST).unwrap(), NULL_PTR);
    }

    #[test]
    fn watchdog_catches_corrupt_list() {
        let mut hw = Memory::new(1024);
        hw.write_word(LIST, 0x100).unwrap();
        hw.write_word(0x100, 0x102).unwrap();
        hw.write_word(0x102, 0x104).unwrap();
        hw.write_word(0x104, 0x102).unwrap(); // lasso skipping the tail
        let err = exec::dequeue(&mut hw, LIST, 0x998).unwrap_err();
        assert!(matches!(err, SlaveError::CorruptList { list: LIST }));
    }

    #[test]
    fn control_store_budget_appendix_a() {
        // One 24-bit word per micro-instruction, and every encoding fits
        // its word.
        let routines = [enqueue_routine(), first_routine(), dequeue_routine()];
        let bits: usize = routines.iter().map(|r| 24 * r.code.len()).sum();
        assert!(bits < 3_000, "queue routines use {bits} bits");
        for r in &routines {
            for i in &r.code {
                assert!(i.0 < (1 << 24));
            }
        }
    }

    #[test]
    fn cycle_counts_are_small_constants() {
        // Enqueue/first complete in O(1) micro-cycles — the hardware-speed
        // claim behind Table 6.1's arch-III column: every branch goes
        // forward, so a run executes each of at most 13 instructions once.
        for r in [enqueue_routine(), first_routine()] {
            assert!(r.code.len() <= 13, "{} instructions", r.code.len());
            for (pc, i) in r.code.iter().enumerate() {
                if matches!(i.op(), Op::Jmp | Op::Bz | Op::Bnz) {
                    assert!(i.target() > pc, "backward branch at {pc}");
                }
            }
        }
    }
}
