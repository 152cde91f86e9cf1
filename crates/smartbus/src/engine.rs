//! The bus engine: masters, arbitration, tenures and edge-accurate timing.
//!
//! Each *tenure* of the bus is one request handshake or one pair of
//! streaming word transfers (the bus is granted two transfers at a time,
//! §5.3.1). Arbitration for the next tenure overlaps the current one, so it
//! adds no bus time; a master that keeps winning keeps streaming without
//! releasing the bus (Figure 5.19), and a higher-priority request preempts a
//! block transfer between word pairs — the memory's internal table lets the
//! preempted block resume later (§5.2).

use crate::arbitration::{Arbiter, RequestNumber};
use crate::command::Command;
use crate::timing::edges_to_ns;
use crate::transaction::{BlockDirection, BusSlave, Response, SlaveError, Tag, Transaction};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a bus unit (host, MP, network interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitId(usize);

/// Errors from the bus engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Each unit may have exactly one outstanding request (§5.2).
    UnitBusy(String),
    /// Error reported by the shared-memory slave.
    Slave(SlaveError),
    /// Two units were registered with the same arbitration number.
    DuplicateRequestNumber(u8),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnitBusy(name) => {
                write!(f, "unit `{name}` already has an outstanding request")
            }
            EngineError::Slave(e) => write!(f, "slave error: {e}"),
            EngineError::DuplicateRequestNumber(n) => {
                write!(f, "duplicate bus request number {n}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SlaveError> for EngineError {
    fn from(e: SlaveError) -> EngineError {
        EngineError::Slave(e)
    }
}

/// One entry of the bus activity trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusEvent {
    /// Start of the tenure, nanoseconds.
    pub at_ns: u64,
    /// Master of the tenure (`None` = the shared memory itself).
    pub master: Option<UnitId>,
    /// Command on the `CM` lines.
    pub command: Command,
    /// Handshake edges consumed.
    pub edges: u32,
    /// Human-readable detail.
    pub detail: String,
}

/// A completed transaction with its timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTransaction {
    /// The requesting unit.
    pub unit: UnitId,
    /// The original transaction.
    pub transaction: Transaction,
    /// The slave's response.
    pub response: Response,
    /// Submission time.
    pub submit_ns: u64,
    /// Completion time.
    pub complete_ns: u64,
}

#[derive(Debug)]
enum PendingState {
    /// Waiting to win the bus for the request handshake.
    Queued,
    /// Write block: request accepted, streaming words to memory.
    StreamingWrite {
        tag: Tag,
        data: Vec<u16>,
        cursor: usize,
    },
    /// Read block: request accepted, memory will stream words back.
    AwaitingRead { collected: Vec<u16> },
}

#[derive(Debug)]
struct PendingRequest {
    transaction: Transaction,
    submit_ns: u64,
    state: PendingState,
}

#[derive(Debug)]
struct Unit {
    name: String,
    br: RequestNumber,
    pending: Option<PendingRequest>,
}

/// The smart bus engine, parameterized by the shared-memory slave.
#[derive(Debug)]
pub struct BusEngine<S> {
    slave: S,
    units: Vec<Unit>,
    memory_br: RequestNumber,
    arbiter: Arbiter,
    time_ns: u64,
    trace: Vec<BusEvent>,
    trace_enabled: bool,
    completed: Vec<CompletedTransaction>,
    tag_owner: HashMap<Tag, UnitId>,
}

impl<S: BusSlave> BusEngine<S> {
    /// Creates an engine around `slave`; `memory_br` is the arbitration
    /// number the memory uses to master the bus for `block read data`.
    pub fn new(slave: S, memory_br: RequestNumber) -> BusEngine<S> {
        BusEngine {
            slave,
            units: Vec::new(),
            memory_br,
            arbiter: Arbiter::new(),
            time_ns: 0,
            trace: Vec::new(),
            trace_enabled: false,
            completed: Vec::new(),
            tag_owner: HashMap::new(),
        }
    }

    /// Registers a unit with a unique arbitration number.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateRequestNumber`] if the number is taken
    /// (including by the memory).
    pub fn add_unit(
        &mut self,
        name: impl Into<String>,
        br: RequestNumber,
    ) -> Result<UnitId, EngineError> {
        if br == self.memory_br || self.units.iter().any(|u| u.br == br) {
            return Err(EngineError::DuplicateRequestNumber(br.value()));
        }
        self.units.push(Unit {
            name: name.into(),
            br,
            pending: None,
        });
        Ok(UnitId(self.units.len() - 1))
    }

    /// Enables collection of the [`BusEvent`] trace.
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The bus activity trace (empty unless [`BusEngine::enable_trace`]).
    pub fn trace(&self) -> &[BusEvent] {
        &self.trace
    }

    /// Current simulated time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.time_ns
    }

    /// Access to the slave (e.g. to inspect memory contents in tests).
    pub fn slave(&self) -> &S {
        &self.slave
    }

    /// Mutable access to the slave.
    pub fn slave_mut(&mut self) -> &mut S {
        &mut self.slave
    }

    /// Submits a transaction for `unit`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnitBusy`] — each unit has exactly one outstanding
    /// request on this bus (§5.2).
    pub fn submit(&mut self, unit: UnitId, transaction: Transaction) -> Result<(), EngineError> {
        let u = &mut self.units[unit.0];
        if u.pending.is_some() {
            return Err(EngineError::UnitBusy(u.name.clone()));
        }
        u.pending = Some(PendingRequest {
            transaction,
            submit_ns: self.time_ns,
            state: PendingState::Queued,
        });
        Ok(())
    }

    /// Performs one bus tenure: arbitrate among the current contenders and
    /// let the winner run one request handshake or one streaming word pair.
    /// Returns `false` when the bus is idle (no contenders).
    ///
    /// # Errors
    ///
    /// Propagates slave errors ([`EngineError::Slave`]).
    pub fn step(&mut self) -> Result<bool, EngineError> {
        enum Master {
            Unit(usize),
            Memory(Tag),
        }
        let mut contenders: Vec<(Master, RequestNumber)> = Vec::new();
        for (i, u) in self.units.iter().enumerate() {
            if let Some(p) = &u.pending {
                match p.state {
                    PendingState::Queued | PendingState::StreamingWrite { .. } => {
                        contenders.push((Master::Unit(i), u.br));
                    }
                    // A unit awaiting a read stream is passive.
                    PendingState::AwaitingRead { .. } => {}
                }
            }
        }
        if let Some(tag) = self.slave.pending_read() {
            contenders.push((Master::Memory(tag), self.memory_br));
        }
        if contenders.is_empty() {
            return Ok(false);
        }
        let numbers: Vec<RequestNumber> = contenders.iter().map(|&(_, n)| n).collect();
        let winner = self
            .arbiter
            .resolve(&numbers)
            .expect("non-empty contention resolves");
        match contenders.swap_remove(winner).0 {
            Master::Unit(ui) => self.unit_tenure(ui)?,
            Master::Memory(tag) => self.memory_tenure(tag)?,
        }
        Ok(true)
    }

    /// Runs bus tenures until no unit has an outstanding request and the
    /// memory has no pending outbound stream. Returns the transactions that
    /// completed during this call, in completion order.
    ///
    /// # Errors
    ///
    /// Propagates slave errors ([`EngineError::Slave`]).
    pub fn run_until_idle(&mut self) -> Result<Vec<CompletedTransaction>, EngineError> {
        let start = self.completed.len();
        while self.step()? {}
        Ok(self.completed[start..].to_vec())
    }

    /// All transactions completed so far.
    pub fn completed(&self) -> &[CompletedTransaction] {
        &self.completed
    }

    fn record(&mut self, master: Option<UnitId>, command: Command, edges: u32, detail: String) {
        if self.trace_enabled {
            self.trace.push(BusEvent {
                at_ns: self.time_ns,
                master,
                command,
                edges,
                detail,
            });
        }
        self.time_ns += edges_to_ns(edges);
    }

    fn complete(&mut self, unit: usize, response: Response) {
        let pending = self.units[unit].pending.take().expect("pending request");
        self.completed.push(CompletedTransaction {
            unit: UnitId(unit),
            transaction: pending.transaction,
            response,
            submit_ns: pending.submit_ns,
            complete_ns: self.time_ns,
        });
    }

    fn unit_tenure(&mut self, ui: usize) -> Result<(), EngineError> {
        let state = {
            let p = self.units[ui]
                .pending
                .as_ref()
                .expect("contender has pending");
            match &p.state {
                PendingState::Queued => None,
                PendingState::StreamingWrite { tag, data, cursor } => {
                    Some((*tag, data.clone(), *cursor))
                }
                PendingState::AwaitingRead { .. } => unreachable!("passive unit won the bus"),
            }
        };

        match state {
            None => self.unit_request_tenure(ui),
            Some((tag, data, cursor)) => {
                // Stream the next (up to) two words: two edges each.
                let end = (cursor + 2).min(data.len());
                let chunk = &data[cursor..end];
                let words = chunk.len().max(1) as u32;
                self.record(
                    Some(UnitId(ui)),
                    Command::BlockWriteData,
                    2 * words,
                    format!("{tag} words {cursor}..{end}"),
                );
                let done = self.slave.stream_in(tag, chunk)?;
                if done || end >= data.len() {
                    self.tag_owner.remove(&tag);
                    self.complete(ui, Response::BlockWritten);
                } else if let Some(p) = self.units[ui].pending.as_mut() {
                    p.state = PendingState::StreamingWrite {
                        tag,
                        data,
                        cursor: end,
                    };
                }
                Ok(())
            }
        }
    }

    fn unit_request_tenure(&mut self, ui: usize) -> Result<(), EngineError> {
        let transaction = self.units[ui]
            .pending
            .as_ref()
            .expect("pending request")
            .transaction
            .clone();
        let command = transaction.command();
        let edges = command.handshake_edges();
        let priority = self.units[ui].br.value();
        match transaction {
            Transaction::SimpleRead { addr } => {
                self.record(Some(UnitId(ui)), command, edges, format!("read {addr:#x}"));
                let v = self.slave.simple_read(addr)?;
                self.complete(ui, Response::Data(v));
            }
            Transaction::WriteWord { addr, value } => {
                self.record(Some(UnitId(ui)), command, edges, format!("write {addr:#x}"));
                self.slave.write_word(addr, value)?;
                self.complete(ui, Response::Ack);
            }
            Transaction::WriteByte { addr, value } => {
                self.record(
                    Some(UnitId(ui)),
                    command,
                    edges,
                    format!("writeb {addr:#x}"),
                );
                self.slave.write_byte(addr, value)?;
                self.complete(ui, Response::Ack);
            }
            Transaction::Enqueue { list, element } => {
                self.record(
                    Some(UnitId(ui)),
                    command,
                    edges,
                    format!("enqueue {element:#x} on {list:#x}"),
                );
                self.slave.enqueue(list, element)?;
                self.complete(ui, Response::Ack);
            }
            Transaction::Dequeue { list, element } => {
                self.record(
                    Some(UnitId(ui)),
                    command,
                    edges,
                    format!("dequeue {element:#x} from {list:#x}"),
                );
                self.slave.dequeue(list, element)?;
                self.complete(ui, Response::Ack);
            }
            Transaction::First { list } => {
                self.record(
                    Some(UnitId(ui)),
                    command,
                    edges,
                    format!("first of {list:#x}"),
                );
                let e = self.slave.first(list)?;
                self.complete(ui, Response::Element(e));
            }
            Transaction::BlockTransfer {
                addr,
                count,
                direction,
                data,
            } => {
                self.record(
                    Some(UnitId(ui)),
                    command,
                    edges,
                    format!("block {direction:?} {addr:#x}+{count}"),
                );
                let tag = self
                    .slave
                    .block_transfer(addr, count, direction, priority)?;
                self.tag_owner.insert(tag, UnitId(ui));
                let p = self.units[ui].pending.as_mut().expect("pending request");
                p.state = match direction {
                    BlockDirection::Write => PendingState::StreamingWrite {
                        tag,
                        data,
                        cursor: 0,
                    },
                    BlockDirection::Read => PendingState::AwaitingRead {
                        collected: Vec::new(),
                    },
                };
            }
        }
        Ok(())
    }

    fn memory_tenure(&mut self, tag: Tag) -> Result<(), EngineError> {
        let (words, done) = self.slave.stream_out(tag, 2)?;
        let n = words.len().max(1) as u32;
        self.record(
            None,
            Command::BlockReadData,
            2 * n,
            format!("{tag} streams {} words", words.len()),
        );
        let owner = self.tag_owner.get(&tag).copied();
        if let Some(UnitId(ui)) = owner {
            let mut finished = false;
            if let Some(p) = self.units[ui].pending.as_mut() {
                if let PendingState::AwaitingRead { collected, .. } = &mut p.state {
                    collected.extend_from_slice(&words);
                    finished = done;
                }
            }
            if finished {
                self.tag_owner.remove(&tag);
                let collected = match self.units[ui].pending.as_mut().map(|p| &mut p.state) {
                    Some(PendingState::AwaitingRead { collected, .. }) => std::mem::take(collected),
                    _ => Vec::new(),
                };
                self.complete(ui, Response::Block(collected));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-crate slave for engine tests: flat memory, FIFO block
    /// table, no queue support beyond a trivial stack.
    #[derive(Debug, Default)]
    struct TestSlave {
        mem: Vec<u8>,
        blocks: Vec<(Tag, u16, u16, BlockDirection, u16, u8)>, // tag, addr, count, dir, cursor(bytes), prio
        next_tag: u8,
    }

    impl TestSlave {
        fn new(size: usize) -> TestSlave {
            TestSlave {
                mem: vec![0; size],
                blocks: Vec::new(),
                next_tag: 0,
            }
        }
    }

    impl BusSlave for TestSlave {
        fn simple_read(&mut self, addr: u16) -> Result<u16, SlaveError> {
            let a = addr as usize;
            Ok(u16::from(self.mem[a]) | (u16::from(self.mem[a + 1]) << 8))
        }
        fn write_word(&mut self, addr: u16, value: u16) -> Result<(), SlaveError> {
            let a = addr as usize;
            self.mem[a] = value as u8;
            self.mem[a + 1] = (value >> 8) as u8;
            Ok(())
        }
        fn write_byte(&mut self, addr: u16, value: u8) -> Result<(), SlaveError> {
            self.mem[addr as usize] = value;
            Ok(())
        }
        fn block_transfer(
            &mut self,
            addr: u16,
            count: u16,
            direction: BlockDirection,
            priority: u8,
        ) -> Result<Tag, SlaveError> {
            let tag = Tag(self.next_tag);
            self.next_tag += 1;
            self.blocks.push((tag, addr, count, direction, 0, priority));
            Ok(tag)
        }
        fn pending_read(&self) -> Option<Tag> {
            self.blocks
                .iter()
                .filter(|b| matches!(b.3, BlockDirection::Read))
                .max_by_key(|b| b.5)
                .map(|b| b.0)
        }
        fn stream_out(
            &mut self,
            tag: Tag,
            max_words: usize,
        ) -> Result<(Vec<u16>, bool), SlaveError> {
            let b = self
                .blocks
                .iter_mut()
                .find(|b| b.0 == tag)
                .ok_or(SlaveError::UnknownTag(tag))?;
            let mut words = Vec::new();
            for _ in 0..max_words {
                if b.4 >= b.2 {
                    break;
                }
                let a = (b.1 + b.4) as usize;
                words.push(u16::from(self.mem[a]) | (u16::from(self.mem[a + 1]) << 8));
                b.4 += 2;
            }
            let done = b.4 >= b.2;
            if done {
                let t = b.0;
                self.blocks.retain(|b| b.0 != t);
            }
            Ok((words, done))
        }
        fn stream_in(&mut self, tag: Tag, words: &[u16]) -> Result<bool, SlaveError> {
            let b = self
                .blocks
                .iter_mut()
                .find(|b| b.0 == tag)
                .ok_or(SlaveError::UnknownTag(tag))?;
            for &w in words {
                let a = (b.1 + b.4) as usize;
                self.mem[a] = w as u8;
                self.mem[a + 1] = (w >> 8) as u8;
                b.4 += 2;
            }
            let done = b.4 >= b.2;
            if done {
                self.blocks.retain(|x| x.0 != tag);
            }
            Ok(done)
        }
        fn enqueue(&mut self, _list: u16, _element: u16) -> Result<(), SlaveError> {
            Ok(())
        }
        fn dequeue(&mut self, _list: u16, _element: u16) -> Result<(), SlaveError> {
            Ok(())
        }
        fn first(&mut self, _list: u16) -> Result<Option<u16>, SlaveError> {
            Ok(None)
        }
    }

    fn engine() -> BusEngine<TestSlave> {
        BusEngine::new(TestSlave::new(1024), RequestNumber::new(7))
    }

    #[test]
    fn simple_write_then_read() {
        let mut bus = engine();
        let host = bus.add_unit("host", RequestNumber::new(1)).unwrap();
        bus.submit(
            host,
            Transaction::WriteWord {
                addr: 16,
                value: 0xBEEF,
            },
        )
        .unwrap();
        bus.run_until_idle().unwrap();
        bus.submit(host, Transaction::SimpleRead { addr: 16 })
            .unwrap();
        let done = bus.run_until_idle().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].response, Response::Data(0xBEEF));
        // Write = 4 edges (1 us), read = 8 edges (2 us).
        assert_eq!(bus.time_ns(), 3 * edges_to_ns(4));
    }

    #[test]
    fn forty_byte_block_write_takes_11_us() {
        // Table 6.1: one four-edge request + twenty two-edge transfers.
        let mut bus = engine();
        let mp = bus.add_unit("mp", RequestNumber::new(2)).unwrap();
        let data: Vec<u16> = (0..20).collect();
        bus.submit(
            mp,
            Transaction::BlockTransfer {
                addr: 0,
                count: 40,
                direction: BlockDirection::Write,
                data,
            },
        )
        .unwrap();
        let done = bus.run_until_idle().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].response, Response::BlockWritten);
        assert_eq!(bus.time_ns(), 11_000);
    }

    #[test]
    fn forty_byte_block_read_takes_11_us() {
        let mut bus = engine();
        let mp = bus.add_unit("mp", RequestNumber::new(2)).unwrap();
        for i in 0..40u16 {
            bus.slave_mut().mem[i as usize] = i as u8;
        }
        bus.submit(
            mp,
            Transaction::BlockTransfer {
                addr: 0,
                count: 40,
                direction: BlockDirection::Read,
                data: Vec::new(),
            },
        )
        .unwrap();
        let done = bus.run_until_idle().unwrap();
        assert_eq!(done.len(), 1);
        match &done[0].response {
            Response::Block(words) => {
                assert_eq!(words.len(), 20);
                assert_eq!(words[1], 0x0302);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(bus.time_ns(), 11_000);
    }

    #[test]
    fn one_outstanding_request_per_unit() {
        let mut bus = engine();
        let host = bus.add_unit("host", RequestNumber::new(1)).unwrap();
        bus.submit(host, Transaction::SimpleRead { addr: 0 })
            .unwrap();
        let err = bus
            .submit(host, Transaction::SimpleRead { addr: 2 })
            .unwrap_err();
        assert!(matches!(err, EngineError::UnitBusy(_)));
    }

    #[test]
    fn duplicate_request_numbers_rejected() {
        let mut bus = engine();
        bus.add_unit("a", RequestNumber::new(1)).unwrap();
        let err = bus.add_unit("b", RequestNumber::new(1)).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRequestNumber(1)));
        // The memory's own number is also reserved.
        let err = bus.add_unit("c", RequestNumber::new(7)).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRequestNumber(7)));
    }

    #[test]
    fn higher_priority_queue_op_preempts_block_stream() {
        // A long low-priority write stream is in progress; a high-priority
        // enqueue slips in between word pairs rather than waiting for the
        // whole block.
        let mut bus = BusEngine::new(TestSlave::new(4096), RequestNumber::new(0));
        let nic = bus.add_unit("nic", RequestNumber::new(2)).unwrap();
        let host = bus.add_unit("host", RequestNumber::new(5)).unwrap();
        bus.enable_trace();
        let data: Vec<u16> = (0..50).collect();
        bus.submit(
            nic,
            Transaction::BlockTransfer {
                addr: 0,
                count: 100,
                direction: BlockDirection::Write,
                data,
            },
        )
        .unwrap();
        bus.submit(
            host,
            Transaction::Enqueue {
                list: 512,
                element: 600,
            },
        )
        .unwrap();
        let done = bus.run_until_idle().unwrap();
        // The enqueue completes first even though the block was submitted
        // first.
        assert_eq!(done[0].unit, host);
        assert_eq!(done[1].unit, nic);
        // And the trace shows the enqueue happening before the first
        // streaming pair (the block's request handshake may still precede
        // submission order is same-time; the key property is the enqueue is
        // not last).
        let enq_pos = bus
            .trace()
            .iter()
            .position(|e| e.command == Command::EnqueueControlBlock)
            .unwrap();
        let last_stream = bus
            .trace()
            .iter()
            .rposition(|e| e.command == Command::BlockWriteData)
            .unwrap();
        assert!(enq_pos < last_stream);
    }

    #[test]
    fn memory_streams_higher_priority_read_first() {
        let mut bus = BusEngine::new(TestSlave::new(4096), RequestNumber::new(7));
        let lo = bus.add_unit("lo", RequestNumber::new(1)).unwrap();
        let hi = bus.add_unit("hi", RequestNumber::new(3)).unwrap();
        bus.submit(
            lo,
            Transaction::BlockTransfer {
                addr: 0,
                count: 40,
                direction: BlockDirection::Read,
                data: Vec::new(),
            },
        )
        .unwrap();
        bus.submit(
            hi,
            Transaction::BlockTransfer {
                addr: 100,
                count: 40,
                direction: BlockDirection::Read,
                data: Vec::new(),
            },
        )
        .unwrap();
        let done = bus.run_until_idle().unwrap();
        // The high-priority unit's block is streamed first.
        assert_eq!(done[0].unit, hi);
        assert_eq!(done[1].unit, lo);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut bus = engine();
        let host = bus.add_unit("host", RequestNumber::new(1)).unwrap();
        bus.submit(host, Transaction::SimpleRead { addr: 0 })
            .unwrap();
        bus.run_until_idle().unwrap();
        assert!(bus.trace().is_empty());
    }
}
