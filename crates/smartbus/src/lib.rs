//! # smartbus — the paper's smart bus (Chapter 5)
//!
//! An edge-accurate simulation of the *smart bus* proposed in Ramachandran's
//! *Hardware Support for Interprocess Communication*: a bus connecting the
//! host, the message coprocessor (MP) and the network interfaces to a smart
//! shared memory, supporting three transaction families:
//!
//! * **Block requests** — `block transfer` (intent: address + count, answered
//!   with a tag), `block read data` / `block write data` (tagged streaming
//!   data movement, two handshake edges per 16-bit word). The shared memory
//!   caches request state in an internal table so a lower-priority block can
//!   be *preempted and restarted* after a higher-priority one — the bus is
//!   never locked for arbitrary time (§5.2).
//! * **Atomic queue manipulation** — `enqueue control block`,
//!   `first control block`, `dequeue control block` on singly-linked
//!   circular lists maintained inside the memory (§5.3.2).
//! * **Simple read/write** at byte granularity (§5.3.3).
//!
//! Arbitration is the distributed scheme of §5.4 (after Taub): contenders
//! place 3-bit request numbers on wired-or lines `BR0–BR2`; the recurrence
//!
//! ```text
//! OK_0 = 1,  OK_i = (!BR_{i-1} | br_{i-1}) & OK_{i-1},  BR_i = OK_i & br_i
//! ```
//!
//! settles so the highest number wins. Arbitration overlaps the current
//! information cycle, so it costs no bus time; the bus is granted for two
//! streaming transfers at a time, and the current master keeps streaming
//! without releasing `BBSY` while it keeps winning (§5.3.1, Figure 5.19).
//!
//! Timing follows the paper's §6.4 calibration: a four-edge handshake equals
//! one Versabus memory cycle (1 µs); a two-edge streaming transfer takes
//! half that.
//!
//! The actual memory behaviour is pluggable through the [`BusSlave`] trait —
//! the `smartmem` crate provides the paper's microprogrammed controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arbitration;
mod command;
mod engine;
mod timing;
mod transaction;

pub mod signal;
pub mod waveform;

pub use arbitration::{Arbiter, RequestNumber};
pub use command::Command;
pub use engine::{BusEngine, BusEvent, CompletedTransaction, EngineError, UnitId};
pub use transaction::{BlockDirection, BusSlave, Response, SlaveError, Tag, Transaction};
