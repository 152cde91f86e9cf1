//! # smartmem — the smart shared memory controller (Chapter 5 / Appendix A)
//!
//! The smart bus of the paper assumes a shared memory with enough
//! "intelligence" to execute high-level transactions: multiplexed block
//! transfers tracked in an internal request table, and *atomic queue
//! manipulation* on singly-linked circular lists of control blocks. The
//! thesis demonstrates feasibility with a microprogrammed controller design
//! (under 3000 bits of microcode, two-chip packaging, Appendix A).
//!
//! This crate simulates that controller:
//!
//! * [`Memory`] — the byte-addressable memory module (task control blocks +
//!   kernel buffers live here; the paper sizes it under 64 KB, which is why
//!   the bus carries 16-bit addresses).
//! * The block table — the internal table of outstanding block transfers
//!   ([`SmartMemory::block_table`]); one entry per tag, progress cursor per entry, so a lower-priority
//!   transfer preempted between word pairs resumes where it stopped.
//! * [`queue`] — the `Enqueue` / `First` / `Dequeue` primitives, coded
//!   exactly from the §5.1 pseudo-code over the memory image.
//! * [`shared`] — the same three queue transactions behind a
//!   thread-shareable trait for the live runtime: a lock-serialized module
//!   running the §5.1 routines (Architecture II) and a lock-free module
//!   whose transactions are single atomic operations (Architectures
//!   III/IV).
//! * [`SmartMemory`] — the whole controller, implementing
//!   [`smartbus::BusSlave`] so it plugs into the bus engine, plus the §A.5
//!   error handling (bad tags, table overflow, corrupt lists, out-of-range
//!   addresses).
//!
//! ## Quick example
//!
//! ```
//! use smartmem::SmartMemory;
//! use smartbus::{BusEngine, BusSlave, RequestNumber, Transaction, Response};
//!
//! let mut bus = BusEngine::new(SmartMemory::new(64 * 1024), RequestNumber::new(7));
//! let host = bus.add_unit("host", RequestNumber::new(1))?;
//! // Build a one-element circular list anchored at 0x100 and pop it.
//! bus.submit(host, Transaction::Enqueue { list: 0x100, element: 0x200 })?;
//! bus.run_until_idle()?;
//! bus.submit(host, Transaction::First { list: 0x100 })?;
//! let done = bus.run_until_idle()?;
//! assert_eq!(done[0].response, Response::Element(Some(0x200)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod blocktable;
mod controller;
mod errors;
mod memory;

pub mod microcode;
pub mod queue;
pub mod shared;

pub use controller::SmartMemory;
pub use memory::Memory;

/// The distinguished NULL pointer value for circular lists (§5.1): address
/// zero never holds a control block.
pub const NULL_PTR: u16 = 0;
