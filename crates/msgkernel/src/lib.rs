//! # msgkernel — a 925-style message-based operating system kernel
//!
//! A functional simulation of the IPC kernel of the 925 system (IBM Research
//! San Jose's office-workstation project, later "Quicksilver") as described
//! in Chapter 4 of Ramachandran's *Hardware Support for Interprocess
//! Communication*, partitioned exactly as the thesis implements it:
//!
//! * **Tasks** are units of execution with individual address spaces;
//! * **Services** are queueing points for messages; clients [`Syscall::Send`]
//!   fixed-size 40-byte [`Message`]s to a service, servers
//!   [`Syscall::Offer`] services and [`Syscall::Receive`] from them;
//! * a **rendezvous** forms when a send matches a receive; a *remote
//!   invocation* send keeps the client stopped until the server's
//!   [`Syscall::Reply`];
//! * messages may enclose a [`MemoryRef`] — a pointer into the client's
//!   address space with access rights — which the server exercises with
//!   [`Syscall::MemoryMove`] (the paper's `memory move`, V-kernel style);
//! * the kernel keeps two lists of task control blocks, the **computation
//!   list** (work for the host) and the **communication list** (work for the
//!   message coprocessor); the host enqueues a task on the communication
//!   list when it issues a communication request, and the MP enqueues tasks
//!   back on the computation list when they become runnable (Figures 4.4 /
//!   4.5);
//! * non-local communication exchanges network packets that *mirror the IPC
//!   calls* — exactly one `send` packet and one `reply` packet per
//!   round-trip, no low-level acknowledgements (§4.6).
//!
//! Like the paper's §4.4/§5.1 kernel, a delivery is a fixed handful of
//! indexed steps, independent of how many tasks and services the node
//! holds: per-task kernel state is a dense table indexed by [`TaskId`], a
//! queued message carries the [`BufferId`] it holds, and a server that
//! receives leaves only the waiting lists of the services it offers. The
//! two scheduling lists are plain in-kernel priority lists; a caller may
//! supply only the buffer free list ([`Kernel::with_queues`]).
//!
//! Timing is deliberately absent from this crate: `archsim` drives the same
//! kernel logic under the per-activity processing costs of the four
//! architectures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod error;
mod kernel;
mod message;
mod sched;
mod service;
mod task;

pub use buffer::{BufferId, BufferPool, BufferQueue};
pub use error::KernelError;
pub use kernel::{
    Kernel, KernelEvent, KernelStats, MoveDirection, Packet, PacketBody, SendMode, Syscall,
};
pub use message::{AccessRights, MemoryRef, Message, MESSAGE_SIZE};
pub use service::{ServiceAddr, ServiceId};
pub use task::{NodeId, Task, TaskId, TaskState};
