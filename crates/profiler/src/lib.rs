//! # profiler — the Chapter 3 kernel-profiling study
//!
//! The thesis profiles four operating systems — Charlotte, Jasmin, the IBM
//! 925, and 4.2bsd Unix — to show that message passing carries a large
//! *fixed* processing overhead (validity checking, control-block
//! manipulation, short-term scheduling, buffer management) for **local as
//! well as non-local** communication, with copy time only dominating for
//! multi-kilobyte messages.
//!
//! We cannot rerun a VAX 11/750 or a Versabus 68000, so this crate rebuilds
//! the *measurement*: each system is encoded as a synthetic kernel — its
//! published activity structure with per-activity instruction budgets on
//! its published processor speed — and replayed through the §3.3
//! procedure-call profiling harness: a wrapping hardware timer read at
//! procedure entry/exit, per-procedure `(count, timer_value_at_entry,
//! elapsed_time)` records, and correction for the timing code's own
//! overhead. Regenerating Tables 3.1–3.7 is then an actual exercise of the
//! instrumentation, not a constant dump.
//!
//! ```
//! use profiler::{systems, KernelRun};
//!
//! let spec = systems::charlotte();
//! let table = KernelRun::new(&spec).execute(100).breakdown();
//! let protocol = table.rows.iter().find(|r| r.name.contains("Protocol")).unwrap();
//! assert!((protocol.percent - 50.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod harness;
mod spec;
mod timer;

pub mod analysis;
pub mod msgpath;
pub mod systems;

pub use harness::{Breakdown, BreakdownRow, KernelRun};
pub use spec::{ActivitySpec, KernelSpec};
