//! Performance-counter plumbing between the hardware (or simulator) and the
//! dCat controller.
//!
//! The paper's prototype reads five MSR events per core (its Table 2):
//! LLC misses, LLC references, L1 cache misses/hits, retired instructions,
//! and unhalted cycles. This crate defines:
//!
//! * monotonic [`CounterSnapshot`]s and interval deltas, and
//! * the derived [`IntervalMetrics`] the controller actually reasons about
//!   (IPC, LLC miss rate, memory accesses per instruction, …).

//! # Examples
//!
//! ```
//! use perf_events::{CounterSnapshot, IntervalMetrics};
//!
//! let earlier = CounterSnapshot::default();
//! let later = CounterSnapshot {
//!     l1_ref: 340_000,
//!     llc_ref: 120_000,
//!     llc_miss: 6_000,
//!     ret_ins: 1_000_000,
//!     cycles: 2_000_000,
//! };
//! let m = IntervalMetrics::between(&earlier, &later);
//! assert!((m.ipc - 0.5).abs() < 1e-9);
//! assert!((m.llc_miss_rate - 0.05).abs() < 1e-9);
//! assert!((m.mem_access_per_instr - 0.34).abs() < 1e-9);
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]
// Counter math: no silent truncation or sign change (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::as_conversions))]
// A tick degrades, it never dies: no panicking call, index, slice or division
// anywhere in the crate the tick runs in, save a fn-level `#[expect]` with its
// reason (DESIGN.md §12).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division
)]

pub mod convert;
pub mod metrics;
pub mod snapshot;

pub use metrics::IntervalMetrics;
pub use snapshot::{CounterSnapshot, WrapOutcome};
