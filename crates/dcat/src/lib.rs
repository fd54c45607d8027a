//! dCat: dynamic LLC way-allocation on top of Intel CAT.
//!
//! Reproduction of *"dCat: Dynamic Cache Management for Efficient,
//! Performance-sensitive Infrastructure-as-a-Service"* (EuroSys 2018).
//!
//! The controller treats each tenant VM/container as a black box and runs
//! the paper's five-step loop once per interval:
//!
//! 1. **Get Baseline** — after a phase change the workload is returned to
//!    its contracted (reserved) way count; the IPC measured there is the
//!    guaranteed minimum for the phase.
//! 2. **Collect Statistics** — per-domain counter deltas become
//!    [`perf_events::IntervalMetrics`].
//! 3. **Detect Phase Change** — memory accesses per instruction
//!    (`l1_ref / ret_ins`) shifting by more than 10% signals a new phase
//!    (`PhaseDetector`, crates/dcat/src/phase.rs).
//! 4. **Categorize Workloads** — the Figure-6 state machine over
//!    {[`WorkloadClass::Keeper`], [`WorkloadClass::Donor`],
//!    [`WorkloadClass::Receiver`], [`WorkloadClass::Streaming`],
//!    [`WorkloadClass::Unknown`], [`WorkloadClass::Reclaim`]}.
//! 5. **Allocate Cache** — way-granular targets with Reclaim at absolute
//!    priority, Unknown prioritized over Receiver, and either the
//!    max-fairness or the performance-table-driven max-performance policy;
//!    the targets are laid out as contiguous non-overlapping CBMs and
//!    programmed through any [`resctrl::CacheController`].
//!
//! Per-phase [`perf_table::PerformanceTable`]s record normalized IPC per
//! way count so a recurring phase is granted its preferred allocation
//! immediately (the paper's Figure 12).
//!
//! # Examples
//!
//! ```
//! use dcat::{DcatConfig, DcatController, WorkloadHandle};
//! use resctrl::{CacheController, CatCapabilities, InMemoryController};
//!
//! let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
//! let domains = vec![
//!     WorkloadHandle::new("tenant-a", vec![0, 1], 3),
//!     WorkloadHandle::new("tenant-b", vec![2, 3], 3),
//! ];
//! let mut ctl = DcatController::new(DcatConfig::default(), domains, &mut cat).unwrap();
//! // Each interval: read counters, then tick.
//! let snapshots = vec![Default::default(); 2];
//! let reports = ctl.tick(&snapshots, &mut cat).unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]
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

mod baselines;
mod config;
mod control;
mod controller;
pub mod daemon;
mod events;
mod invariants;
mod lfoc;
mod memshare;
pub mod perf_table;
mod phase;
pub mod policy;
mod state;
mod telemetry;
mod transitions;

pub use baselines::{SharedCachePolicy, StaticCatPolicy};
pub use config::{AllocationPolicy, DcatConfig};
pub use control::{ControlLoop, ResiliencePolicy, SampleSink, Telemetry, TickObservation, Totals};
pub use controller::{DcatController, DomainReport, WorkloadHandle};
pub use daemon::{frame_from_observation, frame_from_reports, DaemonConfig};
pub use events::{DegradeReason, Event};
pub use lfoc::{LfocConfig, LfocPolicy};
pub use memshare::{MemshareConfig, MemsharePolicy};
pub use perf_table::PerformanceTable;
pub use policy::{CachePolicy, TickInput};
pub use state::WorkloadClass;
pub use telemetry::{
    parse_telemetry_lossy, CsvTelemetry, FaultyTelemetry, FileTelemetry, RowIssue, TelemetryFeed,
};
