//! Experiment harness regenerating every table and figure of the dCat
//! paper.
//!
//! Each `fig*`/`tab*` binary under `src/bin/` reproduces one table or
//! figure of the evaluation (the mapping is indexed in the repository's
//! `DESIGN.md`), printing the same rows/series the paper reports. The
//! shared machinery lives here:
//!
//! * [`scenario`] — declarative multi-VM scenarios with workload start/stop
//!   schedules, run under any of the three policies the paper compares
//!   (shared cache, static CAT, dCat),
//! * [`report`] — plain-text table/series formatting, geometric means,
//!   and percentiles,
//! * [`experiments`] — one module per figure/table, each exposing a
//!   `run(fast)` entry point (binaries call `run(false)`; integration
//!   tests call scaled-down variants).

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod experiments;
pub mod fleet;
pub mod perf;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod timing;

pub use fleet::{
    run_fleet, run_fleet_with, FleetConfig, FleetPolicy, FleetResult, FleetSink, TenantSpec,
};
pub use runner::{main_with, Cli, Runner};
pub use scenario::{PolicyKind, RunResult, ScheduleItem, VmPlan};
