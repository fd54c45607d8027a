//! Experiment harness regenerating every table and figure of the dCat
//! paper.
//!
//! Every table and figure of the evaluation is an entry of
//! [`experiments::registry`] (indexed in the repository's `DESIGN.md`
//! §4): `dcat-bench <name>` runs one, `all_experiments` the suite, each
//! printing the same rows/series the paper reports. The shared machinery
//! lives here:
//!
//! * [`scenario`] — declarative multi-VM scenarios with workload start/stop
//!   schedules, run under any of the three policies the paper compares
//!   (shared cache, static CAT, dCat),
//! * [`report`] — plain-text table/series formatting, geometric means,
//!   and percentiles,
//! * [`experiments`] — one module per figure/table, each exposing a
//!   `run(fast)` entry point (integration tests call the scaled-down
//!   variants), and the registry over them,
//! * [`perf`] — `dcat-perfbench`'s gated timing suite.

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
