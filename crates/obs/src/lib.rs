//! dcat-obs: deterministic observability for the dCat reproduction.
//!
//! Three pillars, all dependency-free and all safe to leave enabled in the
//! byte-identity determinism regression:
//!
//! 1. **Metrics registry** ([`metrics`]) — counters, gauges, and fixed-bucket
//!    histograms keyed by static name + label set. Snapshots are B-tree
//!    backed and merge commutatively, so per-worker registries from
//!    `host::pool` collapse to the same bytes in any permutation. Export:
//!    Prometheus text ([`Snapshot::to_prometheus`]).
//! 2. **Logical-clock tracing** ([`trace`]) — span enter/exit for each daemon
//!    pipeline stage and engine epoch, timed in ticks/epochs by default and
//!    in cycles only when a [`CycleSource`] (implemented in `bench::timing`,
//!    the one wall-clock-sanctioned module) is explicitly installed.
//! 3. **Flight recorder** ([`recorder`]) — a bounded ring of the last K
//!    ticks' spans + events, dumped as JSONL on `InvariantViolation`,
//!    `DomainQuarantined`, or daemon exit.
//!
//! [`json`] holds the hand-rolled escaping/builder/parser shared by all
//! renderers, [`promcheck`] the Prometheus validator, and [`frames`] the
//! `dcat-frames/v2` per-tick stream and the flight-dump validator. A
//! library only: `dcat-top --replay` reads every artifact back.

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

pub mod frames;
pub mod json;
pub mod metrics;
mod pow10_table;
pub mod promcheck;
pub mod recorder;
pub mod trace;

pub use frames::{
    check_flight, check_frames, DomainFrame, Frame, FrameWriter, FramesSummary, LfocExt,
    MemshareExt, PolicyExt, FLIGHT_SCHEMA, FRAMES_SCHEMA,
};
pub use metrics::{
    write_text, Histogram, MetricKey, MetricValue, Registry, SeriesId, Snapshot, CYCLE_BUCKETS,
    DEFAULT_STEP_BUCKETS,
};
pub use promcheck::{check_prometheus, PromSummary};
pub use recorder::{FlightRecorder, TickRecord};
pub use trace::{CycleSource, SpanRecord, Tracer};
