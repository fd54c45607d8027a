//! Synthetic workload models for the dCat reproduction.
//!
//! The paper evaluates dCat with two internally developed micro-benchmarks
//! (**MLR**, a stream of random reads over an array, and **MLOAD**, a
//! stream of sequential reads), the CPU-burner **lookbusy**, twenty
//! **SPEC CPU2006** benchmarks, and three cloud services (**Redis**,
//! **PostgreSQL**, **Elasticsearch**). None of those binaries can run
//! against a simulated cache, so this crate models each of them as an
//! [`AccessStream`]: an infinite generator of virtual-address references
//! plus an [`ExecutionProfile`] describing the workload's compute behavior
//! (memory references per instruction, base CPI, and memory-level
//! parallelism).
//!
//! The models preserve exactly the properties the paper's evaluation
//! depends on:
//!
//! * **working-set size** — whether the references fit in a given number of
//!   LLC ways,
//! * **reuse** — whether cached data is touched again (MLR: yes; MLOAD with
//!   a 60 MB cyclic scan: effectively never, the paper's "streaming"
//!   class),
//! * **access pattern** — dependent random loads (MLP ≈ 1) versus
//!   prefetch-friendly sequential scans (high MLP),
//! * **phase structure** — composite streams switch behavior to exercise
//!   dCat's phase detector, and
//! * **request boundaries** — service models mark request completion so the
//!   engine can report throughput and latency percentiles like the paper's
//!   Tables 4–6.

//! # Examples
//!
//! ```
//! use workloads::{AccessStream, Mlr, RedisModel};
//!
//! // The paper's random-read microbenchmark with a 6 MB working set.
//! let mut mlr = Mlr::new(6 * 1024 * 1024, 42);
//! let r = mlr.next_access();
//! assert!(r.vaddr.0 < 6 * 1024 * 1024);
//!
//! // A request-structured service model: the last access of each GET is
//! // flagged so the engine can record request latency.
//! let mut redis = RedisModel::paper_default(7);
//! let mut saw_end = false;
//! for _ in 0..16 {
//!     saw_end |= redis.next_access().ends_request;
//! }
//! assert!(saw_end);
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]
// The hash-container ban (root `clippy.toml`) guards simulator and
// controller state whose order reaches output; this crate's unit tests
// only count distinct values with them.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        reason = "unit tests only count distinct values; no iteration order escapes"
    )
)]

mod diurnal;
mod lookbusy;
mod mload;
mod mlr;
pub mod phased;
mod services;
mod spec;
mod stream;
mod trace;
mod zipf;

pub use diurnal::{DiurnalStream, DAY_CURVE};
pub use lookbusy::Lookbusy;
pub use mload::Mload;
pub use mlr::Mlr;
pub use phased::PhasedStream;
pub use services::{ElasticsearchModel, KeySampler, PostgresModel, RedisModel};
pub use spec::{spec_catalog, SpecBenchmark, SpecStream};
pub use stream::{AccessStream, ExecutionProfile, MemRef};
pub use trace::{Trace, TraceRecorder, TraceStream};
pub use zipf::ZipfSampler;
