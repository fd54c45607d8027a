//! Socket/VM topology and the epoch-based execution engine.
//!
//! This crate ties the substrates together the way the paper's testbed
//! does: a socket ([`SocketConfig`]) hosts several VMs ([`VmSpec`]) with
//! dedicated, pinned cores; each VM runs at most one workload (an
//! [`workloads::AccessStream`]); the [`Engine`] interleaves their execution
//! against the shared [`llc_sim::Hierarchy`] in fixed-length **epochs**
//! (one epoch = one controller interval, the paper's 1 s sampling period).
//!
//! After each epoch the engine exposes:
//!
//! * per-VM [`perf_events::CounterSnapshot`]s (what an MSR reader would
//!   return on real hardware), and
//! * an [`EngineCat`] adapter implementing [`resctrl::CacheController`],
//!   so the dCat controller programs the simulated socket exactly as it
//!   would program `/sys/fs/resctrl`.

//! # Examples
//!
//! ```
//! use host::{Engine, EngineConfig, VmSpec};
//! use workloads::Lookbusy;
//!
//! let mut engine = Engine::new(
//!     EngineConfig::xeon_e5_v4(),
//!     vec![VmSpec::new("tenant", vec![0, 1], 4)],
//! )
//! .unwrap();
//! engine.start_workload(0, Box::new(Lookbusy::new()));
//! let stats = engine.run_epoch();
//! assert!(stats[0].instructions > 0);
//! assert_eq!(stats[0].ways, 20); // unmanaged: full mask
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod engine;
mod pool;
mod topology;

pub use engine::{Engine, EngineCat, EngineConfig, VmEpochStats};
pub use pool::Pool;
pub use topology::{SocketConfig, VmSpec};
