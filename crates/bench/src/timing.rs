//! The workspace's one wall clock, which `dcat-perfbench` measures
//! through: results are a pure function of seed and config, so nothing
//! else reads real time.

use std::time::Instant;

/// Wall-clock [`dcat_obs::CycleSource`]: reports nanoseconds since
/// construction as "cycles".
///
/// This module is the workspace's only sanctioned wall-clock user, so
/// the one tracer cycle source backed by real time lives here. Attach
/// it to a [`dcat_obs::Tracer`] for local latency profiling only —
/// golden-snapshot and determinism paths leave cycles at their default
/// of zero, and zero-cycle spans render no cycle histograms.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A source whose epoch is the moment of construction.
    #[allow(
        clippy::disallowed_methods,
        reason = "the owner: the workspace's one sanctioned wall-clock reader"
    )]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl dcat_obs::CycleSource for WallClock {
    fn now_cycles(&mut self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
