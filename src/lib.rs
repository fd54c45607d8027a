//! dcat-suite: umbrella crate tying the dCat reproduction together.
//!
//! The real functionality lives in the workspace crates; this crate
//! re-exports the pieces a downstream user touches first and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! * [`llc_sim`] — the cache-hierarchy simulator (CAT semantics, paging,
//!   counters, latency model).
//! * [`perf_events`] — counter snapshots and derived metrics.
//! * [`resctrl`] — classes of service, capacity bitmasks, layout planning,
//!   and the resctrl-filesystem backend.
//! * [`workloads`] — MLR/MLOAD/lookbusy, SPEC-like profiles, and the
//!   Redis/PostgreSQL/Elasticsearch service models.
//! * [`host`] — the multi-VM socket engine.
//! * [`dcat`] — the controller itself plus the shared-cache and static-CAT
//!   baselines.
//!
//! # Examples
//!
//! ```
//! use dcat_suite::prelude::*;
//!
//! let cfg = EngineConfig::xeon_e5_v4();
//! let vms = vec![
//!     VmSpec::new("tenant-a", vec![0, 1], 3),
//!     VmSpec::new("tenant-b", vec![2, 3], 3),
//! ];
//! let mut engine = Engine::new(cfg, vms).unwrap();
//! engine.start_workload(0, Box::new(Mlr::new(8 * 1024 * 1024, 42)));
//! let stats = engine.run_epoch();
//! assert!(stats[0].instructions > 0);
//! ```

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use dcat::{
        AllocationPolicy, CachePolicy, DcatConfig, DcatController, SharedCachePolicy,
        StaticCatPolicy, WorkloadClass, WorkloadHandle,
    };
    pub use host::{Engine, EngineConfig, VmEpochStats, VmSpec};
    pub use llc_sim::{CacheGeometry, Hierarchy, HierarchyConfig, LatencyModel, WayMask};
    pub use perf_events::{CounterSnapshot, IntervalMetrics};
    pub use resctrl::{CacheController, CatCapabilities, Cbm, CosId, InMemoryController};
    pub use workloads::{
        AccessStream, ElasticsearchModel, Lookbusy, Mload, Mlr, PostgresModel, RedisModel,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let handles = vec![WorkloadHandle::new("t", vec![0, 1], 4)];
        let ctl = DcatController::new(DcatConfig::default(), handles, &mut cat).unwrap();
        assert_eq!(ctl.num_domains(), 1);
    }
}
