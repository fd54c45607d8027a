//! Every metric the benchmark reports: name, unit, direction. This table
//! and `BENCHMARK.json` must agree; `run.sh --check` compares them.
//!
//! End-to-end metrics are what a user of the system sees, and each is
//! reported by every workload. Per-layer metrics carry their layer (the
//! crate name) as a prefix and come from the traced pass; a layer a
//! workload does not exercise reports 0.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn decl(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// The layers of the ledger: the crates a reference passes through.
pub const LAYERS: [&str; 8] = [
    "workloads",
    "llc_sim",
    "host",
    "dcat",
    "resctrl",
    "obs",
    "top",
    "bench",
];

pub const END_TO_END: &[Decl] = &[
    decl("setup_s", "s", "lower"),
    decl("domain_intervals_per_s", "1/s", "higher"),
    decl("cpu_us_per_interval", "us", "lower"),
    decl("peak_rss_mb", "MiB", "lower"),
    decl("guarantee_min_ratio", "ratio", "higher"),
    decl("benefit_geomean_ratio", "ratio", "higher"),
];

pub const PER_LAYER: &[Decl] = &[
    decl("workloads.next_batch_ns_per_ref", "ns", "lower"),
    decl("workloads.refs", "count", "higher"),
    decl("workloads.batches", "count", "lower"),
    decl("workloads.diurnal_filler_share", "share", "lower"),
    decl("workloads.self_share", "share", "lower"),
    decl("llc_sim.translate_ns_per_ref", "ns", "lower"),
    decl("llc_sim.mapped_pages", "count", "lower"),
    decl("llc_sim.access_ns_per_ref", "ns", "lower"),
    decl("llc_sim.access_sampled_ns_per_ref", "ns", "lower"),
    decl("llc_sim.l1_hit_share", "share", "higher"),
    decl("llc_sim.l2_hit_share", "share", "higher"),
    decl("llc_sim.llc_hit_share", "share", "higher"),
    decl("llc_sim.llc_miss_share", "share", "lower"),
    decl("llc_sim.self_share", "share", "lower"),
    decl("host.sim_refs_per_s", "1/s", "higher"),
    decl("host.run_epoch_ms_p50", "ms", "lower"),
    decl("host.run_epoch_ms_p95", "ms", "lower"),
    decl("host.engine_self_share", "share", "lower"),
    decl("host.engine_new_ms", "ms", "lower"),
    decl("host.snapshots_us", "us", "lower"),
    decl("host.cat_flush_us_per_call", "us", "lower"),
    decl("host.pool_map_us_jobs1", "us", "lower"),
    decl("host.pool_map_us_jobs2", "us", "lower"),
    decl("host.pool_scaling_2", "ratio", "higher"),
    decl("host.self_share", "share", "lower"),
    decl("dcat.tick_us_p50", "us", "lower"),
    decl("dcat.tick_us_p95", "us", "lower"),
    decl("dcat.tick_us_p99", "us", "lower"),
    decl("dcat.tick_self_share", "share", "lower"),
    decl("dcat.daemon_tick_us_p50", "us", "lower"),
    decl("dcat.daemon_tick_us_p99", "us", "lower"),
    decl("dcat.telemetry_read_us", "us", "lower"),
    decl("dcat.telemetry_parse_us", "us", "lower"),
    decl("dcat.ways_moved_per_tick", "count", "lower"),
    decl("dcat.phase_changes", "count", "lower"),
    decl("dcat.max_perf_split_us", "us", "lower"),
    decl("dcat.cos_per_host.dcat-maxfair", "count", "lower"),
    decl("dcat.cos_per_host.dcat-maxperf", "count", "lower"),
    decl("dcat.cos_per_host.lfoc", "count", "lower"),
    decl("dcat.cos_per_host.memshare", "count", "lower"),
    decl("dcat.self_share", "share", "lower"),
    decl("resctrl.calls_per_tick", "count", "lower"),
    decl("resctrl.apply_us_per_tick", "us", "lower"),
    decl("resctrl.fs_write_us_per_call", "us", "lower"),
    decl("resctrl.retries", "count", "lower"),
    decl("resctrl.fixture_on_tmpfs", "flag", "higher"),
    decl("resctrl.self_share", "share", "lower"),
    decl("obs.frame_encode_us_per_frame", "us", "lower"),
    decl("obs.frame_bytes_per_frame", "B", "lower"),
    decl("obs.parse_stream_us_per_frame", "us", "lower"),
    decl("obs.metrics_render_us", "us", "lower"),
    decl("obs.metric_series", "count", "lower"),
    decl("obs.self_share", "share", "lower"),
    decl("top.render_us_per_frame", "us", "lower"),
    decl("top.self_share", "share", "lower"),
    decl("bench.ledger_residual_share", "share", "lower"),
    decl("bench.trace_overhead_share", "share", "lower"),
    decl("bench.spin_calibration_ns", "ns", "lower"),
    decl("bench.svc_p99_latency_ratio", "ratio", "lower"),
    decl("bench.fleet_jain_fairness", "ratio", "higher"),
    decl("bench.fleet_llc_miss_rate", "share", "lower"),
    decl("bench.sim_digest_lo32", "count", "higher"),
    decl("bench.self_share", "share", "lower"),
];

/// The unit `name` is declared with, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// Whether `name` is made of letters, digits, `_`, `.` and `-` only,
/// starts with a letter or digit, and is at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_unique_and_layered() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(matches!(d.better, "higher" | "lower"));
        }
        for d in PER_LAYER {
            let layer = d.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{} has no layer", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("dcat.cos_per_host.dcat-maxfair"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
