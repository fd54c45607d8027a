//! Declarative multi-VM scenarios run under any cache policy.

use dcat::{
    CachePolicy, ControlLoop, DcatConfig, DcatController, DomainReport, LfocConfig, LfocPolicy,
    MemshareConfig, MemsharePolicy, ResiliencePolicy, SharedCachePolicy, StaticCatPolicy, Totals,
    WorkloadHandle,
};
use dcat_obs::{Tracer, DEFAULT_STEP_BUCKETS};
use host::{Engine, EngineConfig, VmEpochStats, VmSpec};
use resctrl::{CacheController, ResctrlError};
use workloads::AccessStream;

use crate::report;

/// One activity window of a VM's workload, in epochs.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleItem {
    /// Epoch at which the workload starts (inclusive).
    pub start: u64,
    /// Epoch at which it stops (exclusive); `None` = runs to the end.
    pub stop: Option<u64>,
}

impl ScheduleItem {
    /// A workload running for the whole experiment.
    pub(crate) fn always() -> Self {
        ScheduleItem {
            start: 0,
            stop: None,
        }
    }

    /// A workload running in `[start, stop)`.
    pub fn window(start: u64, stop: u64) -> Self {
        ScheduleItem {
            start,
            stop: Some(stop),
        }
    }
}

/// A VM and its workload plan.
pub struct VmPlan {
    /// VM name.
    pub name: String,
    /// Contracted LLC ways.
    pub reserved_ways: u32,
    /// Builds a fresh stream each time the workload (re)starts. The
    /// argument is the restart ordinal (0 for the first window), so
    /// restarts can reuse or vary seeds.
    pub factory: Box<dyn Fn(u64) -> Box<dyn AccessStream>>,
    /// Activity windows, in ascending order.
    pub schedule: Vec<ScheduleItem>,
}

impl VmPlan {
    /// A VM whose workload runs for the whole experiment.
    pub fn always(
        name: impl Into<String>,
        reserved_ways: u32,
        factory: impl Fn(u64) -> Box<dyn AccessStream> + 'static,
    ) -> Self {
        VmPlan {
            name: name.into(),
            reserved_ways,
            factory: Box::new(factory),
            schedule: vec![ScheduleItem::always()],
        }
    }

    /// A VM with an explicit activity schedule.
    pub fn scheduled(
        name: impl Into<String>,
        reserved_ways: u32,
        schedule: Vec<ScheduleItem>,
        factory: impl Fn(u64) -> Box<dyn AccessStream> + 'static,
    ) -> Self {
        VmPlan {
            name: name.into(),
            reserved_ways,
            factory: Box::new(factory),
            schedule,
        }
    }

    /// A VM that stays idle the whole time.
    pub(crate) fn idle(name: impl Into<String>, reserved_ways: u32) -> Self {
        VmPlan {
            name: name.into(),
            reserved_ways,
            factory: Box::new(|_| unreachable!("idle VM never starts a workload")),
            schedule: Vec::new(),
        }
    }
}

/// Which cache-management policy governs the socket.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Unmanaged shared cache.
    Shared,
    /// Static CAT partitions at the reserved sizes.
    StaticCat,
    /// The dCat controller.
    Dcat(DcatConfig),
    /// LFOC-style miss-rate clustering onto shared COS.
    Lfoc(LfocConfig),
    /// Memshare-style share accounting with a lending ledger.
    Memshare,
}

impl PolicyKind {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Shared => "shared",
            PolicyKind::StaticCat => "static-cat",
            PolicyKind::Dcat(_) => "dcat",
            PolicyKind::Lfoc(_) => "lfoc",
            PolicyKind::Memshare => "memshare",
        }
    }

    /// Builds the policy over `handles` (programming its initial layout
    /// through `cat`) inside the control loop an engine-backed host steps.
    pub fn host_loop(
        self,
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
    ) -> Result<HostLoop, ResctrlError> {
        let built = handles.clone();
        let policy: Box<dyn CachePolicy + Send> = match self {
            PolicyKind::Shared => Box::new(SharedCachePolicy::new(built, cat)),
            PolicyKind::StaticCat => Box::new(StaticCatPolicy::new(built, cat)?),
            PolicyKind::Dcat(cfg) => Box::new(DcatController::new(cfg, built, cat)?),
            PolicyKind::Lfoc(cfg) => Box::new(LfocPolicy::new(built, cat, cfg)?),
            PolicyKind::Memshare => Box::new(MemsharePolicy::new(built, cat, MemshareConfig)?),
        };
        // An engine's totals are exact: a VM whose workload just stopped
        // repeats them for real, so no repeat is a wedged sampler. With no
        // stale grace every sample passes through unchanged (control_loop.rs).
        let exact = ResiliencePolicy {
            stale_grace_ticks: 0,
            ..ResiliencePolicy::default()
        };
        ControlLoop::new(policy, handles, exact)
    }
}

/// The control loop of one simulated host, whatever its policy.
pub(crate) type HostLoop = ControlLoop<Box<dyn CachePolicy + Send>>;

/// Everything recorded from one scenario run.
pub struct RunResult {
    /// `epochs[e][vm]` — engine statistics per epoch per VM.
    pub epochs: Vec<Vec<VmEpochStats>>,
    /// `reports[e][vm]` — policy decisions per epoch per VM.
    pub reports: Vec<Vec<DomainReport>>,
    /// Request latencies (cycles) accumulated per VM over the whole run.
    pub request_latencies: Vec<Vec<f64>>,
    /// `dcat-frames/v2` segment for the run: one `frame` record per epoch
    /// under a `scenario:<policy>` header. Built entirely from per-epoch
    /// reports, so it is byte-identical whenever the run is — the frame
    /// stream's own determinism regression diffs it across `--jobs`
    /// widths. Excluded from [`RunResult::serialize`], which predates it
    /// and anchors the golden determinism oracle.
    pub frames: String,
}

impl RunResult {
    /// Mean IPC of `vm` over the last `n` epochs (steady state).
    pub fn steady_ipc(&self, vm: usize, n: usize) -> f64 {
        let take = n.min(self.epochs.len());
        let sum: f64 = self.epochs[self.epochs.len() - take..]
            .iter()
            .map(|e| e[vm].ipc)
            .sum();
        sum / take as f64
    }

    /// Mean data-access latency (cycles) of `vm` over the last `n` epochs.
    pub(crate) fn steady_latency(&self, vm: usize, n: usize) -> f64 {
        let take = n.min(self.epochs.len());
        let sum: f64 = self.epochs[self.epochs.len() - take..]
            .iter()
            .map(|e| e[vm].avg_access_latency)
            .sum();
        sum / take as f64
    }

    /// Way allocation of `vm` per epoch.
    pub(crate) fn ways_series(&self, vm: usize) -> Vec<u32> {
        self.epochs.iter().map(|e| e[vm].ways).collect()
    }

    /// Peak ways ever granted to `vm`.
    pub(crate) fn peak_ways(&self, vm: usize) -> u32 {
        self.ways_series(vm).into_iter().max().unwrap_or(0)
    }

    /// Full-precision textual serialization of everything the run
    /// recorded: every per-epoch engine stat, every policy decision, and
    /// every request-latency sample. Floats are rendered with `{:?}`
    /// (shortest round-trip form), so two runs serialize byte-equal iff
    /// they are bit-identical — this is the determinism regression
    /// oracle.
    pub fn serialize(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (e, stats) in self.epochs.iter().enumerate() {
            for s in stats {
                let _ = writeln!(
                    out,
                    "e{e} vm={} ins={} cyc={} ipc={:?} l1={} llc={} miss={} rate={:?} lat={:?} ways={} req={} occ={}",
                    s.name,
                    s.instructions,
                    s.cycles,
                    s.ipc,
                    s.l1_ref,
                    s.llc_ref,
                    s.llc_miss,
                    s.llc_miss_rate,
                    s.avg_access_latency,
                    s.ways,
                    s.requests_completed,
                    s.llc_occupancy_lines,
                );
            }
        }
        for (e, reports) in self.reports.iter().enumerate() {
            for d in reports {
                let _ = writeln!(
                    out,
                    "e{e} dom={} class={} ways={} ipc={:?} norm={:?} miss={:?} phase={} base={:?}",
                    d.name,
                    d.class,
                    d.ways,
                    d.ipc,
                    d.norm_ipc,
                    d.llc_miss_rate,
                    d.phase_changed,
                    d.baseline_ipc,
                );
            }
        }
        for (vm, lats) in self.request_latencies.iter().enumerate() {
            let _ = writeln!(out, "lat vm={vm} n={} samples={:?}", lats.len(), lats);
        }
        out
    }
}

/// Runs `plans` under `policy` for `total_epochs` epochs.
///
/// VM `i` owns cores `{2i, 2i+1}` (two pinned vCPUs, as in the paper's
/// testbed).
///
/// Scenario-level error boundary. A policy build or tick failing inside
/// a scenario is a scenario bug, not a runtime condition: classify the
/// error, record a structured metric event, and abort the run with the
/// severity in the message.
fn fatal_boundary<T>(stage: &'static str, r: Result<T, resctrl::ResctrlError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            report::record(|reg| {
                reg.counter_add("scenario_fatal_errors_total", &[("stage", stage)], 1);
            });
            panic!("scenario {stage} failed: {e} (severity {:?})", e.severity());
        }
    }
}

/// # Panics
///
/// Panics if the socket cannot host the VMs or the policy rejects the
/// configuration — scenario bugs, not runtime conditions (routed
/// through `fatal_boundary`, which classifies the error first).
pub fn run_scenario(
    policy: PolicyKind,
    engine_cfg: EngineConfig,
    plans: &[VmPlan],
    total_epochs: u64,
) -> RunResult {
    let vms: Vec<VmSpec> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            VmSpec::new(
                p.name.clone(),
                vec![(2 * i) as u32, (2 * i + 1) as u32],
                p.reserved_ways,
            )
        })
        .collect();
    let handles: Vec<WorkloadHandle> = vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();

    let policy_label = policy.label();
    let mut engine = Engine::new(engine_cfg, vms).expect("scenario must fit the socket");
    let mut ctl = fatal_boundary("policy build", policy.host_loop(handles, &mut engine.cat()));

    let mut result = RunResult {
        epochs: Vec::with_capacity(total_epochs as usize),
        reports: Vec::with_capacity(total_epochs as usize),
        request_latencies: vec![Vec::new(); plans.len()],
        frames: String::new(),
    };
    let mut restart_count = vec![0u64; plans.len()];
    let mut tracer = Tracer::new();
    let mut frames = dcat_obs::FrameWriter::new(&format!("scenario:{policy_label}"));

    for epoch in 0..total_epochs {
        // Schedule transitions at epoch boundaries.
        for (i, plan) in plans.iter().enumerate() {
            for item in &plan.schedule {
                if item.start == epoch {
                    engine.start_workload(i, (plan.factory)(restart_count[i]));
                    restart_count[i] += 1;
                }
                if item.stop == Some(epoch) {
                    engine.stop_workload(i);
                }
            }
        }

        tracer.set_tick(epoch + 1);
        let stats = tracer.scope("epoch", |_| engine.run_epoch());
        for (i, _) in plans.iter().enumerate() {
            result.request_latencies[i].extend(engine.take_request_latencies(i));
        }
        let snapshots = engine.snapshots();
        let obs = fatal_boundary(
            "policy tick",
            ctl.step(
                &mut Totals(&snapshots),
                &mut engine.cat(),
                &mut tracer,
                |_, _| {},
            ),
        );
        let spans = tracer.completed();
        report::record(|reg| {
            reg.counter_add("scenario_epochs_total", &[("policy", policy_label)], 1);
            for s in spans {
                reg.histogram_observe(
                    "scenario_span_steps",
                    &[("span", s.name)],
                    DEFAULT_STEP_BUCKETS,
                    s.steps(),
                );
            }
        });
        frames.push(dcat::frame_from_observation(&obs, policy_label, obs.ext));
        result.epochs.push(stats);
        result.reports.push(obs.reports.to_vec());
        tracer.clear();
    }
    report::record(|reg| {
        reg.counter_add("scenario_runs_total", &[("policy", policy_label)], 1);
    });
    // The engine's own registry (epochs, per-VM instruction/miss totals,
    // way gauges) merges into whatever capture scope this run is in.
    report::emit_obs(&engine.metrics_snapshot());
    result.frames = frames.into_string();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::CacheGeometry;
    use workloads::{Lookbusy, Mlr};

    fn tiny_engine() -> EngineConfig {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.socket.hierarchy = llc_sim::HierarchyConfig {
            cores: 8,
            l1: CacheGeometry::new(64, 8, 64),
            l2: CacheGeometry::new(128, 8, 64),
            llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 8),
            llc_policy: Default::default(),
        };
        cfg.cycles_per_epoch = 300_000;
        cfg.memory_bytes = 128 * 1024 * 1024;
        cfg
    }

    #[test]
    fn scenario_runs_under_all_policies() {
        for policy in [
            PolicyKind::Shared,
            PolicyKind::StaticCat,
            PolicyKind::Dcat(DcatConfig::default()),
        ] {
            let plans = vec![
                VmPlan::always("mlr", 2, |s| Box::new(Mlr::new(256 * 1024, s + 1))),
                VmPlan::always("lookbusy", 2, |_| Box::new(Lookbusy::new())),
            ];
            let r = run_scenario(policy, tiny_engine(), &plans, 5);
            assert_eq!(r.epochs.len(), 5);
            assert_eq!(r.reports.len(), 5);
            for vm in [0, 1] {
                assert!(r.epochs.iter().map(|e| e[vm].instructions).sum::<u64>() > 0);
            }
        }
    }

    #[test]
    fn schedule_windows_start_and_stop_workloads() {
        let plans = vec![VmPlan::scheduled(
            "w",
            2,
            vec![ScheduleItem::window(2, 4)],
            |_| Box::new(Lookbusy::new()),
        )];
        let r = run_scenario(PolicyKind::Shared, tiny_engine(), &plans, 6);
        assert_eq!(r.epochs[0][0].instructions, 0, "idle before start");
        assert!(r.epochs[2][0].instructions > 0, "active in window");
        assert_eq!(r.epochs[5][0].instructions, 0, "idle after stop");
    }

    #[test]
    fn idle_plan_never_executes() {
        let plans = vec![VmPlan::idle("idle", 2)];
        let r = run_scenario(PolicyKind::Shared, tiny_engine(), &plans, 3);
        assert!(r.epochs.iter().all(|e| e[0].instructions == 0));
    }

    #[test]
    fn scenario_records_spans_and_metrics_into_the_capture_scope() {
        let plans = || {
            vec![
                VmPlan::always("mlr", 2, |s| Box::new(Mlr::new(256 * 1024, s + 1))),
                VmPlan::always("lookbusy", 2, |_| Box::new(Lookbusy::new())),
            ]
        };
        let (r, _text, snap) = crate::report::capture_obs(|| {
            run_scenario(
                PolicyKind::Dcat(DcatConfig::default()),
                tiny_engine(),
                &plans(),
                5,
            )
        });
        assert_eq!(
            snap.get("scenario_epochs_total", &[("policy", "dcat")]),
            Some(&dcat_obs::MetricValue::Counter(5))
        );
        assert_eq!(
            snap.get("engine_epochs_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(5)),
            "engine registry merged into the scope"
        );
        // dCat's pipeline stages show up alongside the engine epoch span,
        // once an epoch each.
        for span in ["epoch", "allocate"] {
            match snap.get("scenario_span_steps", &[("span", span)]) {
                Some(dcat_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 5, "{span}"),
                other => panic!("no {span} span histogram: {other:?}"),
            }
        }

        // Identical runs produce identical snapshots and frames.
        let (r2, _t2, snap2) = crate::report::capture_obs(|| {
            run_scenario(
                PolicyKind::Dcat(DcatConfig::default()),
                tiny_engine(),
                &plans(),
                5,
            )
        });
        assert_eq!(snap.to_prometheus(), snap2.to_prometheus());
        assert_eq!(r.frames, r2.frames);
    }

    #[test]
    fn frame_stream_validates_under_every_policy() {
        for policy in [
            PolicyKind::Shared,
            PolicyKind::StaticCat,
            PolicyKind::Dcat(DcatConfig::default()),
            PolicyKind::Lfoc(dcat::LfocConfig::default()),
            PolicyKind::Memshare,
        ] {
            let label = policy.label();
            let plans = vec![
                VmPlan::always("mlr", 2, |s| Box::new(Mlr::new(256 * 1024, s + 1))),
                VmPlan::always("lookbusy", 2, |_| Box::new(Lookbusy::new())),
            ];
            let r = run_scenario(policy, tiny_engine(), &plans, 5);
            let segs = dcat_obs::frames::parse_stream(&r.frames)
                .unwrap_or_else(|e| panic!("{label}: frame stream validates: {e}"));
            assert_eq!(segs.len(), 1);
            assert_eq!(segs[0].source, format!("scenario:{label}"));
            assert_eq!(segs[0].frames.len(), 5);
            let last = segs[0].frames.last().unwrap();
            assert_eq!(last.policy, label);
            assert_eq!(last.domains.len(), 2);
            match label {
                "lfoc" => assert!(last.ext.lfoc.is_some(), "lfoc frames carry cluster ext"),
                "memshare" => assert!(
                    last.ext.memshare.is_some(),
                    "memshare frames carry ledger ext"
                ),
                _ => assert!(last.ext.lfoc.is_none() && last.ext.memshare.is_none()),
            }
        }
    }

    #[test]
    fn run_result_accessors() {
        let plans = vec![VmPlan::always("lb", 2, |_| Box::new(Lookbusy::new()))];
        let r = run_scenario(PolicyKind::StaticCat, tiny_engine(), &plans, 4);
        assert!(r.steady_ipc(0, 2) > 0.0);
        assert!(r.steady_latency(0, 2) > 0.0);
        assert_eq!(r.ways_series(0).len(), 4);
        assert!(r.peak_ways(0) >= 2);
    }
}
