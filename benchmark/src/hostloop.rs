//! The benchmark's own epoch loop over one simulated host.
//!
//! `run_scenario` and a fleet host do the same thing to the simulated
//! machine each epoch: start and stop workloads, `Engine::run_epoch`,
//! `Engine::snapshots`, `CachePolicy::tick` on `engine.cat()`,
//! `frame_from_reports` into a `FrameWriter`. This loop makes exactly
//! those public calls in that order, with a span around each, a timing
//! wrapper around every stream and around the CAT adapter — so the
//! traced pass sees where an epoch's host time goes, and its digest must
//! equal the untraced run's.

use std::sync::{Arc, Mutex};

use dcat::{CachePolicy, DcatController, DomainReport, WorkloadHandle};
use dcat_obs::FrameWriter;
use host::{Engine, EngineConfig, VmEpochStats, VmSpec};
use llc_sim::{CoreCounters, WayMask};
use resctrl::{CacheController, ResctrlError};
use workloads::AccessStream;

use crate::meters::{Capture, CatTotals, StreamMeter, StreamTotals, TimedStream, TimingCat};
use crate::span::{SpanId, Trace};

/// A policy as the loop holds it: dCat's controller stays concrete so its
/// performance tables can be probed afterwards.
pub enum Policy {
    Dcat(Box<DcatController>),
    Other(Box<dyn CachePolicy>),
}

impl Policy {
    fn as_dyn(&mut self) -> &mut dyn CachePolicy {
        match self {
            Policy::Dcat(p) => p.as_mut(),
            Policy::Other(p) => p.as_mut(),
        }
    }
}

/// What to run.
pub struct HostSpec<'a> {
    pub engine: EngineConfig,
    pub vms: Vec<VmSpec>,
    pub epochs: u64,
    /// `source` of the frame segment (`scenario:dcat`, `fleet-host:0`).
    pub frame_source: String,
    /// Policy label written into every frame.
    pub policy_label: &'static str,
    /// Count diurnal think-time filler among the references drawn.
    pub count_filler: bool,
    /// Copy the first references drawn into this, for the replay probes.
    pub capture: Option<Arc<Mutex<Capture>>>,
    /// Builds the policy over the engine's CAT adapter.
    #[allow(clippy::type_complexity)]
    pub build_policy: Box<
        dyn FnOnce(Vec<WorkloadHandle>, &mut dyn CacheController) -> Result<Policy, ResctrlError>
            + 'a,
    >,
}

/// Handed to the schedule callback at every epoch boundary.
pub struct Scheduler<'e, 't> {
    engine: &'e mut Engine,
    trace: &'t mut Trace,
    meters: &'e [Arc<StreamMeter>],
    capture: &'e Option<Arc<Mutex<Capture>>>,
    count_filler: bool,
}

impl Scheduler<'_, '_> {
    /// Starts `stream` on VM `vm` behind a timing wrapper.
    pub fn start(&mut self, vm: usize, stream: Box<dyn AccessStream>) {
        let mut timed = TimedStream::new(stream, vm as u32, self.meters[vm].clone());
        if self.count_filler {
            timed = timed.counting_filler();
        }
        if let Some(c) = self.capture {
            timed = timed.capturing(c.clone());
        }
        let engine = &mut *self.engine;
        self.trace.scope("host.start_workload", |_| {
            engine.start_workload(vm, Box::new(timed))
        });
    }

    pub fn stop(&mut self, vm: usize) {
        let engine = &mut *self.engine;
        self.trace
            .scope("host.stop_workload", |_| engine.stop_workload(vm));
    }

    pub fn has_workload(&self, vm: usize) -> bool {
        self.engine.has_workload(vm)
    }
}

/// Everything one run of the loop produced.
#[derive(Default)]
pub struct HostRun {
    /// `epochs[e][vm]`.
    pub epochs: Vec<Vec<VmEpochStats>>,
    /// `reports[e][vm]`.
    pub reports: Vec<Vec<DomainReport>>,
    pub frames: String,
    pub streams: StreamTotals,
    pub cat: CatTotals,
    /// Fill mask per core when the run ended.
    pub fill_masks: Vec<WayMask>,
    /// Primary core per VM.
    pub primary_cores: Vec<u32>,
    /// Hierarchy counters summed over the VMs' primary cores.
    pub counters: CoreCounters,
    /// `max_performance_split` over the tables a dCat controller ended
    /// with, microseconds.
    pub max_perf_split_us: Option<f64>,
}

impl HostRun {
    pub fn phase_changes(&self) -> u64 {
        self.reports
            .iter()
            .flatten()
            .filter(|r| r.phase_changed)
            .count() as u64
    }

    /// Hangs the engine adapter's CAT operations under `parent`. They are
    /// the `host` crate's `EngineCat`; its flush empties simulated ways.
    fn charge_cat(&mut self, trace: &mut Trace, parent: SpanId, t: CatTotals) {
        trace.leaf(
            parent,
            "host.cat_program_cos",
            t.program_ns,
            t.program_calls,
        );
        trace.leaf(parent, "host.cat_assign_core", t.assign_ns, t.assign_calls);
        trace.leaf(parent, "host.cat_flush_cbm", t.flush_ns, t.flush_calls);
        trace.leaf(parent, "host.cat_read", t.read_ns, t.read_calls);
        self.cat.add(t);
    }
}

/// Runs `spec`, calling `schedule(epoch, scheduler)` before each epoch.
///
/// # Panics
///
/// Panics if the VMs do not fit the socket or the simulated CAT rejects
/// the policy: both are bugs in the benchmark's inputs.
pub fn run_host(
    spec: HostSpec<'_>,
    trace: &mut Trace,
    mut schedule: impl FnMut(u64, &mut Scheduler<'_, '_>),
) -> HostRun {
    let handles: Vec<WorkloadHandle> = spec
        .vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();
    let mut out = HostRun {
        primary_cores: spec.vms.iter().map(VmSpec::primary_core).collect(),
        ..HostRun::default()
    };
    let meters: Vec<Arc<StreamMeter>> = spec
        .vms
        .iter()
        .map(|_| Arc::new(StreamMeter::default()))
        .collect();
    let (engine_cfg, vms) = (spec.engine, spec.vms);
    let mut engine = trace.scope("host.engine_new", |_| {
        Engine::new(engine_cfg, vms).expect("the VMs fit the socket")
    });

    let build = trace.enter("dcat.policy_new");
    let mut cat = TimingCat::new(engine.cat());
    let mut policy = (spec.build_policy)(handles, &mut cat).expect("the simulated CAT never fails");
    trace.exit(build);
    out.charge_cat(trace, build, cat.take());

    let mut frames = FrameWriter::new(&spec.frame_source);
    for epoch in 0..spec.epochs {
        schedule(
            epoch,
            &mut Scheduler {
                engine: &mut engine,
                trace,
                meters: &meters,
                capture: &spec.capture,
                count_filler: spec.count_filler,
            },
        );

        let id = trace.enter("host.run_epoch");
        let stats = engine.run_epoch();
        trace.exit(id);
        for m in &meters {
            let t = m.take();
            trace.leaf(id, "workloads.next_batch", t.ns, t.batches);
            out.streams.add(t);
        }
        trace.scope("host.take_request_latencies", |_| {
            for vm in 0..engine.num_vms() {
                let _ = engine.take_request_latencies(vm);
            }
        });
        let snapshots = trace.scope("host.snapshots", |_| engine.snapshots());

        let id = trace.enter("dcat.tick");
        let mut cat = TimingCat::new(engine.cat());
        let reports = policy
            .as_dyn()
            .tick(&snapshots, &mut cat)
            .expect("the simulated CAT never fails");
        let ext = policy.as_dyn().frame_ext();
        trace.exit(id);
        out.charge_cat(trace, id, cat.take());

        trace.scope("obs.frame_export", |_| {
            frames.push(dcat::frame_from_reports(
                epoch + 1,
                spec.policy_label,
                &reports,
                ext,
            ));
        });
        out.epochs.push(stats);
        out.reports.push(reports);
    }

    out.frames = frames.into_string();
    out.fill_masks = (0..engine.config().socket.hierarchy.cores)
        .map(|c| engine.hierarchy().fill_mask(c))
        .collect();
    out.counters = out
        .primary_cores
        .iter()
        .fold(CoreCounters::default(), |acc, &c| {
            acc.merged_with(&engine.hierarchy().counters(c))
        });
    if let Policy::Dcat(controller) = &policy {
        out.max_perf_split_us = Some(crate::probes::max_perf_split_us(controller));
    }
    out
}
