//! The epoch-based execution engine.
//!
//! One **epoch** models one controller interval (the paper samples every
//! second). Within an epoch every VM's core receives the same *cycle
//! budget* — cores run in parallel in real time, so equal wall-clock time
//! means equal cycles, not equal instructions. Execution is interleaved in
//! small instruction **slices**, round-robin across VMs, so that the cache
//! sees concurrent access streams (a noisy neighbor evicts its victim's
//! lines *while* the victim runs, exactly as on hardware). A core whose
//! budget is exhausted stops issuing until the next epoch; a fast,
//! compute-bound core therefore retires many more instructions per epoch
//! than a memory-stalled one.
//!
//! Cycle accounting per slice uses the [`llc_sim::CyclesModel`]:
//! instructions × CPI_exec plus per-level miss penalties divided by the
//! workload's memory-level parallelism.

use dcat_obs::{Registry, SeriesId, Snapshot};
use llc_sim::{
    CoreCounters, CoreSlice, CyclesModel, FrameAllocator, Hierarchy, HitLevel, LatencyModel,
    PageMapper,
};
use perf_events::CounterSnapshot;
use resctrl::{CacheController, CatCapabilities, Cbm, CosId, ResctrlError};
use smallrng::SmallRng;
use workloads::{AccessStream, MemRef};

use crate::topology::{validate_vm_placement, SocketConfig, VmSpec};

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Socket model.
    pub socket: SocketConfig,
    /// Cycle budget per core per epoch. The default (10 M cycles) keeps
    /// simulations fast; the ratio between workloads is what matters, not
    /// the absolute wall-clock length of an interval.
    pub cycles_per_epoch: u64,
    /// Instructions per interleaving slice.
    pub slice_instructions: u64,
    /// Physical memory pool backing all VMs.
    pub memory_bytes: u64,
    /// Frame placement policy.
    pub frame_policy: llc_sim::FramePolicy,
    /// Latency parameters.
    pub latency: LatencyModel,
    /// Root RNG seed. Each VM's frame-placement stream is derived from it
    /// with [`smallrng::split_seed`] over the VM index, so adding or
    /// removing one VM never reshuffles another VM's physical frames.
    pub seed: u64,
    /// LLC simulation fidelity. `Full` (the default) simulates every set
    /// and carries the byte-identity guarantees; `Sampled { one_in }`
    /// trades bounded miss-rate error for speed (UMON-style set
    /// sampling). See [`llc_sim::SimFidelity`].
    pub llc_fidelity: llc_sim::SimFidelity,
}

impl EngineConfig {
    /// Defaults on the paper's Xeon-E5 v4 socket.
    pub fn xeon_e5_v4() -> Self {
        EngineConfig {
            socket: SocketConfig::xeon_e5_v4(),
            cycles_per_epoch: 10_000_000,
            slice_instructions: 2_000,
            memory_bytes: 4 * 1024 * 1024 * 1024,
            frame_policy: llc_sim::FramePolicy::Randomized,
            latency: LatencyModel::default(),
            seed: 0xD_CA7,
            llc_fidelity: llc_sim::SimFidelity::Full,
        }
    }
}

/// Per-VM results of one epoch.
#[derive(Debug, Clone)]
pub struct VmEpochStats {
    /// VM name (copied from the spec).
    pub name: String,
    /// Instructions retired this epoch (all the VM's cores).
    pub instructions: u64,
    /// Cycles consumed this epoch.
    pub cycles: u64,
    /// Instructions per cycle (0 when idle).
    pub ipc: f64,
    /// L1 references.
    pub l1_ref: u64,
    /// LLC references.
    pub llc_ref: u64,
    /// LLC misses.
    pub llc_miss: u64,
    /// `llc_miss / llc_ref`, 0 when no references.
    pub llc_miss_rate: f64,
    /// Average data-access latency in cycles.
    pub avg_access_latency: f64,
    /// LLC ways currently granted to the VM's cores.
    pub ways: u32,
    /// Requests completed this epoch (service workloads only).
    pub requests_completed: u64,
    /// LLC lines attributed to the VM at the end of the epoch (the
    /// simulator's CMT-style occupancy monitoring).
    pub llc_occupancy_lines: u64,
}

struct WorkloadRt {
    stream: Box<dyn AccessStream>,
    mapper: PageMapper,
    carry_refs: f64,
    open_request_cycles: f64,
    request_latencies: Vec<f64>,
    /// Reusable buffer for batched access generation: `run_slice` pulls
    /// a whole slice of references with one virtual `next_batch` call
    /// instead of one `next_access` dispatch per reference. The
    /// capacity persists across slices, so steady state allocates
    /// nothing.
    batch: Vec<MemRef>,
    /// Whether the last slice that issued any reference sent at least one
    /// in [`LLC_BOUND_ONE_IN`] past the private caches — the per-VM half
    /// of the gate on [`Issue::pipelined`]. A workload starts with
    /// `false`: lookbusy, think-time filler and anything else L1-resident
    /// never pay for a hint. `Mload` does: every reference is a new line
    /// (what repeats is the page, which the mapper's memo catches), so every
    /// one reaches the LLC.
    llc_bound: bool,
}

/// How far ahead of its accesses [`Issue::pipelined`] hints, in references;
/// it translates twice as far. Sized on `socket_services` (DESIGN.md §14
/// "Fourth pass" has the table: flat from 2 to 16, and a power of two
/// keeps the ring index a mask).
const LOOKAHEAD: usize = 4;

/// A slice is LLC-bound when one L1 reference in this many reached the LLC.
const LLC_BOUND_ONE_IN: u64 = 8;

/// The pool could not back a page: `reference` is the index, within the
/// slice's batch, of the reference whose translation failed.
#[derive(Debug, PartialEq, Eq)]
struct PoolExhausted {
    reference: usize,
}

/// What issuing one slice's references touches, borrowed field by field
/// from the engine and the VM's workload — the hierarchy as the VM's core's
/// [`CoreSlice`] — and the two loops that issue them. Both translate the
/// batch in order and access it in order, so placement draws, frame
/// allocations, counters and request latencies are the same whichever runs.
struct Issue<'a> {
    slice: CoreSlice<'a>,
    frames: &'a mut FrameAllocator,
    mapper: &'a mut PageMapper,
    placement_rng: &'a mut SmallRng,
    cost_l1: f64,
    cost_l2: f64,
    cost_llc: f64,
    cost_dram: f64,
    open_request_cycles: &'a mut f64,
    request_latencies: &'a mut Vec<f64>,
}

impl Issue<'_> {
    #[inline(always)]
    fn translate(&mut self, batch: &[MemRef], reference: usize) -> Result<u64, PoolExhausted> {
        self.mapper
            .translate_with(batch[reference].vaddr, self.frames, self.placement_rng)
            .map(|paddr| paddr.0)
            .ok_or(PoolExhausted { reference })
    }

    #[inline(always)]
    fn access(&mut self, paddr: u64, mref: &MemRef) {
        *self.open_request_cycles += match self.slice.access(paddr) {
            HitLevel::L1 => self.cost_l1,
            HitLevel::L2 => self.cost_l2,
            HitLevel::Llc => self.cost_llc,
            HitLevel::Dram => self.cost_dram,
        };
        if mref.ends_request {
            self.request_latencies.push(*self.open_request_cycles);
            *self.open_request_cycles = 0.0;
        }
    }

    /// Ends the slice; what the core counted in it.
    fn finish(self) -> CoreCounters {
        self.slice.finish()
    }

    /// Translate a reference, access it, move to the next.
    fn plain(&mut self, batch: &[MemRef]) -> Result<(), PoolExhausted> {
        for (reference, mref) in batch.iter().enumerate() {
            let paddr = self.translate(batch, reference)?;
            self.access(paddr, mref);
        }
        Ok(())
    }

    /// The same references through a three-stage software pipeline, so the
    /// host's memory latency overlaps with simulation: while reference `i`
    /// is accessed, the LLC set block of reference `i + LOOKAHEAD` is on
    /// its way in from the host's memory, and reference `i + 2 * LOOKAHEAD`
    /// has been translated so that its set is known by the time it is
    /// hinted. Physical addresses wait in a ring on the stack.
    fn pipelined(&mut self, batch: &[MemRef]) -> Result<(), PoolExhausted> {
        const RING: usize = 2 * LOOKAHEAD;
        let mut ring = [0u64; RING];
        for (reference, slot) in ring.iter_mut().enumerate().take(batch.len()) {
            *slot = self.translate(batch, reference)?;
        }
        for &paddr in &ring[..batch.len().min(LOOKAHEAD)] {
            self.slice.prefetch_llc(paddr);
        }
        for (reference, mref) in batch.iter().enumerate() {
            let paddr = ring[reference % RING];
            if reference + RING < batch.len() {
                ring[reference % RING] = self.translate(batch, reference + RING)?;
            }
            if reference + LOOKAHEAD < batch.len() {
                self.slice
                    .prefetch_llc(ring[(reference + LOOKAHEAD) % RING]);
            }
            self.access(paddr, mref);
        }
        Ok(())
    }
}

struct VmSlot {
    spec: VmSpec,
    workload: Option<WorkloadRt>,
    /// Private frame-placement stream, derived from the engine seed and
    /// the VM index. It lives on the slot (not the workload) so restarting
    /// a workload continues the stream rather than rewinding it.
    placement_rng: SmallRng,
}

/// The multi-VM socket simulator.
pub struct Engine {
    config: EngineConfig,
    hierarchy: Hierarchy,
    frames: FrameAllocator,
    vms: Vec<VmSlot>,
    cos_masks: Vec<Cbm>,
    core_cos: Vec<CosId>,
    epoch: u64,
    metrics: Registry,
    series: Option<EpochSeries>,
    scratch: EpochScratch,
}

/// The series `run_epoch` records into, resolved by the first epoch that
/// records (resolving registers a series, and an engine that never ran
/// exports none) and written through their ids from then on.
struct EpochSeries {
    epochs: SeriesId,
    vms: Vec<VmSeries>,
}

struct VmSeries {
    instructions: SeriesId,
    cycles: SeriesId,
    llc_misses: SeriesId,
    requests: SeriesId,
    ways: SeriesId,
}

impl EpochSeries {
    fn resolve(metrics: &mut Registry, vms: &[VmSlot]) -> Self {
        EpochSeries {
            epochs: metrics.counter("engine_epochs_total", &[]),
            vms: vms
                .iter()
                .map(|slot| {
                    let vm = [("vm", slot.spec.name.as_str())];
                    VmSeries {
                        instructions: metrics.counter("engine_instructions_total", &vm),
                        cycles: metrics.counter("engine_cycles_total", &vm),
                        llc_misses: metrics.counter("engine_llc_misses_total", &vm),
                        requests: metrics.counter("engine_requests_total", &vm),
                        ways: metrics.gauge("engine_vm_ways", &vm),
                    }
                })
                .collect(),
        }
    }
}

/// `run_epoch`'s per-VM working buffers, kept so that an epoch reuses
/// the previous one's capacity instead of allocating four vectors.
#[derive(Default)]
struct EpochScratch {
    before: Vec<CounterSnapshot>,
    after: Vec<CounterSnapshot>,
    requests_before: Vec<usize>,
    remaining: Vec<i64>,
}

impl Engine {
    /// Creates an engine hosting `vms` on the configured socket.
    ///
    /// Every core starts with the full LLC mask (the unmanaged shared-cache
    /// configuration); policies then program masks through [`Engine::cat`].
    pub fn new(config: EngineConfig, vms: Vec<VmSpec>) -> Result<Self, String> {
        validate_vm_placement(&config.socket, &vms)?;
        let caps = CatCapabilities::with_ways(config.socket.llc_ways());
        let mut hierarchy = Hierarchy::new(config.socket.hierarchy);
        hierarchy.set_fidelity(config.llc_fidelity);
        // The LLC stores a line as its tag below a `u16` sentinel: memory
        // with a line beyond that is refused here, never aliased.
        hierarchy.admits(config.memory_bytes)?;
        Ok(Engine {
            hierarchy,
            frames: FrameAllocator::new(config.memory_bytes, config.frame_policy, config.seed),
            vms: vms
                .into_iter()
                .enumerate()
                .map(|(vm, spec)| VmSlot {
                    spec,
                    workload: None,
                    placement_rng: SmallRng::seed_from_u64(smallrng::split_seed(
                        config.seed,
                        vm as u64,
                    )),
                })
                .collect(),
            cos_masks: vec![caps.full_mask(); caps.num_closids as usize],
            core_cos: vec![CosId(0); config.socket.hierarchy.cores as usize],
            epoch: 0,
            metrics: Registry::new(),
            series: None,
            scratch: EpochScratch::default(),
            config,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of hosted VMs.
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// The spec of VM `vm`.
    pub fn vm_spec(&self, vm: usize) -> &VmSpec {
        &self.vms[vm].spec
    }

    /// Direct read access to the hierarchy (for occupancy assertions).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Starts (or replaces) the workload of VM `vm`.
    pub fn start_workload(&mut self, vm: usize, stream: Box<dyn AccessStream>) {
        let mapper = PageMapper::new(stream.page_size());
        self.stop_workload(vm);
        self.vms[vm].workload = Some(WorkloadRt {
            stream,
            mapper,
            carry_refs: 0.0,
            open_request_cycles: 0.0,
            request_latencies: Vec::new(),
            batch: Vec::new(),
            llc_bound: false,
        });
    }

    /// Stops the workload of VM `vm`, returning its frames to the pool.
    pub fn stop_workload(&mut self, vm: usize) {
        if let Some(mut rt) = self.vms[vm].workload.take() {
            rt.mapper.clear(&mut self.frames);
        }
    }

    /// Whether VM `vm` currently runs a workload.
    pub fn has_workload(&self, vm: usize) -> bool {
        self.vms[vm].workload.is_some()
    }

    /// LLC ways currently granted to VM `vm` (its primary core's mask).
    pub fn vm_ways(&self, vm: usize) -> u32 {
        self.hierarchy
            .fill_mask(self.vms[vm].spec.primary_core())
            .ways()
    }

    /// LLC lines currently attributed to VM `vm` across its cores.
    pub fn vm_llc_occupancy(&self, vm: usize) -> u64 {
        self.vms[vm]
            .spec
            .cores
            .iter()
            .map(|&c| self.hierarchy.llc_occupancy_of_core(c))
            .sum()
    }

    /// Drains the request-latency samples (in cycles) recorded for VM `vm`
    /// since the last drain.
    pub fn take_request_latencies(&mut self, vm: usize) -> Vec<f64> {
        match &mut self.vms[vm].workload {
            Some(rt) => std::mem::take(&mut rt.request_latencies),
            None => Vec::new(),
        }
    }

    /// Monotonic per-VM counter snapshots (sums over each VM's cores) —
    /// what dCat would read from MSRs.
    pub fn snapshots(&self) -> Vec<CounterSnapshot> {
        let mut out = Vec::with_capacity(self.vms.len());
        self.snapshots_into(&mut out);
        out
    }

    /// [`Engine::snapshots`] into a caller-owned buffer.
    fn snapshots_into(&self, out: &mut Vec<CounterSnapshot>) {
        out.clear();
        out.extend(self.vms.iter().map(|slot| {
            let sum = slot
                .spec
                .cores
                .iter()
                .fold(CoreCounters::default(), |acc, &c| {
                    acc.merged_with(&self.hierarchy.counters(c))
                });
            CounterSnapshot::from(sum)
        }));
    }

    /// The CAT control-plane adapter for this socket.
    pub fn cat(&mut self) -> EngineCat<'_> {
        EngineCat { engine: self }
    }

    /// Runs one epoch and returns per-VM statistics.
    pub fn run_epoch(&mut self) -> Vec<VmEpochStats> {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.snapshots_into(&mut scratch.before);
        scratch.requests_before.clear();
        scratch.requests_before.extend(
            self.vms
                .iter()
                .map(|s| s.workload.as_ref().map_or(0, |w| w.request_latencies.len())),
        );

        let budget = self.config.cycles_per_epoch as i64;
        scratch.remaining.clear();
        scratch.remaining.resize(self.vms.len(), budget);
        loop {
            let mut progressed = false;
            for (vm, rem) in scratch.remaining.iter_mut().enumerate() {
                if *rem <= 0 || self.vms[vm].workload.is_none() {
                    continue;
                }
                let cycles = self.run_slice(vm);
                *rem -= cycles as i64;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        self.epoch += 1;

        self.snapshots_into(&mut scratch.after);
        let stats: Vec<VmEpochStats> = (0..self.vms.len())
            .map(|vm| {
                let delta = scratch.after[vm].delta_since(&scratch.before[vm]);
                let counters = CoreCounters {
                    l1_ref: delta.l1_ref,
                    // The snapshot does not carry l1_miss; reconstruct a
                    // lower bound for latency purposes from llc_ref (every
                    // LLC reference was an L1 and L2 miss).
                    l1_miss: delta.llc_ref,
                    llc_ref: delta.llc_ref,
                    llc_miss: delta.llc_miss,
                    ret_ins: delta.ret_ins,
                    cycles: delta.cycles,
                };
                let requests_now = self.vms[vm]
                    .workload
                    .as_ref()
                    .map_or(0, |w| w.request_latencies.len());
                VmEpochStats {
                    name: self.vms[vm].spec.name.clone(),
                    instructions: delta.ret_ins,
                    cycles: delta.cycles,
                    ipc: if delta.cycles == 0 {
                        0.0
                    } else {
                        delta.ret_ins as f64 / delta.cycles as f64
                    },
                    l1_ref: delta.l1_ref,
                    llc_ref: delta.llc_ref,
                    llc_miss: delta.llc_miss,
                    llc_miss_rate: if delta.llc_ref == 0 {
                        0.0
                    } else {
                        delta.llc_miss as f64 / delta.llc_ref as f64
                    },
                    avg_access_latency: self.config.latency.average_access_latency(&counters),
                    ways: self.vm_ways(vm),
                    requests_completed: (requests_now - scratch.requests_before[vm]) as u64,
                    llc_occupancy_lines: self.vm_llc_occupancy(vm),
                }
            })
            .collect();
        let series = self
            .series
            .get_or_insert_with(|| EpochSeries::resolve(&mut self.metrics, &self.vms));
        self.metrics.add(series.epochs, 1);
        for (s, vm) in stats.iter().zip(&series.vms) {
            self.metrics.add(vm.instructions, s.instructions);
            self.metrics.add(vm.cycles, s.cycles);
            self.metrics.add(vm.llc_misses, s.llc_miss);
            self.metrics.add(vm.requests, s.requests_completed);
            self.metrics.set(vm.ways, f64::from(s.ways));
        }
        self.scratch = scratch;
        stats
    }

    /// Snapshot of the engine's cumulative metrics (epochs run, per-VM
    /// instruction/cycle/miss totals, current way grants). Pure data —
    /// merging snapshots from several sockets is order-insensitive.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Executes one instruction slice of VM `vm`; returns consumed cycles.
    fn run_slice(&mut self, vm: usize) -> u64 {
        let pipelined = self.pipeline_pays(vm);
        // Either loop stops at the first reference the pool cannot back.
        // The pipeline translates `2 * LOOKAHEAD` references ahead of its
        // accesses, so it reaches that reference as many accesses earlier.
        self.run_slice_as(vm, pipelined)
            .expect("physical memory pool exhausted; raise EngineConfig::memory_bytes")
    }

    /// Whether VM `vm`'s next slice goes through [`Issue::pipelined`]: the
    /// LLC's tag store is too large to stay close on the host, and the
    /// VM's previous slice was LLC-bound. Both halves are read off the
    /// simulation; nothing sets them.
    fn pipeline_pays(&self, vm: usize) -> bool {
        self.hierarchy.llc_hints_pay()
            && self.vms[vm]
                .workload
                .as_ref()
                .is_some_and(|rt| rt.llc_bound)
    }

    /// [`Engine::run_slice`] with the issue loop named by the caller: the
    /// two are the same simulated machine, so which one runs is a matter
    /// of host time only (and the tests drive both from equal states).
    fn run_slice_as(&mut self, vm: usize, pipelined: bool) -> Result<u64, PoolExhausted> {
        let core = self.vms[vm].spec.primary_core();
        let instrs = self.config.slice_instructions;
        let slot = &mut self.vms[vm];
        let rt = slot.workload.as_mut().expect("run_slice on idle VM");
        let profile = rt.stream.profile();

        let refs_f = instrs as f64 * profile.mem_refs_per_instr + rt.carry_refs;
        let n_refs = refs_f as u64;
        rt.carry_refs = refs_f - n_refs as f64;

        // Compute cycles attributed to each reference for request latency
        // accounting (the instructions executed between two references).
        let instr_share = if profile.mem_refs_per_instr > 0.0 {
            profile.cpi_exec / profile.mem_refs_per_instr
        } else {
            0.0
        };

        // Request-latency cost of one reference served at each level: the
        // same `latency / mlp + instr_share` the loop would compute, once
        // per slice instead of once per reference.
        let latency = self.config.latency;
        let cost_at = |level: HitLevel| latency.latency_of(level) / profile.mlp + instr_share;

        // One virtual call generates the whole slice's references; the
        // sequence is exactly what per-reference next_access would yield.
        rt.stream
            .next_batch(&mut rt.batch, usize::try_from(n_refs).unwrap_or(usize::MAX));
        // The core's counts go home when the slice ends: at `finish` below,
        // or when an exhausted pool returns early.
        let mut issue = Issue {
            slice: self.hierarchy.slice(core),
            frames: &mut self.frames,
            mapper: &mut rt.mapper,
            placement_rng: &mut slot.placement_rng,
            cost_l1: cost_at(HitLevel::L1),
            cost_l2: cost_at(HitLevel::L2),
            cost_llc: cost_at(HitLevel::Llc),
            cost_dram: cost_at(HitLevel::Dram),
            open_request_cycles: &mut rt.open_request_cycles,
            request_latencies: &mut rt.request_latencies,
        };
        if pipelined {
            issue.pipelined(&rt.batch)?;
        } else {
            issue.plain(&rt.batch)?;
        }
        let mut delta = issue.finish();
        // A slice that issued nothing says nothing: the verdict stands.
        if delta.l1_ref > 0 {
            rt.llc_bound = delta.llc_ref * LLC_BOUND_ONE_IN >= delta.l1_ref;
        }
        delta.ret_ins = instrs;
        let cycles =
            CyclesModel::new(self.config.latency, profile.cpi_exec, profile.mlp).cycles_for(&delta);
        self.hierarchy.record_instructions(core, instrs);
        self.hierarchy.record_cycles(core, cycles);
        Ok(cycles)
    }

    fn apply_mask_to_core(&mut self, core: u32) {
        // Both tables are sized from the validated socket config; an
        // out-of-range id means the caller skipped validation, and
        // leaving the fill mask untouched beats panicking mid-apply.
        let Some(&cos) = self.core_cos.get(core as usize) else {
            return;
        };
        let Some(&cbm) = self.cos_masks.get(cos.0 as usize) else {
            return;
        };
        self.hierarchy.set_fill_mask(core, cbm);
    }
}

/// [`CacheController`] adapter over an [`Engine`].
///
/// Programming a class re-applies its mask to every associated core, and
/// associating a core applies the class's mask to it — matching how the
/// hardware behaves when `IA32_PQR_ASSOC`/`IA32_L3_QOS_MASK` change.
pub struct EngineCat<'a> {
    engine: &'a mut Engine,
}

impl CacheController for EngineCat<'_> {
    fn capabilities(&self) -> CatCapabilities {
        CatCapabilities::with_ways(self.engine.config.socket.llc_ways())
    }

    fn num_cores(&self) -> u32 {
        self.engine.config.socket.hierarchy.cores
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        self.validate_cbm(cbm)?;
        let Some(slot) = self.engine.cos_masks.get_mut(cos.0 as usize) else {
            return Err(ResctrlError::InvalidCos(cos));
        };
        *slot = cbm;
        for core in 0..self.num_cores() {
            if self.engine.core_cos.get(core as usize) == Some(&cos) {
                self.engine.apply_mask_to_core(core);
            }
        }
        Ok(())
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        let Some(slot) = self.engine.core_cos.get_mut(core as usize) else {
            return Err(ResctrlError::InvalidCore(core));
        };
        *slot = cos;
        self.engine.apply_mask_to_core(core);
        Ok(())
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.validate_cos(cos)?;
        Ok(self.engine.cos_masks[cos.0 as usize])
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        if core >= self.num_cores() {
            return Err(ResctrlError::InvalidCore(core));
        }
        Ok(self.engine.core_cos[core as usize])
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        self.engine.hierarchy.flush_mask(cbm);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::{CacheGeometry, LineAddr, SimFidelity};
    use workloads::{Lookbusy, Mlr, RedisModel};

    fn small_config() -> EngineConfig {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.socket.hierarchy = llc_sim::HierarchyConfig {
            cores: 4,
            l1: CacheGeometry::new(64, 8, 64),
            l2: CacheGeometry::new(128, 8, 64),
            llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 8),
            llc_policy: Default::default(),
        };
        cfg.cycles_per_epoch = 500_000;
        cfg.memory_bytes = 64 * 1024 * 1024;
        cfg
    }

    fn two_vm_engine() -> Engine {
        Engine::new(
            small_config(),
            vec![
                VmSpec::new("a", vec![0, 1], 2),
                VmSpec::new("b", vec![2, 3], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn metrics_recorded_by_id_export_what_recording_by_name_did() {
        let mut e = two_vm_engine();
        assert!(
            e.metrics_snapshot().is_empty(),
            "an engine that never ran exports no series"
        );
        e.start_workload(0, Box::new(Mlr::new(256 * 1024, 3)));
        e.start_workload(1, Box::new(Lookbusy::new()));
        let mut by_name = Registry::new();
        for _ in 0..3 {
            by_name.counter_add("engine_epochs_total", &[], 1);
            for s in &e.run_epoch() {
                let vm = [("vm", s.name.as_str())];
                by_name.counter_add("engine_instructions_total", &vm, s.instructions);
                by_name.counter_add("engine_cycles_total", &vm, s.cycles);
                by_name.counter_add("engine_llc_misses_total", &vm, s.llc_miss);
                by_name.counter_add("engine_requests_total", &vm, s.requests_completed);
                by_name.gauge_set("engine_vm_ways", &vm, f64::from(s.ways));
            }
        }
        assert_eq!(
            e.metrics_snapshot().to_prometheus(),
            by_name.snapshot().to_prometheus()
        );
    }

    #[test]
    fn idle_vms_retire_nothing() {
        let mut e = two_vm_engine();
        let stats = e.run_epoch();
        assert_eq!(stats[0].instructions, 0);
        assert_eq!(stats[0].ipc, 0.0);
        assert_eq!(e.epoch, 1);
    }

    #[test]
    fn active_vm_consumes_its_cycle_budget() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Lookbusy::new()));
        let stats = e.run_epoch();
        let budget = e.config().cycles_per_epoch;
        assert!(
            stats[0].cycles >= budget,
            "budget not consumed: {}",
            stats[0].cycles
        );
        // One slice of overshoot at most.
        assert!(stats[0].cycles < budget + 100_000);
        assert!(stats[0].instructions > 0);
        assert_eq!(stats[1].instructions, 0);
    }

    #[test]
    fn memory_bound_vm_retires_fewer_instructions() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Lookbusy::new()));
        e.start_workload(1, Box::new(Mlr::new(8 * 1024 * 1024, 1))); // thrashes 2MB LLC
        let _ = e.run_epoch();
        let stats = e.run_epoch();
        assert!(
            stats[0].instructions > 3 * stats[1].instructions,
            "lookbusy {} vs mlr {}",
            stats[0].instructions,
            stats[1].instructions
        );
        assert!(stats[1].llc_miss_rate > 0.3);
        assert!(stats[1].avg_access_latency > stats[0].avg_access_latency);
    }

    #[test]
    fn stop_workload_frees_frames_and_goes_idle() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Mlr::new(1024 * 1024, 2)));
        let _ = e.run_epoch();
        assert!(e.has_workload(0));
        e.stop_workload(0);
        assert!(!e.has_workload(0));
        let stats = e.run_epoch();
        assert_eq!(stats[0].instructions, 0);
    }

    #[test]
    fn cat_adapter_programs_fill_masks() {
        let mut e = two_vm_engine();
        {
            let mut cat = e.cat();
            cat.program_cos(CosId(1), Cbm(0b11)).unwrap();
            cat.assign_core(0, CosId(1)).unwrap();
            cat.assign_core(1, CosId(1)).unwrap();
        }
        assert_eq!(e.vm_ways(0), 2);
        assert_eq!(e.vm_ways(1), 8); // still full mask
        {
            let mut cat = e.cat();
            // Growing the class updates the already-assigned cores.
            cat.program_cos(CosId(1), Cbm(0b1111)).unwrap();
        }
        assert_eq!(e.vm_ways(0), 4);
    }

    #[test]
    fn cat_adapter_validates() {
        let mut e = two_vm_engine();
        let mut cat = e.cat();
        assert!(cat.program_cos(CosId(1), Cbm(0)).is_err());
        assert!(cat.program_cos(CosId(1), Cbm(0b101)).is_err());
        assert!(cat.program_cos(CosId(16), Cbm(1)).is_err());
        assert!(cat.assign_core(99, CosId(1)).is_err());
    }

    #[test]
    fn partitioning_isolates_vm_from_noisy_neighbor() {
        // Victim: small MLR that fits 4 ways; three streaming neighbors.
        fn build(isolate: bool) -> Engine {
            let vms: Vec<VmSpec> = (0..4)
                .map(|i| VmSpec::new(format!("vm{i}"), vec![i as u32], 2))
                .collect();
            let mut e = Engine::new(small_config(), vms).unwrap();
            e.start_workload(0, Box::new(Mlr::new(256 * 1024, 3)));
            for vm in 1..4 {
                e.start_workload(vm, Box::new(workloads::Mload::new(8 * 1024 * 1024)));
            }
            if isolate {
                let mut cat = e.cat();
                cat.program_cos(CosId(1), Cbm(0b1111)).unwrap();
                cat.program_cos(CosId(2), Cbm(0b1111_0000)).unwrap();
                cat.assign_core(0, CosId(1)).unwrap();
                for c in 1..4 {
                    cat.assign_core(c, CosId(2)).unwrap();
                }
            }
            e
        }

        let mut shared = build(false);
        let mut isolated = build(true);
        for _ in 0..5 {
            shared.run_epoch();
            isolated.run_epoch();
        }
        let shared_stats = shared.run_epoch();
        let iso_stats = isolated.run_epoch();

        assert!(
            iso_stats[0].ipc > 1.5 * shared_stats[0].ipc,
            "CAT isolation should protect the victim: isolated {} vs shared {}",
            iso_stats[0].ipc,
            shared_stats[0].ipc
        );
    }

    #[test]
    fn request_latencies_recorded_for_service_workloads() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(RedisModel::new(10_000, 128, 0.99, 7)));
        let stats = e.run_epoch();
        assert!(stats[0].requests_completed > 0);
        let lats = e.take_request_latencies(0);
        assert_eq!(lats.len() as u64, stats[0].requests_completed);
        assert!(lats.iter().all(|&l| l > 0.0));
        // Drained: second take is empty.
        assert!(e.take_request_latencies(0).is_empty());
    }

    #[test]
    fn occupancy_monitoring_tracks_the_working_set() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Mlr::new(64 * 1024, 5)));
        let mut stats = Vec::new();
        for _ in 0..4 {
            stats = e.run_epoch();
        }
        // 64 KiB = 1024 lines; once warm, occupancy approaches that.
        let occ = stats[0].llc_occupancy_lines;
        assert!(occ > 500, "occupancy {occ} too small for a 1024-line WSS");
        assert!(occ <= 1024 + 128, "occupancy {occ} exceeds the working set");
        assert_eq!(stats[1].llc_occupancy_lines, 0, "idle VM owns nothing");
    }

    #[test]
    fn replacing_a_workload_frees_its_frames() {
        let mut cfg = small_config();
        // Pool just big enough for ~2 working sets: leaks would exhaust it.
        cfg.memory_bytes = 8 * 1024 * 1024;
        let mut e = Engine::new(cfg, vec![VmSpec::new("a", vec![0, 1], 2)]).unwrap();
        for round in 0..6 {
            e.start_workload(0, Box::new(Mlr::new(3 * 1024 * 1024, round)));
            let _ = e.run_epoch();
        }
        // Reaching here without the "pool exhausted" panic proves reuse.
        assert!(e.has_workload(0));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let build = || {
            let mut e = two_vm_engine();
            e.start_workload(0, Box::new(Mlr::new(512 * 1024, 9)));
            e.start_workload(1, Box::new(workloads::Mload::new(2 * 1024 * 1024)));
            e
        };
        let mut a = build();
        let mut b = build();
        for _ in 0..4 {
            let sa = a.run_epoch();
            let sb = b.run_epoch();
            for (x, y) in sa.iter().zip(sb.iter()) {
                assert_eq!(x.instructions, y.instructions);
                assert_eq!(x.cycles, y.cycles);
                assert_eq!(x.llc_miss, y.llc_miss);
            }
        }
    }

    #[test]
    fn neighbor_churn_does_not_reshuffle_a_vms_frames() {
        // Regression test for per-VM placement sub-seeds. VM "a" is CAT-
        // isolated in the low 4 ways, so its miss trajectory depends only
        // on its own access stream and its own frame placement. Swapping
        // the neighbor's workload (and therefore how many frames the
        // neighbor allocates) must leave "a" bit-identical — under the old
        // engine-global placement RNG the neighbor's allocations advanced
        // the shared stream and reshuffled "a"'s frames.
        let run = |neighbor_wss: u64| {
            let mut e = two_vm_engine();
            {
                let mut cat = e.cat();
                cat.program_cos(CosId(1), Cbm(0b1111)).unwrap();
                cat.program_cos(CosId(2), Cbm(0b1111_0000)).unwrap();
                cat.assign_core(0, CosId(1)).unwrap();
                cat.assign_core(1, CosId(1)).unwrap();
                cat.assign_core(2, CosId(2)).unwrap();
                cat.assign_core(3, CosId(2)).unwrap();
            }
            e.start_workload(0, Box::new(Mlr::new(768 * 1024, 9)));
            e.start_workload(1, Box::new(Mlr::new(neighbor_wss, 5)));
            let mut trace = Vec::new();
            for _ in 0..3 {
                let stats = e.run_epoch();
                trace.push((
                    stats[0].instructions,
                    stats[0].cycles,
                    stats[0].llc_ref,
                    stats[0].llc_miss,
                ));
            }
            trace
        };
        assert_eq!(run(256 * 1024), run(4 * 1024 * 1024));
    }

    #[test]
    fn request_latency_accounting_spans_epochs() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(RedisModel::new(5_000, 128, 0.9, 3)));
        let mut total_requests = 0;
        let mut total_samples = 0;
        for _ in 0..3 {
            let stats = e.run_epoch();
            total_requests += stats[0].requests_completed;
            total_samples += e.take_request_latencies(0).len() as u64;
        }
        assert!(total_requests > 0);
        assert_eq!(
            total_requests, total_samples,
            "every request yields one sample"
        );
    }

    #[test]
    fn cat_adapter_flush_cbm_clears_the_masked_ways() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Mlr::new(128 * 1024, 5)));
        let _ = e.run_epoch();
        assert!(e.vm_llc_occupancy(0) > 0);
        {
            let mut cat = e.cat();
            // Everything was filled under the full default mask.
            cat.flush_cbm(Cbm(0xff)).unwrap();
        }
        assert_eq!(e.hierarchy().llc_occupancy(), 0, "flush must empty the LLC");
        assert_eq!(e.vm_llc_occupancy(0), 0);
    }

    #[test]
    fn snapshots_aggregate_vm_cores() {
        let mut e = two_vm_engine();
        e.start_workload(0, Box::new(Lookbusy::new()));
        e.run_epoch();
        let snaps = e.snapshots();
        assert!(snaps[0].ret_ins > 0);
        assert_eq!(snaps[1].ret_ins, 0);
    }

    // The pipeline is the plain loop: both issue loops, from equal engine
    // states, must leave equal engine states.

    /// Replays a script, one reference per instruction, so a slice of `n`
    /// instructions is a batch of exactly `n` references.
    struct Scripted {
        refs: Vec<MemRef>,
        at: usize,
    }

    impl Scripted {
        fn boxed(refs: Vec<MemRef>) -> Box<dyn AccessStream> {
            Box::new(Scripted { refs, at: 0 })
        }

        /// `n` loads at uniform-random addresses below `span`.
        fn random(span: u64, n: usize, seed: u64) -> Box<dyn AccessStream> {
            let mut rng = SmallRng::seed_from_u64(seed);
            Self::boxed(
                (0..n)
                    .map(|_| MemRef::load(rng.gen_range(0..span)))
                    .collect(),
            )
        }
    }

    impl AccessStream for Scripted {
        fn next_access(&mut self) -> MemRef {
            let mref = self.refs[self.at % self.refs.len()];
            self.at += 1;
            mref
        }

        fn profile(&self) -> workloads::ExecutionProfile {
            workloads::ExecutionProfile::new(1.0, 0.5, 2.0)
        }

        fn name(&self) -> String {
            "scripted".to_string()
        }
    }

    /// Everything a slice can change that a later slice, an epoch report
    /// or a digest can see.
    #[derive(Debug, PartialEq)]
    struct Observable {
        counters: CoreCounters,
        request_latency_bits: Vec<u64>,
        open_request_bits: u64,
        mapped_pages: usize,
        used_bytes: u64,
        next_placement_draw: u64,
        /// Every resident LLC line, set by set and way by way: which frame
        /// each page landed on, and the order the lines arrived in.
        llc_lines: Vec<LineAddr>,
    }

    fn observe(e: &Engine) -> Observable {
        let slot = &e.vms[0];
        let rt = slot.workload.as_ref().expect("VM 0 runs the stream");
        Observable {
            counters: e.hierarchy.counters(slot.spec.primary_core()),
            request_latency_bits: rt.request_latencies.iter().map(|l| l.to_bits()).collect(),
            open_request_bits: rt.open_request_cycles.to_bits(),
            mapped_pages: rt.mapper.mapped_pages(),
            used_bytes: e.frames.used_bytes(),
            next_placement_draw: slot.placement_rng.clone().next_u64(),
            llc_lines: (0..e.hierarchy.llc().geometry().sets)
                .flat_map(|set| {
                    let lines: Vec<_> = e.hierarchy.llc().set(set).resident_lines().collect();
                    lines
                })
                .collect(),
        }
    }

    /// Two engines in the same state; `.0` issues with the plain loop and
    /// `.1` with the pipeline (forced: at this geometry the gate is off).
    struct Lockstep(Engine, Engine);

    impl Lockstep {
        fn new(cfg: EngineConfig, stream: impl Fn() -> Box<dyn AccessStream>) -> Self {
            let build = || {
                let mut e = Engine::new(cfg, vec![VmSpec::new("a", vec![0, 1], 2)]).unwrap();
                e.start_workload(0, stream());
                e
            };
            Lockstep(build(), build())
        }

        fn both(&mut self, f: impl Fn(&mut Engine)) {
            f(&mut self.0);
            f(&mut self.1);
        }

        /// One slice of `instructions` on each engine; the outcomes.
        fn slice(
            &mut self,
            instructions: u64,
        ) -> (Result<u64, PoolExhausted>, Result<u64, PoolExhausted>) {
            self.both(|e| e.config.slice_instructions = instructions);
            (self.0.run_slice_as(0, false), self.1.run_slice_as(0, true))
        }

        fn slices_agree(&mut self, sizes: &[u64]) {
            for &instructions in sizes {
                let (plain, piped) = self.slice(instructions);
                assert_eq!(plain, piped, "cycles of a {instructions}-reference slice");
                assert!(plain.is_ok());
                assert_eq!(observe(&self.0), observe(&self.1), "after {instructions}");
            }
        }
    }

    const D: u64 = LOOKAHEAD as u64;

    #[test]
    fn pipeline_equals_plain_loop_on_an_llc_bound_stream() {
        // Sampled as well: the gate does not read the fidelity.
        for llc_fidelity in [SimFidelity::Full, SimFidelity::Sampled { one_in: 8 }] {
            let cfg = EngineConfig {
                llc_fidelity,
                ..small_config()
            };
            let mut pair = Lockstep::new(cfg, || Scripted::random(256 << 20, 10_000, 11));
            pair.slices_agree(&[1_000, 1_000, 999, 1_001]);
            let c = pair.0.hierarchy.counters(0);
            assert!(c.llc_ref * 2 > c.l1_ref, "the stream must reach the LLC");
        }
    }

    #[test]
    fn pipeline_equals_plain_loop_on_an_l1_resident_stream() {
        let mut pair = Lockstep::new(small_config(), || Scripted::random(16 << 10, 5_000, 12));
        pair.slices_agree(&[1_000; 4]);
        let c = pair.0.hierarchy.counters(0);
        assert!(c.l1_miss * 10 < c.l1_ref, "the stream must stay in the L1");
    }

    #[test]
    fn pipeline_equals_plain_loop_on_same_line_runs() {
        // 64 references to each line before the next (not `Mload`, which
        // moves to a new line every reference and repeats only the page):
        // 63 of 64 hints name the set the previous one did.
        let mut pair = Lockstep::new(small_config(), || {
            Scripted::boxed(
                (0..8u64 << 20)
                    .step_by(1 << 10)
                    .flat_map(|base| (0..64).map(move |byte| MemRef::load(base + byte)))
                    .collect(),
            )
        });
        pair.slices_agree(&[640, 1, 63, 64, 1_000]);
    }

    #[test]
    fn pipeline_equals_plain_loop_on_requests() {
        let mut pair = Lockstep::new(small_config(), || {
            Box::new(RedisModel::new(10_000, 128, 0.99, 7))
        });
        pair.slices_agree(&[2_000; 6]);
        let rt = pair.0.vms[0].workload.as_ref().unwrap();
        assert!(rt.request_latencies.len() > 10, "requests must complete");
    }

    #[test]
    fn pipeline_equals_plain_loop_at_every_ring_boundary() {
        let mut pair = Lockstep::new(small_config(), || Scripted::random(256 << 20, 4_000, 13));
        pair.slices_agree(&[
            0,
            1,
            D - 1,
            D,
            D + 1,
            2 * D - 1,
            2 * D,
            2 * D + 1,
            0,
            3 * D,
            1,
        ]);
    }

    #[test]
    fn pipeline_equals_plain_loop_across_a_restart() {
        let mut pair = Lockstep::new(small_config(), || Scripted::random(256 << 20, 4_000, 14));
        pair.slices_agree(&[500, 500]);
        pair.both(|e| {
            e.stop_workload(0);
            assert_eq!(e.frames.used_bytes(), 0);
            e.start_workload(0, Scripted::random(64 << 20, 4_000, 15));
        });
        // The placement stream continues across the restart, on both.
        pair.slices_agree(&[500, 2 * D + 1, 500]);
    }

    #[test]
    fn both_loops_exhaust_the_pool_on_the_same_reference() {
        let mut cfg = small_config();
        cfg.memory_bytes = 2 << 20; // 512 frames, one per reference
        let mut pair = Lockstep::new(cfg, || {
            Scripted::boxed((0..1_000u64).map(|page| MemRef::load(page << 12)).collect())
        });
        pair.slices_agree(&[200, 200]);
        let (plain, piped) = pair.slice(200);
        assert_eq!(plain, Err(PoolExhausted { reference: 112 }));
        assert_eq!(piped, plain);
        let (plain, piped) = (observe(&pair.0), observe(&pair.1));
        assert_eq!(plain.mapped_pages, 512);
        assert_eq!(
            (piped.mapped_pages, piped.used_bytes),
            (plain.mapped_pages, plain.used_bytes)
        );
        assert_eq!(piped.next_placement_draw, plain.next_placement_draw);
        // The pipeline translates 2d references ahead of its accesses, so
        // it meets the failure that many accesses earlier.
        assert_eq!(plain.counters.l1_ref, 512);
        assert_eq!(piped.counters.l1_ref, 512 - 2 * D);
    }

    #[test]
    fn memory_whose_lines_the_llc_cannot_tag_is_refused() {
        // A one-set LLC tags a line as itself: u16::MAX lines fit below
        // the sentinel, one more does not.
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.socket.hierarchy.llc = CacheGeometry::new(1, 20, 64);
        cfg.memory_bytes = u64::from(u16::MAX) << llc_sim::LINE_SHIFT;
        let vms = || vec![VmSpec::new("a", vec![0], 2)];
        assert!(Engine::new(cfg, vms()).is_ok());
        cfg.memory_bytes += llc_sim::LINE_SIZE;
        let err = Engine::new(cfg, vms()).err().expect("one line too many");
        assert!(err.contains("the LLC's tags reach 65535"), "{err}");
        // The paper's socket refuses the same way, at 36 864 times that.
        let mut paper = EngineConfig::xeon_e5_v4();
        paper.memory_bytes = u64::MAX;
        assert!(Engine::new(paper, vms()).is_err());
    }

    #[test]
    fn the_pipeline_runs_only_where_it_pays() {
        // Small tag store (152 KiB): never, however LLC-bound the VM.
        let mut small = two_vm_engine();
        small.start_workload(0, Scripted::random(256 << 20, 4_000, 16));
        small.run_slice(0);
        assert!(small.vms[0].workload.as_ref().unwrap().llc_bound);
        assert!(!small.pipeline_pays(0));

        // The paper's socket (3.2 MB of tags): from the slice after an
        // LLC-bound one, and never for an L1-resident neighbour.
        let vms = vec![VmSpec::new("a", vec![0], 2), VmSpec::new("b", vec![1], 2)];
        let mut paper = Engine::new(EngineConfig::xeon_e5_v4(), vms).unwrap();
        paper.start_workload(0, Scripted::random(256 << 20, 4_000, 17));
        paper.start_workload(1, Box::new(Lookbusy::new()));
        assert!(
            !paper.pipeline_pays(0),
            "a workload starts on the plain loop"
        );
        paper.run_slice(0);
        for _ in 0..8 {
            paper.run_slice(1); // 40 references a slice; 128 lines to warm
        }
        assert!(paper.pipeline_pays(0));
        assert!(!paper.pipeline_pays(1));
        // A slice that issues no reference leaves both verdicts alone.
        paper.config.slice_instructions = 0;
        paper.run_slice(0);
        paper.run_slice(1);
        assert!(paper.pipeline_pays(0));
        assert!(!paper.pipeline_pays(1));
        // A restart forgets the verdict.
        paper.start_workload(0, Box::new(Lookbusy::new()));
        assert!(!paper.pipeline_pays(0));
    }
}
