//! Timing wrappers handed to the program in the traced pass: an
//! [`AccessStream`] the engine drives and a [`CacheController`] a policy
//! drives. Both forward every call unchanged, so the simulated outcome
//! is the one the untraced pass produced; the digests prove it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llc_sim::PageSize;
use resctrl::{CacheController, CatCapabilities, Cbm, CosId, ResctrlError};
use workloads::{AccessStream, ExecutionProfile, MemRef};

/// Think-time filler of `workloads::DiurnalStream` lives on one line at
/// this address; every model allocates from 0 upward, far below it.
const THINK_VADDR_FLOOR: u64 = 1 << 44;

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals one VM's stream wrapper accumulates. Atomics, because streams
/// must be `Send`; there is never a second writer.
#[derive(Debug, Default)]
pub struct StreamMeter {
    ns: AtomicU64,
    batches: AtomicU64,
    refs: AtomicU64,
    filler_refs: AtomicU64,
}

/// A drained [`StreamMeter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamTotals {
    pub ns: u64,
    pub batches: u64,
    pub refs: u64,
    pub filler_refs: u64,
}

impl StreamTotals {
    pub fn add(&mut self, t: StreamTotals) {
        self.ns += t.ns;
        self.batches += t.batches;
        self.refs += t.refs;
        self.filler_refs += t.filler_refs;
    }
}

impl StreamMeter {
    /// Returns the totals since the last call and zeroes them.
    pub fn take(&self) -> StreamTotals {
        StreamTotals {
            ns: self.ns.swap(0, Ordering::Relaxed),
            batches: self.batches.swap(0, Ordering::Relaxed),
            refs: self.refs.swap(0, Ordering::Relaxed),
            filler_refs: self.filler_refs.swap(0, Ordering::Relaxed),
        }
    }
}

/// The first references of a run in the order the engine's slices drew
/// them, for the replay probes.
#[derive(Debug)]
pub struct Capture {
    cap: usize,
    /// `(vm, page size, reference)` in slice order.
    pub refs: Vec<(u32, PageSize, MemRef)>,
}

impl Capture {
    pub fn new(cap: usize) -> Self {
        Capture {
            cap,
            refs: Vec::with_capacity(cap),
        }
    }

    fn full(&self) -> bool {
        self.refs.len() >= self.cap
    }
}

/// Forwards to `inner`, timing each `next_batch` and counting what it
/// produced.
pub struct TimedStream {
    inner: Box<dyn AccessStream>,
    vm: u32,
    meter: Arc<StreamMeter>,
    capture: Option<Arc<Mutex<Capture>>>,
    count_filler: bool,
}

impl TimedStream {
    pub fn new(inner: Box<dyn AccessStream>, vm: u32, meter: Arc<StreamMeter>) -> Self {
        TimedStream {
            inner,
            vm,
            meter,
            capture: None,
            count_filler: false,
        }
    }

    /// Also copies drawn references into `capture` until it is full.
    pub fn capturing(mut self, capture: Arc<Mutex<Capture>>) -> Self {
        self.capture = Some(capture);
        self
    }

    /// Also counts diurnal think-time filler among the references.
    pub fn counting_filler(mut self) -> Self {
        self.count_filler = true;
        self
    }
}

impl AccessStream for TimedStream {
    fn next_access(&mut self) -> MemRef {
        self.inner.next_access()
    }

    fn next_batch(&mut self, out: &mut Vec<MemRef>, n: usize) {
        let t = Instant::now();
        self.inner.next_batch(out, n);
        let ns = elapsed_ns(t);
        self.meter.ns.fetch_add(ns, Ordering::Relaxed);
        self.meter.batches.fetch_add(1, Ordering::Relaxed);
        self.meter
            .refs
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        if self.count_filler {
            let filler = out
                .iter()
                .filter(|r| r.vaddr.0 >= THINK_VADDR_FLOOR)
                .count();
            self.meter
                .filler_refs
                .fetch_add(filler as u64, Ordering::Relaxed);
        }
        if let Some(capture) = &self.capture {
            let mut c = capture.lock().expect("capture is only locked here");
            if !c.full() {
                let room = c.cap - c.refs.len();
                let page = self.inner.page_size();
                let vm = self.vm;
                c.refs.extend(out.iter().take(room).map(|r| (vm, page, *r)));
                if c.full() {
                    drop(c);
                    self.capture = None;
                }
            }
        }
    }

    fn profile(&self) -> ExecutionProfile {
        self.inner.profile()
    }

    fn page_size(&self) -> PageSize {
        self.inner.page_size()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn working_set_bytes(&self) -> Option<u64> {
        self.inner.working_set_bytes()
    }
}

/// Calls and nanoseconds per [`CacheController`] operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CatTotals {
    pub program_calls: u64,
    pub program_ns: u64,
    pub assign_calls: u64,
    pub assign_ns: u64,
    pub flush_calls: u64,
    pub flush_ns: u64,
    pub read_calls: u64,
    pub read_ns: u64,
}

impl CatTotals {
    /// Mutating calls (what a tick writes).
    pub fn write_calls(&self) -> u64 {
        self.program_calls + self.assign_calls + self.flush_calls
    }

    pub fn write_ns(&self) -> u64 {
        self.program_ns + self.assign_ns + self.flush_ns
    }

    pub fn add(&mut self, t: CatTotals) {
        self.program_calls += t.program_calls;
        self.program_ns += t.program_ns;
        self.assign_calls += t.assign_calls;
        self.assign_ns += t.assign_ns;
        self.flush_calls += t.flush_calls;
        self.flush_ns += t.flush_ns;
        self.read_calls += t.read_calls;
        self.read_ns += t.read_ns;
    }
}

/// Forwards to `inner`, timing every operation.
pub struct TimingCat<C> {
    inner: C,
    totals: CatTotals,
    // `cos_mask`/`core_cos` take `&self`.
    read_calls: Cell<u64>,
    read_ns: Cell<u64>,
}

impl<C: CacheController> TimingCat<C> {
    pub fn new(inner: C) -> Self {
        TimingCat {
            inner,
            totals: CatTotals::default(),
            read_calls: Cell::new(0),
            read_ns: Cell::new(0),
        }
    }

    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Returns the totals since the last call and zeroes them.
    pub fn take(&mut self) -> CatTotals {
        let mut t = std::mem::take(&mut self.totals);
        t.read_calls = self.read_calls.replace(0);
        t.read_ns = self.read_ns.replace(0);
        t
    }

    fn timed_read<T>(&self, f: impl FnOnce(&C) -> T) -> T {
        let t = Instant::now();
        let out = f(&self.inner);
        self.read_ns.set(self.read_ns.get() + elapsed_ns(t));
        self.read_calls.set(self.read_calls.get() + 1);
        out
    }
}

impl<C: CacheController> CacheController for TimingCat<C> {
    fn capabilities(&self) -> CatCapabilities {
        self.inner.capabilities()
    }

    fn num_cores(&self) -> u32 {
        self.inner.num_cores()
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        let t = Instant::now();
        let out = self.inner.program_cos(cos, cbm);
        self.totals.program_ns += elapsed_ns(t);
        self.totals.program_calls += 1;
        out
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        let t = Instant::now();
        let out = self.inner.assign_core(core, cos);
        self.totals.assign_ns += elapsed_ns(t);
        self.totals.assign_calls += 1;
        out
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.timed_read(|c| c.cos_mask(cos))
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        self.timed_read(|c| c.core_cos(core))
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        let t = Instant::now();
        let out = self.inner.flush_cbm(cbm);
        self.totals.flush_ns += elapsed_ns(t);
        self.totals.flush_calls += 1;
        out
    }

    fn validate_cbm(&self, cbm: Cbm) -> Result<(), ResctrlError> {
        self.inner.validate_cbm(cbm)
    }

    fn validate_cos(&self, cos: CosId) -> Result<(), ResctrlError> {
        self.inner.validate_cos(cos)
    }
}
