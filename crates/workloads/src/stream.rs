//! The [`AccessStream`] abstraction shared by every workload model.

use llc_sim::{AccessKind, PageSize, VirtAddr};

/// One memory reference emitted by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Virtual address touched.
    pub vaddr: VirtAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Whether this reference completes a request (service models mark
    /// request boundaries so the engine can record per-request latency;
    /// batch workloads leave this `false`).
    pub ends_request: bool,
}

impl MemRef {
    /// A plain load that does not end a request.
    pub fn load(vaddr: u64) -> Self {
        MemRef {
            vaddr: VirtAddr(vaddr),
            kind: AccessKind::Load,
            ends_request: false,
        }
    }

    /// Marks this reference as the last one of a request.
    pub(crate) fn ending_request(mut self) -> Self {
        self.ends_request = true;
        self
    }
}

/// Compute-side characteristics of a workload, consumed by the engine's
/// cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionProfile {
    /// Memory references per retired instruction (`l1_ref / ret_ins`). This
    /// is the paper's phase signature: it depends only on the code, never
    /// on the cache configuration (paper Figure 5).
    pub mem_refs_per_instr: f64,
    /// Cycles per instruction when every reference hits the L1.
    pub cpi_exec: f64,
    /// Memory-level parallelism: how many outstanding misses the workload
    /// sustains. Dependent pointer chases have ~1; prefetched streams ~8.
    pub mlp: f64,
}

impl ExecutionProfile {
    /// Creates a profile, clamping values to sane ranges.
    pub fn new(mem_refs_per_instr: f64, cpi_exec: f64, mlp: f64) -> Self {
        ExecutionProfile {
            mem_refs_per_instr: mem_refs_per_instr.clamp(0.0, 4.0),
            cpi_exec: cpi_exec.max(0.05),
            mlp: mlp.max(1.0),
        }
    }
}

/// An infinite generator of memory references.
///
/// Streams are infinite; *when* a workload starts and stops is decided by
/// the scenario schedule in the `host` crate, mirroring how the paper
/// starts and stops programs inside long-lived VMs.
///
/// Streams are `Send` so a whole socket's VM set (engine state plus the
/// boxed streams it drives) can move to a worker thread. Workload models
/// are plain seeded state machines, so the bound costs implementors
/// nothing.
pub trait AccessStream: Send {
    /// Produces the next memory reference.
    fn next_access(&mut self) -> MemRef;

    /// Fills `out` with the next `n` references (clearing it first).
    ///
    /// Exactly equivalent to calling [`AccessStream::next_access`] `n`
    /// times — the default body does just that — but callers holding a
    /// `Box<dyn AccessStream>` pay one virtual dispatch per *batch*
    /// instead of one per reference: the default body is monomorphized
    /// per implementor, so its `next_access` calls resolve statically and
    /// inline. The engine's slice loop is the intended caller.
    fn next_batch(&mut self, out: &mut Vec<MemRef>, n: usize) {
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_access());
        }
    }

    /// The stream's current execution profile. Phase-switching composites
    /// return the profile of the *current* phase.
    fn profile(&self) -> ExecutionProfile;

    /// Page size backing the stream's buffer (huge pages change physical
    /// contiguity and therefore conflict misses; paper Figures 2–3).
    fn page_size(&self) -> PageSize {
        PageSize::Small
    }

    /// A short human-readable name for reports.
    fn name(&self) -> String;

    /// Working-set size in bytes, if the model has a well-defined one.
    fn working_set_bytes(&self) -> Option<u64> {
        None
    }
}

/// A boxed stream is a stream, so a wrapper generic over its inner stream
/// ([`crate::DiurnalStream`]) takes a concrete model or a
/// `Box<dyn AccessStream>` alike. Every method forwards: one left to the
/// trait's default would silently answer for the box instead of the
/// stream inside it (4 KiB pages, no working set, one dispatch per
/// reference).
impl<T: AccessStream + ?Sized> AccessStream for Box<T> {
    #[inline]
    fn next_access(&mut self) -> MemRef {
        (**self).next_access()
    }

    #[inline]
    fn next_batch(&mut self, out: &mut Vec<MemRef>, n: usize) {
        (**self).next_batch(out, n);
    }

    #[inline]
    fn profile(&self) -> ExecutionProfile {
        (**self).profile()
    }

    #[inline]
    fn page_size(&self) -> PageSize {
        (**self).page_size()
    }

    #[inline]
    fn name(&self) -> String {
        (**self).name()
    }

    #[inline]
    fn working_set_bytes(&self) -> Option<u64> {
        (**self).working_set_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the calls that reach its own `next_batch` override.
    struct Probe {
        inner: crate::Mload,
        batches: usize,
    }

    impl AccessStream for Probe {
        fn next_access(&mut self) -> MemRef {
            self.inner.next_access()
        }
        fn next_batch(&mut self, out: &mut Vec<MemRef>, n: usize) {
            self.batches += 1;
            self.inner.next_batch(out, n);
        }
        fn profile(&self) -> ExecutionProfile {
            self.inner.profile()
        }
        fn name(&self) -> String {
            self.inner.name()
        }
    }

    #[test]
    fn a_boxed_stream_forwards_all_six_methods() {
        /// Static dispatch on `S`, so with `S = Box<dyn AccessStream>` every
        /// call below goes through the `Box` impl.
        fn observe<S: AccessStream>(
            s: &mut S,
        ) -> (
            MemRef,
            Vec<MemRef>,
            ExecutionProfile,
            PageSize,
            String,
            Option<u64>,
        ) {
            let first = s.next_access();
            let mut batch = Vec::new();
            s.next_batch(&mut batch, 9);
            (
                first,
                batch,
                s.profile(),
                s.page_size(),
                s.name(),
                s.working_set_bytes(),
            )
        }
        let huge = || crate::Mload::with_page_size(4 << 20, PageSize::Huge);
        let mut plain = huge();
        let mut boxed: Box<dyn AccessStream> = Box::new(huge());
        let want = observe(&mut plain);
        assert_eq!(observe(&mut boxed), want);
        // The defaults a forgotten method would fall back to differ from
        // what this stream answers.
        assert_eq!(want.3, PageSize::Huge);
        assert_eq!(want.5, Some(4 << 20));

        // `next_batch` reaches the stream's own override, not the default
        // loop over `next_access`.
        let mut probe = Box::new(Probe {
            inner: huge(),
            batches: 0,
        });
        observe(&mut probe);
        assert_eq!(probe.batches, 1);
    }

    #[test]
    fn next_batch_equals_repeated_next_access() {
        // Two identically-seeded streams: the batch must reproduce the
        // one-at-a-time sequence exactly, including across batch
        // boundaries (no internal state is skipped or duplicated).
        let mut one_by_one = crate::Mlr::new(1024 * 1024, 42);
        let mut batched: Box<dyn AccessStream> = Box::new(crate::Mlr::new(1024 * 1024, 42));
        let mut batch = Vec::new();
        for n in [1usize, 7, 64, 100] {
            batched.next_batch(&mut batch, n);
            assert_eq!(batch.len(), n);
            for r in &batch {
                assert_eq!(*r, one_by_one.next_access());
            }
        }
    }

    #[test]
    fn memref_constructors() {
        let l = MemRef::load(0x40);
        assert_eq!(l.kind, AccessKind::Load);
        assert!(!l.ends_request);
        let s = MemRef {
            kind: AccessKind::Store,
            ..MemRef::load(0x80)
        }
        .ending_request();
        assert_eq!(s.kind, AccessKind::Store);
        assert!(s.ends_request);
    }

    #[test]
    fn profile_clamps_degenerate_values() {
        let p = ExecutionProfile::new(-1.0, 0.0, 0.0);
        assert_eq!(p.mem_refs_per_instr, 0.0);
        assert!(p.cpi_exec > 0.0);
        assert_eq!(p.mlp, 1.0);
    }
}
