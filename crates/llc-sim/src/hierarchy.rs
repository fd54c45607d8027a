//! The full memory hierarchy: per-core L1/L2, shared way-partitioned LLC.
//!
//! Inclusion is enforced the way Intel's pre-Skylake server parts do it
//! (and the paper's footnote 3 describes): the LLC is inclusive of the
//! private caches, so evicting a line from the LLC *back-invalidates* it
//! from every core's L1 and L2. This is the mechanism by which a noisy
//! neighbor flushing the LLC also destroys a victim's private-cache
//! contents — the effect Figure 1 of the paper measures.
//!
//! Only the LLC is a [`SetAssocCache`]: CAT partitions the shared cache,
//! so masks, sharing, occupancy and the replacement policy live there. A
//! core's L1 and L2 have one requestor, no mask and plain LRU, and are
//! [`PrivateCache`] recency lists.
//!
//! The back-invalidation is directed by a one-pointer directory with a
//! broadcast bit (Dir₁B, Agarwal et al., ISCA 1988): every LLC line names
//! the core that filled it and whether any other core has hit it since,
//! and an eviction or flush visits the filler alone while the line is
//! unshared, every core once it is shared. A core obtains a private copy
//! of a line only by missing L1 and L2 and going through the LLC for it —
//! filling it, or hitting it and so marking it shared — and the copy
//! cannot outlive the LLC line, whose departure visits every core that can
//! hold it. Visiting a core without a copy (lost to capacity, or never
//! taken) is a no-op invalidate. VMs do not share frames, so a line is
//! shared only when a freed frame is reused.

use cbm::Cbm;

use crate::address::{LineAddr, PhysAddr, LINE_SHIFT};
use crate::cache::{AccessOutcome, SetAssocCache};
use crate::counters::CoreCounters;
use crate::geometry::CacheGeometry;
use crate::private::{HeldCache, PrivateCache};
use crate::replacement::ReplacementPolicy;
use crate::set::{Evicted, MAX_FILLERS};

/// Kind of memory access. Loads and stores are costed identically by the
/// latency model; the distinction is kept because workload generators and
/// the paper's event list (Table 2) both make it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

/// The hierarchy level that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the private L1.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared LLC.
    Llc,
    /// Missed everywhere; served by DRAM.
    Dram,
}

/// How faithfully the shared LLC is simulated.
///
/// `Full` models every set; it is the default and the mode every
/// byte-identity guarantee is stated for. `Sampled` simulates only one
/// LLC set in `one_in` (UMON-style set sampling, as in the utility-based
/// cache-partitioning literature): accesses that index a *sampled* set
/// run through the real tag store, while accesses to unsampled sets are
/// classified hit-or-miss by a deterministic per-core estimator that
/// replays the miss ratio observed on the sampled sets. Private L1/L2
/// caches are always fully simulated.
///
/// Consequences of sampling, all documented rather than hidden:
///
/// * LLC occupancy accessors scale sampled-set counts by the exact
///   `sets / simulated_sets` ratio (round-half-up), so magnitudes stay
///   comparable with full fidelity and never exceed the cache capacity;
/// * LLC inclusion is not maintained for unsampled sets (their lines are
///   never resident), so `llc_probe` only answers for sampled sets;
/// * miss *rates* carry a sampling error — the accuracy test in
///   `tests/sampled_fidelity.rs` bounds it for the fig10 workloads.
///
/// The estimator is pure integer arithmetic over monotonic counters, so
/// sampled runs are exactly as deterministic (and `--jobs N`-stable) as
/// full-fidelity runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimFidelity {
    /// Simulate every LLC set (the seed behavior).
    #[default]
    Full,
    /// Simulate one LLC set in `one_in`; estimate the rest.
    Sampled {
        /// Sampling stride: sets whose index is a multiple of this value
        /// are simulated. `1` degenerates to full fidelity.
        one_in: u32,
    },
}

/// Per-core hit/miss estimator for unsampled LLC sets.
///
/// Tracks the references and misses this core issued to *sampled* sets
/// and replays that ratio over unsampled accesses with an error-diffusion
/// (Bresenham) accumulator: across any window, estimated misses track
/// `sampled_miss / sampled_ref` to within one access, with no floating
/// point and no RNG. The counters decay exponentially (both halve once
/// the reference count reaches [`ESTIMATOR_WINDOW`]) so the replayed
/// ratio follows the *recent* regime — a cache warming up or a CAT
/// reallocation shifts the miss rate, and a lifetime average would lag
/// it by the whole history.
#[derive(Debug, Clone, Copy, Default)]
struct SampleEstimator {
    /// References this core issued to sampled LLC sets (decayed).
    sampled_ref: u64,
    /// Misses among those references (decayed).
    sampled_miss: u64,
    /// Error-diffusion accumulator, kept below `sampled_ref`.
    credit: u64,
}

/// Decay threshold for [`SampleEstimator`]: once this many sampled
/// references accumulate, both counters halve. The effective memory is
/// therefore the last ~2 windows of sampled traffic.
const ESTIMATOR_WINDOW: u64 = 1024;

impl SampleEstimator {
    /// Records the outcome of one access to a sampled set.
    fn observe(&mut self, missed: bool) {
        if self.sampled_ref >= ESTIMATOR_WINDOW {
            self.sampled_ref /= 2;
            self.sampled_miss /= 2;
            self.credit /= 2;
        }
        self.sampled_ref += 1;
        if missed {
            self.sampled_miss += 1;
        }
    }

    /// Applies the effect of a way flush to the replayed ratio. The hits
    /// in this estimator's history were served by lines that a flush (in
    /// proportion to the fraction of LLC ways it covered) just dropped,
    /// so that share of past hits is converted into misses: a full-mask
    /// flush replays ~all-miss, matching a cold cache, and the decay
    /// window re-learns the true post-flush rate within ~one window.
    /// Without this, unsampled sets keep replaying pre-flush hits right
    /// after a reallocation.
    fn flush_decay(&mut self, flushed_ways: u32, total_ways: u32) {
        let hits = self.sampled_ref.saturating_sub(self.sampled_miss);
        let converted = (hits * u64::from(flushed_ways))
            .checked_div(u64::from(total_ways))
            .unwrap_or(0);
        self.sampled_miss = (self.sampled_miss + converted).min(self.sampled_ref);
        // Keep the Bresenham invariant `credit < sampled_ref`.
        self.credit = self.credit.min(self.sampled_ref.saturating_sub(1));
    }

    /// Classifies one access to an unsampled set. Before any sampled set
    /// has been touched there is no signal, so the cold estimator calls
    /// everything a miss — matching a cold cache.
    fn estimate_miss(&mut self) -> bool {
        if self.sampled_ref == 0 {
            return true;
        }
        self.credit += self.sampled_miss;
        if self.credit >= self.sampled_ref {
            self.credit -= self.sampled_ref;
            true
        } else {
            false
        }
    }
}

/// The size of a private (per-core L2) cache on the machines the simulator
/// runs on, to the nearest power of two: 1 MiB on Skylake-SP and later
/// Xeons, 1–2 MiB on current desktop parts. A tag store below it stays
/// resident whatever the access pattern; see [`Hierarchy::llc_hints_pay`].
pub const HOST_PRIVATE_CACHE_BYTES: u64 = 1 << 20;

/// Shape of a [`Hierarchy`].
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Number of cores sharing the LLC.
    pub cores: u32,
    /// Geometry of each private L1 data cache.
    pub l1: CacheGeometry,
    /// Geometry of each private L2.
    pub l2: CacheGeometry,
    /// Geometry of the shared LLC.
    pub llc: CacheGeometry,
    /// Replacement/insertion policy of the shared LLC (private caches
    /// stay LRU, as on real parts).
    pub llc_policy: ReplacementPolicy,
}

impl Default for HierarchyConfig {
    /// The paper's evaluation machine: 18-core Xeon E5-2697 v4 with a
    /// 20-way 45 MiB LLC.
    fn default() -> Self {
        HierarchyConfig {
            cores: 18,
            l1: CacheGeometry::l1d(),
            l2: CacheGeometry::l2(),
            llc: CacheGeometry::xeon_e5_llc(),
            llc_policy: ReplacementPolicy::Lru,
        }
    }
}

impl HierarchyConfig {
    /// The paper's second machine: 8-core Xeon-D with a 12-way 12 MiB LLC.
    pub fn xeon_d() -> Self {
        HierarchyConfig {
            cores: 8,
            l1: CacheGeometry::l1d(),
            l2: CacheGeometry::l2(),
            llc: CacheGeometry::xeon_d_llc(),
            llc_policy: ReplacementPolicy::Lru,
        }
    }
}

/// A multi-core cache hierarchy with CAT fill masks on the LLC.
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    cores: Vec<CoreState>,
    llc: SetAssocCache,
    fidelity: SimFidelity,
}

/// Everything the hierarchy keeps for one core.
#[derive(Debug)]
struct CoreState {
    l1: PrivateCache,
    l2: PrivateCache,
    fill_mask: Cbm,
    counters: CoreCounters,
    sampler: SampleEstimator,
}

impl CoreState {
    /// Drops `line` from this core's private caches. L1 ⊆ L2 (the L2 fill
    /// drops from the L1 whatever the L2 evicts), so a line the L2 did not
    /// hold is in neither: a core without a copy costs one set walk, not two.
    fn back_invalidate(&mut self, line: LineAddr) {
        if self.l2.invalidate(line) {
            self.l1.invalidate(line);
        }
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy; every core starts with a full fill mask
    /// (the unmanaged "shared cache" configuration).
    ///
    /// # Panics
    ///
    /// Panics on zero cores, or on more cores than an LLC line's filler
    /// id can name (32).
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "hierarchy needs at least one core");
        assert!(
            config.cores <= MAX_FILLERS,
            "an LLC line's filler id names at most {MAX_FILLERS} cores"
        );
        Hierarchy {
            cores: (0..config.cores)
                .map(|_| CoreState {
                    l1: PrivateCache::new(config.l1),
                    l2: PrivateCache::new(config.l2),
                    fill_mask: Cbm::full(config.llc.ways),
                    counters: CoreCounters::default(),
                    sampler: SampleEstimator::default(),
                })
                .collect(),
            llc: SetAssocCache::with_policy(config.llc, config.llc_policy),
            fidelity: SimFidelity::Full,
            config,
        }
    }

    /// Selects the LLC simulation fidelity. Meant to be called once,
    /// before any access; switching modes mid-run is not meaningful
    /// (estimator state and tag contents would mix regimes).
    ///
    /// # Panics
    ///
    /// Panics on `Sampled { one_in: 0 }` — a zero stride samples nothing.
    pub fn set_fidelity(&mut self, fidelity: SimFidelity) {
        if let SimFidelity::Sampled { one_in } = fidelity {
            assert!(one_in > 0, "sampling stride must be at least 1");
        }
        self.fidelity = fidelity;
    }

    /// The current LLC simulation fidelity.
    pub fn fidelity(&self) -> SimFidelity {
        self.fidelity
    }

    /// Number of LLC sets actually simulated under the current fidelity:
    /// the sets whose index is a multiple of `one_in`, i.e. ⌈sets/one_in⌉.
    fn simulated_llc_sets(&self) -> u64 {
        let sets = u64::from(self.config.llc.sets);
        match self.fidelity {
            SimFidelity::Full => sets,
            SimFidelity::Sampled { one_in } => sets.div_ceil(u64::from(one_in.max(1))),
        }
    }

    /// Scales a sampled-set line count to approximate the full cache.
    ///
    /// The scale is the exact `sets / simulated_sets` ratio with
    /// round-half-up, not `one_in`: the simulated sets are the indices
    /// divisible by `one_in`, which is ⌈sets/one_in⌉ of them, so
    /// multiplying by `one_in` over-estimates whenever the set count is
    /// not a multiple of the stride (e.g. 16 sets at `one_in = 7`
    /// simulates 3 sets; `one_in` would report 21 lines for 3 resident,
    /// beyond the 16 a one-line-per-set footprint can occupy).
    fn scale_occupancy(&self, count: u64) -> u64 {
        if self.fidelity == SimFidelity::Full {
            return count;
        }
        let sets = u64::from(self.config.llc.sets);
        let simulated = self.simulated_llc_sets();
        (count * sets + simulated / 2)
            .checked_div(simulated)
            .unwrap_or(count)
    }

    /// The hierarchy's shape.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.config.cores
    }

    /// Sets the LLC fill mask for `core` (what programming a CAT class of
    /// service and associating the core with it achieves).
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty or exceeds the LLC's associativity;
    /// Intel CAT rejects both.
    pub fn set_fill_mask(&mut self, core: u32, mask: Cbm) {
        assert!(!mask.is_empty(), "CAT does not allow a zero-way mask");
        assert!(
            mask.difference(Cbm::full(self.config.llc.ways)).is_empty(),
            "mask exceeds LLC associativity"
        );
        // A core beyond the socket has no fill mask to program; ignore
        // it rather than panic (real CAT writes to absent cores no-op).
        if let Some(state) = self.cores.get_mut(core as usize) {
            state.fill_mask = mask;
        }
    }

    /// The current fill mask of `core`.
    ///
    /// Mirrors [`Hierarchy::set_fill_mask`]'s contract for absent cores:
    /// reading a core beyond the socket returns the reset (all-ways)
    /// mask — the unmanaged state such a core would observe — instead of
    /// panicking, so the read and write sides of the CAT surface agree.
    pub fn fill_mask(&self, core: u32) -> Cbm {
        self.cores
            .get(core as usize)
            .map_or_else(|| Cbm::full(self.config.llc.ways), |c| c.fill_mask)
    }

    /// Performs one memory access by `core` at physical address `paddr`:
    /// a [`CoreSlice`] one reference long.
    ///
    /// Updates the Table-2 event counters and returns the level that served
    /// the access.
    pub fn access(&mut self, core: u32, paddr: u64, _kind: AccessKind) -> HitLevel {
        self.slice(core).access(paddr)
    }

    /// Lends `core`'s L1 and L2 tag arrays, counters and estimator to the
    /// caller until the returned slice ends, for a run of references that
    /// all come from `core` (an engine slice). Counts and the estimator
    /// reach [`Hierarchy::counters`] and later references when the slice
    /// is dropped or [finished](CoreSlice::finish); the borrow keeps
    /// anything from reading them earlier.
    ///
    /// # Panics
    ///
    /// Panics if `core` is beyond the socket.
    #[inline]
    pub fn slice(&mut self, core: u32) -> CoreSlice<'_> {
        let (below, rest) = self.cores.split_at_mut(core as usize);
        let Some((own, above)) = rest.split_first_mut() else {
            panic!("core {core} is beyond the socket");
        };
        let CoreState {
            l1,
            l2,
            fill_mask,
            counters,
            sampler,
        } = own;
        CoreSlice {
            l1: l1.hold(),
            l1_ref: 0,
            beyond: Beyond {
                l2: l2.hold(),
                counted: CoreCounters::default(),
                sampler: *sampler,
                home_counters: counters,
                home_sampler: sampler,
                llc: &mut self.llc,
                fill_mask: *fill_mask,
                fidelity: self.fidelity,
                core,
                below,
                above,
            },
        }
    }

    /// Hints the host to fetch the LLC set block an [`Hierarchy::access`]
    /// to `paddr` would walk if it missed L1 and L2 (nothing for a set the
    /// current fidelity does not simulate). Changes nothing simulated — it
    /// cannot, through `&self`.
    #[inline]
    pub fn prefetch_llc(&self, paddr: u64) {
        prefetch_llc(&self.llc, self.fidelity, paddr);
    }

    /// Whether [`Hierarchy::prefetch_llc`] can pay for itself: the LLC
    /// tag store is larger than [`HOST_PRIVATE_CACHE_BYTES`], so a set
    /// walk is likely to wait on the host's memory. Below that the block
    /// is already close and a hint is pure cost (DESIGN.md §14 "Fourth
    /// pass").
    pub fn llc_hints_pay(&self) -> bool {
        self.llc.tag_store_bytes() > HOST_PRIVATE_CACHE_BYTES
    }

    /// Records `n` retired instructions on `core`.
    pub fn record_instructions(&mut self, core: u32, n: u64) {
        self.cores[core as usize].counters.ret_ins += n;
    }

    /// Records `n` unhalted cycles on `core`.
    pub fn record_cycles(&mut self, core: u32, n: u64) {
        self.cores[core as usize].counters.cycles += n;
    }

    /// The monotonic counters of `core`.
    pub fn counters(&self, core: u32) -> CoreCounters {
        self.cores[core as usize].counters
    }

    /// Resets the counters of `core` (not the cache contents).
    pub fn reset_counters(&mut self, core: u32) {
        self.cores[core as usize].counters.reset();
    }

    /// Total LLC lines resident (scaled to the full cache when sampling).
    pub fn llc_occupancy(&self) -> u64 {
        self.scale_occupancy(self.llc.occupancy())
    }

    /// Whether `paddr`'s line is resident in the LLC.
    pub fn llc_probe(&self, paddr: u64) -> bool {
        self.llc.probe(PhysAddr(paddr).line())
    }

    /// Whether `paddr`'s line is resident in `core`'s L1.
    pub fn l1_probe(&self, core: u32, paddr: u64) -> bool {
        self.cores[core as usize].l1.probe(PhysAddr(paddr).line())
    }

    /// Whether `paddr`'s line is resident in `core`'s L2.
    pub fn l2_probe(&self, core: u32, paddr: u64) -> bool {
        self.cores[core as usize].l2.probe(PhysAddr(paddr).line())
    }

    /// Read-only view of the LLC, for occupancy statistics.
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Whether this hierarchy's LLC can tag every line of `memory_bytes`
    /// of physical memory: a line at or past [`SetAssocCache::line_limit`]
    /// would panic on its first access. Check the bytes a
    /// [`crate::FrameAllocator`] is built over before a page mapper hands
    /// its frames to the hierarchy.
    pub fn admits(&self, memory_bytes: u64) -> Result<(), String> {
        let (lines, limit) = (memory_bytes >> LINE_SHIFT, self.llc.line_limit());
        if lines > limit {
            return Err(format!(
                "memory_bytes {memory_bytes} holds {lines} lines; the LLC's tags reach {limit}"
            ));
        }
        Ok(())
    }

    /// LLC lines filled by `core` (CMT-style occupancy attribution,
    /// scaled to the full cache when sampling).
    pub fn llc_occupancy_of_core(&self, core: u32) -> u64 {
        self.scale_occupancy(self.llc.occupancy_of(core))
    }

    /// Invalidates every LLC line in the ways permitted by `mask`,
    /// back-invalidating the private caches (the user-level way flush the
    /// paper's Section 6 calls for after a reallocation). Returns the
    /// number of LLC *lines* dropped, not a way count (scaled to the full
    /// cache when sampling, like the occupancy accessors).
    pub fn flush_mask(&mut self, mask: Cbm) -> u64 {
        let cores = &mut self.cores;
        let dropped = self.llc.drain_lines_in(mask, |gone| {
            for idx in holders(gone, cores.len()) {
                // A filler id only ever names a core of the hierarchy, so
                // the lookup succeeds; `get_mut` keeps the flush path free
                // of panicking indexes.
                if let Some(core) = cores.get_mut(idx) {
                    core.back_invalidate(gone.line);
                }
            }
        });
        self.decay_samplers(mask.ways());
        self.scale_occupancy(dropped)
    }

    /// Flushes every cache in the hierarchy.
    pub fn flush_all(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.l2.flush();
        }
        self.llc.flush();
        self.decay_samplers(self.config.llc.ways);
    }

    /// Tells the sampled-fidelity estimators that `flushed_ways` of the
    /// LLC's ways were just emptied: their hit history describes the
    /// pre-flush cache, and without a decay unsampled sets would keep
    /// replaying stale hits right after the flush.
    fn decay_samplers(&mut self, flushed_ways: u32) {
        if self.fidelity == SimFidelity::Full {
            return;
        }
        let total_ways = self.config.llc.ways;
        for c in &mut self.cores {
            c.sampler.flush_decay(flushed_ways, total_ways);
        }
    }
}

/// One core's run of references — an engine slice — with the core's
/// private caches, counters and estimator held for its length.
///
/// [`Hierarchy::slice`] splits the per-core state at the core: its L1 and
/// L2 tag arrays are borrowed straight into the slice, its counts and its
/// estimator are copied in, and every *other* core stays reachable for
/// the back-invalidations this core's LLC fills cause (a slice is atomic
/// for its core; the other cores change only through its evictions). A
/// reference that stops in the L1 touches the held L1 array and one count;
/// everything past the L1 sits apart, read only by the miss path. Counts
/// and the estimator go home when the slice is dropped — on
/// [`CoreSlice::finish`] or on any early return.
#[derive(Debug)]
pub struct CoreSlice<'h> {
    l1: HeldCache<'h>,
    l1_ref: u64,
    beyond: Beyond<'h>,
}

/// What a reference that misses the L1 reaches: the core's L2, the rest of
/// its counts, its estimator, the LLC and the other cores.
#[derive(Debug)]
struct Beyond<'h> {
    l2: HeldCache<'h>,
    /// What this slice counted past the L1 reference, from zero.
    counted: CoreCounters,
    sampler: SampleEstimator,
    home_counters: &'h mut CoreCounters,
    home_sampler: &'h mut SampleEstimator,
    llc: &'h mut SetAssocCache,
    fill_mask: Cbm,
    fidelity: SimFidelity,
    core: u32,
    /// The cores numbered below and above this one.
    below: &'h mut [CoreState],
    above: &'h mut [CoreState],
}

impl CoreSlice<'_> {
    /// One reference to `paddr`: returns the level that served it.
    #[inline(always)]
    pub fn access(&mut self, paddr: u64) -> HitLevel {
        let line = PhysAddr(paddr).line();
        self.l1_ref += 1;
        if self.l1.access(line) {
            return HitLevel::L1;
        }
        // The miss installed the line in the L1, so the L1 needs no second
        // visit on any path past it.
        self.beyond.miss_l1(self.l1.reborrow(), line)
    }

    /// [`Hierarchy::prefetch_llc`] from inside the slice.
    #[inline]
    pub fn prefetch_llc(&self, paddr: u64) {
        prefetch_llc(self.beyond.llc, self.beyond.fidelity, paddr);
    }

    /// Ends the slice: what it counted goes home, and is returned (the
    /// slice's own counts, not the core's totals; instructions and cycles
    /// are the caller's to record).
    #[inline]
    pub fn finish(self) -> CoreCounters {
        CoreCounters {
            l1_ref: self.l1_ref,
            ..self.beyond.counted
        }
    }
}

impl Drop for CoreSlice<'_> {
    #[inline]
    fn drop(&mut self) {
        let beyond = &mut self.beyond;
        let home = &mut *beyond.home_counters;
        home.l1_ref += self.l1_ref;
        home.l1_miss += beyond.counted.l1_miss;
        home.llc_ref += beyond.counted.llc_ref;
        home.llc_miss += beyond.counted.llc_miss;
        *beyond.home_sampler = beyond.sampler;
    }
}

impl Beyond<'_> {
    /// The rest of [`CoreSlice::access`] after an L1 miss; `l1` is the
    /// slice's L1, for the invalidations below.
    #[inline(always)]
    fn miss_l1(&mut self, mut l1: HeldCache<'_>, line: LineAddr) -> HitLevel {
        self.counted.l1_miss += 1;

        // One L2 set walk: a hit refreshes recency, a miss leaves the L2
        // untouched until the fill below.
        if self.l2.touch(line) {
            return HitLevel::L2;
        }
        self.counted.llc_ref += 1;

        // The LLC set index is computed once, for the sampling test and
        // the access both.
        let llc_set = self.llc.set_index(line);
        if !set_is_sampled(self.fidelity, llc_set) {
            // Unsampled set: classify via the estimator instead of the tag
            // store. No LLC fill, no eviction, no back-invalidation — the
            // private caches still absorb the line so upper-level hit rates
            // stay realistic.
            let missed = self.sampler.estimate_miss();
            if missed {
                self.counted.llc_miss += 1;
            }
            self.fill_l2(&mut l1, line);
            return if missed {
                HitLevel::Dram
            } else {
                HitLevel::Llc
            };
        }

        // Order is load-bearing from here on: LLC access, then the
        // victim's back-invalidation, then the L2 fill. The invalidation
        // may free a way in this core's own L2 set, and the fill must see
        // it — filling first would pick a different L2 victim.
        let sampling = self.fidelity != SimFidelity::Full;
        match self
            .llc
            .access_as_at(llc_set, line, self.fill_mask, self.core)
        {
            AccessOutcome::Hit => {
                if sampling {
                    self.sampler.observe(false);
                }
                self.fill_l2(&mut l1, line);
                HitLevel::Llc
            }
            AccessOutcome::Miss { evicted } => {
                self.counted.llc_miss += 1;
                if sampling {
                    self.sampler.observe(true);
                }
                if let Some(victim) = evicted {
                    self.back_invalidate(&mut l1, victim);
                }
                self.fill_l2(&mut l1, line);
                HitLevel::Dram
            }
        }
    }

    /// Inclusive back-invalidation: drop `victim` from the private caches
    /// of the cores that may hold it (see the module docs for why no other
    /// core can) — this core's through the held arrays, every other
    /// core's through its own caches.
    #[inline(always)]
    fn back_invalidate(&mut self, l1: &mut HeldCache<'_>, victim: Evicted) {
        let (own, line) = (self.core as usize, victim.line);
        let cores = self.below.len() + 1 + self.above.len();
        for idx in holders(victim, cores) {
            if idx == own {
                if self.l2.invalidate(line) {
                    l1.invalidate(line);
                }
            } else if let Some(core) = match idx.checked_sub(own + 1) {
                Some(above) => self.above.get_mut(above),
                None => self.below.get_mut(idx),
            } {
                core.back_invalidate(line);
            }
        }
    }

    /// Fills `line`, which just missed this core's L2, into it, keeping L1
    /// inclusive in L2.
    #[inline(always)]
    fn fill_l2(&mut self, l1: &mut HeldCache<'_>, line: LineAddr) {
        if let Some(victim) = self.l2.fill(line) {
            l1.invalidate(victim);
        }
    }
}

/// Whether LLC set `set` is simulated under `fidelity`.
#[inline(always)]
fn set_is_sampled(fidelity: SimFidelity, set: u32) -> bool {
    match fidelity {
        SimFidelity::Full => true,
        SimFidelity::Sampled { one_in } => set.is_multiple_of(one_in),
    }
}

/// The hint behind both `prefetch_llc`s.
#[inline(always)]
fn prefetch_llc(llc: &SetAssocCache, fidelity: SimFidelity, paddr: u64) {
    let set = llc.set_index(PhysAddr(paddr).line());
    if set_is_sampled(fidelity, set) {
        llc.prefetch_set(set);
    }
}

/// The cores of `cores` that may hold a departing LLC line privately: its
/// filler alone while it is unshared, every core once it is shared.
#[inline(always)]
fn holders(gone: Evicted, cores: usize) -> std::ops::Range<usize> {
    if gone.shared {
        0..cores
    } else {
        let filler = gone.owner as usize;
        filler..filler + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheGeometry::new(4, 2, 64),
            l2: CacheGeometry::new(8, 2, 64),
            llc: CacheGeometry::new(16, 4, 64),
            llc_policy: Default::default(),
        })
    }

    #[test]
    fn memory_past_the_llc_tags_is_refused_where_an_access_would_panic() {
        use crate::paging::{FrameAllocator, FramePolicy};
        // Six sets tag 6 × 65 535 lines, 384 bytes short of 24 MiB, so a
        // 36 MiB pool holds frames whose lines no tag can name.
        let h = Hierarchy::new(HierarchyConfig {
            llc: CacheGeometry::new(6, 20, 64),
            ..tiny().config
        });
        let frames = FrameAllocator::new(36 << 20, FramePolicy::Contiguous, 0);
        let err = h.admits(frames.capacity_bytes()).unwrap_err();
        assert!(err.contains("the LLC's tags reach 393210"), "{err}");
        assert_eq!(h.admits(393_210 << LINE_SHIFT), Ok(()));
        assert!(h.admits((393_210 << LINE_SHIFT) + 64).is_err());
    }

    #[test]
    fn hints_pay_only_for_a_tag_store_beyond_a_host_cache() {
        // The layout in bytes, exactly: 4 a line (a 16-bit tag and a
        // filler·shared·stamp word) and a 16-bit clock and an occupancy
        // word a set. The paper's socket, 3 170 304 (3.0 MiB):
        let paper = Hierarchy::new(HierarchyConfig::default());
        assert_eq!(paper.llc().tag_store_bytes(), 36_864 * (20 * 4 + 6));
        assert!(paper.llc_hints_pay());
        // The Xeon-D's 12 MiB 12-way LLC, 884 736 (864 KiB): under the
        // gate, so it runs the plain loop.
        let xeon_d = Hierarchy::new(HierarchyConfig::xeon_d());
        assert_eq!(xeon_d.llc().tag_store_bytes(), 16_384 * (12 * 4 + 6));
        assert!(!xeon_d.llc_hints_pay());
        // A fleet host, 143 360 (140 KiB):
        let fleet = Hierarchy::new(HierarchyConfig {
            llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 16),
            ..HierarchyConfig::default()
        });
        assert_eq!(fleet.llc().tag_store_bytes(), 2_048 * (16 * 4 + 6));
        assert!(!fleet.llc_hints_pay());
        // Every set can be hinted, the last included.
        let h = tiny();
        for line in 0..64u64 {
            h.prefetch_llc(line << crate::address::LINE_SHIFT);
        }
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = tiny();
        assert_eq!(h.access(0, 0x1000, AccessKind::Load), HitLevel::Dram);
        assert_eq!(h.access(0, 0x1000, AccessKind::Load), HitLevel::L1);
        let c = h.counters(0);
        assert_eq!(c.l1_ref, 2);
        assert_eq!(c.l1_miss, 1);
        assert_eq!(c.llc_ref, 1);
        assert_eq!(c.llc_miss, 1);
    }

    #[test]
    fn cross_core_sharing_hits_in_llc() {
        let mut h = tiny();
        h.access(0, 0x2000, AccessKind::Load);
        // Core 1 has never seen the line; its L1/L2 miss but the LLC hits.
        assert_eq!(h.access(1, 0x2000, AccessKind::Load), HitLevel::Llc);
        assert_eq!(h.counters(1).llc_miss, 0);
    }

    #[test]
    fn llc_eviction_back_invalidates_private_caches() {
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheGeometry::new(4, 2, 64),
            l2: CacheGeometry::new(8, 2, 64),
            llc: CacheGeometry::new(4, 1, 64), // 1-way LLC: easy to evict
            llc_policy: Default::default(),
        });
        h.access(0, 0, AccessKind::Load);
        assert!(h.l1_probe(0, 0));
        // Same LLC set (4 sets, line 4*64=256 bytes later), evicts line 0.
        h.access(1, 4 * 64, AccessKind::Load);
        assert!(!h.llc_probe(0));
        assert!(!h.l1_probe(0, 0), "inclusive LLC must back-invalidate L1");
        assert!(!h.l2_probe(0, 0), "inclusive LLC must back-invalidate L2");
    }

    #[test]
    fn an_llc_eviction_reaches_the_evicting_cores_own_l1_inside_a_slice() {
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheGeometry::new(4, 2, 64),
            l2: CacheGeometry::new(8, 2, 64),
            llc: CacheGeometry::new(4, 1, 64), // 1-way LLC: easy to evict
            llc_policy: Default::default(),
        });
        let mut slice = h.slice(1);
        slice.access(0);
        // Same LLC set: evicts line 0, which only this core filled or hit.
        assert_eq!(slice.access(4 * 64), HitLevel::Dram);
        assert_eq!(slice.access(0), HitLevel::Dram, "the held L1 kept line 0");
        drop(slice);
        assert!(!h.l1_probe(1, 4 * 64) && !h.l2_probe(1, 4 * 64));
        assert!(h.l1_probe(1, 0));
    }

    #[test]
    fn an_llc_victim_frees_its_l2_way_before_the_fill() {
        // One set everywhere. The L2 and the LLC disagree on which line is
        // least recently used, because an L2 hit does not reach the LLC.
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 1,
            l1: CacheGeometry::new(1, 1, 64),
            l2: CacheGeometry::new(1, 2, 64),
            llc: CacheGeometry::new(1, 2, 64),
            llc_policy: Default::default(),
        });
        let (a, b, c) = (0, 64, 128);
        h.access(0, a, AccessKind::Load);
        h.access(0, b, AccessKind::Load);
        assert_eq!(h.access(0, a, AccessKind::Load), HitLevel::L2);
        // LLC victim: a. L2 LRU: b. Invalidating a first leaves a free way
        // for c, so b stays; filling first would have evicted b.
        assert_eq!(h.access(0, c, AccessKind::Load), HitLevel::Dram);
        assert!(!h.l2_probe(0, a));
        assert!(h.l2_probe(0, b), "the fill took the way the victim freed");
        assert_eq!(h.access(0, b, AccessKind::Load), HitLevel::L2);
    }

    #[test]
    fn llc_eviction_reaches_a_sharer_that_only_ever_hit() {
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 3,
            l1: CacheGeometry::new(4, 2, 64),
            l2: CacheGeometry::new(8, 2, 64),
            llc: CacheGeometry::new(4, 1, 64),
            llc_policy: Default::default(),
        });
        h.access(0, 0, AccessKind::Load); // core 0 fills the LLC line
        assert_eq!(h.access(1, 0, AccessKind::Load), HitLevel::Llc); // core 1 shares by hit
        assert!(h.l1_probe(0, 0) && h.l1_probe(1, 0));
        h.access(2, 4 * 64, AccessKind::Load); // same 1-way LLC set: evicts line 0
        for core in 0..2 {
            assert!(!h.l1_probe(core, 0), "core {core} kept its L1 copy");
            assert!(!h.l2_probe(core, 0), "core {core} kept its L2 copy");
        }
        assert!(h.l1_probe(2, 4 * 64));
    }

    #[test]
    #[should_panic(expected = "filler id names at most 32 cores")]
    fn more_cores_than_the_sharer_mask_rejected() {
        let _ = Hierarchy::new(HierarchyConfig {
            cores: 33,
            ..HierarchyConfig::default()
        });
    }

    #[test]
    fn as_many_cores_as_the_sharer_mask_accepted() {
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 32,
            ..HierarchyConfig::default()
        });
        // The sharer state a line keeps is its filler id and a shared bit;
        // the top core fills the whole id: an LLC eviction still reaches
        // it and the core that shared the line, and the line is
        // attributed to the filler until it leaves.
        h.set_fill_mask(0, Cbm::from_way_range(0, 1));
        h.access(31, 0, AccessKind::Load);
        h.access(0, 0, AccessKind::Load);
        assert_eq!(h.llc_occupancy_of_core(31), 1);
        let sets = u64::from(h.config().llc.sets);
        h.access(0, sets * 64, AccessKind::Load);
        assert!(!h.l1_probe(31, 0) && !h.l1_probe(0, 0));
        assert_eq!(h.llc_occupancy_of_core(31), 0);
    }

    #[test]
    fn fill_masks_partition_the_llc() {
        let mut h = tiny();
        h.set_fill_mask(0, Cbm::from_way_range(0, 2));
        h.set_fill_mask(1, Cbm::from_way_range(2, 2));
        for i in 0..200u64 {
            h.access(0, i * 64, AccessKind::Load);
            h.access(1, (1 << 20) + i * 64, AccessKind::Load);
        }
        let low = h.llc.occupancy_in(Cbm::from_way_range(0, 2));
        let high = h.llc.occupancy_in(Cbm::from_way_range(2, 2));
        assert!(low <= 32, "partition 0 overflowed: {low}");
        assert!(high <= 32, "partition 1 overflowed: {high}");
    }

    #[test]
    #[should_panic(expected = "zero-way")]
    fn empty_mask_rejected() {
        let mut h = tiny();
        h.set_fill_mask(0, Cbm(0));
    }

    #[test]
    #[should_panic(expected = "exceeds LLC associativity")]
    fn oversized_mask_rejected() {
        let mut h = tiny();
        h.set_fill_mask(0, Cbm::from_way_range(0, 5));
    }

    #[test]
    fn instruction_and_cycle_recording() {
        let mut h = tiny();
        h.record_instructions(1, 100);
        h.record_cycles(1, 250);
        assert_eq!(h.counters(1).ret_ins, 100);
        assert_eq!(h.counters(1).cycles, 250);
        h.reset_counters(1);
        assert_eq!(h.counters(1).ret_ins, 0);
    }

    #[test]
    fn l2_hit_path_counts_no_llc_ref() {
        let mut h = Hierarchy::new(HierarchyConfig {
            cores: 1,
            l1: CacheGeometry::new(1, 1, 64), // 1-line L1: easy to evict
            l2: CacheGeometry::new(8, 2, 64),
            llc: CacheGeometry::new(16, 4, 64),
            llc_policy: Default::default(),
        });
        h.access(0, 0, AccessKind::Load);
        h.access(0, 64, AccessKind::Load); // evicts line 0 from the L1
        let before = h.counters(0).llc_ref;
        assert_eq!(h.access(0, 0, AccessKind::Load), HitLevel::L2);
        assert_eq!(h.counters(0).llc_ref, before);
    }

    #[test]
    fn occupancy_attribution_per_core() {
        let mut h = tiny();
        for i in 0..8u64 {
            h.access(0, i * 64, AccessKind::Load);
        }
        h.access(1, 1 << 20, AccessKind::Load);
        assert_eq!(h.llc_occupancy_of_core(0), 8);
        assert_eq!(h.llc_occupancy_of_core(1), 1);
    }

    #[test]
    fn flush_mask_back_invalidates_private_caches() {
        let mut h = tiny();
        h.set_fill_mask(0, Cbm::from_way_range(0, 2));
        h.access(0, 0x40, AccessKind::Load);
        assert!(h.l1_probe(0, 0x40));
        let dropped = h.flush_mask(Cbm::from_way_range(0, 2));
        assert_eq!(dropped, 1);
        assert!(!h.llc_probe(0x40));
        assert!(!h.l1_probe(0, 0x40), "flush must reach the L1 (inclusive)");
        assert!(!h.l2_probe(0, 0x40));
    }

    #[test]
    fn sampled_one_in_one_matches_full_fidelity() {
        // Stride 1 samples every set: counters must be identical to Full.
        let mut full = tiny();
        let mut sampled = tiny();
        sampled.set_fidelity(SimFidelity::Sampled { one_in: 1 });
        for i in 0..500u64 {
            let addr = (i % 37) * 64 * 3;
            full.access(0, addr, AccessKind::Load);
            sampled.access(0, addr, AccessKind::Load);
        }
        assert_eq!(full.counters(0), sampled.counters(0));
        assert_eq!(full.llc_occupancy(), sampled.llc_occupancy());
    }

    #[test]
    fn sampled_mode_counts_every_llc_reference() {
        // llc_ref covers estimated accesses too; rates need no rescaling.
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        for i in 0..64u64 {
            h.access(0, i * 64, AccessKind::Load);
        }
        let c = h.counters(0);
        assert_eq!(c.llc_ref, 64, "every reference is counted");
        assert_eq!(c.llc_miss, 64, "cold cache: all misses, real or estimated");
    }

    #[test]
    fn sampled_occupancy_scales_to_the_full_cache() {
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        // Touch one line per LLC set (16 sets, 64-line stride apart).
        for i in 0..16u64 {
            h.access(0, i * 64, AccessKind::Load);
        }
        // Only 4 of 16 sets are simulated; scaling restores the magnitude.
        assert_eq!(h.llc_occupancy(), 16);
        assert_eq!(h.llc_occupancy_of_core(0), 16);
    }

    #[test]
    fn sampled_occupancy_is_exact_for_non_divisible_set_counts() {
        // 16 sets at stride 7 simulate sets {0, 7, 14} — three sets, not
        // 16/7. The scale must be the exact 16/3 ratio; the old `* one_in`
        // scale reported 21 lines for a one-line-per-set footprint that
        // can only occupy 16.
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 7 });
        for set in [0u64, 7, 14] {
            h.access(0, set * 64, AccessKind::Load);
        }
        assert_eq!(h.llc_occupancy(), 16);
        assert_eq!(h.llc_occupancy_of_core(0), 16);
        let lines = 16 * 4; // sets * ways
        assert!(
            h.llc_occupancy() <= lines,
            "scaled occupancy must never exceed the cache capacity"
        );
    }

    #[test]
    fn sampled_flush_drop_count_is_exact_for_non_divisible_strides() {
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 7 });
        for set in [0u64, 7, 14] {
            h.access(0, set * 64, AccessKind::Load);
        }
        // Three resident lines dropped, scaled by the exact 16/3 ratio.
        let dropped = h.flush_mask(Cbm::full(4));
        assert_eq!(dropped, 16);
        assert_eq!(h.llc_occupancy(), 0);
    }

    #[test]
    fn sampled_flush_resets_the_estimator_hit_history() {
        // Warm both fidelities on the same sampled-set pattern, flush the
        // whole cache, then touch fresh *unsampled* sets: full fidelity
        // misses every one (the sets are cold), and the sampled estimator
        // must replay the same all-miss regime instead of the pre-flush
        // hit ratio it learned.
        let mut full = tiny();
        let mut sampled = tiny();
        sampled.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        for _ in 0..20 {
            for i in 0..8u64 {
                full.access(0, i * 4 * 64, AccessKind::Load);
                sampled.access(0, i * 4 * 64, AccessKind::Load);
            }
        }
        full.flush_mask(Cbm::full(4));
        sampled.flush_mask(Cbm::full(4));
        let full_warm = full.counters(0);
        let sampled_warm = sampled.counters(0);
        // Fresh lines in unsampled sets {1, 5, 9, 13}.
        for i in 0..8u64 {
            full.access(0, (i * 4 + 1) * 64, AccessKind::Load);
            sampled.access(0, (i * 4 + 1) * 64, AccessKind::Load);
        }
        let full_tail = full.counters(0).llc_miss - full_warm.llc_miss;
        let sampled_tail = sampled.counters(0).llc_miss - sampled_warm.llc_miss;
        assert_eq!(full_tail, 8, "cold sets after a full flush all miss");
        assert_eq!(
            sampled_tail, full_tail,
            "estimator must not replay pre-flush hits on unsampled sets"
        );
    }

    #[test]
    fn flush_all_resets_the_estimator_hit_history_and_the_occupancy() {
        // Same shape as the flush_mask regression above: flush_all used to
        // empty the tag stores but leave the estimators replaying the
        // pre-flush hit ratio on unsampled sets.
        let mut full = tiny();
        let mut sampled = tiny();
        sampled.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        for _ in 0..20 {
            for i in 0..8u64 {
                full.access(0, i * 4 * 64, AccessKind::Load);
                sampled.access(0, i * 4 * 64, AccessKind::Load);
            }
        }
        assert!(sampled.llc_occupancy_of_core(0) > 0);
        full.flush_all();
        sampled.flush_all();
        assert_eq!(sampled.llc_occupancy_of_core(0), 0);
        assert_eq!(full.llc_occupancy_of_core(0), 0);
        let full_warm = full.counters(0);
        let sampled_warm = sampled.counters(0);
        for i in 0..8u64 {
            full.access(0, (i * 4 + 1) * 64, AccessKind::Load);
            sampled.access(0, (i * 4 + 1) * 64, AccessKind::Load);
        }
        let full_tail = full.counters(0).llc_miss - full_warm.llc_miss;
        let sampled_tail = sampled.counters(0).llc_miss - sampled_warm.llc_miss;
        assert_eq!(full_tail, 8, "cold sets after flush_all all miss");
        assert_eq!(
            sampled_tail, full_tail,
            "estimator must not replay pre-flush hits after flush_all"
        );
    }

    #[test]
    fn partial_flush_decays_the_estimator_proportionally() {
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        for _ in 0..20 {
            for i in 0..8u64 {
                h.access(0, i * 4 * 64, AccessKind::Load);
            }
        }
        let warm = h.counters(0);
        // Flush half the ways: half the learned hits become misses.
        h.flush_mask(Cbm::from_way_range(0, 2));
        for i in 0..8u64 {
            h.access(0, (i * 4 + 1) * 64, AccessKind::Load);
        }
        let tail_ref = h.counters(0).llc_ref - warm.llc_ref;
        let tail_miss = h.counters(0).llc_miss - warm.llc_miss;
        let rate = tail_miss as f64 / tail_ref as f64;
        assert!(
            (0.25..=0.85).contains(&rate),
            "half-capacity flush should replay a mixed regime, got {rate}"
        );
    }

    #[test]
    fn fill_mask_of_absent_core_reads_the_default() {
        let mut h = tiny();
        // The write side no-ops on absent cores; the read side answers
        // with the reset all-ways mask instead of panicking.
        h.set_fill_mask(99, Cbm::from_way_range(0, 2));
        assert_eq!(h.fill_mask(99), Cbm::full(4));
        h.set_fill_mask(0, Cbm::from_way_range(0, 2));
        assert_eq!(h.fill_mask(0), Cbm::from_way_range(0, 2));
    }

    #[test]
    fn sampled_estimator_tracks_the_sampled_miss_rate() {
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 4 });
        // Warm the sampled sets: lines `i * 4` map to LLC sets
        // {0, 4, 8, 12} — all sampled — two lines per 4-way set, so after
        // the cold pass they hit. The tiny 2-way L1/L2 thrash on the same
        // pattern, so accesses keep reaching the LLC.
        for _ in 0..20 {
            for i in 0..8u64 {
                h.access(0, i * 4 * 64, AccessKind::Load);
            }
        }
        let warm = h.counters(0);
        let warm_rate = warm.llc_miss as f64 / warm.llc_ref as f64;
        assert!(
            warm_rate < 0.25,
            "sampled sets should mostly hit once warm, got {warm_rate}"
        );
        // Now touch only *unsampled* sets ({1, 5, 9, 13}): the estimator
        // replays the observed mostly-hit ratio instead of guessing miss.
        for _ in 0..10 {
            for i in 0..8u64 {
                h.access(0, (i * 4 + 1) * 64, AccessKind::Load);
            }
        }
        let c = h.counters(0);
        let tail_ref = c.llc_ref - warm.llc_ref;
        let tail_miss = c.llc_miss - warm.llc_miss;
        assert!(tail_ref > 0, "unsampled pattern must reach the LLC");
        let tail_rate = tail_miss as f64 / tail_ref as f64;
        assert!(
            tail_rate < 0.3,
            "estimator should replay the sampled hit rate, got {tail_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn zero_sampling_stride_rejected() {
        let mut h = tiny();
        h.set_fidelity(SimFidelity::Sampled { one_in: 0 });
    }

    #[test]
    fn flush_all_empties_hierarchy() {
        let mut h = tiny();
        for i in 0..20u64 {
            h.access(0, i * 64, AccessKind::Store);
        }
        h.flush_all();
        assert_eq!(h.llc_occupancy(), 0);
        assert_eq!(h.access(0, 0, AccessKind::Load), HitLevel::Dram);
    }
}
