//! The simulated machine as PAPER.md §2 states it, written for clarity
//! and not for speed: the model `machine_differential.rs` holds
//! `Hierarchy` and `PageMapper` to. Its LLC alone is the oracle of
//! `SetAssocCache`, its page table that of `PageMapper`.
//!
//! An inclusive, set-associative LLC partitioned by CAT: a core fills only
//! into its fill mask's ways and hits in any way. Each core's L1 stays
//! inside its L2, both inside the LLC. A line reaches a private cache only
//! through the LLC, by a fill or a hit, which makes the core a sharer;
//! when the line leaves the LLC, by eviction or way flush, it leaves every
//! sharer's private caches.
//!
//! Nothing is packed. An LLC set is a `Vec` of ways, made on first touch;
//! a way holds a whole line with its filler, sharers and last use on one
//! 64-bit clock. A private cache is a list of lines a set, most recently
//! used first. Translation is an ordered map from virtual page to page
//! base, drawn on first touch from a `FrameAllocator` built like the
//! machine's; Random and BIP draw from a copy of `SetAssocCache`'s
//! xorshift64* stream.

#![allow(
    dead_code,
    reason = "each test that includes the model uses a part of it"
)]

use std::collections::{BTreeMap, BTreeSet};

use llc_sim::set::Evicted;
use llc_sim::{
    AccessOutcome, CacheGeometry, CoreCounters, FrameAllocator, HierarchyConfig, HitLevel,
    LineAddr, PageSize, PhysAddr, ReplacementPolicy, VirtAddr, WayMask,
};
use smallrng::SmallRng;

/// A line resident in the LLC.
#[derive(Debug, Clone)]
struct Line {
    line: LineAddr,
    /// The core whose miss brought it in.
    filler: u32,
    /// Every core that fetched it from the LLC, the filler included.
    sharers: BTreeSet<u32>,
    /// The clock at its fill or, under a policy that promotes on a hit, at
    /// its last hit; 0 for a BIP fill at the LRU position.
    last_use: u64,
}

impl Line {
    /// The line as the machine reports it, its sharers as one shared bit.
    fn reported(&self) -> Evicted {
        Evicted {
            line: self.line,
            owner: self.filler,
            shared: self.sharers.iter().any(|&core| core != self.filler),
        }
    }
}

/// A core's L1 or L2: the lines of each set, most recently used first.
struct Private {
    sets: Vec<Vec<LineAddr>>,
    ways: usize,
}

impl Private {
    fn new(geometry: CacheGeometry) -> Self {
        Private {
            sets: vec![Vec::new(); geometry.sets as usize],
            ways: geometry.ways as usize,
        }
    }

    fn set(&mut self, line: LineAddr) -> &mut Vec<LineAddr> {
        let sets = self.sets.len() as u64;
        &mut self.sets[(line.0 % sets) as usize]
    }

    fn holds(&self, line: LineAddr) -> bool {
        self.sets[(line.0 % self.sets.len() as u64) as usize].contains(&line)
    }

    /// Makes `line` the most recently used; says whether it was held.
    fn touch(&mut self, line: LineAddr) -> bool {
        let set = self.set(line);
        let held = set.contains(&line);
        if held {
            set.retain(|&other| other != line);
            set.insert(0, line);
        }
        held
    }

    /// Puts `line`, which is not held, in front; returns the least
    /// recently used line if the set had no room for both.
    fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        let ways = self.ways;
        let set = self.set(line);
        set.insert(0, line);
        let out = set.get(ways).copied();
        set.truncate(ways);
        out
    }

    fn invalidate(&mut self, line: LineAddr) {
        self.set(line).retain(|&other| other != line);
    }
}

struct Core {
    l1: Private,
    l2: Private,
    mask: WayMask,
    counters: CoreCounters,
}

/// An LLC shared by up to 32 requestors.
pub struct Llc {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    /// The sets touched so far, by index; a slot a way.
    sets: BTreeMap<u32, Vec<Option<Line>>>,
    clock: u64,
    draw_state: u64,
}

/// The whole machine: cores, LLC and one address space.
pub struct Machine {
    cores: Vec<Core>,
    llc: Llc,
    page: PageSize,
    /// Virtual page number to the base of its page.
    pages: BTreeMap<u64, PhysAddr>,
    frames: FrameAllocator,
    placement: SmallRng,
}

impl Machine {
    /// An empty machine of `config`'s shape, every core filling any way,
    /// mapping pages of `page` from a pool and its placement stream.
    pub fn new(config: HierarchyConfig, page: PageSize, pool: (FrameAllocator, SmallRng)) -> Self {
        let (frames, placement) = pool;
        let core = || Core {
            l1: Private::new(config.l1),
            l2: Private::new(config.l2),
            mask: WayMask::all(config.llc.ways),
            counters: CoreCounters::default(),
        };
        Machine {
            cores: (0..config.cores).map(|_| core()).collect(),
            llc: Llc::new(config.llc, config.llc_policy),
            page,
            pages: BTreeMap::new(),
            frames,
            placement,
        }
    }

    /// The physical address of `vaddr`, mapping its page on first touch;
    /// `None` once the pool has no frame left.
    pub fn translate(&mut self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let shift = self.page.shift();
        let vpage = vaddr.page_number(shift);
        if !self.pages.contains_key(&vpage) {
            let (frames, rng) = (&mut self.frames, &mut self.placement);
            let base = frames.allocate_colored_with(self.page, None, rng)?;
            self.pages.insert(vpage, base);
        }
        Some(PhysAddr(self.pages[&vpage].0 + vaddr.page_offset(shift)))
    }

    /// Unmaps every page and gives its frame back, in page order.
    pub fn unmap_all(&mut self) {
        for base in std::mem::take(&mut self.pages).into_values() {
            self.frames.free(base, self.page);
        }
    }

    /// Pages mapped, and bytes of the pool in use.
    pub fn footprint(&self) -> (usize, u64) {
        (self.pages.len(), self.frames.used_bytes())
    }

    pub fn set_fill_mask(&mut self, core: u32, mask: WayMask) {
        self.cores[core as usize].mask = mask;
    }

    /// One reference by `core` to `paddr`: the level that served it, and
    /// the line its LLC fill evicted, as the machine reports it.
    pub fn access(&mut self, core: u32, paddr: PhysAddr) -> (HitLevel, Option<Evicted>) {
        let line = paddr.line();
        let own = &mut self.cores[core as usize];
        own.counters.l1_ref += 1;
        if own.l1.touch(line) {
            return (HitLevel::L1, None);
        }
        // The L1 takes the line at once; what falls out of it is still in
        // the L2.
        own.l1.fill(line);
        own.counters.l1_miss += 1;
        if own.l2.touch(line) {
            return (HitLevel::L2, None);
        }
        own.counters.llc_ref += 1;
        let (hit, victim) = self.llc.access(line, own.mask, core);
        if let Some(gone) = &victim {
            self.leave_private_caches(gone);
        }
        // The L2 fill comes after the victim left: it may take the
        // victim's way instead of evicting a line.
        let own = &mut self.cores[core as usize];
        if let Some(out) = own.l2.fill(line) {
            own.l1.invalidate(out);
        }
        if hit {
            return (HitLevel::Llc, None);
        }
        own.counters.llc_miss += 1;
        (HitLevel::Dram, victim.map(|gone| gone.reported()))
    }

    /// Inclusion: a line that left the LLC leaves every sharer's L1 and L2.
    fn leave_private_caches(&mut self, gone: &Line) {
        for &core in &gone.sharers {
            let sharer = &mut self.cores[core as usize];
            sharer.l1.invalidate(gone.line);
            sharer.l2.invalidate(gone.line);
        }
    }

    /// Empties the ways `mask` permits in every set; returns how many lines
    /// left.
    pub fn flush_mask(&mut self, mask: WayMask) -> u64 {
        let gone = self.llc.take_ways(mask);
        for line in &gone {
            self.leave_private_caches(line);
        }
        gone.len() as u64
    }

    pub fn counters(&self, core: u32) -> CoreCounters {
        self.cores[core as usize].counters
    }

    /// Whether `line` is in the LLC, and in each core's L1 and L2.
    pub fn residency(&self, line: LineAddr) -> (bool, Vec<(bool, bool)>) {
        let private = |core: &Core| (core.l1.holds(line), core.l2.holds(line));
        let cores = self.cores.iter().map(private);
        (self.llc.probe(line), cores.collect())
    }

    /// The occupied ways of LLC set `index`, as the machine reports them.
    pub fn llc_set(&self, index: u32) -> Vec<(u32, Evicted)> {
        self.llc.set(index)
    }

    /// The LLC sets touched so far.
    pub fn touched_sets(&self) -> Vec<u32> {
        self.llc.sets.keys().copied().collect()
    }
}

impl Llc {
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        Llc {
            geometry,
            policy,
            sets: BTreeMap::new(),
            clock: 0,
            draw_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn index(&self, line: LineAddr) -> u32 {
        (line.0 % u64::from(self.geometry.sets)) as u32
    }

    /// `SetAssocCache::access_as`: `core` hits `line` in any way or fills
    /// it into a way `mask` permits.
    pub fn access_as(&mut self, line: LineAddr, mask: WayMask, core: u32) -> AccessOutcome {
        match self.access(line, mask, core) {
            (true, _) => AccessOutcome::Hit,
            (false, gone) => AccessOutcome::Miss {
                evicted: gone.map(|gone| gone.reported()),
            },
        }
    }

    /// A hit, or a fill and what it evicted.
    fn access(&mut self, line: LineAddr, mask: WayMask, core: u32) -> (bool, Option<Line>) {
        self.clock += 1;
        let now = self.clock;
        let draw = self.next_draw();
        let (policy, ways, index) = (self.policy, self.geometry.ways, self.index(line));
        let empty = || vec![None; ways as usize];
        let set = self.sets.entry(index).or_insert_with(empty);
        if let Some(hit) = set.iter_mut().flatten().find(|held| held.line == line) {
            if policy.promotes_on_hit() {
                hit.last_use = now;
            }
            hit.sharers.insert(core);
            return (true, None);
        }
        let allowed = |way: &usize| mask.contains(*way as u32);
        let permitted: Vec<usize> = (0..set.len()).filter(allowed).collect();
        let way = match permitted.iter().find(|&&way| set[way].is_none()) {
            Some(&free) => free,
            None if policy == ReplacementPolicy::Random => {
                permitted[(draw % permitted.len() as u64) as usize]
            }
            // The others evict the oldest last use, the lowest way of a tie.
            None => *permitted
                .iter()
                .min_by_key(|&&way| set[way].as_ref().map(|held| held.last_use))
                .expect("a CAT mask permits a way"),
        };
        let one_in = match policy {
            ReplacementPolicy::Bip { mru_one_in } => u64::from(mru_one_in.max(1)),
            _ => 1,
        };
        // BIP inserts at the LRU position but for one fill in `one_in`.
        let last_use = if draw.is_multiple_of(one_in) { now } else { 0 };
        let sharers = BTreeSet::from([core]);
        let filled = Line {
            line,
            filler: core,
            sharers,
            last_use,
        };
        (false, set[way].replace(filled))
    }

    /// `SetAssocCache`'s draw for one LLC access: xorshift64*, advanced
    /// only by the policies that read it.
    fn next_draw(&mut self) -> u64 {
        if !self.policy.uses_draw() {
            return 0;
        }
        let mut x = self.draw_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.draw_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Empties the ways `mask` permits, set by set; returns what left.
    fn take_ways(&mut self, mask: WayMask) -> Vec<Line> {
        let mut gone = Vec::new();
        for set in self.sets.values_mut() {
            for (way, slot) in (0..).zip(set.iter_mut()) {
                if mask.contains(way) {
                    gone.extend(slot.take());
                }
            }
        }
        gone
    }

    /// `SetAssocCache::drain_lines_in`: what left, as the cache reports it.
    pub fn drain(&mut self, mask: WayMask) -> Vec<Evicted> {
        self.take_ways(mask).iter().map(Line::reported).collect()
    }

    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let index = self.index(line);
        let mut slots = self.sets.get_mut(&index).into_iter().flatten();
        let held = slots.find(|slot| slot.as_ref().is_some_and(|held| held.line == line));
        held.and_then(Option::take).is_some()
    }

    pub fn probe(&self, line: LineAddr) -> bool {
        let set = self.sets.get(&self.index(line)).into_iter().flatten();
        set.flatten().any(|held| held.line == line)
    }

    /// The occupied ways of set `index`, as the cache reports them.
    pub fn set(&self, index: u32) -> Vec<(u32, Evicted)> {
        let mut held = Vec::new();
        for (way, slot) in (0..).zip(self.sets.get(&index).into_iter().flatten()) {
            held.extend(slot.as_ref().map(|line| (way, line.reported())));
        }
        held
    }
}
