//! The whole simulated machine against its reference model,
//! `support/reference.rs`: `Hierarchy` fed by `PageMapper` — a 4-byte LLC
//! line with a 9-bit per-set stamp and one shared bit, shifting tag arrays
//! for L1 and L2, a radix page table — and the same machine in whole lines,
//! exact sharer sets, one 64-bit clock, recency lists and a `BTreeMap`.
//!
//! A program maps pages until each of one to three hot LLC sets has about
//! twice as many lines as ways, then mixes references one at a time
//! (`Hierarchy::access`) and as runs of one core (`Hierarchy::slice`),
//! overlapping fill-mask changes and `flush_mask`. Short programs also
//! reach far pages (the think page at `1 << 44`, the top of the address
//! space, anywhere) and unmap the whole space, then map the hot sets again
//! from the freed frames. Long programs run until every touched LLC set
//! has re-ranked its stamps at least three times.
//!
//! After every reference through `access` the two agree on the physical
//! address (with the pages mapped and the pool's bytes used), the level
//! that hit, the LLC victim with its filler and shared bit, the referenced
//! LLC set way by way, where the line and the victim are in every core's
//! L1 and L2 (so every back-invalidated core), and every core's counters.
//! A slice is compared on each level, on the rest when it ends, and on
//! what `finish` counted. After a flush, an unmap and at the end, a sweep
//! compares every touched LLC set, every line the program reached, each
//! core's LLC occupancy, and the line past each touched set's 16-bit tags.
//!
//! The machines: the paper's socket (18 cores, a 36 864 × 20 LLC), a fleet
//! host (12 cores, 2 048 × 16), the Xeon-D (8 cores, 16 384 × 12) and
//! small machines whose set counts are not powers of two, with 1-, 2-, 4-,
//! 5- and 8-way private caches, one with 32 cores. One test a replacement policy; its cases
//! cycle through the machines, short and long, at 4 KiB and 2 MiB pages.

#[path = "support/reference.rs"]
mod reference;

use std::collections::{BTreeMap, BTreeSet};
use std::iter::once;

use llc_sim::set::{Evicted, MAX_STAMP};
use llc_sim::{
    AccessKind, CacheGeometry, Cbm, CoreCounters, FrameAllocator, FramePolicy, Hierarchy,
    HierarchyConfig, HitLevel, LineAddr, PageMapper, PageSize, PhysAddr, ReplacementPolicy,
    VirtAddr, LINE_SHIFT,
};
use prop_lite::Gen;
use reference::Machine;
use smallrng::SmallRng;

/// The machine under test — the hierarchy and the address space that
/// feeds it — and its model, fed one program.
struct Rig {
    h: Hierarchy,
    mapper: PageMapper,
    frames: FrameAllocator,
    placement: SmallRng,
    model: Machine,
    /// Every line the program referenced, for the sweeps.
    lines: BTreeSet<LineAddr>,
    /// References that reached each LLC set.
    llc_refs: BTreeMap<u32, u64>,
}

impl Rig {
    /// Translates `vaddr` on both sides.
    fn translate(&mut self, vaddr: u64) -> Option<PhysAddr> {
        let (frames, placement) = (&mut self.frames, &mut self.placement);
        let got = self
            .mapper
            .translate_with(VirtAddr(vaddr), frames, placement);
        assert_eq!(got, self.model.translate(VirtAddr(vaddr)), "{vaddr:#x}");
        self.agrees_on_pages();
        got
    }

    fn agrees_on_pages(&self) {
        let got = (self.mapper.mapped_pages(), self.frames.used_bytes());
        assert_eq!(got, self.model.footprint(), "pages mapped, bytes used");
    }

    fn set_of(&self, line: LineAddr) -> u32 {
        (line.0 % u64::from(self.h.config().llc.sets)) as u32
    }

    fn reached(&mut self, line: LineAddr, level: HitLevel) {
        self.lines.insert(line);
        if matches!(level, HitLevel::Llc | HitLevel::Dram) {
            *self.llc_refs.entry(self.set_of(line)).or_default() += 1;
        }
    }

    /// One reference by `core`, compared in full.
    fn access(&mut self, core: u32, vaddr: u64) {
        let Some(paddr) = self.translate(vaddr) else {
            return;
        };
        let (line, set) = (paddr.line(), self.set_of(paddr.line()));
        let before: Vec<(u32, Evicted)> = self.h.llc().set(set).residents().collect();
        let level = self.h.access(core, paddr.0, AccessKind::Load);
        let (want, want_victim) = self.model.access(core, paddr);
        assert_eq!(level, want, "level of core {core}'s reference to {line:?}");
        let after = self.check_set(set);
        let mut victim = before.into_iter().map(|(_, gone)| gone);
        let victim = victim.find(|gone| after.iter().all(|(_, held)| held.line != gone.line));
        assert_eq!(victim, want_victim, "victim of {line:?}");
        self.reached(line, level);
        self.check_lines(once(line).chain(victim.map(|gone| gone.line)));
        self.check_counters();
    }

    /// A run of references by `core` through one slice.
    fn slice(&mut self, core: u32, vaddrs: &[u64], finish: bool) {
        let before = self.model.counters(core);
        let mut seen = Vec::new();
        // Translation touches no cache: the run's pages are mapped first.
        let paddrs: Vec<PhysAddr> = vaddrs.iter().filter_map(|&v| self.translate(v)).collect();
        let mut slice = self.h.slice(core);
        for paddr in paddrs {
            let level = slice.access(paddr.0);
            let (want, victim) = self.model.access(core, paddr);
            assert_eq!(level, want, "level of core {core}'s {paddr:?} in a slice");
            seen.push((paddr.line(), level, victim));
        }
        if finish {
            let delta = self.model.counters(core).delta_since(&before);
            assert_eq!(slice.finish(), delta, "what core {core}'s slice counted");
        } else {
            drop(slice);
        }
        for (line, level, victim) in seen {
            self.reached(line, level);
            self.check_set(self.set_of(line));
            self.check_lines(once(line).chain(victim.map(|gone| gone.line)));
        }
        self.check_counters();
    }

    fn flush(&mut self, mask: Cbm) {
        let dropped = self.model.flush_mask(mask);
        assert_eq!(self.h.flush_mask(mask), dropped, "flush of {mask:?}");
        self.sweep();
    }

    fn unmap_all(&mut self) {
        self.mapper.clear(&mut self.frames);
        self.model.unmap_all();
        self.agrees_on_pages();
        self.sweep();
    }

    /// LLC set `set`, way by way; returns the machine's.
    fn check_set(&self, set: u32) -> Vec<(u32, Evicted)> {
        let got: Vec<(u32, Evicted)> = self.h.llc().set(set).residents().collect();
        assert_eq!(got, self.model.llc_set(set), "LLC set {set}");
        got
    }

    /// Whether each of `lines` is in the LLC, and in every core's L1 and L2.
    fn check_lines(&self, lines: impl Iterator<Item = LineAddr>) {
        let h = &self.h;
        for line in lines {
            let paddr = line.0 << LINE_SHIFT;
            let private = |core| (h.l1_probe(core, paddr), h.l2_probe(core, paddr));
            let got = (h.llc_probe(paddr), (0..h.cores()).map(private).collect());
            let want = self.model.residency(line);
            assert_eq!(got, want, "{line:?} in the LLC, each L1 and L2");
        }
    }

    fn check_counters(&self) {
        let cores = 0..self.h.cores();
        let got: Vec<CoreCounters> = cores.clone().map(|core| self.h.counters(core)).collect();
        let want: Vec<CoreCounters> = cores.map(|core| self.model.counters(core)).collect();
        assert_eq!(got, want, "every core's counters");
    }

    /// Everything the program can have touched.
    fn sweep(&self) {
        let sets = u64::from(self.h.config().llc.sets);
        let mut fillers = vec![0u64; self.h.cores() as usize];
        for set in self.model.touched_sets() {
            for (_, held) in self.check_set(set) {
                fillers[held.owner as usize] += 1;
            }
            // Its tag would be the empty-way sentinel: no way holds it.
            let past_the_tags = (u64::from(u16::MAX) * sets + u64::from(set)) << LINE_SHIFT;
            let held = self.h.llc_probe(past_the_tags);
            assert!(!held, "set {set} holds a line past its tags");
        }
        self.check_lines(self.lines.iter().copied());
        let filled = |core| self.h.llc_occupancy_of_core(core);
        let by_core: Vec<u64> = (0..self.h.cores()).map(filled).collect();
        assert_eq!(by_core, fillers, "LLC lines each core filled");
        let total: u64 = fillers.iter().sum();
        assert_eq!(self.h.llc_occupancy(), total, "LLC lines");
    }
}

/// One of the four machines: `kind` 0 the paper's socket, 1 a fleet host,
/// 2 the Xeon-D, 3 a small machine whose set counts are not powers of two.
fn machine(kind: u32, g: &mut Gen) -> HierarchyConfig {
    let shape = |cores, l1: (u32, u32), l2: (u32, u32), llc: (u32, u32)| HierarchyConfig {
        cores,
        l1: CacheGeometry::new(l1.0, l1.1, 64),
        l2: CacheGeometry::new(l2.0, l2.1, 64),
        llc: CacheGeometry::new(llc.0, llc.1, 64),
        llc_policy: ReplacementPolicy::Lru,
    };
    match kind {
        0 => HierarchyConfig::default(),
        // `run_fleet`'s host: a 2 MiB, 16-way LLC.
        1 => shape(12, (64, 8), (128, 8), (2048, 16)),
        2 => HierarchyConfig::xeon_d(),
        _ => *g.pick(&[
            shape(4, (12, 1), (24, 5), (24, 16)),
            shape(3, (3, 2), (6, 4), (12, 8)),
            shape(5, (5, 4), (10, 8), (20, 12)),
            shape(32, (3, 1), (6, 2), (6, 2)),
        ]),
    }
}

/// Maps pages from a random start, mostly one after another, until each
/// `hot` LLC set has `depth` lines mapped or the pool runs dry; returns
/// the virtual addresses of those lines, set by set.
fn hot_lines(rig: &mut Rig, g: &mut Gen, hot: &[u32], depth: usize) -> Vec<Vec<u64>> {
    let page = rig.mapper.page_size().bytes();
    let sets = u64::from(rig.h.config().llc.sets);
    let mut found = vec![Vec::new(); hot.len()];
    let mut vpage = g.u64_in(0, 1 << 12);
    while found.iter().any(|lines: &Vec<u64>| lines.len() < depth) {
        let Some(base) = rig.translate(vpage * page) else {
            break;
        };
        let first = base.line().0;
        for (lines, &set) in found.iter_mut().zip(hot) {
            let mut line = first + (u64::from(set) + sets - first % sets) % sets;
            while line < first + (page >> LINE_SHIFT) && lines.len() < depth {
                lines.push(vpage * page + ((line - first) << LINE_SHIFT));
                line += sets;
            }
        }
        let jump = g.bool_with(0.05);
        vpage += if jump { g.u64_in(2, 200) } else { 1 };
    }
    found
}

/// A contiguous mask, often of a few ways only.
fn random_mask(g: &mut Gen, ways: u32) -> Cbm {
    let start = g.u32_in(0, ways - 1);
    let widest = if g.bool_with(0.5) { 3 } else { ways };
    Cbm::from_way_range(start, g.u32_in(1, (ways - start).min(widest)))
}

/// Re-ranks a `ways`-way set has made after `refs` references: the first
/// at reference `MAX_STAMP + 1`, each later one `MAX_STAMP - ways` on.
fn reranks(refs: u64, ways: u32) -> u64 {
    let (top, period) = (u64::from(MAX_STAMP), u64::from(MAX_STAMP - ways));
    refs.checked_sub(top + 1)
        .map_or(0, |past| 1 + past / period)
}

fn program(g: &mut Gen, policy: ReplacementPolicy) {
    let long = g.case() / 4 % 2 == 1;
    let config = HierarchyConfig {
        llc_policy: policy,
        ..machine(g.case() % 4, g)
    };
    let (sets, ways, cores) = (config.llc.sets, config.llc.ways, config.cores);
    let page = *g.pick(&[PageSize::Small, PageSize::Huge]);
    let depth = 2 * ways as usize + 2;
    // Pages that map `depth` lines to a set, on average.
    let needed = (depth as u64 * u64::from(sets)).div_ceil(page.bytes() >> LINE_SHIFT);
    let pool = if long {
        2 * needed + 16
    } else {
        g.u64_in(needed / 2 + 1, 2 * needed + 16)
    };
    // No line at or past the 16-bit tags, by the check `Engine::new` makes.
    let h = Hierarchy::new(config);
    let pool = (pool * page.bytes()).max(PageSize::Huge.bytes());
    let pool = match h.admits(pool) {
        Ok(()) => pool,
        Err(_) => h.llc().line_limit() << LINE_SHIFT,
    };
    let frames = *g.pick(&[FramePolicy::Randomized, FramePolicy::Contiguous]);
    let seed = g.u64_in(0, u64::MAX);
    let pool = || {
        (
            FrameAllocator::new(pool, frames, seed),
            SmallRng::seed_from_u64(seed),
        )
    };
    let (frames, placement) = pool();
    let mut rig = Rig {
        h,
        mapper: PageMapper::new(page),
        frames,
        placement,
        model: Machine::new(config, page, pool()),
        lines: BTreeSet::new(),
        llc_refs: BTreeMap::new(),
    };

    // Hot sets an L1 set apart share an L1 set, not an L2 set.
    let first = g.u32_in(0, sets - 1);
    let mut hot: Vec<u32> = (0..g.u32_in(1, if long { 2 } else { 3 }))
        .map(|k| (first + k * config.l1.sets) % sets)
        .collect();
    hot.sort_unstable();
    hot.dedup();
    let found = hot_lines(&mut rig, g, &hot, depth);
    let full = found.iter().all(|lines| lines.len() == depth);
    assert!(!long || full, "the pool holds the hot lines");
    let mut universe = found.concat();
    rig.sweep();
    let any_core = |g: &mut Gen| g.u32_in(0, cores - 1);
    let n = g.u32_in(2, cores.min(4));
    let active: Vec<u32> = (0..n).map(|_| any_core(g)).collect();
    let warm: Vec<u64> = (0..g.usize_in(4, 16)).map(|_| *g.pick(&universe)).collect();
    let pick = |g: &mut Gen, universe: &[u64]| {
        let from = if g.bool_with(0.3) { &warm } else { universe };
        *g.pick(from)
    };

    let reranked = |refs: &u64| reranks(*refs, ways) >= 3;
    let done = |rig: &Rig| {
        hot.iter()
            .all(|s| rig.llc_refs.get(s).is_some_and(reranked))
    };
    let ops = if long { 100_000 } else { g.usize_in(150, 400) };
    for _ in 0..ops {
        if long && done(&rig) {
            break;
        }
        let core = *g.pick(&active);
        match g.u32_in(0, 99) {
            0..=59 => rig.access(core, pick(g, &universe)),
            60..=79 => {
                let run: Vec<u64> = (0..g.usize_in(0, 32)).map(|_| pick(g, &universe)).collect();
                rig.slice(core, &run, g.bool_with(0.5));
            }
            80..=89 => {
                let other = g.bool_with(0.2);
                let core = if other { any_core(g) } else { core };
                let mask = random_mask(g, ways);
                rig.h.set_fill_mask(core, mask);
                rig.model.set_fill_mask(core, mask);
            }
            90..=92 => rig.flush(random_mask(g, ways)),
            93..=97 if !long => {
                let far = match g.u32_in(0, 2) {
                    0 => (1 << 44) + g.u64_in(0, 4095),
                    1 => u64::MAX - g.u64_in(0, 3 * page.bytes()),
                    _ => g.u64_in(0, u64::MAX),
                };
                rig.access(core, far);
            }
            98..=99 if !long => {
                rig.unmap_all();
                universe = hot_lines(&mut rig, g, &hot, depth).concat();
            }
            _ => rig.access(core, pick(g, &universe)),
        }
    }
    rig.sweep();
    // Every set a long program touched — the hot ones, and no other.
    let each = done(&rig) && rig.llc_refs.values().all(reranked);
    assert!(!long || each, "a set re-ranked fewer than three times");
}

/// Programs a policy: each machine four times short and four times long.
const CASES: u32 = 32;

#[test]
fn the_machine_is_its_model_under_lru() {
    prop_lite::run_cases("machine_differential_lru", CASES, |g| {
        program(g, ReplacementPolicy::Lru);
    });
}

#[test]
fn the_machine_is_its_model_under_fifo() {
    prop_lite::run_cases("machine_differential_fifo", CASES, |g| {
        program(g, ReplacementPolicy::Fifo);
    });
}

#[test]
fn the_machine_is_its_model_under_random() {
    prop_lite::run_cases("machine_differential_random", CASES, |g| {
        program(g, ReplacementPolicy::Random);
    });
}

/// BIP is the policy with ties: most fills insert at stamp 0, and zeros
/// stay tied, and below every rank, through every re-rank. The paper's
/// 1-in-32 and a 1-in-2 that mixes zeros and clock stamps in every set.
#[test]
fn the_machine_is_its_model_under_bip() {
    prop_lite::run_cases("machine_differential_bip", CASES, |g| {
        let mru_one_in = *g.pick(&[2, 32]);
        program(g, ReplacementPolicy::Bip { mru_one_in });
    });
}
