//! SPEC CPU2006-like workload profiles.
//!
//! The paper (Figure 17, Table 3) runs twenty SPEC CPU2006 benchmarks. SPEC
//! binaries cannot execute against a simulated cache, so each benchmark is
//! modeled by the cache-relevant parameters the literature characterizes
//! them with — working-set size (Gove, SIGARCH CAN 2007), core-working-set
//! to working-set ratio (the paper cites it as CWSS/WSS, after Jaleel's
//! characterization), access-pattern mix, and memory intensity:
//!
//! * a **hot region** of `hot_fraction * wss` is touched with probability
//!   `hot_access_prob` (high reuse — omnetpp and astar have a high CWSS/WSS
//!   ratio, which is exactly why the paper sees them gain up to 83% from
//!   extra cache),
//! * the remainder of the working set is touched either at random or by a
//!   cyclic sequential cursor (`streaming = true` models the
//!   libquantum/lbm/milc class that never reuses cache contents).
//!
//! The absolute numbers are synthetic; the *ordering* of cache sensitivity
//! across benchmarks follows the published characterizations, which is what
//! the reproduction needs.

use llc_sim::LINE_SIZE;
use smallrng::SmallRng;

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// Static description of one SPEC-like benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecBenchmark {
    /// Benchmark name, e.g. `"omnetpp"`.
    pub name: &'static str,
    /// Effective LLC-relevant working-set size in bytes.
    pub wss_bytes: u64,
    /// Fraction of the working set forming the high-reuse core (CWSS/WSS).
    pub(crate) hot_fraction: f64,
    /// Probability that a reference targets the hot region.
    pub(crate) hot_access_prob: f64,
    /// Whether cold references scan sequentially with no reuse.
    pub(crate) streaming: bool,
    /// Memory references per instruction.
    pub(crate) mem_refs_per_instr: f64,
    /// Compute-bound CPI.
    pub(crate) cpi_exec: f64,
    /// Memory-level parallelism.
    pub(crate) mlp: f64,
}

impl SpecBenchmark {
    /// Instantiates the benchmark as an access stream.
    pub fn stream(&self, seed: u64) -> SpecStream {
        SpecStream::new(*self, seed)
    }
}

/// The twenty benchmarks of the paper's Figure 17, with characteristics
/// following the published working-set studies.
pub fn spec_catalog() -> Vec<SpecBenchmark> {
    const MB: u64 = 1024 * 1024;
    // Helper groups:
    //   cache-insensitive (small WSS, fits private caches + a way or two)
    //   cache-friendly    (medium/large WSS, high reuse -> dCat receivers)
    //   streaming         (large WSS, cyclic scans, no reuse)
    vec![
        // name            wss      hot core        refs  cpi   mlp
        bench("perlbench", 2 * MB, reuse(0.60, 0.90), 0.30, 0.55, 1.5),
        bench("bzip2", 7 * MB, reuse(0.50, 0.80), 0.32, 0.60, 1.6),
        bench("gcc", 6 * MB, reuse(0.55, 0.85), 0.35, 0.65, 1.5),
        bench("mcf", 40 * MB, reuse(0.30, 0.70), 0.40, 0.80, 1.2),
        bench("gobmk", 2 * MB, reuse(0.70, 0.90), 0.28, 0.60, 1.4),
        bench("hmmer", MB, reuse(0.80, 0.95), 0.42, 0.50, 2.0),
        bench("sjeng", 512 * 1024, reuse(0.80, 0.95), 0.25, 0.55, 1.5),
        bench("libquantum", 32 * MB, scan(0.02, 0.05), 0.33, 0.50, 7.0),
        bench("h264ref", 3 * MB, reuse(0.65, 0.90), 0.38, 0.55, 2.2),
        bench("omnetpp", 16 * MB, reuse(0.75, 0.92), 0.36, 0.70, 1.1),
        bench("astar", 14 * MB, reuse(0.70, 0.90), 0.34, 0.70, 1.1),
        bench("xalancbmk", 12 * MB, reuse(0.60, 0.85), 0.37, 0.70, 1.3),
        bench("bwaves", 32 * MB, scan(0.05, 0.10), 0.45, 0.55, 6.5),
        bench("milc", 48 * MB, scan(0.04, 0.08), 0.40, 0.60, 6.0),
        bench("cactusADM", 12 * MB, reuse(0.45, 0.75), 0.38, 0.65, 2.0),
        bench("leslie3d", 24 * MB, scan(0.10, 0.20), 0.42, 0.60, 5.5),
        bench("soplex", 10 * MB, reuse(0.60, 0.85), 0.39, 0.70, 1.4),
        bench("GemsFDTD", 28 * MB, scan(0.08, 0.15), 0.44, 0.60, 5.0),
        bench("lbm", 64 * MB, scan(0.03, 0.05), 0.46, 0.55, 7.5),
        bench("sphinx3", 8 * MB, reuse(0.55, 0.85), 0.41, 0.65, 1.6),
    ]
}

/// How a benchmark touches its working set: the hot-core shape plus
/// whether the cold remainder is re-referenced or scanned once.
struct AccessPattern {
    hot_fraction: f64,
    hot_access_prob: f64,
    streaming: bool,
}

/// A reuse-heavy pattern: cold references are uniform (they may hit).
fn reuse(hot_fraction: f64, hot_access_prob: f64) -> AccessPattern {
    AccessPattern {
        hot_fraction,
        hot_access_prob,
        streaming: false,
    }
}

/// A streaming pattern: cold references scan cyclically, never reusing.
fn scan(hot_fraction: f64, hot_access_prob: f64) -> AccessPattern {
    AccessPattern {
        hot_fraction,
        hot_access_prob,
        streaming: true,
    }
}

fn bench(
    name: &'static str,
    wss_bytes: u64,
    pattern: AccessPattern,
    mem_refs_per_instr: f64,
    cpi_exec: f64,
    mlp: f64,
) -> SpecBenchmark {
    SpecBenchmark {
        name,
        wss_bytes,
        hot_fraction: pattern.hot_fraction,
        hot_access_prob: pattern.hot_access_prob,
        streaming: pattern.streaming,
        mem_refs_per_instr,
        cpi_exec,
        mlp,
    }
}

/// Access stream realizing a [`SpecBenchmark`].
#[derive(Debug)]
pub struct SpecStream {
    spec: SpecBenchmark,
    hot_lines: u64,
    total_lines: u64,
    cold_cursor: u64,
    rng: SmallRng,
}

impl SpecStream {
    /// Creates the stream.
    ///
    /// # Panics
    ///
    /// Panics if the working set is smaller than two lines.
    pub(crate) fn new(spec: SpecBenchmark, seed: u64) -> Self {
        let total_lines = spec.wss_bytes / LINE_SIZE;
        assert!(total_lines >= 2, "SPEC working set too small");
        let hot_lines = ((total_lines as f64 * spec.hot_fraction) as u64).clamp(1, total_lines - 1);
        SpecStream {
            spec,
            hot_lines,
            total_lines,
            cold_cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl AccessStream for SpecStream {
    fn next_access(&mut self) -> MemRef {
        let line = if self.rng.gen_bool(self.spec.hot_access_prob) {
            // Reuse: uniform within the hot core.
            self.rng.gen_range(0..self.hot_lines)
        } else {
            let cold_span = self.total_lines - self.hot_lines;
            let offset = if self.spec.streaming {
                // Cyclic sequential scan over the cold region: no reuse.
                let c = self.cold_cursor;
                self.cold_cursor = (self.cold_cursor + 1) % cold_span;
                c
            } else {
                self.rng.gen_range(0..cold_span)
            };
            self.hot_lines + offset
        };
        MemRef::load(line * LINE_SIZE)
    }

    fn profile(&self) -> ExecutionProfile {
        ExecutionProfile::new(
            self.spec.mem_refs_per_instr,
            self.spec.cpi_exec,
            self.spec.mlp,
        )
    }

    fn name(&self) -> String {
        self.spec.name.to_string()
    }

    fn working_set_bytes(&self) -> Option<u64> {
        Some(self.spec.wss_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_has_twenty_distinct_benchmarks() {
        let cat = spec_catalog();
        assert_eq!(cat.len(), 20);
        let names: HashSet<&str> = cat.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn catalog_spans_the_three_classes() {
        let cat = spec_catalog();
        let streaming = cat.iter().filter(|b| b.streaming).count();
        let small = cat
            .iter()
            .filter(|b| b.wss_bytes <= 4 * 1024 * 1024)
            .count();
        let friendly = cat
            .iter()
            .filter(|b| !b.streaming && b.wss_bytes > 9 * 1024 * 1024)
            .count();
        assert!(streaming >= 4, "need streaming benchmarks");
        assert!(small >= 4, "need cache-insensitive benchmarks");
        assert!(friendly >= 4, "need dCat-receiver benchmarks");
    }

    #[test]
    fn accesses_stay_in_working_set() {
        for b in spec_catalog() {
            let mut s = b.stream(17);
            for _ in 0..2000 {
                assert!(
                    s.next_access().vaddr.0 < b.wss_bytes,
                    "{} overflowed",
                    b.name
                );
            }
        }
    }

    #[test]
    fn hot_region_dominates_reuse_heavy_benchmarks() {
        let omnetpp = spec_catalog()
            .into_iter()
            .find(|b| b.name == "omnetpp")
            .unwrap();
        let mut s = omnetpp.stream(3);
        let hot_bytes = (omnetpp.wss_bytes as f64 * omnetpp.hot_fraction) as u64;
        let draws = 20_000;
        let hot = (0..draws)
            .filter(|_| s.next_access().vaddr.0 < hot_bytes)
            .count();
        assert!(hot as f64 / draws as f64 > 0.85);
    }

    #[test]
    fn streaming_cold_region_is_sequential() {
        let lbm = spec_catalog()
            .into_iter()
            .find(|b| b.name == "lbm")
            .unwrap();
        let mut s = lbm.stream(3);
        let hot_lines = ((lbm.wss_bytes / 64) as f64 * lbm.hot_fraction) as u64;
        let cold: Vec<u64> = std::iter::from_fn(|| Some(s.next_access()))
            .filter(|r| r.vaddr.0 / 64 >= hot_lines)
            .take(100)
            .map(|r| r.vaddr.0 / 64)
            .collect();
        // Consecutive cold accesses advance by exactly one line.
        let sequential = cold.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            sequential >= 90,
            "cold scan not sequential: {sequential}/99"
        );
    }

    #[test]
    fn profiles_are_valid() {
        for b in spec_catalog() {
            let s = b.stream(1);
            let p = s.profile();
            assert!(p.mem_refs_per_instr > 0.0 && p.mem_refs_per_instr < 1.0);
            assert!(p.mlp >= 1.0);
            assert_eq!(s.name(), b.name);
        }
    }
}
