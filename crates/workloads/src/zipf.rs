//! Zipfian key sampling for the service models.
//!
//! Implements the classic Gray et al. quantile method also used by YCSB:
//! the generalized harmonic number `zeta(n, theta)` is computed once, then
//! each draw costs O(1). YCSB's default skew `theta = 0.99` is the default
//! here too.

use std::collections::BTreeMap;
use std::num::FpCategory;
use std::sync::{Mutex, PoisonError};

use smallrng::SmallRng;

/// O(1) Zipf-distributed sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`: the second key's share, relative to the first's.
    half_pow_theta: f64,
    rng: SmallRng,
}

impl ZipfSampler {
    /// Creates a sampler over `0..n` with skew `theta` (0 = uniform-ish,
    /// 0.99 = YCSB default, larger = more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)` ∪ `(1, ..)` — the
    /// method is singular at exactly 1.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(
            (theta - 1.0).abs() > 1e-9 && theta >= 0.0,
            "theta must be >= 0 and != 1"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Generalized harmonic number `sum_{i=1..n} 1/i^theta`.
    ///
    /// At `theta == 0` (uniform keys) every term is exactly `1.0` and a
    /// sum of `n < 2^53` ones is exactly `n as f64`, so the ten-million
    /// `powf` calls a paper-sized uniform key space would cost are skipped
    /// with a bit-identical result.
    ///
    /// Any other sum is a pure function of `(n, theta)` costing `n` `powf`
    /// calls, and a fleet starts hundreds of tenants over the same two or
    /// three key spaces: each distinct pair is summed once per process.
    fn zeta(n: u64, theta: f64) -> f64 {
        if theta.classify() == FpCategory::Zero && n < (1 << f64::MANTISSA_DIGITS) {
            return n as f64;
        }
        // A poisoned lock is entered anyway: an insert leaves the map valid
        // at every step, and a sum is the same whoever computed it.
        static SUMS: Mutex<BTreeMap<(u64, u64), f64>> = Mutex::new(BTreeMap::new());
        let key = (n, theta.to_bits());
        let known = SUMS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(sum) = known {
            return sum;
        }
        // Summed outside the lock: two threads may both do it, and both
        // arrive at the same bits.
        let sum = Self::zeta_sum(n, theta);
        SUMS.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, sum);
        sum
    }

    fn zeta_sum(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws one key in `0..n`; key 0 is the most popular.
    pub fn sample(&mut self) -> u64 {
        let u = self.rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let mut z = ZipfSampler::new(1000, 0.99, 3);
        for _ in 0..10_000 {
            assert!(z.sample() < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_small_keys() {
        let mut z = ZipfSampler::new(100_000, 0.99, 9);
        let draws = 50_000;
        let hot = (0..draws).filter(|_| z.sample() < 1000).count();
        // With theta=0.99 the hottest 1% of keys should absorb a large
        // share of accesses (YCSB sees ~60%+); demand at least 40%.
        assert!(
            hot as f64 / draws as f64 > 0.4,
            "only {hot}/{draws} draws hit the hot 1%"
        );
    }

    #[test]
    fn low_theta_is_flatter() {
        let draws = 50_000;
        let mut hot_counts = Vec::new();
        for theta in [0.2, 0.99] {
            let mut z = ZipfSampler::new(10_000, theta, 42);
            hot_counts.push((0..draws).filter(|_| z.sample() < 100).count());
        }
        assert!(
            hot_counts[0] < hot_counts[1],
            "higher theta must be more skewed"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ZipfSampler::new(1000, 0.99, 5);
        let mut b = ZipfSampler::new(1000, 0.99, 5);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn uniform_zeta_closed_form_is_the_sum_bit_for_bit() {
        for n in [1u64, 2, 8_000, 1_000_000] {
            for theta in [0.0, -0.0] {
                assert_eq!(
                    ZipfSampler::zeta(n, theta).to_bits(),
                    ZipfSampler::zeta_sum(n, theta).to_bits(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn remembered_zeta_is_the_sum_bit_for_bit() {
        for (n, theta) in [(6_000u64, 0.99), (1_500, 0.8), (6_000, 0.5)] {
            let sum = ZipfSampler::zeta_sum(n, theta).to_bits();
            // The first call sums, the second remembers.
            assert_eq!(ZipfSampler::zeta(n, theta).to_bits(), sum);
            assert_eq!(ZipfSampler::zeta(n, theta).to_bits(), sum);
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn empty_population_rejected() {
        let _ = ZipfSampler::new(0, 0.99, 1);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_one_rejected() {
        let _ = ZipfSampler::new(10, 1.0, 1);
    }
}
