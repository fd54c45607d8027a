//! A smoothing window for noisy counter-derived metrics.
//!
//! The paper samples once per second and compares IPCs across intervals;
//! with short intervals the raw ratios are noisy. Nothing outside tests
//! uses this window today: the dCat controller compares raw interval IPCs
//! and LFOC keeps its own inline EWMA. The sliding mean is kept only
//! because ROADMAP item 12 names it as the feature window for its Table-2
//! ratios.

use std::collections::VecDeque;

/// Fixed-capacity sliding-mean window.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    values: VecDeque<f64>,
    sum: f64,
    evictions_since_rebuild: usize,
}

/// How many evictions the incremental `sum` may absorb before it is
/// recomputed from the retained samples. Each `sum - old + new` step can
/// lose low-order bits when sample magnitudes differ; over a daemon run
/// of millions of ticks the drift compounds without a periodic rebuild.
const SUM_REBUILD_EVERY: usize = 4096;

impl SlidingWindow {
    /// Creates a window averaging the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            values: VecDeque::with_capacity(capacity),
            sum: 0.0,
            evictions_since_rebuild: 0,
        }
    }

    /// Pushes a sample, evicting the oldest when full.
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.capacity {
            if let Some(old) = self.values.pop_front() {
                self.sum -= old;
                self.evictions_since_rebuild += 1;
            }
        }
        self.values.push_back(value);
        self.sum += value;
        if self.evictions_since_rebuild >= SUM_REBUILD_EVERY {
            self.sum = self.values.iter().sum();
            self.evictions_since_rebuild = 0;
        }
    }

    /// Mean of the retained samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum / crate::convert::len_to_f64(self.values.len()))
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sum = 0.0;
        self.evictions_since_rebuild = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_mean_over_partial_fill() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.mean(), None);
        w.push(2.0);
        w.push(4.0);
        assert_eq!(w.mean(), Some(3.0));
        assert!(!w.is_full());
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(2);
        w.push(10.0);
        w.push(20.0);
        w.push(30.0);
        assert!(w.is_full());
        assert_eq!(w.mean(), Some(25.0));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn sliding_window_clear() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn incremental_sum_does_not_drift_over_a_long_run() {
        // Regression: the purely incremental `sum` bleeds precision every
        // time a huge sample transits a window of tiny ones. Push ~1e6
        // mixed-magnitude samples and demand the mean still matches an
        // exact recomputation of the retained window.
        let mut w = SlidingWindow::new(512);
        let mut tail: VecDeque<f64> = VecDeque::new();
        for i in 0..1_000_000u64 {
            let value = if i % 97 == 0 { 1e12 } else { 1.0 };
            w.push(value);
            tail.push_back(value);
            if tail.len() > 512 {
                tail.pop_front();
            }
        }
        let exact_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let mean = w.mean().unwrap();
        let rel_err = ((mean - exact_mean) / exact_mean).abs();
        assert!(
            rel_err < 1e-9,
            "window mean drifted: got {mean}, exact {exact_mean}, rel err {rel_err:e}"
        );
    }
}
