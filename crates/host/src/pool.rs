//! A scoped, work-stealing-free thread pool with deterministic results.
//!
//! The whole workspace is built around replayable simulation: the same
//! seed must give the same bytes of output whether a sweep runs on one
//! core or sixteen. That rules out conventional work-stealing executors,
//! where task-to-thread placement (and therefore any per-thread state or
//! output interleaving) depends on timing. This pool makes determinism
//! structural instead of aspirational:
//!
//! * every task is **self-contained** — it receives its index and its
//!   input, and returns a value; tasks never share mutable state,
//! * tasks are claimed from a single atomic cursor in index order (no
//!   stealing, no per-thread deques, no timing-dependent placement of
//!   *which results exist*),
//! * results are merged and **sorted by task index** after all workers
//!   join, so the output vector is identical regardless of completion
//!   order, and
//! * a pool of one job runs every task inline on the calling thread,
//!   making `--jobs 1` trivially the reference ordering.
//!
//! Threads are scoped ([`std::thread::scope`]), so borrowed task closures
//! work and no thread outlives the call. This is the only module in the
//! workspace allowed to create threads — `clippy::disallowed_methods` (root
//! `clippy.toml`) enforces it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width scoped thread pool.
///
/// `Pool` is cheap to construct (it owns no threads between calls); each
/// [`Pool::map`] call spawns its scoped workers and joins them before
/// returning.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// Creates a pool that runs up to `jobs` tasks concurrently.
    /// `jobs` is clamped to at least 1.
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The configured concurrency width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, returning results in **item order**
    /// regardless of which worker ran which item or when it finished.
    ///
    /// `f` receives `(index, item)`. With one job (or one item) everything
    /// runs inline on the calling thread; otherwise `min(jobs, len)`
    /// scoped workers claim items from a shared cursor. The calling thread
    /// works too, so a pool of N uses N threads total, not N + 1.
    ///
    /// # The bound is the pool discipline
    ///
    /// `F: Fn(usize, I) -> T + Sync` is what makes "tasks never share
    /// mutable state" a compile error rather than a convention: an `Fn`
    /// closure cannot write to what it captures, and a `Sync` one cannot
    /// capture a single-threaded cell. A task returns its result; the
    /// coordinator merges:
    ///
    /// ```
    /// use host::pool::Pool;
    /// let parts = Pool::new(2).map(vec![1u64, 2, 3], |_i, x| x * x);
    /// assert_eq!(parts.iter().sum::<u64>(), 14);
    /// ```
    ///
    /// A write to a capture is rejected, directly or laundered through a
    /// `&mut` binding (E0594 both), and so is a captured `RefCell` or
    /// `Cell` (E0277, not `Sync`):
    ///
    /// ```compile_fail,E0594
    /// use host::pool::Pool;
    /// let mut total = 0u64;
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| total += x);
    /// ```
    ///
    /// ```compile_fail,E0594
    /// use host::pool::Pool;
    /// let mut totals = 0u64;
    /// let sink = &mut totals;
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| *sink += x);
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use host::pool::Pool;
    /// let seen = std::cell::RefCell::new(Vec::new());
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| seen.borrow_mut().push(x));
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use host::pool::Pool;
    /// let count = std::cell::Cell::new(0u64);
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| count.set(count.get() + x));
    /// ```
    ///
    /// What the bound cannot see — a capture that *is* `Sync` (a `Mutex`,
    /// an atomic) or output a worker sends somewhere other than its
    /// return value — would make results depend on scheduling, and that
    /// is the property the `--jobs 1` vs `--jobs N` byte-identity checks
    /// enforce (`ci.sh`: `all_experiments`, `fleet_scale`;
    /// `crates/bench/tests/determinism.rs`).
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Each slot is taken exactly once: the cursor hands out indices,
        // and the Mutex only serializes the one `take` per slot (it is
        // never contended after that).
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);

        let run_worker = || {
            // The cursor balances work, so a worker's fair share is
            // n/workers; reserve that up front (skew can still grow it).
            let mut local: Vec<(usize, T)> = Vec::with_capacity(n / workers + 1);
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = slots[idx]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take()
                    .unwrap_or_else(|| unreachable!("slot {idx} claimed twice"));
                local.push((idx, f(idx, item)));
            }
            local
        };

        let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
        #[allow(
            clippy::disallowed_methods,
            reason = "the owner: the one place the workspace creates threads"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
            indexed.extend(run_worker());
            for h in handles {
                match h.join() {
                    Ok(part) => indexed.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        // Completion order is timing-dependent; item order is not.
        indexed.sort_by_key(|(idx, _)| *idx);
        indexed.into_iter().map(|(_, value)| value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::new(3).jobs(), 3);
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 4, 16] {
            let got = Pool::new(jobs).map(items.clone(), |_, x| x * x);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let got = Pool::new(4).map(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::new(8).map(empty, |_, x: u32| x).is_empty());
        assert_eq!(Pool::new(8).map(vec![7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_matches_serial_map_on_stateful_work() {
        // Each task runs its own seeded RNG; parallel execution must not
        // perturb any stream.
        let work = |i: usize, seed: u64| {
            let mut rng = smallrng::SmallRng::seed_from_u64(seed);
            (0..1000 + i)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let seeds: Vec<u64> = (0..32).map(|i| 1000 + i).collect();
        let serial = Pool::new(1).map(seeds.clone(), work);
        let parallel = Pool::new(8).map(seeds, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn uses_at_most_jobs_threads() {
        use std::sync::atomic::AtomicUsize;
        let live = AtomicUsize::new(0);
        let peak = Mutex::new(0usize);
        let items: Vec<u32> = (0..64).collect();
        Pool::new(3).map(items, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            {
                let mut p = peak.lock().unwrap();
                *p = (*p).max(now);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(*peak.lock().unwrap() <= 3);
    }
}
