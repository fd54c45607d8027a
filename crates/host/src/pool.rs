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
//! * tasks are claimed from a single cursor in index order (no stealing,
//!   no per-thread deques, no timing-dependent placement of *which
//!   results exist*),
//! * results reach the caller **in task index order** through a reorder
//!   window, so what the caller sees is identical regardless of
//!   completion order, and
//! * a pool of one job runs every task inline on the calling thread,
//!   making `--jobs 1` trivially the reference ordering.
//!
//! The window is also the memory bound: a task may not be claimed until
//! every task `2 × jobs` or more before it has been handed to the caller,
//! so finished-but-undelivered results never number more than that,
//! however many tasks there are ([`Pool::stream`]).
//!
//! Threads are scoped ([`std::thread::scope`]), so borrowed task closures
//! work and no thread outlives the call. This is the only module in the
//! workspace allowed to create threads — `clippy::disallowed_methods` (root
//! `clippy.toml`) enforces it.

use std::sync::{Condvar, Mutex, MutexGuard};

/// A fixed-width scoped thread pool.
///
/// `Pool` is cheap to construct (it owns no threads between calls); each
/// [`Pool::stream`] or [`Pool::map`] call spawns its scoped workers and
/// joins them before returning.
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
    /// use host::Pool;
    /// let parts = Pool::new(2).map(vec![1u64, 2, 3], |_i, x| x * x);
    /// assert_eq!(parts.iter().sum::<u64>(), 14);
    /// ```
    ///
    /// A write to a capture is rejected, directly or laundered through a
    /// `&mut` binding (E0594 both), and so is a captured `RefCell` or
    /// `Cell` (E0277, not `Sync`):
    ///
    /// ```compile_fail,E0594
    /// use host::Pool;
    /// let mut total = 0u64;
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| total += x);
    /// ```
    ///
    /// ```compile_fail,E0594
    /// use host::Pool;
    /// let mut totals = 0u64;
    /// let sink = &mut totals;
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| *sink += x);
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use host::Pool;
    /// let seen = std::cell::RefCell::new(Vec::new());
    /// Pool::new(2).map(vec![1u64, 2, 3], |_i, x| seen.borrow_mut().push(x));
    /// ```
    ///
    /// ```compile_fail,E0277
    /// use host::Pool;
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
        let mut out = Vec::with_capacity(items.len());
        self.stream(items, f, |_, value| out.push(value));
        out
    }

    /// Applies `f` to every item, as [`Pool::map`] does, and hands each
    /// result to `consume` on the calling thread in **item order**, as
    /// soon as it and every result before it are done.
    ///
    /// A worker may not claim item `i` until `i < consumed + 2 × jobs`,
    /// where `consumed` counts the results `consume` has returned from: a
    /// slow item holds the workers back instead of letting finished
    /// results pile up behind it, so at most `2 × jobs` results are ever
    /// finished and not yet consumed, however many items there are. While
    /// the next result is not ready the calling thread works too.
    ///
    /// A panic in `f` or `consume` stops every thread of the call and
    /// re-raises on the caller.
    pub fn stream<I, T, F, C>(&self, items: Vec<I>, f: F, mut consume: C)
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
        C: FnMut(usize, T),
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for (i, item) in items.into_iter().enumerate() {
                consume(i, f(i, item));
            }
            return;
        }

        let shared = Shared {
            window: Mutex::new(Window {
                items: items.into_iter(),
                claimed: 0,
                consumed: 0,
                ready: std::iter::repeat_with(|| None)
                    .take(2 * self.jobs)
                    .collect(),
                panicked: false,
            }),
            changed: Condvar::new(),
        };

        // Runs a claimed item outside the lock and parks its result.
        let run = |idx, item| {
            let value = f(idx, item);
            let mut w = shared.lock();
            w.park(idx, value);
            shared.changed.notify_all();
            w
        };
        // A spawned worker: claim and run until no item is left to claim.
        let work = || {
            let _wake = WakeOnPanic(&shared);
            let mut w = shared.lock();
            while !w.panicked && w.claimed < n {
                w = match w.claim() {
                    Some((idx, item)) => {
                        drop(w);
                        run(idx, item)
                    }
                    None => shared.wait(w),
                };
            }
        };

        #[allow(
            clippy::disallowed_methods,
            reason = "the owner: the one place the workspace creates threads"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            {
                // The calling thread: consume the next result if it is
                // ready, else run an item if the window allows, else wait.
                let _wake = WakeOnPanic(&shared);
                let mut w = shared.lock();
                while !w.panicked && w.consumed < n {
                    let next = w.consumed;
                    if let Some(value) = w.unpark(next) {
                        drop(w);
                        consume(next, value);
                        w = shared.lock();
                        w.consumed += 1;
                        shared.changed.notify_all();
                    } else if let Some((idx, item)) = w.claim() {
                        drop(w);
                        w = run(idx, item);
                    } else {
                        w = shared.wait(w);
                    }
                }
            }
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }
}

/// What the threads of one [`Pool::stream`] call share: the window under
/// one lock, and one condition variable for every change to it.
struct Shared<I, T> {
    window: Mutex<Window<I, T>>,
    changed: Condvar,
}

impl<I, T> Shared<I, T> {
    // No thread panics while holding the lock (`f` and `consume` run
    // outside it), so a poisoned lock still holds a consistent window.
    fn lock(&self) -> MutexGuard<'_, Window<I, T>> {
        self.window.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, w: MutexGuard<'a, Window<I, T>>) -> MutexGuard<'a, Window<I, T>> {
        self.changed.wait(w).unwrap_or_else(|p| p.into_inner())
    }
}

/// The reorder window of one [`Pool::stream`] call.
struct Window<I, T> {
    items: std::vec::IntoIter<I>,
    /// Items handed out so far: the next claim is item `claimed`.
    claimed: usize,
    /// Results `consume` has returned from: item `consumed` is due next.
    consumed: usize,
    /// Finished results not yet consumed; item `i` waits in slot
    /// `i % ready.len()`, and the claim rule keeps every unconsumed item
    /// inside one lap of the ring.
    ready: Vec<Option<T>>,
    /// A thread of the call panicked: claim nothing more, wait for nothing.
    panicked: bool,
}

impl<I, T> Window<I, T> {
    /// The next item, unless the window is full or the items are out.
    fn claim(&mut self) -> Option<(usize, I)> {
        if self.claimed >= self.consumed + self.ready.len() {
            return None;
        }
        let item = self.items.next()?;
        self.claimed += 1;
        Some((self.claimed - 1, item))
    }

    fn park(&mut self, idx: usize, value: T) {
        let width = self.ready.len();
        self.ready[idx % width] = Some(value);
    }

    fn unpark(&mut self, idx: usize) -> Option<T> {
        let width = self.ready.len();
        self.ready[idx % width].take()
    }
}

/// Dropped while its thread unwinds, marks the call panicked and wakes
/// every waiter, so no thread waits for a result that will never come.
struct WakeOnPanic<'a, I, T>(&'a Shared<I, T>);

impl<I, T> Drop for WakeOnPanic<'_, I, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().panicked = true;
            self.0.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use super::*;

    /// Item 0 sleeps, so the others finish first: at any width above one,
    /// completion order is not item order.
    fn slow_first(i: usize, x: u64) -> u64 {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        x * x
    }

    #[test]
    fn stream_delivers_in_item_order() {
        for jobs in [1, 2, 4, 16] {
            // Checked as each result arrives: the panic stops the call,
            // where a wrong delivery could otherwise leave it waiting for
            // a result that was never parked.
            let mut next = 0u64;
            Pool::new(jobs).stream((0..64).collect(), slow_first, |i, v| {
                assert_eq!((i as u64, v), (next, next * next), "jobs={jobs}");
                next += 1;
            });
            assert_eq!(next, 64, "jobs={jobs}");
        }
    }

    #[test]
    fn stream_holds_at_most_two_results_per_job() {
        for jobs in [2, 4] {
            let finished = AtomicUsize::new(0);
            let consumed = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            Pool::new(jobs).stream(
                (0..64u64).collect(),
                |i, x| {
                    let x = slow_first(i, x);
                    // Finished but not yet consumed, this one included.
                    let done = finished.fetch_add(1, Ordering::SeqCst) + 1;
                    let ahead = done.saturating_sub(consumed.load(Ordering::SeqCst));
                    peak.fetch_max(ahead, Ordering::SeqCst);
                    x
                },
                |_, _| {
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
            );
            assert_eq!(consumed.into_inner(), 64);
            let peak = peak.into_inner();
            assert!(
                peak <= 2 * jobs,
                "jobs={jobs}: {peak} results waited at once"
            );
        }
    }

    #[test]
    fn a_panicking_item_reraises_on_the_caller() {
        // Item 0 panics late, after the other workers have filled the
        // window and are waiting on it; item 9 panics early.
        for bad in [0, 9] {
            let caught = std::panic::catch_unwind(|| {
                Pool::new(4).stream(
                    (0..64u64).collect(),
                    |i, x| {
                        let x = slow_first(i, x);
                        assert_ne!(i, bad, "item {bad} failed");
                        x
                    },
                    |_, _| {},
                );
            });
            let payload = caught.expect_err("the item's panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&format!("item {bad} failed")),
                "got {message}"
            );
        }
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Pool::new(0).jobs, 1);
        assert_eq!(Pool::new(3).jobs, 3);
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
