//! [`DiurnalStream`]: a load-curve modulator for service workloads.
//!
//! Fleet scenarios need tenants whose request rate follows a daily
//! pattern — quiet nights, a morning ramp, a midday plateau — because
//! that is what creates the lending opportunities the cluster policies
//! (LFOC clustering, Memshare share accounting) exploit: a tenant at 20%
//! load leaves cache on the table that a tenant at peak wants.
//!
//! The wrapper modulates an inner [`AccessStream`] *in stream space* so
//! it composes with any service model and stays deterministic: after
//! each completed request it consults a load curve (percent of peak,
//! advanced every `DiurnalStream::requests_per_step` requests) and
//! interleaves proportional *think-time* filler references before the
//! next request. Filler references spin over a single hot line-sized
//! region, so they hit the L1 and consume only compute — exactly what an
//! idle front-end burning poll loops looks like to the cache. At 100%
//! load no filler is inserted and the wrapper is the identity; at 25%
//! load roughly three filler references follow every request reference,
//! quartering the request rate per unit of instructions.
//!
//! Integer carry arithmetic keeps the filler count exact over time and
//! byte-identical across `--jobs` widths.

use llc_sim::PageSize;

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// Virtual address of the think-time spin line. High in the address
/// space so it cannot collide with any service model's working set
/// (models allocate from 0 upward); one line means at most one extra
/// resident LLC line per tenant.
const THINK_VADDR: u64 = 1 << 44;

/// A 24-step load curve resembling a consumer-facing service's day:
/// overnight trough, morning ramp, evening peak. Values are percent of
/// peak request rate.
pub const DAY_CURVE: [u32; 24] = [
    35, 28, 22, 20, 22, 30, 45, 62, 78, 90, 96, 100, 98, 94, 90, 88, 88, 92, 97, 100, 93, 78, 60,
    45,
];

/// Wraps an [`AccessStream`], stretching its request rate to follow a
/// load curve. See the module docs for the model.
///
/// Generic over the inner stream so that a caller who knows the model
/// (`DiurnalStream::day(RedisModel::new(..), ..)`) gets the per-reference
/// `inner.next_access()` resolved statically; a caller who does not
/// passes a boxed trait object, the default.
pub struct DiurnalStream<S = Box<dyn AccessStream>> {
    inner: S,
    /// Percent-of-peak steps, each 1..=100.
    curve: Vec<u32>,
    /// Completed requests per curve step.
    requests_per_step: u64,
    /// Completed requests so far.
    completed: u64,
    /// Position offset into the curve (tenants start at different local
    /// times).
    phase: usize,
    /// References the current request has issued so far.
    request_cost: u64,
    /// Filler references still owed before the next request reference.
    think_remaining: u64,
    /// Fractional filler owed, in percent units (the integer carry).
    think_carry: u64,
}

impl<S: AccessStream> DiurnalStream<S> {
    /// Wraps `inner` with a load curve. Curve values are clamped to
    /// 1..=100 (a zero-load step would stall the stream forever; real
    /// tenants always have a trickle).
    ///
    /// # Panics
    ///
    /// Panics if `curve` is empty or `requests_per_step` is zero.
    pub fn new(inner: S, curve: &[u32], requests_per_step: u64, phase: usize) -> Self {
        assert!(!curve.is_empty(), "load curve needs at least one step");
        assert!(requests_per_step > 0, "curve must advance");
        DiurnalStream {
            inner,
            curve: curve.iter().map(|&p| p.clamp(1, 100)).collect(),
            requests_per_step,
            completed: 0,
            phase,
            request_cost: 0,
            think_remaining: 0,
            think_carry: 0,
        }
    }

    /// The standard day-shaped curve at the given phase offset.
    pub fn day(inner: S, requests_per_step: u64, phase: usize) -> Self {
        DiurnalStream::new(inner, &DAY_CURVE, requests_per_step, phase)
    }

    /// Current percent-of-peak load.
    pub fn load_percent(&self) -> u32 {
        let step = (self.completed / self.requests_per_step) as usize;
        let idx = (step + self.phase) % self.curve.len();
        self.curve.get(idx).copied().unwrap_or(100)
    }

    /// The next reference of the inner stream; a reference that completes
    /// a request schedules the think time owed before the next one.
    #[inline]
    fn next_request_ref(&mut self) -> MemRef {
        let r = self.inner.next_access();
        self.request_cost += 1;
        if r.ends_request {
            self.completed += 1;
            let load = u64::from(self.load_percent());
            // A request that cost C references at load L% owes
            // C * (100 - L) / L filler references, carried exactly.
            let owed = self.request_cost * (100 - load) + self.think_carry;
            self.think_remaining = owed / load;
            self.think_carry = owed % load;
            self.request_cost = 0;
        }
        r
    }
}

impl<S: AccessStream> AccessStream for DiurnalStream<S> {
    fn next_access(&mut self) -> MemRef {
        if self.think_remaining > 0 {
            self.think_remaining -= 1;
            return MemRef::load(THINK_VADDR);
        }
        self.next_request_ref()
    }

    /// Emits each think run with one `resize` instead of one
    /// `next_access` per filler reference (over a third of a fleet
    /// host's references are filler).
    fn next_batch(&mut self, out: &mut Vec<MemRef>, n: usize) {
        out.clear();
        out.reserve(n);
        while out.len() < n {
            let room = (n - out.len()) as u64;
            let think = self.think_remaining.min(room);
            if think > 0 {
                self.think_remaining -= think;
                out.resize(out.len() + think as usize, MemRef::load(THINK_VADDR));
            } else {
                out.push(self.next_request_ref());
            }
        }
    }

    fn profile(&self) -> ExecutionProfile {
        // Think-time spinning has the same instruction mix as the inner
        // stream's compute; the cache-visible difference (L1-resident
        // filler) comes from the references themselves.
        self.inner.profile()
    }

    fn page_size(&self) -> PageSize {
        self.inner.page_size()
    }

    fn name(&self) -> String {
        format!("diurnal({})", self.inner.name())
    }

    fn working_set_bytes(&self) -> Option<u64> {
        self.inner.working_set_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RedisModel;

    fn redis() -> Box<dyn AccessStream> {
        Box::new(RedisModel::new(1000, 128, 0.9, 7))
    }

    /// Counts request completions within a fixed reference budget.
    fn requests_in(stream: &mut dyn AccessStream, refs: usize) -> u64 {
        let mut done = 0;
        for _ in 0..refs {
            if stream.next_access().ends_request {
                done += 1;
            }
        }
        done
    }

    #[test]
    fn full_load_is_the_identity() {
        let mut plain = redis();
        let mut wrapped = DiurnalStream::new(redis(), &[100], 10, 0);
        for _ in 0..2000 {
            assert_eq!(plain.next_access(), wrapped.next_access());
        }
    }

    #[test]
    fn half_load_roughly_halves_the_request_rate() {
        let full = requests_in(&mut *redis(), 20_000);
        let mut half = DiurnalStream::new(redis(), &[50], u64::MAX, 0);
        let halved = requests_in(&mut half, 20_000);
        let ratio = halved as f64 / full as f64;
        assert!(
            (0.4..=0.6).contains(&ratio),
            "expected ~0.5 request-rate ratio, got {ratio} ({halved}/{full})"
        );
    }

    #[test]
    fn curve_advances_with_completed_requests() {
        let mut s = DiurnalStream::new(redis(), &[100, 25], 5, 0);
        assert_eq!(s.load_percent(), 100);
        while s.completed < 5 {
            s.next_access();
        }
        assert_eq!(s.load_percent(), 25);
    }

    #[test]
    fn phase_offsets_rotate_the_curve() {
        let s = DiurnalStream::day(redis(), 10, 11);
        assert_eq!(s.load_percent(), DAY_CURVE[11]);
    }

    #[test]
    fn filler_hits_a_single_line() {
        let mut s = DiurnalStream::new(redis(), &[20], u64::MAX, 0);
        let mut think = Vec::new();
        for _ in 0..5000 {
            let r = s.next_access();
            if r.vaddr.0 >= THINK_VADDR {
                think.push(r.vaddr.0);
            }
        }
        assert!(!think.is_empty(), "20% load must insert filler");
        assert!(think.iter().all(|&v| v == THINK_VADDR));
    }

    #[test]
    fn wrapper_is_deterministic() {
        let mut a = DiurnalStream::day(redis(), 7, 3);
        let mut b = DiurnalStream::day(redis(), 7, 3);
        for _ in 0..5000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_curve_rejected() {
        DiurnalStream::new(redis(), &[], 10, 0);
    }
}
