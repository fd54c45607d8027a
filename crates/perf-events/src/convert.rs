//! Checked integer-to-float conversions for counter arithmetic.
//!
//! `u64 as f64` silently rounds once the value exceeds 2^53, which is
//! exactly the kind of drift the determinism harness cannot tolerate:
//! two runs could disagree in the last ulp of a ratio and diverge from
//! there. Every ratio in this crate funnels through [`counter_to_f64`],
//! so there is a single audited cast site (the one `clippy::as_conversions`
//! exception here) and a debug assertion that fires long before a
//! counter delta approaches the exact-representation limit.

/// Largest `u64` that `f64` represents exactly (2^53).
pub(crate) const MAX_EXACT_U64_IN_F64: u64 = 1 << 53;

/// Converts a counter value to `f64`, asserting (in debug builds) that
/// the conversion is exact.
///
/// Interval *deltas* are the only values converted here, and a delta of
/// 2^53 events would require centuries of counting at realistic rates,
/// so the assertion documents an invariant rather than guarding a
/// plausible path. Release builds saturate into rounding territory
/// rather than panicking.
#[allow(
    clippy::as_conversions,
    reason = "the one audited u64-to-f64 site; exactness is debug-asserted in the body"
)]
pub(crate) fn counter_to_f64(count: u64) -> f64 {
    debug_assert!(
        count <= MAX_EXACT_U64_IN_F64,
        "counter value {count} exceeds 2^53 and would round in f64"
    );
    count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        assert_eq!(counter_to_f64(0), 0.0);
        assert_eq!(counter_to_f64(1), 1.0);
        assert_eq!(counter_to_f64(123_456_789), 123_456_789.0);
    }

    #[test]
    fn boundary_value_is_exact() {
        let exact = counter_to_f64(MAX_EXACT_U64_IN_F64);
        assert_eq!(exact, 9_007_199_254_740_992.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds 2^53")]
    fn above_boundary_panics_in_debug() {
        counter_to_f64(MAX_EXACT_U64_IN_F64 + 1);
    }
}
