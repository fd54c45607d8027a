//! `dcat_obs::json::push_f64` against its specification, `format!("{v:?}")`.
//!
//! The printer replaced `core::fmt` behind every frame and metric float on
//! the promise that no output byte moves; this file is where `{:?}` on a
//! float survives, as the oracle. Directed values first — every binade, the
//! powers of ten and their neighbours, the ties std breaks upward, the two
//! switch points between positional and exponential — then seeded draws:
//! 1 M of each shape in a debug build (Tier-1), 30 M in release (`ci.sh`).

use dcat_obs::json::push_f64;

/// Compares the two spellings of `v` and of `-v`, reusing both buffers.
struct Differ {
    ours: String,
    std: String,
    compared: u64,
}

impl Differ {
    fn new() -> Self {
        Differ {
            ours: String::new(),
            std: String::new(),
            compared: 0,
        }
    }

    fn check(&mut self, v: f64) {
        use std::fmt::Write as _;
        for v in [v, -v] {
            self.ours.clear();
            push_f64(&mut self.ours, v);
            self.std.clear();
            write!(self.std, "{v:?}").unwrap();
            assert_eq!(
                self.ours,
                self.std,
                "bits {:#018x}: push_f64 (left) vs {{:?}} (right)",
                v.to_bits()
            );
            self.compared += 1;
        }
    }

    /// `v` and the doubles just below and above it.
    fn check_around(&mut self, v: f64) {
        let bits = v.to_bits();
        for b in [bits.saturating_sub(1), bits, bits + 1] {
            self.check(f64::from_bits(b));
        }
    }
}

#[test]
fn every_binade_at_its_edges_and_middle() {
    let mut d = Differ::new();
    let mantissas = [
        0,
        1,
        2,
        (1u64 << 51) - 1,
        1 << 51,
        (1 << 51) + 1,
        (1 << 52) - 2,
        (1 << 52) - 1,
    ];
    for biased in 0..=2046u64 {
        for m in mantissas {
            d.check(f64::from_bits(biased << 52 | m));
        }
    }
    assert_eq!(d.compared, 2047 * 8 * 2);
}

#[test]
fn powers_of_ten_and_their_neighbours() {
    let mut d = Differ::new();
    for k in -330..330 {
        // Parsed, not computed: `powi` is off by an ulp for large |k|.
        let v: f64 = format!("1e{k}").parse().unwrap();
        if v.is_finite() && v != 0.0 {
            d.check_around(v);
        }
    }
    assert!(d.compared > 3 * 2 * 600);
}

#[test]
fn small_integers_thousandths_and_reciprocals() {
    let mut d = Differ::new();
    for i in 0..100_000u32 {
        let v = f64::from(i);
        d.check(v);
        d.check(v / 1000.0);
        d.check(1.0 / v); // 1/0 is inf: `inf`, `-inf`
        d.check(1000.0 / v); // 0/0 is NaN
    }
}

#[test]
fn non_finite_values_spell_as_debug_does() {
    let mut d = Differ::new();
    d.check(f64::INFINITY);
    d.check(f64::NAN);
    d.check(f64::from_bits(0x7ff0_0000_0000_0001)); // a signalling NaN
    let mut s = String::new();
    push_f64(&mut s, f64::NEG_INFINITY);
    push_f64(&mut s, -f64::NAN);
    assert_eq!(s, "-infNaN");
}

/// std breaks an exact tie between two shortest candidates upward; the
/// published Schubfach and Ryu break it to even (mutant 04).
#[test]
fn exact_ties_round_up_as_std_does() {
    let mut d = Differ::new();
    let mut s = String::new();
    push_f64(&mut s, f64::from_bits(0x4300_0000_0000_0002));
    assert_eq!(
        s, "562949953421312.3",
        "562949953421312.25: up, not to even"
    );
    s.clear();
    push_f64(&mut s, f64::from_bits(0x3e60_0000_0000_0000));
    assert_eq!(s, "2.9802322387695313e-8", "2^-25 = …31250e-8");
    // x.25 and x.75 with one fraction bit to spare, across the binade where
    // a quarter is the last place: half of them are ties.
    for i in 0..4096u64 {
        d.check(f64::from_bits(0x4300_0000_0000_0000 + i));
    }
    // 2^-n ends in 5 and sits exactly between its two 16-digit neighbours
    // more often than chance.
    for n in 1..=1074 {
        d.check_around(2f64.powi(-n));
    }
}

/// `{:?}` goes exponential on the value: `abs >= 1e16 || abs < 1e-4`
/// (mutant 05 moves the lower switch by one double).
#[test]
fn positional_and_exponential_switch_where_debug_switches() {
    let cases: [(f64, &str); 12] = [
        (1e16, "1e16"),
        (9999999999999998.0, "9999999999999998.0"),
        (0.0001, "0.0001"),
        (9.999999999999999e-5, "9.999999999999999e-5"),
        (1.0, "1.0"),
        (100000.0, "100000.0"),
        (1.5e-7, "1.5e-7"),
        (-0.0, "-0.0"),
        (0.0, "0.0"),
        (123456789.125, "123456789.125"),
        (0.001234, "0.001234"),
        (1.2345e300, "1.2345e300"),
    ];
    let mut d = Differ::new();
    for (v, want) in cases {
        let mut s = String::new();
        push_f64(&mut s, v);
        assert_eq!(s, want);
        d.check_around(v);
    }
}

/// Seeded draws per shape. A debug build is what Tier-1 runs; the release
/// count is the ci.sh step's (and what `tools/mutants.sh` runs).
const DRAWS: u32 = if cfg!(debug_assertions) {
    1_000_000
} else {
    30_000_000
};
const DRAWS_PER_CASE: u32 = 10_000;

fn seeded(name: &str, mut draw: impl FnMut(&mut prop_lite::Gen) -> f64) {
    let mut d = Differ::new();
    prop_lite::run_cases(name, DRAWS / DRAWS_PER_CASE, |g| {
        for _ in 0..DRAWS_PER_CASE {
            // Both signs are compared, so one draw covers two values.
            d.check(draw(g));
        }
    });
    assert_eq!(d.compared, u64::from(DRAWS) * 2);
}

#[test]
fn seeded_raw_bit_patterns() {
    seeded("shortest_f64_bits", |g| {
        f64::from_bits(g.u64_in(0, u64::MAX))
    });
}

/// What the daemon prints: IPC, miss rate and normalised IPC are ratios of
/// two counters.
#[test]
fn seeded_integer_ratios() {
    seeded("shortest_f64_ratios", |g| {
        let magnitude = g.u32_in(1, 40);
        let num = g.u64_in(0, u64::MAX) >> (64 - magnitude);
        let magnitude = g.u32_in(1, 40);
        let den = g.u64_in(0, u64::MAX) >> (64 - magnitude);
        num as f64 / den.max(1) as f64
    });
}

#[test]
fn seeded_unit_interval_fractions() {
    seeded("shortest_f64_unit", |g| {
        (g.u64_in(0, u64::MAX) >> 11) as f64 / (1u64 << 53) as f64
    });
}
