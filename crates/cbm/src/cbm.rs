//! Capacity bitmasks (CBMs).
//!
//! A CBM is the bit pattern programmed into an `IA32_L3_QOS_MASK_n` MSR or
//! written to a resctrl `schemata` file: bit `i` set grants the class the
//! right to allocate into way `i`. Intel requires the set bits to form one
//! contiguous run and at least `min_cbm_bits` (usually 1 or 2) bits set.
//! The simulator reads these bits on every LLC fill, hence the `#[inline]`s.

use std::fmt;

/// A capacity bitmask over LLC ways: bit `i` lets its holder fill way `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cbm(pub u32);

impl Cbm {
    /// A mask of `count` ways starting at way `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds 32 bits.
    #[inline]
    pub fn from_way_range(start: u32, count: u32) -> Self {
        assert!(
            count <= 32 && start <= 32 - count,
            "CBM range exceeds 32 bits"
        );
        if count == 0 {
            return Cbm(0);
        }
        let bits = if count == 32 {
            u32::MAX
        } else {
            (1u32 << count) - 1
        };
        Cbm(bits << start)
    }

    /// The full mask of a cache with `ways` ways.
    #[inline]
    pub fn full(ways: u32) -> Self {
        Cbm::from_way_range(0, ways)
    }

    /// Number of ways granted.
    #[inline]
    pub fn ways(self) -> u32 {
        self.0.count_ones()
    }

    /// Index of the lowest granted way; `None` for an empty mask.
    pub fn first_way(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
        }
    }

    /// Whether the mask is empty (invalid for programming).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the set bits form one contiguous run.
    pub fn is_contiguous(self) -> bool {
        if self.0 == 0 {
            return false;
        }
        let shifted = u64::from(self.0 >> self.0.trailing_zeros());
        (shifted & (shifted + 1)) == 0
    }

    /// Whether this mask shares any way with `other`.
    #[inline]
    pub fn overlaps(self, other: Cbm) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether way `way` is granted by this mask.
    #[inline]
    pub fn contains_way(self, way: u32) -> bool {
        way < 32 && self.0 & (1u32 << way) != 0
    }

    /// Set union: ways granted by either mask.
    #[inline]
    pub fn union(self, other: Cbm) -> Cbm {
        Cbm(self.0 | other.0)
    }

    /// Set difference: ways granted by `self` but not by `other`.
    #[inline]
    pub fn difference(self, other: Cbm) -> Cbm {
        Cbm(self.0 & !other.0)
    }

    /// Whether the mask is valid for a cache of `cbm_len` ways requiring at
    /// least `min_bits` bits: non-empty, contiguous, within range, and wide
    /// enough.
    pub fn is_valid_for(self, cbm_len: u32, min_bits: u32) -> bool {
        !self.is_empty()
            && self.is_contiguous()
            && self.ways() >= min_bits
            && (u64::from(self.0) < (1u64 << cbm_len))
    }

    /// Parses the hexadecimal format used by resctrl schemata files
    /// (e.g. `"fffff"`, `"3"`, with or without a `0x` prefix).
    pub fn parse_hex(s: &str) -> Result<Cbm, String> {
        let trimmed = s.trim().trim_start_matches("0x").trim_start_matches("0X");
        if trimmed.is_empty() {
            return Err("empty CBM string".to_string());
        }
        u32::from_str_radix(trimmed, 16)
            .map(Cbm)
            .map_err(|e| format!("invalid CBM {s:?}: {e}"))
    }
}

impl fmt::Display for Cbm {
    /// Formats as lowercase hex without a prefix, matching resctrl files.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_construction() {
        assert_eq!(Cbm::from_way_range(0, 4).0, 0xf);
        assert_eq!(Cbm::from_way_range(3, 2).0, 0b11000);
        assert_eq!(Cbm::full(20).0, 0xf_ffff);
        assert_eq!(Cbm::from_way_range(0, 32).0, u32::MAX);
        assert_eq!(Cbm::full(32).0, u32::MAX);
        assert_eq!(Cbm::from_way_range(5, 0).0, 0);
    }

    #[test]
    #[should_panic(expected = "CBM range exceeds 32 bits")]
    fn a_range_whose_end_wraps_is_refused() {
        // `start + count` wraps to 1 without overflow checks.
        Cbm::from_way_range(u32::MAX, 2);
    }

    #[test]
    fn contiguity_rules() {
        assert!(Cbm(0b111).is_contiguous());
        assert!(Cbm(0b1000).is_contiguous());
        assert!(!Cbm(0b101).is_contiguous());
        assert!(!Cbm(0).is_contiguous());
        assert!(Cbm(u32::MAX).is_contiguous());
    }

    #[test]
    fn validity_enforces_intel_rules() {
        assert!(Cbm(0b11).is_valid_for(20, 1));
        assert!(!Cbm(0).is_valid_for(20, 1), "empty mask invalid");
        assert!(!Cbm(0b101).is_valid_for(20, 1), "non-contiguous invalid");
        assert!(!Cbm(0b1).is_valid_for(20, 2), "below min_cbm_bits invalid");
        assert!(!Cbm(1 << 20).is_valid_for(20, 1), "beyond cbm_len invalid");
        assert!(Cbm::full(20).is_valid_for(20, 1));
    }

    #[test]
    fn overlap_detection() {
        assert!(Cbm(0b110).overlaps(Cbm(0b010)));
        assert!(!Cbm(0b110).overlaps(Cbm(0b001)));
    }

    #[test]
    fn set_operations() {
        assert_eq!(Cbm(0b110).union(Cbm(0b011)), Cbm(0b111));
        assert_eq!(Cbm(0b110).difference(Cbm(0b011)), Cbm(0b100));
        assert!(Cbm(0b100).contains_way(2));
        assert!(!Cbm(0b100).contains_way(1));
        assert!(!Cbm(u32::MAX).contains_way(32));
    }

    #[test]
    fn first_way() {
        assert_eq!(Cbm(0b11000).first_way(), Some(3));
        assert_eq!(Cbm(0).first_way(), None);
    }

    #[test]
    fn hex_round_trip() {
        for cbm in [Cbm(0x3), Cbm(0xfffff), Cbm(0b1110)] {
            assert_eq!(Cbm::parse_hex(&cbm.to_string()).unwrap(), cbm);
        }
        assert_eq!(Cbm::parse_hex("0xF").unwrap(), Cbm(15));
        assert_eq!(Cbm::parse_hex(" 3f \n").unwrap(), Cbm(0x3f));
        assert!(Cbm::parse_hex("zz").is_err());
        assert!(Cbm::parse_hex("").is_err());
    }
}
