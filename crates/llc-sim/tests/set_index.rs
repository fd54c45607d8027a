//! `SetAssocCache::set_index` against its definition.
//!
//! [`CacheGeometry::set_index`] (`line % sets`) defines which set a line
//! maps to; the cache computes it with a reciprocal multiply for set
//! counts that are not a power of two, and the two must agree on every
//! line — a single disagreement moves a line to another set and changes
//! every recorded experiment. Checked for every such set count the
//! workspace constructs (the paper's 36 864-set LLC; 24 and 100 in
//! tests), a few adversarial ones, and a power of two for the mask path.

use llc_sim::{CacheGeometry, LineAddr, SetAssocCache};

const SET_COUNTS: [u32; 9] = [24, 100, 36_864, 3, 7, 1000, 65_535, 98_304, 4096];

fn agrees_on(cache: &SetAssocCache, lines: impl Iterator<Item = u64>) {
    let geometry = cache.geometry();
    for line in lines {
        assert_eq!(
            cache.set_index(LineAddr(line)),
            geometry.set_index(LineAddr(line)),
            "sets={} line={line}",
            geometry.sets
        );
    }
}

#[test]
fn cache_index_equals_the_geometry_remainder() {
    for sets in SET_COUNTS {
        let cache = SetAssocCache::new(CacheGeometry::new(sets, 1, 64));
        // Both ends of the 32-bit range the reciprocal serves.
        agrees_on(&cache, 0..1 << 20);
        agrees_on(&cache, (1 << 32) - (1 << 20)..1 << 32);
        // A million draws across the whole of it.
        let mut state = u64::from(sets);
        agrees_on(
            &cache,
            std::iter::repeat_with(|| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 32
            })
            .take(1_000_000),
        );
        // Wider lines take the `u64` remainder.
        agrees_on(
            &cache,
            [
                1 << 32,
                (1 << 32) + 1,
                (1 << 40) + 12_345,
                u64::MAX - 1,
                u64::MAX,
            ]
            .into_iter(),
        );
        agrees_on(&cache, (1 << 32..1 << 44).step_by((1 << 24) + 4099));
    }
}
