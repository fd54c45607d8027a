//! OS page coloring: the set-partitioning alternative the paper discusses.
//!
//! Sections 2.2 and 7 of the paper contrast CAT with OS-level page
//! coloring (Lin et al., Coloris): instead of restricting *ways*, the OS
//! restricts which physical frames a tenant receives, so its lines map
//! only to a subset of the cache's *sets* — trading capacity for sets
//! while keeping the full associativity. The paper dismisses coloring for
//! dynamic use (re-coloring means copying pages) but it is the natural
//! baseline for the conflict-miss analysis: a color-partitioned working
//! set keeps all 20 ways and therefore suffers no associativity loss.
//!
//! A *color* is the classic `page_frame_number mod num_colors` where
//! `num_colors = way_bytes / page_size` — frames of the same color cover
//! the same set region of the cache.

use crate::geometry::CacheGeometry;
use crate::paging::PageSize;

/// A subset of the page colors of a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorSet {
    num_colors: u64,
    allowed: Vec<bool>,
}

impl ColorSet {
    /// Number of distinct page colors an LLC has for the given page size:
    /// `way_bytes / page_bytes`. Returns 0 when a single page already
    /// covers a whole way (huge pages on small caches), in which case
    /// coloring cannot partition anything.
    pub fn num_colors_of(llc: CacheGeometry, page: PageSize) -> u64 {
        llc.way_bytes() / page.bytes()
    }

    /// A color set allowing colors `[first, first + count)` of `llc`'s
    /// colors for `page`-sized frames.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the cache's colors, or if
    /// the cache has no colors at this page size.
    pub fn contiguous(llc: CacheGeometry, page: PageSize, first: u64, count: u64) -> Self {
        let num_colors = Self::num_colors_of(llc, page);
        assert!(num_colors > 0, "cache has no page colors at this page size");
        assert!(count >= 1, "a color set cannot be empty");
        assert!(
            first + count <= num_colors,
            "colors [{first}, {}) exceed the cache's {num_colors}",
            first + count
        );
        let mut allowed = vec![false; num_colors as usize];
        for c in first..first + count {
            allowed[c as usize] = true;
        }
        ColorSet {
            num_colors,
            allowed,
        }
    }

    /// Whether a physical frame (identified by its base address) has an
    /// allowed color for `page`-sized frames.
    pub fn permits_frame(&self, frame_base_addr: u64, page: PageSize) -> bool {
        let pfn = frame_base_addr >> page.shift();
        self.allowed[(pfn % self.num_colors) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> CacheGeometry {
        CacheGeometry::xeon_e5_llc() // 2.25 MiB per way
    }

    #[test]
    fn color_counts_match_way_capacity() {
        // 2.25 MiB way / 4 KiB pages = 576 colors.
        assert_eq!(ColorSet::num_colors_of(llc(), PageSize::Small), 576);
        // 2.25 MiB way / 2 MiB pages = 1 color (cannot partition).
        assert_eq!(ColorSet::num_colors_of(llc(), PageSize::Huge), 1);
    }

    #[test]
    fn contiguous_set_grants_expected_fraction() {
        let c = ColorSet::contiguous(llc(), PageSize::Small, 0, 144);
        assert_eq!(c.allowed.iter().filter(|a| **a).count(), 144);
    }

    #[test]
    fn permits_frames_by_pfn_modulo() {
        let c = ColorSet::contiguous(llc(), PageSize::Small, 0, 2);
        assert!(c.permits_frame(0, PageSize::Small)); // color 0
        assert!(c.permits_frame(4096, PageSize::Small)); // color 1
        assert!(!c.permits_frame(2 * 4096, PageSize::Small)); // color 2
                                                              // Colors wrap at num_colors.
        assert!(c.permits_frame(576 * 4096, PageSize::Small)); // color 0 again
    }

    #[test]
    fn all_colors_permit_everything() {
        let c = ColorSet::contiguous(llc(), PageSize::Small, 0, 576);
        for pfn in 0..1000u64 {
            assert!(c.permits_frame(pfn * 4096, PageSize::Small));
        }
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn out_of_range_colors_rejected() {
        let _ = ColorSet::contiguous(llc(), PageSize::Small, 570, 10);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_color_set_rejected() {
        let _ = ColorSet::contiguous(llc(), PageSize::Small, 0, 0);
    }
}
