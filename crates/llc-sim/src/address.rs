//! Address types and line-granularity helpers.
//!
//! The simulator works on 64-bit addresses. Virtual and physical addresses
//! are newtypes so that a virtual address can never be fed to a
//! physically-indexed cache by accident; translation through
//! [`crate::paging::PageMapper`] is the only way to cross the boundary.

/// Base-2 logarithm of the cache-line size.
pub const LINE_SHIFT: u32 = 6;

/// Cache-line size in bytes (64 B on every CPU the paper uses).
pub const LINE_SIZE: u64 = 1 << LINE_SHIFT;

/// A virtual (workload-visible) byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr(pub u64);

/// A physical byte address, as produced by translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr(pub u64);

/// A physical address truncated to cache-line granularity.
///
/// Two byte addresses within the same 64-byte line compare equal as
/// [`LineAddr`]s, which is exactly the granularity caches operate at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl VirtAddr {
    /// Returns the virtual page number for the given page-size shift.
    #[inline]
    pub fn page_number(self, page_shift: u32) -> u64 {
        self.0 >> page_shift
    }

    /// Returns the offset within a page of the given page-size shift.
    #[inline]
    pub fn page_offset(self, page_shift: u32) -> u64 {
        self.0 & ((1 << page_shift) - 1)
    }
}

impl PhysAddr {
    /// Truncates the physical address to its cache line.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_for_addresses_within_64_bytes() {
        assert_eq!(PhysAddr(0x1000).line(), PhysAddr(0x103f).line());
        assert_ne!(PhysAddr(0x1000).line(), PhysAddr(0x1040).line());
    }

    #[test]
    fn virt_page_number_and_offset() {
        let v = VirtAddr(0x12345);
        assert_eq!(v.page_number(12), 0x12);
        assert_eq!(v.page_offset(12), 0x345);
        // 2 MiB pages use a 21-bit shift.
        assert_eq!(v.page_number(21), 0);
        assert_eq!(v.page_offset(21), 0x12345);
    }

    #[test]
    fn line_size_constants_consistent() {
        assert_eq!(LINE_SIZE, 64);
        assert_eq!(1u64 << LINE_SHIFT, LINE_SIZE);
    }
}
