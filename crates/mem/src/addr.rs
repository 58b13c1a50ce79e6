//! The virtual address newtype and page arithmetic.
//!
//! Virtual addresses follow the x86_64 4-level layout: 48 significant bits,
//! decomposed into four 9-bit table indices plus a 12-bit page offset. The
//! paging crate walks tables with exactly these indices.

use core::fmt;

/// Bytes per page (4 KiB, the x86_64 base page size).
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Entries per page table (512 = 2⁹).
pub const TABLE_ENTRIES: usize = 512;

/// A virtual address inside a unikernel context's flat address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address, truncating to the 48-bit canonical range.
    pub const fn new(addr: u64) -> Self {
        VirtAddr(addr & 0x0000_FFFF_FFFF_FFFF)
    }

    /// The raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The address of the start of the containing page.
    pub const fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE as u64 - 1))
    }

    /// Offset within the containing page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// The virtual page number (address >> 12).
    pub const fn page_number(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Builds an address from a virtual page number.
    pub const fn from_page_number(vpn: u64) -> Self {
        VirtAddr::new(vpn << PAGE_SHIFT)
    }

    /// Table index at the given level (4 = root … 1 = leaf).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=4`.
    pub fn table_index(self, level: u8) -> usize {
        assert!((1..=4).contains(&level), "page table level must be 1..=4");
        let shift = PAGE_SHIFT + 9 * (level as u32 - 1);
        ((self.0 >> shift) & 0x1FF) as usize
    }

    /// Address `bytes` further along, truncated to canonical form.
    pub const fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr::new(self.0.wrapping_add(bytes))
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#014x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_truncation() {
        let a = VirtAddr::new(0xFFFF_FFFF_FFFF_FFFF);
        assert_eq!(a.as_u64(), 0x0000_FFFF_FFFF_FFFF);
    }

    #[test]
    fn page_decomposition() {
        let a = VirtAddr::new(0x1234_5678);
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.page_base().as_u64(), 0x1234_5000);
        assert_eq!(a.page_number(), 0x12345);
        assert_eq!(VirtAddr::from_page_number(0x12345).as_u64(), 0x1234_5000);
    }

    #[test]
    fn table_indices_decompose_like_x86() {
        // VA with distinct 9-bit groups: l4=1, l3=2, l2=3, l1=4, offset=5.
        let va = VirtAddr::new((1u64 << 39) | (2u64 << 30) | (3u64 << 21) | (4u64 << 12) | 5);
        assert_eq!(va.table_index(4), 1);
        assert_eq!(va.table_index(3), 2);
        assert_eq!(va.table_index(2), 3);
        assert_eq!(va.table_index(1), 4);
        assert_eq!(va.page_offset(), 5);
    }

    #[test]
    #[should_panic(expected = "level must be 1..=4")]
    fn bad_level_panics() {
        VirtAddr::new(0).table_index(5);
    }

    #[test]
    fn offset_walks_pages() {
        let a = VirtAddr::new(0x1000);
        assert_eq!(a.offset(0x2000).as_u64(), 0x3000);
    }
}
