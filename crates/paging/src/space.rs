//! Address spaces and their virtual-memory regions.
//!
//! An [`AddressSpace`] is a root table plus region metadata and the per-UC
//! dirty set that snapshot capture consumes ("only capturing the pages
//! modified since the UC was created", §6). The dirty set is kept as a
//! side structure rather than in the shared PTEs because PTE dirty bits
//! are shared between a snapshot and every UC deployed from it, while
//! capture needs *this UC's* writes only.
//!
//! The dirty set is a sorted, deduplicated `Vec` of page numbers. Boot
//! commits, resume touches and heap commits all write ascending runs, so
//! recording a new page is almost always a compare against the last
//! element and a push; only a write at or below it pays a binary search.

use seuss_mem::{VirtAddr, PAGE_SIZE};

use crate::table::TableId;

/// Classification of a virtual-memory region.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RegionKind {
    /// Executable image text (read-only, shared).
    Text,
    /// Initialized data.
    Data,
    /// Heap (demand-zero growable).
    Heap,
    /// Thread/kernel stacks (demand-zero).
    Stack,
    /// Device/shared-IO pages (packet rings etc.).
    Io,
}

/// A contiguous range of virtual pages with common policy.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// First address of the region (page-aligned).
    pub start: VirtAddr,
    /// Length in whole pages.
    pub pages: u64,
    /// Role of the region.
    pub kind: RegionKind,
    /// Whether writes are permitted at all.
    pub writable: bool,
    /// Whether unmapped pages materialize as zero frames on first touch.
    pub demand_zero: bool,
}

impl Region {
    /// Whether `va` falls inside this region.
    pub(crate) fn contains(&self, va: VirtAddr) -> bool {
        let start = self.start.as_u64();
        let end = start + self.pages * PAGE_SIZE as u64;
        (start..end).contains(&va.as_u64())
    }

    /// Exclusive end address.
    pub(crate) fn end(&self) -> VirtAddr {
        VirtAddr::new(self.start.as_u64() + self.pages * PAGE_SIZE as u64)
    }
}

/// A unikernel context's flat address space.
pub struct AddressSpace {
    root: TableId,
    regions: Vec<Region>,
    /// Virtual page numbers written since creation (or last
    /// [`Self::take_dirty`]), ascending and without duplicates.
    dirty: Vec<u64>,
    /// Frames made private to this space since creation/capture
    /// (COW clones + demand-zero allocations). This is the footprint the
    /// paper reports per invocation path.
    private_pages: u64,
}

impl AddressSpace {
    /// Wraps a root table as an address space. The caller transfers one
    /// reference on `root` to the new space.
    pub fn from_root(root: TableId) -> Self {
        AddressSpace {
            root,
            regions: Vec::new(),
            dirty: Vec::new(),
            private_pages: 0,
        }
    }

    /// The root table (what CR3 would hold).
    pub fn root(&self) -> TableId {
        self.root
    }

    /// Adds a region. Regions must not overlap; this is checked.
    ///
    /// # Panics
    ///
    /// Panics if the new region overlaps an existing one.
    pub fn add_region(&mut self, region: Region) {
        for r in &self.regions {
            let disjoint = region.end().as_u64() <= r.start.as_u64()
                || r.end().as_u64() <= region.start.as_u64();
            assert!(disjoint, "overlapping regions: {region:?} vs {r:?}");
        }
        self.regions.push(region);
    }

    /// The region covering `va`, if any.
    pub fn region_at(&self, va: VirtAddr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(va))
    }

    /// All regions (deploy clones them into the child space).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Replaces the region list wholesale (used by deploy).
    pub fn set_regions(&mut self, regions: Vec<Region>) {
        self.regions = regions;
    }

    /// Records a write to the page containing `va`.
    pub(crate) fn note_write(&mut self, va: VirtAddr) {
        let page = va.page_number();
        match self.dirty.last() {
            Some(&last) if last >= page => {
                if let Err(pos) = self.dirty.binary_search(&page) {
                    self.dirty.insert(pos, page);
                }
            }
            _ => self.dirty.push(page),
        }
    }

    /// Records that a frame became private to this space.
    pub(crate) fn note_private_page(&mut self) {
        self.private_pages += 1;
    }

    /// Number of pages written since creation / last drain.
    pub fn dirty_count(&self) -> u64 {
        self.dirty.len() as u64
    }

    /// The dirty virtual page numbers in ascending order, without draining.
    pub fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().copied()
    }

    /// Drains and returns the dirty set in ascending order (capture does
    /// this).
    pub fn take_dirty(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty)
    }

    /// Frames currently private to this space (its marginal footprint).
    pub fn private_pages(&self) -> u64 {
        self.private_pages
    }

    /// Resets the private-page counter (after capture shares them out).
    pub fn reset_private_pages(&mut self) {
        self.private_pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(start: u64, pages: u64) -> Region {
        Region {
            start: VirtAddr::new(start),
            pages,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        }
    }

    #[test]
    fn region_contains_and_end() {
        let r = region(0x1000, 2);
        assert!(r.contains(VirtAddr::new(0x1000)));
        assert!(r.contains(VirtAddr::new(0x2FFF)));
        assert!(!r.contains(VirtAddr::new(0x3000)));
        assert_eq!(r.end().as_u64(), 0x3000);
    }

    #[test]
    fn region_lookup() {
        let mut a = AddressSpace::from_root(TableId::from_index(0));
        a.add_region(region(0x1000, 1));
        a.add_region(region(0x5000, 4));
        assert!(a.region_at(VirtAddr::new(0x1234)).is_some());
        assert!(a.region_at(VirtAddr::new(0x4000)).is_none());
        assert!(a.region_at(VirtAddr::new(0x8FFF)).is_some());
    }

    #[test]
    #[should_panic(expected = "overlapping regions")]
    fn overlap_rejected() {
        let mut a = AddressSpace::from_root(TableId::from_index(0));
        a.add_region(region(0x1000, 4));
        a.add_region(region(0x3000, 1));
    }

    #[test]
    fn dirty_tracking_drains() {
        let mut a = AddressSpace::from_root(TableId::from_index(0));
        a.note_write(VirtAddr::new(0x1000));
        a.note_write(VirtAddr::new(0x1008)); // same page
        a.note_write(VirtAddr::new(0x4000));
        a.note_write(VirtAddr::new(0x2000)); // out of order
        a.note_write(VirtAddr::new(0x4010)); // repeat
        assert_eq!(a.dirty_count(), 3);
        assert_eq!(a.take_dirty(), vec![1, 2, 4]);
        assert_eq!(a.dirty_count(), 0);
    }

    #[test]
    fn private_page_counter() {
        let mut a = AddressSpace::from_root(TableId::from_index(0));
        a.note_private_page();
        a.note_private_page();
        assert_eq!(a.private_pages(), 2);
        a.reset_private_pages();
        assert_eq!(a.private_pages(), 0);
    }
}
