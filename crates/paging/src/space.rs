//! Address spaces and their virtual-memory regions.
//!
//! An [`AddressSpace`] is a root table plus region metadata and the per-UC
//! dirty set that snapshot capture consumes ("only capturing the pages
//! modified since the UC was created", §6). The dirty set is kept as a
//! side structure rather than in the shared PTEs because PTE dirty bits
//! are shared between a snapshot and every UC deployed from it, while
//! capture needs *this UC's* writes only.
//!
//! The dirty set is run-length: a sorted `Vec` of disjoint, non-adjacent
//! `[start, end)` page runs plus a running page count. Boot commits,
//! resume touches and heap commits all write ascending runs, so
//! recording a new page is almost always a compare against the last
//! run's end and an increment, and a UC that wrote 349 consecutive pages
//! holds one entry, not 349. Only a write below the last run pays a
//! binary search, merging with the runs on either side.

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
    /// [`Self::clear_dirty`]), as ascending `[start, end)` runs that
    /// neither overlap nor touch.
    dirty: Vec<(u64, u64)>,
    /// Pages in `dirty`.
    dirty_count: u64,
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
            dirty_count: 0,
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
    #[inline]
    pub(crate) fn note_write(&mut self, va: VirtAddr) {
        let page = va.page_number();
        match self.dirty.last_mut() {
            Some((_, end)) if *end == page => *end += 1,
            Some(&mut (start, end)) if page < end => {
                if page >= start || !self.insert_below(page) {
                    return;
                }
            }
            _ => self.dirty.push((page, page + 1)),
        }
        self.dirty_count += 1;
    }

    /// Adds `page`, which lies below the last run's start, merging it
    /// with the runs on either side. Returns false if a run holds it
    /// already.
    fn insert_below(&mut self, page: u64) -> bool {
        // The first run starting above `page` (the last run, at latest).
        let next = self.dirty.partition_point(|&(start, _)| start <= page);
        let prev_end = next.checked_sub(1).map(|i| self.dirty[i].1);
        if prev_end.is_some_and(|end| end > page) {
            return false;
        }
        let joins_prev = prev_end == Some(page);
        let joins_next = self.dirty[next].0 == page + 1;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.dirty[next - 1].1 = self.dirty[next].1;
                self.dirty.remove(next);
            }
            (true, false) => self.dirty[next - 1].1 += 1,
            (false, true) => self.dirty[next].0 = page,
            (false, false) => self.dirty.insert(next, (page, page + 1)),
        }
        true
    }

    /// Records that a frame became private to this space.
    pub(crate) fn note_private_page(&mut self) {
        self.private_pages += 1;
    }

    /// Number of pages written since creation / last drain.
    pub fn dirty_count(&self) -> u64 {
        self.dirty_count
    }

    /// The dirty virtual page numbers in ascending order, without draining.
    pub fn dirty_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().flat_map(|&(start, end)| start..end)
    }

    /// Empties the dirty set and returns how many pages it held (capture
    /// does this).
    pub fn clear_dirty(&mut self) -> u64 {
        self.dirty.clear();
        std::mem::take(&mut self.dirty_count)
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
        assert_eq!(a.dirty_pages().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(a.dirty, vec![(1, 3), (4, 5)]);
        assert_eq!(a.clear_dirty(), 3);
        assert_eq!(a.dirty_count(), 0);
        assert_eq!(a.dirty_pages().count(), 0);
    }

    #[test]
    fn dirty_runs_merge_on_both_sides() {
        let mut a = AddressSpace::from_root(TableId::from_index(0));
        for page in [9, 8, 3, 5, 4, 1, 6, 7, 2, 0] {
            a.note_write(VirtAddr::new(page * PAGE_SIZE as u64));
        }
        assert_eq!(a.dirty, vec![(0, 10)]);
        assert_eq!(a.dirty_count(), 10);
    }

    /// One step of [`dirty_runs_match_a_page_set`].
    #[derive(Clone, Debug, PartialEq)]
    enum Step {
        /// Writes `len` pages from `page` upward.
        Up { page: u64, len: u64 },
        /// Writes `len` pages from `page` downward (clamped at page 0).
        Down { page: u64, len: u64 },
        /// Empties the set, as a capture does.
        Clear,
    }

    /// The run-length dirty set against a `BTreeSet<u64>` model, after
    /// every step of ascending, descending, repeated and gap-filling
    /// writes over a few dozen pages, so that runs often merge with the
    /// run below, the run above, or both at once.
    #[test]
    fn dirty_runs_match_a_page_set() {
        use seuss_check::{check, ensure, ensure_eq, gen::Gen};
        use std::collections::BTreeSet;

        let page = || seuss_check::range(0u64, 40);
        let len = || seuss_check::range(1u64, 4);
        let steps = seuss_check::vecs(
            seuss_check::one_of(vec![
                (page(), len())
                    .map(|(page, len)| Step::Up { page, len })
                    .boxed(),
                (page(), len())
                    .map(|(page, len)| Step::Down { page, len })
                    .boxed(),
                seuss_check::just(Step::Clear).boxed(),
            ]),
            1,
            40,
        );
        check("space_dirty_runs", &steps, |steps| {
            let mut a = AddressSpace::from_root(TableId::from_index(0));
            let mut model = BTreeSet::new();
            for (i, step) in steps.iter().enumerate() {
                let pages: Vec<u64> = match *step {
                    Step::Up { page, len } => (page..page + len).collect(),
                    Step::Down { page, len } => {
                        (page.saturating_sub(len - 1)..=page).rev().collect()
                    }
                    Step::Clear => {
                        ensure_eq!(a.clear_dirty(), model.len() as u64, "step {i}");
                        model.clear();
                        Vec::new()
                    }
                };
                for p in pages {
                    a.note_write(VirtAddr::new(p * PAGE_SIZE as u64 + 8));
                    model.insert(p);
                }
                let got: Vec<u64> = a.dirty_pages().collect();
                let want: Vec<u64> = model.iter().copied().collect();
                ensure!(got == want, "step {i}: dirty {got:?} != {want:?}");
                ensure_eq!(a.dirty_count(), model.len() as u64, "step {i}");
                ensure!(
                    a.dirty.iter().all(|&(start, end)| start < end)
                        && a.dirty.windows(2).all(|w| w[0].1 < w[1].0),
                    "step {i}: runs {:?} empty, overlapping or touching",
                    a.dirty
                );
            }
            Ok(())
        });
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
