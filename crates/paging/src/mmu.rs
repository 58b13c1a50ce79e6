//! The MMU: walks, mapping, faults, COW breaks, shallow clones.
//!
//! All mutation goes through two invariants (see the crate docs):
//! *shared tables are implicitly write-protected* and *shared frames are
//! copy-on-write*. A frame's reference count equals the number of leaf
//! PTEs (plus explicit pins) referencing it — sharing through shared L1
//! tables adds no references, which is exactly why splitting a shared L1
//! increments every mapped frame's count and makes the COW check
//! (`refcount > 1`) correct afterwards.

use seuss_mem::addr::TABLE_ENTRIES;
use seuss_mem::{FrameId, MemError, PageContent, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_trace::{TraceEvent, Tracer};

use crate::entry::{Entry, EntryFlags};
use crate::fault::{AccessKind, PageFault};
use crate::space::AddressSpace;
use crate::stats::OpStats;
use crate::table::{TableId, TableStore};

/// Services swap-in reads for swapped-out PTEs (see
/// [`EntryFlags::SWAPPED`]). Installed on the [`Mmu`] by the storage
/// tier; the MMU consults it whenever a touch lands on a swapped entry.
pub trait SwapPager {
    /// Reads device `block`, returning the page content and the virtual
    /// nanoseconds the read cost. `None` means the block is unreadable
    /// and the fault is unresolvable.
    fn page_in(&mut self, block: u64) -> Option<(PageContent, u64)>;
}

/// The software MMU shared by every address space on a node.
pub struct Mmu {
    /// The page-table node arena.
    pub store: TableStore,
    /// Work counters (monotone).
    pub stats: OpStats,
    /// Tracing handle (disabled by default; the node installs a live one).
    pub tracer: Tracer,
    /// Swap-in backend for swapped-out entries (none by default: touching
    /// a swapped page without a pager is an unresolvable fault).
    pub pager: Option<Box<dyn SwapPager>>,
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

impl Mmu {
    /// Creates an MMU with an empty table store.
    pub fn new() -> Self {
        Mmu {
            store: TableStore::new(),
            stats: OpStats::new(),
            tracer: Tracer::disabled(),
            pager: None,
        }
    }

    /// Creates an empty address space (fresh level-4 root).
    pub fn create_space(&mut self, mem: &mut PhysMemory) -> Result<AddressSpace, MemError> {
        let root = self.store.alloc(mem, 4)?;
        self.stats.tables_allocated += 1;
        Ok(AddressSpace::from_root(root))
    }

    /// Destroys an address space, releasing its whole table tree.
    pub fn destroy_space(&mut self, mem: &mut PhysMemory, space: AddressSpace) {
        self.release_root(mem, space.root());
    }

    /// Drops one reference on `root`, recursively releasing tables and
    /// frames that reach refcount zero.
    pub fn release_root(&mut self, mem: &mut PhysMemory, root: TableId) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Some(node) = self.store.dec_ref(mem, id) {
                for entry in node.entries.iter() {
                    if entry.is_table() {
                        stack.push(entry.next_table());
                    } else if entry.is_page() {
                        mem.dec_ref(entry.frame());
                    }
                }
            }
        }
    }

    /// Pure translation: walks the tree, no mutation, no fault handling.
    pub fn translate(&self, root: TableId, va: VirtAddr) -> Option<Entry> {
        let mut cur = root;
        for level in (2..=4).rev() {
            let entry = self.store.node(cur).entry(va.table_index(level));
            if !entry.is_table() {
                return None;
            }
            cur = entry.next_table();
        }
        let entry = self.store.node(cur).entry(va.table_index(1));
        entry.is_page().then_some(entry)
    }

    /// Walks to the L1 table for `va`, splitting shared tables and creating
    /// missing intermediates. After this, every table on the path belongs
    /// exclusively to `root`'s owner.
    fn exclusive_l1(
        &mut self,
        mem: &mut PhysMemory,
        root: TableId,
        va: VirtAddr,
    ) -> Result<TableId, MemError> {
        debug_assert_eq!(
            self.store.refcount(root),
            1,
            "address-space roots are always exclusive"
        );
        let l3 = self.exclusive_child(mem, root, va, 4)?;
        let l2 = self.exclusive_child(mem, l3, va, 3)?;
        self.exclusive_child(mem, l2, va, 2)
    }

    /// One level of an exclusive walk: the table that `parent`, at
    /// `level`, holds for `va`, split if it is shared and created if it
    /// is missing.
    fn exclusive_child(
        &mut self,
        mem: &mut PhysMemory,
        parent: TableId,
        va: VirtAddr,
        level: u8,
    ) -> Result<TableId, MemError> {
        self.stats.levels_walked += 1;
        let idx = va.table_index(level);
        let entry = self.store.node(parent).entry(idx);
        if entry.is_table() {
            let child = entry.next_table();
            if self.store.refcount(child) > 1 {
                self.split_table(mem, parent, idx, child)
            } else {
                Ok(child)
            }
        } else {
            debug_assert!(!entry.is_present(), "huge pages are not modeled");
            let t = self.store.alloc(mem, level - 1)?;
            self.stats.tables_allocated += 1;
            self.store.node_mut(parent).set(idx, Entry::table(t));
            Ok(t)
        }
    }

    /// Clones shared table `child` (referenced from `parent.entries[idx]`)
    /// into a private copy, adjusting reference counts.
    fn split_table(
        &mut self,
        mem: &mut PhysMemory,
        parent: TableId,
        idx: usize,
        child: TableId,
    ) -> Result<TableId, MemError> {
        let new = self.store.clone_referencing(mem, child)?;
        // Parent drops its reference on the shared original.
        self.release_root(mem, child);
        self.store.node_mut(parent).set(idx, Entry::table(new));
        self.stats.tables_split += 1;
        self.stats.entries_copied += TABLE_ENTRIES as u64;
        Ok(new)
    }

    /// Installs a leaf mapping, transferring the caller's reference on
    /// `frame` into the tree. Replaces (and releases) any prior mapping.
    pub fn map_page(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        frame: FrameId,
        flags: EntryFlags,
    ) -> Result<(), MemError> {
        let l1 = self.exclusive_l1(mem, space.root(), va)?;
        self.set_leaf(mem, l1, va.table_index(1), frame, flags);
        Ok(())
    }

    /// Maps each of `pages` consecutive pages from `va` to a freshly
    /// allocated data frame with `flags` (a boot loader mapping an
    /// image), replacing and releasing any prior mappings.
    ///
    /// The outcome is exactly that of a frame allocation and a
    /// [`Mmu::map_page`] per page, in ascending order: the same frame and
    /// table ids (each page's frame is allocated before any table its
    /// walk allocates), refcounts and counters, and on a full pool the
    /// same error at the same page, with the pages before it mapped. Only
    /// [`OpStats::levels_walked`] is lower, because the run walks to each
    /// leaf table once.
    pub fn map_fresh_run(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        pages: u64,
        flags: EntryFlags,
    ) -> Result<(), MemError> {
        let mut l1 = None;
        for k in 0..pages {
            let page = va.offset(k * PAGE_SIZE as u64);
            let idx = page.table_index(1);
            let frame = mem.alloc(seuss_mem::FrameKind::Data)?;
            let table = match l1 {
                Some(table) if idx != 0 => table,
                _ => self.exclusive_l1(mem, space.root(), page)?,
            };
            l1 = Some(table);
            self.set_leaf(mem, table, idx, frame, flags);
        }
        Ok(())
    }

    /// Points entry `idx` of `l1`, an L1 table exclusive to its space,
    /// at `frame`, releasing the frame it mapped before.
    fn set_leaf(
        &mut self,
        mem: &mut PhysMemory,
        l1: TableId,
        idx: usize,
        frame: FrameId,
        flags: EntryFlags,
    ) {
        let old = self.store.node(l1).entry(idx);
        if old.is_page() {
            mem.dec_ref(old.frame());
        }
        self.store.node_mut(l1).set(idx, Entry::page(frame, flags));
    }

    /// Walks the table chain to the L1 slot covering `va`, without
    /// splitting or allocating. Returns the L1 table and slot index even
    /// when the leaf entry is empty or swapped.
    fn walk_l1(&self, root: TableId, va: VirtAddr) -> Option<(TableId, usize)> {
        let mut cur = root;
        for level in (2..=4).rev() {
            let entry = self.store.node(cur).entry(va.table_index(level));
            if !entry.is_table() {
                return None;
            }
            cur = entry.next_table();
        }
        Some((cur, va.table_index(1)))
    }

    /// Resolves a read access (public for direct use by runtimes and tests).
    pub fn touch_read(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
    ) -> Result<FrameId, PageFault> {
        if let Some((l1, idx)) = self.walk_l1(space.root(), va) {
            let entry = self.store.node(l1).entry(idx);
            if entry.is_page() {
                self.stats.levels_walked += 3;
                // Hardware sets the accessed bit on every touch; model it
                // in place (the harvest sweep is the consumer).
                if !entry.flags().contains(EntryFlags::ACCESSED) {
                    self.store
                        .node_mut(l1)
                        .set(idx, entry.with_flags(entry.flags() | EntryFlags::ACCESSED));
                }
                return Ok(entry.frame());
            }
            if entry.is_swapped() {
                let l1 = self
                    .exclusive_l1(mem, space.root(), va)
                    .map_err(|_| self.oom(va))?;
                return self.swap_in(mem, space, l1, va, AccessKind::Read);
            }
        }
        // Demand-zero read: materialize a zero frame (counts as private).
        let region = space
            .region_at(va)
            .copied()
            .ok_or(PageFault::Unmapped(va))?;
        if !region.demand_zero {
            self.stats.hard_faults += 1;
            return Err(PageFault::Unmapped(va));
        }
        let frame = mem
            .alloc(seuss_mem::FrameKind::Data)
            .map_err(|_| self.oom(va))?;
        let mut flags = EntryFlags::USER | EntryFlags::ACCESSED;
        if region.writable {
            flags = flags | EntryFlags::WRITABLE;
        }
        self.map_page(mem, space, va.page_base(), frame, flags)
            .map_err(|_| self.oom(va))?;
        self.stats.demand_zero_allocs += 1;
        self.tracer.event(TraceEvent::PageFault);
        space.note_private_page();
        Ok(frame)
    }

    /// Resolves a write access (public for direct use by runtimes and
    /// tests): the one-page [`Mmu::write_run`], returning the page's frame.
    pub fn touch_write(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
    ) -> Result<FrameId, PageFault> {
        self.write_leaf_run(mem, space, va, 1, &[], &mut None)
    }

    /// Writes `word` at `va`'s page offset in each of `pages` consecutive
    /// pages, starting with `va`'s; an empty `word` only dirties them.
    ///
    /// The outcome is exactly that of a [`Mmu::touch_write`] and a frame
    /// write per page, in ascending order: the same frames, counters and
    /// dirty set, and on a fault the same error at the same page, with
    /// the pages before it written. Only [`OpStats::levels_walked`] is
    /// lower, because the run walks to each leaf table once.
    ///
    /// The word is written once, into the run's first never-written
    /// page; the run's other never-written pages share that page's
    /// content ([`PhysMemory::share_content`]), which is exactly what
    /// the same write would have given them.
    ///
    /// # Panics
    ///
    /// Panics if `word` crosses the page boundary.
    pub fn write_run(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        pages: u64,
        word: &[u8],
    ) -> Result<(), PageFault> {
        assert!(
            va.page_offset() + word.len() <= PAGE_SIZE,
            "run word crosses a page boundary"
        );
        let mut done = 0;
        // The run's first never-written page, once the word is in it.
        let mut written = None;
        while done < pages {
            let cur = va.offset(done * PAGE_SIZE as u64);
            let n = (pages - done).min((TABLE_ENTRIES - cur.table_index(1)) as u64);
            self.write_leaf_run(mem, space, cur, n, word, &mut written)?;
            done += n;
        }
        Ok(())
    }

    /// The part of a run under one leaf table: `n >= 1` pages from `va`'s.
    /// Returns the last page's frame. `written` is the run's first
    /// never-written page once it holds `word`.
    fn write_leaf_run(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        n: u64,
        word: &[u8],
        written: &mut Option<FrameId>,
    ) -> Result<FrameId, PageFault> {
        let l1 = self
            .exclusive_l1(mem, space.root(), va)
            .map_err(|_| self.oom(va))?;
        let first = va.table_index(1);
        let mut frame = None;
        for (k, idx) in (first..first + n as usize).enumerate() {
            let page = va.offset(k as u64 * PAGE_SIZE as u64);
            let f = self.write_entry(mem, space, l1, idx, page)?;
            if !word.is_empty() {
                let fresh = !mem.is_written(f);
                match *written {
                    Some(src) if fresh => mem.share_content(f, src),
                    _ => {
                        mem.write(f, page.page_offset(), word);
                        if fresh {
                            *written = Some(f);
                        }
                    }
                }
            }
            frame = Some(f);
        }
        Ok(frame.expect("a leaf run holds at least one page"))
    }

    /// Resolves a write to entry `idx` of `l1`, an L1 table exclusive to
    /// `space`, for the page at `va`: a COW break, a flag update, a
    /// swap-in or a demand-zero allocation.
    fn write_entry(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        l1: TableId,
        idx: usize,
        va: VirtAddr,
    ) -> Result<FrameId, PageFault> {
        let entry = self.store.node(l1).entry(idx);
        let frame = if entry.is_page() {
            let flags = entry.flags();
            if !allows_write(flags) {
                self.stats.hard_faults += 1;
                return Err(PageFault::ProtectionWrite(va));
            }
            let frame = entry.frame();
            if mem.refcount(frame) > 1 {
                // COW break: clone into a private frame.
                let clone = mem.clone_frame(frame).map_err(|_| self.oom(va))?;
                mem.dec_ref(frame);
                self.store
                    .node_mut(l1)
                    .set(idx, Entry::page(clone, written(flags)));
                self.stats.cow_clones += 1;
                self.tracer.event(TraceEvent::CowBreak);
                space.note_private_page();
                clone
            } else {
                self.store
                    .node_mut(l1)
                    .set(idx, entry.with_flags(written(flags)));
                frame
            }
        } else if entry.is_swapped() {
            return self.swap_in(mem, space, l1, va, AccessKind::Write);
        } else {
            // Unmapped: demand-zero if the region allows it.
            let region = space
                .region_at(va)
                .copied()
                .ok_or(PageFault::Unmapped(va))?;
            if !region.writable {
                self.stats.hard_faults += 1;
                return Err(PageFault::ProtectionWrite(va));
            }
            if !region.demand_zero {
                self.stats.hard_faults += 1;
                return Err(PageFault::Unmapped(va));
            }
            let frame = mem
                .alloc(seuss_mem::FrameKind::Data)
                .map_err(|_| self.oom(va))?;
            let flags =
                EntryFlags::USER | EntryFlags::WRITABLE | EntryFlags::DIRTY | EntryFlags::ACCESSED;
            self.store.node_mut(l1).set(idx, Entry::page(frame, flags));
            self.stats.demand_zero_allocs += 1;
            self.tracer.event(TraceEvent::PageFault);
            space.note_private_page();
            frame
        };
        space.note_write(va);
        Ok(frame)
    }

    /// Faults the swapped-out page at `va`, whose entry sits in `l1` (an
    /// L1 table exclusive to `space`), back in through the installed
    /// pager: reads the device block and rewrites the entry as a present
    /// private frame with its preserved pre-demotion flags. The device
    /// read's virtual cost accumulates in [`OpStats::swap_in_nanos`] for
    /// the caller to attribute.
    fn swap_in(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        l1: TableId,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<FrameId, PageFault> {
        let idx = va.table_index(1);
        let entry = self.store.node(l1).entry(idx);
        debug_assert!(entry.is_swapped(), "swap_in on a non-swapped entry");
        let flags = entry.swap_flags();
        if kind == AccessKind::Write && !allows_write(flags) {
            self.stats.hard_faults += 1;
            return Err(PageFault::ProtectionWrite(va));
        }
        let paged = match self.pager.as_mut() {
            Some(p) => p.page_in(entry.swap_block()),
            None => None,
        };
        let Some((content, nanos)) = paged else {
            self.stats.hard_faults += 1;
            return Err(PageFault::SwappedOut(va));
        };
        let frame = mem
            .alloc(seuss_mem::FrameKind::Data)
            .map_err(|_| self.oom(va))?;
        mem.set_content(frame, content);
        let flags = match kind {
            AccessKind::Read => flags.union(EntryFlags::ACCESSED),
            AccessKind::Write => written(flags),
        };
        self.store.node_mut(l1).set(idx, Entry::page(frame, flags));
        self.stats.swap_ins += 1;
        self.stats.swap_in_nanos += nanos;
        self.tracer.event(TraceEvent::TierPageIn);
        space.note_private_page();
        if kind == AccessKind::Write {
            space.note_write(va);
        }
        Ok(frame)
    }

    /// Demotes the mapped page at `va` under `root` to device block
    /// `block`: the entry becomes a swapped placeholder preserving its
    /// flags, the frame reference is dropped, and the page's content is
    /// returned for the caller to persist. Splits shared tables on the
    /// way down, so sharers (a resident ancestor snapshot, live UCs)
    /// keep their present mappings untouched.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not a present leaf mapping under `root`.
    pub fn demote_page(
        &mut self,
        mem: &mut PhysMemory,
        root: TableId,
        va: VirtAddr,
        block: u64,
    ) -> Result<PageContent, MemError> {
        let l1 = self.exclusive_l1(mem, root, va)?;
        let idx = va.table_index(1);
        let entry = self.store.node(l1).entry(idx);
        assert!(entry.is_page(), "demote_page on a non-present entry");
        let frame = entry.frame();
        let content = mem.content_of(frame);
        self.store
            .node_mut(l1)
            .set(idx, Entry::swapped(block, entry.flags()));
        mem.dec_ref(frame);
        Ok(content)
    }

    /// Promotes the swapped entry at `va` under `root` back to a present
    /// mapping holding `content` in a fresh private frame, restoring the
    /// preserved pre-demotion flags. Used by the eager and prefetch
    /// restore policies (the lazy policy promotes through page faults).
    ///
    /// # Panics
    ///
    /// Panics if the entry at `va` is not swapped.
    pub fn promote_page(
        &mut self,
        mem: &mut PhysMemory,
        root: TableId,
        va: VirtAddr,
        content: PageContent,
    ) -> Result<FrameId, MemError> {
        let l1 = self.exclusive_l1(mem, root, va)?;
        let idx = va.table_index(1);
        let entry = self.store.node(l1).entry(idx);
        assert!(entry.is_swapped(), "promote_page on a non-swapped entry");
        let frame = mem.alloc(seuss_mem::FrameKind::Data)?;
        mem.set_content(frame, content);
        self.store
            .node_mut(l1)
            .set(idx, Entry::page(frame, entry.swap_flags()));
        Ok(frame)
    }

    /// Collects every swapped-out leaf reachable from `root` as
    /// `(virtual page number, device block)` pairs in address order.
    pub fn collect_swapped(&self, root: TableId) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut stack = vec![(root, 0u64, 4u8)];
        while let Some((id, base, level)) = stack.pop() {
            for (i, entry) in self.store.node(id).entries.iter().enumerate() {
                let vpn = base | ((i as u64) << (9 * (level as u64 - 1)));
                if entry.is_table() {
                    stack.push((entry.next_table(), vpn, level - 1));
                } else if entry.is_swapped() {
                    out.push((vpn, entry.swap_block()));
                }
            }
        }
        out.sort_unstable_by_key(|&(vpn, _)| vpn);
        out
    }

    /// Sweeps the accessed bits under `root`: returns the virtual page
    /// numbers of every leaf mapping touched since the last sweep (in
    /// address order) and clears their A bits in place. This is the
    /// REAP-style working-set harvest — the bits the hardware model sets
    /// on every touch, consumed here for the first time.
    pub fn harvest_and_clear_accessed(&mut self, root: TableId) -> Vec<u64> {
        let mut hits: Vec<(TableId, usize, u64)> = Vec::new();
        let mut stack = vec![(root, 0u64, 4u8)];
        while let Some((id, base, level)) = stack.pop() {
            for (i, &entry) in self.store.node(id).entries.iter().enumerate() {
                let vpn = base | ((i as u64) << (9 * (level as u64 - 1)));
                if entry.is_table() {
                    stack.push((entry.next_table(), vpn, level - 1));
                } else if entry.is_page() && entry.flags().contains(EntryFlags::ACCESSED) {
                    hits.push((id, i, vpn));
                }
            }
        }
        let mut vpns: Vec<u64> = hits.iter().map(|&(_, _, vpn)| vpn).collect();
        for (id, i, _) in hits {
            let entry = self.store.node(id).entry(i);
            self.store.node_mut(id).set(
                i,
                entry.with_flags(entry.flags().without(EntryFlags::ACCESSED)),
            );
        }
        vpns.sort_unstable();
        vpns.dedup();
        vpns
    }

    fn oom(&mut self, va: VirtAddr) -> PageFault {
        self.stats.hard_faults += 1;
        PageFault::OutOfMemory(va)
    }

    /// Writes bytes through the address space, spanning pages as needed.
    pub fn write_bytes(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), PageFault> {
        let mut off = 0usize;
        while off < bytes.len() {
            let cur = va.offset(off as u64);
            let page_off = cur.page_offset();
            let chunk = (PAGE_SIZE - page_off).min(bytes.len() - off);
            let frame = self.touch_write(mem, space, cur)?;
            mem.write(frame, page_off, &bytes[off..off + chunk]);
            off += chunk;
        }
        Ok(())
    }

    /// Reads bytes through the address space, spanning pages as needed.
    pub fn read_bytes(
        &mut self,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        va: VirtAddr,
        out: &mut [u8],
    ) -> Result<(), PageFault> {
        let mut off = 0usize;
        while off < out.len() {
            let cur = va.offset(off as u64);
            let page_off = cur.page_offset();
            let chunk = (PAGE_SIZE - page_off).min(out.len() - off);
            let frame = self.touch_read(mem, space, cur)?;
            mem.read(frame, page_off, &mut out[off..off + chunk]);
            off += chunk;
        }
        Ok(())
    }

    /// Shallow-clones a root: a new level-4 table whose entries reference
    /// the same children. This is both snapshot capture and UC deploy.
    pub fn shallow_clone(
        &mut self,
        mem: &mut PhysMemory,
        root: TableId,
    ) -> Result<TableId, MemError> {
        let new = self.store.clone_referencing(mem, root)?;
        self.stats.shallow_clones += 1;
        self.stats.entries_copied += TABLE_ENTRIES as u64;
        Ok(new)
    }

    /// Eagerly deep-clones the whole page-table *structure* (every table
    /// level copied; data frames shared read-only). This is the paper's
    /// literal "shallow copy of snapshot page table structure" applied to
    /// all levels at deploy time; the production path uses the lazy
    /// root-only [`Mmu::shallow_clone`] instead. Kept for the ablation
    /// benchmark comparing the two (DESIGN.md design choice 1).
    pub fn deep_clone_tables(
        &mut self,
        mem: &mut PhysMemory,
        root: TableId,
    ) -> Result<TableId, MemError> {
        let new_root = self.store.clone_node(mem, root)?;
        self.stats.entries_copied += TABLE_ENTRIES as u64;
        let level = self.store.node(new_root).level;
        for idx in 0..self.store.node(new_root).entries.len() {
            let entry = self.store.node(new_root).entry(idx);
            if entry.is_table() {
                debug_assert!(level > 1, "table pointer in a leaf table");
                let child = self.deep_clone_tables(mem, entry.next_table())?;
                self.store.node_mut(new_root).set(idx, Entry::table(child));
            } else if entry.is_page() {
                mem.inc_ref(entry.frame());
            }
        }
        Ok(new_root)
    }

    /// Models loading CR3: counts a TLB flush.
    pub fn switch_to(&mut self, _root: TableId) {
        self.stats.tlb_flushes += 1;
        self.tracer.event(TraceEvent::TlbFlush);
    }

    /// Collects all leaf mappings reachable from `root` as
    /// `(virtual page number, frame)` pairs, in address order.
    pub fn collect_mapped(&self, root: TableId) -> Vec<(u64, FrameId)> {
        let mut out = Vec::new();
        self.collect_rec(root, 0, 4, &mut out);
        out.sort_unstable_by_key(|&(vpn, _)| vpn);
        out
    }

    fn collect_rec(&self, id: TableId, base_vpn: u64, level: u8, out: &mut Vec<(u64, FrameId)>) {
        let node = self.store.node(id);
        for (i, entry) in node.entries.iter().enumerate() {
            let vpn = base_vpn | ((i as u64) << (9 * (level as u64 - 1)));
            if entry.is_table() {
                self.collect_rec(entry.next_table(), vpn, level - 1, out);
            } else if entry.is_page() {
                out.push((vpn, entry.frame()));
            }
        }
    }

    /// Collects every leaf mapping of `root` whose frame differs from
    /// `base`'s at the same virtual page, as `(virtual page number,
    /// frame)` pairs in address order: a snapshot's diff over its parent.
    /// A page that `base` lacks, or holds swapped out, counts as
    /// different; with no `base`, this is [`Mmu::collect_mapped`].
    ///
    /// The two trees are walked in lockstep, and a subtree both point at
    /// through the same table is skipped whole, so the walk costs what
    /// `root` owns, not what it maps.
    pub fn diff_mapped(&self, root: TableId, base: Option<TableId>) -> Vec<(u64, FrameId)> {
        let mut out = Vec::new();
        self.diff_rec(root, base, 0, 4, &mut out);
        out
    }

    fn diff_rec(
        &self,
        id: TableId,
        base: Option<TableId>,
        vpn_prefix: u64,
        level: u8,
        out: &mut Vec<(u64, FrameId)>,
    ) {
        if base == Some(id) {
            return;
        }
        let base_node = base.map(|b| self.store.node(b));
        for (i, entry) in self.store.node(id).entries.iter().enumerate() {
            let vpn = vpn_prefix | ((i as u64) << (9 * (level as u64 - 1)));
            let theirs = base_node.map_or(Entry::EMPTY, |n| n.entry(i));
            if entry.is_table() {
                let sub = theirs.is_table().then(|| theirs.next_table());
                self.diff_rec(entry.next_table(), sub, vpn, level - 1, out);
            } else if entry.is_page() && !(theirs.is_page() && theirs.frame() == entry.frame()) {
                out.push((vpn, entry.frame()));
            }
        }
    }

    /// Number of page-table pages reachable from `root` (shared counted once).
    pub fn table_pages(&self, root: TableId) -> u64 {
        let mut count = 0u64;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            count += 1;
            for entry in self.store.node(id).entries.iter() {
                if entry.is_table() {
                    stack.push(entry.next_table());
                }
            }
        }
        count
    }
}

/// Whether a page mapped with `flags` may be written, after a COW break
/// if need be.
fn allows_write(flags: EntryFlags) -> bool {
    flags.contains(EntryFlags::WRITABLE) || flags.contains(EntryFlags::COW)
}

/// The flags of a page once written: private, writable, dirty, accessed.
fn written(flags: EntryFlags) -> EntryFlags {
    flags
        .without(EntryFlags::COW)
        .union(EntryFlags::WRITABLE | EntryFlags::DIRTY | EntryFlags::ACCESSED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Region, RegionKind};
    use seuss_mem::FrameKind;

    fn heap_region(start: u64, pages: u64) -> Region {
        Region {
            start: VirtAddr::new(start),
            pages,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        }
    }

    fn setup() -> (PhysMemory, Mmu, AddressSpace) {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        space.add_region(heap_region(0x10_0000, 4096));
        (mem, mmu, space)
    }

    #[test]
    fn demand_zero_write_allocates_and_maps() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000);
        let frame = mmu.touch_write(&mut mem, &mut space, va).unwrap();
        assert_eq!(mmu.translate(space.root(), va).unwrap().frame(), frame);
        assert_eq!(space.dirty_count(), 1);
        assert_eq!(space.private_pages(), 1);
        assert_eq!(mmu.stats.demand_zero_allocs, 1);
        // Four tables: root + 3 intermediates.
        assert_eq!(mem.stats().page_table_frames, 4);
        assert_eq!(mem.stats().data_frames, 1);
    }

    #[test]
    fn unmapped_outside_regions_faults() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0xDEAD_0000_0000);
        assert_eq!(
            mmu.touch_write(&mut mem, &mut space, va),
            Err(PageFault::Unmapped(va))
        );
        assert_eq!(
            mmu.touch_read(&mut mem, &mut space, va),
            Err(PageFault::Unmapped(va))
        );
    }

    #[test]
    fn write_read_round_trip() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0800);
        mmu.write_bytes(&mut mem, &mut space, va, b"hello seuss")
            .unwrap();
        let mut buf = [0u8; 11];
        mmu.read_bytes(&mut mem, &mut space, va, &mut buf).unwrap();
        assert_eq!(&buf, b"hello seuss");
    }

    #[test]
    fn cross_page_write_spans_frames() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000 + PAGE_SIZE as u64 - 4);
        mmu.write_bytes(&mut mem, &mut space, va, &[1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let mut buf = [0u8; 8];
        mmu.read_bytes(&mut mem, &mut space, va, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(space.dirty_count(), 2);
    }

    #[test]
    fn read_only_mapping_rejects_writes() {
        let (mut mem, mut mmu, mut space) = setup();
        let frame = mem.alloc(FrameKind::Data).unwrap();
        let va = VirtAddr::new(0x50_0000_0000);
        // Text page: present, user, not writable, not COW.
        mmu.map_page(&mut mem, &mut space, va, frame, EntryFlags::USER)
            .unwrap();
        assert_eq!(
            mmu.touch_write(&mut mem, &mut space, va),
            Err(PageFault::ProtectionWrite(va))
        );
        // Reads are fine.
        assert_eq!(mmu.touch_read(&mut mem, &mut space, va), Ok(frame));
    }

    #[test]
    fn shallow_clone_shares_everything() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000);
        mmu.write_bytes(&mut mem, &mut space, va, b"base").unwrap();
        let frames_before = mem.stats().used_frames;

        let clone_root = mmu.shallow_clone(&mut mem, space.root()).unwrap();
        // Only one new frame: the cloned root table itself.
        assert_eq!(mem.stats().used_frames, frames_before + 1);
        // Both roots translate to the same frame.
        let f0 = mmu.translate(space.root(), va).unwrap().frame();
        let f1 = mmu.translate(clone_root, va).unwrap().frame();
        assert_eq!(f0, f1);
        mmu.release_root(&mut mem, clone_root);
        assert_eq!(mem.stats().used_frames, frames_before);
    }

    #[test]
    fn cow_break_after_clone_preserves_original() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000);
        mmu.write_bytes(&mut mem, &mut space, va, b"original")
            .unwrap();
        // "Capture": clone the root, then keep writing through the space.
        let snapshot_root = mmu.shallow_clone(&mut mem, space.root()).unwrap();
        space.clear_dirty();
        space.reset_private_pages();

        mmu.write_bytes(&mut mem, &mut space, va, b"mutated!")
            .unwrap();
        assert_eq!(mmu.stats.cow_clones, 1);
        assert!(mmu.stats.tables_split >= 3, "path split down to L1");
        assert_eq!(space.private_pages(), 1);

        // The snapshot still sees the original bytes.
        let snap_frame = mmu.translate(snapshot_root, va).unwrap().frame();
        let mut buf = [0u8; 8];
        mem.read(snap_frame, 0, &mut buf);
        assert_eq!(&buf, b"original");
        // The space sees the mutation.
        let live_frame = mmu.translate(space.root(), va).unwrap().frame();
        assert_ne!(snap_frame, live_frame);
        mmu.release_root(&mut mem, snapshot_root);
    }

    #[test]
    fn second_write_to_same_page_is_free() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000);
        mmu.touch_write(&mut mem, &mut space, va).unwrap();
        let snap = mmu.shallow_clone(&mut mem, space.root()).unwrap();
        mmu.touch_write(&mut mem, &mut space, va).unwrap();
        let clones_after_first = mmu.stats.cow_clones;
        mmu.touch_write(&mut mem, &mut space, va.offset(8)).unwrap();
        assert_eq!(mmu.stats.cow_clones, clones_after_first, "no second clone");
        mmu.release_root(&mut mem, snap);
    }

    #[test]
    fn a_run_over_a_snapshot_splits_once_and_breaks_every_page() {
        let (mut mem, mut mmu, mut space) = setup();
        let va = VirtAddr::new(0x10_0000);
        mmu.write_run(&mut mem, &mut space, va, 100, b"seed")
            .unwrap();
        let snap = mmu.shallow_clone(&mut mem, space.root()).unwrap();
        space.clear_dirty();
        let before = mmu.stats;
        mmu.write_run(&mut mem, &mut space, va, 100, &[]).unwrap();
        let ops = mmu.stats.since(&before);
        // One walk and one split per level; every page broken once.
        assert_eq!((ops.levels_walked, ops.tables_split), (3, 3));
        assert_eq!(ops.cow_clones, 100);
        assert_eq!(space.dirty_count(), 100);
        for p in [0, 99] {
            let page = va.offset(p * PAGE_SIZE as u64);
            let own = mmu.translate(space.root(), page).unwrap().frame();
            let frozen = mmu.translate(snap, page).unwrap().frame();
            assert_ne!(own, frozen);
            assert_eq!((mem.refcount(own), mem.refcount(frozen)), (1, 1));
            let mut buf = [0u8; 4];
            mem.read(own, 0, &mut buf);
            assert_eq!(&buf, b"seed");
        }
        mmu.release_root(&mut mem, snap);
        mmu.destroy_space(&mut mem, space);
        assert_eq!(mem.stats().used_frames, 0);
    }

    #[test]
    fn a_committed_run_over_fresh_pages_holds_one_content_slot() {
        let (mut mem, mut mmu, mut space) = setup();
        // 160 pages from slot 456 of a leaf table: the run crosses into
        // the next one.
        let va = VirtAddr::new(0x10_0000 + 200 * PAGE_SIZE as u64).offset(704);
        let word = 1u64.to_le_bytes();
        mmu.write_run(&mut mem, &mut space, va, 160, &word).unwrap();
        assert_eq!(mem.content_slots_used(), 1);
        // Every page reads the word; a write through one page copies the
        // slot for that page alone.
        let last = va.offset(159 * PAGE_SIZE as u64);
        mmu.write_bytes(&mut mem, &mut space, last, &[7]).unwrap();
        assert_eq!(mem.content_slots_used(), 2);
        for p in 0..160 {
            let mut buf = [0u8; 8];
            let page = va.offset(p * PAGE_SIZE as u64);
            mmu.read_bytes(&mut mem, &mut space, page, &mut buf)
                .unwrap();
            let want = if p == 159 {
                [7, 0, 0, 0, 0, 0, 0, 0]
            } else {
                word
            };
            assert_eq!(buf, want, "page {p}");
        }
        mmu.destroy_space(&mut mem, space);
        assert_eq!(mem.content_slots_used(), 0);
    }

    #[test]
    fn destroy_space_releases_all_frames() {
        let (mut mem, mut mmu, mut space) = setup();
        for i in 0..100u64 {
            let va = VirtAddr::new(0x10_0000 + i * PAGE_SIZE as u64);
            mmu.touch_write(&mut mem, &mut space, va).unwrap();
        }
        assert!(mem.stats().used_frames > 100);
        mmu.destroy_space(&mut mem, space);
        assert_eq!(mem.stats().used_frames, 0);
        assert_eq!(mmu.store.live_tables(), 0);
    }

    #[test]
    fn many_clones_share_one_image() {
        let (mut mem, mut mmu, mut space) = setup();
        // Build a 50-page "image".
        for i in 0..50u64 {
            let va = VirtAddr::new(0x10_0000 + i * PAGE_SIZE as u64);
            mmu.touch_write(&mut mem, &mut space, va).unwrap();
        }
        let base = mem.stats().used_frames;
        let mut roots = Vec::new();
        for _ in 0..100 {
            roots.push(mmu.shallow_clone(&mut mem, space.root()).unwrap());
        }
        // 100 clones cost 100 root-table frames, nothing else.
        assert_eq!(mem.stats().used_frames, base + 100);
        for r in roots {
            mmu.release_root(&mut mem, r);
        }
        assert_eq!(mem.stats().used_frames, base);
    }

    #[test]
    fn collect_mapped_in_order() {
        let (mut mem, mut mmu, mut space) = setup();
        for i in [5u64, 1, 3] {
            let va = VirtAddr::new(0x10_0000 + i * PAGE_SIZE as u64);
            mmu.touch_write(&mut mem, &mut space, va).unwrap();
        }
        let mapped = mmu.collect_mapped(space.root());
        let vpns: Vec<u64> = mapped.iter().map(|&(vpn, _)| vpn).collect();
        let base = VirtAddr::new(0x10_0000).page_number();
        assert_eq!(vpns, vec![base + 1, base + 3, base + 5]);
    }

    #[test]
    fn table_pages_counts_levels() {
        let (mut mem, mut mmu, mut space) = setup();
        mmu.touch_write(&mut mem, &mut space, VirtAddr::new(0x10_0000))
            .unwrap();
        assert_eq!(mmu.table_pages(space.root()), 4);
        // A second page in the same L1 adds no tables.
        mmu.touch_write(&mut mem, &mut space, VirtAddr::new(0x10_1000))
            .unwrap();
        assert_eq!(mmu.table_pages(space.root()), 4);
    }

    #[test]
    fn oom_during_fault_is_reported() {
        let mut mem = PhysMemory::new(4 * PAGE_SIZE as u64); // room for root + 3 tables only
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        space.add_region(heap_region(0x10_0000, 16));
        let va = VirtAddr::new(0x10_0000);
        match mmu.touch_write(&mut mem, &mut space, va) {
            Err(PageFault::OutOfMemory(_)) => {}
            other => panic!("expected OOM fault, got {other:?}"),
        }
    }
}
