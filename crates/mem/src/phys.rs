//! The simulated physical memory pool.
//!
//! [`PhysMemory`] hands out reference-counted 4 KiB frames up to a fixed
//! capacity. Everything the experiments measure about memory — snapshot
//! sizes, per-UC footprints, the density limits of Table 3 — reduces to the
//! counters maintained here. Refcounting implements page sharing: a frame
//! referenced by three snapshots and forty UCs is still one frame.
//!
//! The pool keeps one 8-byte record per frame: a `u32` holding the
//! refcount (0 marks a free slot) in its low 30 bits and the
//! [`FrameKind`] in its top 2, and a `u32` handle into a slab of
//! [`PageContent`], where handle 0 means never written. What needs a
//! frame's count, kind and slot together (an allocation, a COW break, a
//! free) touches one cache line, not three. Most frames on a node are
//! never written (boot-image pages, zero-content COW copies), so they
//! cost the host eight bytes each and no heap block.
//!
//! Content slots are shared copy-on-write: each slot counts the frames
//! that hold it. A COW break ([`PhysMemory::clone_frame`]) gives the
//! clone the source's slot, and [`PhysMemory::share_content`] gives one
//! frame's slot to another (every page of a committed run holds the
//! same word). The first write through a frame whose slot is shared
//! copies the slot first, so each frame still reads as its own bytes.
//! Sharing follows copy lineage only: nothing is hashed or looked up,
//! and no refcount, kind or [`MemStats`] counter sees it. A frame that
//! is freed drops its share, and a slot whose last share goes returns
//! to the slab, so a frame index handed out again reads as zeroes.
//! Frame indices are reused LIFO.

use crate::addr::PAGE_SIZE;
use crate::content::PageContent;
use crate::frame::{FrameId, FrameKind};

/// Errors from the frame pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The pool has no free frames left.
    OutOfFrames,
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfFrames => write!(f, "out of physical frames"),
        }
    }
}

impl std::error::Error for MemError {}

/// Aggregate pool statistics, broken down by [`FrameKind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Frames currently allocated (any kind).
    pub used_frames: u64,
    /// Total pool capacity in frames.
    pub capacity_frames: u64,
    /// Allocated page-table frames.
    pub page_table_frames: u64,
    /// Allocated data frames.
    pub data_frames: u64,
    /// Allocated kernel-metadata frames.
    pub kernel_meta_frames: u64,
    /// Lifetime allocation count (monotone).
    pub total_allocs: u64,
    /// Lifetime free count (monotone).
    pub total_frees: u64,
}

impl MemStats {
    /// Used memory in bytes.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.used_frames * PAGE_SIZE as u64
    }

    /// Free frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.capacity_frames - self.used_frames
    }

    /// Used memory in fractional MiB (the unit the paper's tables use).
    pub fn used_mib(&self) -> f64 {
        self.used_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Bits of [`Frame::meta`] below the kind: the refcount.
const REFS_MASK: u32 = (1 << 30) - 1;
/// Shift of the [`FrameKind`] in [`Frame::meta`].
const KIND_SHIFT: u32 = 30;

/// One frame's host record (see the module docs).
#[derive(Clone, Copy)]
struct Frame {
    /// Owners in the low 30 bits (0 marks a free slot), the usage class
    /// in the top 2 (stale in free slots).
    meta: u32,
    /// Index into the content slab; 0 means never written.
    slot: u32,
}

impl Frame {
    /// A frame of `kind` with one owner and no content.
    #[inline]
    fn new(kind: FrameKind) -> Frame {
        let bits = match kind {
            FrameKind::PageTable => 0,
            FrameKind::Data => 1,
            FrameKind::KernelMeta => 2,
        };
        Frame {
            meta: (bits << KIND_SHIFT) | 1,
            slot: 0,
        }
    }

    #[inline]
    fn refs(self) -> u32 {
        self.meta & REFS_MASK
    }

    #[inline]
    fn kind(self) -> FrameKind {
        match self.meta >> KIND_SHIFT {
            0 => FrameKind::PageTable,
            1 => FrameKind::Data,
            _ => FrameKind::KernelMeta,
        }
    }
}

/// A fixed-capacity pool of reference-counted 4 KiB frames, one record
/// per [`FrameId`] (see the module docs).
pub struct PhysMemory {
    /// Refcount, kind and content slot per frame.
    frames: Vec<Frame>,
    /// Free frame indices, reused last-freed first.
    free_list: Vec<u32>,
    /// Content slab; slot 0 is a placeholder so that 0 can mean "none".
    contents: Vec<PageContent>,
    /// Frames holding each slot of `contents`; 0 marks a free slot.
    content_shares: Vec<u32>,
    /// Free slots of `contents`.
    free_contents: Vec<u32>,
    stats: MemStats,
    /// Free-frame threshold below which [`PhysMemory::below_reclaim_threshold`]
    /// reports true (drives the SEUSS OOM daemon).
    reclaim_threshold_frames: u64,
    /// Frames transiently withheld from the pool by injected memory
    /// pressure (`seuss-faults`). Zero in a fault-free run, so the alloc
    /// gate and reclaim signal reduce exactly to their original forms.
    pressure_frames: u64,
}

impl PhysMemory {
    /// Creates a pool with capacity for `capacity_bytes` of frames.
    ///
    /// The reclaim threshold defaults to 2% of capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        let capacity_frames = capacity_bytes / PAGE_SIZE as u64;
        PhysMemory {
            frames: Vec::new(),
            free_list: Vec::new(),
            contents: vec![PageContent::Zero],
            content_shares: vec![0],
            free_contents: Vec::new(),
            stats: MemStats {
                capacity_frames,
                ..MemStats::default()
            },
            reclaim_threshold_frames: capacity_frames / 50,
            pressure_frames: 0,
        }
    }

    /// Creates a pool sized in whole MiB.
    pub fn with_mib(mib: u64) -> Self {
        Self::new(mib * 1024 * 1024)
    }

    /// Sets the OOM-daemon reclaim threshold, in frames.
    pub fn set_reclaim_threshold_frames(&mut self, frames: u64) {
        self.reclaim_threshold_frames = frames;
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// True when free frames have dropped below the reclaim threshold.
    /// Withheld pressure frames count as unavailable.
    pub fn below_reclaim_threshold(&self) -> bool {
        self.stats
            .free_frames()
            .saturating_sub(self.pressure_frames)
            < self.reclaim_threshold_frames
    }

    /// Withholds `frames` from the pool: the effective capacity shrinks
    /// until [`PhysMemory::release_pressure`]. Used by the fault
    /// subsystem to model transient memory pressure; repeated calls
    /// replace (not stack) the withheld amount.
    pub fn apply_pressure(&mut self, frames: u64) {
        self.pressure_frames = frames.min(self.stats.capacity_frames);
    }

    /// Lifts injected memory pressure.
    pub fn release_pressure(&mut self) {
        self.pressure_frames = 0;
    }

    /// Allocates one frame of the given kind with refcount 1.
    #[inline]
    pub fn alloc(&mut self, kind: FrameKind) -> Result<FrameId, MemError> {
        if self.stats.used_frames + self.pressure_frames >= self.stats.capacity_frames {
            return Err(MemError::OutOfFrames);
        }
        // A freed frame dropped its content, so a fresh record loses none.
        let idx = match self.free_list.pop() {
            Some(idx) => {
                self.frames[idx as usize] = Frame::new(kind);
                idx
            }
            None => {
                self.frames.push(Frame::new(kind));
                self.frames.len() as u32 - 1
            }
        };
        self.stats.used_frames += 1;
        self.stats.total_allocs += 1;
        *self.kind_counter(kind) += 1;
        Ok(FrameId(idx))
    }

    /// Allocates `n` frames, rolling back on partial failure.
    pub fn alloc_many(&mut self, kind: FrameKind, n: u64) -> Result<Vec<FrameId>, MemError> {
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.alloc(kind) {
                Ok(f) => out.push(f),
                Err(e) => {
                    for f in out {
                        self.dec_ref(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn kind_counter(&mut self, kind: FrameKind) -> &mut u64 {
        match kind {
            FrameKind::PageTable => &mut self.stats.page_table_frames,
            FrameKind::Data => &mut self.stats.data_frames,
            FrameKind::KernelMeta => &mut self.stats.kernel_meta_frames,
        }
    }

    /// The slot index of a live frame.
    #[inline]
    fn live(&self, frame: FrameId) -> usize {
        let idx = frame.0 as usize;
        assert!(self.frames[idx].refs() > 0, "use of freed frame {frame:?}");
        idx
    }

    /// Increments a frame's reference count (a new sharer).
    ///
    /// # Panics
    ///
    /// Panics if the frame has been freed, or if its count is at the
    /// packed limit of 2^30 - 1 owners.
    #[inline]
    pub fn inc_ref(&mut self, frame: FrameId) {
        let idx = self.live(frame);
        let rec = &mut self.frames[idx];
        assert!(rec.refs() < REFS_MASK, "refcount of {frame:?} at its limit");
        rec.meta += 1;
    }

    /// Drops one reference; frees the frame when the count reaches zero.
    ///
    /// Returns `true` if the frame was freed.
    ///
    /// # Panics
    ///
    /// Panics if the frame has been freed already.
    #[inline]
    pub fn dec_ref(&mut self, frame: FrameId) -> bool {
        let idx = self.live(frame);
        let rec = &mut self.frames[idx];
        rec.meta -= 1;
        if rec.refs() > 0 {
            return false;
        }
        let kind = rec.kind();
        self.clear_content(idx);
        self.free_list.push(frame.0);
        self.stats.used_frames -= 1;
        self.stats.total_frees += 1;
        *self.kind_counter(kind) -= 1;
        true
    }

    /// Current reference count of a frame.
    #[inline]
    pub fn refcount(&self, frame: FrameId) -> u32 {
        self.frames[self.live(frame)].refs()
    }

    /// Sets a live frame's reference count directly, so a test can reach
    /// the packed limit without 2^30 increments.
    #[cfg(test)]
    fn set_refcount(&mut self, frame: FrameId, refs: u32) {
        let idx = self.live(frame);
        let rec = &mut self.frames[idx];
        assert!(
            (1..=REFS_MASK).contains(&refs),
            "refcount {refs} out of range"
        );
        rec.meta = (rec.meta & !REFS_MASK) | refs;
    }

    /// The content of live frame slot `idx`.
    fn content(&self, idx: usize) -> &PageContent {
        &self.contents[self.frames[idx].slot as usize]
    }

    /// Takes a free content slot, holding `content` with one share.
    fn new_slot(&mut self, content: PageContent) -> u32 {
        match self.free_contents.pop() {
            Some(slot) => {
                self.contents[slot as usize] = content;
                self.content_shares[slot as usize] = 1;
                slot
            }
            None => {
                self.contents.push(content);
                self.content_shares.push(1);
                self.contents.len() as u32 - 1
            }
        }
    }

    /// The content of live frame slot `idx`, ready for a write through
    /// this frame alone: a frame with no content slot takes a fresh one,
    /// and one whose slot is shared takes a copy of it.
    fn content_mut(&mut self, idx: usize) -> &mut PageContent {
        let slot = self.frames[idx].slot as usize;
        if slot == 0 {
            self.frames[idx].slot = self.new_slot(PageContent::Zero);
        } else if self.content_shares[slot] > 1 {
            self.content_shares[slot] -= 1;
            let copy = self.contents[slot].clone();
            self.frames[idx].slot = self.new_slot(copy);
        }
        &mut self.contents[self.frames[idx].slot as usize]
    }

    /// Drops frame slot `idx`'s share of its content, leaving the frame
    /// reading as zeroes. A content slot with no shares left returns to
    /// the slab.
    fn clear_content(&mut self, idx: usize) {
        let slot = std::mem::take(&mut self.frames[idx].slot) as usize;
        if slot != 0 {
            self.content_shares[slot] -= 1;
            if self.content_shares[slot] == 0 {
                self.contents[slot] = PageContent::Zero;
                self.free_contents.push(slot as u32);
            }
        }
    }

    /// Gives live frame slot `dst` a share of `src`'s content in place
    /// of its own.
    fn share_slot(&mut self, dst: usize, src: usize) {
        let slot = self.frames[src].slot;
        if self.frames[dst].slot == slot {
            return;
        }
        self.clear_content(dst);
        if slot != 0 {
            self.content_shares[slot as usize] += 1;
            self.frames[dst].slot = slot;
        }
    }

    /// Whether a frame holds content, its own or shared: false until
    /// the frame, or the frame it was cloned from, is written, and after
    /// its content is set to zero. A frame that holds none reads as
    /// zeroes.
    #[inline]
    pub fn is_written(&self, frame: FrameId) -> bool {
        self.frames[self.live(frame)].slot != 0
    }

    /// Content slots in use: the distinct contents the pool keeps for
    /// its written frames. A host-memory figure only; no simulated cost
    /// or counter reads it.
    pub fn content_slots_used(&self) -> usize {
        self.contents.len() - 1 - self.free_contents.len()
    }

    /// Writes bytes into a frame at `offset`, materializing content
    /// lazily and sparsely (see [`PageContent`]).
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the frame boundary or the frame is freed.
    #[inline]
    pub fn write(&mut self, frame: FrameId, offset: usize, bytes: &[u8]) {
        let idx = self.live(frame);
        self.content_mut(idx).write(offset, bytes);
    }

    /// Reads bytes from a frame at `offset`. Unmaterialized content reads as
    /// zeroes (fresh frames are zero-filled).
    ///
    /// # Panics
    ///
    /// Panics if the read crosses the frame boundary or the frame is freed.
    #[inline]
    pub fn read(&self, frame: FrameId, offset: usize, out: &mut [u8]) {
        self.content(self.live(frame)).read(offset, out);
    }

    /// Clones a frame into a newly allocated frame of the same kind,
    /// sharing the source's content until either frame is written.
    ///
    /// This is the COW break / snapshot page-clone primitive. The clone's
    /// refcount is 1; the source keeps its count.
    #[inline]
    pub fn clone_frame(&mut self, src: FrameId) -> Result<FrameId, MemError> {
        let src_idx = self.live(src);
        let dst = self.alloc(self.frames[src_idx].kind())?;
        self.share_slot(dst.0 as usize, src_idx);
        Ok(dst)
    }

    /// Gives frame `dst` the content of frame `src` in place of its own,
    /// shared until either frame is written: the copy a COW break makes,
    /// into a frame that exists already.
    ///
    /// # Panics
    ///
    /// Panics if either frame is freed.
    pub fn share_content(&mut self, dst: FrameId, src: FrameId) {
        let (dst_idx, src_idx) = (self.live(dst), self.live(src));
        self.share_slot(dst_idx, src_idx);
    }

    /// A copy of a frame's logical content (snapshot export).
    pub fn content_of(&self, frame: FrameId) -> PageContent {
        self.content(self.live(frame)).clone()
    }

    /// Replaces a frame's content wholesale (snapshot import).
    pub fn set_content(&mut self, frame: FrameId, content: PageContent) {
        let idx = self.live(frame);
        self.clear_content(idx);
        if !matches!(content, PageContent::Zero) {
            self.frames[idx].slot = self.new_slot(content);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut m = PhysMemory::with_mib(1);
        assert_eq!(m.stats().capacity_frames, 256);
        let f = m.alloc(FrameKind::Data).unwrap();
        assert_eq!(m.stats().used_frames, 1);
        assert_eq!(m.refcount(f), 1);
        assert!(m.dec_ref(f));
        assert_eq!(m.stats().used_frames, 0);
        assert_eq!(m.stats().total_frees, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = PhysMemory::new(2 * PAGE_SIZE as u64);
        m.alloc(FrameKind::Data).unwrap();
        m.alloc(FrameKind::Data).unwrap();
        assert_eq!(m.alloc(FrameKind::Data), Err(MemError::OutOfFrames));
    }

    #[test]
    fn alloc_many_rolls_back() {
        let mut m = PhysMemory::new(3 * PAGE_SIZE as u64);
        m.alloc(FrameKind::Data).unwrap();
        assert!(m.alloc_many(FrameKind::Data, 5).is_err());
        // The two transiently allocated frames were returned.
        assert_eq!(m.stats().used_frames, 1);
    }

    #[test]
    fn refcount_sharing() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        m.inc_ref(f);
        m.inc_ref(f);
        assert_eq!(m.refcount(f), 3);
        assert!(!m.dec_ref(f));
        assert!(!m.dec_ref(f));
        assert_eq!(m.stats().used_frames, 1);
        assert!(m.dec_ref(f));
        assert_eq!(m.stats().used_frames, 0);
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        let idx = f.index();
        m.dec_ref(f);
        let g = m.alloc(FrameKind::PageTable).unwrap();
        assert_eq!(g.index(), idx);
        assert_eq!(m.frames[g.index() as usize].kind(), FrameKind::PageTable);
    }

    #[test]
    fn content_read_write_clone() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        let mut buf = [0xAAu8; 4];
        m.read(f, 100, &mut buf);
        assert_eq!(buf, [0; 4]); // fresh frames read as zero
        m.write(f, 100, &[1, 2, 3, 4]);
        let g = m.clone_frame(f).unwrap();
        m.write(f, 100, &[9, 9, 9, 9]); // mutate source after clone
        m.read(g, 100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn clones_share_content_until_written() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        m.write(f, 8, &[1; 200]); // dense
        let g = m.clone_frame(f).unwrap();
        let h = m.alloc(FrameKind::Data).unwrap();
        m.share_content(h, g);
        assert_eq!(m.content_slots_used(), 1);
        m.write(g, 8, &[2]);
        assert_eq!(m.content_slots_used(), 2);
        let mut buf = [0u8; 2];
        for (frame, want) in [(f, [1, 1]), (g, [2, 1]), (h, [1, 1])] {
            m.read(frame, 8, &mut buf);
            assert_eq!(buf, want, "{frame:?}");
        }
        // The slot outlives the frame that wrote it, and goes with its
        // last sharer.
        m.dec_ref(f);
        assert_eq!(m.content_slots_used(), 2);
        m.set_content(h, PageContent::Zero);
        assert!(!m.is_written(h));
        assert_eq!(m.content_slots_used(), 1);
        m.dec_ref(g);
        assert_eq!(m.content_slots_used(), 0);
    }

    #[test]
    fn frame_records_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 8);
    }

    #[test]
    fn counts_up_to_the_packed_limit_keep_the_kind() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::KernelMeta).unwrap();
        m.set_refcount(f, REFS_MASK - 1);
        m.inc_ref(f);
        assert_eq!(m.refcount(f), REFS_MASK);
        assert_eq!(m.frames[f.index() as usize].kind(), FrameKind::KernelMeta);
        m.set_refcount(f, 1);
        assert!(m.dec_ref(f));
        assert_eq!(m.stats().kernel_meta_frames, 0);
    }

    #[test]
    #[should_panic(expected = "at its limit")]
    fn inc_ref_at_the_packed_limit_panics() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        m.set_refcount(f, REFS_MASK);
        m.inc_ref(f);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_boundary_write_panics() {
        let mut m = PhysMemory::with_mib(1);
        let f = m.alloc(FrameKind::Data).unwrap();
        m.write(f, PAGE_SIZE - 2, &[0; 4]);
    }

    #[test]
    fn kind_accounting() {
        let mut m = PhysMemory::with_mib(1);
        let a = m.alloc(FrameKind::PageTable).unwrap();
        let _b = m.alloc(FrameKind::Data).unwrap();
        let _c = m.alloc(FrameKind::KernelMeta).unwrap();
        let s = m.stats();
        assert_eq!(
            (s.page_table_frames, s.data_frames, s.kernel_meta_frames),
            (1, 1, 1)
        );
        m.dec_ref(a);
        assert_eq!(m.stats().page_table_frames, 0);
    }

    #[test]
    fn reclaim_threshold_signal() {
        let mut m = PhysMemory::new(10 * PAGE_SIZE as u64);
        m.set_reclaim_threshold_frames(3);
        let mut held = Vec::new();
        for _ in 0..7 {
            held.push(m.alloc(FrameKind::Data).unwrap());
        }
        assert!(!m.below_reclaim_threshold()); // 3 free, not < 3
        held.push(m.alloc(FrameKind::Data).unwrap());
        assert!(m.below_reclaim_threshold()); // 2 free
    }

    #[test]
    fn pressure_shrinks_effective_capacity_then_lifts() {
        let mut m = PhysMemory::new(10 * PAGE_SIZE as u64);
        m.set_reclaim_threshold_frames(2);
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(m.alloc(FrameKind::Data).unwrap());
        }
        assert!(!m.below_reclaim_threshold()); // 6 free
        m.apply_pressure(5);
        assert_eq!(m.pressure_frames, 5);
        // 6 free - 5 withheld = 1 available < threshold 2.
        assert!(m.below_reclaim_threshold());
        // One more alloc fits (4 used + 5 pressure = 9 < 10), the next not.
        held.push(m.alloc(FrameKind::Data).unwrap());
        assert_eq!(m.alloc(FrameKind::Data), Err(MemError::OutOfFrames));
        m.release_pressure();
        assert!(!m.below_reclaim_threshold());
        held.push(m.alloc(FrameKind::Data).unwrap());
        // Pressure never appears in the reported stats: the frames come
        // back untouched once the window closes.
        assert_eq!(m.stats().used_frames, 6);
        assert_eq!(m.stats().capacity_frames, 10);
    }

    #[test]
    fn pressure_clamps_to_capacity() {
        let mut m = PhysMemory::new(4 * PAGE_SIZE as u64);
        m.apply_pressure(1_000_000);
        assert_eq!(m.pressure_frames, 4);
        assert_eq!(m.alloc(FrameKind::Data), Err(MemError::OutOfFrames));
        m.release_pressure();
        assert!(m.alloc(FrameKind::Data).is_ok());
    }

    #[test]
    fn used_mib_reporting() {
        let mut m = PhysMemory::with_mib(4);
        m.alloc_many(FrameKind::Data, 256).unwrap();
        assert!((m.stats().used_mib() - 1.0).abs() < 1e-9);
    }
}
