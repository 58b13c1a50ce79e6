//! The simulated physical memory pool.
//!
//! [`PhysMemory`] hands out reference-counted 4 KiB frames up to a fixed
//! capacity. Everything the experiments measure about memory — snapshot
//! sizes, per-UC footprints, the density limits of Table 3 — reduces to the
//! counters maintained here. Refcounting implements page sharing: a frame
//! referenced by three snapshots and forty UCs is still one frame.
//!
//! A frame holds no bytes: every result depends on which frames a page
//! maps, never on what they contain. The pool keeps one 4-byte record
//! per frame, holding the refcount (0 marks a free slot) in its low 30
//! bits and the [`FrameKind`] in its top 2. Frame indices are reused
//! LIFO.

use crate::addr::PAGE_SIZE;
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
}

impl Frame {
    /// A frame of `kind` with one owner.
    #[inline]
    fn new(kind: FrameKind) -> Frame {
        let bits = match kind {
            FrameKind::PageTable => 0,
            FrameKind::Data => 1,
            FrameKind::KernelMeta => 2,
        };
        Frame {
            meta: (bits << KIND_SHIFT) | 1,
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
    /// Refcount and kind per frame.
    frames: Vec<Frame>,
    /// Free frame indices, reused last-freed first.
    free_list: Vec<u32>,
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

    /// Allocates a frame of the same kind as `src`: the COW break /
    /// snapshot page-clone primitive. The clone's refcount is 1; the
    /// source keeps its count.
    #[inline]
    pub fn clone_frame(&mut self, src: FrameId) -> Result<FrameId, MemError> {
        let src_idx = self.live(src);
        self.alloc(self.frames[src_idx].kind())
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
    fn frame_records_are_four_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 4);
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
