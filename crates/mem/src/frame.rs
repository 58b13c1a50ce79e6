//! Physical frame identity and usage class.

use core::fmt;

/// Identifier of a 4 KiB physical frame in the simulated pool.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub(crate) u32);

impl FrameId {
    /// Raw index of this frame in the pool.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a frame id from a raw index (used by packed page-table
    /// entries, which store the index in PTE bits 12..52).
    #[inline]
    pub fn from_index(index: u32) -> FrameId {
        FrameId(index)
    }
}

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F#{}", self.0)
    }
}

/// What a frame is being used for; drives accounting breakdowns.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FrameKind {
    /// A page-table page (any level).
    PageTable,
    /// A data page mapped into some address space.
    Data,
    /// Kernel metadata (UC descriptors, packet buffers, stacks).
    KernelMeta,
}
