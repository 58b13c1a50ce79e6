//! Page-fault taxonomy.
//!
//! The paper (§6, "Capturing Snapshots") distinguishes three fault
//! resolutions: allocate a new page, clone a page from the backing
//! snapshot stack, or map a snapshot page read-only. In this
//! implementation the first two appear as successful accesses whose
//! [`crate::OpStats`] record the work (demand-zero allocations, COW
//! clones); a [`PageFault`] is returned only when the access cannot be
//! resolved at all — the cases that would kill a UC.

use seuss_mem::VirtAddr;

/// The kind of memory access being simulated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) enum AccessKind {
    /// Data read (or instruction fetch).
    Read,
    /// Data write.
    Write,
}

/// An unresolvable page fault; delivering one terminates the UC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageFault {
    /// No mapping and no demand-zero region covers the address.
    Unmapped(VirtAddr),
    /// Write to a mapping that is read-only by policy (not COW).
    ProtectionWrite(VirtAddr),
    /// Physical memory was exhausted while resolving the fault
    /// (demand-zero allocation, COW clone, or table split failed).
    OutOfMemory(VirtAddr),
    /// The page is swapped out to the block device and no pager is
    /// installed (or the device read failed).
    SwappedOut(VirtAddr),
}

impl PageFault {
    /// The faulting address.
    pub fn addr(self) -> VirtAddr {
        match self {
            PageFault::Unmapped(va)
            | PageFault::ProtectionWrite(va)
            | PageFault::OutOfMemory(va)
            | PageFault::SwappedOut(va) => va,
        }
    }
}

impl core::fmt::Display for PageFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageFault::Unmapped(va) => write!(f, "unmapped access at {va:?}"),
            PageFault::ProtectionWrite(va) => write!(f, "write to read-only page at {va:?}"),
            PageFault::OutOfMemory(va) => write!(f, "out of memory resolving fault at {va:?}"),
            PageFault::SwappedOut(va) => {
                write!(f, "swapped-out page at {va:?} with no usable pager")
            }
        }
    }
}

impl std::error::Error for PageFault {}
