//! `seuss-mem` — the simulated physical memory of a SEUSS compute node.
//!
//! The paper's density results (Table 3) come down to one question: how
//! many 4 KiB frames does each cached function context actually pin? This
//! crate answers it mechanically. It provides a [`PhysMemory`] pool of
//! reference-counted frames with capacity accounting, the page-size
//! constants and the virtual address newtype used by the paging crate,
//! and an out-of-memory threshold signal that drives the SEUSS OOM
//! daemon ("reclaim idle UCs as soon as available physical memory drops
//! below a pre-defined threshold", §6).
//!
//! Frames carry no bytes. Every result the experiments report depends on
//! which frames each page maps and how many owners each frame has, so a
//! frame is a refcount and a usage class, and nothing else.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod addr;
mod frame;
mod phys;

pub use addr::{VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use frame::{FrameId, FrameKind};
pub use phys::{MemError, MemStats, PhysMemory};
