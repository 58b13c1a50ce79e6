//! `seuss-paging` — software x86_64-style 4-level page tables with
//! copy-on-write sharing and dirty tracking.
//!
//! SEUSS turns snapshot capture and UC deployment into "simple operations
//! on address spaces via their backing data structures" (§3). This crate
//! *is* those data structures: packed 64-bit page-table entries
//! ([`entry::Entry`]), refcounted table nodes ([`table::TableStore`]), and
//! an [`Mmu`] that implements mapping, translation, faulting, COW breaks,
//! shallow cloning, and dirty-page scanning — each operation reporting its
//! work into [`OpStats`] so the cost model can convert structure
//! manipulation into virtual time.
//!
//! Two sharing rules implement everything SEUSS needs:
//!
//! 1. **A table with refcount > 1 is implicitly write-protected.** Writing
//!    through it first *splits* (clones) every shared table on the walk
//!    path, exactly like a lazy version of the paper's shallow page-table
//!    copy.
//! 2. **A data frame with refcount > 1 is copy-on-write.** The first write
//!    clones the frame into a private copy; reads share freely.
//!
//! Snapshot capture and deploy (in `seuss-snapshot`) are then both just
//! [`Mmu::shallow_clone`] — capture clones the UC's root for the immutable
//! snapshot, deploy clones the snapshot's root for the new UC.

//! # Examples
//!
//! The full COW story in a dozen lines — write, snapshot, mutate,
//! observe isolation:
//!
//! ```
//! use seuss_mem::{PhysMemory, VirtAddr};
//! use seuss_paging::{Mmu, Region, RegionKind};
//!
//! let mut mem = PhysMemory::with_mib(16);
//! let mut mmu = Mmu::new();
//! let mut space = mmu.create_space(&mut mem).unwrap();
//! space.add_region(Region {
//!     start: VirtAddr::new(0x10_0000),
//!     pages: 64,
//!     kind: RegionKind::Heap,
//!     writable: true,
//!     demand_zero: true,
//! });
//! let va = VirtAddr::new(0x10_0000);
//! mmu.write_bytes(&mut mem, &mut space, va, b"before").unwrap();
//!
//! // "Capture": freeze the current state behind a shallow root clone.
//! let snapshot = mmu.shallow_clone(&mut mem, space.root()).unwrap();
//! mmu.write_bytes(&mut mem, &mut space, va, b"after!").unwrap();
//!
//! // The snapshot still reads the frozen bytes (COW broke the sharing).
//! let frozen = mmu.translate(snapshot, va).unwrap().frame();
//! let mut buf = [0u8; 6];
//! mem.read(frozen, 0, &mut buf);
//! assert_eq!(&buf, b"before");
//! # mmu.release_root(&mut mem, snapshot);
//! # mmu.destroy_space(&mut mem, space);
//! # assert_eq!(mem.stats().used_frames, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod entry;
pub mod fault;
pub mod mmu;
pub mod space;
pub mod stats;
pub mod table;

pub use entry::{Entry, EntryFlags};
pub use fault::{AccessKind, PageFault};
pub use mmu::{Mmu, SwapPager};
pub use space::{AddressSpace, Region, RegionKind};
pub use stats::OpStats;
pub use table::{TableId, TableStore};
