//! `seuss-snapshot` — unikernel snapshots and snapshot stacks.
//!
//! A snapshot is "an immutable data object which expresses the
//! instantaneous execution state of a UC (i.e., its address space and
//! registers)" (§3). Snapshots act as templates: an arbitrary number of
//! UCs can be deployed from one snapshot, concurrently and over time.
//! *Snapshot stacks* chain snapshots as page-level diffs — a
//! function-specific snapshot stores only the pages its UC wrote on top of
//! the base runtime snapshot, so a hundred-MB interpreter image is stored
//! once and shared by every function.
//!
//! Mechanically, both capture and deploy are a shallow clone of a root
//! page table (`seuss-paging::Mmu::shallow_clone`); the refcounted COW
//! rules of the paging crate do the rest. This crate adds the snapshot
//! objects themselves (register state, lineage, dirty-diff accounting),
//! and the deletion-safety policy from §6 ("only deleting function-specific
//! snapshots that have no active UCs"). The capture points themselves are
//! fixed instruction addresses of the UC layout
//! (`seuss-unikernel`'s `Layout::driver_listen_rip` / `post_import_rip`),
//! and the node's LRU cache of function snapshots lives in `seuss-core`.

//! # Examples
//!
//! Capture a "runtime" snapshot, deploy two UCs from it, and watch the
//! page accounting: each deploy costs one root-table frame until it
//! writes.
//!
//! ```
//! use seuss_mem::{PhysMemory, VirtAddr};
//! use seuss_paging::{Mmu, Region, RegionKind};
//! use seuss_snapshot::{RegisterState, SnapshotKind, SnapshotStore};
//!
//! let mut mem = PhysMemory::with_mib(16);
//! let mut mmu = Mmu::new();
//! let mut store = SnapshotStore::new();
//!
//! // Boot a tiny "runtime": one space with a few written pages.
//! let mut space = mmu.create_space(&mut mem).unwrap();
//! space.add_region(Region {
//!     start: VirtAddr::new(0x10_0000),
//!     pages: 64,
//!     kind: RegionKind::Heap,
//!     writable: true,
//!     demand_zero: true,
//! });
//! for p in 0..8u64 {
//!     let va = VirtAddr::new(0x10_0000 + p * 4096);
//!     mmu.write_bytes(&mut mem, &mut space, va, &[p as u8]).unwrap();
//! }
//! let base = store
//!     .capture(&mut mmu, &mut mem, &mut space, RegisterState::default(),
//!              SnapshotKind::Runtime, "runtime", None)
//!     .unwrap();
//!
//! let before = mem.stats().used_frames;
//! let (uc1, _regs) = store.deploy(&mut mmu, &mut mem, base).unwrap();
//! let (uc2, _regs) = store.deploy(&mut mmu, &mut mem, base).unwrap();
//! // Two whole "VMs" for two page-table frames.
//! assert_eq!(mem.stats().used_frames, before + 2);
//! assert_eq!(store.get(base).unwrap().active_ucs(), 2);
//! # mmu.destroy_space(&mut mem, uc1);
//! # mmu.destroy_space(&mut mem, uc2);
//! # store.release_uc(base).unwrap();
//! # store.release_uc(base).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod regs;
mod store;
pub mod transfer;

pub use regs::RegisterState;
pub use store::{Snapshot, SnapshotError, SnapshotId, SnapshotKind, SnapshotStore};
