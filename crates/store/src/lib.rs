//! # seuss-store — tiered snapshot storage
//!
//! SEUSS caches every snapshot level in DRAM, which caps cacheable
//! density at the frame pool. This crate adds the second tier: a
//! simulated `BlockDevice` (fixed per-IO latency + per-byte
//! bandwidth, pure virtual time) behind a [`TieredStore`] that demotes
//! idle snapshots' diff pages out of `PhysMemory` and restores them on
//! deploy by one of three [`RestorePolicy`] paths — lazy demand paging,
//! eager full promotion, or REAP-style recorded-working-set prefetch
//! (Ustiugov et al., ASPLOS '21).
//!
//! The tier owns its block allocations outright. Demotion rewrites leaf
//! PTEs to swapped placeholders ([`seuss_paging::EntryFlags::SWAPPED`])
//! that preserve the page's flags and carry the block number; the MMU
//! services touches on them through the [`seuss_paging::SwapPager`] this
//! crate implements. Pages a snapshot shares with its resident parent
//! (COW) are never written to the device — demotion moves exactly the
//! diff, keeping the refcount discipline intact.
//!
//! Everything is deterministic: device costs come from config, block
//! numbers from a LIFO free list, and no wall clock is ever consulted.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod device;
mod tier;

pub use device::DeviceConfig;
pub use tier::{ReclaimMode, RestorePolicy, StoreConfig, StoreError, TieredStore};
