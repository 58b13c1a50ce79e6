//! The simulated block device backing the snapshot tier.
//!
//! One block holds one page (4 KiB). Costs are pure virtual time drawn
//! from [`DeviceConfig`] — a fixed per-IO latency plus a per-byte
//! bandwidth term — never wall clock, so trials stay deterministic. The
//! device books one IO per *batch*: a working-set prefetch of N pages
//! pays the latency once, while N lazy page-ins pay it N times. That
//! difference is the entire REAP argument, reproduced mechanically.

use std::collections::HashMap;

use seuss_mem::{PageContent, PAGE_SIZE};
use simcore::SimDuration;

/// Cost and capacity parameters of the simulated device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Capacity in blocks (one block = one 4 KiB page).
    pub capacity_blocks: u64,
    /// Fixed latency of one read IO, however many blocks it spans.
    pub read_latency: SimDuration,
    /// Fixed latency of one write IO.
    pub write_latency: SimDuration,
    /// Bandwidth term: virtual nanoseconds per KiB transferred.
    pub nanos_per_kib: u64,
}

impl DeviceConfig {
    /// A mid-range NVMe SSD: 80 µs read latency, 30 µs write latency,
    /// ~4 GiB/s streaming (250 ns/KiB), 4 GiB of blocks.
    pub fn nvme() -> Self {
        DeviceConfig {
            capacity_blocks: 1 << 20,
            read_latency: SimDuration::from_micros(80),
            write_latency: SimDuration::from_micros(30),
            nanos_per_kib: 250,
        }
    }

    /// A small device for tests (capacity in blocks).
    pub fn test(capacity_blocks: u64) -> Self {
        DeviceConfig {
            capacity_blocks,
            ..DeviceConfig::nvme()
        }
    }
}

/// Monotone IO counters of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read IOs issued (a batched prefetch counts once).
    pub reads: u64,
    /// Write IOs issued.
    pub(crate) writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Virtual nanoseconds spent reading.
    pub(crate) read_nanos: u64,
    /// Virtual nanoseconds spent writing.
    pub(crate) write_nanos: u64,
}

/// The simulated page-granular block device.
pub(crate) struct BlockDevice {
    cfg: DeviceConfig,
    blocks: HashMap<u64, PageContent>,
    free: Vec<u64>,
    next_block: u64,
    allocated: u64,
    stats: DeviceStats,
}

impl BlockDevice {
    /// An empty device with the given parameters.
    pub(crate) fn new(cfg: DeviceConfig) -> Self {
        BlockDevice {
            cfg,
            blocks: HashMap::new(),
            free: Vec::new(),
            next_block: 0,
            allocated: 0,
            stats: DeviceStats::default(),
        }
    }

    /// Blocks currently allocated (written or pending a write).
    pub(crate) fn used_blocks(&self) -> u64 {
        self.allocated
    }

    /// Blocks still allocatable.
    pub(crate) fn free_blocks(&self) -> u64 {
        self.cfg.capacity_blocks - self.allocated
    }

    /// Allocates a block number, recycling freed ones first (LIFO, so
    /// allocation order is deterministic). `None` when the device is full.
    pub(crate) fn alloc_block(&mut self) -> Option<u64> {
        if self.free_blocks() == 0 {
            return None;
        }
        self.allocated += 1;
        Some(self.free.pop().unwrap_or_else(|| {
            let b = self.next_block;
            self.next_block += 1;
            b
        }))
    }

    /// Stores `content` in an allocated block (no cost booked — demotion
    /// batches are booked once via [`BlockDevice::book_write`]).
    pub(crate) fn insert(&mut self, block: u64, content: PageContent) {
        let prior = self.blocks.insert(block, content);
        debug_assert!(prior.is_none(), "block {block} double-written");
    }

    /// A copy of a block's content, if it holds one.
    pub(crate) fn content(&self, block: u64) -> Option<PageContent> {
        self.blocks.get(&block).cloned()
    }

    /// Releases a block back to the free pool.
    pub(crate) fn free_block(&mut self, block: u64) {
        let prior = self.blocks.remove(&block);
        debug_assert!(prior.is_some(), "block {block} double-freed");
        self.allocated -= 1;
        self.free.push(block);
    }

    /// Books one read IO spanning `pages` blocks and returns its virtual
    /// cost: the fixed latency once, plus the bandwidth term per byte.
    pub(crate) fn book_read(&mut self, pages: u64) -> SimDuration {
        let cost = self.read_cost(pages);
        self.stats.reads += 1;
        self.stats.bytes_read += pages * PAGE_SIZE as u64;
        self.stats.read_nanos += cost.as_nanos();
        cost
    }

    /// Books one write IO spanning `pages` blocks.
    pub(crate) fn book_write(&mut self, pages: u64) -> SimDuration {
        let cost = self.write_cost(pages);
        self.stats.writes += 1;
        self.stats.bytes_written += pages * PAGE_SIZE as u64;
        self.stats.write_nanos += cost.as_nanos();
        cost
    }

    /// The cost of one read IO spanning `pages` blocks (no booking).
    pub(crate) fn read_cost(&self, pages: u64) -> SimDuration {
        self.cfg.read_latency + self.transfer_cost(pages)
    }

    /// The cost of one write IO spanning `pages` blocks (no booking).
    pub(crate) fn write_cost(&self, pages: u64) -> SimDuration {
        self.cfg.write_latency + self.transfer_cost(pages)
    }

    fn transfer_cost(&self, pages: u64) -> SimDuration {
        let kib = pages * (PAGE_SIZE as u64 / 1024);
        SimDuration::from_nanos(self.cfg.nanos_per_kib * kib)
    }

    /// Monotone IO counters.
    pub(crate) fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_free_round_trip() {
        let mut d = BlockDevice::new(DeviceConfig::test(4));
        let b = d.alloc_block().unwrap();
        let mut c = PageContent::default();
        c.write(7, b"tiered");
        d.insert(b, c.clone());
        assert_eq!(d.used_blocks(), 1);
        assert_eq!(d.content(b).unwrap().digest(), c.digest());
        d.free_block(b);
        assert_eq!(d.used_blocks(), 0);
        assert_eq!(d.free_blocks(), 4);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = BlockDevice::new(DeviceConfig::test(2));
        let a = d.alloc_block().unwrap();
        let b = d.alloc_block().unwrap();
        d.insert(a, PageContent::default());
        d.insert(b, PageContent::default());
        assert_eq!(d.alloc_block(), None, "device is full");
        d.free_block(a);
        assert_eq!(d.alloc_block(), Some(a), "freed block is recycled");
    }

    #[test]
    fn batched_read_pays_latency_once() {
        let d = BlockDevice::new(DeviceConfig::test(64));
        let batched = d.read_cost(16);
        let serial: u64 = (0..16).map(|_| d.read_cost(1).as_nanos()).sum();
        assert!(
            batched.as_nanos() < serial,
            "one 16-page IO must beat 16 single-page IOs"
        );
        // Identical bytes move either way; the gap is 15 extra latencies.
        let gap = serial - batched.as_nanos();
        assert_eq!(gap, 15 * d.cfg.read_latency.as_nanos());
    }

    #[test]
    fn booking_accumulates_stats() {
        let mut d = BlockDevice::new(DeviceConfig::test(64));
        d.book_write(4);
        d.book_read(2);
        d.book_read(1);
        let s = d.stats();
        assert_eq!((s.writes, s.reads), (1, 2));
        assert_eq!(s.bytes_written, 4 * PAGE_SIZE as u64);
        assert_eq!(s.bytes_read, 3 * PAGE_SIZE as u64);
        assert!(s.read_nanos > 0 && s.write_nanos > 0);
    }
}
