//! The tiered snapshot store: demotion, three restore policies, and
//! REAP-style working-set metadata.
//!
//! A [`TieredStore`] moves a snapshot's *diff pages* (the pages not
//! shared with its resident parent) out of DRAM frames onto the
//! [`BlockDevice`], leaving swapped placeholder PTEs behind. Restores
//! follow one of three [`RestorePolicy`] paths:
//!
//! - **LazyPaging** — nothing up front; every touched page pays a full
//!   single-page device read through the MMU's [`SwapPager`], on every
//!   deploy. The slow baseline.
//! - **EagerFull** — the whole diff comes back in one batched read
//!   before the deploy; the snapshot is resident again afterwards.
//! - **WorkingSetPrefetch** — the first deploy after demotion runs
//!   lazily while the accessed bits record the restore working set; the
//!   store persists that page list, and every later deploy prefetches
//!   exactly it in one batched read, faulting lazily only on the cold
//!   tail.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use seuss_mem::{MemError, PhysMemory, VirtAddr, PAGE_SHIFT};
use seuss_paging::{Mmu, SwapPager, TableId};
use seuss_snapshot::{SnapshotError, SnapshotId, SnapshotStore};
use simcore::SimDuration;

use crate::device::{BlockDevice, DeviceConfig, DeviceStats};

/// How a demoted snapshot's pages come back on deploy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RestorePolicy {
    /// Pages fault back one-by-one, each paying device latency.
    LazyPaging,
    /// The whole diff is promoted in one batched read before deploy.
    EagerFull,
    /// First restore records the working set; later restores prefetch
    /// exactly that set in one batched read.
    WorkingSetPrefetch,
}

impl RestorePolicy {
    /// Stable lowercase label (CSV columns, CLI values).
    pub fn as_str(self) -> &'static str {
        match self {
            RestorePolicy::LazyPaging => "lazy",
            RestorePolicy::EagerFull => "eager",
            RestorePolicy::WorkingSetPrefetch => "ws",
        }
    }
}

/// What the OOM daemon does under memory pressure when a tier exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReclaimMode {
    /// Evict function images outright (the pre-tier behavior).
    Evict,
    /// Demote the least-recently-used function image to the device
    /// first, falling back to eviction only when nothing is demotable.
    DemoteColdest,
}

/// Validated knobs of the storage tier (part of `SeussConfig`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreConfig {
    /// Device cost/capacity model.
    pub device: DeviceConfig,
    /// Restore policy for demoted snapshots.
    pub policy: RestorePolicy,
    /// OOM-daemon behavior under pressure.
    pub reclaim: ReclaimMode,
}

impl StoreConfig {
    /// NVMe device, working-set prefetch, demote-coldest reclaim — the
    /// configuration the paper-style density experiments use.
    pub fn nvme_prefetch() -> Self {
        StoreConfig {
            device: DeviceConfig::nvme(),
            policy: RestorePolicy::WorkingSetPrefetch,
            reclaim: ReclaimMode::DemoteColdest,
        }
    }
}

/// Tier-level failures.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// The snapshot cannot be demoted in its current state.
    NotEligible(&'static str),
    /// The device has no room for the snapshot's diff.
    DeviceFull,
    /// The snapshot has no pages on the device.
    NotDemoted,
    /// Snapshot-store lookup failed.
    Snapshot(SnapshotError),
    /// Frame allocation failed during promotion.
    Mem(MemError),
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

impl From<MemError> for StoreError {
    fn from(e: MemError) -> Self {
        StoreError::Mem(e)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::NotEligible(why) => write!(f, "snapshot not demotable: {why}"),
            StoreError::DeviceFull => write!(f, "block device is full"),
            StoreError::NotDemoted => write!(f, "snapshot has no pages on the device"),
            StoreError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            StoreError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result of a demotion: how many pages moved and the batched write cost.
#[derive(Clone, Copy, Debug)]
pub struct DemoteOutcome {
    /// Diff pages written to the device.
    pub pages: u64,
    /// Virtual cost of the one batched device write.
    pub cost: SimDuration,
}

/// Result of an eager promotion or working-set prefetch.
#[derive(Clone, Copy, Debug)]
pub struct RestoreOutcome {
    /// Pages read back in the batch.
    pub pages: u64,
    /// Virtual cost of the one batched device read.
    pub cost: SimDuration,
}

/// Monotone tier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Snapshots demoted.
    pub demotions: u64,
    /// Eager full promotions performed.
    pub promotions: u64,
    /// Working-set prefetch batches performed.
    pub prefetches: u64,
}

/// The [`SwapPager`] the tier installs on the MMU: single-page reads,
/// each paying the full per-IO latency — the lazy path's cost model.
pub(crate) struct DevicePager {
    device: Rc<RefCell<BlockDevice>>,
    read_fault: Rc<Cell<bool>>,
}

impl SwapPager for DevicePager {
    fn page_in(&mut self, block: u64) -> Option<(seuss_mem::PageContent, u64)> {
        if self.read_fault.get() {
            return None;
        }
        let mut dev = self.device.borrow_mut();
        let content = dev.content(block)?;
        let cost = dev.book_read(1);
        Some((content, cost.as_nanos()))
    }
}

/// Per-snapshot tier metadata.
struct DemotedMeta {
    /// `(virtual page number, device block)`, sorted by vpn.
    pages: Vec<(u64, u64)>,
    /// Recorded restore working set (sorted vpns), once harvested.
    working_set: Option<Vec<u64>>,
}

/// The two-tier snapshot store: DRAM frames above, `BlockDevice`
/// blocks below. Owns all block allocations — blocks are freed when the
/// owning snapshot is promoted or forgotten, never by page-table GC
/// (snapshot ids are reused, so sweeps would be unsound).
pub struct TieredStore {
    cfg: StoreConfig,
    device: Rc<RefCell<BlockDevice>>,
    read_fault: Rc<Cell<bool>>,
    demoted: HashMap<u32, DemotedMeta>,
    stats: TierStats,
}

fn vpn_to_va(vpn: u64) -> VirtAddr {
    VirtAddr::new(vpn << PAGE_SHIFT)
}

impl TieredStore {
    /// An empty tier over a fresh device.
    pub fn new(cfg: StoreConfig) -> Self {
        TieredStore {
            cfg,
            device: Rc::new(RefCell::new(BlockDevice::new(cfg.device))),
            read_fault: Rc::new(Cell::new(false)),
            demoted: HashMap::new(),
            stats: TierStats::default(),
        }
    }

    /// The configured restore policy.
    pub fn policy(&self) -> RestorePolicy {
        self.cfg.policy
    }

    /// The configured reclaim mode.
    pub fn reclaim_mode(&self) -> ReclaimMode {
        self.cfg.reclaim
    }

    /// Builds the pager to install on the MMU. The pager shares the
    /// device (and the fault switch) with this store.
    pub fn make_pager(&self) -> Box<dyn SwapPager> {
        Box::new(DevicePager {
            device: Rc::clone(&self.device),
            read_fault: Rc::clone(&self.read_fault),
        })
    }

    /// Arms or clears the injected device read-error window.
    pub fn set_read_fault(&self, active: bool) {
        self.read_fault.set(active);
    }

    /// Whether a device read-error window is active.
    pub fn read_fault_active(&self) -> bool {
        self.read_fault.get()
    }

    /// Whether `sid` currently has pages on the device.
    pub fn is_demoted(&self, sid: SnapshotId) -> bool {
        self.demoted.contains_key(&sid.index())
    }

    /// The recorded working set of `sid`, if one has been harvested.
    pub fn working_set(&self, sid: SnapshotId) -> Option<&[u64]> {
        self.demoted
            .get(&sid.index())
            .and_then(|m| m.working_set.as_deref())
    }

    /// Demotes `sid`'s diff pages to the device: every page not shared
    /// frame-for-frame with its resident parent is written out in one
    /// batched IO and its PTE rewritten to a swapped placeholder. Pages
    /// the parent still maps (COW shares) stay where they are — the tier
    /// never duplicates them — and the diff walks only the page tables
    /// the snapshot owns, skipping every subtree it shares with its
    /// parent ([`Mmu::diff_mapped`]).
    ///
    /// Requires the snapshot to be idle: no active UCs, no children.
    pub fn demote(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &SnapshotStore,
        sid: SnapshotId,
    ) -> Result<DemoteOutcome, StoreError> {
        let snap = snaps.get(sid)?;
        if self.is_demoted(sid) {
            return Err(StoreError::NotEligible("already demoted"));
        }
        if snap.active_ucs() > 0 {
            return Err(StoreError::NotEligible("live UCs deployed from it"));
        }
        if snap.children() > 0 {
            return Err(StoreError::NotEligible("other snapshots diff against it"));
        }
        let root = snap.root();
        let parent = snap.parent().map(|pid| snaps.get(pid)).transpose()?;
        let diff = mmu.diff_mapped(root, parent.map(|p| p.root()));
        if diff.is_empty() {
            return Err(StoreError::NotEligible("no private pages to demote"));
        }
        if self.device.borrow().free_blocks() < diff.len() as u64 {
            return Err(StoreError::DeviceFull);
        }
        let mut pages = Vec::with_capacity(diff.len());
        for (vpn, _frame) in diff {
            let block = self
                .device
                .borrow_mut()
                .alloc_block()
                .expect("capacity checked above");
            let content = mmu.demote_page(mem, root, vpn_to_va(vpn), block)?;
            self.device.borrow_mut().insert(block, content);
            pages.push((vpn, block));
        }
        let n = pages.len() as u64;
        let cost = self.device.borrow_mut().book_write(n);
        self.demoted.insert(
            sid.index(),
            DemotedMeta {
                pages,
                working_set: None,
            },
        );
        self.stats.demotions += 1;
        Ok(DemoteOutcome { pages: n, cost })
    }

    /// Eagerly promotes the whole diff of `sid` back to DRAM in one
    /// batched read, freeing its device blocks. The snapshot is fully
    /// resident again afterwards.
    pub fn promote(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &SnapshotStore,
        sid: SnapshotId,
    ) -> Result<RestoreOutcome, StoreError> {
        let meta = self
            .demoted
            .remove(&sid.index())
            .ok_or(StoreError::NotDemoted)?;
        let root = snaps.get(sid)?.root();
        let n = meta.pages.len() as u64;
        for &(vpn, block) in &meta.pages {
            let content = {
                let mut dev = self.device.borrow_mut();
                let c = dev.content(block).expect("tier owns its blocks");
                dev.free_block(block);
                c
            };
            mmu.promote_page(mem, root, vpn_to_va(vpn), content)?;
        }
        let cost = self.device.borrow_mut().book_read(n);
        self.stats.promotions += 1;
        Ok(RestoreOutcome { pages: n, cost })
    }

    /// Prefetches `sid`'s recorded working set into `uc_root` (a UC's
    /// private root, freshly cloned from the still-demoted snapshot) in
    /// one batched read. Blocks stay on the device — the snapshot itself
    /// remains demoted, which is what preserves density. Pages of the
    /// working set the UC path has already split away are skipped.
    pub fn prefetch_into(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        uc_root: TableId,
        sid: SnapshotId,
    ) -> Result<RestoreOutcome, StoreError> {
        let meta = self
            .demoted
            .get(&sid.index())
            .ok_or(StoreError::NotDemoted)?;
        let ws = meta.working_set.as_deref().ok_or(StoreError::NotDemoted)?;
        let mut fetched = 0u64;
        let lookup: Vec<(u64, u64)> = ws
            .iter()
            .filter_map(|vpn| {
                meta.pages
                    .binary_search_by_key(vpn, |&(v, _)| v)
                    .ok()
                    .map(|i| meta.pages[i])
            })
            .collect();
        for (vpn, block) in lookup {
            let content = self
                .device
                .borrow()
                .content(block)
                .expect("tier owns its blocks");
            mmu.promote_page(mem, uc_root, vpn_to_va(vpn), content)?;
            fetched += 1;
        }
        let cost = self.device.borrow_mut().book_read(fetched);
        self.stats.prefetches += 1;
        Ok(RestoreOutcome {
            pages: fetched,
            cost,
        })
    }

    /// Whether `sid` is demoted under the prefetch policy but has no
    /// recorded working set yet — i.e. its next deploy is the recording
    /// run.
    pub fn needs_recording(&self, sid: SnapshotId) -> bool {
        self.cfg.policy == RestorePolicy::WorkingSetPrefetch
            && self
                .demoted
                .get(&sid.index())
                .is_some_and(|m| m.working_set.is_none())
    }

    /// Persists the restore working set of `sid`: the intersection of
    /// the harvested accessed-vpns with the snapshot's demoted page set,
    /// sorted. Recording is one-shot; later calls are ignored.
    pub fn record_working_set(&mut self, sid: SnapshotId, accessed: &[u64]) {
        let Some(meta) = self.demoted.get_mut(&sid.index()) else {
            return;
        };
        if meta.working_set.is_some() {
            return;
        }
        let ws: Vec<u64> = accessed
            .iter()
            .copied()
            .filter(|vpn| meta.pages.binary_search_by_key(vpn, |&(v, _)| v).is_ok())
            .collect();
        meta.working_set = Some(ws);
    }

    /// Drops all tier state for `sid`, freeing its device blocks. Call
    /// whenever the snapshot (or its image) is deleted — snapshot ids
    /// are reused, so stale metadata would corrupt a future tenant.
    pub fn forget(&mut self, sid: SnapshotId) {
        if let Some(meta) = self.demoted.remove(&sid.index()) {
            let mut dev = self.device.borrow_mut();
            for (_vpn, block) in meta.pages {
                dev.free_block(block);
            }
        }
    }

    /// Monotone tier counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// The device's IO counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.borrow().stats()
    }

    /// Blocks currently holding demoted pages.
    pub fn used_blocks(&self) -> u64 {
        self.device.borrow().used_blocks()
    }
}
