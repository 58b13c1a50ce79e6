//! The two node caches of §4: function snapshots and idle UCs.
//!
//! Both are LRU over one [`Recency`] list each. The snapshot cache evicts
//! only images the §6 policy allows deleting (no active UCs); the idle-UC
//! cache is additionally drained by the OOM daemon under memory pressure.

use std::collections::{HashMap, VecDeque};

use seuss_mem::PhysMemory;
use seuss_paging::Mmu;
use seuss_snapshot::{SnapshotId, SnapshotStore};
use seuss_unikernel::{ImageStore, UcContext, UcImageId};
use simcore::lru::{Handle, Recency};

use crate::node::FnId;

/// LRU cache of function-specific UC images, keyed by function identity.
/// It has no capacity of its own: memory pressure evicts through the OOM
/// daemon's [`evict_lru`](Self::evict_lru).
#[derive(Default)]
pub struct FnImageCache {
    entries: HashMap<FnId, Handle>,
    order: Recency<(FnId, UcImageId)>,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl FnImageCache {
    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Non-mutating lookup (no recency refresh, no stats).
    pub fn peek(&self, f: FnId) -> Option<UcImageId> {
        let &h = self.entries.get(&f)?;
        self.order.get(h).map(|(_, img)| img)
    }

    /// Looks up the image for a function, refreshing recency.
    pub fn lookup(&mut self, f: FnId) -> Option<UcImageId> {
        let Some(&h) = self.entries.get(&f) else {
            self.misses += 1;
            return None;
        };
        self.order.touch(h);
        self.hits += 1;
        self.order.get(h).map(|(_, img)| img)
    }

    /// Inserts a function image. Returns the snapshot id of the image it
    /// displaced, if `f` had one — the caller's cue to drop any
    /// storage-tier state it held.
    pub fn insert(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        images: &mut ImageStore,
        f: FnId,
        img: UcImageId,
    ) -> Option<SnapshotId> {
        let h = self.order.push_back((f, img));
        let old = self.entries.insert(f, h)?;
        let (_, old_img) = self.order.remove(old).expect("cached entry is linked");
        let sid = images.snapshot_of(old_img).ok();
        let _ = images.delete(mmu, mem, snaps, old_img);
        sid
    }

    /// Evicts the least-recently-used deletable image (used directly by
    /// the OOM daemon under memory pressure). `None` means nothing was
    /// evictable; `Some(sid)` carries the evicted image's snapshot id,
    /// when it resolves, so the caller can release any storage-tier state
    /// it held. The snapshot itself is gone unless its deletion failed.
    pub fn evict_lru(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        images: &mut ImageStore,
    ) -> Option<Option<SnapshotId>> {
        let (h, (f, img)) = self.order.iter().find(|&(_, (_, img))| {
            images
                .snapshot_of(img)
                .ok()
                .and_then(|s| snaps.get(s).ok())
                .is_none_or(|s| s.active_ucs() == 0)
        })?;
        self.order.remove(h);
        self.entries.remove(&f);
        self.evictions += 1;
        let sid = images.snapshot_of(img).ok();
        let _ = images.delete(mmu, mem, snaps, img);
        Some(sid)
    }

    /// Removes and returns a specific entry without deleting its image.
    pub fn remove(&mut self, f: FnId) -> Option<UcImageId> {
        let h = self.entries.remove(&f)?;
        self.order.remove(h).map(|(_, img)| img)
    }
}

/// Cache of idle ("hot") UCs, per function, with global and per-function
/// caps and LRU reclaim for the OOM daemon.
pub struct IdleUcCache {
    /// Per function, oldest first. Emptied entries stay, so the hot path
    /// never inserts into or removes from the map.
    by_fn: HashMap<FnId, VecDeque<(UcContext, Handle)>>,
    /// Every cached UC in caching order, keyed by its function. A
    /// function's oldest UC is always its coldest entry here.
    order: Recency<FnId>,
    per_fn: usize,
    total_cap: usize,
    /// Hot hits served.
    pub hits: u64,
    /// UCs reclaimed (by pressure or capacity).
    pub reclaimed: u64,
}

impl IdleUcCache {
    /// Creates a cache with per-function and global caps.
    pub fn new(per_fn: usize, total_cap: usize) -> Self {
        IdleUcCache {
            by_fn: HashMap::new(),
            order: Recency::new(),
            per_fn,
            total_cap,
            hits: 0,
            reclaimed: 0,
        }
    }

    /// Total idle UCs cached.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether any idle UC is cached.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Idle UCs cached for one function.
    pub fn count_for(&self, f: FnId) -> usize {
        self.by_fn.get(&f).map(|v| v.len()).unwrap_or(0)
    }

    /// Takes an idle UC for `f` if one is cached (the hot path): the most
    /// recently cached one.
    pub fn take(&mut self, f: FnId) -> Option<UcContext> {
        let (uc, h) = self.by_fn.get_mut(&f)?.pop_back()?;
        self.order.remove(h);
        self.hits += 1;
        Some(uc)
    }

    /// Caches a finished UC for future hot invocations. Returns a UC that
    /// had to be displaced (capacity), which the caller must destroy.
    pub fn put(&mut self, f: FnId, uc: UcContext) -> Option<UcContext> {
        let h = self.order.push_back(f);
        let v = self.by_fn.entry(f).or_default();
        v.push_back((uc, h));
        if v.len() > self.per_fn {
            let (uc, h) = v.pop_front().expect("over the per-function cap");
            self.order.remove(h);
            self.reclaimed += 1;
            return Some(uc);
        }
        if self.order.len() > self.total_cap {
            return self.pop_lru();
        }
        None
    }

    /// Removes the least-recently-cached idle UC (OOM-daemon reclaim).
    pub fn pop_lru(&mut self) -> Option<UcContext> {
        let f = self.order.pop_front()?;
        let (uc, _) = self
            .by_fn
            .get_mut(&f)
            .and_then(VecDeque::pop_front)
            .expect("a linked entry has its UC");
        self.reclaimed += 1;
        Some(uc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // UcContext cannot be fabricated without a full rig, so IdleUcCache
    // policy tests that need real UCs live in the node tests; here we
    // exercise the counters and FnImageCache bookkeeping that don't.

    #[test]
    fn fn_cache_lru_accounting() {
        let mut c = FnImageCache::default();
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.misses, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn idle_cache_counts() {
        let c = IdleUcCache::new(2, 10);
        assert_eq!(c.len(), 0);
        assert_eq!(c.count_for(3), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn fn_cache_evicts_in_insertion_then_use_order() {
        use miniscript::RuntimeProfile;
        use seuss_snapshot::SnapshotKind;
        use seuss_unikernel::{Layout, UcContext, UcProfile};

        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();
        let (mut base_uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        let (base, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut base_uc,
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();

        let mut cache = FnImageCache::default();
        for f in [10u64, 20, 30, 40] {
            let (mut uc, _) = images.deploy(&mut mmu, &mut mem, &mut snaps, base).unwrap();
            uc.connect(&mut mmu, &mut mem).unwrap();
            uc.import_function(&mut mmu, &mut mem, "function main(a) { return 0; }")
                .unwrap();
            let (img, _) = images
                .capture(
                    &mut mmu,
                    &mut mem,
                    &mut snaps,
                    &mut uc,
                    SnapshotKind::Function,
                    format!("f{f}"),
                    Some(base),
                )
                .unwrap();
            images.destroy_uc(&mut mmu, &mut mem, &mut snaps, uc);
            cache.insert(&mut mmu, &mut mem, &mut snaps, &mut images, f, img);
        }

        // With no lookups in between, victims come in insertion order.
        let mut evict = |cache: &mut FnImageCache| {
            cache
                .evict_lru(&mut mmu, &mut mem, &mut snaps, &mut images)
                .is_some()
        };
        assert!(evict(&mut cache));
        assert!(cache.peek(10).is_none(), "earliest insertion evicted first");
        assert!(evict(&mut cache));
        assert!(cache.peek(20).is_none(), "then the next-earliest");
        // A lookup refreshes 30, so the later-inserted 40 goes first.
        assert!(cache.lookup(30).is_some());
        assert!(evict(&mut cache));
        assert!(cache.peek(40).is_none());
        assert!(cache.peek(30).is_some());
        assert!(evict(&mut cache));
        assert!(cache.is_empty());
        assert!(!evict(&mut cache), "nothing left to evict");
    }
}
