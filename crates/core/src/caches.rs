//! The two node caches of §4: function snapshots and idle UCs.
//!
//! Both are LRU over one [`Recency`] list each. The snapshot cache only
//! maps functions to images: the node deletes what it displaces or
//! evicts. The idle-UC cache is additionally drained by the OOM daemon
//! under memory pressure.

use std::collections::{HashMap, VecDeque};

use seuss_snapshot::SnapshotId;
use seuss_unikernel::UcContext;
use simcore::lru::{Handle, Recency};

use crate::node::FnId;

/// LRU cache of function-specific UC images, keyed by function identity.
/// It has no capacity of its own: under memory pressure the node's OOM
/// daemon demotes (with a storage tier) and evicts its
/// least-recently-used entries; its order is the only one kept over
/// function images. It deletes nothing: every image it gives up goes
/// back to the caller.
#[derive(Default)]
pub struct FnImageCache {
    entries: HashMap<FnId, Handle>,
    order: Recency<(FnId, SnapshotId)>,
    /// Evictions performed.
    pub evictions: u64,
}

impl FnImageCache {
    /// Non-mutating lookup (no recency refresh).
    pub fn peek(&self, f: FnId) -> Option<SnapshotId> {
        let &h = self.entries.get(&f)?;
        self.order.get(h).map(|(_, img)| img)
    }

    /// Looks up the image for a function, refreshing recency.
    pub fn lookup(&mut self, f: FnId) -> Option<SnapshotId> {
        let &h = self.entries.get(&f)?;
        self.order.touch(h);
        self.order.get(h).map(|(_, img)| img)
    }

    /// Cached images, least-recently-used first: the order the OOM
    /// daemon demotes and evicts in.
    pub(crate) fn images(&self) -> impl Iterator<Item = SnapshotId> + '_ {
        self.order.iter().map(|(_, (_, img))| img)
    }

    /// Caches `img` as `f`'s image. Returns the image it displaced, if
    /// `f` had one.
    pub(crate) fn insert(&mut self, f: FnId, img: SnapshotId) -> Option<SnapshotId> {
        let h = self.order.push_back((f, img));
        let old = self.entries.insert(f, h)?;
        let (_, old_img) = self.order.remove(old).expect("cached entry is linked");
        Some(old_img)
    }

    /// Takes the least-recently-used image that `evictable` accepts out
    /// of the cache and returns it; `None` means nothing was evictable.
    pub(crate) fn evict_lru(
        &mut self,
        evictable: impl Fn(SnapshotId) -> bool,
    ) -> Option<SnapshotId> {
        let (h, (f, img)) = self.order.iter().find(|&(_, (_, img))| evictable(img))?;
        self.order.remove(h);
        self.entries.remove(&f);
        self.evictions += 1;
        Some(img)
    }

    /// Removes and returns a specific entry.
    pub(crate) fn remove(&mut self, f: FnId) -> Option<SnapshotId> {
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
    pub(crate) fn new(per_fn: usize, total_cap: usize) -> Self {
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
    pub(crate) fn put(&mut self, f: FnId, uc: UcContext) -> Option<UcContext> {
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
    pub(crate) fn pop_lru(&mut self) -> Option<UcContext> {
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
        assert!(c.entries.is_empty());
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
        use seuss_mem::PhysMemory;
        use seuss_paging::Mmu;
        use seuss_snapshot::{RegisterState, SnapshotKind, SnapshotStore};

        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        let mut snap = || {
            let regs = RegisterState::default();
            let kind = SnapshotKind::Function;
            snaps
                .capture(&mut mmu, &mut mem, &mut space, regs, kind, "f", None)
                .unwrap()
        };
        let ids: Vec<SnapshotId> = (0..5).map(|_| snap()).collect();

        let mut cache = FnImageCache::default();
        for (f, &img) in [10u64, 20, 30, 40].iter().zip(&ids) {
            assert_eq!(cache.insert(*f, img), None);
        }
        // Re-caching a function hands back the image it displaced.
        assert_eq!(cache.insert(40, ids[4]), Some(ids[3]));

        // With no lookups in between, victims come in insertion order.
        assert_eq!(cache.evict_lru(|_| true), Some(ids[0]));
        assert!(cache.peek(10).is_none(), "earliest insertion evicted first");
        // An image the predicate refuses is stepped over.
        assert_eq!(cache.evict_lru(|img| img != ids[1]), Some(ids[2]));
        assert_eq!(cache.peek(20), Some(ids[1]));
        // A lookup refreshes 20, so the later-inserted 40 goes first.
        assert_eq!(cache.lookup(20), Some(ids[1]));
        assert_eq!(cache.evict_lru(|_| true), Some(ids[4]));
        assert_eq!(cache.evict_lru(|_| true), Some(ids[1]));
        assert!(cache.entries.is_empty());
        assert_eq!(cache.evict_lru(|_| true), None, "nothing left to evict");
        assert_eq!(cache.evictions, 4);
    }
}
