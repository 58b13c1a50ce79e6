//! Snapshot objects, capture/deploy, lineage, and deletion safety.
//!
//! A [`SnapshotStore`] owns every snapshot on a node. Capture shallow-
//! clones the target UC's root table, records its registers and the size
//! of its dirty diff, and links the new snapshot to the one the UC was
//! deployed from — building the *snapshot stack* lineage. Deploy shallow-
//! clones a snapshot's root into a fresh [`AddressSpace`] and hands back
//! the registers to resume from.
//!
//! Deletion follows the paper's policy: a snapshot may only be deleted
//! when no UCs are active on it and no child snapshot depends on it. The
//! underlying frames are refcounted, so even a policy violation could not
//! corrupt memory — the policy exists to keep cache accounting honest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use seuss_mem::{MemError, PhysMemory, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region};
use seuss_trace::{TraceEvent, Tracer};

use crate::regs::RegisterState;

/// Identifier of a snapshot within a [`SnapshotStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SnapshotId(u32);

impl SnapshotId {
    /// Raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// What a snapshot captures, per the invocation lifecycle of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotKind {
    /// A fully-initialized language runtime with the invocation driver
    /// listening — one per supported interpreter.
    Runtime,
    /// A function-specific diff: code imported and compiled, ready to run.
    Function,
}

/// Errors from snapshot operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// Deletion refused: UCs are still deployed from this snapshot.
    ActiveUcs(u32),
    /// Deletion refused: child snapshots diff against this one.
    HasChildren(u32),
    /// The id does not name a live snapshot.
    Dangling,
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::OutOfMemory => write!(f, "out of physical memory"),
            SnapshotError::ActiveUcs(n) => write!(f, "{n} active UCs depend on snapshot"),
            SnapshotError::HasChildren(n) => write!(f, "{n} child snapshots depend on snapshot"),
            SnapshotError::Dangling => write!(f, "dangling snapshot id"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<MemError> for SnapshotError {
    fn from(_: MemError) -> Self {
        SnapshotError::OutOfMemory
    }
}

/// An immutable execution-state template.
pub struct Snapshot {
    root: seuss_paging::TableId,
    regs: RegisterState,
    regions: Vec<Region>,
    kind: SnapshotKind,
    label: String,
    parent: Option<SnapshotId>,
    /// Pages the captured UC had written since deploy — the marginal
    /// (diff) size of this snapshot in its stack.
    diff_pages: u64,
    active_ucs: u32,
    children: u32,
    /// Integrity checksum folded over the capture-time state. Every
    /// field it covers is immutable after capture, so a mismatch can only
    /// mean the snapshot was damaged ([`SnapshotStore::corrupt`]).
    checksum: u64,
}

/// Folds the capture-time state into the integrity checksum.
fn fold_checksum(
    root: seuss_paging::TableId,
    regs: &RegisterState,
    kind: SnapshotKind,
    label: &str,
    diff_pages: u64,
) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    let mut h = mix(root.index() as u64);
    h = mix(h ^ regs.rip.as_u64());
    h = mix(h ^ regs.rsp.as_u64());
    h = mix(h ^ regs.rflags);
    for g in regs.gpr {
        h = mix(h ^ g);
    }
    h = mix(h ^ matches!(kind, SnapshotKind::Function) as u64);
    for b in label.bytes() {
        h = mix(h ^ b as u64);
    }
    mix(h ^ diff_pages)
}

impl Snapshot {
    /// The snapshot's root table (never written through).
    pub fn root(&self) -> seuss_paging::TableId {
        self.root
    }

    /// Captured register file.
    pub fn regs(&self) -> RegisterState {
        self.regs
    }

    /// Runtime or function snapshot.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// Human-readable label ("nodejs-runtime", function name…).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The snapshot this one diffs against, if any.
    pub fn parent(&self) -> Option<SnapshotId> {
        self.parent
    }

    /// The region layout the snapshot was captured with.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Marginal size of this snapshot in pages (its page-level diff).
    pub fn diff_pages(&self) -> u64 {
        self.diff_pages
    }

    /// Marginal size in MiB — the unit of Table 1.
    pub fn diff_mib(&self) -> f64 {
        (self.diff_pages * PAGE_SIZE as u64) as f64 / (1024.0 * 1024.0)
    }

    /// UCs currently deployed from this snapshot.
    pub fn active_ucs(&self) -> u32 {
        self.active_ucs
    }

    /// Snapshots diffing against this one (a snapshot with children
    /// cannot be deleted — or demoted to the storage tier).
    pub fn children(&self) -> u32 {
        self.children
    }

    /// The capture-time integrity checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the stored checksum still matches the capture-time state.
    pub fn is_intact(&self) -> bool {
        self.checksum
            == fold_checksum(
                self.root,
                &self.regs,
                self.kind,
                &self.label,
                self.diff_pages,
            )
    }
}

/// Owner of all snapshots on a node.
///
/// A capture takes the lowest free slot, so ids are reused lowest-first.
#[derive(Default)]
pub struct SnapshotStore {
    snaps: Vec<Option<Snapshot>>,
    /// Indices of the `None` slots in `snaps`, lowest on top.
    free: BinaryHeap<Reverse<u32>>,
    /// Tracing handle (disabled by default; the node installs a live one).
    pub tracer: Tracer,
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Number of live snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len() - self.free.len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access a snapshot.
    pub fn get(&self, id: SnapshotId) -> Result<&Snapshot, SnapshotError> {
        self.snaps
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(SnapshotError::Dangling)
    }

    fn get_mut(&mut self, id: SnapshotId) -> Result<&mut Snapshot, SnapshotError> {
        self.snaps
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(SnapshotError::Dangling)
    }

    /// Captures a snapshot of a running UC's address space.
    ///
    /// The UC keeps running afterwards; its dirty set and private-page
    /// counter are reset because everything it had written is now shared
    /// with (and preserved by) the snapshot. Future writes COW as usual.
    ///
    /// `parent` links the snapshot stack: the runtime snapshot for a
    /// function capture, `None` for a base runtime capture.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        space: &mut AddressSpace,
        regs: RegisterState,
        kind: SnapshotKind,
        label: impl Into<String>,
        parent: Option<SnapshotId>,
    ) -> Result<SnapshotId, SnapshotError> {
        let root = mmu.shallow_clone(mem, space.root())?;
        let dirty = space.take_dirty();
        let diff_pages = dirty.len() as u64;
        space.reset_private_pages();
        // Account the paper's eager dirty-page clone cost; our lazy scheme
        // defers the copies to the UC's next writes, but the capture
        // operation is what the cost model charges for them.
        mmu.stats.snapshot_clones += diff_pages;
        mmu.stats.dirty_scanned += diff_pages;
        self.tracer.event(TraceEvent::SnapshotCapture {
            dirty_pages: diff_pages,
        });

        if let Some(p) = parent {
            self.get_mut(p)?.children += 1;
        }
        let label = label.into();
        let checksum = fold_checksum(root, &regs, kind, &label, diff_pages);
        let snap = Snapshot {
            root,
            regs,
            regions: space.regions().to_vec(),
            kind,
            label,
            parent,
            diff_pages,
            active_ucs: 0,
            children: 0,
            checksum,
        };
        match self.free.pop() {
            Some(Reverse(idx)) => {
                self.snaps[idx as usize] = Some(snap);
                Ok(SnapshotId(idx))
            }
            None => {
                self.snaps.push(Some(snap));
                Ok(SnapshotId(self.snaps.len() as u32 - 1))
            }
        }
    }

    /// Deploys a new UC address space from a snapshot.
    ///
    /// "The procedure … starts with creating a new UC, which includes a
    /// shallow copy of snapshot page table structure. Next, the root of
    /// the new UC page table is mapped to the core and the TLB is flushed"
    /// (§6). Returns the fresh space and the registers to resume at.
    pub fn deploy(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        id: SnapshotId,
    ) -> Result<(AddressSpace, RegisterState), SnapshotError> {
        let (root, regs, regions) = {
            let snap = self.get(id)?;
            let root = mmu.shallow_clone(mem, snap.root)?;
            (root, snap.regs, snap.regions.clone())
        };
        let mut space = AddressSpace::from_root(root);
        space.set_regions(regions);
        mmu.switch_to(root);
        self.tracer.event(TraceEvent::SnapshotDeploy);
        self.get_mut(id)?.active_ucs += 1;
        Ok((space, regs))
    }

    /// Records that a UC deployed from `id` has been destroyed.
    pub fn release_uc(&mut self, id: SnapshotId) -> Result<(), SnapshotError> {
        let snap = self.get_mut(id)?;
        assert!(snap.active_ucs > 0, "release without deploy");
        snap.active_ucs -= 1;
        Ok(())
    }

    /// Deletes a snapshot, enforcing the §6 safety policy.
    pub fn delete(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        id: SnapshotId,
    ) -> Result<(), SnapshotError> {
        let snap = self.get(id)?;
        if snap.active_ucs > 0 {
            return Err(SnapshotError::ActiveUcs(snap.active_ucs));
        }
        if snap.children > 0 {
            return Err(SnapshotError::HasChildren(snap.children));
        }
        let snap = self.snaps[id.0 as usize].take().expect("checked live");
        self.free.push(Reverse(id.0));
        if let Some(p) = snap.parent {
            if let Ok(parent) = self.get_mut(p) {
                parent.children -= 1;
            }
        }
        mmu.release_root(mem, snap.root);
        Ok(())
    }

    /// Verifies a snapshot's integrity checksum. `Ok(true)` means the
    /// capture-time state still hashes to the stored checksum.
    pub fn verify(&self, id: SnapshotId) -> Result<bool, SnapshotError> {
        Ok(self.get(id)?.is_intact())
    }

    /// Damages a snapshot's stored checksum in place (fault injection:
    /// simulated bit rot). The snapshot still deploys — detection is the
    /// caller's job via [`SnapshotStore::verify`] before use.
    pub fn corrupt(&mut self, id: SnapshotId) -> Result<(), SnapshotError> {
        let snap = self.get_mut(id)?;
        snap.checksum ^= 0xDEAD_BEEF_0BAD_F00D;
        Ok(())
    }

    /// The lineage of `id`, base-first (the snapshot stack).
    pub fn stack_of(&self, id: SnapshotId) -> Result<Vec<SnapshotId>, SnapshotError> {
        let mut chain = vec![id];
        let mut cur = self.get(id)?;
        while let Some(p) = cur.parent {
            chain.push(p);
            cur = self.get(p)?;
        }
        chain.reverse();
        Ok(chain)
    }

    /// Total resident pages reachable from a snapshot (full image size,
    /// shared pages counted once). This is the "Snapshot Size" column of
    /// Table 1 for a runtime snapshot.
    pub fn resident_pages(&self, mmu: &Mmu, id: SnapshotId) -> Result<u64, SnapshotError> {
        let snap = self.get(id)?;
        Ok(mmu.collect_mapped(snap.root).len() as u64)
    }

    /// Resident size in MiB.
    pub fn resident_mib(&self, mmu: &Mmu, id: SnapshotId) -> Result<f64, SnapshotError> {
        Ok((self.resident_pages(mmu, id)? * PAGE_SIZE as u64) as f64 / (1024.0 * 1024.0))
    }

    /// Sum of marginal diff sizes across all live snapshots, in pages —
    /// the true storage cost of the snapshot cache.
    pub fn total_diff_pages(&self) -> u64 {
        self.snaps.iter().flatten().map(|s| s.diff_pages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_mem::VirtAddr;
    use seuss_paging::RegionKind;

    fn setup() -> (PhysMemory, Mmu, AddressSpace) {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        space.add_region(Region {
            start: VirtAddr::new(0x10_0000),
            pages: 8192,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        (mem, mmu, space)
    }

    fn dirty_n(mmu: &mut Mmu, mem: &mut PhysMemory, space: &mut AddressSpace, n: u64, salt: u64) {
        for i in 0..n {
            let va = VirtAddr::new(0x10_0000 + (salt * 1000 + i) * PAGE_SIZE as u64);
            mmu.touch_write(mem, space, va).unwrap();
        }
    }

    #[test]
    fn capture_records_diff_and_resets_uc() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 10, 0);
        let id = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        let snap = store.get(id).unwrap();
        assert_eq!(snap.diff_pages(), 10);
        assert_eq!(space.dirty_count(), 0);
        assert_eq!(space.private_pages(), 0);
        assert_eq!(store.resident_pages(&mmu, id).unwrap(), 10);
    }

    #[test]
    fn deploy_shares_image_and_tracks_active() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 50, 0);
        let id = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::at(VirtAddr::new(0x40), VirtAddr::new(0x80)),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        let before = mem.stats().used_frames;
        let (uc, regs) = store.deploy(&mut mmu, &mut mem, id).unwrap();
        assert_eq!(regs.rip.as_u64(), 0x40);
        assert_eq!(store.get(id).unwrap().active_ucs(), 1);
        // Deploy costs exactly one frame: the cloned root table.
        assert_eq!(mem.stats().used_frames, before + 1);
        // Regions came across.
        assert!(uc.region_at(VirtAddr::new(0x10_0000)).is_some());
        mmu.destroy_space(&mut mem, uc);
        store.release_uc(id).unwrap();
        assert_eq!(store.get(id).unwrap().active_ucs(), 0);
    }

    #[test]
    fn snapshot_stack_diff_sizes() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        // Base: 100 pages of "interpreter".
        dirty_n(&mut mmu, &mut mem, &mut space, 100, 0);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        // Function Foo: deploy, write 5 pages, capture.
        let (mut foo_uc, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
        dirty_n(&mut mmu, &mut mem, &mut foo_uc, 5, 2);
        let foo = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut foo_uc,
                RegisterState::default(),
                SnapshotKind::Function,
                "foo",
                Some(base),
            )
            .unwrap();
        assert_eq!(store.get(foo).unwrap().diff_pages(), 5);
        // Foo resolves the full image: 100 shared + 5 private.
        assert_eq!(store.resident_pages(&mmu, foo).unwrap(), 105);
        // Lineage is base-first.
        assert_eq!(store.stack_of(foo).unwrap(), vec![base, foo]);
        // Storage cost is 105 pages, not 205 (§3's Foo/Bar example).
        assert_eq!(store.total_diff_pages(), 105);
    }

    #[test]
    fn foo_bar_example_from_section_3() {
        // "If the interpreter is 100MB and each function adds 1MB, we
        // require 202MB … with snapshot stacks 102MB."
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 100, 0);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "js",
                None,
            )
            .unwrap();
        let frames_shared_image = mem.stats().data_frames;
        for (salt, name) in [(1u64, "foo"), (2, "bar")] {
            let (mut uc, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
            dirty_n(&mut mmu, &mut mem, &mut uc, 1, salt);
            store
                .capture(
                    &mut mmu,
                    &mut mem,
                    &mut uc,
                    RegisterState::default(),
                    SnapshotKind::Function,
                    name,
                    Some(base),
                )
                .unwrap();
            mmu.destroy_space(&mut mem, uc);
            store.release_uc(base).unwrap();
        }
        // Data frames: 100 shared + 1 per function = 102, not 202.
        assert_eq!(mem.stats().data_frames, frames_shared_image + 2);
        assert_eq!(store.total_diff_pages(), 102);
    }

    #[test]
    fn delete_policy_enforced() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 3, 0);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        let (uc, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
        assert_eq!(
            store.delete(&mut mmu, &mut mem, base),
            Err(SnapshotError::ActiveUcs(1))
        );
        mmu.destroy_space(&mut mem, uc);
        store.release_uc(base).unwrap();

        // Child snapshot also blocks deletion.
        let (mut uc2, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
        dirty_n(&mut mmu, &mut mem, &mut uc2, 1, 3);
        let child = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut uc2,
                RegisterState::default(),
                SnapshotKind::Function,
                "f",
                Some(base),
            )
            .unwrap();
        mmu.destroy_space(&mut mem, uc2);
        store.release_uc(base).unwrap();
        assert_eq!(
            store.delete(&mut mmu, &mut mem, base),
            Err(SnapshotError::HasChildren(1))
        );
        // Delete the child first, then the base.
        store.delete(&mut mmu, &mut mem, child).unwrap();
        store.delete(&mut mmu, &mut mem, base).unwrap();
        assert_eq!(mem.stats().used_frames, mmu.table_pages(space.root()) + 3);
        assert!(store.is_empty());
    }

    #[test]
    fn deleting_function_snapshot_keeps_shared_pages() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 20, 0);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        let (mut uc, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
        dirty_n(&mut mmu, &mut mem, &mut uc, 2, 5);
        let f = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut uc,
                RegisterState::default(),
                SnapshotKind::Function,
                "f",
                Some(base),
            )
            .unwrap();
        mmu.destroy_space(&mut mem, uc);
        store.release_uc(base).unwrap();
        let before = mem.stats().data_frames;
        store.delete(&mut mmu, &mut mem, f).unwrap();
        // Only the function's 2 private pages were released.
        assert_eq!(mem.stats().data_frames, before - 2);
        // Base still deploys fine.
        let (uc2, _) = store.deploy(&mut mmu, &mut mem, base).unwrap();
        assert_eq!(mmu.collect_mapped(uc2.root()).len(), 20);
        mmu.destroy_space(&mut mem, uc2);
        store.release_uc(base).unwrap();
    }

    #[test]
    fn checksums_verify_until_corrupted() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 4, 0);
        let a = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::at(VirtAddr::new(0x40), VirtAddr::new(0x80)),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        dirty_n(&mut mmu, &mut mem, &mut space, 2, 1);
        let b = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Function,
                "f",
                Some(a),
            )
            .unwrap();
        assert!(store.verify(a).unwrap());
        assert!(store.verify(b).unwrap());
        // Checksums depend on the captured state, so siblings differ.
        assert_ne!(
            store.get(a).unwrap().checksum(),
            store.get(b).unwrap().checksum()
        );
        store.corrupt(b).unwrap();
        assert!(!store.verify(b).unwrap(), "corruption must be detected");
        assert!(store.verify(a).unwrap(), "other snapshots unaffected");
        // Corruption is involutive through the XOR mask; a second hit
        // restores the checksum (handy for tests, irrelevant to policy).
        store.corrupt(b).unwrap();
        assert!(store.verify(b).unwrap());
        assert_eq!(store.verify(SnapshotId(99)), Err(SnapshotError::Dangling));
        assert_eq!(store.corrupt(SnapshotId(99)), Err(SnapshotError::Dangling));
    }

    #[test]
    fn release_dangling_is_error() {
        let mut store = SnapshotStore::new();
        assert_eq!(
            store.release_uc(SnapshotId(9)),
            Err(SnapshotError::Dangling)
        );
    }

    #[test]
    fn many_deploys_from_one_snapshot() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        dirty_n(&mut mmu, &mut mem, &mut space, 30, 0);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap();
        let before = mem.stats().used_frames;
        let ucs: Vec<_> = (0..64)
            .map(|_| store.deploy(&mut mmu, &mut mem, base).unwrap().0)
            .collect();
        assert_eq!(store.get(base).unwrap().active_ucs(), 64);
        assert_eq!(mem.stats().used_frames, before + 64);
        for uc in ucs {
            mmu.destroy_space(&mut mem, uc);
            store.release_uc(base).unwrap();
        }
        assert_eq!(mem.stats().used_frames, before);
    }

    #[test]
    fn freed_ids_are_reused_lowest_first() {
        let (mut mem, mut mmu, mut space) = setup();
        let mut store = SnapshotStore::new();
        let mut capture = |store: &mut SnapshotStore, mmu: &mut Mmu, mem: &mut PhysMemory| {
            let regs = RegisterState::default();
            let id = store.capture(mmu, mem, &mut space, regs, SnapshotKind::Runtime, "s", None);
            id.unwrap().index()
        };
        for want in 0..5 {
            assert_eq!(capture(&mut store, &mut mmu, &mut mem), want);
        }
        for id in [3, 1] {
            store.delete(&mut mmu, &mut mem, SnapshotId(id)).unwrap();
        }
        assert_eq!(store.len(), 3);
        let next: Vec<u32> = (0..3)
            .map(|_| capture(&mut store, &mut mmu, &mut mem))
            .collect();
        assert_eq!(next, [1, 3, 5]);
        assert_eq!(store.len(), 6);
    }
}
