//! Snapshot export/import: the mechanism behind a distributed SEUSS.
//!
//! §9: "The read-only and deploy-anywhere properties of unikernel
//! snapshots suggest they can be cloned and deployed across machines with
//! similar hardware profiles. A distributed SEUSS would enable advanced
//! sharing techniques to speed up remote deployments, such as VM state
//! coloring or on-demand paging."
//!
//! Two transfer formats:
//!
//! * [`export_full`] — the whole resident set (deploy onto a node that
//!   has nothing);
//! * [`export_diff`] — only the pages that differ from a parent snapshot
//!   the destination already holds (the common case: every node carries
//!   the per-interpreter runtime snapshots, so a function snapshot ships
//!   as its ~2 MiB diff).
//!
//! An image lists page numbers, not page bytes: what a transfer costs
//! and what it shares depend on which pages ship. Import writes each
//! shipped page into the destination node's frame pool and captures a
//! local snapshot with the same registers and region layout.

use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{Mmu, Region};

use crate::regs::RegisterState;
use crate::store::{SnapshotError, SnapshotId, SnapshotKind, SnapshotStore};

/// A serialized snapshot, ready to cross the wire.
#[derive(Clone, Debug)]
pub struct SnapshotImage {
    /// Snapshot label.
    pub(crate) label: String,
    /// Runtime or function snapshot.
    pub(crate) kind: SnapshotKind,
    /// Captured registers (resume point).
    pub(crate) regs: RegisterState,
    /// Region layout of the source address space.
    pub(crate) regions: Vec<Region>,
    /// Virtual page numbers of the shipped pages, in address order.
    pub pages: Vec<u64>,
    /// Whether this is a diff (import requires the parent present).
    pub(crate) is_diff: bool,
}

impl SnapshotImage {
    /// Bytes this image occupies on the wire: a whole 4 KiB page plus a
    /// 16-byte header per shipped page.
    pub fn wire_bytes(&self) -> u64 {
        self.pages.len() as u64 * (PAGE_SIZE as u64 + 16)
    }

    /// Number of pages shipped.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// Exports a snapshot's full resident set.
pub fn export_full(
    mmu: &Mmu,
    store: &SnapshotStore,
    id: SnapshotId,
) -> Result<SnapshotImage, SnapshotError> {
    let snap = store.get(id)?;
    let pages = mmu
        .collect_mapped(snap.root())
        .into_iter()
        .map(|(vpn, _)| vpn)
        .collect();
    Ok(SnapshotImage {
        label: snap.label().to_string(),
        kind: snap.kind(),
        regs: snap.regs(),
        regions: snap.regions().to_vec(),
        pages,
        is_diff: false,
    })
}

/// Exports only the pages of `id` that differ (by mapped frame) from
/// `parent` — the snapshot-stack diff, e.g. a 2 MiB function snapshot on
/// a shared runtime image.
pub fn export_diff(
    mmu: &Mmu,
    store: &SnapshotStore,
    id: SnapshotId,
    parent: SnapshotId,
) -> Result<SnapshotImage, SnapshotError> {
    let snap = store.get(id)?;
    let parent_snap = store.get(parent)?;
    let pages = mmu
        .diff_mapped(snap.root(), Some(parent_snap.root()))
        .into_iter()
        .map(|(vpn, _)| vpn)
        .collect();
    Ok(SnapshotImage {
        label: snap.label().to_string(),
        kind: snap.kind(),
        regs: snap.regs(),
        regions: snap.regions().to_vec(),
        pages,
        is_diff: true,
    })
}

/// Imports an image into a destination node, producing a local snapshot.
///
/// For a diff image, `parent` names the destination's copy of the parent
/// snapshot: the import deploys a scratch space from it, writes the
/// shipped pages, and captures — so unshipped pages stay shared with the
/// local parent exactly as at the source.
pub fn import(
    mmu: &mut Mmu,
    mem: &mut PhysMemory,
    store: &mut SnapshotStore,
    image: &SnapshotImage,
    parent: Option<SnapshotId>,
) -> Result<SnapshotId, SnapshotError> {
    let mut space = match (image.is_diff, parent) {
        (true, Some(p)) => {
            let (space, _) = store.deploy(mmu, mem, p)?;
            space
        }
        (true, None) => return Err(SnapshotError::Dangling),
        (false, _) => {
            let mut s = mmu.create_space(mem).map_err(SnapshotError::from)?;
            for r in &image.regions {
                s.add_region(*r);
            }
            s
        }
    };
    for &vpn in &image.pages {
        mmu.touch_write(mem, &mut space, VirtAddr::from_page_number(vpn))
            .map_err(|_| SnapshotError::OutOfMemory)?;
    }
    let snap = store.capture(
        mmu,
        mem,
        &mut space,
        image.regs,
        image.kind,
        image.label.clone(),
        if image.is_diff { parent } else { None },
    )?;
    // The scratch space served its purpose.
    mmu.destroy_space(mem, space);
    if image.is_diff {
        if let Some(p) = parent {
            store.release_uc(p)?;
        }
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_paging::{AddressSpace, RegionKind};

    const BASE: u64 = 0x40_0000;

    fn node() -> (PhysMemory, Mmu, SnapshotStore) {
        (PhysMemory::with_mib(256), Mmu::new(), SnapshotStore::new())
    }

    /// A space with its first `pages` heap pages written.
    fn seeded(mmu: &mut Mmu, mem: &mut PhysMemory, pages: u64) -> AddressSpace {
        let mut s = mmu.create_space(mem).expect("space");
        s.add_region(Region {
            start: VirtAddr::new(BASE),
            pages: 4096,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        for i in 0..pages {
            let va = VirtAddr::new(BASE + i * PAGE_SIZE as u64);
            mmu.write_bytes(mem, &mut s, va, &[1]).expect("write");
        }
        s
    }

    /// Virtual page numbers `root` maps, in address order.
    fn pages_of(mmu: &Mmu, root: seuss_paging::TableId) -> Vec<u64> {
        mmu.collect_mapped(root)
            .into_iter()
            .map(|(vpn, _)| vpn)
            .collect()
    }

    #[test]
    fn full_export_import_maps_the_same_pages() {
        let (mut mem_a, mut mmu_a, mut store_a) = node();
        let mut space = seeded(&mut mmu_a, &mut mem_a, 3);
        let snap = store_a
            .capture(
                &mut mmu_a,
                &mut mem_a,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "rt",
                None,
            )
            .expect("capture");
        let image = export_full(&mmu_a, &store_a, snap).expect("export");
        assert_eq!(image.page_count(), 3);
        assert!(!image.is_diff);
        let source = pages_of(&mmu_a, store_a.get(snap).expect("snap").root());
        assert_eq!(image.pages, source);

        // A completely fresh "machine".
        let (mut mem_b, mut mmu_b, mut store_b) = node();
        let remote = import(&mut mmu_b, &mut mem_b, &mut store_b, &image, None).expect("import");
        let remote_root = store_b.get(remote).expect("remote").root();
        assert_eq!(pages_of(&mmu_b, remote_root), source);
        let (uc, regs) = store_b
            .deploy(&mut mmu_b, &mut mem_b, remote)
            .expect("deploy");
        assert_eq!(regs, RegisterState::default());
        assert_eq!(
            mmu_b.collect_mapped(uc.root()),
            mmu_b.collect_mapped(remote_root),
            "a deploy maps the imported frames"
        );
        mmu_b.destroy_space(&mut mem_b, uc);
        store_b.release_uc(remote).expect("release");
    }

    #[test]
    fn diff_export_ships_only_the_function_pages() {
        let (mut mem, mut mmu, mut store) = node();
        // Base: 50 pages.
        let mut base_space = seeded(&mut mmu, &mut mem, 50);
        let base = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut base_space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .expect("base");
        // Function: deploy, dirty 3 pages (1 overwrite + 2 fresh), capture.
        let (mut uc, _) = store.deploy(&mut mmu, &mut mem, base).expect("deploy");
        mmu.write_bytes(&mut mem, &mut uc, VirtAddr::new(BASE), b"overwritten")
            .expect("w");
        for i in [100u64, 101] {
            let va = VirtAddr::new(BASE + i * PAGE_SIZE as u64);
            mmu.write_bytes(&mut mem, &mut uc, va, b"fn-page")
                .expect("w");
        }
        let fn_snap = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut uc,
                RegisterState::default(),
                SnapshotKind::Function,
                "f",
                Some(base),
            )
            .expect("fn");
        mmu.destroy_space(&mut mem, uc);
        store.release_uc(base).expect("release");

        let diff = export_diff(&mmu, &store, fn_snap, base).expect("diff");
        assert_eq!(diff.page_count(), 3, "only the dirty pages ship");
        let full = export_full(&mmu, &store, fn_snap).expect("full");
        assert_eq!(full.page_count(), 52);
        assert!(diff.wire_bytes() < full.wire_bytes() / 10);
    }

    #[test]
    fn diff_import_shares_with_local_parent() {
        // Source node: base + function snapshot.
        let (mut mem_a, mut mmu_a, mut store_a) = node();
        let mut base_space_a = seeded(&mut mmu_a, &mut mem_a, 2);
        let base_a = store_a
            .capture(
                &mut mmu_a,
                &mut mem_a,
                &mut base_space_a,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "rt",
                None,
            )
            .expect("base a");
        let (mut uc, _) = store_a
            .deploy(&mut mmu_a, &mut mem_a, base_a)
            .expect("deploy");
        let fva = VirtAddr::new(BASE + 10 * PAGE_SIZE as u64);
        mmu_a
            .write_bytes(&mut mem_a, &mut uc, fva, b"fn!")
            .expect("w");
        let fn_a = store_a
            .capture(
                &mut mmu_a,
                &mut mem_a,
                &mut uc,
                RegisterState::default(),
                SnapshotKind::Function,
                "f",
                Some(base_a),
            )
            .expect("fn a");
        mmu_a.destroy_space(&mut mem_a, uc);
        store_a.release_uc(base_a).expect("release");

        // Destination node: already holds the runtime snapshot (imported
        // full earlier, like every node in a DR-SEUSS cluster).
        let (mut mem_b, mut mmu_b, mut store_b) = node();
        let rt_image = export_full(&mmu_a, &store_a, base_a).expect("rt export");
        let base_b =
            import(&mut mmu_b, &mut mem_b, &mut store_b, &rt_image, None).expect("rt import");

        // Ship only the function diff.
        let diff = export_diff(&mmu_a, &store_a, fn_a, base_a).expect("diff");
        let frames_before = mem_b.stats().data_frames;
        let fn_b =
            import(&mut mmu_b, &mut mem_b, &mut store_b, &diff, Some(base_b)).expect("import");
        // Only the diff pages cost new frames on the destination.
        assert!(mem_b.stats().data_frames <= frames_before + diff.page_count());

        // The destination maps the source's pages: the shipped ones in
        // private frames, the rest in the local parent's frames.
        let fn_root = store_b.get(fn_b).expect("fn b").root();
        let base_root = store_b.get(base_b).expect("base b").root();
        let source_root = store_a.get(fn_a).expect("fn a").root();
        assert_eq!(pages_of(&mmu_b, fn_root), pages_of(&mmu_a, source_root));
        let shipped = mmu_b.diff_mapped(fn_root, Some(base_root));
        assert_eq!(
            shipped.iter().map(|&(vpn, _)| vpn).collect::<Vec<_>>(),
            diff.pages,
            "exactly the shipped pages differ from the local parent"
        );
        for (vpn, frame) in shipped {
            assert_eq!(mem_b.refcount(frame), 1, "shipped page {vpn:#x} is shared");
        }
        // A deploy on the destination maps the imported snapshot's frames.
        let (uc_b, _) = store_b
            .deploy(&mut mmu_b, &mut mem_b, fn_b)
            .expect("deploy b");
        for va in [fva, VirtAddr::new(BASE)] {
            assert_eq!(
                mmu_b.translate(uc_b.root(), va).map(|e| e.frame()),
                mmu_b.translate(fn_root, va).map(|e| e.frame())
            );
        }
        assert_eq!(
            store_b.stack_of(fn_b).expect("stack"),
            vec![base_b, fn_b],
            "lineage rebuilt on the destination"
        );
        mmu_b.destroy_space(&mut mem_b, uc_b);
        store_b.release_uc(fn_b).expect("release");
    }

    #[test]
    fn diff_import_without_parent_is_rejected() {
        let (mut mem, mut mmu, mut store) = node();
        let image = SnapshotImage {
            label: "x".into(),
            kind: SnapshotKind::Function,
            regs: RegisterState::default(),
            regions: Vec::new(),
            pages: Vec::new(),
            is_diff: true,
        };
        assert!(import(&mut mmu, &mut mem, &mut store, &image, None).is_err());
    }
}
