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
//! Import rebuilds the pages into the destination node's frame pool and
//! captures a local snapshot with the same registers and region layout.

use seuss_mem::{PageContent, PhysMemory, VirtAddr, PAGE_SIZE};
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
    /// `(virtual page number, content)` pairs.
    pub pages: Vec<(u64, PageContent)>,
    /// Whether this is a diff (import requires the parent present).
    pub(crate) is_diff: bool,
}

impl SnapshotImage {
    /// Bytes this image occupies on the wire (page payloads + a small
    /// per-page header; sparse pages ship compressed by nature).
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
    mem: &PhysMemory,
    store: &SnapshotStore,
    id: SnapshotId,
) -> Result<SnapshotImage, SnapshotError> {
    let snap = store.get(id)?;
    let pages = mmu
        .collect_mapped(snap.root())
        .into_iter()
        .map(|(vpn, frame)| (vpn, mem.content_of(frame)))
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
    mem: &PhysMemory,
    store: &SnapshotStore,
    id: SnapshotId,
    parent: SnapshotId,
) -> Result<SnapshotImage, SnapshotError> {
    let snap = store.get(id)?;
    let parent_snap = store.get(parent)?;
    let pages = mmu
        .diff_mapped(snap.root(), Some(parent_snap.root()))
        .into_iter()
        .map(|(vpn, frame)| (vpn, mem.content_of(frame)))
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
/// snapshot: the import deploys a scratch space from it, overlays the
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
    for (vpn, content) in &image.pages {
        let va = VirtAddr::from_page_number(*vpn);
        let frame = mmu
            .touch_write(mem, &mut space, va)
            .map_err(|_| SnapshotError::OutOfMemory)?;
        mem.set_content(frame, content.clone());
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

    fn seeded(mmu: &mut Mmu, mem: &mut PhysMemory, pages: &[&[u8]]) -> AddressSpace {
        let mut s = mmu.create_space(mem).expect("space");
        s.add_region(Region {
            start: VirtAddr::new(BASE),
            pages: 4096,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        for (i, bytes) in pages.iter().enumerate() {
            let va = VirtAddr::new(BASE + i as u64 * PAGE_SIZE as u64);
            mmu.write_bytes(mem, &mut s, va, bytes).expect("write");
        }
        s
    }

    #[test]
    fn full_export_import_round_trips_bytes() {
        let (mut mem_a, mut mmu_a, mut store_a) = node();
        let mut space = seeded(&mut mmu_a, &mut mem_a, &[b"alpha", b"beta", b"gamma"]);
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
        let image = export_full(&mmu_a, &mem_a, &store_a, snap).expect("export");
        assert_eq!(image.page_count(), 3);
        assert!(!image.is_diff);

        // A completely fresh "machine".
        let (mut mem_b, mut mmu_b, mut store_b) = node();
        let remote = import(&mut mmu_b, &mut mem_b, &mut store_b, &image, None).expect("import");
        let (mut uc, regs) = store_b
            .deploy(&mut mmu_b, &mut mem_b, remote)
            .expect("deploy");
        assert_eq!(regs, RegisterState::default());
        for (i, want) in [b"alpha".as_slice(), b"beta", b"gamma"].iter().enumerate() {
            let va = VirtAddr::new(BASE + i as u64 * PAGE_SIZE as u64);
            let mut buf = vec![0u8; want.len()];
            mmu_b
                .read_bytes(&mut mem_b, &mut uc, va, &mut buf)
                .expect("read");
            assert_eq!(&buf, want, "page {i}");
        }
        mmu_b.destroy_space(&mut mem_b, uc);
        store_b.release_uc(remote).expect("release");
    }

    #[test]
    fn diff_export_ships_only_the_function_pages() {
        let (mut mem, mut mmu, mut store) = node();
        // Base: 50 pages.
        let contents: Vec<Vec<u8>> = (0..50u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = contents.iter().map(|v| v.as_slice()).collect();
        let mut base_space = seeded(&mut mmu, &mut mem, &refs);
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

        let diff = export_diff(&mmu, &mem, &store, fn_snap, base).expect("diff");
        assert_eq!(diff.page_count(), 3, "only the dirty pages ship");
        let full = export_full(&mmu, &mem, &store, fn_snap).expect("full");
        assert_eq!(full.page_count(), 52);
        assert!(diff.wire_bytes() < full.wire_bytes() / 10);
    }

    #[test]
    fn diff_import_shares_with_local_parent() {
        // Source node: base + function snapshot.
        let (mut mem_a, mut mmu_a, mut store_a) = node();
        let mut base_space_a = seeded(&mut mmu_a, &mut mem_a, &[b"rt0", b"rt1"]);
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
        let rt_image = export_full(&mmu_a, &mem_a, &store_a, base_a).expect("rt export");
        let base_b =
            import(&mut mmu_b, &mut mem_b, &mut store_b, &rt_image, None).expect("rt import");

        // Ship only the function diff.
        let diff = export_diff(&mmu_a, &mem_a, &store_a, fn_a, base_a).expect("diff");
        let frames_before = mem_b.stats().data_frames;
        let fn_b =
            import(&mut mmu_b, &mut mem_b, &mut store_b, &diff, Some(base_b)).expect("import");
        // Only the diff pages cost new frames on the destination.
        assert!(mem_b.stats().data_frames <= frames_before + diff.page_count());

        // Deploys on the destination see both runtime and function bytes.
        let (mut uc_b, _) = store_b
            .deploy(&mut mmu_b, &mut mem_b, fn_b)
            .expect("deploy b");
        let mut buf = [0u8; 3];
        mmu_b
            .read_bytes(&mut mem_b, &mut uc_b, fva, &mut buf)
            .expect("read");
        assert_eq!(&buf, b"fn!");
        mmu_b
            .read_bytes(&mut mem_b, &mut uc_b, VirtAddr::new(BASE), &mut buf)
            .expect("read");
        assert_eq!(&buf, b"rt0");
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
