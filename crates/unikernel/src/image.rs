//! Pairing mechanical snapshots with their semantic mirror.
//!
//! A snapshot in `seuss-snapshot` is pages + registers. A *deployable UC
//! image* additionally needs the interpreter state those pages encode —
//! the host-side mirror of the guest heap. [`ImageStore`] keeps that
//! mirror beside the snapshot, under the snapshot's own id: capture
//! stores an `Rc` of the UC's interpreter (cheap — copies materialize
//! only when a descendant mutates), deploy clones the `Rc` into the new
//! UC and replays the driver's resume writes.

use std::rc::Rc;

use miniscript::{Interpreter, ProgId};
use seuss_mem::{FrameKind, PhysMemory};
use seuss_paging::Mmu;
use seuss_snapshot::transfer::{
    export_diff, export_full, import as import_snapshot, SnapshotImage,
};
use seuss_snapshot::{SnapshotError, SnapshotId, SnapshotKind, SnapshotStore};
use seuss_trace::{TraceEvent, Tracer};
use simcore::SimDuration;

use crate::context::{UcContext, UcError};
use crate::layout::Layout;
use crate::profile::UcProfile;

/// The semantic mirror a deploy needs beside a snapshot's pages.
#[derive(Clone)]
pub(crate) struct UcImage {
    pub(crate) interp: Rc<Interpreter>,
    pub(crate) net_warmed: bool,
    pub(crate) driver_warmed: bool,
    pub(crate) main_prog: Option<ProgId>,
    pub(crate) layout: Layout,
    pub(crate) profile: UcProfile,
}

/// A UC image serialized for cross-node migration (§9, DR-SEUSS): the
/// mechanical snapshot image plus the semantic state a destination node
/// needs to deploy it.
#[derive(Clone)]
pub struct UcImagePackage {
    /// The page-level snapshot image (full or diff).
    pub snapshot: SnapshotImage,
    image: UcImage,
}

impl UcImagePackage {
    /// Bytes this package occupies on the wire (pages dominate; the
    /// interpreter mirror rides along as serialized heap metadata,
    /// already embodied in the shipped pages).
    pub fn wire_bytes(&self) -> u64 {
        self.snapshot.wire_bytes()
    }
}

/// Store of deployable UC images (snapshot + interpreter mirror).
///
/// An image *is* its snapshot: it has no id of its own, and the
/// [`SnapshotId`] the snapshot store hands out names both.
#[derive(Default)]
pub struct ImageStore {
    /// Interpreter mirrors, indexed by snapshot index.
    images: Vec<Option<UcImage>>,
    /// Tracing handle (disabled by default; the node installs a live one).
    pub tracer: Tracer,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Number of live images.
    pub fn len(&self) -> usize {
        self.images.iter().flatten().count()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn image(&self, id: SnapshotId) -> Result<&UcImage, UcError> {
        self.images
            .get(id.index() as usize)
            .and_then(|i| i.as_ref())
            .ok_or(UcError::BadState("dangling image id"))
    }

    /// Stores `image` as the mirror of snapshot `id`.
    fn put(&mut self, id: SnapshotId, image: UcImage) {
        let i = id.index() as usize;
        if self.images.len() <= i {
            self.images.resize_with(i + 1, || None);
        }
        self.images[i] = Some(image);
    }

    /// The mechanical snapshot behind an image: `id` itself, once it names
    /// a live image. Callers that hold an image id already hold its
    /// snapshot; this stays for code written when the two differed.
    pub fn snapshot_of(&self, id: SnapshotId) -> Result<SnapshotId, UcError> {
        self.image(id).map(|_| id)
    }

    /// Captures a UC into a new image. The UC keeps running. Returns the
    /// image's snapshot id and the capture cost (the eager dirty-page
    /// clone the paper charges ≈0.8 µs per page for).
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        uc: &mut UcContext,
        kind: SnapshotKind,
        label: impl Into<String>,
        parent: Option<SnapshotId>,
    ) -> Result<(SnapshotId, SimDuration), UcError> {
        if let Some(p) = parent {
            self.image(p)?;
        }
        let dirty_pages = uc.space.dirty_count();
        let snap = snaps
            .capture(mmu, mem, &mut uc.space, uc.regs, kind, label, parent)
            .map_err(map_snap_err)?;
        self.put(snap, uc.image());
        // 0.8 µs per cloned dirty page (400 µs for the paper's 2 MiB NOP
        // snapshot), plus a fixed #DB-exception entry/exit.
        let cost = SimDuration::from_nanos(800) * dirty_pages + SimDuration::from_micros(15);
        Ok((snap, cost))
    }

    /// Deploys a new UC from an image: shallow-clones the snapshot's page
    /// tables, allocates kernel metadata, and replays the driver's resume
    /// writes. Returns the UC and the mechanical deploy cost.
    pub fn deploy(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: SnapshotId,
    ) -> Result<(UcContext, SimDuration), UcError> {
        self.deploy_prepared(mmu, mem, snaps, id, |_, _, _| Ok(()))
    }

    /// [`ImageStore::deploy`] with a preparation hook that runs on the
    /// fresh UC root *after* the shallow clone but *before* the driver's
    /// resume writes — the window where a storage tier prefetches a
    /// demoted snapshot's working set into the UC's private tables. A
    /// hook error unwinds the half-built UC.
    pub fn deploy_prepared(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: SnapshotId,
        prepare: impl FnOnce(&mut Mmu, &mut PhysMemory, seuss_paging::TableId) -> Result<(), UcError>,
    ) -> Result<(UcContext, SimDuration), UcError> {
        let image = self.image(id)?;
        let (layout, profile) = (image.layout, image.profile);
        let ops_before = mmu.stats;
        let (space, regs) = snaps.deploy(mmu, mem, id).map_err(map_snap_err)?;
        if let Err(e) = prepare(mmu, mem, space.root()) {
            mmu.release_root(mem, space.root());
            let _ = snaps.release_uc(id);
            return Err(e);
        }
        let kmeta = match mem.alloc_many(FrameKind::KernelMeta, profile.kmeta_pages) {
            Ok(k) => k,
            Err(e) => {
                mmu.release_root(mem, space.root());
                let _ = snaps.release_uc(id);
                return Err(UcError::Mem(e));
            }
        };
        let mut uc = UcContext::from_image(space, regs, image, id, kmeta);
        // Resume-to-listening writes: the driver re-enters its accept loop
        // and dirties a deterministic run of data pages (COW clones of the
        // snapshot's pages).
        let resumed = mmu.write_run(
            mem,
            &mut uc.space,
            layout.data_base,
            profile.resume_touch_pages,
            &[],
        );
        if let Err(e) = resumed {
            let _ = snaps.release_uc(id);
            uc.destroy(mmu, mem);
            return Err(UcError::Fault(e));
        }
        let ops = mmu.stats.since(&ops_before);
        self.tracer.event(TraceEvent::FramesCopied {
            frames: ops.pages_copied(),
        });
        // Mechanical deploy cost: per-op charges for the root copy, table
        // work, COW clones, plus the fixed UC-construction overhead that
        // calibrates warm starts to Table 1 (see seuss-core::cost for the
        // derivation).
        let cost = SimDuration::from_nanos(500) // root-table copy + TLB flush
            + SimDuration::from_nanos(300) * (ops.tables_split + ops.tables_allocated)
            + SimDuration::from_nanos(800) * ops.pages_copied();
        Ok((uc, cost))
    }

    /// Serializes an image for migration to another node. With `parent`
    /// set, only the diff against the parent image ships (the destination
    /// must hold the parent — every DR-SEUSS node holds the runtime
    /// snapshots); without it the full resident set ships.
    pub fn export(
        &self,
        mmu: &Mmu,
        mem: &PhysMemory,
        snaps: &SnapshotStore,
        id: SnapshotId,
        parent: Option<SnapshotId>,
    ) -> Result<UcImagePackage, UcError> {
        let img = self.image(id)?;
        let snapshot = match parent {
            Some(p) => {
                self.image(p)?;
                export_diff(mmu, mem, snaps, id, p)
            }
            None => export_full(mmu, mem, snaps, id),
        }
        .map_err(map_snap_err)?;
        Ok(UcImagePackage {
            snapshot,
            image: img.clone(),
        })
    }

    /// Installs a migrated package as a local image. For a diff package,
    /// `parent` names this node's copy of the parent image.
    pub fn import(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        package: &UcImagePackage,
        parent: Option<SnapshotId>,
    ) -> Result<SnapshotId, UcError> {
        if let Some(p) = parent {
            self.image(p)?;
        }
        let snap =
            import_snapshot(mmu, mem, snaps, &package.snapshot, parent).map_err(map_snap_err)?;
        self.put(snap, package.image.clone());
        Ok(snap)
    }

    /// Destroys a UC deployed from this store, fixing snapshot accounting.
    pub fn destroy_uc(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        uc: UcContext,
    ) {
        if let Some(snap) = uc.source_snapshot {
            let _ = snaps.release_uc(snap);
        }
        uc.destroy(mmu, mem);
    }

    /// Deletes an image and its snapshot, subject to the §6 safety
    /// policy: a refused snapshot delete leaves the image in place.
    pub fn delete(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        snaps: &mut SnapshotStore,
        id: SnapshotId,
    ) -> Result<(), SnapshotError> {
        if self.image(id).is_err() {
            return Err(SnapshotError::Dangling);
        }
        snaps.delete(mmu, mem, id)?;
        self.images[id.index() as usize] = None;
        Ok(())
    }
}

fn map_snap_err(e: SnapshotError) -> UcError {
    match e {
        SnapshotError::OutOfMemory => UcError::Mem(seuss_mem::MemError::OutOfFrames),
        other => UcError::Script(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{InvocationOutcome, UcState};
    use miniscript::RuntimeProfile;

    struct Rig {
        mem: PhysMemory,
        mmu: Mmu,
        snaps: SnapshotStore,
        images: ImageStore,
    }

    fn rig() -> (Rig, UcContext) {
        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let (uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        (
            Rig {
                mem,
                mmu,
                snaps: SnapshotStore::new(),
                images: ImageStore::new(),
            },
            uc,
        )
    }

    fn capture_base(r: &mut Rig, uc: &mut UcContext) -> SnapshotId {
        r.images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                uc,
                SnapshotKind::Runtime,
                "base",
                None,
            )
            .unwrap()
            .0
    }

    #[test]
    fn deploy_from_runtime_image_is_listening() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (uc, cost) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert_eq!(uc.state, UcState::Listening);
        assert!(cost > SimDuration::ZERO);
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
    }

    #[test]
    fn full_cold_path_through_images() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        // Cold: deploy from runtime image, import, capture fn image, run.
        let (mut uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        uc.connect(&mut r.mmu, &mut r.mem).unwrap();
        uc.import_function(
            &mut r.mmu,
            &mut r.mem,
            "function main(a) { return 41 + 1; }",
        )
        .unwrap();
        let (fn_img, _) = r
            .images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                &mut uc,
                SnapshotKind::Function,
                "f",
                Some(base),
            )
            .unwrap();
        let (o, _) = uc.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
        assert_eq!(
            o,
            InvocationOutcome::Completed {
                result: "42".into()
            }
        );
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);

        // Warm: deploy from the function image — lands Ready, runs without
        // importing, and shares the compiled program via the Rc mirror.
        let (mut warm, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, fn_img)
            .unwrap();
        assert_eq!(warm.state, UcState::Ready);
        let (o, _) = warm.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
        assert_eq!(
            o,
            InvocationOutcome::Completed {
                result: "42".into()
            }
        );
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, warm);
    }

    #[test]
    fn warm_deploys_do_not_share_mutable_state() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (mut uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        uc.connect(&mut r.mmu, &mut r.mem).unwrap();
        uc.import_function(
            &mut r.mmu,
            &mut r.mem,
            "let counter = 0; function main(a) { counter = counter + 1; return counter; }",
        )
        .unwrap();
        let (fn_img, _) = r
            .images
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut r.snaps,
                &mut uc,
                SnapshotKind::Function,
                "ctr",
                Some(base),
            )
            .unwrap();
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);

        // Two independent warm deploys each see counter = 1 on first call:
        // snapshot isolation across UCs.
        for _ in 0..2 {
            let (mut w, _) = r
                .images
                .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, fn_img)
                .unwrap();
            let (o, _) = w.invoke(&mut r.mmu, &mut r.mem, &[]).unwrap();
            assert_eq!(o, InvocationOutcome::Completed { result: "1".into() });
            r.images.destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, w);
        }
    }

    #[test]
    fn idle_deploys_are_cheap_in_frames() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let before = r.mem.stats().used_frames;
        let (uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        let per_uc = r.mem.stats().used_frames - before;
        let p = UcProfile::tiny();
        // kmeta + resume touches + a handful of table pages.
        assert!(per_uc >= p.kmeta_pages + p.resume_touch_pages);
        assert!(per_uc < p.kmeta_pages + p.resume_touch_pages + 10);
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
        assert_eq!(r.mem.stats().used_frames, before);
    }

    #[test]
    fn image_deletion_respects_policy() {
        let (mut r, mut base_uc) = rig();
        let base = capture_base(&mut r, &mut base_uc);
        let (uc, _) = r
            .images
            .deploy(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert!(matches!(
            r.images.delete(&mut r.mmu, &mut r.mem, &mut r.snaps, base),
            Err(SnapshotError::ActiveUcs(1))
        ));
        r.images
            .destroy_uc(&mut r.mmu, &mut r.mem, &mut r.snaps, uc);
        r.images
            .delete(&mut r.mmu, &mut r.mem, &mut r.snaps, base)
            .unwrap();
        assert!(r.images.is_empty());
    }

    #[test]
    fn freed_image_ids_are_reused_lowest_first() {
        let (mut r, mut base_uc) = rig();
        let ids: Vec<SnapshotId> = (0..5).map(|_| capture_base(&mut r, &mut base_uc)).collect();
        assert_eq!(
            ids.iter().map(|i| i.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        for i in [3, 1] {
            r.images
                .delete(&mut r.mmu, &mut r.mem, &mut r.snaps, ids[i])
                .unwrap();
            assert!(r.snaps.get(ids[i]).is_err(), "the snapshot went with it");
        }
        assert_eq!(r.images.len(), 3);
        let next: Vec<u32> = (0..3)
            .map(|_| capture_base(&mut r, &mut base_uc).index())
            .collect();
        assert_eq!(next, [1, 3, 5]);
        assert_eq!(r.images.len(), 6);
        assert_eq!(r.snaps.len(), 6);
    }
}
