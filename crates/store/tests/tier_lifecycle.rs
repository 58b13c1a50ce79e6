//! Lifecycle regressions on the tiered store, at the mechanism level
//! (no node): demote → restore round trips are byte-exact, and deleting
//! a demoted snapshot frees its device blocks without ever touching the
//! frames demotion already released.

use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, EntryFlags, Mmu, Region, RegionKind};
use seuss_snapshot::{RegisterState, SnapshotId, SnapshotKind, SnapshotStore};
use seuss_store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig, TieredStore};

const BASE: u64 = 0x10_0000;

struct Rig {
    mem: PhysMemory,
    mmu: Mmu,
    snaps: SnapshotStore,
    tier: TieredStore,
}

fn rig(policy: RestorePolicy) -> Rig {
    let tier = TieredStore::new(StoreConfig {
        device: DeviceConfig::test(1 << 16),
        policy,
        reclaim: ReclaimMode::DemoteColdest,
    });
    let mut mmu = Mmu::new();
    mmu.pager = Some(tier.make_pager());
    Rig {
        mem: PhysMemory::with_mib(64),
        mmu,
        snaps: SnapshotStore::new(),
        tier,
    }
}

fn fresh_space(r: &mut Rig) -> AddressSpace {
    let mut s = r.mmu.create_space(&mut r.mem).expect("space");
    s.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: 512,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    s
}

fn va_of(p: u64) -> VirtAddr {
    VirtAddr::new(BASE + p * PAGE_SIZE as u64)
}

/// Builds a parent snapshot with `parent_pages` pages, then a child
/// diffing `child_pages` more on top. Returns (parent, child).
fn stack(r: &mut Rig, parent_pages: u64, child_pages: u64) -> (SnapshotId, SnapshotId) {
    let mut space = fresh_space(r);
    for p in 0..parent_pages {
        r.mmu
            .write_bytes(&mut r.mem, &mut space, va_of(p), &[p as u8, 0xAA])
            .expect("write");
    }
    let parent = r
        .snaps
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut space,
            RegisterState::default(),
            SnapshotKind::Runtime,
            "parent",
            None,
        )
        .expect("capture parent");
    for p in parent_pages..parent_pages + child_pages {
        r.mmu
            .write_bytes(&mut r.mem, &mut space, va_of(p), &[p as u8, 0xBB])
            .expect("write");
    }
    let child = r
        .snaps
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut space,
            RegisterState::default(),
            SnapshotKind::Function,
            "child",
            Some(parent),
        )
        .expect("capture child");
    r.mmu.destroy_space(&mut r.mem, space);
    (parent, child)
}

fn digests_under(r: &Rig, sid: SnapshotId) -> Vec<(u64, u64)> {
    let root = r.snaps.get(sid).unwrap().root();
    r.mmu
        .collect_mapped(root)
        .into_iter()
        .map(|(vpn, frame)| (vpn, r.mem.content_of(frame).digest()))
        .collect()
}

#[test]
fn demote_moves_only_the_diff_and_promote_restores_it_byte_exact() {
    let mut r = rig(RestorePolicy::EagerFull);
    let (_parent, child) = stack(&mut r, 8, 5);
    let before = digests_under(&r, child);
    let frames_before = r.mem.stats().used_frames;

    let out = r
        .tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("demote");
    assert_eq!(out.pages, 5, "exactly the diff moves, COW shares stay");
    assert_eq!(r.tier.used_blocks(), 5);
    assert!(
        r.mem.stats().used_frames < frames_before,
        "demotion must free the diff's frames"
    );
    let child_root = r.snaps.get(child).unwrap().root();
    assert_eq!(r.mmu.collect_swapped(child_root).len(), 5);
    assert!(r.snaps.verify(child).unwrap(), "checksum survives demotion");

    r.tier
        .promote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("promote");
    assert_eq!(r.tier.used_blocks(), 0, "promotion frees the blocks");
    assert_eq!(digests_under(&r, child), before, "byte-exact round trip");
}

#[test]
fn lazy_page_in_through_the_pager_is_byte_exact_and_repays_latency() {
    let mut r = rig(RestorePolicy::LazyPaging);
    let (_parent, child) = stack(&mut r, 4, 6);
    let before = digests_under(&r, child);
    r.tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("demote");

    // Deploy a UC-like space from the demoted snapshot and read it all.
    let root = r
        .mmu
        .shallow_clone(&mut r.mem, r.snaps.get(child).unwrap().root())
        .expect("clone");
    let mut space = AddressSpace::from_root(root);
    space.set_regions(r.snaps.get(child).unwrap().regions().to_vec());
    let swaps_before = r.mmu.stats.swap_ins;
    let mut seen = Vec::new();
    for (vpn, _) in &before {
        let frame = r
            .mmu
            .touch_read(
                &mut r.mem,
                &mut space,
                VirtAddr::new(vpn << seuss_mem::PAGE_SHIFT),
            )
            .expect("read");
        seen.push((*vpn, r.mem.content_of(frame).digest()));
    }
    assert_eq!(seen, before, "lazy page-ins reproduce every byte");
    assert_eq!(r.mmu.stats.swap_ins - swaps_before, 6, "one fault per page");
    assert!(
        r.mmu.stats.swap_in_nanos > 0,
        "each fault paid device latency"
    );
    // The snapshot itself stays demoted: faults split private paths.
    let child_root = r.snaps.get(child).unwrap().root();
    assert_eq!(r.mmu.collect_swapped(child_root).len(), 6);
    r.mmu.destroy_space(&mut r.mem, space);
}

#[test]
fn deleting_a_demoted_snapshot_frees_blocks_and_never_touches_freed_frames() {
    let mut r = rig(RestorePolicy::WorkingSetPrefetch);
    let baseline = r.mem.stats().used_frames;
    let (parent, child) = stack(&mut r, 8, 5);

    r.tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("demote");
    assert_eq!(r.tier.used_blocks(), 5);

    // Delete the demoted (non-resident) snapshot. release_root must walk
    // past the swapped placeholders without treating them as frame refs
    // — PhysMemory panics on a double dec_ref of a freed frame, so this
    // passing at all is the "never touches freed frames" half.
    r.snaps
        .delete(&mut r.mmu, &mut r.mem, child)
        .expect("delete demoted child");
    r.tier.forget(child);
    assert_eq!(r.tier.used_blocks(), 0, "forget releases the blocks");

    r.snaps
        .delete(&mut r.mmu, &mut r.mem, parent)
        .expect("delete parent");
    assert_eq!(
        r.mem.stats().used_frames,
        baseline,
        "every frame accounted for"
    );

    // The freed blocks are recyclable by a fresh tenant.
    let (_p2, c2) = stack(&mut r, 2, 3);
    r.tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, c2)
        .expect("demote new tenant");
    assert_eq!(r.tier.used_blocks(), 3);
}

#[test]
fn forget_makes_stale_blocks_unreachable_for_reused_ids() {
    // Snapshot ids are reused; forget() must leave no metadata behind
    // that a future tenant of the same slot could inherit.
    let mut r = rig(RestorePolicy::WorkingSetPrefetch);
    let (parent, child) = stack(&mut r, 4, 4);
    r.tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("demote");
    r.tier.record_working_set(child, &[0x100, 0x101]);
    assert!(r.tier.working_set(child).is_some());

    r.snaps.delete(&mut r.mmu, &mut r.mem, child).expect("del");
    r.tier.forget(child);

    // The next capture reuses the freed slot (lowest-free allocation).
    let (p2, _c2) = stack(&mut r, 1, 2);
    assert_eq!(p2.index(), child.index(), "slot reuse is the hazard");
    assert!(!r.tier.is_demoted(p2), "no inherited demotion state");
    assert!(r.tier.working_set(p2).is_none(), "no inherited working set");
    let _ = (parent, EntryFlags::SWAPPED);
}

#[test]
fn demote_coldest_walks_in_use_order_past_ineligible_snapshots() {
    let mut r = rig(RestorePolicy::WorkingSetPrefetch);
    // A childless runtime snapshot: demotable, but never a victim.
    let (runtime, doomed) = stack(&mut r, 2, 1);
    r.snaps.delete(&mut r.mmu, &mut r.mem, doomed).expect("del");
    let (_, a) = stack(&mut r, 2, 3);
    let (_, b) = stack(&mut r, 2, 3);
    let (_, c) = stack(&mut r, 2, 3);
    for sid in [runtime, a, b, c, a] {
        r.tier.note_use(sid);
    }
    // A live UC pins b.
    let (uc, _) = r.snaps.deploy(&mut r.mmu, &mut r.mem, b).expect("deploy");
    let demote = |r: &mut Rig| {
        r.tier
            .demote_coldest(&mut r.mmu, &mut r.mem, &r.snaps)
            .map(|(sid, _)| sid)
    };
    assert_eq!(demote(&mut r), Some(c), "skips the runtime, and b");
    assert_eq!(demote(&mut r), Some(a), "c is already demoted");
    assert_eq!(demote(&mut r), None);

    // Retiring b (its image left the cache) keeps it out of the walk even
    // once its UC is gone; retiring a demoted snapshot keeps its blocks.
    r.tier.retire(b);
    r.mmu.destroy_space(&mut r.mem, uc);
    r.snaps.release_uc(b).expect("release");
    let blocks = r.tier.used_blocks();
    r.tier.retire(c);
    assert_eq!(r.tier.used_blocks(), blocks);
    assert_eq!(demote(&mut r), None);
    r.tier.note_use(b);
    assert_eq!(
        demote(&mut r),
        Some(b),
        "a new use makes b a candidate again"
    );
}
