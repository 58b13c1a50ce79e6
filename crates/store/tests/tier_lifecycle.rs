//! Lifecycle regressions on the tiered store, at the mechanism level
//! (no node): a restore maps back exactly the demoted pages, a function
//! image demotes exactly its diff over its runtime image, and deleting
//! a demoted snapshot frees its device blocks without ever touching the
//! frames demotion already released.

use std::collections::HashMap;

use seuss_mem::{FrameId, FrameKind, PhysMemory, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use seuss_paging::{AddressSpace, EntryFlags, Mmu, Region, RegionKind, TableId};
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

/// Read-only runtime text, spanning three leaf tables like a runtime's
/// binary image.
const TEXT: u64 = 0x40_0000;
const TEXT_PAGES: u64 = 1_100;

/// A runtime image (mapped text plus 200 written heap pages) and a
/// function image captured from a deploy of it that COW-breaks every
/// third of those pages and writes 40 fresh ones. Returns (runtime,
/// function).
fn function_image(r: &mut Rig) -> (SnapshotId, SnapshotId) {
    let mut space = fresh_space(r);
    space.add_region(Region {
        start: VirtAddr::new(TEXT),
        pages: TEXT_PAGES,
        kind: RegionKind::Text,
        writable: false,
        demand_zero: false,
    });
    for i in 0..TEXT_PAGES {
        let frame = r.mem.alloc(FrameKind::Data).expect("frame");
        let va = VirtAddr::new(TEXT + i * PAGE_SIZE as u64);
        r.mmu
            .map_page(&mut r.mem, &mut space, va, frame, EntryFlags::USER)
            .expect("map text");
    }
    for p in 0..200 {
        r.mmu
            .write_bytes(&mut r.mem, &mut space, va_of(p), &[p as u8, 0xAA])
            .expect("write");
    }
    let runtime = r
        .snaps
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut space,
            RegisterState::default(),
            SnapshotKind::Runtime,
            "runtime",
            None,
        )
        .expect("capture runtime");
    r.mmu.destroy_space(&mut r.mem, space);

    let (mut uc, _) = r
        .snaps
        .deploy(&mut r.mmu, &mut r.mem, runtime)
        .expect("deploy");
    for p in (0..200).step_by(3).chain(300..340) {
        r.mmu
            .write_bytes(&mut r.mem, &mut uc, va_of(p), &[p as u8, 0xCC])
            .expect("write");
    }
    let function = r
        .snaps
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut uc,
            RegisterState::default(),
            SnapshotKind::Function,
            "function",
            Some(runtime),
        )
        .expect("capture function");
    r.mmu.destroy_space(&mut r.mem, uc);
    r.snaps.release_uc(runtime).expect("release");
    (runtime, function)
}

fn mapped_under(r: &Rig, sid: SnapshotId) -> Vec<(u64, FrameId)> {
    r.mmu.collect_mapped(r.snaps.get(sid).unwrap().root())
}

/// Checks that `root` maps exactly the pages of `before`, none swapped:
/// each page of `restored` in a frame it alone owns, every other page
/// in the frame it had.
fn assert_restored(r: &Rig, root: TableId, before: &[(u64, FrameId)], restored: &[u64]) {
    assert!(r.mmu.collect_swapped(root).is_empty(), "a page stayed out");
    let after = r.mmu.collect_mapped(root);
    assert_eq!(after.len(), before.len(), "the mapped page set changed");
    for (&(vpn, frame), &(was_vpn, was)) in after.iter().zip(before) {
        assert_eq!(vpn, was_vpn, "the mapped page set changed");
        if restored.contains(&vpn) {
            assert_eq!(r.mem.refcount(frame), 1, "page {vpn:#x} is not private");
        } else {
            assert_eq!(frame, was, "page {vpn:#x} moved");
        }
    }
}

#[test]
fn demote_moves_only_the_diff_and_promote_maps_it_back() {
    let mut r = rig(RestorePolicy::EagerFull);
    let (_parent, child) = stack(&mut r, 8, 5);
    let before = mapped_under(&r, child);
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
    let demoted: Vec<u64> = r
        .mmu
        .collect_swapped(child_root)
        .into_iter()
        .map(|(vpn, _)| vpn)
        .collect();
    assert_eq!(demoted.len(), 5);
    assert!(
        r.snaps.verify(child).unwrap(),
        "integrity survives demotion"
    );

    r.tier
        .promote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("promote");
    assert_eq!(r.tier.used_blocks(), 0, "promotion frees the blocks");
    assert_restored(&r, child_root, &before, &demoted);
}

#[test]
fn a_function_image_demotes_its_diff_in_order_and_never_the_runtime_text() {
    let mut r = rig(RestorePolicy::EagerFull);
    let (runtime, function) = function_image(&mut r);
    let runtime_root = r.snaps.get(runtime).unwrap().root();
    let fn_root = r.snaps.get(function).unwrap().root();

    // The per-page comparison with the runtime's whole mapping: every
    // page whose frame the runtime does not map at the same address,
    // numbered with device blocks in address order.
    let runtime_map: HashMap<u64, FrameId> =
        r.mmu.collect_mapped(runtime_root).into_iter().collect();
    let want: Vec<(u64, u64)> = r
        .mmu
        .collect_mapped(fn_root)
        .into_iter()
        .filter(|(vpn, frame)| runtime_map.get(vpn) != Some(frame))
        .map(|(vpn, _)| vpn)
        .zip(0..)
        .collect();
    assert_eq!(want.len(), 67 + 40, "the COW breaks and the fresh pages");

    let out = r
        .tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, function)
        .expect("demote");
    assert_eq!(out.pages, want.len() as u64);
    assert_eq!(r.mmu.collect_swapped(fn_root), want, "(vpn, block) list");

    let text = TEXT >> PAGE_SHIFT..(TEXT >> PAGE_SHIFT) + TEXT_PAGES;
    assert!(
        want.iter().all(|(vpn, _)| !text.contains(vpn)),
        "runtime text reached the device"
    );
    let text_mapped = r
        .mmu
        .collect_mapped(fn_root)
        .iter()
        .filter(|(vpn, _)| text.contains(vpn))
        .count();
    assert_eq!(text_mapped as u64, TEXT_PAGES, "text stays shared in DRAM");
    assert!(r.mmu.collect_swapped(runtime_root).is_empty());
}

#[test]
fn lazy_page_in_through_the_pager_maps_every_page_and_repays_latency() {
    let mut r = rig(RestorePolicy::LazyPaging);
    let (_parent, child) = stack(&mut r, 4, 6);
    let before = mapped_under(&r, child);
    r.tier
        .demote(&mut r.mmu, &mut r.mem, &r.snaps, child)
        .expect("demote");
    let child_root = r.snaps.get(child).unwrap().root();
    let demoted: Vec<u64> = r
        .mmu
        .collect_swapped(child_root)
        .into_iter()
        .map(|(vpn, _)| vpn)
        .collect();

    // Deploy a UC-like space from the demoted snapshot and read it all.
    let root = r
        .mmu
        .shallow_clone(&mut r.mem, r.snaps.get(child).unwrap().root())
        .expect("clone");
    let mut space = AddressSpace::from_root(root);
    space.set_regions(r.snaps.get(child).unwrap().regions().to_vec());
    let swaps_before = r.mmu.stats.swap_ins;
    for (vpn, _) in &before {
        r.mmu
            .touch_read(&mut r.mem, &mut space, VirtAddr::new(vpn << PAGE_SHIFT))
            .expect("read");
    }
    assert_restored(&r, space.root(), &before, &demoted);
    assert_eq!(r.mmu.stats.swap_ins - swaps_before, 6, "one fault per page");
    assert!(
        r.mmu.stats.swap_in_nanos > 0,
        "each fault paid device latency"
    );
    // The snapshot itself stays demoted: faults split private paths.
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
