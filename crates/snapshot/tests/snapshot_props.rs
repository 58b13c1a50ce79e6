//! Property tests on snapshot stacks (driven by `seuss-check`):
//! arbitrary capture/deploy/delete trees keep frame accounting exact,
//! respect the deletion-safety policy, a deployed UC maps exactly its
//! snapshot's frames until it writes, and replaying each stack level's
//! page-level diff in order reconstructs the deepest snapshot's mapping.
//!
//! The last test is a self-check of the harness itself: a deliberately
//! violated property over snapshot op-sequences must shrink to the
//! minimal failing sequence and hand back a replayable seed.

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, run_check, Config};
use seuss_mem::{FrameId, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind};
use seuss_snapshot::{RegisterState, SnapshotId, SnapshotKind, SnapshotStore};
use std::collections::BTreeMap;

const BASE: u64 = 0x40_0000;

struct Rig {
    mem: PhysMemory,
    mmu: Mmu,
    store: SnapshotStore,
}

fn rig() -> Rig {
    Rig {
        mem: PhysMemory::with_mib(512),
        mmu: Mmu::new(),
        store: SnapshotStore::new(),
    }
}

fn seeded_space(r: &mut Rig, pages: u64) -> AddressSpace {
    let mut s = r.mmu.create_space(&mut r.mem).expect("space");
    s.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: 4096,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    for p in 0..pages {
        let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
        r.mmu
            .write_bytes(&mut r.mem, &mut s, va, &[p as u8])
            .expect("seed");
    }
    s
}

#[derive(Clone, Debug, PartialEq)]
enum Act {
    /// Deploy a UC from snapshot `s % live`, write `w` pages, maybe
    /// capture a child, destroy the UC.
    DeployWriteCapture { s: usize, w: u64, capture: bool },
    /// Try deleting snapshot `s % live` (may legitimately refuse).
    TryDelete { s: usize },
}

fn acts(max_len: usize) -> impl Gen<Value = Vec<Act>> {
    let dwc = (
        seuss_check::range(0usize, 15),
        seuss_check::range(0u64, 19),
        seuss_check::bools(),
    )
        .map(|(s, w, capture)| Act::DeployWriteCapture { s, w, capture });
    let del = seuss_check::range(0usize, 15).map(|s| Act::TryDelete { s });
    seuss_check::vecs(
        seuss_check::one_of(vec![dwc.boxed(), del.boxed()]),
        1,
        max_len,
    )
}

fn run_acts(r: &mut Rig, acts: &[Act]) -> Vec<SnapshotId> {
    let mut space = seeded_space(r, 30);
    let base = r
        .store
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut space,
            RegisterState::default(),
            SnapshotKind::Runtime,
            "base",
            None,
        )
        .expect("base capture");
    r.mmu.destroy_space(&mut r.mem, space);
    let mut live: Vec<SnapshotId> = vec![base];

    for a in acts {
        match *a {
            Act::DeployWriteCapture { s, w, capture } => {
                let parent = live[s % live.len()];
                let (mut uc, _) = r
                    .store
                    .deploy(&mut r.mmu, &mut r.mem, parent)
                    .expect("deploy");
                for p in 0..w {
                    let va = VirtAddr::new(BASE + (100 + p) * PAGE_SIZE as u64);
                    r.mmu
                        .write_bytes(&mut r.mem, &mut uc, va, &[1])
                        .expect("write");
                }
                if capture && live.len() < 16 {
                    let child = r
                        .store
                        .capture(
                            &mut r.mmu,
                            &mut r.mem,
                            &mut uc,
                            RegisterState::default(),
                            SnapshotKind::Function,
                            "f",
                            Some(parent),
                        )
                        .expect("capture");
                    live.push(child);
                }
                r.mmu.destroy_space(&mut r.mem, uc);
                r.store.release_uc(parent).expect("release");
            }
            Act::TryDelete { s } => {
                if live.len() > 1 {
                    let idx = 1 + s % (live.len() - 1); // never the base here
                    let victim = live[idx];
                    if r.store.delete(&mut r.mmu, &mut r.mem, victim).is_ok() {
                        live.remove(idx);
                    }
                }
            }
        }
    }
    live
}

#[test]
fn snapshot_trees_never_leak() {
    check_with(Config::with_cases(32), "snap_no_leaks", &acts(24), |acts| {
        let mut r = rig();
        let live = run_acts(&mut r, acts);
        // Teardown: children before parents (reverse insertion order works
        // because parents always precede children in `live`).
        for id in live.iter().rev() {
            r.store
                .delete(&mut r.mmu, &mut r.mem, *id)
                .expect("ordered teardown");
        }
        ensure_eq!(r.mem.stats().used_frames, 0, "leaked frames");
        ensure_eq!(r.mmu.store.live_tables(), 0, "leaked tables");
        Ok(())
    });
}

#[test]
fn deploys_map_exactly_their_snapshots_frames() {
    let cases = (
        seuss_check::range(1u64, 39),
        seuss_check::vecs(seuss_check::range(0u64, 39), 0, 20),
    );
    check_with(
        Config::with_cases(32),
        "snap_exact_frames",
        &cases,
        |&(seed_pages, ref writes)| {
            let mut r = rig();
            let mut space = seeded_space(&mut r, seed_pages);
            for &p in writes {
                let va = VirtAddr::new(BASE + (p % seed_pages) * PAGE_SIZE as u64);
                r.mmu
                    .write_bytes(&mut r.mem, &mut space, va, &[1])
                    .expect("write");
            }
            let snap = r
                .store
                .capture(
                    &mut r.mmu,
                    &mut r.mem,
                    &mut space,
                    RegisterState::default(),
                    SnapshotKind::Runtime,
                    "s",
                    None,
                )
                .expect("capture");
            let root = r.store.get(snap).expect("snap").root();
            let frame_at = |r: &Rig, root, p: u64| {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                r.mmu.translate(root, va).map(|e| e.frame())
            };
            // Record the snapshot's frames, then trash the original space:
            // each write gives the space a frame of its own.
            let want: Vec<_> = (0..seed_pages).map(|p| frame_at(&r, root, p)).collect();
            for p in 0..seed_pages {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                r.mmu
                    .write_bytes(&mut r.mem, &mut space, va, &[0xEE])
                    .expect("trash");
                let own = frame_at(&r, space.root(), p).expect("mapped");
                ensure!(
                    Some(own) != want[p as usize],
                    "trashed page {p} still shared"
                );
            }
            let (mut uc, _) = r
                .store
                .deploy(&mut r.mmu, &mut r.mem, snap)
                .expect("deploy");
            for p in 0..seed_pages {
                ensure_eq!(frame_at(&r, uc.root(), p), want[p as usize], "page {p}");
            }
            // A UC's write leaves the snapshot's frame in place and maps
            // a frame the UC alone owns.
            for p in 0..seed_pages {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                r.mmu
                    .write_bytes(&mut r.mem, &mut uc, va, &[1])
                    .expect("write uc");
                let own = frame_at(&r, uc.root(), p).expect("mapped");
                ensure_eq!(frame_at(&r, root, p), want[p as usize], "snapshot page {p}");
                ensure!(Some(own) != want[p as usize], "page {p} still shared");
                ensure_eq!(r.mem.refcount(own), 1, "page {p}'s frame has other owners");
            }
            r.mmu.destroy_space(&mut r.mem, uc);
            r.store.release_uc(snap).expect("release");
            r.mmu.destroy_space(&mut r.mem, space);
            r.store
                .delete(&mut r.mmu, &mut r.mem, snap)
                .expect("delete");
            ensure_eq!(r.mem.stats().used_frames, 0);
            Ok(())
        },
    );
}

#[test]
fn replaying_stack_diffs_reconstructs_the_deepest_mapping() {
    // Satellite invariant: a snapshot stack *is* a chain of page-level
    // diffs. Computing each level's diff against its parent (pages whose
    // backing frame changed) and overlaying them base-first must
    // reconstruct exactly the deepest snapshot's mapping — and the
    // structural diff size must agree with the store's `diff_pages()`
    // accounting.
    let levels = seuss_check::vecs(seuss_check::vecs(seuss_check::range(0u64, 59), 0, 6), 1, 5);
    check_with(
        Config::with_cases(32),
        "snap_diff_replay",
        &levels,
        |levels| {
            let mut r = rig();
            let mut space = seeded_space(&mut r, 30);
            let base = r
                .store
                .capture(
                    &mut r.mmu,
                    &mut r.mem,
                    &mut space,
                    RegisterState::default(),
                    SnapshotKind::Runtime,
                    "base",
                    None,
                )
                .expect("base");
            r.mmu.destroy_space(&mut r.mem, space);

            let mut chain = vec![base];
            for writes in levels {
                let parent = *chain.last().expect("nonempty");
                let (mut uc, _) = r
                    .store
                    .deploy(&mut r.mmu, &mut r.mem, parent)
                    .expect("deploy");
                for &p in writes {
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    r.mmu
                        .write_bytes(&mut r.mem, &mut uc, va, &[1])
                        .expect("write");
                }
                let child = r
                    .store
                    .capture(
                        &mut r.mmu,
                        &mut r.mem,
                        &mut uc,
                        RegisterState::default(),
                        SnapshotKind::Function,
                        "f",
                        Some(parent),
                    )
                    .expect("capture");
                r.mmu.destroy_space(&mut r.mem, uc);
                r.store.release_uc(parent).expect("release");
                chain.push(child);
            }

            let stack = r
                .store
                .stack_of(*chain.last().expect("nonempty"))
                .expect("stack");
            ensure_eq!(stack, chain, "stack_of returns the lineage in order");

            // Replay: overlay each level's diff (vs its parent's mapping)
            // onto an accumulator, base-first.
            let mut overlay: BTreeMap<u64, FrameId> = BTreeMap::new();
            let mut parent_root = None;
            for &id in &chain {
                let snap = r.store.get(id).expect("get");
                let diff = r.mmu.diff_mapped(snap.root(), parent_root);
                ensure_eq!(
                    diff.len() as u64,
                    snap.diff_pages(),
                    "structural diff of {:?} disagrees with accounting",
                    snap.label()
                );
                overlay.extend(diff);
                parent_root = Some(snap.root());
            }

            let deepest = r.store.get(*chain.last().expect("nonempty")).expect("get");
            let mapped: BTreeMap<u64, FrameId> =
                r.mmu.collect_mapped(deepest.root()).into_iter().collect();
            ensure_eq!(
                overlay,
                mapped,
                "diff replay reconstructs the deepest mapping"
            );
            Ok(())
        },
    );
}

#[test]
fn shrinking_finds_minimal_failing_act_sequence() {
    // Harness self-check on a *domain* generator: plant a fake invariant
    // ("never more than two captures succeed") and verify the shrinker
    // reduces an arbitrary failing op-sequence to the minimal one — three
    // capturing deploys and nothing else — with a replayable seed.
    let failure = run_check(
        Config::with_cases(200),
        "snap_shrink_demo",
        &acts(30),
        &|acts: &Vec<Act>| {
            let mut r = rig();
            let live = run_acts(&mut r, acts);
            ensure!(live.len() <= 3, "more than two captures succeeded");
            Ok(())
        },
    );
    let f = failure.expect("the planted invariant must eventually fail");
    assert_eq!(
        f.minimized.len(),
        3,
        "minimal sequence is exactly three ops: {:?}",
        f.minimized
    );
    assert!(
        f.minimized
            .iter()
            .all(|a| matches!(a, Act::DeployWriteCapture { capture: true, .. })),
        "every surviving op is a capturing deploy: {:?}",
        f.minimized
    );
    assert!(f.report().contains("SEUSS_CHECK_SEED="));
}

#[test]
fn deep_snapshot_stacks_deploy_in_constant_frames() {
    // Snapshot stacks can nest (fn-of-fn captures); deploy cost must not
    // grow with stack depth — it is always one shallow root clone.
    let mut r = rig();
    let mut space = seeded_space(&mut r, 20);
    let base = r
        .store
        .capture(
            &mut r.mmu,
            &mut r.mem,
            &mut space,
            RegisterState::default(),
            SnapshotKind::Runtime,
            "base",
            None,
        )
        .expect("base");
    r.mmu.destroy_space(&mut r.mem, space);

    let mut chain = vec![base];
    for depth in 0..10u64 {
        let parent = *chain.last().expect("nonempty");
        let (mut uc, _) = r
            .store
            .deploy(&mut r.mmu, &mut r.mem, parent)
            .expect("deploy");
        let va = VirtAddr::new(BASE + (500 + depth) * PAGE_SIZE as u64);
        r.mmu
            .write_bytes(&mut r.mem, &mut uc, va, &[depth as u8])
            .expect("write");
        let snap = r
            .store
            .capture(
                &mut r.mmu,
                &mut r.mem,
                &mut uc,
                RegisterState::default(),
                SnapshotKind::Function,
                format!("d{depth}"),
                Some(parent),
            )
            .expect("capture");
        r.mmu.destroy_space(&mut r.mem, uc);
        r.store.release_uc(parent).expect("release");
        chain.push(snap);
    }
    let deepest = *chain.last().expect("nonempty");
    assert_eq!(r.store.stack_of(deepest).expect("stack").len(), 11);

    // Deploy from the deepest: one root-table frame, and every ancestor's
    // page resolves to the frame its own level wrote.
    let before = r.mem.stats().used_frames;
    let (uc, _) = r
        .store
        .deploy(&mut r.mmu, &mut r.mem, deepest)
        .expect("deploy deep");
    assert_eq!(
        r.mem.stats().used_frames,
        before + 1,
        "deploy is depth-independent"
    );
    for depth in 0..10u64 {
        let va = VirtAddr::new(BASE + (500 + depth) * PAGE_SIZE as u64);
        let level = r
            .store
            .get(chain[depth as usize + 1])
            .expect("level")
            .root();
        let frame_under = |root| r.mmu.translate(root, va).map(|e| e.frame());
        assert!(frame_under(level).is_some(), "depth {depth} wrote no page");
        assert_eq!(
            frame_under(uc.root()),
            frame_under(level),
            "ancestor page at depth {depth}"
        );
    }
    r.mmu.destroy_space(&mut r.mem, uc);
    r.store.release_uc(deepest).expect("release");
}
