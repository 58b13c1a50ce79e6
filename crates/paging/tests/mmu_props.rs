//! Property tests on the MMU invariants (driven by `seuss-check`):
//!
//! 1. after any interleaving of writes, shallow clones, and releases,
//!    destroying everything returns the frame pool to empty (no leaks,
//!    no double frees — the refcount algebra is exact);
//! 2. data written through one address space is never visible through a
//!    snapshot taken before the write (COW isolation);
//! 3. translate() agrees with the write path about mapped pages;
//! 4. every mapped frame's refcount equals the number of address spaces
//!    sharing it (checked against a brute-force recount), and no table
//!    stores entries past its last non-empty one;
//! 5. dirty bits appear exactly on the pages a space wrote.
//!
//! A failure prints a minimized op-sequence and a `SEUSS_CHECK_SEED`
//! value that replays it.

use seuss_check::{check, check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Entry, Mmu, Region, RegionKind, TableId};
use std::collections::{HashMap, HashSet};

const BASE: u64 = 0x10_0000;
const REGION_PAGES: u64 = 512;

fn fresh_space(mmu: &mut Mmu, mem: &mut PhysMemory) -> AddressSpace {
    let mut s = mmu.create_space(mem).expect("space");
    s.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: REGION_PAGES,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    s
}

#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// Write a byte to page `p` of space `s % spaces`.
    Write { s: usize, p: u64, val: u8 },
    /// Shallow-clone space `s` into a new space.
    Clone { s: usize },
    /// Destroy space `s` (if more than one remains).
    Destroy { s: usize },
}

fn ops(max_len: usize) -> impl Gen<Value = Vec<Op>> {
    ops_over(max_len, REGION_PAGES)
}

/// [`ops`] with writes confined to the first `pages` pages of the region.
fn ops_over(max_len: usize, pages: u64) -> impl Gen<Value = Vec<Op>> {
    let write = (
        seuss_check::range(0usize, 7),
        seuss_check::range(0u64, pages - 1),
        seuss_check::range(0u8, 255),
    )
        .map(|(s, p, val)| Op::Write { s, p, val });
    let clone = seuss_check::range(0usize, 7).map(|s| Op::Clone { s });
    let destroy = seuss_check::range(0usize, 7).map(|s| Op::Destroy { s });
    seuss_check::vecs(
        seuss_check::one_of(vec![write.boxed(), clone.boxed(), destroy.boxed()]),
        1,
        max_len,
    )
}

/// Replays an op-sequence, returning the rig for invariant inspection.
fn replay(ops: &[Op]) -> (PhysMemory, Mmu, Vec<AddressSpace>) {
    let mut mem = PhysMemory::with_mib(256);
    let mut mmu = Mmu::new();
    let mut spaces = vec![fresh_space(&mut mmu, &mut mem)];
    for op in ops {
        match *op {
            Op::Write { s, p, val } => {
                let idx = s % spaces.len();
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                mmu.write_bytes(&mut mem, &mut spaces[idx], va, &[val])
                    .expect("write");
            }
            Op::Clone { s } => {
                if spaces.len() < 8 {
                    let idx = s % spaces.len();
                    let root = mmu
                        .shallow_clone(&mut mem, spaces[idx].root())
                        .expect("clone");
                    let mut ns = AddressSpace::from_root(root);
                    ns.set_regions(spaces[idx].regions().to_vec());
                    spaces.push(ns);
                }
            }
            Op::Destroy { s } => {
                if spaces.len() > 1 {
                    let idx = s % spaces.len();
                    let victim = spaces.remove(idx);
                    mmu.destroy_space(&mut mem, victim);
                }
            }
        }
    }
    (mem, mmu, spaces)
}

#[test]
fn no_leaks_under_any_interleaving() {
    check_with(Config::with_cases(48), "mmu_no_leaks", &ops(60), |ops| {
        let (mut mem, mut mmu, spaces) = replay(ops);
        for s in spaces {
            mmu.destroy_space(&mut mem, s);
        }
        ensure_eq!(mem.stats().used_frames, 0, "leaked frames");
        ensure_eq!(mmu.store.live_tables(), 0, "leaked tables");
        Ok(())
    });
}

#[test]
fn refcounts_match_sharer_count() {
    // Invariant 4: recount every reference brute-force, and check that
    // each table stores only the prefix up to its last non-empty entry
    // (a stored empty tail is host memory spent on nothing). Sharing is
    // hierarchical — a table's refcount must equal the number of roots
    // plus parent-table entries pointing at it, and a data frame's
    // refcount must equal the number of page entries across all
    // *distinct* live tables mapping it.
    check_with(
        Config::with_cases(48),
        "mmu_refcounts_match_sharers",
        &ops(50),
        |ops| {
            let (mut mem, mut mmu, spaces) = replay(ops);
            let mut table_refs: HashMap<TableId, u32> = HashMap::new();
            let mut frame_refs: HashMap<seuss_mem::FrameId, u32> = HashMap::new();
            let mut seen: HashSet<TableId> = HashSet::new();
            let mut queue: Vec<TableId> = Vec::new();
            for s in &spaces {
                *table_refs.entry(s.root()).or_insert(0) += 1;
                queue.push(s.root());
            }
            while let Some(t) = queue.pop() {
                if !seen.insert(t) {
                    continue;
                }
                let entries = &mmu.store.node(t).entries;
                ensure!(
                    entries.last() != Some(&Entry::default()),
                    "table {t:?} stores {} entries, past its last non-empty one",
                    entries.len()
                );
                for e in entries.iter() {
                    if e.is_table() {
                        let child = e.next_table();
                        *table_refs.entry(child).or_insert(0) += 1;
                        queue.push(child);
                    } else if e.is_page() {
                        *frame_refs.entry(e.frame()).or_insert(0) += 1;
                    }
                }
            }
            ensure_eq!(
                seen.len(),
                mmu.store.live_tables(),
                "unreachable tables exist"
            );
            for (&t, &want) in &table_refs {
                ensure_eq!(
                    mmu.store.refcount(t),
                    want,
                    "table {t:?} refcount disagrees with recount"
                );
            }
            for (&f, &want) in &frame_refs {
                ensure_eq!(
                    mem.refcount(f),
                    want,
                    "frame {f:?} refcount disagrees with recount"
                );
            }
            for s in spaces {
                mmu.destroy_space(&mut mem, s);
            }
            Ok(())
        },
    );
}

#[test]
fn dirty_bits_only_on_written_pages() {
    // Invariant 5: a space's dirty set is exactly the pages it wrote, in
    // ascending order and without repeats — clones start clean, and
    // writes through one space never dirty another. Writes land on 16
    // pages so repeated and out-of-order writes are common.
    let gen = ops_over(50, 16);
    check_with(Config::with_cases(48), "mmu_dirty_exact", &gen, |ops| {
        let mut mem = PhysMemory::with_mib(256);
        let mut mmu = Mmu::new();
        let mut spaces = vec![fresh_space(&mut mmu, &mut mem)];
        let mut written: Vec<Vec<u64>> = vec![Vec::new()];
        for op in ops {
            match *op {
                Op::Write { s, p, val } => {
                    let idx = s % spaces.len();
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    mmu.write_bytes(&mut mem, &mut spaces[idx], va, &[val])
                        .expect("write");
                    written[idx].push(va.page_number());
                }
                Op::Clone { s } => {
                    if spaces.len() < 8 {
                        let idx = s % spaces.len();
                        let root = mmu
                            .shallow_clone(&mut mem, spaces[idx].root())
                            .expect("clone");
                        let mut ns = AddressSpace::from_root(root);
                        ns.set_regions(spaces[idx].regions().to_vec());
                        spaces.push(ns);
                        written.push(Vec::new());
                    }
                }
                Op::Destroy { s } => {
                    if spaces.len() > 1 {
                        let idx = s % spaces.len();
                        let victim = spaces.remove(idx);
                        written.remove(idx);
                        mmu.destroy_space(&mut mem, victim);
                    }
                }
            }
        }
        for (i, s) in spaces.iter().enumerate() {
            let dirty = s.dirty_pages().collect::<Vec<_>>();
            let mut want = written[i].clone();
            want.sort_unstable();
            want.dedup();
            ensure!(
                dirty == want,
                "space {i}: dirty {dirty:?} != written {want:?}"
            );
        }
        for s in spaces {
            mmu.destroy_space(&mut mem, s);
        }
        Ok(())
    });
}

#[test]
fn snapshots_are_isolated_from_later_writes() {
    let cases = (
        seuss_check::vecs(seuss_check::range(0u64, REGION_PAGES - 1), 1, 10),
        seuss_check::vecs(
            (
                seuss_check::range(0u64, REGION_PAGES - 1),
                seuss_check::range(0u8, 255),
            ),
            1,
            10,
        ),
    );
    check_with(
        Config::with_cases(48),
        "mmu_snapshot_isolation",
        &cases,
        |(pages, mutate)| {
            let mut mem = PhysMemory::with_mib(256);
            let mut mmu = Mmu::new();
            let mut space = fresh_space(&mut mmu, &mut mem);
            for &p in pages {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                mmu.write_bytes(&mut mem, &mut space, va, &[0xAB])
                    .expect("seed");
            }
            // "Capture": freeze a clone.
            let snap_root = mmu.shallow_clone(&mut mem, space.root()).expect("capture");
            let expect: Vec<(u64, Option<u8>)> = (0..REGION_PAGES)
                .map(|p| {
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    (
                        p,
                        mmu.translate(snap_root, va).map(|e| {
                            let mut b = [0u8];
                            mem.read(e.frame(), 0, &mut b);
                            b[0]
                        }),
                    )
                })
                .collect();
            // Mutate the live space arbitrarily.
            for &(p, val) in mutate {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                mmu.write_bytes(&mut mem, &mut space, va, &[val])
                    .expect("mutate");
            }
            // The snapshot still reads its frozen values.
            for (p, want) in expect {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                let got = mmu.translate(snap_root, va).map(|e| {
                    let mut b = [0u8];
                    mem.read(e.frame(), 0, &mut b);
                    b[0]
                });
                ensure!(got == want, "page {p} changed under the snapshot");
            }
            mmu.release_root(&mut mem, snap_root);
            mmu.destroy_space(&mut mem, space);
            ensure_eq!(mem.stats().used_frames, 0);
            Ok(())
        },
    );
}

#[test]
fn translate_agrees_with_writes() {
    check(
        "mmu_translate_agrees",
        &seuss_check::vecs(seuss_check::range(0u64, REGION_PAGES - 1), 0, 30),
        |pages| {
            let mut mem = PhysMemory::with_mib(256);
            let mut mmu = Mmu::new();
            let mut space = fresh_space(&mut mmu, &mut mem);
            let mut written = std::collections::HashSet::new();
            for &p in pages {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                mmu.touch_write(&mut mem, &mut space, va).expect("touch");
                written.insert(p);
            }
            for p in 0..REGION_PAGES {
                let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                ensure_eq!(
                    mmu.translate(space.root(), va).is_some(),
                    written.contains(&p),
                    "translate mismatch at page {p}"
                );
            }
            ensure_eq!(space.dirty_count(), written.len() as u64);
            mmu.destroy_space(&mut mem, space);
            Ok(())
        },
    );
}
