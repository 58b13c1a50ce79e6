//! Property test (driven by `seuss-check`): a lockstep diff of two page
//! trees is exactly the per-page comparison of their mappings.
//!
//! Each case builds a random snapshot lineage. A base space maps a
//! read-only text region and writes part of a heap; a snapshot freezes
//! it; a deploy from that snapshot writes (demand-zero faults and COW
//! breaks that split shared tables, also in a far region the base never
//! touched), remaps text pages to fresh frames, takes intermediate
//! snapshots that share its tables again, and swaps some of its own
//! pages out; a capture freezes the deploy part-way through the steps.
//! Some of the base snapshot's pages are swapped out too, so the child
//! still maps frames the base no longer holds.
//!
//! For every pair of roots in the lineage, `Mmu::diff_mapped(root,
//! Some(base))` must equal `collect_mapped(root)` filtered by a map of
//! `collect_mapped(base)`: a page is in the diff unless the base maps
//! the same frame at the same page. `diff_mapped(root, None)` must equal
//! `collect_mapped(root)`, and `diff_mapped(root, Some(root))` must be
//! empty.
//!
//! A failure prints a minimized case and a `SEUSS_CHECK_SEED` value that
//! replays it.

use std::collections::HashMap;

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameId, FrameKind, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, EntryFlags, Mmu, Region, RegionKind, TableId};

/// Heap: starts at page 256 of its leaf table, so it spans three.
const HEAP_BASE: u64 = 0x10_0000;
const HEAP_PAGES: u64 = 1024;
/// Read-only text under another level-3 entry, crossing one leaf table.
const TEXT_BASE: u64 = 0x4000_0000;
const TEXT_PAGES: u64 = 600;
/// Demand-zero pages under another root entry, which the base never maps.
const FAR_BASE: u64 = 0x7F00_0000_0000;
const FAR_PAGES: u64 = 64;
const PAGES: u64 = HEAP_PAGES + TEXT_PAGES + FAR_PAGES;

/// Page `p` of the lineage's address range: heap, then text, then far.
fn va_of(p: u64) -> VirtAddr {
    let (base, k) = if p < HEAP_PAGES {
        (HEAP_BASE, p)
    } else if p < HEAP_PAGES + TEXT_PAGES {
        (TEXT_BASE, p - HEAP_PAGES)
    } else {
        (FAR_BASE, p - HEAP_PAGES - TEXT_PAGES)
    };
    VirtAddr::new(base + k * PAGE_SIZE as u64)
}

fn regions() -> Vec<Region> {
    let region = |start, pages, kind, writable| Region {
        start: VirtAddr::new(start),
        pages,
        kind,
        writable,
        demand_zero: writable,
    };
    vec![
        region(HEAP_BASE, HEAP_PAGES, RegionKind::Heap, true),
        region(TEXT_BASE, TEXT_PAGES, RegionKind::Text, false),
        region(FAR_BASE, FAR_PAGES, RegionKind::Stack, true),
    ]
}

#[derive(Clone, Debug, PartialEq)]
enum Step {
    /// Write byte `val` to each of `n` pages from page `p` (writes to
    /// text fault and are skipped).
    Write { p: u64, n: u64, val: u8 },
    /// Map a fresh read-only frame at page `p`.
    Remap { p: u64 },
    /// Shallow-clone the deploy's root and keep the clone alive.
    Snapshot,
    /// Swap the deploy's page `p` out, if it is mapped.
    SwapOwn { p: u64 },
    /// Swap the base snapshot's page `p` out, if it is mapped.
    SwapBase { p: u64 },
}

/// `((heap, text, keep_base), steps, capture_at)`: heap pages
/// `0..heap` are written in the base space; `text` says whether the base
/// maps the whole text region; `keep_base` whether the base's live space
/// outlives its snapshot; `capture_at` how many steps run before the
/// capture.
type Case = ((u64, bool, bool), Vec<Step>, usize);

fn cases() -> impl Gen<Value = Case> {
    let page = || seuss_check::range(0u64, PAGES - 1);
    let write = (
        page(),
        seuss_check::range(1u64, 600),
        seuss_check::range(0u8, 255),
    )
        .map(|(p, n, val)| Step::Write { p, n, val });
    let remap = page().map(|p| Step::Remap { p });
    let snapshot = seuss_check::just(Step::Snapshot);
    let swap_own = page().map(|p| Step::SwapOwn { p });
    let swap_base = page().map(|p| Step::SwapBase { p });
    let steps = seuss_check::vecs(
        seuss_check::one_of(vec![
            write.boxed(),
            remap.boxed(),
            snapshot.boxed(),
            swap_own.boxed(),
            swap_base.boxed(),
        ]),
        0,
        10,
    );
    let base = (
        seuss_check::range(0u64, HEAP_PAGES),
        seuss_check::bools(),
        seuss_check::bools(),
    );
    (base, steps, seuss_check::range(0usize, 10))
}

/// A built lineage: the base snapshot, the deploy's live root, its
/// capture, and every intermediate snapshot.
struct Lineage {
    mmu: Mmu,
    roots: Vec<(&'static str, TableId)>,
}

fn build(&((heap, text, keep_base), ref steps, capture_at): &Case) -> Lineage {
    let mut mem = PhysMemory::with_mib(64);
    let mut mmu = Mmu::new();
    let mut live = mmu.create_space(&mut mem).expect("space");
    live.set_regions(regions());
    if text {
        for p in HEAP_PAGES..HEAP_PAGES + TEXT_PAGES {
            let frame = mem.alloc(FrameKind::Data).expect("frame");
            mmu.map_page(&mut mem, &mut live, va_of(p), frame, EntryFlags::USER)
                .expect("map text");
        }
    }
    for p in 0..heap {
        mmu.write_bytes(&mut mem, &mut live, va_of(p), &[p as u8])
            .expect("base write");
    }
    let base = mmu.shallow_clone(&mut mem, live.root()).expect("snapshot");
    if !keep_base {
        mmu.destroy_space(&mut mem, live);
    }

    let mut deploy = AddressSpace::from_root(mmu.shallow_clone(&mut mem, base).expect("deploy"));
    deploy.set_regions(regions());
    let mut roots = vec![("base", base)];
    let mut capture = None;
    let mut block = 0u64;
    let mut swap_out = |mmu: &mut Mmu, mem: &mut PhysMemory, root: TableId, p: u64| {
        if mmu.translate(root, va_of(p)).is_some() {
            block += 1;
            mmu.demote_page(mem, root, va_of(p), block).expect("swap");
        }
    };
    for (i, step) in steps.iter().enumerate() {
        if i == capture_at {
            capture = Some(mmu.shallow_clone(&mut mem, deploy.root()).expect("capture"));
        }
        match *step {
            Step::Write { p, n, val } => {
                for q in p..(p + n).min(PAGES) {
                    // Text pages are read-only; a write there faults.
                    let _ = mmu.write_bytes(&mut mem, &mut deploy, va_of(q), &[val]);
                }
            }
            Step::Remap { p } => {
                let frame = mem.alloc(FrameKind::Data).expect("frame");
                mmu.map_page(&mut mem, &mut deploy, va_of(p), frame, EntryFlags::USER)
                    .expect("remap");
            }
            Step::Snapshot => {
                let snap = mmu.shallow_clone(&mut mem, deploy.root()).expect("clone");
                roots.push(("snapshot", snap));
            }
            Step::SwapOwn { p } => swap_out(&mut mmu, &mut mem, deploy.root(), p),
            Step::SwapBase { p } => swap_out(&mut mmu, &mut mem, base, p),
        }
    }
    let capture = match capture {
        Some(c) => c,
        None => mmu.shallow_clone(&mut mem, deploy.root()).expect("capture"),
    };
    roots.push(("capture", capture));
    roots.push(("deploy", deploy.root()));
    Lineage { mmu, roots }
}

/// The per-page predicate the lockstep walk replaces.
fn reference(mmu: &Mmu, root: TableId, base: Option<TableId>) -> Vec<(u64, FrameId)> {
    let base_map: HashMap<u64, FrameId> = base
        .map(|b| mmu.collect_mapped(b).into_iter().collect())
        .unwrap_or_default();
    mmu.collect_mapped(root)
        .into_iter()
        .filter(|&(vpn, frame)| base_map.get(&vpn) != Some(&frame))
        .collect()
}

#[test]
fn a_lockstep_diff_equals_the_per_page_comparison() {
    check_with(
        Config::with_cases(128),
        "paging_diff_equals_per_page",
        &cases(),
        |case| {
            let lineage = build(case);
            let mmu = &lineage.mmu;
            for &(name, root) in &lineage.roots {
                ensure_eq!(
                    mmu.diff_mapped(root, None),
                    mmu.collect_mapped(root),
                    "{name} against no base"
                );
                ensure!(
                    mmu.diff_mapped(root, Some(root)).is_empty(),
                    "{name} against itself"
                );
                for &(base_name, base) in &lineage.roots {
                    ensure_eq!(
                        mmu.diff_mapped(root, Some(base)),
                        reference(mmu, root, Some(base)),
                        "{name} against {base_name}"
                    );
                }
            }
            Ok(())
        },
    );
}
