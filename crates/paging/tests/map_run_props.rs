//! Property test (driven by `seuss-check`): mapping a run of fresh
//! frames is exactly allocating and mapping its pages one by one.
//!
//! Each case builds a space on two replicas from a random setup — spans
//! already mapped (which the run may replace) and shallow-clone
//! snapshots that leave every table shared — then maps one run that may
//! cross leaf-table boundaries, on a pool that may run out part-way. One
//! replica calls `Mmu::map_fresh_run`; the other allocates a frame and
//! calls `Mmu::map_page` for each page, stopping at the first error.
//! Both must give the same `Result`, the same tables (ids, refcounts,
//! entries), the same mapped frames (ids and refcounts), the same
//! `MemStats` and the same `OpStats` apart from `levels_walked`, which
//! the run may only lower.

use std::collections::HashSet;

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameKind, MemError, MemStats, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Entry, EntryFlags, Mmu, OpStats, TableId};

/// Base: page 256 of its leaf table, so leaf-table boundaries fall at
/// pages 256, 768 and 1280.
const BASE: u64 = 0x10_0000;
/// Pages the setup and the run start in.
const SPAN: u64 = 1536;

fn va_of(p: u64) -> VirtAddr {
    VirtAddr::new(BASE + p * PAGE_SIZE as u64)
}

#[derive(Clone, Debug, PartialEq)]
enum Setup {
    /// Map `n` fresh frames from page `p`, one page at a time.
    Map { p: u64, n: u64 },
    /// Shallow-clone the live space's root and keep the clone alive.
    Snapshot,
}

#[derive(Clone, Debug, PartialEq)]
struct Case {
    setup: Vec<Setup>,
    start: u64,
    pages: u64,
    /// Frames the pool can still hand out when the run starts, if capped.
    avail: Option<u64>,
}

fn cases() -> impl Gen<Value = Case> {
    let page = || seuss_check::range(0u64, SPAN - 1);
    let map = (page(), seuss_check::range(1u64, 600)).map(|(p, n)| Setup::Map { p, n });
    let snapshot = seuss_check::just(Setup::Snapshot);
    let setup = seuss_check::vecs(
        seuss_check::one_of(vec![map.boxed(), snapshot.boxed()]),
        0,
        6,
    );
    let avail = seuss_check::one_of(vec![
        seuss_check::just(None).boxed(),
        seuss_check::range(0u64, 1200).map(Some).boxed(),
    ]);
    (setup, page(), seuss_check::range(1u64, 1100), avail).map(|(setup, start, pages, avail)| {
        Case {
            setup,
            start,
            pages,
            avail,
        }
    })
}

struct Rig {
    mem: PhysMemory,
    mmu: Mmu,
    live: AddressSpace,
    snapshots: Vec<TableId>,
}

/// Allocates a frame and maps it at `va`, as a loader did page by page.
fn map_one(rig: &mut Rig, va: VirtAddr) -> Result<(), MemError> {
    let frame = rig.mem.alloc(FrameKind::Data)?;
    rig.mmu
        .map_page(&mut rig.mem, &mut rig.live, va, frame, EntryFlags::USER)
}

/// Builds the case's space; both replicas get the same one.
fn build(case: &Case) -> Rig {
    let mut mem = PhysMemory::with_mib(64);
    let mut mmu = Mmu::new();
    let live = mmu.create_space(&mut mem).expect("space");
    let mut rig = Rig {
        mem,
        mmu,
        live,
        snapshots: Vec::new(),
    };
    for step in &case.setup {
        match *step {
            Setup::Map { p, n } => {
                for q in p..(p + n).min(SPAN) {
                    map_one(&mut rig, va_of(q)).expect("setup map");
                }
            }
            Setup::Snapshot => {
                let clone = rig
                    .mmu
                    .shallow_clone(&mut rig.mem, rig.live.root())
                    .expect("clone");
                rig.snapshots.push(clone);
            }
        }
    }
    if let Some(avail) = case.avail {
        let s = rig.mem.stats();
        rig.mem
            .apply_pressure((s.capacity_frames - s.used_frames).saturating_sub(avail));
    }
    rig
}

/// Everything the run may change, in a comparable form: each table
/// reachable from a live root (id, refcount, entries) and each mapped
/// frame (id, refcount), in traversal order.
#[derive(Debug, PartialEq)]
struct State {
    tables: Vec<(u32, u32, Vec<Entry>)>,
    frames: Vec<(u32, u32)>,
    live_tables: usize,
    mem: MemStats,
    ops: OpStats,
}

fn state(rig: &Rig) -> State {
    let mut tables = Vec::new();
    let mut frames = Vec::new();
    let mut seen = HashSet::new();
    let mut stack: Vec<TableId> = rig.snapshots.clone();
    stack.push(rig.live.root());
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        let entries = rig.mmu.store.node(t).entries.clone();
        for e in &entries {
            if e.is_table() {
                stack.push(e.next_table());
            } else if e.is_page() {
                frames.push((e.frame().index(), rig.mem.refcount(e.frame())));
            }
        }
        tables.push((t.index(), rig.mmu.store.refcount(t), entries));
    }
    State {
        tables,
        frames,
        live_tables: rig.mmu.store.live_tables(),
        mem: rig.mem.stats(),
        ops: OpStats {
            levels_walked: 0,
            ..rig.mmu.stats
        },
    }
}

#[test]
fn a_fresh_run_map_equals_its_pages_one_by_one() {
    check_with(
        Config::with_cases(128),
        "paging_map_run_equals_pages",
        &cases(),
        |case| {
            let va = va_of(case.start);

            let mut run = build(case);
            let walked = run.mmu.stats.levels_walked;
            let got = run.mmu.map_fresh_run(
                &mut run.mem,
                &mut run.live,
                va,
                case.pages,
                EntryFlags::USER,
            );
            let run_walked = run.mmu.stats.levels_walked - walked;

            let mut one = build(case);
            let walked = one.mmu.stats.levels_walked;
            let want = (0..case.pages)
                .try_for_each(|k| map_one(&mut one, va.offset(k * PAGE_SIZE as u64)));
            let one_walked = one.mmu.stats.levels_walked - walked;

            ensure_eq!(got, want, "run result");
            ensure!(
                run_walked <= one_walked,
                "the run walked {run_walked} levels, its pages {one_walked}"
            );
            let (a, b) = (state(&run), state(&one));
            ensure_eq!(a.mem, b.mem, "memory stats");
            ensure_eq!(a.ops, b.ops, "op stats");
            ensure_eq!(a.live_tables, b.live_tables, "live tables");
            ensure!(a.tables == b.tables, "tables differ");
            ensure!(a.frames == b.frames, "frames differ");
            Ok(())
        },
    );
}
