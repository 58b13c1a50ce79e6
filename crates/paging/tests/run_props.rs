//! Property test (driven by `seuss-check`): a run write is exactly its
//! pages written one by one.
//!
//! Each case builds a space from a random setup — filled spans,
//! shallow-clone snapshots that leave every table shared,
//! read-only pages, pages swapped out to a pager (some unreadable) — on
//! two replicas, then writes one run that may cross leaf-table
//! boundaries, run into the read-only text region or past every region,
//! on a pool that may run out part-way. One replica calls
//! `Mmu::write_run(va, n)`; the other makes `n` calls to
//! `Mmu::touch_write` and stops at the first fault. Both must give the
//! same `Result`, the same tables (ids, refcounts, entries), the same
//! frames (ids and refcounts), the same `MemStats`, the same `OpStats` apart from
//! `levels_walked` (which the run may only lower), and the same dirty
//! set and private-page count.
//!
//! A failure prints a minimized case and a `SEUSS_CHECK_SEED` value that
//! replays it.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{
    AddressSpace, Entry, EntryFlags, Mmu, OpStats, PageFault, Region, RegionKind, SwapPager,
    TableId,
};

/// Heap base: page 256 of its leaf table, so the heap's leaf-table
/// boundaries fall at heap pages 256 and 768.
const BASE: u64 = 0x10_0000;
const HEAP_PAGES: u64 = 1024;
/// A read-only, non-demand-zero region right after the heap.
const TEXT_PAGES: u64 = 64;

fn va_of(p: u64) -> VirtAddr {
    VirtAddr::new(BASE + p * PAGE_SIZE as u64)
}

#[derive(Clone, Debug, PartialEq)]
enum Setup {
    /// Write byte `val` to each of `n` pages from heap page `p`.
    Fill { p: u64, n: u64, val: u8 },
    /// Shallow-clone the live space's root and keep the clone alive.
    Snapshot,
    /// Map a fresh frame read-only (not writable, not COW) at page `p`.
    ReadOnly { p: u64 },
    /// Swap page `p` out if it is mapped; the pager can read it back
    /// only if `readable`.
    Demote { p: u64, readable: bool },
}

#[derive(Clone, Debug, PartialEq)]
struct Case {
    /// Heap pages `0..base` are written before the setup steps, so a run
    /// often finds every page present.
    base: u64,
    setup: Vec<Setup>,
    /// First page of the run (past the heap lands in text or nowhere).
    start: u64,
    pages: u64,
    /// Page offset of the run's start address.
    offset: usize,
    pool: Pool,
}

/// How many frames the pool can still hand out when the run starts.
#[derive(Clone, Debug, PartialEq)]
enum Pool {
    Roomy,
    Frames(u64),
    /// The run's page count plus this many: around where the last clone
    /// of a run under one leaf table fails.
    RunPlus(u64),
}

fn cases() -> impl Gen<Value = Case> {
    let page = || seuss_check::range(0u64, HEAP_PAGES - 1);
    let fill = (
        page(),
        seuss_check::range(1u64, 600),
        seuss_check::range(0u8, 255),
    )
        .map(|(p, n, val)| Setup::Fill { p, n, val });
    let snapshot = seuss_check::just(Setup::Snapshot);
    let read_only = page().map(|p| Setup::ReadOnly { p });
    let demote = (page(), seuss_check::bools()).map(|(p, readable)| Setup::Demote { p, readable });
    let setup = seuss_check::vecs(
        seuss_check::one_of(vec![
            fill.boxed(),
            snapshot.boxed(),
            read_only.boxed(),
            demote.boxed(),
        ]),
        1,
        8,
    );
    let pool = seuss_check::one_of(vec![
        seuss_check::just(Pool::Roomy).boxed(),
        seuss_check::range(0u64, 620).map(Pool::Frames).boxed(),
        seuss_check::range(0u64, 4).map(Pool::RunPlus).boxed(),
    ]);
    let run = (
        seuss_check::range(0u64, HEAP_PAGES + TEXT_PAGES + 8),
        seuss_check::range(1u64, 600),
    );
    let offset = seuss_check::range(0usize, PAGE_SIZE - 1);
    let setup = (seuss_check::range(0u64, HEAP_PAGES), setup);
    (setup, run, offset, pool).map(|((base, setup), (start, pages), offset, pool)| Case {
        base,
        setup,
        start,
        pages,
        offset,
        pool,
    })
}

/// Reads every demoted block except the ones marked unreadable.
struct Pager(Rc<RefCell<HashSet<u64>>>);

impl SwapPager for Pager {
    fn page_in(&mut self, block: u64) -> Option<u64> {
        (!self.0.borrow().contains(&block)).then_some(1_000)
    }
}

struct Rig {
    mem: PhysMemory,
    mmu: Mmu,
    live: AddressSpace,
    snapshots: Vec<TableId>,
}

/// Builds the case's space; both replicas get the same one.
fn build(case: &Case) -> Rig {
    let mut mem = PhysMemory::with_mib(64);
    let mut mmu = Mmu::new();
    let unreadable = Rc::new(RefCell::new(HashSet::new()));
    mmu.pager = Some(Box::new(Pager(Rc::clone(&unreadable))));
    let mut live = mmu.create_space(&mut mem).expect("space");
    live.add_region(Region {
        start: va_of(0),
        pages: HEAP_PAGES,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    live.add_region(Region {
        start: va_of(HEAP_PAGES),
        pages: TEXT_PAGES,
        kind: RegionKind::Text,
        writable: false,
        demand_zero: false,
    });
    for q in 0..case.base {
        mmu.write_bytes(&mut mem, &mut live, va_of(q), &[q as u8])
            .expect("base");
    }
    let mut snapshots = Vec::new();
    for (block, step) in case.setup.iter().enumerate() {
        match *step {
            Setup::Fill { p, n, val } => {
                for q in p..(p + n).min(HEAP_PAGES) {
                    // A swapped page without a readable block stays out.
                    let _ = mmu.write_bytes(&mut mem, &mut live, va_of(q), &[val]);
                }
            }
            Setup::Snapshot => {
                snapshots.push(mmu.shallow_clone(&mut mem, live.root()).expect("clone"));
            }
            Setup::ReadOnly { p } => {
                let frame = mem.alloc(seuss_mem::FrameKind::Data).expect("frame");
                mmu.map_page(&mut mem, &mut live, va_of(p), frame, EntryFlags::USER)
                    .expect("map");
            }
            Setup::Demote { p, readable } => {
                if mmu.translate(live.root(), va_of(p)).is_some() {
                    let block = block as u64;
                    mmu.demote_page(&mut mem, live.root(), va_of(p), block)
                        .expect("demote");
                    if !readable {
                        unreadable.borrow_mut().insert(block);
                    }
                }
            }
        }
    }
    // The run's dirty set and private pages start empty, as on a deploy.
    live.clear_dirty();
    live.reset_private_pages();
    let avail = match case.pool {
        Pool::Roomy => None,
        Pool::Frames(n) => Some(n),
        Pool::RunPlus(n) => Some(case.pages + n),
    };
    if let Some(avail) = avail {
        let s = mem.stats();
        mem.apply_pressure(s.capacity_frames - s.used_frames - avail);
    }
    Rig {
        mem,
        mmu,
        live,
        snapshots,
    }
}

/// Everything the run may change, in a comparable form: each table
/// reachable from a live root (id, refcount, entries), and each mapped
/// frame (id, refcount), in traversal order.
#[derive(Debug, PartialEq)]
struct State {
    tables: Vec<(u32, u32, Vec<Entry>)>,
    frames: Vec<(u32, u32)>,
    live_tables: usize,
    mem: seuss_mem::MemStats,
    ops: OpStats,
    dirty: Vec<u64>,
    private_pages: u64,
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
        dirty: rig.live.dirty_pages().collect(),
        private_pages: rig.live.private_pages(),
    }
}

#[test]
fn a_run_equals_its_pages_one_by_one() {
    check_with(
        Config::with_cases(192),
        "paging_run_equals_pages",
        &cases(),
        |case| {
            let va = va_of(case.start).offset(case.offset as u64);

            let mut run = build(case);
            let walked = run.mmu.stats.levels_walked;
            let got = run
                .mmu
                .write_run(&mut run.mem, &mut run.live, va, case.pages);
            let run_walked = run.mmu.stats.levels_walked - walked;

            let mut one = build(case);
            let walked = one.mmu.stats.levels_walked;
            let want: Result<(), PageFault> = (0..case.pages).try_for_each(|k| {
                let page = va.offset(k * PAGE_SIZE as u64);
                one.mmu
                    .touch_write(&mut one.mem, &mut one.live, page)
                    .map(drop)
            });
            let one_walked = one.mmu.stats.levels_walked - walked;

            ensure_eq!(got, want, "run result");
            ensure!(
                run_walked <= one_walked,
                "the run walked {run_walked} levels, its pages {one_walked}"
            );
            let (a, b) = (state(&run), state(&one));
            ensure_eq!(a.mem, b.mem, "memory stats");
            ensure_eq!(a.ops, b.ops, "op stats");
            ensure_eq!(a.dirty, b.dirty, "dirty set");
            ensure_eq!(a.private_pages, b.private_pages, "private pages");
            ensure_eq!(a.live_tables, b.live_tables, "live tables");
            ensure!(a.tables == b.tables, "tables differ");
            ensure!(a.frames == b.frames, "frames differ");
            Ok(())
        },
    );
}
