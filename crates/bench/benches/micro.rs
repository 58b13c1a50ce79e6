//! Micro-benchmarks of the SEUSS mechanisms: page-table
//! operations, COW faults, snapshot capture/deploy, a function image's
//! demotion to the storage tier and back, interpreter compile/exec, the
//! node's three invocation paths, and the event engine's per-request
//! timeout bookkeeping.
//!
//! These measure *host wall time* of the real data-structure work (the
//! virtual-time costs the experiments report are separate, produced by
//! the calibrated cost model).

use std::cell::RefCell;

use seuss_bench::Harness;

use miniscript::{HostHeap, Interpreter, RuntimeProfile};
use seuss_core::{SeussConfig, SeussNode};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind, TableId};
use seuss_snapshot::{RegisterState, SnapshotKind, SnapshotStore};
use seuss_store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig, TieredStore};
use seuss_unikernel::{ImageStore, Layout, UcContext, UcProfile};
use simcore::{EventId, Scheduler, SimDuration, SimTime, Simulation, World};

const BASE: u64 = 0x10_0000;

fn rig(pages: u64) -> (PhysMemory, Mmu, AddressSpace) {
    rig_in(PhysMemory::with_mib(512), pages)
}

/// [`rig`] over the pool `mem`.
fn rig_in(mut mem: PhysMemory, pages: u64) -> (PhysMemory, Mmu, AddressSpace) {
    let mut mmu = Mmu::new();
    let mut space = mmu.create_space(&mut mem).expect("space");
    space.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: 65_536,
        kind: RegionKind::Heap,
        writable: true,
        demand_zero: true,
    });
    for p in 0..pages {
        let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
        mmu.touch_write(&mut mem, &mut space, va).expect("seed");
    }
    (mem, mmu, space)
}

fn bench_paging(h: &mut Harness) {
    let mut g = h.benchmark_group("paging");

    g.bench_function("translate_hit", |b| {
        let (_mem, mmu, space) = rig(64);
        let va = VirtAddr::new(BASE + 7 * PAGE_SIZE as u64);
        b.iter(|| std::hint::black_box(mmu.translate(space.root(), va)));
    });

    g.bench_function("demand_zero_fault", |b| {
        b.iter_batched(
            || rig(0),
            |(mut mem, mut mmu, mut space)| {
                let va = VirtAddr::new(BASE);
                mmu.touch_write(&mut mem, &mut space, va).expect("fault");
                (mem, mmu, space)
            },
        );
    });

    g.bench_function("cow_break_after_snapshot", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut mmu, space) = rig(1);
                let snap = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                (mem, mmu, space, snap)
            },
            |(mut mem, mut mmu, mut space, _snap)| {
                let va = VirtAddr::new(BASE);
                mmu.touch_write(&mut mem, &mut space, va).expect("cow");
                (mem, mmu, space)
            },
        );
    });

    // A deploy's resume run: 349 pages COW-broken through a freshly
    // shallow-cloned space, crossing one leaf-table boundary.
    g.bench_function("cow_run_349_after_snapshot", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut mmu, space) = rig(349);
                let snap = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                (mem, mmu, space, snap)
            },
            |(mut mem, mut mmu, mut space, _snap)| {
                let va = VirtAddr::new(BASE);
                mmu.write_run(&mut mem, &mut space, va, 349, &[])
                    .expect("cow run");
                (mem, mmu, space)
            },
        );
    });

    // The same resume run over pages that each hold 256 written bytes
    // (dense content): each break shares its source's content.
    g.bench_function("cow_run_349_written", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut mmu, mut space) = rig(349);
                for p in 0..349 {
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    mmu.write_bytes(&mut mem, &mut space, va, &[0xA5; 256])
                        .expect("fill");
                }
                let snap = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                (mem, mmu, space, snap)
            },
            |(mut mem, mut mmu, mut space, _snap)| {
                let va = VirtAddr::new(BASE);
                mmu.write_run(&mut mem, &mut space, va, 349, &[])
                    .expect("cow run");
                (mem, mmu, space)
            },
        );
    });

    // A deploy's resume run on a node-sized pool: 4096 function
    // snapshots, each 512 private pages over one 8192-page base
    // snapshot (about 2.1 M live frames). Each iteration deploys the
    // next function snapshot in turn (a shallow clone), COW-breaks 349
    // pages through it and tears it down, so the frame records it
    // touches are cold, unlike in the 512 MiB rigs above.
    g.bench_function("deploy_run_large_pool", |b| {
        const FUNCTIONS: usize = 4096;
        let (mut mem, mut mmu, space) = rig_in(PhysMemory::with_mib(16 * 1024), 8192);
        let regions = space.regions().to_vec();
        let base_root = mmu.shallow_clone(&mut mem, space.root()).expect("base");
        mmu.destroy_space(&mut mem, space);
        let deploy = |mmu: &mut Mmu, mem: &mut PhysMemory, snap: TableId| {
            let root = mmu.shallow_clone(mem, snap).expect("deploy");
            let mut uc = AddressSpace::from_root(root);
            uc.set_regions(regions.clone());
            uc
        };
        let functions: Vec<TableId> = (0..FUNCTIONS)
            .map(|_| {
                let mut uc = deploy(&mut mmu, &mut mem, base_root);
                mmu.write_run(&mut mem, &mut uc, VirtAddr::new(BASE), 512, &[])
                    .expect("import");
                let snap = mmu.shallow_clone(&mut mem, uc.root()).expect("capture");
                mmu.destroy_space(&mut mem, uc);
                snap
            })
            .collect();
        assert!(mem.stats().used_frames > 2_000_000, "a node-sized pool");
        let mut next = 0;
        b.iter(|| {
            let mut uc = deploy(&mut mmu, &mut mem, functions[next]);
            next = (next + 1) % FUNCTIONS;
            mmu.write_run(&mut mem, &mut uc, VirtAddr::new(BASE), 349, &[])
                .expect("resume run");
            mmu.destroy_space(&mut mem, uc);
        });
    });

    // A heap commit: a demand-zero run writing one word per page.
    g.bench_function("commit_run_160", |b| {
        b.iter_batched(
            || rig(0),
            |(mut mem, mut mmu, mut space)| {
                let va = VirtAddr::new(BASE);
                mmu.write_run(&mut mem, &mut space, va, 160, &1u64.to_le_bytes())
                    .expect("commit run");
                (mem, mmu, space)
            },
        );
    });

    g.bench_function("shallow_clone_root_512_pages", |b| {
        b.iter_batched(
            || rig(512),
            |(mut mem, mut mmu, space)| {
                let r = mmu.shallow_clone(&mut mem, space.root()).expect("clone");
                (mem, mmu, space, r)
            },
        );
    });

    g.bench_function("eager_deep_clone_512_pages", |b| {
        b.iter_batched(
            || rig(512),
            |(mut mem, mut mmu, space)| {
                let r = mmu
                    .deep_clone_tables(&mut mem, space.root())
                    .expect("clone");
                (mem, mmu, space, r)
            },
        );
    });
    g.finish();
}

fn bench_snapshots(h: &mut Harness) {
    let mut g = h.benchmark_group("snapshot");

    g.bench_function("capture_512_dirty_pages", |b| {
        b.iter_batched(
            || rig(512),
            |(mut mem, mut mmu, mut space)| {
                let mut store = SnapshotStore::new();
                store
                    .capture(
                        &mut mmu,
                        &mut mem,
                        &mut space,
                        RegisterState::default(),
                        SnapshotKind::Function,
                        "bench",
                        None,
                    )
                    .expect("capture");
                (mem, mmu, space, store)
            },
        );
    });

    g.bench_function("deploy_from_snapshot", |b| {
        let (mut mem, mut mmu, mut space) = rig(512);
        let mut store = SnapshotStore::new();
        let snap = store
            .capture(
                &mut mmu,
                &mut mem,
                &mut space,
                RegisterState::default(),
                SnapshotKind::Runtime,
                "bench",
                None,
            )
            .expect("capture");
        b.iter(|| {
            let (uc, _) = store.deploy(&mut mmu, &mut mem, snap).expect("deploy");
            mmu.destroy_space(&mut mem, uc);
            store.release_uc(snap).expect("release");
        });
    });
    g.finish();
}

fn bench_store(h: &mut Harness) {
    let mut g = h.benchmark_group("store");

    // A NOP function image over a node-layout runtime image (11 264
    // text pages): one demotion of its diff and one eager promotion back
    // per iteration.
    g.bench_function("demote_fn_image", |b| {
        let mut mem = PhysMemory::with_mib(512);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();
        let (mut uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::nodejs(),
            RuntimeProfile::nodejs(),
        )
        .expect("boot");
        let (runtime, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut uc,
                SnapshotKind::Runtime,
                "runtime",
                None,
            )
            .expect("capture runtime");
        uc.destroy(&mut mmu, &mut mem);
        let (mut uc, _) = images
            .deploy(&mut mmu, &mut mem, &mut snaps, runtime)
            .expect("deploy");
        uc.import_function(&mut mmu, &mut mem, "function main(args) { return 0; }")
            .expect("import");
        let (function, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut uc,
                SnapshotKind::Function,
                "nop",
                Some(runtime),
            )
            .expect("capture function");
        images.destroy_uc(&mut mmu, &mut mem, &mut snaps, uc);
        let mut tier = TieredStore::new(StoreConfig {
            device: DeviceConfig::nvme(),
            policy: RestorePolicy::EagerFull,
            reclaim: ReclaimMode::DemoteColdest,
        });
        b.iter(|| {
            tier.demote(&mut mmu, &mut mem, &snaps, function)
                .expect("demote");
            tier.promote(&mut mmu, &mut mem, &snaps, function)
                .expect("promote")
        });
    });
    g.finish();
}

fn bench_interp(h: &mut Harness) {
    let mut g = h.benchmark_group("interp");

    g.bench_function("compile_nop", |b| {
        b.iter(|| miniscript::compile("function main(args) { return 0; }").expect("compile"));
    });

    g.bench_function("exec_fib_15", |b| {
        let mut backend = HostHeap::with_capacity(8 << 20);
        let mut interp = Interpreter::new(RuntimeProfile::tiny());
        let prog = interp
            .load_source(
                &mut backend,
                "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } function main(a) { return fib(15); }",
            )
            .expect("load");
        interp.run_main(&mut backend, prog, u64::MAX).expect("main");
        b.iter(|| {
            interp
                .call_global(&mut backend, "main", &[], u64::MAX)
                .expect("call")
        });
    });
    g.finish();
}

fn bench_node_paths(h: &mut Harness) {
    let mut g = h.benchmark_group("node");
    g.sample_size(20);

    const NOP: &str = "function main(args) { return 0; }";

    g.bench_function("invoke_hot", |b| {
        let (node, _) = SeussNode::new(SeussConfig::test_node()).expect("node");
        let node = RefCell::new(node);
        node.borrow_mut().invoke(1, NOP, &[]).expect("prime");
        // A UC's interpreter heap fills after ~10^7 hot invocations, so
        // the untimed setup swaps in a fresh idle UC (one warm invoke)
        // every `UC_BUDGET` setups. The harness sets up at most one batch
        // (≤ 2^20 iterations) ahead of its routines, so no UC serves more
        // than 2 · 2^20 hot invocations.
        const UC_BUDGET: u64 = 1 << 20;
        let mut scheduled = 0u64;
        b.iter_batched(
            || {
                scheduled += 1;
                if scheduled > UC_BUDGET {
                    let node = &mut *node.borrow_mut();
                    while let Some(uc) = node.idle.take(1) {
                        node.destroy_uc(uc);
                    }
                    node.invoke(1, NOP, &[]).expect("warm");
                    scheduled = 1;
                }
            },
            |()| node.borrow_mut().invoke(1, NOP, &[]).expect("hot"),
        );
    });

    g.bench_function("invoke_warm", |b| {
        let (mut node, _) = SeussNode::new(SeussConfig::test_node()).expect("node");
        node.invoke(1, NOP, &[]).expect("prime");
        b.iter(|| {
            while let Some(uc) = node.idle.take(1) {
                node.destroy_uc(uc);
            }
            node.invoke(1, NOP, &[]).expect("warm")
        });
    });

    // A warm start whose image holds a 192-element top-level array (the
    // shape of perfbench's `tier_pressure` functions), so the time shows
    // what a deployed UC's first interpreter write copies.
    g.bench_function("invoke_warm_table", |b| {
        let cells: Vec<String> = (0..192).map(|i| i.to_string()).collect();
        let src = format!(
            "let table = [{}]; function main(args) {{ let acc = 0; \
             for (let i = 0; i < 8; i = i + 1) {{ acc = acc + table[i]; }} return acc; }}",
            cells.join(",")
        );
        let (mut node, _) = SeussNode::new(SeussConfig::test_node()).expect("node");
        node.invoke(1, &src, &[]).expect("prime");
        b.iter(|| {
            while let Some(uc) = node.idle.take(1) {
                node.destroy_uc(uc);
            }
            node.invoke(1, &src, &[]).expect("warm")
        });
    });

    g.bench_function("invoke_cold", |b| {
        let (mut node, _) = SeussNode::new(SeussConfig::test_node()).expect("node");
        let mut f = 0u64;
        b.iter(|| {
            f += 1;
            node.invoke(f, NOP, &[]).expect("cold")
        });
    });
    g.finish();
}

/// Closed-loop requests in flight in `sim/timeout_churn`.
const CHURN_REQUESTS: usize = 32;

/// The platform timeout every request arms (§7's OpenWhisk default).
const CHURN_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// A closed loop of requests on the bare engine, with no node behind it:
/// each request arms a timeout and cancels it when it completes, so the
/// engine's per-request cost shows apart from the node's.
struct TimeoutChurn {
    timers: [Option<EventId>; CHURN_REQUESTS],
}

enum ChurnEv {
    /// Request slot `i` completes its request and issues the next one.
    Complete(usize),
    /// Slot `i`'s timeout; every one is cancelled before it is due.
    Timeout(usize),
}

impl World for TimeoutChurn {
    type Event = ChurnEv;

    fn handle(&mut self, now: SimTime, ev: ChurnEv, sched: &mut Scheduler<ChurnEv>) {
        match ev {
            ChurnEv::Complete(i) => {
                if let Some(id) = self.timers[i].take() {
                    assert!(sched.cancel(id), "slot {i}'s timeout was live");
                }
                self.timers[i] = Some(sched.arm_timer(now + CHURN_TIMEOUT, ChurnEv::Timeout(i)));
                // Distinct service times keep the slots out of lockstep.
                let service = SimDuration::from_micros(500 + 37 * i as u64);
                sched.schedule_in(now, service, ChurnEv::Complete(i));
            }
            ChurnEv::Timeout(i) => panic!("slot {i}'s cancelled timeout fired"),
        }
    }
}

fn bench_sim(h: &mut Harness) {
    let mut g = h.benchmark_group("sim");

    // One iteration delivers one completion: a cancel, an arm, a
    // schedule and a pop.
    g.bench_function("timeout_churn", |b| {
        let mut sim = Simulation::new(TimeoutChurn {
            timers: [None; CHURN_REQUESTS],
        });
        for i in 0..CHURN_REQUESTS {
            sim.schedule_at(SimTime::ZERO, ChurnEv::Complete(i));
        }
        b.iter(|| sim.run_steps(1));
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_paging(&mut h);
    bench_snapshots(&mut h);
    bench_store(&mut h);
    bench_interp(&mut h);
    bench_node_paths(&mut h);
    bench_sim(&mut h);
    h.finish();
}
