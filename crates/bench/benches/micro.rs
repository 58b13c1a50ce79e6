//! Micro-benchmarks of the SEUSS mechanisms: page-table
//! operations, COW faults, snapshot capture/deploy, interpreter
//! compile/exec, the node's three invocation paths, and the event
//! engine's per-request timeout bookkeeping.
//!
//! These measure *host wall time* of the real data-structure work (the
//! virtual-time costs the experiments report are separate, produced by
//! the calibrated cost model).

use std::cell::RefCell;

use seuss_bench::{BatchSize, Harness};

use miniscript::{HostHeap, Interpreter, RuntimeProfile};
use seuss_core::{SeussConfig, SeussNode};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind};
use seuss_snapshot::{RegisterState, SnapshotKind, SnapshotStore};
use simcore::{EventId, Scheduler, SimDuration, SimTime, Simulation, World};

const BASE: u64 = 0x10_0000;

fn rig(pages: u64) -> (PhysMemory, Mmu, AddressSpace) {
    let mut mem = PhysMemory::with_mib(512);
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
            BatchSize::SmallInput,
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
            BatchSize::SmallInput,
        );
    });

    g.bench_function("shallow_clone_root_512_pages", |b| {
        b.iter_batched(
            || rig(512),
            |(mut mem, mut mmu, space)| {
                let r = mmu.shallow_clone(&mut mem, space.root()).expect("clone");
                (mem, mmu, space, r)
            },
            BatchSize::SmallInput,
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
            BatchSize::SmallInput,
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
            BatchSize::SmallInput,
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
                        node.images
                            .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
                    }
                    node.invoke(1, NOP, &[]).expect("warm");
                    scheduled = 1;
                }
            },
            |()| node.borrow_mut().invoke(1, NOP, &[]).expect("hot"),
            BatchSize::SmallInput,
        );
    });

    g.bench_function("invoke_warm", |b| {
        let (mut node, _) = SeussNode::new(SeussConfig::test_node()).expect("node");
        node.invoke(1, NOP, &[]).expect("prime");
        b.iter(|| {
            while let Some(uc) = node.idle.take(1) {
                node.images
                    .destroy_uc(&mut node.mmu, &mut node.mem, &mut node.snaps, uc);
            }
            node.invoke(1, NOP, &[]).expect("warm")
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
    bench_interp(&mut h);
    bench_node_paths(&mut h);
    bench_sim(&mut h);
    h.finish();
}
