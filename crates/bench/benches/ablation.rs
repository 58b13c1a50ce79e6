//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! 1. **Lazy root-only deploy vs eager full-structure copy** — the paper
//!    deploys by shallow-copying the snapshot's page-table structure; we
//!    copy only the root and split lazily. This measures what eagerness
//!    would cost as the image grows.
//! 2. **Dirty-only capture vs full-address-space capture** — §6 clones
//!    only dirty pages into a snapshot; the ablation clones every mapped
//!    page.
//! 3. **With vs without anticipatory optimization** — the host-side cost
//!    of the cold path when lazy-init work has (not) been hoisted into
//!    the base snapshot. (Virtual-time effects are Table 2's job; this
//!    shows the mechanism does proportionally more real work too.)

use seuss_bench::{BenchmarkId, Harness};

use seuss_core::{AoLevel, SeussConfig, SeussNode};
use seuss_mem::{PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, Region, RegionKind};

const BASE: u64 = 0x10_0000;

fn rig(pages: u64) -> (PhysMemory, Mmu, AddressSpace) {
    let mut mem = PhysMemory::with_mib(1024);
    let mut mmu = Mmu::new();
    let mut space = mmu.create_space(&mut mem).expect("space");
    space.add_region(Region {
        start: VirtAddr::new(BASE),
        pages: 262_144,
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

fn ablation_deploy(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation_deploy");
    for pages in [512u64, 4_096, 32_768] {
        g.bench_with_input(
            BenchmarkId::new("lazy_root_only", pages),
            &pages,
            |b, &p| {
                let (mut mem, mut mmu, space) = rig(p);
                b.iter(|| {
                    let r = mmu.shallow_clone(&mut mem, space.root()).expect("clone");
                    mmu.release_root(&mut mem, r);
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("eager_full_structure", pages),
            &pages,
            |b, &p| {
                let (mut mem, mut mmu, space) = rig(p);
                b.iter(|| {
                    let r = mmu
                        .deep_clone_tables(&mut mem, space.root())
                        .expect("clone");
                    mmu.release_root(&mut mem, r);
                });
            },
        );
    }
    g.finish();
}

fn ablation_capture(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation_capture");
    // A 4096-page image where only 64 pages are dirty since deploy.
    let dirty = 64u64;
    let image = 4_096u64;

    g.bench_function("dirty_only_64_of_4096", |b| {
        b.iter_batched(
            || {
                // Image + snapshot + fresh UC that dirtied 64 pages.
                let (mut mem, mut mmu, space) = rig(image);
                let snap_root = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                let mut uc = AddressSpace::from_root(
                    mmu.shallow_clone(&mut mem, snap_root).expect("deploy"),
                );
                uc.set_regions(space.regions().to_vec());
                for p in 0..dirty {
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    mmu.touch_write(&mut mem, &mut uc, va).expect("dirty");
                }
                (mem, mmu, space, snap_root, uc)
            },
            |(mut mem, mut mmu, _space, _snap, mut uc)| {
                // Capture = shallow clone + drain the dirty set (the lazy
                // equivalent of cloning exactly the dirty pages).
                let r = mmu.shallow_clone(&mut mem, uc.root()).expect("capture");
                std::hint::black_box(uc.clear_dirty());
                (mem, mmu, uc, r)
            },
        );
    });

    g.bench_function("full_image_4096", |b| {
        b.iter_batched(
            || {
                let (mut mem, mut mmu, space) = rig(image);
                let snap_root = mmu.shallow_clone(&mut mem, space.root()).expect("snap");
                let mut uc = AddressSpace::from_root(
                    mmu.shallow_clone(&mut mem, snap_root).expect("deploy"),
                );
                uc.set_regions(space.regions().to_vec());
                for p in 0..dirty {
                    let va = VirtAddr::new(BASE + p * PAGE_SIZE as u64);
                    mmu.touch_write(&mut mem, &mut uc, va).expect("dirty");
                }
                (mem, mmu, space, uc)
            },
            |(mut mem, mmu, _space, uc)| {
                // Naive capture: clone every mapped page of the UC.
                let mapped = mmu.collect_mapped(uc.root());
                let mut clones = Vec::with_capacity(mapped.len());
                for (_, frame) in mapped {
                    clones.push(mem.clone_frame(frame).expect("clone"));
                }
                for f in &clones {
                    mem.dec_ref(*f);
                }
                (mem, mmu, uc)
            },
        );
    });
    g.finish();
}

fn ablation_ao(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation_ao_cold_path");
    g.sample_size(10);
    const NOP: &str = "function main(args) { return 0; }";
    for (name, ao) in [
        ("no_ao", AoLevel::None),
        ("network_ao", AoLevel::Network),
        ("full_ao", AoLevel::NetworkAndInterpreter),
    ] {
        g.bench_function(name, |b| {
            let cfg = SeussConfig::test_builder()
                .ao_level(ao)
                .mem_mib(2048)
                .build()
                .expect("valid ablation config");
            let (mut node, _) = SeussNode::new(cfg).expect("node");
            let mut f = 0u64;
            b.iter(|| {
                f += 1;
                node.invoke(f, NOP, &[]).expect("cold")
            });
        });
    }
    g.finish();
}

fn ablation_gc(h: &mut Harness) {
    // The paper's closing §7 note: COW at page granularity interacts
    // badly with runtimes that rewrite memory. A moving GC relocates
    // every object backing; after a snapshot each relocation is a COW
    // break. Compare the host cost of a warm invocation with and without
    // a GC pass (virtual-time and diff-size effects are asserted in the
    // gc_cow integration test).
    use miniscript::RuntimeProfile;
    use seuss_snapshot::{SnapshotKind, SnapshotStore};
    use seuss_unikernel::{ImageStore, Layout, UcContext, UcProfile};

    let mut g = h.benchmark_group("ablation_gc_vs_cow");
    g.sample_size(20);

    let build = || {
        let mut mem = PhysMemory::with_mib(768);
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();
        let (mut uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .expect("boot");
        uc.connect(&mut mmu, &mut mem).expect("connect");
        // A function with real object churn.
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function main(args) { let acc = []; for (let i = 0; i < 200; i += 1) { push(acc, { i: i, s: str(i) }); } return len(acc); }",
        )
        .expect("import");
        let (img, _) = images
            .capture(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut uc,
                SnapshotKind::Function,
                "f",
                None,
            )
            .expect("capture");
        (mem, mmu, snaps, images, img)
    };

    g.bench_function("warm_invoke_no_gc", |b| {
        let (mut mem, mut mmu, mut snaps, mut images, img) = build();
        b.iter(|| {
            let (mut uc, _) = images
                .deploy(&mut mmu, &mut mem, &mut snaps, img)
                .expect("deploy");
            uc.invoke(&mut mmu, &mut mem, &[]).expect("invoke");
            images.destroy_uc(&mut mmu, &mut mem, &mut snaps, uc);
        });
    });

    g.bench_function("warm_invoke_with_gc", |b| {
        let (mut mem, mut mmu, mut snaps, mut images, img) = build();
        b.iter(|| {
            let (mut uc, _) = images
                .deploy(&mut mmu, &mut mem, &mut snaps, img)
                .expect("deploy");
            uc.invoke(&mut mmu, &mut mem, &[]).expect("invoke");
            uc.run_gc(&mut mmu, &mut mem).expect("gc");
            images.destroy_uc(&mut mmu, &mut mem, &mut snaps, uc);
        });
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    ablation_deploy(&mut h);
    ablation_capture(&mut h);
    ablation_ao(&mut h);
    ablation_gc(&mut h);
    h.finish();
}
