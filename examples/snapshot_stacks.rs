//! Snapshot stacks: the §3 Foo/Bar example, mechanically.
//!
//! "If the interpreter is 100 MB and each function adds 1 MB, we require
//! 202 MB of storage. With snapshot stacks, three snapshots are used …
//! This requires 102 MB as the interpreter is shared between the two
//! function snapshots."
//!
//! This example builds exactly that: one base runtime snapshot and two
//! function snapshots (`foo`, `bar`) diffing against it, then deploys a
//! crowd of UCs from each and prints where the memory actually went.
//!
//! ```sh
//! cargo run --release --example snapshot_stacks
//! ```

use seuss::core::{Invocation, SeussConfig, SeussNode};

fn mib(pages: u64) -> f64 {
    (pages * 4096) as f64 / (1024.0 * 1024.0)
}

fn main() {
    let cfg = SeussConfig::builder()
        .mem_mib(8 * 1024)
        .build()
        .expect("valid node config");
    let (mut node, _) = SeussNode::new(cfg).expect("node init");

    let foo_src = "function main(args) { return 'foo says ' + (6 * 7); }";
    let bar_src = "function main(args) { let s = 0; for (let i = 0; i < 100; i = i + 1) { s = s + i; } return 'bar sum ' + s; }";

    let before = node.mem.stats();
    node.invoke(100, foo_src, &[]).expect("foo cold");
    node.invoke(200, bar_src, &[]).expect("bar cold");

    // Inspect the snapshot stack.
    let base = node.runtime_image().expect("runtime image");
    println!("snapshot stack contents:");
    println!(
        "  base runtime snapshot : {:>8.1} MiB resident ({:.1} MiB diff over boot)",
        node.snaps.resident_mib(&node.mmu, base).expect("size"),
        node.snaps.get(base).expect("live").diff_mib(),
    );
    for (f, name) in [(100u64, "foo"), (200, "bar")] {
        let snap = node.fn_cache.lookup(f).expect("cached");
        let s = node.snaps.get(snap).expect("live");
        println!(
            "  {name} function snapshot : {:>8.1} MiB diff on parent (stack: {:?})",
            s.diff_mib(),
            node.snaps.stack_of(snap).expect("lineage").len(),
        );
    }
    let after = node.mem.stats();
    println!(
        "\ntotal node memory for base + foo + bar: {:.1} MiB (not {:.1} MiB — the runtime image is stored once)",
        mib(after.used_frames - before.used_frames) + mib(before.used_frames),
        2.0 * node.snaps.resident_mib(&node.mmu, base).expect("size"),
    );

    // Deploy a crowd from each function snapshot: COW sharing means each
    // warm UC pins only its private pages.
    let crowd = 64;
    let before_crowd = node.mem.stats().used_frames;
    for i in 0..crowd {
        let f = if i % 2 == 0 { 100 } else { 200 };
        match node.invoke(f, "", &[]).expect("warm/hot") {
            Invocation::Completed { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let growth = node.mem.stats().used_frames - before_crowd;
    println!(
        "\nafter {crowd} more invocations: +{:.1} MiB total, {} idle UCs cached —\nrepeat hot invocations reuse idle UCs and copy almost nothing.",
        mib(growth),
        node.idle.len(),
    );
}
