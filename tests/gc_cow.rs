//! The COW × moving-GC interaction (the paper's closing §7 observation
//! and stated future work): after a snapshot, a garbage collector that
//! relocates objects turns cheap in-place writes into COW breaks and
//! bloats the next snapshot's diff.

use seuss::core::{Invocation, SeussConfig, SeussNode};

const CHURN: &str = r#"
    // Module state built at import time: live objects the GC will move.
    let cache = [];
    let seed = 0;
    while (seed < 400) {
        push(cache, { k: seed, v: str(seed * seed) });
        seed += 1;
    }
    function main(args) {
        push(cache, { k: len(cache), v: 'run' });
        return len(cache);
    }
"#;

#[test]
fn gc_after_snapshot_forces_cow_breaks() {
    let cfg = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let (mut node, _) = SeussNode::new(cfg).expect("node");

    // Build the function snapshot and one idle UC.
    match node.invoke(1, CHURN, &[]).expect("cold") {
        Invocation::Completed { .. } => {}
        other => panic!("{other:?}"),
    }
    let mut uc = node.idle.take(1).expect("idle UC");

    // Quiesce: measure pure-GC page traffic on the idle UC.
    let cow_before = node.mmu.stats.cow_clones;
    let dz_before = node.mmu.stats.demand_zero_allocs;
    uc.run_gc(&mut node.mmu, &mut node.mem).expect("gc");
    let cow = node.mmu.stats.cow_clones - cow_before;
    let dz = node.mmu.stats.demand_zero_allocs - dz_before;
    assert!(
        cow + dz > 0,
        "a moving GC must dirty pages (cow {cow}, demand-zero {dz})"
    );
    node.destroy_uc(uc);
}

#[test]
fn gc_before_capture_bloats_the_snapshot_diff() {
    // Two nodes, same function; one runs a GC between compile and
    // capture. Its function snapshot must carry more pages.
    let diff_pages = |gc: bool| -> u64 {
        let cfg = SeussConfig::builder()
            .mem_mib(2048)
            .build()
            .expect("valid config");
        let (mut node, _) = SeussNode::new(cfg).expect("node");
        // Reach inside the cold path manually to control capture timing.
        let base = node.runtime_image().expect("base");
        let (mut uc, _) = node
            .images
            .deploy(&mut node.mmu, &mut node.mem, &mut node.snaps, base)
            .expect("deploy");
        uc.connect(&mut node.mmu, &mut node.mem).expect("connect");
        uc.import_function(&mut node.mmu, &mut node.mem, CHURN)
            .expect("import");
        if gc {
            uc.run_gc(&mut node.mmu, &mut node.mem).expect("gc");
        }
        let (snap, _) = node
            .images
            .capture(
                &mut node.mmu,
                &mut node.mem,
                &mut node.snaps,
                &mut uc,
                seuss::snapshot::SnapshotKind::Function,
                "f",
                Some(base),
            )
            .expect("capture");
        let pages = node.snaps.get(snap).expect("live").diff_pages();
        node.destroy_uc(uc);
        pages
    };
    let without = diff_pages(false);
    let with = diff_pages(true);
    assert!(
        with > without,
        "GC relocation must enlarge the diff ({with} vs {without} pages)"
    );
}
