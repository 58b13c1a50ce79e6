//! DR-SEUSS (§9 future work): quantifies distributed snapshot migration.
//!
//! Scenario: a cluster where functions go viral — a function cold-starts
//! on one node, then requests for it land on every other node. Compares
//! three ways the other nodes can serve it:
//!
//! * recompile locally (what single-node SEUSS would do: a cold start),
//! * fetch the function snapshot *diff* from a holder and warm-start
//!   (DR-SEUSS; every node already holds the runtime snapshot),
//! * ship the *full* image (what a system without shared runtime
//!   snapshots would pay).

use std::fmt::Write;

use seuss_core::SeussConfig;
use seuss_platform::{DrPath, DrSeussCluster};

use crate::cli::Args;
use crate::render::Table;
use crate::Artifact;

/// The `dr_seuss` experiment: `functions` functions going viral on a
/// `nodes`-node cluster of 4 GiB nodes. One sequential cluster, so the
/// worker count has nothing to fan out.
pub(crate) fn reproduce(a: &Args, _workers: usize) -> Result<Vec<Artifact>, String> {
    let nodes: usize = a.num::<u32>(0) as usize;
    let functions: u64 = a.num(1);
    let cfg = SeussConfig::builder()
        .mem_mib(4 * 1024)
        .build()
        .expect("valid dr-seuss config");
    let (mut cluster, _) = DrSeussCluster::new(nodes, cfg).expect("cluster");

    let src = |f: u64| format!("// fn {f}\nfunction main(args) {{ return {f}; }}");

    // Viral pattern: each function cold-starts on its home node, then is
    // requested once on every other node.
    let mut cold = Vec::new();
    let mut remote = Vec::new();
    for f in 0..functions {
        let home = (f % nodes as u64) as usize;
        let (p, c, _) = cluster.invoke_at(home, f, &src(f), &[]).expect("cold");
        assert_eq!(p, DrPath::LocalCold);
        cold.push(c.as_millis_f64());
        for peer in 0..nodes {
            if peer == home {
                continue;
            }
            let (p, c, _) = cluster.invoke_at(peer, f, &src(f), &[]).expect("peer");
            match p {
                DrPath::RemoteWarm => remote.push(c.as_millis_f64()),
                DrPath::LocalHot => {}
                other => panic!("unexpected path {other:?}"),
            }
        }
    }
    // Full-image shipping for comparison: the runtime snapshot travels too.
    let full_pkg = {
        let node = &cluster.nodes[0];
        let img = node.runtime_image().expect("runtime image");
        node.images
            .export(&node.mmu, &node.snaps, img, None)
            .expect("export full")
    };
    let full_ship_ms = cluster.transfer_cost(full_pkg.wire_bytes()).as_millis_f64();

    // On-demand paging variant (§9): ship only the working set up front.
    // For the NOP function the resume working set dominates its diff, so
    // the upfront wire time shrinks accordingly.
    let (lazy_eager_bytes, lazy_remote_pages) = {
        let node = &cluster.nodes[0];
        // Function 0 cold-started on node 0, so its image is cached there.
        let fn_img = node.fn_cache.peek(0).expect("fn 0 cached on node 0");
        let runtime = node.runtime_image().expect("runtime image");
        let mut diff = node
            .images
            .export(&node.mmu, &node.snaps, fn_img, Some(runtime))
            .expect("export diff")
            .snapshot;
        // The diff lists pages in address order; the driver's resume
        // working set is its lowest 360 pages.
        let tail = diff.pages.split_off(diff.pages.len().min(360));
        (diff.wire_bytes(), tail.len())
    };

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut t = Table::new(
        "DR-SEUSS: serving a function the node has never seen",
        &["strategy", "mean latency (ms)", "notes"],
    );
    t.row(&[
        "local cold (recompile)".into(),
        format!("{:.2}", mean(&cold)),
        "single-node SEUSS behaviour".into(),
    ]);
    t.row(&[
        "remote-warm (diff fetch)".into(),
        format!("{:.2}", mean(&remote)),
        format!(
            "~{:.1} MiB diff over 10 GbE",
            cluster.stats.bytes_transferred as f64
                / cluster.stats.remote_warm.max(1) as f64
                / (1024.0 * 1024.0)
        ),
    ]);
    t.row(&[
        "full-image ship (wire only)".into(),
        format!("{:.2}", full_ship_ms),
        format!(
            "{:.0} MiB runtime+fn image",
            full_pkg.wire_bytes() as f64 / (1024.0 * 1024.0)
        ),
    ]);
    t.row(&[
        "on-demand paging (upfront wire)".into(),
        format!(
            "{:.2}",
            cluster.transfer_cost(lazy_eager_bytes).as_millis_f64()
        ),
        format!(
            "{:.1} MiB working set now, {} pages faulted later",
            lazy_eager_bytes as f64 / (1024.0 * 1024.0),
            lazy_remote_pages
        ),
    ]);
    let mut out = String::new();
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "cluster stats: {} cold / {} remote-warm / {} hot; {:.1} MiB shipped total",
        cluster.stats.local_cold,
        cluster.stats.remote_warm,
        cluster.stats.local_hot,
        cluster.stats.bytes_transferred as f64 / (1024.0 * 1024.0),
    );
    let _ = writeln!(
        out,
        "\n§9's claim, quantified: because every node holds the per-interpreter\n\
         runtime snapshot, a function snapshot migrates as a ~2 MiB diff and a\n\
         remote warm start beats recompiling — while shipping whole images\n\
         would cost {:.0}x more wire time.",
        full_ship_ms / mean(&remote).max(0.001)
    );
    Ok(vec![Artifact::Printed("results/dr_seuss.txt".into(), out)])
}
