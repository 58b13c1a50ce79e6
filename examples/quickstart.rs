//! Quickstart: boot a SEUSS compute node, register a function, and watch
//! the three invocation paths (cold → hot → warm) get faster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use seuss::core::{Invocation, SeussConfig, SeussNode};

fn show(label: &str, inv: Invocation) {
    match inv {
        Invocation::Completed {
            path,
            result,
            costs,
            private_pages,
        } => println!(
            "{label:<18} path={path:?}  latency={:.2} ms  result={result:?}  pages copied={private_pages}",
            costs.total().as_millis_f64()
        ),
        other => println!("{label:<18} unexpected outcome: {other:?}"),
    }
}

fn main() {
    // A paper-scale node, shrunk to 4 GiB so the example starts fast.
    let cfg = SeussConfig::builder()
        .mem_mib(4096)
        .build()
        .expect("valid node config");
    println!(
        "booting SEUSS node ({} MiB, AO: {:?})…",
        cfg.mem_mib, cfg.ao
    );
    let (mut node, init) = SeussNode::new(cfg).expect("node init");
    println!(
        "node ready in {:.0} ms of virtual time (boot + AO + base snapshot)\n",
        init.as_millis_f64()
    );

    let src = r#"
        function fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        function main(args) { return 'fib(20) = ' + fib(20); }
    "#;

    // First invocation: cold — deploy from the runtime snapshot, import
    // and compile the source, capture a function snapshot, run.
    show("cold (1st call)", node.invoke(1, src, &[]).expect("cold"));

    // Second invocation: hot — the idle UC from the first call is reused.
    show("hot  (2nd call)", node.invoke(1, src, &[]).expect("hot"));

    // Drop the idle UC to force the warm path: deploy from the captured
    // function snapshot (no import, no compile).
    while let Some(uc) = node.idle.take(1) {
        node.destroy_uc(uc);
    }
    show("warm (no idle UC)", node.invoke(1, src, &[]).expect("warm"));

    let base = node.runtime_image().expect("runtime image");
    println!(
        "\nbase runtime snapshot: {:.1} MiB resident, shared by every UC on the node",
        node.snaps.resident_mib(&node.mmu, base).expect("size")
    );
    println!(
        "node stats: {} cold / {} warm / {} hot, {:.1} MiB in use",
        node.stats.cold,
        node.stats.warm,
        node.stats.hot,
        node.used_mib()
    );
}
