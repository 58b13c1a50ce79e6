//! Tier figure: cache density vs. restore latency across the three
//! restore policies and the all-DRAM / evict-only baselines.
//!
//! ```text
//! cargo run --release -p seuss-bench --bin figtier -- \
//!     [fns] [rounds] [mem_mib] [csv_out] \
//!     [--workers N] [--store-blocks N]
//! ```
//!
//! The run is self-checking: it executes at 1 worker thread and at
//! `--workers`, asserts the CSV artifacts are byte-identical, and exits
//! nonzero on any divergence or if the figure's claims (density above
//! the DRAM cap, prefetch restores under lazy) fail to reproduce.

use seuss_bench::{run_figtier, tier_csv, BenchArgs, TierParams};
use seuss_trace::PathKind;

fn main() {
    let args = BenchArgs::parse(4);
    let pos = &args.positionals;
    let mut p = TierParams::small();
    if let Some(v) = pos.first() {
        p.fns = v.parse().expect("fns: a function count");
    }
    if let Some(v) = pos.get(1) {
        p.rounds = v.parse().expect("rounds: a sweep count");
    }
    if let Some(v) = pos.get(2) {
        p.mem_mib = v.parse().expect("mem_mib: a MiB count");
    }
    if let Some(s) = &args.store {
        p.device_blocks = s.capacity_blocks;
    }
    let workers = args.workers;

    eprintln!(
        "running tier figure: {} fns x {} sweeps on a {} MiB node, {} device blocks \
         (workers 1 vs {workers})…",
        p.fns, p.rounds, p.mem_mib, p.device_blocks
    );
    let start = std::time::Instant::now();
    let base = run_figtier(p, 1);
    let out = run_figtier(p, workers);
    let wall = start.elapsed().as_secs_f64();

    let base_csv = tier_csv(&base);
    let csv = tier_csv(&out);
    if base_csv != csv {
        eprintln!("figtier FAILED: artifacts diverge between workers=1 and workers={workers}");
        std::process::exit(1);
    }

    let mut ok = true;
    let dram = out.side("dram");
    println!("side     density  cold  warm_tier  demotions  prefetches  mean_restore_us");
    for s in &out.sides {
        let tier_rows: Vec<_> = s
            .rows
            .iter()
            .filter(|r| r.path == PathKind::WarmTier)
            .collect();
        let mean_restore_us = if tier_rows.is_empty() {
            0.0
        } else {
            tier_rows.iter().map(|r| r.restore_nanos).sum::<u64>() as f64
                / tier_rows.len() as f64
                / 1_000.0
        };
        println!(
            "{:<8} {:>7}  {:>4}  {:>9}  {:>9}  {:>10}  {:>15.2}",
            s.label,
            s.density,
            s.cold_redeploys,
            s.warm_tier,
            s.demotions,
            s.prefetches,
            mean_restore_us
        );
    }

    for label in ["lazy", "eager", "ws"] {
        if out.side(label).density <= dram.density {
            eprintln!("figtier FAILED: {label} density not above the DRAM cap");
            ok = false;
        }
    }
    let lazy = out.side("lazy");
    let ws = out.side("ws");
    let mut compared = 0u64;
    for wr in ws.rows.iter().filter(|r| r.prefetched) {
        if let Some(lr) = lazy
            .rows
            .iter()
            .find(|r| r.round == wr.round && r.f == wr.f && r.path == PathKind::WarmTier)
        {
            if wr.restore_nanos >= lr.restore_nanos {
                eprintln!(
                    "figtier FAILED: fn {} round {}: ws restore {} ns >= lazy {} ns",
                    wr.f, wr.round, wr.restore_nanos, lr.restore_nanos
                );
                ok = false;
            }
            compared += 1;
        }
    }
    if compared == 0 {
        eprintln!("figtier FAILED: no prefetch/lazy re-deploy pairs to compare");
        ok = false;
    }

    if let Some(path) = pos.get(3) {
        std::fs::write(path, &csv).expect("write csv");
        eprintln!("wrote {path} ({} rows)", csv.lines().count() - 1);
    }
    eprintln!(
        "byte-identical at workers=1 and workers={workers}; {compared} prefetch restores \
         under lazy; wall {wall:.2} s"
    );
    if !ok {
        std::process::exit(1);
    }
}
