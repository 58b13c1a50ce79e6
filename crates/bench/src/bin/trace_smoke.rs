//! Observability + determinism smoke: runs a traced sharded trial
//! offline at a fixed shard count on 1 and on N worker threads,
//! validates the merged trace, fails on any byte divergence between the
//! two runs, and writes the artifacts next to the other experiment
//! results. Exits nonzero if any invariant fails.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin trace_smoke [invocations] [--workers N]
//! ```

use seuss_bench::{run_trace_smoke, BenchArgs, TRACE_SMOKE_SHARDS};

fn main() {
    let args = BenchArgs::parse(4);
    let invocations: u64 = args
        .positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let workers = args.workers;
    eprintln!(
        "running traced trial ({invocations} invocations, {TRACE_SMOKE_SHARDS} shards, \
         workers 1 vs {workers})…"
    );

    let smoke = match run_trace_smoke(invocations, workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace smoke FAILED: {e}");
            std::process::exit(1);
        }
    };

    let _ = std::fs::create_dir_all("results");
    let trace_path = "results/trace_smoke.jsonl";
    let metrics_path = "results/trace_smoke_metrics.json";
    if let Err(e) = std::fs::write(trace_path, &smoke.trace_jsonl) {
        eprintln!("cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(metrics_path, &smoke.metrics_json) {
        eprintln!("cannot write {metrics_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "trace smoke OK: {} requests, {} trace lines, {} segments\n  \
         byte-identical at workers=1 and workers={}; wall {:.3} s -> {:.3} s ({:.2}x speedup)\n  \
         {trace_path}\n  {metrics_path}",
        smoke.completed,
        smoke.trace_lines,
        smoke.segments,
        smoke.workers,
        smoke.wall_base_s,
        smoke.wall_s,
        smoke.speedup()
    );
}
