//! Regenerates Table 1: SEUSS microbenchmarks (snapshot sizes; NOP
//! invocation latency and footprint over cold/warm/hot paths).
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin table1 [iterations] [--workers N]
//! ```

use seuss_bench::{ratio, run_table1, BenchArgs, Table};

fn main() {
    let args = BenchArgs::parse(2);
    let iterations: u32 = args
        .positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(475);
    let workers = args.workers;
    eprintln!("running Table 1 microbenchmarks ({iterations} invocations per path, {workers} worker threads)…");
    let started = std::time::Instant::now();
    let r = run_table1(iterations, workers);
    eprintln!(
        "took {:.2} s on {workers} worker threads",
        started.elapsed().as_secs_f64()
    );

    let mut top = Table::new(
        "Table 1 (top): snapshot memory footprint",
        &["Rumprun unikernel", "paper (MB)", "measured (MiB)", "ratio"],
    );
    top.row(&[
        "Node.js driver, before AO".into(),
        "109.6".into(),
        format!("{:.1}", r.base_snapshot_mib),
        ratio(r.base_snapshot_mib, 109.6),
    ]);
    top.row(&[
        "Node.js driver, after AO".into(),
        "114.5".into(),
        format!("{:.1}", r.base_snapshot_ao_mib),
        ratio(r.base_snapshot_ao_mib, 114.5),
    ]);
    top.row(&[
        "JS NOP function, before AO".into(),
        "4.8".into(),
        format!("{:.1}", r.fn_snapshot_mib),
        ratio(r.fn_snapshot_mib, 4.8),
    ]);
    top.row(&[
        "JS NOP function, after AO".into(),
        "2.0".into(),
        format!("{:.1}", r.fn_snapshot_ao_mib),
        ratio(r.fn_snapshot_ao_mib, 2.0),
    ]);
    println!("{}", top.render());

    let mut bottom = Table::new(
        "Table 1 (bottom): NOP invocation, after AO",
        &[
            "Invocation",
            "paper (ms)",
            "measured (ms)",
            "ratio",
            "footprint (MiB)",
            "pages copied",
        ],
    );
    for (name, paper, row) in [
        ("Cold start", 7.5, r.cold),
        ("Warm start", 3.5, r.warm),
        ("Hot start", 0.8, r.hot),
    ] {
        bottom.row(&[
            name.into(),
            format!("{paper}"),
            format!("{:.2}", row.latency_ms),
            ratio(row.latency_ms, paper),
            format!("{:.2}", row.footprint_mib),
            format!("{:.0}", row.pages_copied),
        ]);
    }
    println!("{}", bottom.render());
}
