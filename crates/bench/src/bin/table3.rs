//! Regenerates Table 3: cache density and 16-way creation rate for the
//! four isolation methods.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin table3 [seuss_fill_cap] [--workers N]
//! ```
//!
//! The optional cap limits how many UCs the SEUSS density fill actually
//! deploys before extrapolating from the (constant) per-UC footprint;
//! pass 0 to fill all of the 88 GB node with real deploys.

use seuss_bench::{run_table3, BenchArgs, Table};

fn main() {
    let args = BenchArgs::parse(4);
    let cap: u64 = args
        .positionals
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);
    let cap = if cap == 0 { None } else { Some(cap) };
    let workers = args.workers;
    eprintln!(
        "running Table 3 (88 GiB node, 16 cores; SEUSS fill cap {cap:?}; {workers} worker threads)…"
    );
    let started = std::time::Instant::now();
    let r = run_table3(88 * 1024, cap, workers);
    eprintln!(
        "took {:.2} s on {workers} worker threads",
        started.elapsed().as_secs_f64()
    );

    let mut t = Table::new(
        "Table 3: creation rate and cache density (Node.js environments)",
        &[
            "Isolation method",
            "rate/s (paper)",
            "rate/s (measured)",
            "density (paper)",
            "density (measured)",
        ],
    );
    for (row, paper_rate, paper_density) in [
        (&r.microvm, 1.3, 450u64),
        (&r.docker, 5.3, 3_000),
        (&r.process, 45.0, 4_200),
        (&r.seuss, 128.6, 54_000),
    ] {
        t.row(&[
            row.method.into(),
            format!("{paper_rate}"),
            format!("{:.1}", row.creation_rate),
            format!("{paper_density}"),
            format!("{}", row.cache_density),
        ]);
    }
    println!("{}", t.render());
    println!(
        "SEUSS vs Linux processes creation rate: {:.1}x (paper: 2.4x)",
        r.seuss.creation_rate / r.process.creation_rate
    );
    println!(
        "SEUSS vs Docker cache density: {:.0}x (paper: 18x)",
        r.seuss.cache_density as f64 / r.docker.cache_density as f64
    );
}
