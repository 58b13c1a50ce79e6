//! Regenerates Figure 4: OpenWhisk platform throughput vs the set size
//! of unique functions being invoked (both backends).
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin fig4 [max_set_size] [mem_mib] [--workers N]
//! ```
//!
//! The full sweep (64 … 65536 on an 88 GiB node) takes a while; the
//! default stops at 16384 with a 24 GiB node, which shows the whole
//! shape. Output is a text series plus a log-scale ASCII plot.

use seuss_bench::{run_fig4, BenchArgs, Table};

fn bar(v: f64, max: f64, width: usize) -> String {
    if v <= 0.0 {
        return String::new();
    }
    // Log scale from 1 to max.
    let frac = (v.max(1.0)).ln() / max.ln();
    "#".repeat((frac * width as f64).round() as usize)
}

fn main() {
    let args = BenchArgs::parse(1);
    let pos = &args.positionals;
    let max_m: u64 = pos.first().and_then(|s| s.parse().ok()).unwrap_or(16_384);
    let mem_mib: u64 = pos.get(1).and_then(|s| s.parse().ok()).unwrap_or(24 * 1024);
    let workers = args.workers;
    let mut sizes = Vec::new();
    let mut m = 64u64;
    while m <= max_m {
        sizes.push(m);
        m *= 2;
    }
    eprintln!(
        "running Figure 4 sweep over set sizes {sizes:?} (SEUSS node {mem_mib} MiB, {workers} worker threads)…"
    );

    let started = std::time::Instant::now();
    let points = run_fig4(&sizes, None, mem_mib, workers);
    let wall = started.elapsed();
    eprintln!(
        "sweep took {:.2} s on {workers} worker threads",
        wall.as_secs_f64()
    );

    let mut t = Table::new(
        "Figure 4: platform throughput vs unique-function set size",
        &[
            "set size",
            "SEUSS rps",
            "Linux rps",
            "SEUSS/Linux",
            "Linux errs",
        ],
    );
    let peak = points
        .iter()
        .map(|p| p.seuss_rps.max(p.linux_rps))
        .fold(1.0, f64::max);
    for p in &points {
        t.row(&[
            format!("{}", p.set_size),
            format!("{:.1}", p.seuss_rps),
            format!("{:.1}", p.linux_rps),
            format!("{:.1}x", p.seuss_rps / p.linux_rps.max(1e-9)),
            format!("{}", p.linux_errors),
        ]);
    }
    println!("{}", t.render());

    println!("log-scale throughput (S = SEUSS, L = Linux):");
    for p in &points {
        println!("{:>7} S |{}", p.set_size, bar(p.seuss_rps, peak, 50));
        println!("{:>7} L |{}", "", bar(p.linux_rps, peak, 50));
    }
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        println!(
            "\nleft edge: Linux ahead by {:.0}% (paper: 21%); right edge: SEUSS ahead {:.0}x (paper: up to 52x)",
            (first.linux_rps / first.seuss_rps - 1.0) * 100.0,
            last.seuss_rps / last.linux_rps.max(1e-9)
        );
    }
}
