//! Regenerates Figures 6–8: platform resiliency to request bursts at a
//! configurable period (32 s = Figure 6, 16 s = Figure 7, 8 s = Figure 8).
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin fig6 -- [period_s] [csv_path] \
//!     [--workers N] [--fault-plan <spec>] [--fault-seed N]
//! ```
//!
//! Prints summary counts and an ASCII timeline; optionally dumps the full
//! scatter (every request's send time, latency, and error mark) as CSV
//! for plotting. `--fault-plan` injects a fault schedule into both
//! backends (see `seuss::faults::spec` for the grammar).

use seuss::faults::RetryPolicy;
use seuss_bench::{run_burst_with_faults, BenchArgs};
use seuss_platform::RequestStatus;
use seuss_workload::{burst_series_csv, BurstParams};

fn timeline(records: &[seuss_platform::RequestRecord], span_s: f64) -> String {
    // One column per second; mark the worst event in that second:
    // 'x' error > '!' slow (>5 s) > '~' elevated (>1 s) > '.' ok.
    let cols = span_s.ceil() as usize + 1;
    let mut marks = vec![' '; cols];
    let sev = |c: char| match c {
        'x' => 4,
        '!' => 3,
        '~' => 2,
        '.' => 1,
        _ => 0,
    };
    for r in records {
        let col = (r.sent_at_s as usize).min(cols - 1);
        let mark = if r.status == RequestStatus::Error {
            'x'
        } else if r.latency_ms > 5_000.0 {
            '!'
        } else if r.latency_ms > 1_000.0 {
            '~'
        } else {
            '.'
        };
        if sev(mark) > sev(marks[col]) {
            marks[col] = mark;
        }
    }
    marks.into_iter().collect()
}

fn main() {
    let args = BenchArgs::parse(2);
    let pos = &args.positionals;
    let period: u64 = pos.first().and_then(|s| s.parse().ok()).unwrap_or(32);
    let csv_path = pos.get(1).cloned();
    let workers = args.workers;
    let plan = args.fault_plan(42);
    let params = BurstParams::paper(period);
    eprintln!(
        "running burst experiment: {} bursts of {} CPU-bound requests every {period}s over a 72 rps IO background ({workers} worker threads)…",
        params.bursts, params.burst_size
    );
    if !plan.is_empty() {
        eprintln!("injecting {} fault event(s) into both backends", plan.len());
    }
    let started = std::time::Instant::now();
    let out = run_burst_with_faults(params, 16 * 1024, workers, &plan, RetryPolicy::resilient());
    eprintln!(
        "both backends took {:.2} s on {workers} worker threads",
        started.elapsed().as_secs_f64()
    );
    let span = params.span().as_secs_f64();

    println!("== Request burst sent every {period} seconds ==\n");
    for (name, side) in [("Linux", &out.linux), ("SEUSS", &out.seuss)] {
        println!(
            "{name}: background {} ok / {} err (p50 {:.0} ms) | bursts {} ok / {} err (p99 {:.0} ms)",
            side.background_ok,
            side.background_err,
            side.background_p50_ms,
            side.burst_ok,
            side.burst_err,
            side.burst_p99_ms,
        );
        println!("  per-second timeline ('.' ok, '~' >1s, '!' >5s, 'x' error):");
        println!("  |{}|", timeline(&side.records, span));
    }
    println!(
        "\npaper shape: Linux errors once its container cache saturates and\n\
         stalls; SEUSS serves every request across all burst frequencies."
    );

    if let Some(path) = csv_path {
        let mut csv = String::from("backend,");
        csv.push_str(&burst_series_csv(&out.linux.records).replace('\n', "\nlinux,"));
        csv.push('\n');
        csv.push_str("backend,");
        csv.push_str(&burst_series_csv(&out.seuss.records).replace('\n', "\nseuss,"));
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("scatter written to {path}");
    }
}
