//! Host-time benchmark of the SEUSS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn_uniform|hot_zipf|tier_pressure> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats untraced trials of the workload for `--seconds`
//! and reports the end-to-end metrics (medians over the repetitions after
//! the first; for throughput, over the fastest quarter of them). `--trace 1` makes one traced pass and reports the
//! per-layer metrics. Both modes check the simulator's outputs and the
//! pinned statistics of the pinned seeds. The last line of standard
//! output is one JSON object; progress and notes go to standard error.
//! See `LAYERS.md` for what each metric should move.

mod args;
mod layers;
mod pinned;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{result_json, MetricDef, END_TO_END, PER_LAYER};
use workloads::{median, run_rep, setup_once, Rep, SimStats, Workload};

/// Untraced repetitions per run, at least; the first is a warm-up.
const MIN_REPS: usize = 3;

/// Set-ups timed after each repetition for `setup_s`: set-up is short,
/// so it is sampled often and spread over the whole window.
const SETUPS_PER_REP: usize = 3;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(args)
    } else {
        untraced(args)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Attempts, failures and problems gathered across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.stats.errors + rep.problems.len().min(1) as u64;
        self.problems.extend(rep.problems.iter().cloned());
    }

    /// Checks `stats` of `w` on `seed` against the pinned statistics.
    fn check_pinned(&mut self, w: Workload, seed: u64, stats: &SimStats) {
        match pinned::pinned(w, seed) {
            Some(want) if want == *stats => {}
            Some(want) => self.problems.push(format!(
                "{} seed {seed}: simulated statistics differ from the pinned ones\n  \
                 got  {stats:?}\n  want {want:?}",
                w.name()
            )),
            None => self.problems.push(format!(
                "{} seed {seed}: no pinned statistics; observed {stats:?}",
                w.name()
            )),
        }
    }

    /// Re-derives the pinned seeds' statistics (reusing `measured` when
    /// the run's own seed is pinned) and compares them.
    fn check_all_pinned(&mut self, w: Workload, seed: u64, measured: &SimStats) {
        for p in pinned::PINNED_SEEDS {
            if p == seed {
                self.check_pinned(w, p, measured);
            } else {
                let rep = run_rep(w, p);
                self.add(&rep);
                self.check_pinned(w, p, &rep.stats);
            }
        }
    }

    fn finish(self, metrics: &[(MetricDef, f64)]) -> Result<String, String> {
        for p in &self.problems {
            eprintln!("INCORRECT: {p}");
        }
        result_json(
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics,
        )
    }
}

fn untraced(args: args::Args) -> Result<String, String> {
    let w = args.workload;
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup_s = Vec::new();
    let mut peak_mib = 0.0;
    while reps.len() < MIN_REPS || started.elapsed() < window {
        let rep = run_rep(w, args.seed);
        // The high-water mark of set-up plus one trial: later repetitions
        // only add allocator fragmentation, which varies from run to run.
        if reps.is_empty() {
            peak_mib = peak_rss_mib()?;
        }
        setup_s.extend((0..SETUPS_PER_REP).map(|_| setup_once(w, args.seed)));
        eprintln!(
            "{} seed {} rep {}: setup {:.4} s, run {:.4} s, {:.0} inv/s",
            w.name(),
            args.seed,
            reps.len(),
            rep.setup_s,
            rep.run_s,
            rep.attempted as f64 / rep.run_s
        );
        reps.push(rep);
    }
    let mut tally = Tally::default();
    let first = reps[0].stats;
    for rep in &reps {
        tally.add(rep);
        if rep.stats != first {
            tally.problems.push(format!(
                "repetitions of one seed disagree: {:?} vs {first:?}",
                rep.stats
            ));
        }
    }
    tally.check_all_pinned(w, args.seed, &first);

    // Other tenants of the host slow the process for seconds at a time
    // and never speed it up, so the fastest repetitions are the steadier
    // estimate of the program's own speed.
    let mut inv_per_s: Vec<f64> = reps[1..]
        .iter()
        .map(|r| r.attempted as f64 / r.run_s)
        .collect();
    inv_per_s.sort_by(|a, b| b.total_cmp(a));
    let fastest_quarter = &inv_per_s[..inv_per_s.len().div_ceil(4)];
    let values = [median(fastest_quarter), median(&setup_s), peak_mib];
    eprintln!(
        "{} timed repetitions; simulated: {first:?}, cold share {}",
        inv_per_s.len(),
        first.cold_frac()
    );
    let metrics: Vec<(MetricDef, f64)> = END_TO_END.iter().copied().zip(values).collect();
    tally.finish(&metrics)
}

fn traced(args: args::Args) -> Result<String, String> {
    let w = args.workload;
    let (mut report, reference) = layers::run(w, args.seed);
    let mut tally = Tally {
        attempted: report.attempted,
        failed: report.failed,
        problems: std::mem::take(&mut report.problems),
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    tally.check_all_pinned(w, args.seed, &reference);

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for d in PER_LAYER {
        let v = report
            .values
            .remove(d.name)
            .ok_or_else(|| format!("per-layer metric {} was not measured", d.name))?;
        metrics.push((d, v));
    }
    if let Some(extra) = report.values.keys().next() {
        return Err(format!("measured {extra}, which PER_LAYER does not list"));
    }
    for (d, v) in &metrics {
        eprintln!(
            "{:>32} = {v} {} ({} is better)",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    tally.finish(&metrics)
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
