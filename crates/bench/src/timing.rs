//! A small in-tree wall-clock timing harness — the criterion subset the
//! `benches/` targets use, with none of criterion's dependency tree.
//!
//! The API mirrors criterion's so bench bodies read identically:
//! [`Harness::benchmark_group`], [`Group::bench_function`],
//! [`Bencher::iter`] / [`Bencher::iter_batched`]. Each benchmark is
//! calibrated to a per-sample target time, measured over a fixed number
//! of samples, and reported as `median ns/iter` with min/max spread.
//!
//! Run via `cargo bench -p seuss-bench [-- <filter>]`; a filter substring
//! restricts which benchmarks execute (matching on `group/name`), and a
//! run in which no benchmark matched exits with status 1. The
//! `SEUSS_BENCH_SAMPLE_MS` env var scales per-sample time for quick
//! smoke runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLE_MS_ENV: &str = "SEUSS_BENCH_SAMPLE_MS";

/// Most inputs [`Bencher::iter_batched`] builds ahead of one timed
/// chunk. A sample runs in chunks of at most this many iterations, so a
/// bench holds at most this many rigs however long its sample is.
const BATCH_CAP: u64 = 256;

/// A named benchmark id with an attached parameter, mirroring
/// `criterion::BenchmarkId`.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `new("lazy", 512)` renders as `lazy/512`.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), param),
        }
    }
}

/// Top-level harness: owns the filter and the collected results.
pub struct Harness {
    filter: Option<String>,
    sample_target: Duration,
    results: Vec<(String, Stats)>,
}

/// Per-benchmark timing summary, in nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stats {
    /// Median across samples.
    pub(crate) median_ns: f64,
    /// Fastest sample.
    pub(crate) min_ns: f64,
    /// Slowest sample.
    pub(crate) max_ns: f64,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_args()
    }
}

impl Harness {
    /// Builds a harness, taking the first non-flag CLI argument as a
    /// substring filter (cargo bench passes `--bench` etc., skip those).
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        let sample_ms = parse_sample_ms(std::env::var(SAMPLE_MS_ENV).ok().as_deref());
        Harness {
            filter,
            sample_target: Duration::from_millis(sample_ms),
            results: Vec::new(),
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Prints the final report table. Call once from `main`.
    ///
    /// Exits with status 1 if no benchmark ran, so a filter that names a
    /// renamed or deleted group fails instead of passing with nothing
    /// measured.
    pub fn finish(&self) {
        if let Err(msg) = self.report() {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }

    /// Prints the report table, or returns why there is none.
    fn report(&self) -> Result<(), String> {
        if self.results.is_empty() {
            return Err(match &self.filter {
                Some(filter) => format!("no benchmark matched the filter {filter:?}"),
                None => "no benchmarks ran".to_string(),
            });
        }
        let width = self.results.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        println!(
            "\n{:width$}  {:>12}  {:>12}  {:>12}",
            "benchmark", "median", "min", "max"
        );
        for (name, s) in &self.results {
            println!(
                "{:width$}  {:>12}  {:>12}  {:>12}",
                name,
                fmt_ns(s.median_ns),
                fmt_ns(s.min_ns),
                fmt_ns(s.max_ns)
            );
        }
        Ok(())
    }
}

/// Reads `SEUSS_BENCH_SAMPLE_MS`: unset means 4 ms per sample; a value
/// that is not a whole number of milliseconds panics rather than
/// silently running at the default.
fn parse_sample_ms(raw: Option<&str>) -> u64 {
    let Some(raw) = raw else {
        return 4;
    };
    match raw.parse() {
        Ok(ms) => ms,
        Err(_) => panic!("{SAMPLE_MS_ENV}={raw:?} is not a whole number of milliseconds"),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A benchmark group; names report as `group/benchmark`.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    sample_size: u32,
}

impl Group<'_> {
    /// Overrides the number of samples (criterion-compatible knob).
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Runs one benchmark. The closure receives a [`Bencher`] and must
    /// call [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.harness.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            sample_target: self.harness.sample_target,
            sample_size: self.sample_size,
            stats: None,
        };
        f(&mut b);
        let stats = b.stats.expect("bench closure must call iter()");
        println!("{full}: {} / iter", fmt_ns(stats.median_ns));
        self.harness.results.push((full, stats));
        self
    }

    /// Criterion's parameterized variant; the input is passed through.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let input_ref = input;
        self.bench_function(id.name.clone(), move |b| f(b, input_ref))
    }

    /// Ends the group (no-op; exists for criterion API parity).
    pub fn finish(&mut self) {}
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    sample_target: Duration,
    sample_size: u32,
    stats: Option<Stats>,
}

impl Bencher {
    /// Measures `routine` in a tight loop.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        self.iter_batched(|| (), |()| routine());
    }

    /// Measures `routine` over fresh `setup` output per iteration; setup
    /// time and dropping what `routine` returns are excluded from the
    /// measurement. Each sample runs in timed chunks of at most
    /// [`BATCH_CAP`] iterations whose inputs are built before the chunk
    /// and whose outputs are dropped after it; the chunk times add up to
    /// the sample's.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate: grow the per-sample iteration count until one sample
        // costs ~sample_target (capped so slow benchmarks still finish).
        let mut iters: u64 = 1;
        loop {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            let once = start.elapsed();
            drop(output);
            if once * iters as u32 >= self.sample_target || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            let mut elapsed = Duration::ZERO;
            let mut left = iters;
            while left > 0 {
                // Build the chunk's inputs, and drop its outputs (a
                // returned rig's teardown), outside the timed span.
                let n = left.min(BATCH_CAP);
                let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
                let mut outputs: Vec<O> = Vec::with_capacity(inputs.len());
                let start = Instant::now();
                for input in inputs {
                    outputs.push(black_box(routine(input)));
                }
                elapsed += start.elapsed();
                drop(outputs);
                left -= n;
            }
            samples_ns.push(elapsed.as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        self.stats = Some(Stats {
            median_ns: samples_ns[samples_ns.len() / 2],
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("nonempty"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_micros(50),
            results: Vec::new(),
        };
        let mut g = h.benchmark_group("t");
        g.bench_function("spin", |b| {
            b.iter(|| {
                let mut x = 0u64;
                for i in 0..100 {
                    x = x.wrapping_add(i);
                }
                x
            })
        });
        g.finish();
        assert_eq!(h.results.len(), 1);
        let s = h.results[0].1;
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("nomatch".into()),
            sample_target: Duration::from_micros(10),
            results: Vec::new(),
        };
        h.benchmark_group("g").bench_function("x", |b| b.iter(|| 1));
        assert!(h.results.is_empty());
    }

    #[test]
    fn a_filter_that_matches_nothing_is_an_error() {
        let mut h = Harness {
            filter: Some("paging/".into()),
            sample_target: Duration::from_micros(10),
            results: Vec::new(),
        };
        h.benchmark_group("g").bench_function("x", |b| b.iter(|| 1));
        let err = h.report().expect_err("nothing ran");
        assert!(err.contains("\"paging/\""), "{err}");
        h.filter = Some("g/".into());
        h.benchmark_group("g").bench_function("x", |b| b.iter(|| 1));
        assert_eq!(h.report(), Ok(()));
    }

    thread_local! {
        /// Live [`Counted`] values on this thread, and their peak.
        static LIVE: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    }

    /// An input that counts itself while alive.
    struct Counted;

    impl Counted {
        fn new() -> Counted {
            LIVE.with(|c| {
                let (live, peak) = c.get();
                c.set((live + 1, peak.max(live + 1)));
            });
            Counted
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.with(|c| c.set((c.get().0 - 1, c.get().1)));
        }
    }

    #[test]
    fn batched_inputs_stay_under_the_cap() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_millis(5),
            results: Vec::new(),
        };
        let mut calls = 0u64;
        h.benchmark_group("g")
            .sample_size(5)
            .bench_function("counted", |b| {
                b.iter_batched(Counted::new, |input| {
                    calls += 1;
                    input
                })
            });
        assert!(
            calls > 5 * BATCH_CAP,
            "samples of {calls} calls fit one chunk"
        );
        let (live, peak) = LIVE.with(|c| c.get());
        assert_eq!(live, 0, "every input dropped");
        assert!(peak <= BATCH_CAP, "{peak} inputs alive at once");
    }

    #[test]
    fn batched_setup_excluded_from_iter_count() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_micros(20),
            results: Vec::new(),
        };
        h.benchmark_group("g")
            .bench_function("b", |b| b.iter_batched(|| vec![1u8; 16], |v| v.len()));
        assert_eq!(h.results.len(), 1);
    }

    /// An output whose drop takes at least 5 ms.
    struct SlowDrop;

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn dropping_outputs_is_not_timed() {
        let mut h = Harness {
            filter: None,
            sample_target: Duration::from_micros(20),
            results: Vec::new(),
        };
        h.benchmark_group("g")
            .sample_size(5)
            .bench_function("slow_drop", |b| {
                // 50 µs a call: one call fills a sample.
                b.iter_batched(
                    || (),
                    |()| {
                        std::thread::sleep(Duration::from_micros(50));
                        SlowDrop
                    },
                )
            });
        let s = h.results[0].1;
        assert!(s.median_ns < 2.5e6, "teardown was timed: {s:?}");
    }

    #[test]
    fn sample_ms_defaults_when_unset() {
        assert_eq!(parse_sample_ms(None), 4);
    }

    #[test]
    fn sample_ms_reads_a_valid_value() {
        assert_eq!(parse_sample_ms(Some("600")), 600);
    }

    #[test]
    #[should_panic(expected = "SEUSS_BENCH_SAMPLE_MS=\"4ms\"")]
    fn sample_ms_rejects_a_malformed_value() {
        parse_sample_ms(Some("4ms"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
    }
}
