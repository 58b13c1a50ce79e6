//! The property runner: seeded case loop, failure shrinking, and replay.
//!
//! Every case derives its own 64-bit seed from the property name and the
//! case index, so a failure report can name the exact seed that produced
//! it. Setting `SEUSS_CHECK_SEED=<seed>` re-runs only that case — the
//! generator replays byte-identically — which turns any CI failure into a
//! local one-liner.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::gen::{Gen, Source};

/// Environment variable that replays one exact failing case.
pub(crate) const SEED_ENV: &str = "SEUSS_CHECK_SEED";
/// Environment variable that overrides the per-property case count.
pub(crate) const CASES_ENV: &str = "SEUSS_CHECK_CASES";

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to run (overridden by `SEUSS_CHECK_CASES`).
    pub(crate) cases: u32,
}

/// Cap on accepted shrink steps before reporting what we have.
const MAX_SHRINK_STEPS: u32 = 4096;

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: parse_cases(std::env::var(CASES_ENV).ok().as_deref()),
        }
    }
}

/// Reads `SEUSS_CHECK_CASES`: unset means 64; anything but a positive
/// integer panics, since zero cases would "pass" every property.
fn parse_cases(raw: Option<&str>) -> u32 {
    let Some(raw) = raw else {
        return 64;
    };
    match raw.parse() {
        Ok(n) if n > 0 => n,
        _ => panic!("{CASES_ENV}={raw:?} is not a positive case count"),
    }
}

/// Reads `SEUSS_CHECK_SEED`: unset means no replay; a value that is not
/// a `u64` panics rather than silently running the random cases.
fn parse_seed(raw: Option<&str>) -> Option<u64> {
    let raw = raw?;
    match raw.parse() {
        Ok(seed) => Some(seed),
        Err(_) => panic!("{SEED_ENV}={raw:?} is not a u64 seed"),
    }
}

impl Config {
    /// A config running exactly `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

/// A failed property, fully described: the seed to replay it, the raw
/// counterexample, and the shrunk one.
#[derive(Clone, Debug)]
pub struct Failure<T> {
    /// Property name.
    pub(crate) property: String,
    /// Seed that generated the original counterexample.
    pub seed: u64,
    /// 0-based index of the failing case.
    pub(crate) case: u32,
    /// The counterexample exactly as generated.
    pub original: T,
    /// The minimized counterexample after shrinking.
    pub minimized: T,
    /// Number of accepted (strictly-simplifying) shrink steps.
    pub shrink_steps: u32,
    /// The property's error message on the minimized value.
    pub(crate) message: String,
}

impl<T: std::fmt::Debug> Failure<T> {
    /// The human-facing report, including the replay incantation.
    pub fn report(&self) -> String {
        format!(
            "seuss-check: property '{}' failed (case {}, seed {})\n\
             \x20 replay: {}={} cargo test\n\
             \x20 original:  {:?}\n\
             \x20 minimized: {:?} ({} shrink steps)\n\
             \x20 error: {}",
            self.property,
            self.case,
            self.seed,
            SEED_ENV,
            self.seed,
            self.original,
            self.minimized,
            self.shrink_steps,
            self.message
        )
    }
}

/// FNV-1a, the stable name→seed hash (never touches the wall clock, so
/// the whole suite is hermetic and replayable by construction).
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derives the per-case seed from the property's base seed.
fn case_seed(base: u64, case: u32) -> u64 {
    // SplitMix64 finalizer over (base + golden-ratio stride) — cheap,
    // well-mixed, and documented in simcore::rng.
    let mut z = base.wrapping_add((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

// Shrinking re-runs the property dozens of times on values that panic;
// silence the default "thread panicked" spew for panics we catch.
thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `prop` once, converting both `Err` and panics into messages.
fn run_case<T, F>(prop: &F, value: &T) -> Result<(), String>
where
    F: Fn(&T) -> Result<(), String>,
{
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked with non-string payload".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Shrinks a failing case by editing its recorded draws. Every kept
/// edit makes the draws shortlex-smaller, so the reduction terminates.
struct Reducer<'a, G: Gen, F> {
    gen: &'a G,
    prop: &'a F,
    /// The source that generated the smallest failing case so far.
    best: Source,
    value: G::Value,
    message: String,
    steps: u32,
}

impl<G: Gen, F: Fn(&G::Value) -> Result<(), String>> Reducer<'_, G, F> {
    /// Replays `cand` and keeps it if what it draws is simpler and the
    /// property still fails on what it generates.
    fn try_draws(&mut self, cand: Vec<u64>) -> bool {
        let simpler = |c: &[u64]| (c.len(), c) < (self.best.drawn.len(), &self.best.drawn[..]);
        if self.steps >= MAX_SHRINK_STEPS || !simpler(&cand) {
            return false;
        }
        let mut src = Source::replay(cand);
        let value = self.gen.generate(&mut src);
        if !simpler(&src.drawn) {
            return false;
        }
        let Err(message) = run_case(self.prop, &value) else {
            return false;
        };
        (self.best, self.value, self.message) = (src, value, message);
        self.steps += 1;
        true
    }

    /// The best draws with `range` replaced by `with`.
    fn splice(&self, range: std::ops::Range<usize>, with: &[u64]) -> Vec<u64> {
        let d = &self.best.drawn;
        [&d[..range.start], with, &d[range.end..]].concat()
    }

    /// Runs the passes until none makes progress.
    fn reduce(&mut self) {
        let mut before = None;
        while before != Some(self.steps) {
            before = Some(self.steps);
            // Delete runs of adjacent vec elements, halving the run length.
            for k in halvings(self.best.spans.len()) {
                let mut i = 0;
                while let Some(run) = self.best.spans.get(i..i + k) {
                    let cand = self.splice(run[0].start..run[k - 1].end, &[]);
                    if !(adjacent(run) && self.try_draws(cand)) {
                        i += 1;
                    }
                }
            }
            // Zero aligned blocks of draws, halving the block size.
            for k in halvings(self.best.drawn.len()) {
                for i in (0..self.best.drawn.len()).step_by(k) {
                    let mut cand = self.best.drawn.clone();
                    cand.iter_mut().skip(i).take(k).for_each(|v| *v = 0);
                    self.try_draws(cand);
                }
            }
            // Lower each draw by binary search; the zero pass tried 0, so
            // `lo` starts as a value that passes.
            for i in 0..self.best.drawn.len() {
                let mut lo = 0;
                while let Some(&hi) = self.best.drawn.get(i).filter(|&&hi| lo + 1 < hi) {
                    let mut cand = self.best.drawn.clone();
                    cand[i] = lo + (hi - lo) / 2;
                    if !self.try_draws(cand) {
                        lo += (hi - lo) / 2;
                    }
                }
            }
            // Sort each run of adjacent vec elements by its draws.
            let mut i = 0;
            while i < self.best.spans.len() {
                let mut j = i + 1;
                while self.best.spans.get(i..=j).is_some_and(adjacent) {
                    j += 1;
                }
                let run = &self.best.spans[i..j];
                let mut parts: Vec<_> = run.iter().map(|s| &self.best.drawn[s.clone()]).collect();
                parts.sort();
                self.try_draws(self.splice(run[0].start..run[j - i - 1].end, &parts.concat()));
                i = j;
            }
        }
    }
}

/// `n`, `n / 2`, …, 1 (nothing for 0).
fn halvings(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(n).filter(|&k| k > 0), |&k| (k > 1).then_some(k / 2))
}

/// Whether each span ends where the next begins.
fn adjacent(run: &[std::ops::Range<usize>]) -> bool {
    run.windows(2).all(|w| w[0].end == w[1].start)
}

/// Runs the property with [`Config::default`]; panics with a replayable
/// report on failure. This is the entry point test code should use.
pub fn check<G, F>(name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    check_with(Config::default(), name, gen, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<G, F>(config: Config, name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    if let Some(failure) = run_check(config, name, gen, &prop) {
        panic!("{}", failure.report());
    }
}

/// The non-panicking core: returns the (shrunk) failure, if any. Exposed
/// so seuss-check can test its own failure path.
pub fn run_check<G, F>(config: Config, name: &str, gen: &G, prop: &F) -> Option<Failure<G::Value>>
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let replay = parse_seed(std::env::var(SEED_ENV).ok().as_deref());
    let base = fnv1a(name);
    let cases = if replay.is_some() { 1 } else { config.cases };

    for case in 0..cases {
        let seed = replay.unwrap_or_else(|| case_seed(base, case));
        let mut src = Source::fresh(seed);
        let original = gen.generate(&mut src);
        if let Err(message) = run_case(prop, &original) {
            let mut reducer = Reducer {
                gen,
                prop,
                best: src,
                value: original.clone(),
                message,
                steps: 0,
            };
            reducer.reduce();
            return Some(Failure {
                property: name.to_string(),
                seed,
                case,
                original,
                minimized: reducer.value,
                shrink_steps: reducer.steps,
                message: reducer.message,
            });
        }
    }
    None
}

/// Regenerates the case that `seed` names, exactly as a run that
/// reported that seed generated it.
pub fn replay_seed<G: Gen>(gen: &G, seed: u64) -> G::Value {
    gen.generate(&mut Source::fresh(seed))
}

/// Returns `Err` with a formatted message when the condition is false —
/// the property-body counterpart of `assert!`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        $crate::ensure!($cond, "condition failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality counterpart of [`ensure!`], showing both sides on failure.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {
        $crate::ensure_eq!($a, $b, "{} != {}", stringify!($a), stringify!($b))
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} ({:?} vs {:?})",
                format!($($fmt)+),
                a,
                b
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{range, vecs};

    #[test]
    fn passing_property_is_silent() {
        check("runner_pass", &range(0u64, 100), |&v| {
            ensure!(v <= 100, "bound violated: {v}");
            Ok(())
        });
    }

    #[test]
    fn deliberate_failure_minimizes_and_reports_seed() {
        // The classic shrinking demo: "no vector sums past 100" is false;
        // the minimal counterexample is a single element.
        let gen = vecs(range(0u64, 50), 0, 20);
        let f = run_check(
            Config::with_cases(256),
            "runner_shrink_demo",
            &gen,
            &|v: &Vec<u64>| {
                ensure!(
                    v.iter().sum::<u64>() <= 100,
                    "sum {}",
                    v.iter().sum::<u64>()
                );
                Ok(())
            },
        )
        .expect("property must fail");
        // Shrinking reached a local minimum: the counterexample still
        // fails, and every single element is load-bearing — dropping the
        // smallest would make the property pass again.
        let sum: u64 = f.minimized.iter().sum();
        let min = *f.minimized.iter().min().expect("nonempty");
        assert!(sum > 100, "must still fail: {:?}", f.minimized);
        assert!(
            sum - min <= 100,
            "not locally minimal, {:?} can lose an element",
            f.minimized
        );
        assert!(f.minimized.len() <= 5, "still oversized: {:?}", f.minimized);
        assert!(f.shrink_steps > 0);
        // The reported seed replays to the reported original.
        let replayed = replay_seed(&gen, f.seed);
        assert_eq!(replayed, f.original, "seed does not replay");
        let report = f.report();
        assert!(report.contains(SEED_ENV));
        assert!(report.contains(&f.seed.to_string()));
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let gen = range(0u64, 1000);
        let f = run_check(Config::with_cases(200), "runner_panic_demo", &gen, &|&v| {
            assert!(v < 10, "panicking on {v}");
            Ok(())
        })
        .expect("must fail");
        assert_eq!(f.minimized, 10, "minimal panicking value");
        assert!(f.message.contains("panic"));
    }

    #[test]
    fn integers_shrink_to_boundary() {
        let f = run_check(
            Config::with_cases(200),
            "runner_int_boundary",
            &range(0u64, 100_000),
            &|&v| {
                ensure!(v < 4_242, "too big: {v}");
                Ok(())
            },
        )
        .expect("must fail");
        assert_eq!(f.minimized, 4_242, "exact boundary found by binary search");
    }

    #[test]
    fn env_knobs_parse_when_well_formed() {
        assert_eq!(parse_cases(None), 64);
        assert_eq!(parse_cases(Some("7")), 7);
        assert_eq!(parse_seed(None), None);
        assert_eq!(parse_seed(Some("18446744073709551615")), Some(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "SEUSS_CHECK_CASES=\"lots\" is not a positive case count")]
    fn non_numeric_case_count_panics() {
        parse_cases(Some("lots"));
    }

    #[test]
    #[should_panic(expected = "SEUSS_CHECK_CASES=\"0\" is not a positive case count")]
    fn zero_case_count_panics() {
        parse_cases(Some("0"));
    }

    #[test]
    #[should_panic(expected = "SEUSS_CHECK_SEED=\"0xbeef\" is not a u64 seed")]
    fn non_numeric_seed_panics() {
        parse_seed(Some("0xbeef"));
    }

    #[test]
    fn case_seeds_are_stable() {
        // Hermeticity: the same property name yields the same seeds in
        // every build, forever. These constants are part of the contract.
        assert_eq!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("x"), 0));
        assert_ne!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("x"), 1));
        assert_ne!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("y"), 0));
    }
}
