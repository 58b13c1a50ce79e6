//! Shared argv parsing for the bench binaries.
//!
//! Every driver accepts the same flag family, parsed once per process by
//! [`BenchArgs::parse`] instead of each binary re-scanning `argv`:
//!
//! - `--workers N` / `-j N` — OS threads for the experiment sweep
//!   (fallback: the [`WORKERS_ENV`] environment variable). Worker
//!   count is execution speed only — results are byte-identical at
//!   every value (see `seuss-exec`).
//! - `--fault-plan <spec>` / `--fault-seed N` — fault schedule (see
//!   [`seuss::faults::spec`] for the grammar).
//! - `--store-blocks N` — storage-tier device capacity in blocks, for
//!   the binaries that run a tier (`figtier`).
//!
//! All flags (and their values) are stripped from
//! [`BenchArgs::positionals`], so the binaries' positional arguments
//! keep working unchanged. Malformed values — in a flag, in a positional
//! argument, or in [`WORKERS_ENV`] — print a usage error naming their
//! source and exit 2.

use std::str::FromStr;

use seuss::faults::{spec, FaultPlan};

/// Environment variable supplying the worker-thread count when no
/// `--workers` flag is given. Execution speed only: artifacts are
/// byte-identical at every value.
pub const WORKERS_ENV: &str = "SEUSS_EXEC_WORKERS";

/// Every shared bench flag, parsed once.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Worker-thread count (flag, else env, else the driver's default;
    /// always at least 1).
    pub workers: usize,
    /// Raw `--fault-plan` spec string, if given.
    pub fault_spec: Option<String>,
    /// `--fault-seed` value, if given.
    pub fault_seed: Option<u64>,
    /// `--store-blocks` value, if given.
    pub store_blocks: Option<u64>,
    /// The arguments left over once every flag is stripped.
    pub positionals: Vec<String>,
}

/// A flag value: `--flag v` or `--flag=v`.
fn valued(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// The flags that take a value — the strip list for positionals.
const VALUED: &[&str] = &[
    "--workers",
    "-j",
    "--fault-plan",
    "--fault-seed",
    "--store-blocks",
];

fn strip_flags(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if VALUED.contains(&a.as_str()) {
            skip_value = true;
            continue;
        }
        if VALUED
            .iter()
            .any(|f| a.len() > f.len() && a.starts_with(f) && a.as_bytes()[f.len()] == b'=')
        {
            continue;
        }
        out.push(a.clone());
    }
    out
}

/// Prints a usage error naming where the bad value came from, and exits 2.
fn bad_value(source: &str, value: &str, why: &str) -> ! {
    eprintln!("invalid {source} {value:?}: {why}");
    std::process::exit(2);
}

/// Numeric positional argument `index` of `args`, or `default` when
/// absent. A malformed value prints a usage error naming `name` and
/// exits 2.
pub fn positional<T: FromStr>(args: &[String], index: usize, name: &str, default: T) -> T {
    match args.get(index) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bad_value(name, v, "expected a number")),
    }
}

impl BenchArgs {
    /// Parses a raw argument list (no program name); `env_workers` is the
    /// value of [`WORKERS_ENV`], if set, which `--workers` overrides.
    /// Malformed values print a usage error and exit 2.
    pub fn from_args(args: &[String], env_workers: Option<&str>, default_workers: usize) -> Self {
        let workers = match valued(args, "--workers").or_else(|| valued(args, "-j")) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| bad_value("--workers", &v, "expected a thread count")),
            None => match env_workers {
                Some(v) => v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| bad_value(WORKERS_ENV, v, "expected a thread count")),
                None => default_workers,
            },
        };
        let fault_seed = valued(args, "--fault-seed").map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad_value("--fault-seed", &v, "expected an integer seed"))
        });
        let store_blocks = valued(args, "--store-blocks").map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad_value("--store-blocks", &v, "expected a block count"))
        });
        BenchArgs {
            workers: workers.max(1),
            fault_spec: valued(args, "--fault-plan"),
            fault_seed,
            store_blocks,
            positionals: strip_flags(args),
        }
    }

    /// Numeric positional argument `index` once flags are stripped, or
    /// `default` when absent; see [`positional`].
    pub fn positional<T: FromStr>(&self, index: usize, name: &str, default: T) -> T {
        positional(&self.positionals, index, name, default)
    }

    /// Parses the process argv and [`WORKERS_ENV`].
    pub fn parse(default_workers: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env_workers = std::env::var(WORKERS_ENV).ok();
        BenchArgs::from_args(&args, env_workers.as_deref(), default_workers)
    }

    /// The fault schedule: `--fault-plan` compiled under `--fault-seed`
    /// (default `default_seed`, which should be the trial seed so
    /// `?`-randomized instants reproduce). No flag means
    /// [`FaultPlan::none`] — the fault-free fast path. A malformed spec
    /// prints the parse error and exits 2.
    pub fn fault_plan(&self, default_seed: u64) -> FaultPlan {
        let seed = self.fault_seed.unwrap_or(default_seed);
        match &self.fault_spec {
            None => FaultPlan::none(),
            Some(s) => match spec::compile(s, seed) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("invalid --fault-plan {s:?}: {e}");
                    std::process::exit(2);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(&v(args), None, 1)
    }

    #[test]
    fn parses_every_flag_spelling() {
        assert_eq!(parse(&["--workers", "4"]).workers, 4);
        assert_eq!(parse(&["--workers=8"]).workers, 8);
        assert_eq!(parse(&["-j", "2"]).workers, 2);
        assert_eq!(parse(&["64", "--workers", "3"]).workers, 3);
        assert_eq!(BenchArgs::from_args(&v(&["64"]), None, 5).workers, 5);
        assert_eq!(parse(&["--workers", "0"]).workers, 1, "clamped to 1");
    }

    #[test]
    fn env_workers_apply_without_a_flag_and_the_flag_wins() {
        assert_eq!(BenchArgs::from_args(&v(&["64"]), Some("3"), 5).workers, 3);
        assert_eq!(BenchArgs::from_args(&v(&[]), Some(" 4\n"), 1).workers, 4);
        let a = BenchArgs::from_args(&v(&["--workers", "2", "64"]), Some("8"), 5);
        assert_eq!(a.workers, 2);
        assert_eq!(a.positionals, v(&["64"]));
        assert_eq!(BenchArgs::from_args(&v(&["-j=6"]), Some("8"), 5).workers, 6);
    }

    #[test]
    fn stripping_preserves_positionals() {
        assert_eq!(
            parse(&["64", "--workers", "4", "out.csv"]).positionals,
            v(&["64", "out.csv"])
        );
        assert_eq!(parse(&["--workers=4", "64"]).positionals, v(&["64"]));
        assert_eq!(parse(&["-j", "2"]).positionals, Vec::<String>::new());
        assert_eq!(parse(&["a", "b"]).positionals, v(&["a", "b"]));
    }

    #[test]
    fn parses_fault_flags_in_every_spelling() {
        assert_eq!(
            parse(&["--fault-plan", "crash@1s+2s"]).fault_spec,
            Some("crash@1s+2s".to_string())
        );
        assert_eq!(
            parse(&["64", "--fault-plan=loss@1s+2s:0.5"]).fault_spec,
            Some("loss@1s+2s:0.5".to_string())
        );
        assert_eq!(parse(&["64"]).fault_spec, None);
        assert_eq!(parse(&["--fault-plan"]).fault_spec, None);

        assert_eq!(parse(&["--fault-seed", "7"]).fault_seed, Some(7));
        assert_eq!(parse(&["--fault-seed=99"]).fault_seed, Some(99));
        assert_eq!(parse(&["64"]).fault_seed, None);
    }

    #[test]
    fn stripping_removes_fault_flags_and_keeps_positionals() {
        assert_eq!(
            parse(&[
                "64",
                "--fault-plan",
                "crash@1s+2s",
                "out.csv",
                "--fault-seed=7",
            ])
            .positionals,
            v(&["64", "out.csv"])
        );
        assert_eq!(
            parse(&["--fault-plan=crash@1s+2s", "--fault-seed", "7"]).positionals,
            Vec::<String>::new()
        );
        // A flag-like positional that merely shares a prefix survives.
        assert_eq!(
            parse(&["--fault-planner", "x"]).positionals,
            v(&["--fault-planner", "x"])
        );
    }

    #[test]
    fn fault_spec_and_seed_compose_with_workers_flags() {
        let a = parse(&["8", "--workers", "4", "--fault-plan=crash@1s+2s", "f.csv"]);
        assert_eq!(a.workers, 4);
        assert_eq!(a.fault_spec, Some("crash@1s+2s".to_string()));
        assert_eq!(a.positionals, v(&["8", "f.csv"]));
    }

    #[test]
    fn positionals_parse_after_flags_or_fall_back_to_the_default() {
        let a = parse(&["--workers", "2", "64", "out.csv"]);
        assert_eq!(a.positional(0, "size", 16u64), 64);
        assert_eq!(a.positional(2, "rounds", 3u32), 3);
        assert_eq!(positional(&v(&["4"]), 0, "nodes", 1usize), 4);
    }

    #[test]
    fn store_blocks_is_applied_and_stripped() {
        assert_eq!(parse(&["64"]).store_blocks, None);
        let a = parse(&["--store-blocks", "512", "8"]);
        assert_eq!(a.store_blocks, Some(512));
        assert_eq!(a.positionals, v(&["8"]));
        let b = parse(&["8", "--store-blocks=512", "f.csv"]);
        assert_eq!(b.store_blocks, Some(512));
        assert_eq!(b.positionals, v(&["8", "f.csv"]));
    }
}
