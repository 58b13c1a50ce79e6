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
//! - `--store <lazy|eager|ws>`, `--store-blocks N`,
//!   `--store-reclaim <evict|demote>` — snapshot storage tier knobs
//!   (see `seuss::store`). No `--store` flag means no tier.
//!
//! All flags (and their values) are stripped from
//! [`BenchArgs::positionals`], so the binaries' positional arguments
//! keep working unchanged. Malformed values — in a flag or in
//! [`WORKERS_ENV`] — print a usage error and exit 2.

use seuss::faults::{spec, FaultPlan};
use seuss::store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig};

/// Environment variable supplying the worker-thread count when no
/// `--workers` flag is given. Execution speed only: artifacts are
/// byte-identical at every value.
pub const WORKERS_ENV: &str = "SEUSS_EXEC_WORKERS";

/// Storage-tier flags, already validated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreArgs {
    /// Restore policy from `--store`.
    pub policy: RestorePolicy,
    /// Device capacity from `--store-blocks` (default: NVMe's 4 GiB).
    pub capacity_blocks: u64,
    /// Reclaim mode from `--store-reclaim` (default: demote-coldest).
    pub reclaim: ReclaimMode,
}

impl StoreArgs {
    /// The `SeussConfig`-ready store configuration these flags select.
    pub fn to_config(self) -> StoreConfig {
        StoreConfig {
            device: DeviceConfig {
                capacity_blocks: self.capacity_blocks,
                ..DeviceConfig::nvme()
            },
            policy: self.policy,
            reclaim: self.reclaim,
        }
    }
}

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
    /// Storage-tier knobs, `None` without a `--store` flag.
    pub store: Option<StoreArgs>,
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
    "--store",
    "--store-blocks",
    "--store-reclaim",
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

fn bad_flag(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("invalid {flag} {value:?}: expected {expected}");
    std::process::exit(2);
}

impl BenchArgs {
    /// Parses a raw argument list (no program name); `env_workers` is the
    /// value of [`WORKERS_ENV`], if set, which `--workers` overrides.
    /// Malformed values print a usage error and exit 2.
    pub fn from_args(args: &[String], env_workers: Option<&str>, default_workers: usize) -> Self {
        let workers = match valued(args, "--workers").or_else(|| valued(args, "-j")) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| bad_flag("--workers", &v, "a thread count")),
            None => match env_workers {
                Some(v) => v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| bad_flag(WORKERS_ENV, v, "a thread count")),
                None => default_workers,
            },
        };
        let fault_seed = valued(args, "--fault-seed").map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad_flag("--fault-seed", &v, "an integer seed"))
        });
        let store = valued(args, "--store").map(|v| {
            let policy = match v.as_str() {
                "lazy" => RestorePolicy::LazyPaging,
                "eager" => RestorePolicy::EagerFull,
                "ws" => RestorePolicy::WorkingSetPrefetch,
                _ => bad_flag("--store", &v, "lazy, eager, or ws"),
            };
            let capacity_blocks = match valued(args, "--store-blocks") {
                Some(b) => b
                    .parse()
                    .unwrap_or_else(|_| bad_flag("--store-blocks", &b, "a block count")),
                None => DeviceConfig::nvme().capacity_blocks,
            };
            let reclaim = match valued(args, "--store-reclaim").as_deref() {
                None | Some("demote") => ReclaimMode::DemoteColdest,
                Some("evict") => ReclaimMode::Evict,
                Some(r) => bad_flag("--store-reclaim", r, "evict or demote"),
            };
            StoreArgs {
                policy,
                capacity_blocks,
                reclaim,
            }
        });
        BenchArgs {
            workers: workers.max(1),
            fault_spec: valued(args, "--fault-plan"),
            fault_seed,
            store,
            positionals: strip_flags(args),
        }
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

    /// The store configuration the `--store` flags select, if any.
    pub fn store_config(&self) -> Option<StoreConfig> {
        self.store.map(StoreArgs::to_config)
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
    fn store_flags_build_a_config() {
        assert_eq!(parse(&["64"]).store, None);
        assert_eq!(parse(&["64"]).store_config(), None);

        let a = parse(&["--store", "ws", "--store-blocks=4096", "64"]);
        let s = a.store.expect("store args");
        assert_eq!(s.policy, RestorePolicy::WorkingSetPrefetch);
        assert_eq!(s.capacity_blocks, 4096);
        assert_eq!(s.reclaim, ReclaimMode::DemoteColdest, "demote by default");
        let cfg = a.store_config().expect("config");
        assert_eq!(cfg.device.capacity_blocks, 4096);
        assert_eq!(
            cfg.device.read_latency,
            seuss::store::DeviceConfig::nvme().read_latency,
            "cost model stays NVMe"
        );
        assert_eq!(a.positionals, v(&["64"]));

        let b = parse(&["--store=lazy", "--store-reclaim", "evict"]);
        let s = b.store.expect("store args");
        assert_eq!(s.policy, RestorePolicy::LazyPaging);
        assert_eq!(s.reclaim, ReclaimMode::Evict);
        assert_eq!(
            s.capacity_blocks,
            seuss::store::DeviceConfig::nvme().capacity_blocks
        );
        assert_eq!(b.positionals, Vec::<String>::new());
    }

    #[test]
    fn store_knobs_without_store_flag_are_ignored() {
        // `--store-blocks` alone selects no tier, but is still stripped.
        let a = parse(&["--store-blocks", "512", "8"]);
        assert_eq!(a.store, None);
        assert_eq!(a.positionals, v(&["8"]));
    }
}
