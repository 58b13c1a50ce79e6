//! Argument parsing for the `reproduce` command.
//!
//! Each [`Experiment`](crate::Experiment) spells its command line as one
//! spec string: `name=default` for a numeric positional, a bare `name`
//! for an optional output path, and the flags it reads from this family:
//!
//! - `--fault-plan <spec>` / `--fault-seed N` — fault schedule (see
//!   [`seuss::faults::spec`] for the grammar);
//! - `--store-blocks N` — storage-tier device capacity in blocks.
//!
//! Every experiment also takes `--workers N` / `-j N` (fallback: the
//! [`WORKERS_ENV`] environment variable, then [`DEFAULT_WORKERS`]):
//! worker count is execution speed only, and artifacts are
//! byte-identical at every value. Flags take their value as `--flag v`
//! or `--flag=v`. A flag the experiment does not read, a positional past
//! its spec, a malformed value — in a flag, in a positional or in
//! [`WORKERS_ENV`] — and a numeric positional of 0 are usage errors:
//! `Err` naming the argument, which `reproduce` reports with exit
//! status 2. Every numeric positional is a count, size or period, so
//! none means anything at 0.

use std::num::NonZeroU32;

use seuss::faults::{spec, FaultPlan};

/// Environment variable supplying the worker-thread count when no
/// `--workers` flag is given.
pub const WORKERS_ENV: &str = "SEUSS_EXEC_WORKERS";

/// Worker threads when neither `--workers` nor [`WORKERS_ENV`] is given.
pub const DEFAULT_WORKERS: usize = 4;

/// `--fault-seed` when the flag is absent: the burst trials' own seed,
/// so `?`-randomized instants reproduce.
const DEFAULT_FAULT_SEED: u64 = 42;

/// The validated arguments of one experiment run (worker count aside).
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Positional values with defaults filled in.
    positionals: Vec<String>,
    /// `--fault-plan` as given, if given.
    pub(crate) fault_spec: Option<String>,
    /// `--fault-seed`, else the burst trials' seed.
    pub(crate) fault_seed: u64,
    /// `--fault-plan` compiled under `fault_seed`; without the flag,
    /// [`FaultPlan::none`], the fault-free fast path.
    pub(crate) fault_plan: FaultPlan,
    /// `--store-blocks`, if given.
    pub(crate) store_blocks: Option<u64>,
}

fn invalid(source: &str, value: &str, why: &str) -> String {
    format!("invalid {source} {value:?}: {why}")
}

fn number<T: std::str::FromStr>(source: &str, value: &str, why: &str) -> Result<T, String> {
    value.parse().map_err(|_| invalid(source, value, why))
}

/// Parses `argv` (no program or experiment name) against an experiment's
/// command-line `spec` (see the module docs). `env_workers` is the value
/// of [`WORKERS_ENV`], if set; `--workers` overrides it. Returns the
/// arguments and the worker count (at least 1), or a usage error.
pub fn parse(
    argv: &[String],
    spec: &str,
    env_workers: Option<&str>,
) -> Result<(Args, usize), String> {
    let (flags, params): (Vec<&str>, Vec<&str>) =
        spec.split_whitespace().partition(|w| w.starts_with("--"));
    let mut args = Args {
        positionals: Vec::new(),
        fault_spec: None,
        fault_seed: DEFAULT_FAULT_SEED,
        fault_plan: FaultPlan::none(),
        store_blocks: None,
    };
    let mut workers = None;
    let mut given = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            given.push(arg.as_str());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let name = if name == "-j" { "--workers" } else { name };
        if name != "--workers" && !flags.contains(&name) {
            return Err(format!(
                "unexpected flag {arg:?}: this experiment does not read it"
            ));
        }
        let value = inline
            .or_else(|| it.next().cloned())
            .ok_or_else(|| format!("{name} needs a value"))?;
        match name {
            "--workers" => workers = Some(number(name, &value, "expected a thread count")?),
            "--fault-plan" => args.fault_spec = Some(value),
            "--fault-seed" => args.fault_seed = number(name, &value, "expected a seed")?,
            "--store-blocks" => {
                args.store_blocks = Some(number(name, &value, "expected a block count")?)
            }
            _ => return Err(format!("{name} is declared but not a known flag")),
        }
    }

    if let Some(extra) = given.get(params.len()) {
        let takes = if params.is_empty() {
            "no positional argument".to_string()
        } else {
            params.join(" ")
        };
        return Err(format!(
            "unexpected argument {extra:?}: this experiment takes {takes}"
        ));
    }
    for (i, param) in params.iter().enumerate() {
        let (name, default) = match param.split_once('=') {
            Some((name, default)) => (name, Some(default)),
            None => (*param, None),
        };
        let Some(value) = given.get(i).copied().or(default) else {
            break;
        };
        if default.is_some() {
            number::<NonZeroU32>(name, value, "expected a whole number from 1 to 2^32 - 1")?;
        }
        args.positionals.push(value.to_string());
    }

    if let Some(s) = &args.fault_spec {
        args.fault_plan = spec::compile(s, args.fault_seed)
            .map_err(|e| invalid("--fault-plan", s, &e.to_string()))?;
    }
    let workers = match (workers, env_workers) {
        (Some(w), _) => w,
        (None, Some(v)) => number(WORKERS_ENV, v.trim(), "expected a thread count")?,
        (None, None) => DEFAULT_WORKERS,
    };
    Ok((args, workers.max(1)))
}

impl Args {
    /// Numeric positional `i` ([`parse`] validated it).
    pub(crate) fn num<T: From<u32>>(&self, i: usize) -> T {
        T::from(
            self.positionals[i]
                .parse::<u32>()
                .expect("validated by parse"),
        )
    }

    /// Positional `i`, if given or defaulted: how an experiment reads an
    /// optional output path.
    pub(crate) fn get(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn try_parse(args: &[&str], env: Option<&str>) -> Result<(Args, usize), String> {
        const SPEC: &str = "size=16 rounds=3 out --fault-plan --fault-seed --store-blocks";
        parse(&v(args), SPEC, env)
    }

    fn parse_ok(args: &[&str]) -> Args {
        try_parse(args, None).expect("valid arguments").0
    }

    fn workers(args: &[&str], env: Option<&str>) -> usize {
        try_parse(args, env).expect("valid arguments").1
    }

    #[test]
    fn parses_every_flag_spelling() {
        assert_eq!(workers(&["--workers", "4"], None), 4);
        assert_eq!(workers(&["--workers=8"], None), 8);
        assert_eq!(workers(&["-j", "2"], None), 2);
        assert_eq!(workers(&["64", "--workers", "3"], None), 3);
        assert_eq!(workers(&["64"], None), DEFAULT_WORKERS);
        assert_eq!(workers(&["--workers", "0"], None), 1, "clamped to 1");
    }

    #[test]
    fn env_workers_apply_without_a_flag_and_the_flag_wins() {
        assert_eq!(workers(&["64"], Some("3")), 3);
        assert_eq!(workers(&[], Some(" 4\n")), 4);
        let (a, w) = try_parse(&["--workers", "2", "64"], Some("8")).unwrap();
        assert_eq!(w, 2);
        assert_eq!(a.num::<u64>(0), 64);
        assert_eq!(workers(&["-j=6"], Some("8")), 6);
    }

    #[test]
    fn stripping_preserves_positionals() {
        let a = parse_ok(&["64", "--workers", "4", "5", "out.csv"]);
        assert_eq!((a.num::<u64>(0), a.num::<u64>(1)), (64, 5));
        assert_eq!(a.get(2), Some("out.csv"));
        assert_eq!(parse_ok(&["--workers=4", "64"]).num::<u64>(0), 64);
        assert_eq!(parse_ok(&["-j", "2"]).get(2), None);
    }

    #[test]
    fn parses_fault_flags_in_every_spelling() {
        assert_eq!(
            parse_ok(&["--fault-plan", "crash@1s+2s"]).fault_spec,
            Some("crash@1s+2s".to_string())
        );
        assert_eq!(
            parse_ok(&["64", "--fault-plan=loss@1s+2s:0.5"]).fault_spec,
            Some("loss@1s+2s:0.5".to_string())
        );
        assert_eq!(parse_ok(&["64"]).fault_spec, None);
        assert!(try_parse(&["--fault-plan"], None)
            .unwrap_err()
            .contains("--fault-plan needs a value"));
        assert!(try_parse(&["--fault-plan", "crash@"], None)
            .unwrap_err()
            .contains("invalid --fault-plan"));

        assert_eq!(parse_ok(&["--fault-seed", "7"]).fault_seed, 7);
        assert_eq!(parse_ok(&["--fault-seed=99"]).fault_seed, 99);
        assert_eq!(parse_ok(&["64"]).fault_seed, DEFAULT_FAULT_SEED);
    }

    #[test]
    fn stripping_removes_fault_flags_and_keeps_positionals() {
        let a = parse_ok(&["64", "--fault-plan", "crash@1s+2s", "5", "--fault-seed=7"]);
        assert_eq!((a.num::<u64>(0), a.num::<u64>(1)), (64, 5));
        assert_eq!(a.fault_plan.len(), 1);
        assert_eq!(
            parse_ok(&["--fault-plan=crash@1s+2s", "--fault-seed", "7"]).num::<u64>(0),
            16
        );
        // A flag that merely shares a prefix with a known one is unknown.
        assert!(try_parse(&["--fault-planner", "x"], None)
            .unwrap_err()
            .contains("\"--fault-planner\""));
    }

    #[test]
    fn fault_spec_and_seed_compose_with_workers_flags() {
        let (a, w) = try_parse(&["8", "--workers", "4", "--fault-plan=crash@1s+2s"], None).unwrap();
        assert_eq!(w, 4);
        assert_eq!(a.fault_spec, Some("crash@1s+2s".to_string()));
        assert_eq!(a.num::<u64>(0), 8);
        assert!(a.fault_plan.len() == 1);
        assert!(parse_ok(&["8"]).fault_plan.is_empty());
    }

    #[test]
    fn positionals_parse_after_flags_or_fall_back_to_the_default() {
        let a = parse_ok(&["--workers", "2", "64"]);
        assert_eq!(a.num::<u64>(0), 64);
        assert_eq!(a.num::<u32>(1), 3);
        assert_eq!(a.get(2), None);
        assert!(try_parse(&["5000000000"], None)
            .unwrap_err()
            .contains("invalid size"));
    }

    #[test]
    fn store_blocks_is_applied_and_stripped() {
        assert_eq!(parse_ok(&["64"]).store_blocks, None);
        let a = parse_ok(&["--store-blocks", "512", "8"]);
        assert_eq!(a.store_blocks, Some(512));
        assert_eq!(a.num::<u64>(0), 8);
        let b = parse_ok(&["8", "--store-blocks=512", "7"]);
        assert_eq!(b.store_blocks, Some(512));
        assert_eq!((b.num::<u64>(0), b.num::<u64>(1)), (8, 7));
    }
}
