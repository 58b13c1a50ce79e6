//! Command-line parsing. Every flag takes exactly one value; unknown
//! flags, repeated flags, missing values and malformed numbers are errors,
//! never silently ignored.

use crate::workloads::Workload;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Longest measurement window accepted, in seconds.
pub const MAX_SECONDS: u64 = 600;

/// A parsed command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measurement window in host seconds.
    pub seconds: u64,
    /// `false`: end-to-end metrics, untraced. `true`: per-layer metrics.
    pub trace: bool,
}

pub const USAGE: &str = "usage: seuss-perfbench --workload <churn_uniform|hot_zipf|tier_pressure> \
[--seed <u64>] [--seconds <1..600>] [--trace <0|1>]";

/// Parses the arguments after the program name.
pub fn parse<I, S>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_string();
        let value = it
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?
            .as_ref()
            .to_string();
        let dup = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                dup(workload.is_some())?;
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                dup(seed.is_some())?;
                seed = Some(parse_u64(&flag, &value)?);
            }
            "--seconds" => {
                dup(seconds.is_some())?;
                let s = parse_u64(&flag, &value)?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds must be in 1..={MAX_SECONDS}, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                dup(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    // `u64::from_str` accepts a leading '+'; insist on plain digits.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "{flag}: expected a non-negative integer, got {value:?}"
        ));
    }
    value
        .parse()
        .map_err(|e| format!("{flag}: {value:?} is out of range ({e})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace())
    }

    #[test]
    fn full_command_line_parses() {
        let a = p("--workload hot_zipf --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::HotZipf,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let d = p("--workload tier_pressure").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload hot_zipf --seed",
            "--workload hot_zipf --seed -1",
            "--workload hot_zipf --seed +1",
            "--workload hot_zipf --seed 1.5",
            "--workload hot_zipf --seed 99999999999999999999999",
            "--workload hot_zipf --seconds 0",
            "--workload hot_zipf --seconds 601",
            "--workload hot_zipf --trace 2",
            "--workload hot_zipf --trace yes",
            "--workload hot_zipf --workload hot_zipf",
            "--workload hot_zipf --seed 1 --seed 2",
            "--workload hot_zipf --verbose 1",
            "--workload hot_zipf extra",
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
