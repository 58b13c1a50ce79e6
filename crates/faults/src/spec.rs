//! Text specs for fault plans (the `--fault-plan` CLI surface).
//!
//! A spec is a comma-separated list of entries:
//!
//! | entry | fault |
//! |---|---|
//! | `crash@T+R` | node crash at `T`, reboot after `R` |
//! | `loss@T+S:P` | packet loss window at `T`, span `S`, probability `P` |
//! | `mem@T+S:F` | memory pressure at `T`, span `S`, `F` frames withheld |
//! | `straggler@T+S:CxF` | core `C` slowed by factor `F` at `T`, span `S` |
//! | `corrupt@T:FN` | snapshot of function `FN` corrupted at `T` |
//! | `devread@T+S` | snapshot-tier device reads fail at `T`, span `S` |
//!
//! Durations are integers with a unit suffix (`ns`, `us`, `ms`, `s`).
//! An instant `T` may instead be `?D` — uniform random in `[0, D)`,
//! drawn from the dedicated plan-compilation RNG stream so the same
//! `(spec, seed)` always compiles to the identical plan.

use simcore::{stream_seed, SimDuration, SimRng, SimTime};

use crate::plan::{FaultEvent, FaultKind, FaultPlan};
use crate::FAULT_PLAN_STREAM;

/// A fault-plan spec failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending entry (or fragment).
    pub(crate) entry: String,
    /// What was wrong with it.
    pub(crate) reason: &'static str,
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad fault spec `{}`: {}", self.entry, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn err(entry: &str, reason: &'static str) -> SpecError {
    SpecError {
        entry: entry.to_string(),
        reason,
    }
}

/// Parses a duration literal: an unsigned integer with a unit suffix.
fn parse_duration(s: &str) -> Option<SimDuration> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        return None;
    };
    let n: u64 = digits.parse().ok()?;
    Some(SimDuration::from_nanos(n.saturating_mul(mul)))
}

/// Parses an instant token: a duration literal, or `?D` for a uniform
/// random instant in `[0, D)` drawn from `rng`.
fn parse_instant(s: &str, rng: &mut SimRng, entry: &str) -> Result<SimTime, SpecError> {
    if let Some(bound) = s.strip_prefix('?') {
        let d = parse_duration(bound).ok_or_else(|| err(entry, "bad random-instant bound"))?;
        if d == SimDuration::ZERO {
            return Err(err(entry, "random-instant bound must be positive"));
        }
        return Ok(SimTime::from_nanos(rng.next_below(d.as_nanos())));
    }
    parse_duration(s)
        .map(|d| SimTime::ZERO + d)
        .ok_or_else(|| err(entry, "bad instant"))
}

/// Compiles a spec string into a [`FaultPlan`].
///
/// Randomized placements (`?D` instants) draw from
/// `SimRng::new(stream_seed(seed, FAULT_PLAN_STREAM))` in entry order,
/// so compilation is a pure function of `(spec, seed)`. An empty or
/// whitespace-only spec compiles to [`FaultPlan::none`].
pub fn compile(spec: &str, seed: u64) -> Result<FaultPlan, SpecError> {
    let mut rng = SimRng::new(stream_seed(seed, FAULT_PLAN_STREAM));
    let mut events = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, rest) = entry
            .split_once('@')
            .ok_or_else(|| err(entry, "missing `@instant`"))?;
        match name {
            "crash" => {
                let (at, reboot) = rest
                    .split_once('+')
                    .ok_or_else(|| err(entry, "crash needs `@T+reboot`"))?;
                let at = parse_instant(at, &mut rng, entry)?;
                let reboot =
                    parse_duration(reboot).ok_or_else(|| err(entry, "bad reboot duration"))?;
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::NodeCrash { reboot },
                });
                continue;
            }
            "loss" | "mem" | "straggler" => {
                let (at, rest) = rest
                    .split_once('+')
                    .ok_or_else(|| err(entry, "windowed fault needs `@T+span:arg`"))?;
                let (span, arg) = rest
                    .split_once(':')
                    .ok_or_else(|| err(entry, "windowed fault needs `span:arg`"))?;
                let at = parse_instant(at, &mut rng, entry)?;
                let span = parse_duration(span).ok_or_else(|| err(entry, "bad span"))?;
                let kind = match name {
                    "loss" => {
                        let prob: f64 = arg.parse().map_err(|_| err(entry, "bad probability"))?;
                        if !(0.0..=1.0).contains(&prob) {
                            return Err(err(entry, "probability must be in [0, 1]"));
                        }
                        FaultKind::PacketLoss { prob, span }
                    }
                    "mem" => {
                        let frames: u64 = arg.parse().map_err(|_| err(entry, "bad frame count"))?;
                        FaultKind::MemPressure { frames, span }
                    }
                    _ => {
                        let (core, factor) = arg
                            .split_once('x')
                            .ok_or_else(|| err(entry, "straggler needs `core x factor`"))?;
                        let core: u16 = core.parse().map_err(|_| err(entry, "bad core index"))?;
                        let factor: f64 = factor
                            .parse()
                            .map_err(|_| err(entry, "bad slowdown factor"))?;
                        if !(factor.is_finite() && factor >= 1.0) {
                            return Err(err(entry, "slowdown factor must be >= 1.0"));
                        }
                        FaultKind::StragglerCore { core, factor, span }
                    }
                };
                events.push(FaultEvent { at, kind });
                continue;
            }
            "devread" => {
                let (at, span) = rest
                    .split_once('+')
                    .ok_or_else(|| err(entry, "devread needs `@T+span`"))?;
                let at = parse_instant(at, &mut rng, entry)?;
                let span = parse_duration(span).ok_or_else(|| err(entry, "bad span"))?;
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::DeviceReadError { span },
                });
                continue;
            }
            "corrupt" => {
                let (at, fn_id) = rest
                    .split_once(':')
                    .ok_or_else(|| err(entry, "corrupt needs `@T:fn_id`"))?;
                let at = parse_instant(at, &mut rng, entry)?;
                let fn_id: u64 = fn_id.parse().map_err(|_| err(entry, "bad fn id"))?;
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::SnapshotCorruption { fn_id },
                });
                continue;
            }
            _ => return Err(err(entry, "unknown fault kind")),
        }
    }
    Ok(FaultPlan::from_events(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_none() {
        assert_eq!(compile("", 1).unwrap(), FaultPlan::none());
        assert_eq!(compile("  , ,", 1).unwrap(), FaultPlan::none());
    }

    #[test]
    fn full_grammar_round_trip() {
        let p = compile(
            "crash@10s+500ms, loss@5s+3s:0.3, mem@8s+2s:4096, straggler@4s+10s:3x2.5, corrupt@6s:17, devread@7s+2s",
            42,
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        let kinds: Vec<_> = p.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::NodeCrash {
            reboot: SimDuration::from_millis(500)
        }));
        assert!(kinds.contains(&FaultKind::PacketLoss {
            prob: 0.3,
            span: SimDuration::from_secs(3)
        }));
        assert!(kinds.contains(&FaultKind::MemPressure {
            frames: 4096,
            span: SimDuration::from_secs(2)
        }));
        assert!(kinds.contains(&FaultKind::StragglerCore {
            core: 3,
            factor: 2.5,
            span: SimDuration::from_secs(10)
        }));
        assert!(kinds.contains(&FaultKind::SnapshotCorruption { fn_id: 17 }));
        assert!(kinds.contains(&FaultKind::DeviceReadError {
            span: SimDuration::from_secs(2)
        }));
        // Sorted by instant.
        let instants: Vec<_> = p.events().iter().map(|e| e.at).collect();
        let mut sorted = instants.clone();
        sorted.sort();
        assert_eq!(instants, sorted);
    }

    #[test]
    fn random_placement_is_seed_deterministic() {
        let spec = "crash@?60s+500ms, loss@?30s+2s:0.5";
        let a = compile(spec, 7).unwrap();
        let b = compile(spec, 7).unwrap();
        assert_eq!(a, b, "same (spec, seed) => identical plan");
        let c = compile(spec, 8).unwrap();
        assert_ne!(a, c, "different seed moves ?-placed events");
        for e in a.events() {
            assert!(e.at < SimTime::from_secs(60));
        }
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "crash@10s",             // missing reboot
            "loss@5s+3s",            // missing probability
            "loss@5s+3s:1.5",        // probability out of range
            "straggler@1s+1s:3",     // missing factor
            "straggler@1s+1s:3x0.5", // factor < 1
            "corrupt@5s",            // missing fn id
            "devread@5s",            // missing span
            "flood@1s+1s:9",         // unknown kind
            "crash@?0s+1ms",         // empty random bound
            "crash@10+1ms",          // missing unit
        ] {
            assert!(compile(bad, 1).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn duration_units_parse() {
        assert_eq!(parse_duration("5ns"), Some(SimDuration::from_nanos(5)));
        assert_eq!(parse_duration("5us"), Some(SimDuration::from_micros(5)));
        assert_eq!(parse_duration("5ms"), Some(SimDuration::from_millis(5)));
        assert_eq!(parse_duration("5s"), Some(SimDuration::from_secs(5)));
        assert_eq!(parse_duration("5"), None);
        assert_eq!(parse_duration("-5s"), None);
    }
}
