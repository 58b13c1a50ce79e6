//! `seuss-faults` — deterministic fault injection for the SEUSS simulation.
//!
//! A [`FaultPlan`] is a time-sorted schedule of typed [`FaultKind`]
//! injections — node crashes, packet-loss windows, memory pressure,
//! straggler cores, snapshot corruption — that the platform layer replays
//! against its compute node at exact virtual instants. Plans are plain
//! data: the same plan against the same seed produces byte-identical
//! trials, including under `seuss-exec` sharding, because
//!
//! 1. any randomness used while *compiling* a plan (`?`-placed events)
//!    comes from a dedicated [`simcore::stream_seed`] stream
//!    ([`FAULT_PLAN_STREAM`]), never the workload stream; and
//! 2. any randomness used while *executing* a plan (per-packet loss
//!    draws) comes from a second dedicated stream
//!    ([`FAULT_EXEC_STREAM`]) that is only advanced while a loss window
//!    is active — an empty plan draws nothing and perturbs nothing.
//!
//! Resilience lives here too: [`RetryPolicy`] is a deterministic
//! exponential-backoff-with-jitter schedule (jitter is a pure hash of
//! `(seed, request, attempt)` — no shared RNG state). The platform
//! retries a failed request while the policy's attempts and budget allow
//! it, and records an error otherwise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod plan;
pub mod retry;
pub mod spec;

pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use retry::RetryPolicy;
pub use spec::SpecError;

/// RNG sub-stream used while compiling `?`-placed plan events.
pub const FAULT_PLAN_STREAM: u64 = 0xFA_0171;

/// RNG sub-stream used while executing a plan (per-packet loss draws).
pub const FAULT_EXEC_STREAM: u64 = 0xFA_0172;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_distinct_and_nonzero() {
        assert_ne!(FAULT_PLAN_STREAM, 0);
        assert_ne!(FAULT_EXEC_STREAM, 0);
        assert_ne!(FAULT_PLAN_STREAM, FAULT_EXEC_STREAM);
    }
}
