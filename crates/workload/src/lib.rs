//! `seuss-workload` — the FaaS load-generation benchmark (§7).
//!
//! "The benchmark works in trials, with each trial consisting of three
//! configuration parameters: invocation count (N), function set size (M),
//! and worker threads (C). Each trial consists of N invocations
//! distributed across a set of M functions, which are sent in a random
//! order (for repeatability, the send order is pre-computed and persisted
//! across trials)."
//!
//! [`trial::TrialParams`] builds exactly that; [`burst::BurstParams`]
//! builds the Figures 6–8 workload (a rate-throttled closed-loop
//! background stream of IO-bound functions plus periodic open-loop bursts
//! of a fresh CPU-bound function); [`report`] renders results as the
//! tables and series the paper plots.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod burst;
pub mod report;
mod trial;

pub use burst::BurstParams;
pub use report::burst_series_csv;
pub use trial::{TrialParams, ZipfTrial};
