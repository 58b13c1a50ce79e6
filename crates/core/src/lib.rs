//! `seuss-core` — the SEUSS OS compute node.
//!
//! This crate assembles the mechanism crates into the system of §4/§6: a
//! multicore node that receives invocation requests and serves each over
//! one of three paths —
//!
//! * **cold**: deploy a UC from the base runtime snapshot, import and
//!   compile the function source, capture a function-specific snapshot,
//!   then run;
//! * **warm**: deploy a UC from the cached function snapshot and run;
//! * **hot**: reuse an idle, already-constructed UC.
//!
//! It owns the node-wide resources (frame pool, MMU, snapshot store,
//! image store), the two caches of §4 (function snapshots and idle UCs),
//! the trivial OOM daemon of §6 ("we reclaim idle UCs that do not
//! currently host a live invocation as soon as the available physical
//! memory drops below a pre-defined threshold"), the anticipatory
//! optimizations of §3/§7, and the Linux-side shim process model of §6.
//!
//! Everything here is synchronous mechanism + cost reporting; the
//! discrete-event scheduling (cores, queueing, blocking IO) lives in
//! `seuss-platform`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod caches;
mod config;
mod cost;
mod node;
mod shim;

pub use config::{AoLevel, SeussConfig};
pub use node::{FnId, Invocation, IoToken, NodeError, NodeStats, PathCosts, PathKind, SeussNode};
pub use shim::ShimProcess;

pub use seuss_trace::{Phase, Tracer};
