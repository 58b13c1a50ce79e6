//! `seuss-platform` — an OpenWhisk-like FaaS control plane over either a
//! SEUSS OS compute node or a Linux (Docker) compute node.
//!
//! The platform is a discrete-event simulation (`simcore`) of the §7
//! testbed: an API front end and controller (fixed control-plane
//! latency), a message-bus hop, the backend compute node with 16 worker
//! cores, the external HTTP endpoint that IO-bound functions call, the
//! SEUSS shim process (its +8 ms hop and single-TCP creation bottleneck),
//! and OpenWhisk behaviours that matter to the results: the stemcell
//! container pool, LRU container eviction, the 60 s invocation timeout,
//! and error accounting.
//!
//! [`cluster::Cluster`] is the simulation world. Load is described by a
//! [`spec::WorkloadSpec`] — a closed-loop worker pool pulling from a
//! shared precomputed request order (optionally rate-throttled) plus
//! open-loop scheduled arrivals (bursts) — and the run produces
//! [`record::RequestRecord`]s for analysis.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cluster;
mod cores;
mod distributed;
mod record;
mod shard;
mod spec;

pub use cluster::{run_trial, BackendKind, Cluster, ClusterConfig, TrialOutput};
pub use distributed::{DrPath, DrSeussCluster};
pub use record::{records_jsonl, RequestRecord, RequestStatus, ServedBy, TrialAnalysis};
pub use shard::partition_workload;
pub use spec::{FnKind, FnSpec, Registry, WorkloadSpec};
