//! `seuss-baseline` — the Linux-based isolation baselines of Table 3 and
//! the macro experiments: plain processes, Docker containers (with the
//! bridge-networking bottleneck), and Firecracker microVMs.
//!
//! Each engine models the *scaling laws the paper measured*, not merely
//! point values:
//!
//! * **Processes** — cheap creation with mild parallel contention; no
//!   page-level sharing beyond file-backed text, so ≈21 MiB resident per
//!   Node.js instance (4 200 instances in 88 GB).
//! * **Docker containers** — creation latency grows linearly with the
//!   number of live containers *and* with the number of concurrent
//!   creations (§7: 541 ms alone → ≈1.5 s past 1 000 live → multi-second
//!   under 16-way parallelism); every container attaches a veth endpoint
//!   to a shared Linux bridge (the `bridge` module), whose O(N²)
//!   broadcast load is what drops connections once the cache grows.
//! * **Firecracker microVMs** — a full guest-kernel boot (>3 s) before
//!   the container and runtime start, and ≈195 MiB per instance
//!   (450 in 88 GB).
//!
//! `seuss-platform` drives these engines from the discrete-event
//! simulation to reproduce Figures 4–8's Linux curves.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod bridge;
mod container;
mod microvm;
mod process;

pub use container::{Container, ContainerId, DockerEngine, DockerError};
pub use microvm::FirecrackerEngine;
pub use process::ProcessEngine;
