//! `seuss-bench` — the experiment harness that regenerates every table
//! and figure of the paper's evaluation (§7).
//!
//! Each experiment is a function returning a typed result (so unit tests
//! can assert on the *shape* — orderings, ratios, crossovers) plus an
//! entry in [`EXPERIMENTS`], the registry the `reproduce` binary drives:
//! `reproduce list` names them, `reproduce run <name>` regenerates one,
//! and `reproduce check` regenerates every committed artifact under
//! `results/` on one and on N worker threads and requires both runs to
//! match the files byte for byte. Every experiment fans its independent
//! trials out through [`seuss_exec::ordered_parallel`]; only the wall
//! clock depends on the worker count.
//!
//! Micro-benchmarks of the underlying mechanisms live in `benches/`,
//! driven by the in-tree [`Harness`] — criterion's API surface
//! without its dependency tree, keeping the workspace offline-buildable.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cli;
mod dr_seuss;
mod experiment;
mod fig4;
mod fig5;
mod figburst;
mod figfault;
mod figtier;
mod render;
mod table1;
mod table2;
mod table3;
mod timing;
mod traced;

pub use experiment::{find, Artifact, Experiment, EXPERIMENTS};
pub use timing::{BenchmarkId, Harness};

use seuss::faults::{FaultPlan, RetryPolicy};
use seuss_platform::{BackendKind, ClusterConfig, TrialAnalysis};

/// The paper's SEUSS cluster with a node of `mem_mib` MiB.
fn paper_seuss_cluster(mem_mib: u64) -> seuss_platform::ClusterConfig {
    let node = seuss_core::SeussConfig::builder()
        .mem_mib(mem_mib)
        .build()
        .expect("valid paper SEUSS config");
    seuss_platform::ClusterConfig {
        backend: seuss_platform::BackendKind::Seuss(Box::new(node)),
        ..seuss_platform::ClusterConfig::seuss_paper()
    }
}

/// The burst-experiment cluster under `faults` and `retry`: the paper's
/// SEUSS cluster with a `mem_mib` MiB node, or the Linux node with the
/// 1 024-container cache and a 256-stemcell pool.
fn burst_cluster(
    seuss: bool,
    mem_mib: u64,
    faults: &FaultPlan,
    retry: RetryPolicy,
) -> ClusterConfig {
    let base = if seuss {
        paper_seuss_cluster(mem_mib)
    } else {
        ClusterConfig {
            backend: BackendKind::Linux {
                cache_limit: 1024,
                stemcell_target: 256,
            },
            ..ClusterConfig::seuss_paper()
        }
    };
    ClusterConfig {
        faults: faults.clone(),
        retry,
        ..base
    }
}

/// Runs the (set size × backend) grid of [`TrialParams::throughput`]
/// trials behind Figures 4 and 5 and returns `(set size, SEUSS, Linux)`
/// per set size, in input order. `invocations_per_trial` overrides N
/// when `Some`; `mem_mib` sizes the SEUSS node. The cells are
/// independent trials run on `workers` threads via
/// [`seuss_exec::ordered_parallel`], handed out largest set size first;
/// results are identical at every worker count.
///
/// [`TrialParams::throughput`]: seuss_workload::TrialParams::throughput
fn throughput_grid(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<(u64, TrialAnalysis, TrialAnalysis)> {
    // Hand the largest cells out first, so the slowest trials do not
    // start last, side by side; the stable sort keeps SEUSS before Linux.
    let mut cells: Vec<(usize, (u64, bool))> = set_sizes
        .iter()
        .flat_map(|&m| [(m, true), (m, false)])
        .enumerate()
        .collect();
    cells.sort_by_key(|&(_, (m, _))| std::cmp::Reverse(m));
    let mut results = seuss_exec::ordered_parallel(cells, workers, |_, (i, (m, is_seuss))| {
        let mut params = seuss_workload::TrialParams::throughput(m, 42);
        if let Some(n) = invocations_per_trial {
            params.invocations = n.max(m);
        }
        let (reg, spec) = params.build();
        let cfg = if is_seuss {
            paper_seuss_cluster(mem_mib)
        } else {
            ClusterConfig::linux_paper()
        };
        (i, seuss_platform::run_trial(cfg, reg, &spec).analysis)
    });
    results.sort_by_key(|&(i, _)| i);
    let mut measured = results.into_iter().map(|(_, analysis)| analysis);
    set_sizes
        .iter()
        .map(|&m| {
            let seuss = measured.next().expect("a SEUSS cell per set size");
            let linux = measured.next().expect("a Linux cell per set size");
            (m, seuss, linux)
        })
        .collect()
}
