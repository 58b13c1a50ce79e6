//! `seuss-bench` — the experiment harness that regenerates every table
//! and figure of the paper's evaluation (§7).
//!
//! Each experiment is a library function returning a typed result (so
//! integration tests can assert on the *shape* — orderings, ratios,
//! crossovers) plus a binary that prints the paper-vs-measured rows:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | snapshot sizes and NOP cold/warm/hot latency & footprint |
//! | `table2` | AO ablation: cold/warm across No AO / Network / Network+Interp |
//! | `table3` | cache density and 16-way creation rates, 4 isolation methods |
//! | `fig4`   | platform throughput vs unique-function set size |
//! | `fig5`   | end-to-end latency percentiles at three set sizes |
//! | `fig6`   | burst resiliency; `fig6 -- 32` / `16` / `8` is Figure 6 / 7 / 8 |
//! | `figfault` | availability/latency under injected faults: retry vs ablation vs Linux |
//! | `figtier` | cache density vs restore latency across the storage-tier policies |
//! | `trace_smoke` | a validated traced trial, byte-identical across worker counts |
//!
//! Micro-benchmarks of the underlying mechanisms live in `benches/`
//! (snapshot capture/deploy, page-fault service, interpreter
//! compile/exec, and the design-choice ablations from DESIGN.md), driven
//! by the in-tree [`timing`] harness — criterion's API surface without
//! its dependency tree, keeping the workspace fully offline-buildable.
//!
//! Every driver takes a `workers` thread count (binaries: `--workers N`
//! or the `SEUSS_EXEC_WORKERS` env var) and fans its independent trials
//! out through [`seuss_exec::ordered_parallel`]; results are
//! byte-identical at every worker count, only the wall clock changes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fig4;
pub mod fig5;
pub mod figburst;
pub mod figfault;
pub mod figtier;
pub mod render;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod timing;
pub mod traced;

pub use cli::BenchArgs;
pub use fig4::{run_fig4, Fig4Point};
pub use fig5::{run_fig5, Fig5Row};
pub use figburst::{run_burst_with_faults, BurstOutcome};
pub use figfault::{availability_csv, default_fault_spec, run_figfault, FaultOutcome};
pub use figtier::{run_figtier, tier_csv, TierOutcome, TierParams};
pub use render::{ratio, Table};
pub use table1::{run_table1, Table1Results};
pub use table2::{run_table2, Table2Results};
pub use table3::{run_table3, IsolationRow, Table3Results};
pub use timing::{Bencher, BenchmarkId, Harness};
pub use traced::{run_trace_smoke, TraceSmoke, TRACE_SMOKE_SHARDS};

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
/// [`seuss_exec::ordered_parallel`]; results are identical at every
/// worker count.
///
/// [`TrialParams::throughput`]: seuss_workload::TrialParams::throughput
fn throughput_grid(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<(u64, TrialAnalysis, TrialAnalysis)> {
    let cells: Vec<(u64, bool)> = set_sizes
        .iter()
        .flat_map(|&m| [(m, true), (m, false)])
        .collect();
    let mut measured = seuss_exec::ordered_parallel(cells, workers, |_, (m, is_seuss)| {
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
        seuss_platform::run_trial(cfg, reg, &spec).analysis
    })
    .into_iter();
    set_sizes
        .iter()
        .map(|&m| {
            let seuss = measured.next().expect("a SEUSS cell per set size");
            let linux = measured.next().expect("a Linux cell per set size");
            (m, seuss, linux)
        })
        .collect()
}
