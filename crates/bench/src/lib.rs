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

pub use cli::{BenchArgs, StoreArgs};
pub use fig4::{run_fig4, Fig4Point};
pub use fig5::{run_fig5, Fig5Row};
pub use figburst::{run_burst, run_burst_with_faults, BurstOutcome};
pub use figfault::{availability_csv, default_fault_spec, run_figfault, FaultOutcome};
pub use figtier::{run_figtier, tier_csv, TierOutcome, TierParams};
pub use render::{ratio, Table};
pub use table1::{run_table1, Table1Results};
pub use table2::{run_table2, Table2Results};
pub use table3::{run_table3, IsolationRow, Table3Results};
pub use timing::{BatchSize, Bencher, BenchmarkId, Harness};
pub use traced::{run_trace_smoke, TraceSmoke, TRACE_SMOKE_SHARDS};
