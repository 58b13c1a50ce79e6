//! `seuss-exec` — the parallel sharded trial executor.
//!
//! A trial is decomposed into **logical shards** (via
//! [`seuss_platform::partition_workload`]): each shard owns a disjoint
//! slice of the function population and simulates its entire SEUSS (or
//! Linux) node — frame pool, MMU, snapshot store, caches, tracer — for
//! that slice. Shards are independent simulations, so they run on a pool
//! of **worker threads**; results are merged afterwards by virtual
//! completion time with a stable shard-index tie-break.
//!
//! # The determinism contract
//!
//! * The *shard count* is part of the experiment definition: it decides
//!   how the population splits and therefore what the merged records,
//!   trace, and metrics contain.
//! * The *worker count* is pure execution speed. For a fixed
//!   `(config, registry, spec, shards)` the merged output is
//!   **byte-identical at every worker count** — merging is a pure
//!   function of per-shard results, which are themselves deterministic
//!   single-threaded simulations, and nothing in the merge observes
//!   thread scheduling. The library never picks a worker count: it is
//!   always the explicit [`ShardPlan::workers`] (the bench binaries
//!   take it from `--workers` or the `SEUSS_EXEC_WORKERS` variable).
//! * `shards = 1` degenerates to exactly the legacy
//!   [`seuss_platform::run_trial`]: same seed (stream 0 is the identity
//!   stream), same single simulation, same record order, same JSONL
//!   bytes.
//!
//! Per-shard RNG streams are split from the trial seed with
//! [`simcore::stream_seed`], so shard `s` sees the same randomness no
//! matter which thread runs it, or when.
//!
//! # Example
//!
//! ```
//! use seuss_exec::{run_sharded, ExecConfig, ShardPlan};
//! use seuss_platform::{FnKind, Registry, WorkloadSpec};
//!
//! let mut reg = Registry::new();
//! reg.register_many(0, 4, FnKind::Nop);
//! let order: Vec<u64> = (0..32).map(|i| i % 4).collect();
//! let spec = WorkloadSpec::closed_loop(order, 4);
//! let cfg = ExecConfig::seuss_small();
//! let a = run_sharded(&cfg, &reg, &spec, ShardPlan::new(2, 1));
//! let b = run_sharded(&cfg, &reg, &spec, ShardPlan::new(2, 2));
//! assert_eq!(a.records_jsonl(), b.records_jsonl()); // workers never change bytes
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use seuss_core::{AoLevel, SeussConfig};
use seuss_faults::{FaultPlan, RetryPolicy};
use seuss_platform::cluster::{run_trial, BackendKind, ClusterConfig};
use seuss_platform::{partition_workload, Registry, TrialAnalysis, TrialOutput, WorkloadSpec};
use seuss_trace::Tracer;
use simcore::{stream_seed, SimDuration, SimTime};

/// [`BackendKind`] under the name earlier callers of this crate use.
pub use seuss_platform::BackendKind as BackendSpec;

/// Cluster configuration in `Send` form: a [`ClusterConfig`] with the
/// `Rc`-backed tracer reduced to a flag. Each worker thread builds its
/// shard's [`ClusterConfig`] (tracer included) from this locally; only
/// this description and the plain-data [`TrialOutput`]s cross threads.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Compute backend each shard instantiates.
    pub backend: BackendKind,
    /// Worker cores per shard node.
    pub cores: u16,
    /// Control-plane round-trip overhead.
    pub control_plane_rtt: SimDuration,
    /// Platform invocation timeout.
    pub timeout: SimDuration,
    /// Block time of the external HTTP endpoint.
    pub external_block: SimDuration,
    /// CPU occupancy of a NOP function on the Linux backend.
    pub linux_exec_nop: SimDuration,
    /// Trial seed; shard `s` runs on [`stream_seed`]`(seed, s)`.
    pub seed: u64,
    /// Whether each shard records a trace (merged after the run).
    pub traced: bool,
    /// Fault schedule for the trial. Global faults (crash, loss, memory
    /// pressure, stragglers) hit every shard's node; targeted snapshot
    /// corruption follows its function to the owning shard via
    /// [`FaultPlan::shard_view`], so the plan a function observes is
    /// independent of the shard count's ownership layout.
    pub faults: FaultPlan,
    /// Retry policy each shard's platform applies to faulted requests.
    pub retry: RetryPolicy,
}

impl ExecConfig {
    /// The paper's cluster with a SEUSS backend:
    /// [`ClusterConfig::seuss_paper`], untraced.
    pub fn seuss_paper() -> Self {
        Self::from_cluster(ClusterConfig::seuss_paper())
    }

    /// A small SEUSS node (2 GiB, full AO) — cheap enough for tests and
    /// doctests while exercising all three paths.
    pub fn seuss_small() -> Self {
        let cfg = SeussConfig::builder()
            .mem_mib(2048)
            .ao_level(AoLevel::NetworkAndInterpreter)
            .build()
            .expect("static small config is valid");
        ExecConfig {
            backend: BackendKind::Seuss(Box::new(cfg)),
            ..Self::seuss_paper()
        }
    }

    /// Enables per-shard tracing (merged into one stream by the run).
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// The `Send` form of `cfg`. Destructures every field, so a field
    /// added to [`ClusterConfig`] does not compile until it is carried
    /// here and in [`ExecConfig::cluster_config`].
    fn from_cluster(cfg: ClusterConfig) -> Self {
        let ClusterConfig {
            backend,
            cores,
            control_plane_rtt,
            timeout,
            external_block,
            linux_exec_nop,
            seed,
            tracer,
            faults,
            retry,
        } = cfg;
        ExecConfig {
            backend,
            cores,
            control_plane_rtt,
            timeout,
            external_block,
            linux_exec_nop,
            seed,
            traced: tracer.is_enabled(),
            faults,
            retry,
        }
    }

    /// Builds shard `shard`'s cluster config (of `shards` total). Called
    /// inside the worker thread that runs the shard, because the result
    /// is not `Send`.
    fn cluster_config(&self, shard: usize, shards: usize) -> ClusterConfig {
        ClusterConfig {
            backend: self.backend.clone(),
            cores: self.cores,
            control_plane_rtt: self.control_plane_rtt,
            timeout: self.timeout,
            external_block: self.external_block,
            linux_exec_nop: self.linux_exec_nop,
            seed: stream_seed(self.seed, shard as u64),
            tracer: if self.traced {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            faults: self.faults.shard_view(shard as u64, shards as u64),
            retry: self.retry,
        }
    }
}

/// How a trial is decomposed and executed: `shards` is part of the
/// experiment (it determines the bytes), `workers` is not (it only
/// determines the wall clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Logical shards the function population splits into (≥ 1).
    pub shards: usize,
    /// Worker threads executing the shards (≥ 1; capped at `shards`).
    pub workers: usize,
}

impl ShardPlan {
    /// A plan with explicit shard and worker counts (both floored at 1).
    pub fn new(shards: usize, workers: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            workers: workers.max(1),
        }
    }

    /// The legacy single-threaded plan: one shard, one worker.
    pub fn single() -> Self {
        ShardPlan::new(1, 1)
    }

    /// `workers` shards on `workers` threads — the usual speedup shape.
    pub fn wide(workers: usize) -> Self {
        ShardPlan::new(workers, workers)
    }
}

/// Runs one trial decomposed per `plan` and merges the shards' outputs
/// into one [`TrialOutput`].
///
/// See the crate docs for the determinism contract. The merge is:
/// records stable-sorted by exact virtual completion time (shard index
/// breaking ties, which the stable sort provides since shards are
/// concatenated in order); `finished_at` is the max; `events` the sum;
/// trace dumps are kept in shard order, so the output's trace and
/// metrics merge across shards. `wall` covers the whole run.
pub fn run_sharded(
    cfg: &ExecConfig,
    registry: &Registry,
    spec: &WorkloadSpec,
    plan: ShardPlan,
) -> TrialOutput {
    let started = Instant::now();
    let parts = partition_workload(registry, spec, plan.shards);
    let shards = ordered_parallel(parts, plan.workers, |shard, (reg, sub_spec)| {
        run_trial(cfg.cluster_config(shard, plan.shards), reg, &sub_spec)
    });

    let mut records = Vec::new();
    let mut finished_at = SimTime::ZERO;
    let mut events = 0u64;
    let mut trace_dumps = Vec::new();
    for out in shards {
        records.extend(out.records);
        finished_at = finished_at.max(out.finished_at);
        events += out.events;
        trace_dumps.extend(out.trace_dumps);
    }
    // Per-shard record vectors are already completion-ordered (the sim
    // clock is monotone), so a stable sort on the exact completion nanos
    // yields (done_ns, shard) order — and is the identity for one shard.
    records.sort_by_key(|r| r.done_ns);

    TrialOutput {
        analysis: TrialAnalysis::from_records(&records),
        records,
        finished_at,
        events,
        trace_dumps,
        wall: started.elapsed(),
    }
}

/// Runs `f` over `items` on `workers` threads, returning results in
/// **input order** regardless of which thread finished first — the
/// primitive both `run_sharded` and the bench sweep drivers build their
/// determinism on. Threads claim indices from an atomic counter, so work
/// distribution adapts to uneven item costs.
pub fn ordered_parallel<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        // Run inline: no threads, no overhead — the legacy code path.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = slots[i].lock().expect("slot lock").take().expect("item");
                let r = f(i, item);
                *results[i].lock().expect("result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_platform::FnKind;
    use seuss_trace::validate_jsonl;

    fn sample() -> (Registry, WorkloadSpec) {
        let mut reg = Registry::new();
        reg.register_many(0, 8, FnKind::Nop);
        let order: Vec<u64> = (0..64).map(|i| i % 8).collect();
        (reg, WorkloadSpec::closed_loop(order, 8))
    }

    /// A crash, a packet-loss window and a targeted snapshot corruption,
    /// all inside the sample trial.
    fn faulted_plan() -> FaultPlan {
        use seuss_faults::{FaultEvent, FaultKind};
        FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_millis(150),
                kind: FaultKind::NodeCrash {
                    reboot: SimDuration::from_millis(200),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(50),
                kind: FaultKind::PacketLoss {
                    prob: 0.3,
                    span: SimDuration::from_millis(400),
                },
            },
            FaultEvent {
                at: SimTime::from_millis(100),
                kind: FaultKind::SnapshotCorruption { fn_id: 3 },
            },
        ])
    }

    #[test]
    fn one_shard_reproduces_legacy_run_trial() {
        let (reg, spec) = sample();
        let seuss = ExecConfig::seuss_small().traced();
        let faulted = ExecConfig {
            faults: faulted_plan(),
            ..seuss.clone()
        };
        let linux = ExecConfig::from_cluster(ClusterConfig::linux_paper()).traced();
        for (name, cfg) in [("seuss", seuss), ("faulted", faulted), ("linux", linux)] {
            let legacy = run_trial(cfg.cluster_config(0, 1), reg.clone(), &spec);
            let sharded = run_sharded(&cfg, &reg, &spec, ShardPlan::single());
            assert_eq!(sharded.records_jsonl(), legacy.records_jsonl(), "{name}");
            assert_eq!(sharded.trace_jsonl(), legacy.trace_jsonl(), "{name}");
            assert_eq!(
                sharded.metrics_report().to_json(),
                legacy.metrics_report().to_json(),
                "{name}"
            );
            assert_eq!(sharded.finished_at, legacy.finished_at, "{name}");
            assert_eq!(sharded.events, legacy.events, "{name}");
            assert!(!legacy.trace_jsonl().is_empty(), "{name}: traced");
        }
    }

    #[test]
    fn worker_count_never_changes_bytes() {
        let (reg, spec) = sample();
        let cfg = ExecConfig::seuss_small().traced();
        let w1 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 1));
        let w2 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 2));
        let w4 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 4));
        assert_eq!(w1.records_jsonl(), w2.records_jsonl());
        assert_eq!(w1.records_jsonl(), w4.records_jsonl());
        assert_eq!(w1.trace_jsonl(), w2.trace_jsonl());
        assert_eq!(w1.trace_jsonl(), w4.trace_jsonl());
        assert_eq!(w1.metrics_report().to_json(), w4.metrics_report().to_json());
        assert_eq!(w1.finished_at, w4.finished_at);
        assert_eq!(w1.events, w4.events);
        validate_jsonl(&w4.trace_jsonl()).expect("merged trace validates");
        assert_eq!(w1.analysis.completed, 64);
    }

    #[test]
    fn sharded_run_completes_the_whole_workload() {
        let (reg, spec) = sample();
        let cfg = ExecConfig::seuss_small();
        let out = run_sharded(&cfg, &reg, &spec, ShardPlan::wide(4));
        assert_eq!(out.analysis.completed, 64);
        assert_eq!(out.analysis.errors, 0);
        // 8 unique functions → 8 cold paths, exactly one per function.
        assert_eq!(out.analysis.paths.0, 8);
        // Untraced → no dumps, empty artifacts.
        assert!(out.trace_dumps.is_empty());
        assert_eq!(out.trace_jsonl(), "");
    }

    #[test]
    fn records_merge_is_completion_ordered() {
        let (reg, spec) = sample();
        let cfg = ExecConfig::seuss_small();
        let out = run_sharded(&cfg, &reg, &spec, ShardPlan::wide(4));
        assert!(out.records.windows(2).all(|w| w[0].done_ns <= w[1].done_ns));
    }

    #[test]
    fn ordered_parallel_preserves_input_order() {
        // Uneven spins so late items often finish first on 4 threads.
        let items: Vec<u64> = (0..32).collect();
        let out = ordered_parallel(items, 4, |i, x| {
            let mut acc = 0u64;
            for k in 0..((32 - i as u64) * 1000) {
                acc = acc.wrapping_add(k);
            }
            (x, std::hint::black_box(acc))
        });
        let xs: Vec<u64> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(xs, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn faulted_trials_are_byte_identical_at_every_worker_count() {
        let (reg, spec) = sample();
        let mut cfg = ExecConfig::seuss_small().traced();
        cfg.faults = faulted_plan();
        cfg.retry = RetryPolicy::resilient();
        let w1 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 1));
        let w2 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 2));
        let w4 = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 4));
        assert_eq!(w1.records_jsonl(), w2.records_jsonl());
        assert_eq!(w1.records_jsonl(), w4.records_jsonl());
        assert_eq!(w1.trace_jsonl(), w4.trace_jsonl());
        assert_eq!(w1.metrics_report().to_json(), w4.metrics_report().to_json());
        // The faults actually fired somewhere in the merged trace.
        assert!(
            w1.trace_jsonl().contains("fault:node_crash"),
            "crash missing from the merged trace"
        );
    }

    #[test]
    fn empty_fault_plan_reproduces_pre_fault_bytes() {
        let (reg, spec) = sample();
        let with_default = ExecConfig::seuss_small().traced();
        let mut no_retry = ExecConfig::seuss_small().traced();
        no_retry.retry = RetryPolicy::none();
        let a = run_sharded(&with_default, &reg, &spec, ShardPlan::new(2, 2));
        let b = run_sharded(&no_retry, &reg, &spec, ShardPlan::new(2, 2));
        assert_eq!(
            a.records_jsonl(),
            b.records_jsonl(),
            "without faults the retry policy must be unobservable"
        );
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }
}
