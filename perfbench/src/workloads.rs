//! The three workloads: input generation from a seed, the node and
//! cluster configurations they run on, one untraced repetition each, and
//! the checks that the simulator's outputs are right.

use std::time::Instant;

use miniscript::RuntimeProfile;
use seuss_core::{AoLevel, FnId, Invocation, PathKind, SeussConfig, SeussNode};
use seuss_platform::cluster::Ev;
use seuss_platform::{
    BackendKind, Cluster, ClusterConfig, FnKind, FnSpec, Registry, RequestRecord, RequestStatus,
    ServedBy, TrialAnalysis, WorkloadSpec,
};
use seuss_store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig};
use seuss_workload::{TrialParams, ZipfTrial};
use simcore::{SimRng, SimTime, Simulation, World};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform shuffle over twice the idle-UC cap: warm path and cache
    /// eviction scans carry the host cost.
    ChurnUniform,
    /// Zipf(1.0) over a set that fits every cache: hot path, event heap
    /// and platform dispatch carry the host cost.
    HotZipf,
    /// A small-DRAM node with a storage tier driven directly: cold path
    /// under pressure, demotions and tier restores.
    TierPressure,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ChurnUniform,
        Workload::HotZipf,
        Workload::TierPressure,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnUniform => "churn_uniform",
            Workload::HotZipf => "hot_zipf",
            Workload::TierPressure => "tier_pressure",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster shape, for the workloads that run through the platform.
    pub fn cluster_shape(self) -> Option<ClusterShape> {
        match self {
            Workload::ChurnUniform => Some(CHURN_UNIFORM),
            Workload::HotZipf => Some(HOT_ZIPF),
            Workload::TierPressure => None,
        }
    }
}

/// Shape of a closed-loop cluster workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterShape {
    /// Unique NOP functions (M).
    pub set_size: u64,
    /// Invocations per trial (N).
    pub invocations: u64,
    /// Closed-loop simulated clients.
    pub clients: u32,
    /// `None`: every function ⌊N/M⌋ or ⌈N/M⌉ times in a seeded shuffle.
    /// `Some(alpha)`: each request drawn from Zipf(alpha).
    pub zipf_alpha: Option<f64>,
}

/// `churn_uniform`: M is twice the paper node's 4 096-entry idle-UC cap.
pub const CHURN_UNIFORM: ClusterShape = ClusterShape {
    set_size: 8_192,
    invocations: 16_384,
    clients: 32,
    zipf_alpha: None,
};

/// `hot_zipf`: every function fits the idle-UC cache.
pub const HOT_ZIPF: ClusterShape = ClusterShape {
    set_size: 1_024,
    invocations: 262_144,
    clients: 32,
    zipf_alpha: Some(1.0),
};

/// Shape of the `tier_pressure` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierShape {
    /// Distinct functions, each with a page-sized data literal.
    pub fns: u64,
    /// Redeploy sweeps over every function after the populate pass.
    pub sweeps: u64,
    /// Node DRAM in MiB: small enough that populating crosses the OOM
    /// daemon's reclaim threshold.
    pub mem_mib: u64,
    /// Storage-device capacity in blocks: never the limit.
    pub device_blocks: u64,
}

/// `tier_pressure`.
pub const TIER_PRESSURE: TierShape = TierShape {
    fns: 2_048,
    sweeps: 16,
    mem_mib: 140,
    device_blocks: 1 << 20,
};

/// DRAM of the cluster workloads' node, MiB.
pub const CLUSTER_NODE_MIB: u64 = 24 * 1024;

/// The node the cluster workloads run on: the paper's node with full
/// anticipatory optimization, DRAM cut to what the trials touch.
pub fn cluster_node() -> SeussConfig {
    SeussConfig::builder()
        .mem_mib(CLUSTER_NODE_MIB)
        .ao_level(AoLevel::NetworkAndInterpreter)
        .build()
        .expect("valid cluster node config")
}

/// The paper's cluster around [`cluster_node`].
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        backend: BackendKind::Seuss(Box::new(cluster_node())),
        ..ClusterConfig::seuss_paper()
    }
}

/// The `tier_pressure` node: test-profile UCs, small DRAM, a
/// working-set-prefetch tier that demotes the coldest snapshot.
pub fn tier_node(shape: TierShape) -> SeussConfig {
    SeussConfig::test_builder()
        .mem_mib(shape.mem_mib)
        .store(Some(StoreConfig {
            device: DeviceConfig {
                capacity_blocks: shape.device_blocks,
                ..DeviceConfig::nvme()
            },
            policy: RestorePolicy::WorkingSetPrefetch,
            reclaim: ReclaimMode::DemoteColdest,
        }))
        .build()
        .expect("valid tier node config")
}

/// The interpreter profile the workload's functions run under.
pub fn runtime_profile(w: Workload) -> RuntimeProfile {
    match w {
        Workload::TierPressure => tier_node(TIER_PRESSURE).runtime_profile,
        _ => cluster_node().runtime_profile,
    }
}

/// Builds a cluster workload's registry and request order from `seed`.
pub fn cluster_inputs(shape: ClusterShape, seed: u64) -> (Registry, WorkloadSpec) {
    match shape.zipf_alpha {
        None => TrialParams {
            invocations: shape.invocations,
            set_size: shape.set_size,
            workers: shape.clients,
            kind: FnKind::Nop,
            seed,
        }
        .build(),
        Some(alpha) => ZipfTrial {
            invocations: shape.invocations,
            set_size: shape.set_size,
            workers: shape.clients,
            alpha,
            kind: FnKind::Nop,
            seed,
        }
        .build(),
    }
}

/// Inputs of `tier_pressure`: one source per function and the invoke
/// order — a populate pass, then `sweeps` redeploy passes, each pass a
/// seeded permutation of every function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierInputs {
    /// Source of function `f` at index `f`.
    pub sources: Vec<String>,
    /// Functions in invoke order.
    pub order: Vec<FnId>,
}

/// Builds the `tier_pressure` inputs from `seed`.
pub fn tier_inputs(shape: TierShape, seed: u64) -> TierInputs {
    let sources = (0..shape.fns).map(tier_source).collect();
    let mut rng = SimRng::new(seed);
    let mut order = Vec::with_capacity((shape.fns * (shape.sweeps + 1)) as usize);
    for _ in 0..=shape.sweeps {
        let mut pass: Vec<FnId> = (0..shape.fns).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    TierInputs { sources, order }
}

/// A distinct body with a page-sized data literal, so every function
/// snapshot carries a multi-page diff for the tier to move.
pub fn tier_source(f: FnId) -> String {
    let cells: Vec<String> = (0..192u64).map(|i| (f * 1000 + i).to_string()).collect();
    format!(
        "// fn {f}\nlet table = [{}];\nfunction main(args) {{ let acc = {f}; \
         for (let i = 0; i < 8; i = i + 1) {{ acc = acc + table[i]; }} return acc; }}",
        cells.join(",")
    )
}

/// What `main` of [`tier_source`]`(f)` returns: f + Σ_{i<8} (1000 f + i).
pub fn tier_expected(f: FnId) -> String {
    (8_001 * f + 28).to_string()
}

/// The NOP source the platform registers for function `f`.
pub fn nop_source(f: FnId) -> String {
    FnSpec::new(FnKind::Nop, f).src
}

/// Starts a closed-loop trial the way `run_trial` does: every client
/// issues its first request at t = 0.
pub fn start<W: World<Event = Ev>>(world: W, clients: u32) -> Simulation<W> {
    let mut sim = Simulation::new(world);
    for w in 0..clients {
        sim.schedule_at(SimTime::ZERO, Ev::WorkerIssue(w));
    }
    sim
}

/// Exact simulated statistics of one trial: a function of the seed
/// alone. Any change here is a change in the simulator's behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStats {
    /// Invocations completed.
    pub completed: u64,
    /// Invocations failed.
    pub errors: u64,
    /// Completions served on the cold path.
    pub cold: u64,
    /// … on the warm path (from a DRAM-resident function snapshot).
    pub warm: u64,
    /// … on the hot path (idle UC reused in place).
    pub hot: u64,
    /// … warm from a snapshot demoted to the storage tier.
    pub warm_tier: u64,
    /// Cluster: virtual time of the last event. Node: Σ virtual CPU time.
    pub finish_ns: u64,
    /// Cluster: steady-state requests per virtual second (middle half of
    /// completions). Node: invocations per virtual CPU second.
    pub sim_rps: f64,
    /// Median virtual latency, ms (node: `PathCosts::total()`).
    pub lat_p50_ms: f64,
    /// 99th-percentile virtual latency, ms.
    pub lat_p99_ms: f64,
}

impl SimStats {
    /// Share of completions served cold.
    pub fn cold_frac(&self) -> f64 {
        self.cold as f64 / self.completed.max(1) as f64
    }

    /// Statistics of a finished cluster trial.
    pub fn from_cluster(records: &[RequestRecord], finished_at: SimTime) -> SimStats {
        let a = TrialAnalysis::from_records(records);
        let mut lat: Vec<f64> = records
            .iter()
            .filter(|r| r.status == RequestStatus::Ok)
            .map(|r| r.latency_ms)
            .collect();
        SimStats {
            completed: a.completed,
            errors: a.errors,
            cold: a.paths.0,
            warm: a.paths.1,
            hot: a.paths.2,
            warm_tier: 0, // no storage tier on the cluster node
            finish_ns: finished_at.as_nanos(),
            sim_rps: a.steady_throughput_rps,
            lat_p50_ms: percentile(&mut lat, 0.50),
            lat_p99_ms: percentile(&mut lat, 0.99),
        }
    }

    /// Statistics of a finished `tier_pressure` run.
    pub fn from_tier(rows: &[TierRow], errors: u64) -> SimStats {
        let count = |p: PathKind| rows.iter().filter(|r| r.path == p).count() as u64;
        let finish_ns: u64 = rows.iter().map(|r| r.total_ns).sum();
        let mut lat: Vec<f64> = rows.iter().map(|r| r.total_ns as f64 / 1e6).collect();
        SimStats {
            completed: rows.len() as u64,
            errors,
            cold: count(PathKind::Cold),
            warm: count(PathKind::Warm),
            hot: count(PathKind::Hot),
            warm_tier: count(PathKind::WarmTier),
            finish_ns,
            sim_rps: rows.len() as f64 / (finish_ns.max(1) as f64 / 1e9),
            lat_p50_ms: percentile(&mut lat, 0.50),
            lat_p99_ms: percentile(&mut lat, 0.99),
        }
    }
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Problems with a cluster trial's outputs: every request must complete
/// once, successfully, for the function the order named.
pub fn check_cluster(spec: &WorkloadSpec, records: &[RequestRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    if records.len() != spec.order.len() {
        problems.push(format!(
            "{} records for {} requests",
            records.len(),
            spec.order.len()
        ));
    }
    let failed = records
        .iter()
        .filter(|r| r.status != RequestStatus::Ok)
        .count();
    if failed > 0 {
        problems.push(format!("{failed} requests failed"));
    }
    let stemcell = records
        .iter()
        .filter(|r| r.served_by == ServedBy::Stemcell)
        .count();
    if stemcell > 0 {
        problems.push(format!("{stemcell} requests served by Linux stemcells"));
    }
    let mut want = spec.order.clone();
    let mut got: Vec<FnId> = records.iter().map(|r| r.fn_id).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        problems.push("served functions differ from the requested ones".into());
    }
    problems
}

/// One invoke of `tier_pressure`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierRow {
    /// Path the node served it on.
    pub path: PathKind,
    /// Virtual CPU time of the invocation (`PathCosts::total()`).
    pub total_ns: u64,
    /// Host nanoseconds of the `invoke` call (0 when untimed).
    pub host_ns: u64,
}

/// Runs the `tier_pressure` invoke sequence on `node`. With `TIMED`, each
/// `invoke` call is timed on the host. Returns the rows and the problems
/// found (failed invokes, wrong results).
pub fn run_tier<const TIMED: bool>(
    node: &mut SeussNode,
    inputs: &TierInputs,
) -> (Vec<TierRow>, Vec<String>) {
    let mut rows = Vec::with_capacity(inputs.order.len());
    let mut problems = Vec::new();
    for &f in &inputs.order {
        let t = TIMED.then(Instant::now);
        let out = node.invoke(f, &inputs.sources[f as usize], &[]);
        let host_ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        match out {
            Ok(Invocation::Completed {
                path,
                result,
                costs,
                ..
            }) => {
                if result != tier_expected(f) {
                    problems.push(format!("fn {f} returned {result:?}"));
                }
                rows.push(TierRow {
                    path,
                    total_ns: costs.total().as_nanos(),
                    host_ns,
                });
            }
            Ok(Invocation::Blocked { .. }) => problems.push(format!("fn {f} blocked")),
            Err(e) => problems.push(format!("fn {f} failed: {e}")),
        }
        // Drain the idle UC so every pass redeploys from the snapshot.
        while let Some(uc) = node.idle.take(f) {
            node.destroy_uc(uc);
        }
    }
    (rows, problems)
}

/// Host timings and simulated outcome of one untraced repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Seconds to generate the inputs from the seed.
    pub build_s: f64,
    /// Seconds from the start of input generation to the first event
    /// (inputs plus cluster or node construction).
    pub setup_s: f64,
    /// Seconds from the first event to the last.
    pub run_s: f64,
    /// Invocations attempted.
    pub attempted: u64,
    /// The simulated outcome.
    pub stats: SimStats,
    /// Everything wrong with the outputs; empty when correct.
    pub problems: Vec<String>,
}

/// Seconds to generate `w`'s inputs from `seed` and construct its
/// cluster (up to the first event) or node.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    match w.cluster_shape() {
        Some(shape) => {
            let (registry, spec) = cluster_inputs(shape, seed);
            let sim = start(
                Cluster::new(cluster_config(), registry, &spec),
                spec.workers,
            );
            let s = t0.elapsed().as_secs_f64();
            drop(sim);
            s
        }
        None => {
            let inputs = tier_inputs(TIER_PRESSURE, seed);
            let node = SeussNode::new(tier_node(TIER_PRESSURE)).expect("tier node init");
            let s = t0.elapsed().as_secs_f64();
            drop((inputs, node));
            s
        }
    }
}

/// One untraced repetition of `w` on `seed`.
pub fn run_rep(w: Workload, seed: u64) -> Rep {
    let t0 = Instant::now();
    match w.cluster_shape() {
        Some(shape) => {
            let (registry, spec) = cluster_inputs(shape, seed);
            let build_s = t0.elapsed().as_secs_f64();
            let cluster = Cluster::new(cluster_config(), registry, &spec);
            let mut sim = start(cluster, spec.workers);
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            sim.run();
            let run_s = t1.elapsed().as_secs_f64();
            let records = std::mem::take(&mut sim.world_mut().records);
            let stats = SimStats::from_cluster(&records, sim.now());
            Rep {
                build_s,
                setup_s,
                run_s,
                attempted: spec.order.len() as u64,
                stats,
                problems: check_cluster(&spec, &records),
            }
        }
        None => {
            let inputs = tier_inputs(TIER_PRESSURE, seed);
            let build_s = t0.elapsed().as_secs_f64();
            let (mut node, _) = SeussNode::new(tier_node(TIER_PRESSURE)).expect("tier node init");
            let setup_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let (rows, problems) = run_tier::<false>(&mut node, &inputs);
            let run_s = t1.elapsed().as_secs_f64();
            let errors = inputs.order.len() as u64 - rows.len() as u64;
            Rep {
                build_s,
                setup_s,
                run_s,
                attempted: inputs.order.len() as u64,
                stats: SimStats::from_tier(&rows, errors),
                problems,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("Hot_Zipf"), None);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for shape in [CHURN_UNIFORM, HOT_ZIPF] {
            let a = cluster_inputs(shape, 5).1.order;
            assert_eq!(a, cluster_inputs(shape, 5).1.order);
            assert_ne!(a, cluster_inputs(shape, 6).1.order);
            assert_eq!(a.len() as u64, shape.invocations);
            assert!(a.iter().all(|&f| f < shape.set_size));
        }
        let t = tier_inputs(TIER_PRESSURE, 5);
        assert_eq!(t, tier_inputs(TIER_PRESSURE, 5));
        assert_ne!(t.order, tier_inputs(TIER_PRESSURE, 6).order);
        let passes = (TIER_PRESSURE.sweeps + 1) as usize;
        assert_eq!(t.order.len(), TIER_PRESSURE.fns as usize * passes);
        for pass in t.order.chunks(TIER_PRESSURE.fns as usize) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..TIER_PRESSURE.fns).collect::<Vec<_>>());
        }
    }

    #[test]
    fn churn_overruns_the_idle_cap_and_hot_fits_it() {
        let cap = cluster_node().idle_total as u64;
        assert!(CHURN_UNIFORM.set_size >= 2 * cap);
        assert!(HOT_ZIPF.set_size <= cap);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tier_sources_compute_the_expected_result() {
        let (mut node, _) = SeussNode::new(tier_node(TIER_PRESSURE)).expect("init");
        let inputs = TierInputs {
            sources: (0..3).map(tier_source).collect(),
            order: vec![2, 0, 1, 2],
        };
        let (rows, problems) = run_tier::<false>(&mut node, &inputs);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].path, PathKind::Cold);
        assert_eq!(rows[3].path, PathKind::Warm);
    }
}
