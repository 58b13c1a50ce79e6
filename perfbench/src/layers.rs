//! The traced run: per-layer numbers gathered from outside the program,
//! by timing calls into each layer's public functions.
//!
//! Cluster workloads run inside [`Timed`], a `World` that delegates every
//! event to `Cluster::handle` and times it by `Ev` kind; the node counter
//! that advanced during the event names the invoke path its time goes to.
//! `tier_pressure` times each `SeussNode::invoke` by the `PathKind` it
//! returns. Snapshot and interpreter costs come from short loops over
//! `SnapshotStore::capture`/`deploy`, `miniscript::compile` and
//! `Interpreter::call_global` on the workload's own function sources.

use std::collections::BTreeMap;
use std::time::Instant;

use miniscript::{HostHeap, Interpreter, RuntimeProfile, Value, VmExit};
use seuss_core::{NodeStats, PathKind, SeussConfig, SeussNode, Tracer};
use seuss_exec::{run_sharded, BackendSpec, ExecConfig, ShardPlan};
use seuss_mem::{MemStats, VirtAddr, PAGE_SIZE};
use seuss_paging::{OpStats, RegionKind};
use seuss_platform::cluster::Ev;
use seuss_platform::{Cluster, ClusterConfig};
use seuss_snapshot::SnapshotKind;
use simcore::{Scheduler, SimTime, World};

use crate::workloads::{
    cluster_config, cluster_inputs, cluster_node, median, nop_source, percentile, run_rep,
    run_tier, runtime_profile, start, tier_expected, tier_inputs, tier_node, tier_source, SimStats,
    Workload, TIER_PRESSURE,
};

/// `Ev` kinds in declaration order; the index is [`kind_of`]'s result.
pub const EV_KINDS: [&str; 14] = [
    "worker_issue",
    "arrive",
    "node_receive",
    "segment_end",
    "io_reply",
    "creation_done",
    "stemcell_done",
    "bind_done",
    "delete_done",
    "complete",
    "timeout",
    "fault_begin",
    "fault_end",
    "retry",
];

/// The `Ev` kinds a SEUSS closed-loop NOP trial handles, and so the ones
/// reported as `platform.event_us.<kind>`.
pub const REPORTED_KINDS: [&str; 5] = [
    "worker_issue",
    "arrive",
    "node_receive",
    "segment_end",
    "complete",
];

/// Invoke paths, indexed as in [`path_deltas`].
pub const PATHS: [&str; 4] = ["cold", "warm", "hot", "warm_tier"];

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::WorkerIssue(_) => 0,
        Ev::Arrive(_) => 1,
        Ev::NodeReceive(_) => 2,
        Ev::SegmentEnd { .. } => 3,
        Ev::IoReply(_) => 4,
        Ev::CreationDone(_) => 5,
        Ev::StemcellDone => 6,
        Ev::BindDone { .. } => 7,
        Ev::DeleteDone(_) => 8,
        Ev::Complete { .. } => 9,
        Ev::Timeout(_) => 10,
        Ev::FaultBegin(_) => 11,
        Ev::FaultEnd(_) => 12,
        Ev::Retry(_) => 13,
    }
}

fn path_index(p: PathKind) -> usize {
    match p {
        PathKind::Cold => 0,
        PathKind::Warm => 1,
        PathKind::Hot => 2,
        PathKind::WarmTier => 3,
    }
}

/// How many invokes of each path the node served between two readings.
fn path_deltas(a: &NodeStats, b: &NodeStats) -> [u64; 4] {
    [
        b.cold - a.cold,
        b.warm - a.warm,
        b.hot - a.hot,
        b.warm_tier - a.warm_tier,
    ]
}

/// A `World` around a [`Cluster`] that times every event it delegates.
pub struct Timed {
    /// The wrapped cluster.
    pub inner: Cluster,
    /// Events handled, by kind.
    pub kind_count: [u64; 14],
    /// Host nanoseconds in `Cluster::handle`, by kind.
    pub kind_ns: [u64; 14],
    /// Host nanoseconds of each event that invoked, by invoke path.
    pub path_ns: [Vec<u64>; 4],
    /// Largest `Scheduler::pending()` seen (cancelled entries included).
    pub heap_peak: usize,
}

impl Timed {
    /// Wraps `inner`.
    pub fn new(inner: Cluster) -> Timed {
        Timed {
            inner,
            kind_count: [0; 14],
            kind_ns: [0; 14],
            path_ns: Default::default(),
            heap_peak: 0,
        }
    }

    fn node_stats(&self) -> NodeStats {
        self.inner.seuss_node().map(|n| n.stats).unwrap_or_default()
    }
}

impl World for Timed {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let kind = kind_of(&ev);
        let before = self.node_stats();
        let t = Instant::now();
        self.inner.handle(now, ev, sched);
        let ns = t.elapsed().as_nanos() as u64;
        self.kind_count[kind] += 1;
        self.kind_ns[kind] += ns;
        // Queued requests are invoked inside SegmentEnd, not only inside
        // NodeReceive: check the node's counters after every event.
        let d = path_deltas(&before, &self.node_stats());
        let invokes: u64 = d.iter().sum();
        for (p, &n) in d.iter().enumerate() {
            for _ in 0..n {
                self.path_ns[p].push(ns / invokes);
            }
        }
        self.heap_peak = self.heap_peak.max(sched.pending());
    }
}

/// Per-layer metric values by name, plus everything found wrong.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Invocations attempted across the traced run's trials.
    pub attempted: u64,
    /// Invocations that failed.
    pub failed: u64,
    /// Everything wrong; empty when correct.
    pub problems: Vec<String>,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

impl LayerReport {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn absorb(&mut self, stats: &SimStats, attempted: u64) {
        self.attempted += attempted;
        self.failed += stats.errors;
    }

    fn invoke_times(&mut self, path_ns: &[Vec<u64>; 4]) {
        for (p, name) in PATHS.iter().enumerate() {
            let mut us: Vec<f64> = path_ns[p].iter().map(|&n| n as f64 / 1e3).collect();
            let mean = us.iter().fold(0.0, |a, b| a + b) / us.len().max(1) as f64;
            self.set(format!("core.invoke_us.{name}"), mean);
            self.set(
                format!("core.invoke_us.{name}.p99"),
                percentile(&mut us, 0.99),
            );
            self.set(format!("core.invokes.{name}"), us.len() as f64);
        }
    }

    fn node_counters(&mut self, node: &SeussNode, ops0: &OpStats, mem0: &MemStats) {
        self.set("core.idle_hits", node.idle.hits as f64);
        self.set("core.idle_reclaimed", node.idle.reclaimed as f64);
        self.set("core.fn_cache_evictions", node.fn_cache.evictions as f64);
        self.set("core.oom_reclaims", node.stats.oom_reclaims as f64);
        let ops = node.mmu.stats;
        for (name, a, b) in [
            ("cow_clones", ops0.cow_clones, ops.cow_clones),
            ("shallow_clones", ops0.shallow_clones, ops.shallow_clones),
            ("entries_copied", ops0.entries_copied, ops.entries_copied),
            ("hard_faults", ops0.hard_faults, ops.hard_faults),
            ("swap_ins", ops0.swap_ins, ops.swap_ins),
            ("levels_walked", ops0.levels_walked, ops.levels_walked),
        ] {
            self.set(format!("paging.{name}"), (b - a) as f64);
        }
        let mem = node.mem.stats();
        self.set(
            "mem.total_allocs",
            (mem.total_allocs - mem0.total_allocs) as f64,
        );
        self.set(
            "mem.total_frees",
            (mem.total_frees - mem0.total_frees) as f64,
        );
        let (tier, dev) = node
            .tier
            .as_ref()
            .map(|t| (t.stats(), t.device_stats()))
            .unwrap_or_default();
        self.set("store.demotions", tier.demotions as f64);
        self.set("store.prefetches", tier.prefetches as f64);
        self.set("store.promotions", tier.promotions as f64);
        self.set("store.device_reads", dev.reads as f64);
        self.set("store.device_mib_read", dev.bytes_read as f64 / MIB);
        self.set("store.device_mib_written", dev.bytes_written as f64 / MIB);
    }

    fn compare(&mut self, what: &str, got: &SimStats, want: &SimStats) {
        if got != want {
            self.problems.push(format!(
                "{what} changed the simulation:\n  got  {got:?}\n  want {want:?}"
            ));
        }
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Runs the traced, per-layer measurement of `w` on `seed`. Also returns
/// the simulated statistics of the untraced reference repetition.
pub fn run(w: Workload, seed: u64) -> (LayerReport, SimStats) {
    let mut r = LayerReport::default();
    let reference = run_rep(w, seed);
    r.absorb(&reference.stats, reference.attempted);
    r.problems.extend(reference.problems.iter().cloned());
    r.set("workload.build_s", reference.build_s);
    match w.cluster_shape() {
        Some(_) => traced_cluster(w, seed, &reference.stats, &mut r),
        None => traced_tier(seed, &reference.stats, &mut r),
    }
    let (sources, cfg) = match w {
        Workload::TierPressure => (
            (0..8).map(tier_source).collect::<Vec<_>>(),
            tier_node(TIER_PRESSURE),
        ),
        _ => ((0..8).map(nop_source).collect(), cluster_node()),
    };
    match snapshot_costs(cfg, &sources[0], 200) {
        Ok((capture_us, deploy_us)) => {
            r.set("snapshot.capture_us", capture_us);
            r.set("snapshot.deploy_us", deploy_us);
        }
        Err(e) => r.problems.push(format!("snapshot timing: {e}")),
    }
    let expected: Vec<String> = match w {
        Workload::TierPressure => (0..8).map(tier_expected).collect(),
        _ => vec!["0".to_string(); 8],
    };
    match interp_costs(runtime_profile(w), &sources, &expected, 400) {
        Ok((compile_us, exec_us)) => {
            r.set("interp.compile_us", compile_us);
            r.set("interp.exec_us", exec_us);
        }
        Err(e) => r.problems.push(format!("interpreter timing: {e}")),
    }
    (r, reference.stats)
}

/// Untraced/traced trial pairs behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 2;

/// Run wall of one more untraced repetition, checked against `reference`.
fn untraced_wall(w: Workload, seed: u64, reference: &SimStats, r: &mut LayerReport) -> f64 {
    let rep = run_rep(w, seed);
    r.problems.extend(rep.problems);
    r.compare("an untraced repetition", &rep.stats, reference);
    r.absorb(&rep.stats, rep.attempted);
    rep.run_s
}

fn traced_cluster(w: Workload, seed: u64, reference: &SimStats, r: &mut LayerReport) {
    let shape = w.cluster_shape().expect("cluster workload");

    // 1. The timed wrapper.
    let (registry, spec) = cluster_inputs(shape, seed);
    let cluster = Cluster::new(cluster_config(), registry.clone(), &spec);
    let node = cluster.seuss_node().expect("SEUSS backend");
    let (ops0, mem0) = (node.mmu.stats, node.mem.stats());
    let mut sim = start(Timed::new(cluster), spec.workers);
    let t = Instant::now();
    let events = sim.run();
    let wall = t.elapsed().as_secs_f64();
    let now = sim.now();
    let timed = sim.world_mut();
    let records = std::mem::take(&mut timed.inner.records);
    let stats = SimStats::from_cluster(&records, now);
    r.compare("the timing wrapper", &stats, reference);
    r.absorb(&stats, spec.order.len() as u64);

    let handled_ns: u64 = timed.kind_ns.iter().sum();
    let self_s = wall - handled_ns as f64 / 1e9;
    r.set("sim.events", events as f64);
    r.set(
        "sim.events_per_inv",
        events as f64 / spec.order.len() as f64,
    );
    r.set("sim.self_s", self_s);
    r.set("sim.heap_peak", timed.heap_peak as f64);
    for (k, name) in EV_KINDS.iter().enumerate() {
        let n = timed.kind_count[k];
        if REPORTED_KINDS.contains(name) {
            let mean_us = timed.kind_ns[k] as f64 / 1e3 / n.max(1) as f64;
            r.set(format!("platform.event_us.{name}"), mean_us);
        } else if n > 0 {
            r.problems.push(format!("unexpected {n} {name} events"));
        }
        if n > 0 {
            r.notes.push(format!(
                "{name:>13}: {n:>9} events, {:>8.3} s ({:>5.1}% of wall)",
                timed.kind_ns[k] as f64 / 1e9,
                100.0 * timed.kind_ns[k] as f64 / 1e9 / wall
            ));
        }
    }
    r.notes.push(format!(
        "event-kind times {:.3} s + engine self {self_s:.3} s = traced wall {wall:.3} s",
        handled_ns as f64 / 1e9
    ));
    r.invoke_times(&timed.path_ns);
    let node = timed.inner.seuss_node().expect("SEUSS backend");
    r.node_counters(node, &ops0, &mem0);
    drop(sim);

    // 2. Tracing overhead: untraced trials alternate with trials that
    //    run the program's own tracer.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        plain.push(untraced_wall(w, seed, reference, r));
        let cfg = ClusterConfig {
            tracer: Tracer::enabled(),
            ..cluster_config()
        };
        let mut sim = start(Cluster::new(cfg, registry.clone(), &spec), spec.workers);
        let t = Instant::now();
        sim.run();
        traced.push(t.elapsed().as_secs_f64());
        let now = sim.now();
        let stats = SimStats::from_cluster(&sim.world().records, now);
        r.compare("Tracer::enabled()", &stats, reference);
        r.absorb(&stats, spec.order.len() as u64);
        r.set("trace.spans", sim.world().tracer.spans().len() as f64);
    }
    r.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );

    // 3. The sharded executor at 2 shards: 1 worker thread vs 2.
    let exec = ExecConfig {
        backend: BackendSpec::Seuss(Box::new(cluster_node())),
        ..ExecConfig::seuss_paper()
    };
    let one = run_sharded(&exec, &registry, &spec, ShardPlan::new(2, 1));
    let two = run_sharded(&exec, &registry, &spec, ShardPlan::new(2, 2));
    for out in [&one, &two] {
        r.attempted += spec.order.len() as u64;
        r.failed += out.analysis.errors;
        if out.analysis.completed != spec.order.len() as u64 {
            r.problems.push(format!(
                "sharded run completed {}/{}",
                out.analysis.completed,
                spec.order.len()
            ));
        }
    }
    if one.records_jsonl() != two.records_jsonl() {
        r.problems
            .push("sharded records differ between 1 and 2 workers".into());
    }
    r.set(
        "exec.speedup_2w",
        one.wall.as_secs_f64() / two.wall.as_secs_f64(),
    );
}

fn traced_tier(seed: u64, reference: &SimStats, r: &mut LayerReport) {
    let inputs = tier_inputs(TIER_PRESSURE, seed);

    // 1. Every invoke timed by the path it took.
    let (mut node, _) = SeussNode::new(tier_node(TIER_PRESSURE)).expect("tier node init");
    let (ops0, mem0) = (node.mmu.stats, node.mem.stats());
    let (rows, problems) = run_tier::<true>(&mut node, &inputs);
    let errors = inputs.order.len() as u64 - rows.len() as u64;
    let stats = SimStats::from_tier(&rows, errors);
    r.problems.extend(problems);
    r.compare("per-invoke timing", &stats, reference);
    r.absorb(&stats, inputs.order.len() as u64);
    let mut path_ns: [Vec<u64>; 4] = Default::default();
    for row in &rows {
        path_ns[path_index(row.path)].push(row.host_ns);
    }
    r.invoke_times(&path_ns);
    r.node_counters(&node, &ops0, &mem0);
    drop(node);

    // 2. Tracing overhead, as for the cluster workloads.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        plain.push(untraced_wall(Workload::TierPressure, seed, reference, r));
        let (mut node, _) = SeussNode::new(tier_node(TIER_PRESSURE)).expect("tier node init");
        node.set_tracer(Tracer::enabled());
        let t = Instant::now();
        let (rows, problems) = run_tier::<false>(&mut node, &inputs);
        traced.push(t.elapsed().as_secs_f64());
        let errors = inputs.order.len() as u64 - rows.len() as u64;
        let stats = SimStats::from_tier(&rows, errors);
        r.problems.extend(problems);
        r.compare("Tracer::enabled()", &stats, reference);
        r.absorb(&stats, inputs.order.len() as u64);
        r.set("trace.spans", node.tracer.spans().len() as f64);
    }
    r.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );

    // No engine, platform or sharded executor on this workload.
    r.set("sim.events", 0.0);
    r.set("sim.events_per_inv", 0.0);
    r.set("sim.self_s", 0.0);
    r.set("sim.heap_peak", 0.0);
    for name in REPORTED_KINDS {
        r.set(format!("platform.event_us.{name}"), 0.0);
    }
    r.set("exec.speedup_2w", 0.0);
}

/// Median host µs of `SnapshotStore::capture` and `deploy` on a node
/// built from `cfg`: deploy its runtime snapshot, dirty as many heap
/// pages as a cold invoke of `src` captures, capture, tear down.
fn snapshot_costs(cfg: SeussConfig, src: &str, iters: usize) -> Result<(f64, f64), String> {
    let (mut node, _) = SeussNode::new(cfg).map_err(|e| e.to_string())?;
    node.invoke(0, src, &[]).map_err(|e| e.to_string())?;
    let diff_pages = node
        .fn_cache
        .peek(0)
        .and_then(|img| node.images.snapshot_of(img).ok())
        .and_then(|sid| node.snaps.get(sid).ok())
        .map(|s| s.diff_pages())
        .ok_or("no function snapshot after a cold invoke")?;
    let image = node.runtime_image().ok_or("no runtime image")?;
    let rt = node
        .images
        .snapshot_of(image)
        .map_err(|e| format!("{e:?}"))?;
    let heap = node
        .snaps
        .get(rt)
        .map_err(|e| format!("{e:?}"))?
        .regions()
        .iter()
        .find(|g| g.writable && g.kind == RegionKind::Heap)
        .copied()
        .ok_or("runtime snapshot has no writable heap")?;
    let pages = diff_pages.clamp(1, heap.pages);
    let (mut capture, mut deploy) = (Vec::new(), Vec::new());
    for i in 0..iters {
        let t = Instant::now();
        let (mut space, regs) = node
            .snaps
            .deploy(&mut node.mmu, &mut node.mem, rt)
            .map_err(|e| format!("{e:?}"))?;
        deploy.push(t.elapsed().as_secs_f64() * 1e6);
        for p in 0..pages {
            let va = VirtAddr::new(heap.start.as_u64() + p * PAGE_SIZE as u64);
            node.mmu
                .write_bytes(&mut node.mem, &mut space, va, &[i as u8 | 1])
                .map_err(|e| format!("{e:?}"))?;
        }
        let t = Instant::now();
        let child = node
            .snaps
            .capture(
                &mut node.mmu,
                &mut node.mem,
                &mut space,
                regs,
                SnapshotKind::Function,
                "perfbench",
                Some(rt),
            )
            .map_err(|e| format!("{e:?}"))?;
        capture.push(t.elapsed().as_secs_f64() * 1e6);
        node.mmu.destroy_space(&mut node.mem, space);
        node.snaps.release_uc(rt).map_err(|e| format!("{e:?}"))?;
        node.snaps
            .delete(&mut node.mmu, &mut node.mem, child)
            .map_err(|e| format!("{e:?}"))?;
    }
    Ok((median(&capture), median(&deploy)))
}

/// Median host µs of `miniscript::compile` over `sources` and of
/// `Interpreter::call_global("main")` on each loaded source, checking
/// every call returns `expected`.
fn interp_costs(
    profile: RuntimeProfile,
    sources: &[String],
    expected: &[String],
    iters: usize,
) -> Result<(f64, f64), String> {
    let mut compile = Vec::with_capacity(iters);
    for i in 0..iters {
        let t = Instant::now();
        let prog = miniscript::compile(&sources[i % sources.len()]);
        compile.push(t.elapsed().as_secs_f64() * 1e6);
        prog.map_err(|e| format!("{e:?}"))?;
    }
    let mut exec = Vec::with_capacity(iters);
    let per_source = iters.div_ceil(sources.len());
    for (src, want) in sources.iter().zip(expected) {
        // A heap big enough for one load; the profile's own size can be
        // hundreds of MiB that this loop never touches.
        let mut heap = HostHeap::with_capacity(16 << 20);
        let mut interp = Interpreter::new(RuntimeProfile {
            heap_size: heap.capacity() as u64 - 0x1000,
            ..profile
        });
        let prog = interp
            .load_source(&mut heap, src)
            .map_err(|e| format!("{e:?}"))?;
        interp
            .run_main(&mut heap, prog, u64::MAX)
            .map_err(|e| format!("{e:?}"))?;
        for _ in 0..per_source {
            let t = Instant::now();
            let out = interp.call_global(&mut heap, "main", &[], u64::MAX);
            exec.push(t.elapsed().as_secs_f64() * 1e6);
            match out.map_err(|e| format!("{e:?}"))? {
                VmExit::Done(v @ Value::Num(_)) if interp.display(v) == *want => {}
                other => return Err(format!("main returned {other:?}, want {want}")),
            }
        }
    }
    Ok((median(&compile), median(&exec)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_platform::{run_trial, FnKind};
    use seuss_workload::TrialParams;

    #[test]
    fn wrapper_reproduces_run_trial() {
        for (m, n, zipf) in [(24u64, 96u64, false), (8, 200, true)] {
            let (registry, spec) = if zipf {
                seuss_workload::ZipfTrial {
                    invocations: n,
                    set_size: m,
                    workers: 4,
                    alpha: 1.0,
                    kind: FnKind::Nop,
                    seed: 3,
                }
                .build()
            } else {
                TrialParams {
                    invocations: n,
                    set_size: m,
                    workers: 4,
                    kind: FnKind::Nop,
                    seed: 3,
                }
                .build()
            };
            let small = || ClusterConfig {
                backend: seuss_platform::BackendKind::Seuss(Box::new(
                    SeussConfig::builder()
                        .mem_mib(2048)
                        .build()
                        .expect("valid config"),
                )),
                ..ClusterConfig::seuss_paper()
            };
            let want = run_trial(small(), registry.clone(), &spec);
            let mut sim = start(
                Timed::new(Cluster::new(small(), registry, &spec)),
                spec.workers,
            );
            let events = sim.run();
            let got = seuss_platform::TrialAnalysis::from_records(&sim.world().inner.records);
            assert_eq!(events, want.events);
            assert_eq!(sim.now(), want.finished_at);
            assert_eq!(format!("{got:?}"), format!("{:?}", want.analysis));
            let timed = sim.world();
            let invokes: usize = timed.path_ns.iter().map(Vec::len).sum();
            assert_eq!(invokes as u64, n, "every invoke attributed to a path");
            assert_eq!(timed.kind_count.iter().sum::<u64>(), events);
        }
    }

    #[test]
    fn micro_timings_run_on_workload_sources() {
        let srcs: Vec<String> = (0..2).map(tier_source).collect();
        let want: Vec<String> = (0..2).map(tier_expected).collect();
        let (c, e) = interp_costs(RuntimeProfile::tiny(), &srcs, &want, 8).unwrap();
        assert!(c > 0.0 && e > 0.0);
        let nop: Vec<String> = (0..2).map(nop_source).collect();
        assert!(interp_costs(RuntimeProfile::tiny(), &nop, &want, 2).is_err());
        let (c, d) = snapshot_costs(SeussConfig::test_node(), &srcs[0], 4).unwrap();
        assert!(c > 0.0 && d > 0.0);
    }
}
