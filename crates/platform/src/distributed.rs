//! DR-SEUSS: a distributed, replicated global snapshot cache (§9).
//!
//! "We view the natural evolution of SEUSS as spanning across nodes to
//! provide a distributed & replicated global cache. … The read-only and
//! deploy-anywhere properties of unikernel snapshots suggest they can be
//! cloned and deployed across machines with similar hardware profiles."
//! (§9 — including the footnote obliging the rename to DR-SEUSS.)
//!
//! The cluster keeps one SEUSS node per machine. Every node boots the
//! same per-interpreter runtime snapshots, so a *function* snapshot
//! migrates as its ~2 MiB diff: when a request lands on a node without
//! the function cached but some other node holds it, the diff is fetched
//! over the datacenter link and installed locally — a **remote-warm**
//! start that skips import+compile entirely. The experiment in
//! `seuss-bench --bin dr_seuss` compares that against recompiling
//! locally (cold) and against shipping the full image.

use std::collections::HashMap;

use seuss_core::{FnId, Invocation, NodeError, PathKind, SeussConfig, SeussNode};
use seuss_net::TcpCostModel;
use seuss_trace::{TraceEvent, Tracer};
use simcore::SimDuration;

/// How a distributed invocation was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrPath {
    /// Idle UC on the receiving node.
    LocalHot,
    /// Function snapshot cached on the receiving node.
    LocalWarm,
    /// Nothing cached anywhere: local cold start (and the cluster index
    /// learns the new home).
    LocalCold,
    /// Fetched the function snapshot diff from its home node, installed
    /// it, and served a warm start.
    RemoteWarm,
}

/// Cluster-wide statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrStats {
    /// Local hot starts.
    pub local_hot: u64,
    /// Local warm starts.
    pub local_warm: u64,
    /// Local cold starts.
    pub local_cold: u64,
    /// Remote-warm starts (snapshot migrations).
    pub remote_warm: u64,
    /// Bytes shipped between nodes.
    pub bytes_transferred: u64,
    /// Invocations rerouted away from an unhealthy node.
    pub failovers: u64,
}

/// A multi-node SEUSS cluster with a replicated snapshot index.
pub struct DrSeussCluster {
    /// The compute nodes.
    pub nodes: Vec<SeussNode>,
    /// Global index: which nodes hold each function's snapshot.
    index: HashMap<FnId, Vec<usize>>,
    /// Inter-node link model.
    pub link: TcpCostModel,
    /// Inter-node bandwidth (10 GbE ≈ 1.25 GB/s).
    pub bandwidth_bytes_per_s: f64,
    /// Statistics.
    pub stats: DrStats,
    /// Per-node health; the load balancer routes around `false` entries.
    healthy: Vec<bool>,
    /// Cluster-level trace sink (failovers, crashes, restarts).
    pub tracer: Tracer,
}

impl DrSeussCluster {
    /// Builds a cluster of `n` identical nodes. Returns the cluster and
    /// the total initialization cost (nodes boot in parallel, so the
    /// virtual cost is one node's init).
    pub fn new(n: usize, cfg: SeussConfig) -> Result<(DrSeussCluster, SimDuration), NodeError> {
        assert!(n > 0, "a cluster needs at least one node");
        let mut nodes = Vec::with_capacity(n);
        let mut init = SimDuration::ZERO;
        for _ in 0..n {
            let (node, cost) = SeussNode::new(cfg.clone())?;
            init = init.max(cost);
            nodes.push(node);
        }
        Ok((
            DrSeussCluster {
                healthy: vec![true; nodes.len()],
                nodes,
                index: HashMap::new(),
                link: TcpCostModel::datacenter(),
                bandwidth_bytes_per_s: 1.25e9,
                stats: DrStats::default(),
                tracer: Tracer::disabled(),
            },
            init,
        ))
    }

    /// Whether node `n` is currently serving.
    pub fn is_healthy(&self, n: usize) -> bool {
        self.healthy.get(n).copied().unwrap_or(false)
    }

    /// Healthy node count (the cluster's serving capacity).
    pub fn healthy_count(&self) -> usize {
        self.healthy.iter().filter(|&&h| h).count()
    }

    /// Crashes node `n`: its UC and snapshot caches are lost, the global
    /// index forgets its replicas (they died with it), and the load
    /// balancer routes around it until [`DrSeussCluster::restart_node`].
    /// Returns how many cached items the node lost.
    pub fn crash_node(&mut self, n: usize) -> u64 {
        assert!(n < self.nodes.len(), "no such node");
        let lost = self.nodes[n].crash();
        self.healthy[n] = false;
        for holders in self.index.values_mut() {
            holders.retain(|&h| h != n);
        }
        self.index.retain(|_, holders| !holders.is_empty());
        self.tracer.event(TraceEvent::FaultNodeCrash);
        lost
    }

    /// The crashed node rejoins with empty caches; peers re-seed it on
    /// demand through remote-warm fetches.
    pub fn restart_node(&mut self, n: usize) {
        assert!(n < self.nodes.len(), "no such node");
        if !self.healthy[n] {
            self.healthy[n] = true;
            self.tracer.event(TraceEvent::FaultNodeRestart);
        }
    }

    /// Time to ship `bytes` between two nodes.
    pub fn transfer_cost(&self, bytes: u64) -> SimDuration {
        self.link.handshake()
            + self.link.transfer(0)
            + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_s)
    }

    /// Which nodes currently hold `f`'s snapshot.
    pub fn holders(&self, f: FnId) -> &[usize] {
        self.index.get(&f).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Serves an invocation that the load balancer routed to `at`.
    ///
    /// Policy: if `at` is unhealthy, fail over to the nearest healthy
    /// node (ring order — deterministic). Then local cache first; else
    /// fetch the snapshot diff from any *healthy* holder; else cold-start
    /// locally and publish to the index.
    pub fn invoke_at(
        &mut self,
        at: usize,
        f: FnId,
        src: &str,
        args: &[(&str, &str)],
    ) -> Result<(DrPath, SimDuration, String), NodeError> {
        assert!(at < self.nodes.len(), "no such node");
        let at = if self.healthy[at] {
            at
        } else {
            let n = self.nodes.len();
            let Some(alt) = (1..n).map(|d| (at + d) % n).find(|&i| self.healthy[i]) else {
                return Err(NodeError::Function("no healthy node in the cluster".into()));
            };
            self.tracer.event(TraceEvent::FaultFailover);
            self.stats.failovers += 1;
            alt
        };

        // Remote fetch decision happens before invoking: if the receiving
        // node has no cached state but a peer does, migrate first.
        let locally_cached =
            self.nodes[at].fn_cache.lookup(f).is_some() || self.nodes[at].idle.count_for(f) > 0;
        let mut extra = SimDuration::ZERO;
        let mut fetched = false;
        if !locally_cached {
            let holder = self
                .holders(f)
                .iter()
                .copied()
                .find(|&h| h != at && self.healthy[h]);
            if let Some(h) = holder {
                extra += self.fetch(f, h, at)?;
                fetched = true;
            }
        }

        let inv = self.nodes[at].invoke(f, src, args)?;
        let (path, costs, result) = match inv {
            Invocation::Completed {
                path,
                costs,
                result,
                ..
            } => (path, costs, result),
            Invocation::Blocked { .. } => {
                return Err(NodeError::Function(
                    "DR harness does not model blocking IO".into(),
                ))
            }
        };
        let dr_path = match (fetched, path) {
            (true, _) => DrPath::RemoteWarm,
            (false, PathKind::Hot) => DrPath::LocalHot,
            (false, PathKind::Warm | PathKind::WarmTier) => DrPath::LocalWarm,
            (false, PathKind::Cold) => {
                // First sighting cluster-wide: publish the new snapshot.
                self.index.entry(f).or_default().push(at);
                DrPath::LocalCold
            }
        };
        match dr_path {
            DrPath::LocalHot => self.stats.local_hot += 1,
            DrPath::LocalWarm => self.stats.local_warm += 1,
            DrPath::LocalCold => self.stats.local_cold += 1,
            DrPath::RemoteWarm => self.stats.remote_warm += 1,
        }
        Ok((dr_path, costs.total() + extra, result))
    }

    /// Decommissions a node: migrates every function snapshot it uniquely
    /// holds to the least-loaded peer, then forgets the node's index
    /// entries. Returns `(functions migrated, total transfer cost)` —
    /// draining is how a DR-SEUSS cluster scales down without losing its
    /// global cache.
    pub fn drain(&mut self, node: usize) -> Result<(u64, SimDuration), NodeError> {
        assert!(self.nodes.len() > 1, "cannot drain the last node");
        let mut unique: Vec<FnId> = self
            .index
            .iter()
            .filter(|(_, holders)| holders.contains(&node) && holders.len() == 1)
            .map(|(&f, _)| f)
            .collect();
        // Migrate in function order, not the index's hash order, so the
        // same cluster always sends each function to the same peer.
        unique.sort_unstable();
        // Each node's index entries: the functions it holds.
        let mut load = vec![0usize; self.nodes.len()];
        for holders in self.index.values() {
            for (n, entries) in load.iter_mut().enumerate() {
                *entries += usize::from(holders.contains(&n));
            }
        }
        let mut cost = SimDuration::ZERO;
        let mut migrated = 0u64;
        for f in unique {
            // Least-loaded healthy peer = fewest index entries; ties go to
            // the lowest node index.
            let target = (0..self.nodes.len())
                .filter(|&n| n != node && self.healthy[n])
                .min_by_key(|&n| load[n])
                .expect("healthy peer exists");
            cost += self.fetch(f, node, target)?;
            // `f` was held by `node` alone, so it is a new entry for `target`.
            load[target] += 1;
            migrated += 1;
        }
        for holders in self.index.values_mut() {
            holders.retain(|&h| h != node);
        }
        Ok((migrated, cost))
    }

    /// Migrates `f`'s snapshot from node `from` to node `to` as a diff
    /// against the runtime snapshot both nodes share. Returns the
    /// transfer + install cost.
    pub fn fetch(&mut self, f: FnId, from: usize, to: usize) -> Result<SimDuration, NodeError> {
        let package = {
            let src_node = &mut self.nodes[from];
            let img = src_node
                .fn_cache
                .lookup(f)
                .ok_or_else(|| NodeError::Function(format!("fn {f} not cached on node {from}")))?;
            let parent = src_node.runtime_image();
            src_node
                .images
                .export(&src_node.mmu, &src_node.mem, &src_node.snaps, img, parent)
                .map_err(|e| NodeError::Function(e.to_string()))?
        };
        let bytes = package.wire_bytes();
        let dst = &mut self.nodes[to];
        let parent = dst.runtime_image().ok_or(NodeError::NotInitialized)?;
        let img = dst
            .images
            .import(
                &mut dst.mmu,
                &mut dst.mem,
                &mut dst.snaps,
                &package,
                Some(parent),
            )
            .map_err(|e| NodeError::Function(e.to_string()))?;
        dst.install_fn_image(f, img);
        self.index.entry(f).or_default().push(to);
        self.stats.bytes_transferred += bytes;
        // Install cost: the import's page writes are charged like a
        // capture (per-page clone) on top of the wire time.
        Ok(
            self.transfer_cost(bytes)
                + SimDuration::from_nanos(800) * package.snapshot.page_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOP: &str = "function main(args) { return 0; }";

    fn small_cfg() -> SeussConfig {
        SeussConfig::builder()
            .mem_mib(2048)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn remote_warm_beats_local_cold() {
        let (mut cluster, _) = DrSeussCluster::new(2, small_cfg()).expect("cluster");
        // Function first seen on node 0: local cold.
        let (p0, cold_cost, _) = cluster.invoke_at(0, 7, NOP, &[]).expect("cold");
        assert_eq!(p0, DrPath::LocalCold);
        // Same function lands on node 1: fetched as a diff, warm-started.
        let (p1, remote_cost, r) = cluster.invoke_at(1, 7, NOP, &[]).expect("remote");
        assert_eq!(p1, DrPath::RemoteWarm);
        assert_eq!(r, "0");
        assert!(
            remote_cost < cold_cost,
            "remote warm {remote_cost:?} must beat local cold {cold_cost:?}"
        );
        assert!(cluster.stats.bytes_transferred > 0);
        // Node 1 now serves it hot without any further transfer.
        let (p2, _, _) = cluster.invoke_at(1, 7, NOP, &[]).expect("hot");
        assert_eq!(p2, DrPath::LocalHot);
        assert_eq!(cluster.stats.remote_warm, 1);
    }

    #[test]
    fn diff_migration_ships_megabytes_not_the_runtime() {
        let (mut cluster, _) = DrSeussCluster::new(2, small_cfg()).expect("cluster");
        cluster.invoke_at(0, 1, NOP, &[]).expect("cold");
        cluster.invoke_at(1, 1, NOP, &[]).expect("remote");
        let shipped_mib = cluster.stats.bytes_transferred as f64 / (1024.0 * 1024.0);
        // The ~2 MiB function diff, not the ~114 MiB runtime image.
        assert!(shipped_mib < 4.0, "shipped {shipped_mib} MiB");
        assert!(shipped_mib > 0.5);
    }

    #[test]
    fn index_tracks_replicas() {
        let (mut cluster, _) = DrSeussCluster::new(3, small_cfg()).expect("cluster");
        cluster.invoke_at(0, 5, NOP, &[]).expect("cold");
        assert_eq!(cluster.holders(5), &[0]);
        cluster.invoke_at(2, 5, NOP, &[]).expect("remote");
        assert_eq!(cluster.holders(5), &[0, 2]);
        // Node 1 can now fetch from either replica.
        let (p, _, _) = cluster.invoke_at(1, 5, NOP, &[]).expect("remote 2");
        assert_eq!(p, DrPath::RemoteWarm);
        assert_eq!(cluster.holders(5).len(), 3);
    }

    #[test]
    fn draining_a_node_preserves_the_global_cache() {
        let (mut cluster, _) = DrSeussCluster::new(3, small_cfg()).expect("cluster");
        // Functions 1..4 live only on node 0.
        for f in 1..4u64 {
            cluster.invoke_at(0, f, NOP, &[]).expect("cold");
        }
        let (migrated, cost) = cluster.drain(0).expect("drain");
        assert_eq!(migrated, 3);
        assert!(cost > SimDuration::ZERO);
        // Node 0 is out of the index; peers can serve without it.
        for f in 1..4u64 {
            assert!(!cluster.holders(f).contains(&0));
            let (p, _, _) = cluster
                .invoke_at(cluster.holders(f)[0], f, NOP, &[])
                .expect("serve");
            assert!(matches!(p, DrPath::LocalWarm | DrPath::LocalHot), "{p:?}");
        }
    }

    #[test]
    fn drain_spreads_functions_to_the_least_loaded_peers() {
        let (mut cluster, _) = DrSeussCluster::new(4, small_cfg()).expect("cluster");
        // Node 1 already holds two functions, node 2 one, node 3 none.
        for (node, f) in [(1, 20), (1, 21), (2, 22)] {
            cluster
                .invoke_at(node, f, NOP, &[])
                .expect("cold on a peer");
        }
        // Functions 1..=5 live only on node 0; function 9 is shared.
        for f in 1..=5u64 {
            cluster.invoke_at(0, f, NOP, &[]).expect("cold on 0");
        }
        cluster.invoke_at(0, 9, NOP, &[]).expect("cold on 0");
        cluster.invoke_at(3, 9, NOP, &[]).expect("remote-warm on 3");
        // Loads before the drain: node 1 = 2, node 2 = 1, node 3 = 1.
        let (migrated, _) = cluster.drain(0).expect("drain");
        assert_eq!(migrated, 5);
        // Each function goes to the peer with the fewest entries at that
        // moment, the lowest index winning ties (loads of nodes 1, 2, 3
        // after each move): f1 → 2 (2,2,1), f2 → 3 (2,2,2),
        // f3 → 1 (3,2,2), f4 → 2 (3,3,2), f5 → 3 (3,3,3).
        let targets: Vec<&[usize]> = (1..=5u64).map(|f| cluster.holders(f)).collect();
        assert_eq!(targets, [&[2][..], &[3], &[1], &[2], &[3]]);
        assert_eq!(cluster.holders(9), &[3], "a shared function stays put");
    }

    #[test]
    fn crash_fails_over_then_restart_refetches_from_peer() {
        let (mut cluster, _) = DrSeussCluster::new(3, small_cfg()).expect("cluster");
        cluster.tracer = Tracer::enabled();
        cluster.invoke_at(0, 7, NOP, &[]).expect("cold on 0");
        cluster.invoke_at(1, 7, NOP, &[]).expect("remote-warm on 1");

        let lost = cluster.crash_node(0);
        assert!(lost > 0, "the crash destroyed cached state");
        assert!(!cluster.is_healthy(0));
        assert_eq!(cluster.healthy_count(), 2);
        assert_eq!(cluster.holders(7), &[1], "node 0's replica died with it");

        // Requests the balancer aims at the dead node fail over to the
        // next node in the ring, which still holds the snapshot.
        let (p, _, r) = cluster.invoke_at(0, 7, NOP, &[]).expect("failover");
        assert_eq!(r, "0");
        assert!(matches!(p, DrPath::LocalHot | DrPath::LocalWarm), "{p:?}");
        assert_eq!(cluster.stats.failovers, 1);

        // The rebooted node rejoins empty and re-seeds from its peer.
        cluster.restart_node(0);
        assert_eq!(cluster.healthy_count(), 3);
        let (p, _, _) = cluster.invoke_at(0, 7, NOP, &[]).expect("re-fetch");
        assert_eq!(p, DrPath::RemoteWarm, "peer re-seeds the rejoined node");
        assert!(cluster.holders(7).contains(&0));

        let events = cluster.tracer.events();
        let count = |ev: TraceEvent| events.iter().filter(|e| e.event == ev).count();
        assert_eq!(count(TraceEvent::FaultNodeCrash), 1);
        assert_eq!(count(TraceEvent::FaultNodeRestart), 1);
        assert_eq!(count(TraceEvent::FaultFailover), 1);
    }

    #[test]
    fn crashing_every_holder_degrades_to_cold_without_data_loss() {
        let (mut cluster, _) = DrSeussCluster::new(2, small_cfg()).expect("cluster");
        cluster.invoke_at(0, 3, NOP, &[]).expect("cold on 0");
        cluster.crash_node(0);
        assert!(cluster.holders(3).is_empty(), "the only replica is gone");
        // Failover lands on node 1, which recompiles from source (cold)
        // and republishes — graceful degradation, not an error.
        let (p, _, r) = cluster.invoke_at(0, 3, NOP, &[]).expect("degraded");
        assert_eq!(p, DrPath::LocalCold);
        assert_eq!(r, "0");
        assert_eq!(cluster.holders(3), &[1]);
    }

    #[test]
    fn all_nodes_down_is_an_error() {
        let (mut cluster, _) = DrSeussCluster::new(2, small_cfg()).expect("cluster");
        cluster.crash_node(0);
        cluster.crash_node(1);
        assert_eq!(cluster.healthy_count(), 0);
        assert!(cluster.invoke_at(0, 1, NOP, &[]).is_err());
        // One restart restores availability.
        cluster.restart_node(1);
        assert!(cluster.invoke_at(0, 1, NOP, &[]).is_ok());
        assert_eq!(cluster.stats.failovers, 1);
    }

    #[test]
    fn migrated_function_runs_correctly() {
        let (mut cluster, _) = DrSeussCluster::new(2, small_cfg()).expect("cluster");
        let src = "let greeting = 'state-' + (40 + 2); function main(args) { return greeting; }";
        let (_, _, r0) = cluster.invoke_at(0, 9, src, &[]).expect("cold");
        assert_eq!(r0, "state-42");
        // The migrated snapshot carries the compiled program AND its
        // module state (the top-level `greeting` global lives in shipped
        // heap pages + the interpreter mirror).
        let (p, _, r1) = cluster.invoke_at(1, 9, src, &[]).expect("remote");
        assert_eq!(p, DrPath::RemoteWarm);
        assert_eq!(r1, "state-42");
    }
}
