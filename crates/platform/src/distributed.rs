//! DR-SEUSS: a distributed, replicated global snapshot cache (§9).
//!
//! "We view the natural evolution of SEUSS as spanning across nodes to
//! provide a distributed & replicated global cache. … The read-only and
//! deploy-anywhere properties of unikernel snapshots suggest they can be
//! cloned and deployed across machines with similar hardware profiles."
//! (§9 — including the footnote obliging the rename to DR-SEUSS.)
//!
//! The cluster keeps one SEUSS node per machine. Every node boots the
//! same runtime snapshot, so a *function* snapshot
//! migrates as its ~2 MiB diff: when a request lands on a node without
//! the function cached but some other node holds it, the diff is fetched
//! over the datacenter link and installed locally — a **remote-warm**
//! start that skips import+compile entirely. The experiment
//! `reproduce run dr_seuss` compares that against recompiling locally
//! (cold) and against shipping the full image.

use std::collections::HashMap;

use seuss_core::{FnId, Invocation, NodeError, PathKind, SeussConfig, SeussNode};
use simcore::SimDuration;

/// Fixed cost of one snapshot fetch over the 10 GbE datacenter link
/// (200 µs RTT, 30 µs per message): the TCP handshake (1.5 RTT + 2
/// messages = 360 µs) and the request's one-way trip (RTT/2 + 1 message
/// = 130 µs).
const LINK_SETUP: SimDuration = SimDuration::from_micros(490);

/// Inter-node bandwidth: 10 GbE ≈ 1.25 GB/s.
const LINK_BYTES_PER_S: f64 = 1.25e9;

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
    pub(crate) local_warm: u64,
    /// Local cold starts.
    pub local_cold: u64,
    /// Remote-warm starts (snapshot migrations).
    pub remote_warm: u64,
    /// Bytes shipped between nodes.
    pub bytes_transferred: u64,
}

/// A multi-node SEUSS cluster with a replicated snapshot index.
pub struct DrSeussCluster {
    /// The compute nodes.
    pub nodes: Vec<SeussNode>,
    /// Global index: which nodes hold each function's snapshot.
    index: HashMap<FnId, Vec<usize>>,
    /// Statistics.
    pub stats: DrStats,
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
                nodes,
                index: HashMap::new(),
                stats: DrStats::default(),
            },
            init,
        ))
    }

    /// Time to ship `bytes` between two nodes.
    pub fn transfer_cost(&self, bytes: u64) -> SimDuration {
        LINK_SETUP + SimDuration::from_secs_f64(bytes as f64 / LINK_BYTES_PER_S)
    }

    /// Which nodes currently hold `f`'s snapshot.
    pub(crate) fn holders(&self, f: FnId) -> &[usize] {
        self.index.get(&f).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Serves an invocation that the load balancer routed to `at`.
    ///
    /// Policy: local cache first; else fetch the snapshot diff from a
    /// holder; else cold-start locally and publish to the index.
    pub fn invoke_at(
        &mut self,
        at: usize,
        f: FnId,
        src: &str,
        args: &[(&str, &str)],
    ) -> Result<(DrPath, SimDuration, String), NodeError> {
        assert!(at < self.nodes.len(), "no such node");
        // Remote fetch decision happens before invoking: if the receiving
        // node has no cached state but a peer does, migrate first.
        let locally_cached =
            self.nodes[at].fn_cache.lookup(f).is_some() || self.nodes[at].idle.count_for(f) > 0;
        let mut extra = SimDuration::ZERO;
        let mut fetched = false;
        if !locally_cached {
            if let Some(h) = self.holders(f).iter().copied().find(|&h| h != at) {
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

    /// Migrates `f`'s snapshot from node `from` to node `to` as a diff
    /// against the runtime snapshot both nodes share. Returns the
    /// transfer + install cost.
    pub(crate) fn fetch(
        &mut self,
        f: FnId,
        from: usize,
        to: usize,
    ) -> Result<SimDuration, NodeError> {
        let package = {
            let src_node = &mut self.nodes[from];
            let img = src_node
                .fn_cache
                .lookup(f)
                .ok_or_else(|| NodeError::Function(format!("fn {f} not cached on node {from}")))?;
            let parent = src_node.runtime_image();
            src_node
                .images
                .export(&src_node.mmu, &src_node.snaps, img, parent)
                .map_err(|e| NodeError::Function(e.to_string()))?
        };
        let bytes = package.wire_bytes();
        let dst = &mut self.nodes[to];
        let parent = dst.runtime_image();
        let img = dst
            .images
            .import(&mut dst.mmu, &mut dst.mem, &mut dst.snaps, &package, parent)
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
