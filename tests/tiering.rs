//! Cross-crate tiering tests: the storage tier end to end through the
//! node, the cluster, and the sharded executor.
//!
//! - a demoted snapshot keeps its results through a real deploy under
//!   every restore policy, and a restore maps back exactly the demoted
//!   pages;
//! - working-set prefetch is strictly cheaper than lazy paging and
//!   never dearer than the eager full restore on the recorded set;
//! - a fault-free tiered run whose device never has to absorb pressure
//!   is byte-identical to the untiered in-memory path;
//! - a pressured, demoting, sharded trial is byte-identical at 1, 2,
//!   and 4 worker threads.

use seuss::core::{Invocation, PathKind, SeussConfig, SeussNode};
use seuss::exec::{run_sharded, ShardPlan};
use seuss::platform::{run_trial, BackendKind, ClusterConfig, FnKind};
use seuss::store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig};
use seuss::trace::Tracer;
use seuss::workload::TrialParams;
use simcore::SimDuration;

/// A function whose result depends on a multi-page data literal, so a
/// restore that lost or corrupted a page changes the answer.
fn checksum_src() -> String {
    let cells: Vec<String> = (0..256u64)
        .map(|i| (i * 2654435761 % 997).to_string())
        .collect();
    format!(
        "let table = [{}];\n\
         function main(args) {{ let acc = 0; \
         for (let i = 0; i < 256; i = i + 1) {{ acc = acc + table[i] * (i + 1); }} \
         return acc; }}",
        cells.join(",")
    )
}

fn store_cfg(policy: RestorePolicy) -> StoreConfig {
    StoreConfig {
        device: DeviceConfig::nvme(),
        policy,
        reclaim: ReclaimMode::DemoteColdest,
    }
}

fn tiered_node(policy: RestorePolicy) -> SeussNode {
    let cfg = SeussConfig::test_builder()
        .store(Some(store_cfg(policy)))
        .build()
        .expect("valid tiered config");
    SeussNode::new(cfg).expect("node init").0
}

fn completed(inv: Invocation) -> (PathKind, String, SimDuration) {
    match inv {
        Invocation::Completed {
            path,
            result,
            costs,
            ..
        } => (path, result, costs.restore),
        Invocation::Blocked { .. } => panic!("workload never blocks"),
    }
}

/// Invokes once and drains the idle UC so the next invocation redeploys
/// from the snapshot cache instead of reusing the hot UC.
fn invoke_fresh(node: &mut SeussNode, f: u64, src: &str) -> (PathKind, String, SimDuration) {
    let out = completed(node.invoke(f, src, &[]).expect("invoke"));
    while let Some(uc) = node.idle.take(f) {
        node.destroy_uc(uc);
    }
    out
}

/// Demotes function `f`'s snapshot to the device by hand (no pressure
/// staging), returning its id.
fn demote_fn(node: &mut SeussNode, f: u64) -> seuss::snapshot::SnapshotId {
    let sid = node.fn_cache.peek(f).expect("cached image");
    let tier = node.tier.as_mut().expect("tiered node");
    let out = tier
        .demote(&mut node.mmu, &mut node.mem, &node.snaps, sid)
        .expect("demote");
    assert!(out.pages > 0, "diff must have pages to move");
    sid
}

/// The virtual page numbers snapshot `sid` maps, and those it holds
/// swapped out to the device.
fn pages_of(node: &SeussNode, sid: seuss::snapshot::SnapshotId) -> (Vec<u64>, Vec<u64>) {
    let root = node.snaps.get(sid).expect("snapshot alive").root();
    let mapped = node.mmu.collect_mapped(root).into_iter();
    let swapped = node.mmu.collect_swapped(root).into_iter();
    (
        mapped.map(|(vpn, _)| vpn).collect(),
        swapped.map(|(vpn, _)| vpn).collect(),
    )
}

#[test]
fn demoted_snapshots_restore_exactly_their_pages_under_every_policy() {
    let src = checksum_src();
    for policy in [
        RestorePolicy::LazyPaging,
        RestorePolicy::EagerFull,
        RestorePolicy::WorkingSetPrefetch,
    ] {
        let mut node = tiered_node(policy);
        let (p0, expected, _) = invoke_fresh(&mut node, 7, &src);
        assert_eq!(p0, PathKind::Cold);
        let (p1, warm, _) = invoke_fresh(&mut node, 7, &src);
        assert_eq!(p1, PathKind::Warm, "{policy:?}: resident redeploy");
        assert_eq!(warm, expected);

        let resident = pages_of(&node, node.fn_cache.peek(7).expect("cached image"));
        assert!(resident.1.is_empty(), "{policy:?}: swapped before demotion");
        let sid = demote_fn(&mut node, 7);
        let demoted = pages_of(&node, sid);
        let mut all = [demoted.0.clone(), demoted.1.clone()].concat();
        all.sort_unstable();
        assert_eq!(all, resident.0, "{policy:?}: demotion changed the page set");
        for round in 0..3 {
            let (path, result, _) = invoke_fresh(&mut node, 7, &src);
            assert_eq!(
                result, expected,
                "{policy:?}: round {round} result diverged after demotion"
            );
            // Eager promotes on its first tiered deploy, so later rounds
            // are plain warm; lazy and ws keep the snapshot demoted.
            let expect_tier = match policy {
                RestorePolicy::EagerFull => round == 0,
                _ => true,
            };
            assert_eq!(
                path,
                if expect_tier {
                    PathKind::WarmTier
                } else {
                    PathKind::Warm
                },
                "{policy:?}: round {round}"
            );
            // Eager maps every demoted page back into the snapshot; lazy
            // and ws restore into the UC and leave the snapshot as it was.
            let want = match policy {
                RestorePolicy::EagerFull => &resident,
                _ => &demoted,
            };
            assert_eq!(&pages_of(&node, sid), want, "{policy:?}: round {round}");
        }
        assert!(
            node.snaps.verify(sid).expect("snapshot alive"),
            "{policy:?}: checksum broken by tiering"
        );
    }
}

#[test]
fn prefetch_beats_lazy_and_never_exceeds_eager_on_the_recorded_set() {
    let src = checksum_src();
    let mut restore1 = std::collections::HashMap::new();
    let mut restore2 = std::collections::HashMap::new();
    for policy in [
        RestorePolicy::LazyPaging,
        RestorePolicy::EagerFull,
        RestorePolicy::WorkingSetPrefetch,
    ] {
        let mut node = tiered_node(policy);
        invoke_fresh(&mut node, 3, &src);
        demote_fn(&mut node, 3);
        let (p1, _, r1) = invoke_fresh(&mut node, 3, &src);
        assert_eq!(p1, PathKind::WarmTier);
        let (_, _, r2) = invoke_fresh(&mut node, 3, &src);
        restore1.insert(policy.as_str(), r1);
        restore2.insert(policy.as_str(), r2);
        if policy == RestorePolicy::WorkingSetPrefetch {
            assert_eq!(
                node.tier.as_ref().unwrap().stats().prefetches,
                1,
                "second tiered deploy must batch-prefetch"
            );
        }
    }
    let ws2 = restore2["ws"];
    assert!(ws2 > SimDuration::ZERO, "prefetch restore must be measured");
    assert!(
        ws2 < restore2["lazy"],
        "prefetch {ws2:?} not under lazy {:?}",
        restore2["lazy"]
    );
    assert!(
        ws2 <= restore1["eager"],
        "prefetch {ws2:?} dearer than eager's full restore {:?}",
        restore1["eager"]
    );
    // Lazy pays per-page latency on every single redeploy; the recording
    // pass is lazy too, so the ws side's first tiered deploy matches it.
    assert!(restore1["lazy"] > SimDuration::ZERO);
    assert_eq!(restore1["ws"], restore1["lazy"]);
    // Eager's restore happens once: the second deploy is resident.
    assert_eq!(restore2["eager"], SimDuration::ZERO);
}

#[test]
fn unpressured_tiered_trial_is_byte_identical_to_the_in_memory_path() {
    // 2 GiB node, tiny workload: the reclaim threshold is never crossed,
    // so the tier — though configured — never acts. The entire record
    // stream must match the untiered run bit for bit.
    let run = |store: Option<StoreConfig>| {
        let node = SeussConfig::builder()
            .mem_mib(2048)
            .store(store)
            .build()
            .expect("valid config");
        let cfg = ClusterConfig {
            backend: BackendKind::Seuss(Box::new(node)),
            ..ClusterConfig::seuss_paper()
        };
        let (reg, spec) = TrialParams {
            invocations: 192,
            set_size: 24,
            workers: 8,
            kind: FnKind::Nop,
            seed: 1234,
        }
        .build();
        let out = run_trial(cfg, reg, &spec);
        (out.records_jsonl(), out.finished_at, out.events)
    };
    let untiered = run(None);
    let tiered = run(Some(StoreConfig::nvme_prefetch()));
    assert_eq!(untiered, tiered, "an idle tier changed the trial's bytes");
}

#[test]
fn pressured_sharded_trial_is_byte_identical_at_1_2_and_4_workers() {
    // Shard nodes with barely more DRAM than boot needs (a 44 MiB node
    // fails to boot), so free memory sits near the default 2 % reclaim
    // threshold from the start: every shard's OOM daemon demotes through
    // its own store view during the trial. Shard count is fixed (it
    // determines the bytes); the worker count must not matter.
    let node = SeussConfig::test_builder()
        .mem_mib(45)
        .store(Some(StoreConfig::nvme_prefetch()))
        .build()
        .expect("valid pressured config");
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        tracer: Tracer::enabled(),
        ..ClusterConfig::seuss_paper()
    };
    let (reg, spec) = TrialParams {
        invocations: 160,
        set_size: 32,
        workers: 8,
        kind: FnKind::Nop,
        seed: 77,
    }
    .build();

    let base = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, 1));
    let metrics = base.metrics_report().to_json();
    assert!(
        metrics.contains("tier:demote"),
        "pressure never reached the tier; the test is vacuous"
    );
    for workers in [2, 4] {
        let got = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, workers));
        assert_eq!(
            base.records_jsonl(),
            got.records_jsonl(),
            "records diverged at workers={workers}"
        );
        assert_eq!(
            base.trace_jsonl(),
            got.trace_jsonl(),
            "trace diverged at workers={workers}"
        );
        assert_eq!(
            metrics,
            got.metrics_report().to_json(),
            "metrics diverged at workers={workers}"
        );
    }
}
