//! The exact-sum invariant: with tracing enabled, every `SeussNode`
//! segment produces one top-level span whose child phase spans have
//! durations *identical* to the `PathCosts` entries the segment
//! returned, and whose own duration equals `costs.total()` — not
//! approximately, exactly. The tracer's virtual clock only moves via
//! `advance(phase_cost)` inside phase spans, so the invariant holds by
//! construction; this test keeps it that way.

use seuss_core::{Invocation, PathCosts, PathKind, SeussConfig, SeussNode};
use seuss_store::{DeviceConfig, ReclaimMode, RestorePolicy, StoreConfig};
use seuss_trace::{Phase, SpanName, SpanRecord, Tracer};
use simcore::SimDuration;

const NOP: &str = "function main(args) { return 0; }";
const IO: &str = "function main(args) { let r = http_get('http://b/q'); return r; }";

fn traced_node() -> (SeussNode, Tracer) {
    let cfg = SeussConfig::test_builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let (mut node, _) = SeussNode::new(cfg).expect("node");
    let tracer = Tracer::enabled();
    node.set_tracer(tracer.clone());
    (node, tracer)
}

fn completed(inv: Invocation) -> (PathKind, PathCosts) {
    match inv {
        Invocation::Completed { path, costs, .. } => (path, costs),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The last top-level (parentless) span and its direct children.
fn last_root(tracer: &Tracer) -> (SpanRecord, Vec<SpanRecord>) {
    let spans = tracer.spans();
    let root = *spans
        .iter()
        .rfind(|s| s.parent.is_none())
        .expect("a root span");
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .copied()
        .collect();
    (root, children)
}

/// Asserts the root span equals `costs.total()` and each child phase
/// span equals the corresponding `PathCosts` entry exactly.
fn assert_exact_sum(tracer: &Tracer, costs: &PathCosts) {
    let (root, children) = last_root(tracer);
    assert_eq!(
        root.duration().expect("closed"),
        costs.total(),
        "root span must equal costs.total() exactly"
    );
    let mut phase_sum = SimDuration::ZERO;
    for child in &children {
        let phase = match child.name {
            SpanName::Phase(p) => p,
            other => panic!("non-phase child {other:?} under {:?}", root.name),
        };
        let d = child.duration().expect("closed");
        assert_eq!(
            d,
            costs.get(phase),
            "phase span {phase:?} must equal its PathCosts entry"
        );
        phase_sum += d;
    }
    // Phases with zero cost may or may not get a span; either way the
    // recorded ones must account for the whole total.
    assert_eq!(phase_sum, costs.total(), "phase spans must cover the total");
    assert_eq!(tracer.open_spans(), 0, "no span may leak open");
}

#[test]
fn cold_path_spans_sum_exactly() {
    let (mut node, tracer) = traced_node();
    let (path, costs) = completed(node.invoke(1, NOP, &[]).expect("cold"));
    assert_eq!(path, PathKind::Cold);
    assert_exact_sum(&tracer, &costs);
    let (root, _) = last_root(&tracer);
    assert_eq!(root.name, SpanName::Invoke);
    assert_eq!(root.path, Some(PathKind::Cold));
    assert_eq!(root.fn_id, Some(1));
}

#[test]
fn hot_path_spans_sum_exactly() {
    let (mut node, tracer) = traced_node();
    node.invoke(1, NOP, &[]).expect("cold primes idle UC");
    tracer.clear();
    let (path, costs) = completed(node.invoke(1, NOP, &[]).expect("hot"));
    assert_eq!(path, PathKind::Hot);
    assert_exact_sum(&tracer, &costs);
}

#[test]
fn warm_path_spans_sum_exactly() {
    let (mut node, tracer) = traced_node();
    node.invoke(1, NOP, &[]).expect("cold primes fn snapshot");
    // Drain the idle cache so the next invocation deploys from the
    // function snapshot (warm) instead of reusing the idle UC (hot).
    while let Some(uc) = node.idle.take(1) {
        node.destroy_uc(uc);
    }
    tracer.clear();
    let (path, costs) = completed(node.invoke(1, NOP, &[]).expect("warm"));
    assert_eq!(path, PathKind::Warm);
    assert_exact_sum(&tracer, &costs);
}

#[test]
fn blocked_and_resumed_segments_each_sum_exactly() {
    let (mut node, tracer) = traced_node();
    let (token, costs) = match node.invoke(3, IO, &[]).expect("invoke") {
        Invocation::Blocked { token, costs, .. } => (token, costs),
        other => panic!("expected block, got {other:?}"),
    };
    assert_exact_sum(&tracer, &costs);

    tracer.clear();
    let (_, resume_costs) = completed(node.resume_invocation(token, "ok").expect("resume"));
    assert_exact_sum(&tracer, &resume_costs);
    let (root, _) = last_root(&tracer);
    assert_eq!(root.name, SpanName::Resume);
    assert_eq!(root.fn_id, Some(3));
}

#[test]
fn per_request_jsonl_durations_sum_to_costs() {
    // The acceptance check end to end: parse the exported JSONL, pair
    // enter/exit lines per span, and recover the per-phase durations —
    // they must reproduce PathCosts to the nanosecond.
    let (mut node, tracer) = traced_node();
    let (_, costs) = completed(node.invoke(7, NOP, &[]).expect("cold"));
    let doc = tracer.export_jsonl();
    seuss_trace::validate_jsonl(&doc).expect("well-formed");

    let mut enters: std::collections::HashMap<u64, (String, u64)> = Default::default();
    let mut phase_ns: u64 = 0;
    let mut invoke_ns: u64 = 0;
    for line in doc.lines() {
        let field = |k: &str| -> Option<String> {
            let pat = format!("\"{k}\":");
            let rest = &line[line.find(&pat)? + pat.len()..];
            let end = rest.find([',', '}']).unwrap();
            Some(rest[..end].trim_matches('"').to_string())
        };
        let ty = field("type").unwrap();
        if ty == "enter" {
            let id: u64 = field("id").unwrap().parse().unwrap();
            let t: u64 = field("t").unwrap().parse().unwrap();
            enters.insert(id, (field("name").unwrap(), t));
        } else if ty == "exit" {
            let id: u64 = field("id").unwrap().parse().unwrap();
            let t: u64 = field("t").unwrap().parse().unwrap();
            let (name, start) = enters.remove(&id).expect("exit after enter");
            if name.starts_with("phase:") {
                phase_ns += t - start;
            } else if name == "invoke" {
                invoke_ns = t - start;
            }
        }
    }
    assert_eq!(
        phase_ns,
        costs.total().as_nanos(),
        "phase lines sum to total"
    );
    assert_eq!(
        invoke_ns,
        costs.total().as_nanos(),
        "invoke line spans total"
    );
}

/// A traced node with a storage tier restoring under `policy`.
fn traced_tiered_node(policy: RestorePolicy) -> (SeussNode, Tracer) {
    let store = StoreConfig {
        device: DeviceConfig::nvme(),
        policy,
        reclaim: ReclaimMode::DemoteColdest,
    };
    let cfg = SeussConfig::test_builder()
        .mem_mib(2048)
        .store(Some(store))
        .build()
        .expect("valid tiered config");
    let (mut node, _) = SeussNode::new(cfg).expect("node");
    let tracer = Tracer::enabled();
    node.set_tracer(tracer.clone());
    (node, tracer)
}

/// Invokes `f` and drains its idle UCs, so the next invocation deploys
/// from the function snapshot.
fn invoke_fresh(node: &mut SeussNode, f: u64) -> (PathKind, PathCosts) {
    let out = completed(node.invoke(f, NOP, &[]).expect("invoke"));
    while let Some(uc) = node.idle.take(f) {
        node.destroy_uc(uc);
    }
    out
}

/// Demotes function `f`'s cached snapshot to the device by hand.
fn demote_fn(node: &mut SeussNode, f: u64) {
    let img = node.fn_cache.peek(f).expect("cached image");
    let sid = node.images.snapshot_of(img).expect("fn snapshot");
    let tier = node.tier.as_mut().expect("tiered node");
    let out = tier
        .demote(&mut node.mmu, &mut node.mem, &node.snaps, sid)
        .expect("demote");
    assert!(out.pages > 0, "diff must have pages to move");
}

/// The phase spans under the last root, in the order they opened, after
/// checking that they sum exactly to the segment: per phase and in total.
fn phase_order(tracer: &Tracer, costs: &PathCosts) -> Vec<Phase> {
    let (root, children) = last_root(tracer);
    assert_eq!(root.duration().expect("closed"), costs.total());
    let mut per_phase = PathCosts::default();
    let mut order = Vec::new();
    for child in &children {
        let SpanName::Phase(p) = child.name else {
            panic!("non-phase child {:?} under {:?}", child.name, root.name);
        };
        per_phase.set(p, per_phase.get(p) + child.duration().expect("closed"));
        order.push(p);
    }
    for (p, d) in costs.phases() {
        assert_eq!(
            per_phase.get(p),
            d,
            "{p:?} spans must sum to its PathCosts entry"
        );
    }
    assert_eq!(tracer.open_spans(), 0, "no span may leak open");
    order
}

/// The phase-span order of a warm-from-tier invocation of a demoted
/// function under `policy`, after `warmups` earlier warm-from-tier runs.
fn warm_tier_phases(policy: RestorePolicy, warmups: usize) -> Vec<Phase> {
    let (mut node, tracer) = traced_tiered_node(policy);
    assert_eq!(invoke_fresh(&mut node, 1).0, PathKind::Cold);
    demote_fn(&mut node, 1);
    for _ in 0..warmups {
        assert_eq!(invoke_fresh(&mut node, 1).0, PathKind::WarmTier);
    }
    tracer.clear();
    let (path, costs) = invoke_fresh(&mut node, 1);
    assert_eq!(path, PathKind::WarmTier, "{policy:?}");
    assert!(
        costs.restore > SimDuration::ZERO,
        "{policy:?}: tier work costs"
    );
    let (root, _) = last_root(&tracer);
    assert_eq!(root.path, Some(PathKind::WarmTier));
    phase_order(&tracer, &costs)
}

#[test]
fn warm_tier_eager_restores_before_the_deploy() {
    let order = warm_tier_phases(RestorePolicy::EagerFull, 0);
    assert_eq!(
        order,
        [
            Phase::Restore,
            Phase::Deploy,
            Phase::Connect,
            Phase::Exec,
            Phase::Respond
        ]
    );
}

#[test]
fn warm_tier_prefetch_restores_after_the_deploy() {
    // The first run off the demoted snapshot records the working set;
    // the second prefetches it into the fresh UC mid-deploy.
    let order = warm_tier_phases(RestorePolicy::WorkingSetPrefetch, 1);
    assert_eq!(
        order,
        [
            Phase::Deploy,
            Phase::Restore,
            Phase::Connect,
            Phase::Exec,
            Phase::Respond
        ]
    );
}

#[test]
fn warm_tier_lazy_books_swap_ins_as_a_restore_before_respond() {
    let order = warm_tier_phases(RestorePolicy::LazyPaging, 0);
    assert_eq!(
        order,
        [
            Phase::Deploy,
            Phase::Connect,
            Phase::Exec,
            Phase::Restore,
            Phase::Respond
        ]
    );
}
