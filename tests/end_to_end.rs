//! Cross-crate integration tests: the full SEUSS stack driven through
//! the `seuss` facade, exercising properties no single crate can test —
//! multi-tenant isolation across shared snapshots, platform-level flows
//! with blocking IO, and memory behaviour under sustained load.

use seuss::core::{AoLevel, Invocation, NodeError, SeussConfig, SeussNode};
use seuss::platform::{
    run_trial, BackendKind, ClusterConfig, FnKind, Registry, RequestStatus, WorkloadSpec,
};
use seuss::sim::SimDuration;

fn small_node() -> SeussNode {
    let cfg = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    SeussNode::new(cfg).expect("node").0
}

fn completed(inv: Invocation) -> String {
    match inv {
        Invocation::Completed { result, .. } => result,
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn tenants_sharing_a_base_snapshot_cannot_see_each_other() {
    let mut node = small_node();
    // Tenant A stashes a "secret" in its interpreter globals.
    let a = "let secret = 'tenant-a-credentials'; function main(args) { return secret; }";
    assert_eq!(
        completed(node.invoke(1, a, &[]).expect("a")),
        "tenant-a-credentials"
    );
    // Tenant B — deployed from the same base snapshot — must not resolve
    // tenant A's global.
    let b = "function main(args) { return secret; }";
    match node.invoke(2, b, &[]) {
        Err(NodeError::Function(msg)) => assert!(msg.contains("secret"), "{msg}"),
        other => panic!("tenant B read tenant A's state: {other:?}"),
    }
}

#[test]
fn function_state_resets_per_uc_but_persists_within_one() {
    let mut node = small_node();
    let src = "let n = 0; function main(args) { n = n + 1; return n; }";
    // Cold then hot reuse the same UC: the counter advances.
    assert_eq!(completed(node.invoke(5, src, &[]).expect("cold")), "1");
    assert_eq!(completed(node.invoke(5, src, &[]).expect("hot")), "2");
    // Drop the idle UC: a warm deploy starts from the snapshot (captured
    // before the first run), so the counter restarts.
    while let Some(uc) = node.idle.take(5) {
        node.destroy_uc(uc);
    }
    assert_eq!(completed(node.invoke(5, src, &[]).expect("warm")), "1");
}

#[test]
fn io_bound_invocation_round_trips_through_node() {
    let mut node = small_node();
    let src = "function main(args) { let r = http_get('http://backend/q'); return 'got:' + r; }";
    let token = match node.invoke(9, src, &[]).expect("invoke") {
        Invocation::Blocked { token, url, .. } => {
            assert_eq!(url, "http://backend/q");
            token
        }
        other => panic!("{other:?}"),
    };
    let result = completed(node.resume_invocation(token, "200 OK").expect("resume"));
    assert_eq!(result, "got:200 OK");
}

#[test]
fn sustained_unique_function_load_stays_within_memory() {
    let cfg = SeussConfig::builder()
        .mem_mib(1024) // deliberately tight
        .build()
        .expect("valid config");
    let (mut node, _) = SeussNode::new(cfg).expect("node");
    let src = "function main(args) { return 1; }";
    let capacity = node.mem.stats().capacity_frames;
    // Far more unique functions than a 1 GiB node can cache: the OOM
    // daemon must evict idle UCs and old snapshots rather than fail.
    for f in 0..600 {
        node.invoke(f, src, &[]).expect("invoke under pressure");
        assert!(node.mem.stats().used_frames <= capacity);
    }
    assert!(
        node.stats.oom_reclaims > 0,
        "pressure never triggered reclaim"
    );
    assert_eq!(node.stats.errors, 0);
}

#[test]
fn node_arguments_and_results_cross_the_boundary() {
    let mut node = small_node();
    let src = r#"
        function main(args) {
            let n = num(args.count);
            let s = 0;
            for (let i = 1; i <= n; i = i + 1) { s = s + i; }
            return args.label + ':' + s;
        }
    "#;
    let out = completed(
        node.invoke(3, src, &[("count", "10"), ("label", "sum")])
            .expect("invoke"),
    );
    assert_eq!(out, "sum:55");
}

#[test]
fn platform_trial_mixed_kinds_end_to_end() {
    let mut reg = Registry::new();
    reg.register_many(0, 2, FnKind::Nop);
    reg.register_many(2, 2, FnKind::Io);
    reg.register_many(4, 1, FnKind::Cpu(SimDuration::from_millis(20)));
    let order: Vec<u64> = (0..60).map(|i| i % 5).collect();
    let spec = WorkloadSpec::closed_loop(order, 6);

    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ClusterConfig::seuss_paper()
    };
    let out = run_trial(cfg, reg, &spec);
    assert_eq!(out.analysis.completed, 60);
    assert_eq!(out.analysis.errors, 0);
    // IO functions must show the 250 ms external block in their latency.
    let io_lat: Vec<f64> = out
        .records
        .iter()
        .filter(|r| (2..4).contains(&r.fn_id) && r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    assert!(!io_lat.is_empty());
    assert!(
        io_lat.iter().all(|&l| l >= 250.0),
        "IO latency below block time: {io_lat:?}"
    );
}

#[test]
fn ao_is_worth_it_end_to_end() {
    // The same tiny trial on a no-AO node and a full-AO node: full AO
    // must deliver strictly better cold latency.
    let run = |ao: AoLevel| {
        let node = SeussConfig::builder()
            .mem_mib(2048)
            .ao_level(ao)
            .build()
            .expect("valid config");
        let cfg = ClusterConfig {
            backend: BackendKind::Seuss(Box::new(node)),
            ..ClusterConfig::seuss_paper()
        };
        let mut reg = Registry::new();
        reg.register_many(0, 16, FnKind::Nop);
        let spec = WorkloadSpec::closed_loop((0..16).collect(), 4);
        run_trial(cfg, reg, &spec).analysis.latency.p50
    };
    let no_ao = run(AoLevel::None);
    let full = run(AoLevel::NetworkAndInterpreter);
    assert!(
        no_ao > full + 20.0,
        "all-cold p50 without AO ({no_ao}) must exceed with-AO ({full}) by the hoisted work"
    );
}
