//! Multi-runtime integration: a node serving Node.js *and* Python
//! functions keeps one base snapshot per interpreter (§4: "these runtime
//! snapshots may be relatively large … but there are few of them: only
//! one per supported interpreter").

use seuss::core::{Invocation, RuntimeKind, SeussConfig, SeussNode};
use seuss::platform::{run_trial, BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};

fn dual_node(mem_mib: u64) -> SeussNode {
    let cfg = SeussConfig::builder()
        .mem_mib(mem_mib)
        .runtimes(vec![RuntimeKind::NodeJs, RuntimeKind::Python])
        .build()
        .expect("valid config");
    SeussNode::new(cfg).expect("node").0
}

fn completed(inv: Invocation) -> (String, f64) {
    match inv {
        Invocation::Completed { result, costs, .. } => (result, costs.total().as_millis_f64()),
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn one_base_snapshot_per_interpreter() {
    let node = dual_node(2048);
    assert_eq!(
        node.runtimes(),
        vec![RuntimeKind::NodeJs, RuntimeKind::Python]
    );
    let js = node.runtime_image_for(RuntimeKind::NodeJs).expect("js");
    let py = node.runtime_image_for(RuntimeKind::Python).expect("py");
    assert_ne!(js, py);
    // Distinct images resolve to distinctly-sized resident sets (the
    // CPython stack is smaller than the Node.js one).
    let js_mib = node.snaps.resident_mib(&node.mmu, js).expect("size");
    let py_mib = node.snaps.resident_mib(&node.mmu, py).expect("size");
    assert!(js_mib > py_mib + 20.0, "js {js_mib} vs py {py_mib}");
}

#[test]
fn functions_run_on_their_bound_runtime() {
    let mut node = dual_node(2048);
    let src = "function main(args) { return 'hi from ' + args.lang; }";
    let (r1, _) = completed(
        node.invoke_on(1, RuntimeKind::NodeJs, src, &[("lang", "js")])
            .expect("js"),
    );
    let (r2, _) = completed(
        node.invoke_on(2, RuntimeKind::Python, src, &[("lang", "py")])
            .expect("py"),
    );
    assert_eq!(r1, "hi from js");
    assert_eq!(r2, "hi from py");
    assert_eq!(node.stats.cold, 2);
    // Both get function snapshots and hot caches, independently.
    let (_, hot_js) = completed(
        node.invoke_on(1, RuntimeKind::NodeJs, src, &[])
            .expect("hot"),
    );
    let (_, hot_py) = completed(
        node.invoke_on(2, RuntimeKind::Python, src, &[])
            .expect("hot"),
    );
    assert!(hot_js < 1.5);
    assert!(hot_py < 1.5);
}

#[test]
fn python_cold_start_differs_from_nodejs() {
    let mut node = dual_node(2048);
    let src = "function main(args) { return 0; }";
    let (_, js_cold) = completed(
        node.invoke_on(10, RuntimeKind::NodeJs, src, &[])
            .expect("js"),
    );
    let (_, py_cold) = completed(
        node.invoke_on(11, RuntimeKind::Python, src, &[])
            .expect("py"),
    );
    // CPython compiles slower per byte but has smaller fixed caches; both
    // stay in single-digit milliseconds post-AO.
    assert!(js_cold < 10.0, "{js_cold}");
    assert!(py_cold < 10.0, "{py_cold}");
    assert!((js_cold - py_cold).abs() > 0.05, "profiles are distinct");
}

#[test]
fn unconfigured_runtime_is_an_error() {
    let cfg = SeussConfig::builder()
        .mem_mib(2048) // NodeJs only
        .build()
        .expect("valid config");
    let (mut node, _) = SeussNode::new(cfg).expect("node");
    assert!(node
        .invoke_on(
            1,
            RuntimeKind::Python,
            "function main(a) { return 0; }",
            &[]
        )
        .is_err());
}

#[test]
fn mixed_runtime_platform_trial() {
    let mut reg = Registry::new();
    reg.register_many(0, 3, FnKind::Nop); // Node.js
    for id in 3..6u64 {
        reg.register_on(id, FnKind::Nop, RuntimeKind::Python);
    }
    let order: Vec<u64> = (0..48).map(|i| i % 6).collect();
    let spec = WorkloadSpec::closed_loop(order, 4);
    let node_cfg = SeussConfig::builder()
        .mem_mib(2048)
        .runtimes(vec![RuntimeKind::NodeJs, RuntimeKind::Python])
        .build()
        .expect("valid config");
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node_cfg)),
        ..ClusterConfig::seuss_paper()
    };
    let out = run_trial(cfg, reg, &spec);
    assert_eq!(out.analysis.completed, 48);
    assert_eq!(out.analysis.errors, 0);
    assert_eq!(out.analysis.paths.0, 6, "six cold starts, one per function");
}
