//! Cross-crate tracing integration: a platform trial run with an
//! enabled tracer must produce a well-formed trace whose per-phase
//! spans exactly account for every top-level segment, plus a coherent
//! metrics report — all through the `seuss` facade, the way the bench
//! binaries consume it.

use seuss::core::SeussConfig;
use seuss::platform::{run_trial, BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};
use seuss::sim::SimDuration;
use seuss::trace::{validate_jsonl, SpanName, Tracer};
use seuss::workload::trial_artifacts;

fn traced_trial() -> seuss::platform::TrialOutput {
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let mut reg = Registry::new();
    reg.register_many(0, 3, FnKind::Nop);
    reg.register_many(3, 1, FnKind::Io);
    reg.register_many(4, 1, FnKind::Cpu(SimDuration::from_millis(5)));
    let order: Vec<u64> = (0..40).map(|i| i % 5).collect();
    let spec = WorkloadSpec::closed_loop(order, 4);
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        tracer: Tracer::enabled(),
        ..ClusterConfig::seuss_paper()
    };
    run_trial(cfg, reg, &spec)
}

#[test]
fn traced_trial_produces_validated_jsonl() {
    let out = traced_trial();
    assert_eq!(out.analysis.completed, 40);
    assert_eq!(out.trace_dumps.len(), 1, "one traced simulation");

    let doc = out.trace_jsonl();
    let v = validate_jsonl(&doc).expect("trial trace must validate");
    assert!(v.enters > 0, "trial must record spans");
    assert_eq!(v.enters, v.exits, "every span must close");
    assert!(v.events > 0, "trial must record events");
    assert!(out.trace_dumps[0].spans.iter().all(|s| s.end.is_some()));
}

#[test]
fn every_segment_is_exactly_covered_by_its_phase_spans() {
    let out = traced_trial();
    let spans = &out.trace_dumps[0].spans;
    let mut segments = 0;
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        if !matches!(root.name, SpanName::Invoke | SpanName::Resume) {
            continue;
        }
        segments += 1;
        let child_sum = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .filter(|s| matches!(s.name, SpanName::Phase(_)))
            .fold(SimDuration::ZERO, |acc, s| {
                acc + s.duration().expect("closed")
            });
        assert_eq!(
            child_sum,
            root.duration().expect("closed"),
            "phase spans must sum exactly to their {:?} span",
            root.name
        );
    }
    assert!(segments >= 40, "every request produces a top-level segment");
}

#[test]
fn trial_metrics_cover_all_three_paths() {
    let out = traced_trial();
    let report = out.metrics_report();
    assert!(report.segments >= 40);
    // A closed-loop trial over 5 functions serves cold, then warm/hot.
    let by_path: Vec<&str> = report
        .per_path
        .iter()
        .filter(|(_, q)| q.count > 0)
        .map(|(p, _)| p.as_str())
        .collect();
    assert!(by_path.contains(&"cold"), "{by_path:?}");
    assert!(by_path.contains(&"hot"), "{by_path:?}");
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    // The artifact bundle carries all of it.
    let a = trial_artifacts(&out);
    assert!(a.trace_jsonl.is_some() && a.metrics_json.is_some());
}
