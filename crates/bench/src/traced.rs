//! The observability smoke experiment: a small traced trial whose
//! output is validated end to end — the CI gate for the tracing
//! subsystem, and, through `reproduce check`, for the parallel
//! executor's determinism contract.
//!
//! Runs a closed-loop mixed workload through [`seuss_exec::run_sharded`]
//! at a fixed shard count and checks the invariants the trace format
//! promises: the merged JSONL parses with monotone timestamps and
//! balanced enter/exit pairs, every top-level segment's phase spans sum
//! exactly to the segment span, and the metrics report covers the
//! recorded segments. `reproduce check` runs it on one and on N worker
//! threads and requires byte-identical exports.

use seuss_core::SeussConfig;
use seuss_exec::{run_sharded, ShardPlan};
use seuss_platform::{BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec};
use seuss_trace::{validate_jsonl, SpanName, Tracer};
use simcore::SimDuration;

use crate::cli::Args;
use crate::Artifact;

/// Logical shard count of the smoke trial. Fixed: it is part of the
/// experiment definition and decides the artifact bytes (worker count
/// never does).
pub(crate) const TRACE_SMOKE_SHARDS: usize = 4;

/// Outcome of a validated traced trial.
#[derive(Clone, Debug)]
pub(crate) struct TraceSmoke {
    /// Requests completed.
    pub(crate) completed: u64,
    /// Trace lines exported.
    pub(crate) trace_lines: usize,
    /// Top-level invocation segments found in the trace.
    pub(crate) segments: usize,
    /// The validated trace document (JSON lines).
    pub(crate) trace_jsonl: String,
    /// The metrics report (one JSON object).
    pub(crate) metrics_json: String,
}

fn smoke_workload(invocations: u64) -> (Registry, WorkloadSpec) {
    let mut reg = Registry::new();
    reg.register_many(0, 3, FnKind::Nop);
    reg.register_many(3, 1, FnKind::Io);
    reg.register_many(4, 1, FnKind::Cpu(SimDuration::from_millis(5)));
    let order: Vec<u64> = (0..invocations).map(|i| i % 5).collect();
    (reg, WorkloadSpec::closed_loop(order, 4))
}

/// Runs the traced trial at [`TRACE_SMOKE_SHARDS`] shards on `workers`
/// threads and validates the merged trace; `Err` carries the first
/// violated invariant.
pub(crate) fn run_trace_smoke(invocations: u64, workers: usize) -> Result<TraceSmoke, String> {
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .map_err(|e| e.to_string())?;
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        tracer: Tracer::enabled(),
        ..ClusterConfig::seuss_paper()
    };
    let (reg, spec) = smoke_workload(invocations);
    let out = run_sharded(
        &cfg,
        &reg,
        &spec,
        ShardPlan::new(TRACE_SMOKE_SHARDS, workers),
    );

    if out.analysis.completed != invocations {
        return Err(format!(
            "only {}/{} requests completed",
            out.analysis.completed, invocations
        ));
    }

    // 1. The merged export validates: parseable lines, monotone
    //    timestamps, balanced enter/exit, children nested inside parents.
    let doc = out.trace_jsonl();
    let v = validate_jsonl(&doc)?;
    if v.enters == 0 || v.events == 0 {
        return Err(format!(
            "trace suspiciously empty: {} spans, {} events",
            v.enters, v.events
        ));
    }

    // 2. Exact cover, per shard dump: every invoke/resume span equals
    //    the sum of its phase children.
    let mut segments = 0usize;
    for dump in &out.trace_dumps {
        let spans = &dump.spans;
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
                    acc + s.duration().unwrap_or(SimDuration::ZERO)
                });
            let own = root
                .duration()
                .ok_or_else(|| format!("unclosed {:?} span", root.name))?;
            if child_sum != own {
                return Err(format!(
                    "{:?} span is {} ns but its phases sum to {} ns",
                    root.name,
                    own.as_nanos(),
                    child_sum.as_nanos()
                ));
            }
        }
    }
    if (segments as u64) < invocations {
        return Err(format!("{segments} segments for {invocations} requests"));
    }

    // 3. Merged metrics agree with the span count.
    let report = out.metrics_report();
    if report.segments < invocations {
        return Err(format!(
            "metrics recorded {} segments for {} requests",
            report.segments, invocations
        ));
    }

    Ok(TraceSmoke {
        completed: out.analysis.completed,
        trace_lines: v.lines,
        segments,
        trace_jsonl: doc,
        metrics_json: report.to_json(),
    })
}

/// The `trace_smoke` experiment: the validated traced trial at
/// `invocations` requests, exported as trace JSON lines and a metrics
/// report.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let smoke = run_trace_smoke(a.num(0), workers)?;
    Ok(vec![
        Artifact::Report(format!(
            "trace smoke OK: {} requests, {} trace lines, {} segments\n",
            smoke.completed, smoke.trace_lines, smoke.segments
        )),
        Artifact::File("results/trace_smoke.jsonl".into(), smoke.trace_jsonl),
        Artifact::File(
            "results/trace_smoke_metrics.json".into(),
            smoke.metrics_json,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_on_a_tiny_trial() {
        let s = run_trace_smoke(15, 2).expect("smoke must validate");
        assert_eq!(s.completed, 15);
        assert!(s.segments >= 15);
        assert!(s.trace_lines > 0);
    }

    #[test]
    fn smoke_artifacts_match_across_worker_counts() {
        // The returned documents are byte-identical whatever the worker
        // count.
        let a = run_trace_smoke(10, 1).expect("workers=1");
        let b = run_trace_smoke(10, 4).expect("workers=4");
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
        assert_eq!(a.metrics_json, b.metrics_json);
        assert_eq!(a.segments, b.segments);
    }
}
