//! The observability smoke experiment: a small traced trial whose
//! output is validated end to end — the CI gate for the tracing
//! subsystem *and* for the parallel executor's determinism contract.
//!
//! Runs a closed-loop mixed workload through [`seuss_exec::run_sharded`]
//! at a fixed shard count, twice: once on a single worker thread (the
//! reference) and once on the requested worker count. The two runs must
//! produce **byte-identical** records CSV/JSONL, trace JSONL, and
//! metrics JSON — any divergence is an error, which makes this binary
//! the CI tripwire for scheduler-dependent output. On top of that it
//! checks the invariants the trace format promises: the merged JSONL
//! parses with monotone timestamps and balanced enter/exit pairs, every
//! top-level segment's phase spans sum exactly to the segment span, and
//! the metrics report covers the recorded segments.

use seuss_core::SeussConfig;
use seuss_exec::{run_sharded, ShardPlan};
use seuss_platform::{BackendKind, ClusterConfig, FnKind, Registry, TrialOutput, WorkloadSpec};
use seuss_trace::{validate_jsonl, SpanName, Tracer};
use seuss_workload::{trial_artifacts, TrialArtifacts};
use simcore::SimDuration;

/// Logical shard count of the smoke trial. Fixed: it is part of the
/// experiment definition and decides the artifact bytes (worker count
/// never does).
pub const TRACE_SMOKE_SHARDS: usize = 4;

/// Outcome of a validated traced trial.
#[derive(Clone, Debug)]
pub struct TraceSmoke {
    /// Requests completed.
    pub completed: u64,
    /// Trace lines exported.
    pub trace_lines: usize,
    /// Top-level invocation segments found in the trace.
    pub segments: usize,
    /// Worker threads the parallel run used.
    pub workers: usize,
    /// Wall-clock seconds of the single-worker reference run.
    pub wall_base_s: f64,
    /// Wall-clock seconds of the `workers`-thread run.
    pub wall_s: f64,
    /// The validated trace document (JSON lines).
    pub trace_jsonl: String,
    /// The metrics report (one JSON object).
    pub metrics_json: String,
}

impl TraceSmoke {
    /// Wall-clock speedup of the parallel run over the single-worker
    /// reference (1.0 when `workers == 1`).
    pub fn speedup(&self) -> f64 {
        self.wall_base_s / self.wall_s.max(1e-12)
    }
}

fn smoke_workload(invocations: u64) -> (Registry, WorkloadSpec) {
    let mut reg = Registry::new();
    reg.register_many(0, 3, FnKind::Nop);
    reg.register_many(3, 1, FnKind::Io);
    reg.register_many(4, 1, FnKind::Cpu(SimDuration::from_millis(5)));
    let order: Vec<u64> = (0..invocations).map(|i| i % 5).collect();
    (reg, WorkloadSpec::closed_loop(order, 4))
}

fn diverges(a: &TrialArtifacts, b: &TrialArtifacts) -> Option<&'static str> {
    if a.records_csv != b.records_csv {
        Some("records CSV")
    } else if a.records_jsonl != b.records_jsonl {
        Some("records JSONL")
    } else if a.trace_jsonl != b.trace_jsonl {
        Some("trace JSONL")
    } else if a.metrics_json != b.metrics_json {
        Some("metrics JSON")
    } else {
        None
    }
}

/// Runs the traced trial at [`TRACE_SMOKE_SHARDS`] shards on 1 and on
/// `workers` threads, fails on any artifact divergence, and validates
/// the merged trace; `Err` carries the first violated invariant.
pub fn run_trace_smoke(invocations: u64, workers: usize) -> Result<TraceSmoke, String> {
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

    let run = |w: usize| -> TrialOutput {
        run_sharded(&cfg, &reg, &spec, ShardPlan::new(TRACE_SMOKE_SHARDS, w))
    };

    // Reference: same shards, one thread. Then the parallel run, which
    // must reproduce it byte for byte.
    let base = run(1);
    let wall_base_s = base.wall.as_secs_f64();
    let (out, wall_s) = if workers <= 1 {
        (base, wall_base_s)
    } else {
        let par = run(workers);
        let wall_s = par.wall.as_secs_f64();
        if let Some(what) = diverges(&trial_artifacts(&base), &trial_artifacts(&par)) {
            return Err(format!(
                "{what} diverges between workers=1 and workers={workers} \
                 at {TRACE_SMOKE_SHARDS} shards"
            ));
        }
        (par, wall_s)
    };

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
        workers: workers.max(1),
        wall_base_s,
        wall_s,
        trace_jsonl: doc,
        metrics_json: report.to_json(),
    })
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
        assert!(s.wall_s > 0.0 && s.wall_base_s > 0.0);
    }

    #[test]
    fn smoke_artifacts_match_across_worker_counts() {
        // run_trace_smoke already fails internally on divergence; assert
        // the stronger cross-call property too: the returned documents
        // are byte-identical whatever the worker count.
        let a = run_trace_smoke(10, 1).expect("workers=1");
        let b = run_trace_smoke(10, 4).expect("workers=4");
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
        assert_eq!(a.metrics_json, b.metrics_json);
        assert_eq!(a.segments, b.segments);
    }
}
