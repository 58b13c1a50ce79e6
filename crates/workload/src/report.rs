//! Result rendering: tables, CSV dumps, figure series, and the bundled
//! per-trial artifact set (records + optional trace output).

use seuss_platform::{RequestRecord, RequestStatus, TrialOutput};
use simcore::SimDuration;

/// Formats a duration as fixed-precision milliseconds.
pub fn fmt_duration_ms(d: SimDuration) -> String {
    format!("{:.1} ms", d.as_millis_f64())
}

/// Dumps request records as CSV (`sent_s,latency_ms,fn,status,served_by,
/// burst`) — the raw series behind Figures 6–8.
pub fn records_csv(records: &[RequestRecord]) -> String {
    let mut out = String::from("sent_s,latency_ms,fn,status,served_by,burst\n");
    for r in records {
        out.push_str(&format!(
            "{:.3},{:.3},{},{:?},{:?},{}\n",
            r.sent_at_s, r.latency_ms, r.fn_id, r.status, r.served_by, r.burst
        ));
    }
    out
}

/// Everything one trial produces, rendered and ready to write to disk.
///
/// The trace members are `Some` only when the trial ran traced (an
/// enabled [`seuss_trace::Tracer`], or a traced sharded run); a default
/// (disabled) tracer costs nothing and yields `None` here.
#[derive(Clone, Debug)]
pub struct TrialArtifacts {
    /// Request records as CSV ([`records_csv`]).
    pub records_csv: String,
    /// Request records as JSON Lines ([`TrialOutput::records_jsonl`]).
    pub records_jsonl: String,
    /// Structured trace of the trial as span/event JSONL.
    pub trace_jsonl: Option<String>,
    /// Counter + per-phase/per-path latency quantiles as one JSON object.
    pub metrics_json: Option<String>,
}

/// Bundles a finished trial's outputs — single-threaded or sharded: the
/// record dumps always, the trace JSONL and metrics JSON when it ran
/// traced.
pub fn trial_artifacts(out: &TrialOutput) -> TrialArtifacts {
    let traced = !out.trace_dumps.is_empty();
    TrialArtifacts {
        records_csv: records_csv(&out.records),
        records_jsonl: out.records_jsonl(),
        trace_jsonl: traced.then(|| out.trace_jsonl()),
        metrics_json: traced.then(|| out.metrics_report().to_json()),
    }
}

/// Renders the Figure 6–8 scatter as an aligned text series, split into
/// background and burst streams, marking errors with `x` like the paper.
pub fn burst_series_csv(records: &[RequestRecord]) -> String {
    let mut out = String::from("stream,sent_s,latency_ms,mark\n");
    let mut sorted: Vec<&RequestRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.sent_at_s.partial_cmp(&b.sent_at_s).expect("finite"));
    for r in sorted {
        out.push_str(&format!(
            "{},{:.3},{:.3},{}\n",
            if r.burst { "burst" } else { "background" },
            r.sent_at_s,
            r.latency_ms,
            if r.status == RequestStatus::Ok {
                "."
            } else {
                "x"
            }
        ));
    }
    out
}

/// One second of a burst-figure time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SecondBucket {
    /// Second index (floor of send time).
    pub second: u64,
    /// Requests sent this second.
    pub sent: u64,
    /// Errors among them.
    pub errors: u64,
    /// Median latency of successes, ms (NaN if none).
    pub p50_ms: f64,
    /// 99th-percentile latency of successes, ms (NaN if none).
    pub p99_ms: f64,
}

/// Aggregates records into per-second buckets — the resolution at which
/// Figures 6–8 are drawn. Only seconds with traffic appear.
pub fn per_second_series(records: &[RequestRecord]) -> Vec<SecondBucket> {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<u64, (u64, u64, Vec<f64>)> = BTreeMap::new();
    for r in records {
        let e = buckets
            .entry(r.sent_at_s as u64)
            .or_insert((0, 0, Vec::new()));
        e.0 += 1;
        if r.status == RequestStatus::Ok {
            e.2.push(r.latency_ms);
        } else {
            e.1 += 1;
        }
    }
    buckets
        .into_iter()
        .map(|(second, (sent, errors, mut lat))| {
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pick = |q: f64| -> f64 {
                if lat.is_empty() {
                    f64::NAN
                } else {
                    lat[((lat.len() - 1) as f64 * q) as usize]
                }
            };
            SecondBucket {
                second,
                sent,
                errors,
                p50_ms: pick(0.5),
                p99_ms: pick(0.99),
            }
        })
        .collect()
}

/// Summary counts for a burst run: `(background ok, background err,
/// burst ok, burst err)`.
pub fn burst_counts(records: &[RequestRecord]) -> (u64, u64, u64, u64) {
    let mut c = (0, 0, 0, 0);
    for r in records {
        match (r.burst, r.status == RequestStatus::Ok) {
            (false, true) => c.0 += 1,
            (false, false) => c.1 += 1,
            (true, true) => c.2 += 1,
            (true, false) => c.3 += 1,
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_platform::ServedBy;

    fn rec(burst: bool, ok: bool, sent: f64) -> RequestRecord {
        RequestRecord {
            fn_id: 1,
            sent_at_s: sent,
            latency_ms: 10.0,
            status: if ok {
                RequestStatus::Ok
            } else {
                RequestStatus::Error
            },
            served_by: ServedBy::Hot,
            burst,
            done_ns: ((sent + 10.0 / 1e3) * 1e9) as u64,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = records_csv(&[rec(false, true, 0.5)]);
        assert!(csv.starts_with("sent_s,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("0.500,10.000,1,Ok"));
    }

    #[test]
    fn burst_series_sorted_and_marked() {
        let csv = burst_series_csv(&[rec(true, false, 2.0), rec(false, true, 1.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].starts_with("background,1.000"));
        assert!(lines[2].starts_with("burst,2.000"));
        assert!(lines[2].ends_with(",x"));
    }

    #[test]
    fn counts_split_streams() {
        let records = vec![
            rec(false, true, 0.0),
            rec(false, false, 0.1),
            rec(true, true, 0.2),
            rec(true, true, 0.3),
        ];
        assert_eq!(burst_counts(&records), (1, 1, 2, 0));
    }

    #[test]
    fn per_second_buckets_aggregate() {
        let records = vec![
            rec(false, true, 0.2),
            rec(false, true, 0.9),
            rec(false, false, 1.1),
            rec(false, true, 3.5),
        ];
        let series = per_second_series(&records);
        assert_eq!(series.len(), 3, "only seconds with traffic");
        assert_eq!(series[0].second, 0);
        assert_eq!(series[0].sent, 2);
        assert_eq!(series[0].errors, 0);
        assert_eq!(series[0].p50_ms, 10.0);
        assert_eq!(series[1].second, 1);
        assert_eq!(series[1].errors, 1);
        assert!(series[1].p50_ms.is_nan(), "no successes that second");
        assert_eq!(series[2].second, 3);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_duration_ms(SimDuration::from_micros(7_540)), "7.5 ms");
    }

    #[test]
    fn artifacts_bundle_trace_when_enabled() {
        use seuss_platform::{
            run_trial, BackendKind, ClusterConfig, FnKind, Registry, WorkloadSpec,
        };
        let node = seuss_core::SeussConfig::builder()
            .mem_mib(2048)
            .build()
            .expect("valid test config");
        let mut reg = Registry::new();
        reg.register_many(0, 2, FnKind::Nop);
        let spec = WorkloadSpec::closed_loop(vec![0, 1, 0, 1], 2);
        let cfg = ClusterConfig {
            backend: BackendKind::Seuss(Box::new(node)),
            tracer: seuss_trace::Tracer::enabled(),
            ..ClusterConfig::seuss_paper()
        };
        let out = run_trial(cfg, reg, &spec);
        let a = trial_artifacts(&out);
        assert_eq!(a.records_jsonl.lines().count(), out.records.len());
        let trace = a.trace_jsonl.expect("tracing was enabled");
        let v = seuss_trace::validate_jsonl(&trace).expect("well-formed trace");
        assert!(v.enters > 0 && v.enters == v.exits);
        assert!(a.metrics_json.expect("metrics").starts_with('{'));

        // A disabled tracer produces records but no trace members.
        let node = seuss_core::SeussConfig::builder()
            .mem_mib(2048)
            .build()
            .expect("valid test config");
        let mut reg = Registry::new();
        reg.register_many(0, 1, FnKind::Nop);
        let cfg = ClusterConfig {
            backend: BackendKind::Seuss(Box::new(node)),
            ..ClusterConfig::seuss_paper()
        };
        let out = run_trial(cfg, reg, &WorkloadSpec::closed_loop(vec![0], 1));
        let a = trial_artifacts(&out);
        assert!(a.trace_jsonl.is_none() && a.metrics_json.is_none());
    }
}
