//! Per-request records and trial analysis.

use simcore::{Histogram, PercentileSummary, SimDuration, SimTime};

use crate::spec::FnId;

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestStatus {
    /// Completed successfully.
    Ok,
    /// Errored (timeout, bridge failure, node OOM…).
    Error,
}

/// The deployment path a request was served by (None for errors or the
/// Linux backend's stemcell path, which reports `Stemcell`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// SEUSS cold / Linux fresh-container path.
    Cold,
    /// SEUSS warm (function snapshot).
    Warm,
    /// SEUSS hot / Linux idle-container path.
    Hot,
    /// Linux stemcell (pre-warmed container, code imported on demand).
    Stemcell,
    /// Request failed before being served.
    None,
}

/// One request's outcome.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Function invoked.
    pub fn_id: FnId,
    /// Virtual send time (seconds).
    pub sent_at_s: f64,
    /// End-to-end latency (milliseconds).
    pub latency_ms: f64,
    /// Outcome.
    pub status: RequestStatus,
    /// Path that served it.
    pub served_by: ServedBy,
    /// Whether this was an open-loop (burst) arrival.
    pub burst: bool,
    /// Exact virtual completion time in nanoseconds — the merge key the
    /// sharded executor orders records by. Not serialized (`sent_at_s` +
    /// `latency_ms` carry the same information for readers), so CSV and
    /// JSONL output is unchanged by its presence.
    pub done_ns: u64,
}

impl RequestStatus {
    /// Stable lowercase name for serialized output.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            RequestStatus::Ok => "ok",
            RequestStatus::Error => "error",
        }
    }
}

impl ServedBy {
    /// Stable lowercase name for serialized output.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ServedBy::Cold => "cold",
            ServedBy::Warm => "warm",
            ServedBy::Hot => "hot",
            ServedBy::Stemcell => "stemcell",
            ServedBy::None => "none",
        }
    }
}

impl RequestRecord {
    /// One hand-rolled JSON object per record (the same writer pattern
    /// `miniscript`'s `json()` builtin uses — no derive machinery). All
    /// fields are numbers, booleans, or the fixed enum names above, so no
    /// string escaping is needed.
    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"fn\":{},\"sent_s\":{:.6},\"latency_ms\":{:.6},\"status\":\"{}\",\"served_by\":\"{}\",\"burst\":{}}}",
            self.fn_id,
            self.sent_at_s,
            self.latency_ms,
            self.status.as_str(),
            self.served_by.as_str(),
            self.burst
        )
    }
}

/// Dumps records as newline-delimited JSON (one object per line), the
/// machine-readable form of a trial's request records.
pub fn records_jsonl(records: &[RequestRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Aggregated trial results.
#[derive(Clone, Debug)]
pub struct TrialAnalysis {
    /// Completed request count.
    pub completed: u64,
    /// Errored request count.
    pub errors: u64,
    /// Steady-state throughput over the middle half of completions.
    pub steady_throughput_rps: f64,
    /// Latency percentiles of successful requests (ms).
    pub latency: PercentileSummary,
    /// Path counts: cold, warm, hot, stemcell.
    pub paths: (u64, u64, u64, u64),
}

impl TrialAnalysis {
    /// Computes aggregates from raw records.
    pub fn from_records(records: &[RequestRecord]) -> TrialAnalysis {
        let mut hist = Histogram::new();
        let mut completed = 0u64;
        let mut errors = 0u64;
        let mut paths = (0u64, 0u64, 0u64, 0u64);
        let mut first_send = f64::INFINITY;
        let mut last_done = 0.0f64;
        let mut completions: Vec<f64> = Vec::new();
        for r in records {
            first_send = first_send.min(r.sent_at_s);
            match r.status {
                RequestStatus::Ok => {
                    completed += 1;
                    hist.record(SimDuration::from_millis_f64(r.latency_ms));
                    let done = r.sent_at_s + r.latency_ms / 1e3;
                    last_done = last_done.max(done);
                    completions.push(done);
                    match r.served_by {
                        ServedBy::Cold => paths.0 += 1,
                        ServedBy::Warm => paths.1 += 1,
                        ServedBy::Hot => paths.2 += 1,
                        ServedBy::Stemcell => paths.3 += 1,
                        ServedBy::None => {}
                    }
                }
                RequestStatus::Error => errors += 1,
            }
        }
        let span = (last_done - first_send).max(1e-9);
        let throughput = completed as f64 / span;
        // Steady state: middle half of completions by time.
        completions.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let steady = if completions.len() >= 8 {
            let lo = completions.len() / 4;
            let hi = 3 * completions.len() / 4;
            let dt = (completions[hi] - completions[lo]).max(1e-9);
            (hi - lo) as f64 / dt
        } else {
            throughput
        };
        TrialAnalysis {
            completed,
            errors,
            steady_throughput_rps: steady,
            latency: hist.summary_ms(),
            paths,
        }
    }
}

/// Helper to build a record.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record(
    fn_id: FnId,
    sent_at: SimTime,
    done_at: SimTime,
    status: RequestStatus,
    served_by: ServedBy,
    burst: bool,
) -> RequestRecord {
    RequestRecord {
        fn_id,
        sent_at_s: sent_at.as_secs_f64(),
        latency_ms: done_at.since(sent_at).as_millis_f64(),
        status,
        served_by,
        burst,
        done_ns: done_at.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sent: f64, lat_ms: f64, ok: bool) -> RequestRecord {
        RequestRecord {
            fn_id: 0,
            sent_at_s: sent,
            latency_ms: lat_ms,
            status: if ok {
                RequestStatus::Ok
            } else {
                RequestStatus::Error
            },
            served_by: if ok { ServedBy::Hot } else { ServedBy::None },
            burst: false,
            done_ns: ((sent + lat_ms / 1e3) * 1e9) as u64,
        }
    }

    #[test]
    fn throughput_and_counts() {
        // 10 requests, one per 100 ms, each 50 ms latency.
        let records: Vec<_> = (0..10).map(|i| rec(i as f64 * 0.1, 50.0, true)).collect();
        let a = TrialAnalysis::from_records(&records);
        assert_eq!(a.completed, 10);
        assert_eq!(a.errors, 0);
        assert_eq!(a.paths.2, 10);
    }

    #[test]
    fn errors_counted_not_timed() {
        let records = vec![rec(0.0, 10.0, true), rec(0.1, 60_000.0, false)];
        let a = TrialAnalysis::from_records(&records);
        assert_eq!(a.completed, 1);
        assert_eq!(a.errors, 1);
        assert!(a.latency.p99 < 100.0, "error latency excluded");
    }

    #[test]
    fn empty_records_safe() {
        let a = TrialAnalysis::from_records(&[]);
        assert_eq!(a.completed, 0);
        assert_eq!(a.steady_throughput_rps, 0.0);
    }

    #[test]
    fn json_lines_are_stable_and_parseable_shaped() {
        let r = rec(1.25, 42.5, true);
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"fn\":0,\"sent_s\":1.250000,\"latency_ms\":42.500000,\
             \"status\":\"ok\",\"served_by\":\"hot\",\"burst\":false}"
        );
        let all = records_jsonl(&[r, rec(2.0, 10.0, false)]);
        assert_eq!(all.lines().count(), 2);
        assert!(all.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(all.contains("\"status\":\"error\""));
    }
}
