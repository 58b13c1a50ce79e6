//! Result rendering: tables, CSV dumps and figure series.

use seuss_platform::{RequestRecord, RequestStatus};

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

/// The value at quantile `q` of an ascending `sorted` slice: the element
/// at index `⌊(len − 1) · q⌋`, with no interpolation. NaN when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }
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
            SecondBucket {
                second,
                sent,
                errors,
                p50_ms: nearest_rank(&lat, 0.5),
                p99_ms: nearest_rank(&lat, 0.99),
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
    fn nearest_rank_floors_the_index_and_is_nan_when_empty() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 0.5), 2.0);
        assert_eq!(nearest_rank(&v, 0.99), 3.0);
        assert_eq!(nearest_rank(&v, 1.0), 4.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }
}
