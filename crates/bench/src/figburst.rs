//! Figures 6–8: platform resiliency to request bursts.
//!
//! A rate-throttled background stream of IO-bound functions keeps the
//! platform at moderate utilization while bursts of a never-before-seen
//! CPU-bound function arrive every 32 / 16 / 8 seconds. Paper shape: the
//! Linux node errors once its container cache saturates and stalls the
//! background stream; SEUSS serves every request, with only CPU
//! contention visible at the 8 s period.

use std::fmt::Write;

use seuss::faults::{FaultPlan, RetryPolicy};
use seuss_platform::{run_trial, RequestRecord, RequestStatus};
use seuss_workload::report::{burst_counts, nearest_rank};
use seuss_workload::{burst_series_csv, BurstParams};

use crate::cli::Args;
use crate::Artifact;

/// Outcome of one burst run on one backend.
#[derive(Clone, Debug)]
pub(crate) struct BurstSide {
    /// Raw records (the Figure 6–8 scatter).
    pub(crate) records: Vec<RequestRecord>,
    /// Background stream: successes.
    pub(crate) background_ok: u64,
    /// Background stream: errors.
    pub(crate) background_err: u64,
    /// Burst requests: successes.
    pub(crate) burst_ok: u64,
    /// Burst requests: errors.
    pub(crate) burst_err: u64,
    /// Median background latency, ms.
    pub(crate) background_p50_ms: f64,
    /// 99th-percentile burst latency, ms.
    pub(crate) burst_p99_ms: f64,
}

/// Both backends at one burst period.
#[derive(Clone, Debug)]
pub(crate) struct BurstOutcome {
    /// Linux node results.
    pub(crate) linux: BurstSide,
    /// SEUSS node results.
    pub(crate) seuss: BurstSide,
}

fn side(records: Vec<RequestRecord>) -> BurstSide {
    let (background_ok, background_err, burst_ok, burst_err) = burst_counts(&records);
    let mut bg: Vec<f64> = records
        .iter()
        .filter(|r| !r.burst && r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    bg.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut bu: Vec<f64> = records
        .iter()
        .filter(|r| r.burst && r.status == RequestStatus::Ok)
        .map(|r| r.latency_ms)
        .collect();
    bu.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    BurstSide {
        background_p50_ms: nearest_rank(&bg, 0.5),
        burst_p99_ms: nearest_rank(&bu, 0.99),
        records,
        background_ok,
        background_err,
        burst_ok,
        burst_err,
    }
}

/// Runs the burst experiment at `period_s` (32, 16, or 8 in the paper)
/// under an injected fault schedule.
///
/// `params` override lets tests shrink the run; `mem_mib` sizes the SEUSS
/// node. The Linux node runs with the paper's burst configuration: the
/// stemcell cache enabled at 256. Both backends run the same `faults`
/// plan and `retry` policy, so the figure shows how each platform's
/// resiliency interacts with infrastructure failures; [`FaultPlan::none`]
/// is the paper's fault-free figure. The two backends are independent
/// trials and run on `workers` threads; results are identical at every
/// worker count.
pub(crate) fn run_burst_with_faults(
    params: BurstParams,
    mem_mib: u64,
    workers: usize,
    faults: &FaultPlan,
    retry: RetryPolicy,
) -> BurstOutcome {
    let mut sides = seuss_exec::ordered_parallel(vec![false, true], workers, |_, is_seuss| {
        let (reg, spec) = params.build();
        let cfg = crate::burst_cluster(is_seuss, mem_mib, faults, retry);
        side(run_trial(cfg, reg, &spec).records)
    });

    let seuss = sides.pop().expect("seuss side");
    let linux = sides.pop().expect("linux side");
    BurstOutcome { linux, seuss }
}

/// One column per second of `span_s`, marking the worst request sent in
/// it: 'x' error > '!' slow (>5 s) > '~' elevated (>1 s) > '.' ok.
pub(crate) fn timeline(records: &[RequestRecord], span_s: f64) -> String {
    let cols = span_s.ceil() as usize + 1;
    let mut marks = vec![' '; cols];
    let sev = |c: char| match c {
        'x' => 4,
        '!' => 3,
        '~' => 2,
        '.' => 1,
        _ => 0,
    };
    for r in records {
        let col = (r.sent_at_s as usize).min(cols - 1);
        let mark = if r.status == RequestStatus::Error {
            'x'
        } else if r.latency_ms > 5_000.0 {
            '!'
        } else if r.latency_ms > 1_000.0 {
            '~'
        } else {
            '.'
        };
        if sev(mark) > sev(marks[col]) {
            marks[col] = mark;
        }
    }
    marks.into_iter().collect()
}

/// The `fig6`/`fig7`/`fig8` experiments: the burst figure at a burst
/// every `period_s` seconds (32 / 16 / 8 is Figure 6 / 7 / 8) on a
/// 16 GiB SEUSS node, both backends under `--fault-plan` with the
/// resilient retry policy: summary counts and a per-second timeline.
/// With `csv_path` it also writes the full scatter (every request's send
/// time, latency and error mark) as CSV for plotting.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let period: u64 = a.num(0);
    let params = BurstParams::paper(period);
    let out = run_burst_with_faults(
        params,
        16 * 1024,
        workers,
        &a.fault_plan,
        RetryPolicy::resilient(),
    );
    let span = params.span().as_secs_f64();

    let mut text = String::new();
    let _ = writeln!(text, "== Request burst sent every {period} seconds ==\n");
    for (name, side) in [("Linux", &out.linux), ("SEUSS", &out.seuss)] {
        let _ = writeln!(
            text,
            "{name}: background {} ok / {} err (p50 {:.0} ms) | bursts {} ok / {} err (p99 {:.0} ms)",
            side.background_ok,
            side.background_err,
            side.background_p50_ms,
            side.burst_ok,
            side.burst_err,
            side.burst_p99_ms,
        );
        let _ = writeln!(
            text,
            "  per-second timeline ('.' ok, '~' >1s, '!' >5s, 'x' error):"
        );
        let _ = writeln!(text, "  |{}|", timeline(&side.records, span));
    }
    let _ = writeln!(
        text,
        "\npaper shape: Linux errors once its container cache saturates and\n\
         stalls; SEUSS serves every request across all burst frequencies."
    );
    let mut artifacts = vec![Artifact::Printed(
        format!("results/fig_burst_{period}.txt"),
        text,
    )];

    if let Some(path) = a.get(1) {
        let mut csv = String::from("backend,");
        csv.push_str(&burst_series_csv(&out.linux.records).replace('\n', "\nlinux,"));
        csv.push('\n');
        csv.push_str("backend,");
        csv.push_str(&burst_series_csv(&out.seuss.records).replace('\n', "\nseuss,"));
        artifacts.push(Artifact::File(path.to_string(), csv));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seuss_serves_every_request_linux_errors() {
        // 8 bursts every 8 s (the harshest period): enough bound
        // containers accumulate (8 × 128 + 256 stemcells + background) to
        // hit the 1024-container cache limit and saturate the bridge —
        // the paper's failure mechanism.
        let mut p = BurstParams::paper(8);
        p.bursts = 8;
        let out =
            run_burst_with_faults(p, 4 * 1024, 2, &FaultPlan::none(), RetryPolicy::resilient());
        // SEUSS: no request returns an error (the paper's headline).
        assert_eq!(out.seuss.background_err, 0, "SEUSS background errors");
        assert_eq!(out.seuss.burst_err, 0, "SEUSS burst errors");
        // Linux: the container cache cannot keep up at 8 s.
        assert!(
            out.linux.burst_err + out.linux.background_err > 0,
            "Linux should show errors at the 8 s period"
        );
        // SEUSS background stream stays low-latency.
        assert!(
            out.seuss.background_p50_ms < out.linux.background_p50_ms * 2.0 + 500.0,
            "seuss bg p50 {} vs linux {}",
            out.seuss.background_p50_ms,
            out.linux.background_p50_ms
        );
    }
}
