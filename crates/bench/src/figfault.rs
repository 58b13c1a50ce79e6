//! Fault figure: availability and latency under an injected fault
//! schedule.
//!
//! Three sides run the *same* workload and the *same* seeded
//! [`FaultPlan`] — SEUSS with the resilient retry policy, SEUSS with
//! retries disabled (the ablation), and the Linux baseline — and the
//! per-second availability series shows the paper's resilience story:
//! with retry, backoff and shedding the platform absorbs node crashes and
//! packet loss (availability dips during the outage, then returns to
//! 100%), while the no-retry ablation surfaces every faulted request as
//! an error.

use std::fmt::Write;

use seuss::faults::{spec::compile, FaultPlan, RetryPolicy};
use seuss_platform::{run_trial, RequestRecord, RequestStatus};
use seuss_workload::{
    report::{per_second_series, SecondBucket},
    BurstParams,
};

use crate::cli::Args;
use crate::figburst::timeline;
use crate::Artifact;

/// One platform variant under the fault schedule.
#[derive(Clone, Debug)]
pub(crate) struct FaultSide {
    /// Stable lowercase label used in the CSV (`seuss`,
    /// `seuss_no_retry`, `linux`).
    pub(crate) label: &'static str,
    /// Raw request records.
    pub(crate) records: Vec<RequestRecord>,
    /// Requests that completed successfully.
    pub(crate) completed: u64,
    /// Requests that errored.
    pub(crate) errors: u64,
    /// Lowest per-second availability observed, percent.
    pub(crate) min_availability_pct: f64,
    /// Whether the final seconds of the run were error-free — i.e. the
    /// platform returned to 100% availability after the faults cleared.
    pub(crate) recovered: bool,
}

/// The full fault experiment: all three sides.
#[derive(Clone, Debug)]
pub(crate) struct FaultOutcome {
    /// SEUSS with [`RetryPolicy::resilient`].
    pub(crate) resilient: FaultSide,
    /// SEUSS with [`RetryPolicy::none`] — the ablation.
    pub(crate) no_retry: FaultSide,
    /// Linux baseline with [`RetryPolicy::resilient`].
    pub(crate) linux: FaultSide,
}

/// The default fault schedule for a run of `params`: a node crash just
/// after the second burst (rebooting for two seconds) overlapping a 30%
/// packet-loss window — both sized off the lead-in so shrunken test
/// configurations still place the faults inside the run.
pub(crate) fn default_fault_spec(params: &BurstParams) -> String {
    let crash_at = params.lead_in_s + params.period_s + 1;
    let loss_at = params.lead_in_s;
    let loss_span = params.period_s * 2;
    format!("crash@{crash_at}s+2s,loss@{loss_at}s+{loss_span}s:0.3")
}

fn side(label: &'static str, records: Vec<RequestRecord>) -> FaultSide {
    let completed = records
        .iter()
        .filter(|r| r.status == RequestStatus::Ok)
        .count() as u64;
    let errors = records.len() as u64 - completed;
    let series = per_second_series(&records);
    let min_availability_pct = series
        .iter()
        .map(availability_pct)
        .fold(f64::INFINITY, f64::min);
    // Recovered = the trailing three seconds with traffic are clean.
    let recovered = series.iter().rev().take(3).all(|b| b.errors == 0);
    FaultSide {
        label,
        records,
        completed,
        errors,
        min_availability_pct,
        recovered,
    }
}

fn availability_pct(b: &SecondBucket) -> f64 {
    if b.sent == 0 {
        100.0
    } else {
        100.0 * (b.sent - b.errors) as f64 / b.sent as f64
    }
}

/// Runs the fault experiment: the burst workload of `params` on a
/// `mem_mib` SEUSS node (resilient and no-retry) and on the Linux
/// baseline, all under `plan`. The three sides are independent trials
/// run on `workers` threads; results are byte-identical at every worker
/// count.
pub(crate) fn run_figfault(
    params: BurstParams,
    mem_mib: u64,
    workers: usize,
    plan: &FaultPlan,
) -> FaultOutcome {
    let variants: Vec<(&'static str, bool, RetryPolicy)> = vec![
        ("seuss", true, RetryPolicy::resilient()),
        ("seuss_no_retry", true, RetryPolicy::none()),
        ("linux", false, RetryPolicy::resilient()),
    ];
    let mut sides =
        seuss_exec::ordered_parallel(variants, workers, |_, (label, is_seuss, retry)| {
            let (reg, spec) = params.build();
            let cfg = crate::burst_cluster(is_seuss, mem_mib, plan, retry);
            side(label, run_trial(cfg, reg, &spec).records)
        });

    let linux = sides.pop().expect("linux side");
    let no_retry = sides.pop().expect("no-retry side");
    let resilient = sides.pop().expect("resilient side");
    FaultOutcome {
        resilient,
        no_retry,
        linux,
    }
}

/// Renders the per-second availability/latency time series of all three
/// sides as CSV — the figure's canonical artifact, which `reproduce
/// check` compares across worker counts.
pub(crate) fn availability_csv(out: &FaultOutcome) -> String {
    let mut csv = String::from("side,second,sent,errors,availability_pct,p50_ms,p99_ms\n");
    for s in [&out.resilient, &out.no_retry, &out.linux] {
        for b in per_second_series(&s.records) {
            csv.push_str(&format!(
                "{},{},{},{},{:.3},{:.3},{:.3}\n",
                s.label,
                b.second,
                b.sent,
                b.errors,
                availability_pct(&b),
                b.p50_ms,
                b.p99_ms
            ));
        }
    }
    csv
}

/// The resilience contract under the default schedule: the resilient
/// side recovers to 100% availability with a small fraction of the
/// ablation's errors, while the ablation reports errors. `Err` names the
/// first clause that failed.
fn resilience_contract(out: &FaultOutcome) -> Result<(), String> {
    if !out.resilient.recovered {
        Err("resilient availability must return to 100% after the faults".into())
    } else if out.no_retry.errors == 0 {
        Err("the no-retry ablation should surface errors".into())
    } else if out.resilient.errors * 5 >= out.no_retry.errors {
        Err(format!(
            "retry should absorb most faults (resilient {} errors vs ablation {})",
            out.resilient.errors, out.no_retry.errors
        ))
    } else {
        Ok(())
    }
}

/// The `figfault` experiment: `bursts` bursts every `period_s` seconds
/// on a 16 GiB SEUSS node, resilient vs no-retry vs Linux, under
/// `--fault-plan` — by default a node crash (2 s reboot) overlapping a
/// 30% packet-loss window. Under the default schedule the run checks the
/// resilience contract and fails, with the timeline, if it does not hold.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let mut params = BurstParams::paper(a.num(0));
    params.bursts = a.num(1);
    let spec = a
        .fault_spec
        .clone()
        .unwrap_or_else(|| default_fault_spec(&params));
    let plan = compile(&spec, a.fault_seed).map_err(|e| e.to_string())?;
    let out = run_figfault(params, 16 * 1024, workers, &plan);

    let mut report = format!(
        "== Availability under faults: {spec} (seed {}) ==\n\n",
        a.fault_seed
    );
    report.push_str("  per-second timeline ('.' ok, '~' >1s, '!' >5s, 'x' error):\n");
    let sides = [&out.resilient, &out.no_retry, &out.linux];
    for side in sides {
        let _ = writeln!(
            report,
            "  {:>14} |{}| min availability {:5.1}% {}",
            side.label,
            timeline(&side.records, params.span().as_secs_f64()),
            side.min_availability_pct,
            if side.recovered {
                "(recovered)"
            } else {
                "(NOT recovered)"
            },
        );
    }
    for side in sides {
        let _ = writeln!(
            report,
            "  {:>14}: {} ok / {} err",
            side.label, side.completed, side.errors
        );
    }
    if a.fault_spec.is_none() {
        resilience_contract(&out).map_err(|why| format!("{why}\n{report}"))?;
        let _ = writeln!(
            report,
            "\nresilience contract holds: retry/backoff absorbs the crash and loss window \
             ({} vs {} errors without retries), availability back to 100% after recovery",
            out.resilient.errors, out.no_retry.errors
        );
    }
    Ok(vec![
        Artifact::Report(report),
        Artifact::File("results/figfault.csv".into(), availability_csv(&out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BurstParams {
        BurstParams {
            period_s: 4,
            bursts: 2,
            burst_size: 8,
            burst_cpu: simcore::SimDuration::from_millis(50),
            background_fns: 4,
            background_workers: 8,
            background_rps: 8.0,
            lead_in_s: 2,
        }
    }

    #[test]
    fn retry_recovers_where_the_ablation_errors() {
        let p = small();
        let plan = compile(&default_fault_spec(&p), 42).expect("valid default spec");
        let out = run_figfault(p, 1024, 2, &plan);

        // Resilient SEUSS absorbs the crash; the 30% loss window can
        // still exhaust a 4-attempt budget for the odd request, so the
        // contract is recovery plus a small fraction of the ablation's
        // error count — not strictly zero.
        assert!(out.resilient.recovered, "availability must return to 100%");
        assert!(out.resilient.completed > 0);
        assert!(
            out.no_retry.errors > 0,
            "no-retry ablation must report errors"
        );
        assert!(
            out.resilient.errors * 5 < out.no_retry.errors,
            "retry must absorb most faults: resilient {} vs ablation {}",
            out.resilient.errors,
            out.no_retry.errors
        );
        assert!(
            out.resilient.min_availability_pct > out.no_retry.min_availability_pct,
            "retry must keep availability higher through the fault window"
        );
        // Same workload on both SEUSS sides.
        assert_eq!(
            out.resilient.completed + out.resilient.errors,
            out.no_retry.completed + out.no_retry.errors
        );
    }

    #[test]
    fn artifacts_are_byte_identical_at_every_worker_count() {
        let p = small();
        let plan = compile("crash@5s+1s,loss@2s+3s:0.4", 7).expect("valid spec");
        let base = availability_csv(&run_figfault(p, 1024, 1, &plan));
        for workers in [2, 4] {
            let got = availability_csv(&run_figfault(p, 1024, workers, &plan));
            assert_eq!(base, got, "CSV diverged at workers={workers}");
        }
        assert!(base.contains("seuss_no_retry"));
    }

    #[test]
    fn empty_plan_matches_the_plain_burst_run() {
        let p = small();
        let out = run_figfault(p, 1024, 2, &FaultPlan::none());
        assert_eq!(out.resilient.errors, 0);
        assert!(out.resilient.recovered);
        // Without faults the retry policy is never consulted: both SEUSS
        // sides produce identical records.
        assert_eq!(
            seuss_platform::records_jsonl(&out.resilient.records),
            seuss_platform::records_jsonl(&out.no_retry.records)
        );
    }
}
