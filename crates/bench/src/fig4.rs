//! Figure 4: OpenWhisk platform throughput vs unique-function set size.
//!
//! Each trial doubles the number of unique NOP functions (64 … 65536) and
//! drives the platform with 32 closed-loop workers until throughput
//! stabilizes. The paper's shape: both backends comparable (Linux ≈21%
//! ahead) while everything fits the container cache; Linux collapses
//! after saturation; SEUSS sustains throughput and ends up ~52× ahead on
//! the mostly-unique workload.

use std::fmt::Write;

use crate::cli::Args;
use crate::render::Table;
use crate::Artifact;

/// One set-size point for one backend.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig4Point {
    /// Unique-function set size (M).
    pub(crate) set_size: u64,
    /// SEUSS steady-state throughput, requests/s.
    pub(crate) seuss_rps: f64,
    /// Linux steady-state throughput, requests/s.
    pub(crate) linux_rps: f64,
    /// Errors on the Linux backend.
    pub(crate) linux_errors: u64,
}

/// Runs the Figure 4 sweep over the given set sizes.
///
/// `invocations_per_trial` overrides N when `Some` (tests use small N);
/// `mem_mib` sizes the SEUSS node (the paper's 88 GB for the full run).
/// The sweep's (set size × backend) cells run on `workers` threads;
/// results are identical at every worker count.
pub(crate) fn run_fig4(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<Fig4Point> {
    crate::throughput_grid(set_sizes, invocations_per_trial, mem_mib, workers)
        .into_iter()
        .map(|(m, seuss, linux)| Fig4Point {
            set_size: m,
            seuss_rps: seuss.steady_throughput_rps,
            linux_rps: linux.steady_throughput_rps,
            linux_errors: linux.errors,
        })
        .collect()
}

fn bar(v: f64, max: f64, width: usize) -> String {
    if v <= 0.0 {
        return String::new();
    }
    // Log scale from 1 to max.
    let frac = (v.max(1.0)).ln() / max.ln();
    "#".repeat((frac * width as f64).round() as usize)
}

/// The `fig4` experiment: the sweep over set sizes 64, 128, … up to
/// `max_set_size` on a `mem_mib` SEUSS node, as a table plus a
/// log-scale ASCII plot. The full sweep (… 65536 on an 88 GiB node)
/// takes a while; the default stops at 16384 on 24 GiB, which shows the
/// whole shape. A `max_set_size` below 64 leaves no set size to run, so
/// it is an error rather than an empty table.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let max_m: u64 = a.num(0);
    let sizes: Vec<u64> = std::iter::successors(Some(64u64), |m| Some(m * 2))
        .take_while(|&m| m <= max_m)
        .collect();
    if sizes.is_empty() {
        return Err(format!(
            "max_set_size {max_m} is below the first set size, 64"
        ));
    }
    let points = run_fig4(&sizes, None, a.num(1), workers);

    let mut out = String::new();
    let mut t = Table::new(
        "Figure 4: platform throughput vs unique-function set size",
        &[
            "set size",
            "SEUSS rps",
            "Linux rps",
            "SEUSS/Linux",
            "Linux errs",
        ],
    );
    let peak = points
        .iter()
        .map(|p| p.seuss_rps.max(p.linux_rps))
        .fold(1.0, f64::max);
    for p in &points {
        t.row(&[
            format!("{}", p.set_size),
            format!("{:.1}", p.seuss_rps),
            format!("{:.1}", p.linux_rps),
            format!("{:.1}x", p.seuss_rps / p.linux_rps.max(1e-9)),
            format!("{}", p.linux_errors),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let _ = writeln!(out, "log-scale throughput (S = SEUSS, L = Linux):");
    for p in &points {
        let _ = writeln!(out, "{:>7} S |{}", p.set_size, bar(p.seuss_rps, peak, 50));
        let _ = writeln!(out, "{:>7} L |{}", "", bar(p.linux_rps, peak, 50));
    }
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        let _ = writeln!(
            out,
            "\nleft edge: Linux ahead by {:.0}% (paper: 21%); right edge: SEUSS ahead {:.0}x (paper: up to 52x)",
            (first.linux_rps / first.seuss_rps - 1.0) * 100.0,
            last.seuss_rps / last.linux_rps.max(1e-9)
        );
    }
    Ok(vec![Artifact::Printed("results/fig4.txt".into(), out)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_crossover_shape() {
        // Small-memory, small-N rendition of the sweep: the crossover and
        // collapse must still appear.
        let pts = run_fig4(&[64, 2048], Some(4096), 3 * 1024, 2);
        let small = &pts[0];
        let big = &pts[1];
        // Small working set: Linux ahead (the shim hop), within ~10–40%.
        assert!(
            small.linux_rps > small.seuss_rps,
            "linux {} vs seuss {}",
            small.linux_rps,
            small.seuss_rps
        );
        assert!(small.linux_rps < small.seuss_rps * 1.6);
        // Past container-cache saturation: Linux collapses, SEUSS holds.
        assert!(
            big.seuss_rps > 10.0 * big.linux_rps,
            "seuss {} vs linux {}",
            big.seuss_rps,
            big.linux_rps
        );
        assert!(big.seuss_rps > 0.5 * small.seuss_rps, "SEUSS holds up");
    }
}
