//! Figure 5: end-to-end request latency percentiles of a NOP function at
//! three function set sizes (1st/25th/50th/75th/99th percentiles + mean).
//!
//! Paper shape: at 64 functions both backends sit in the tens of
//! milliseconds (Linux slightly lower — no shim hop); at 2048 the Linux
//! distribution explodes into seconds (every miss is a container create
//! + evict) while SEUSS moves by single-digit milliseconds.

use simcore::PercentileSummary;

use std::fmt::Write;

use crate::cli::Args;
use crate::render::Table;
use crate::Artifact;

/// One (backend, set size) row of Figure 5.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig5Row {
    /// Unique-function set size.
    pub(crate) set_size: u64,
    /// SEUSS latency percentiles, ms.
    pub(crate) seuss: PercentileSummary,
    /// Linux latency percentiles, ms.
    pub(crate) linux: PercentileSummary,
}

/// Runs Figure 5 at the given set sizes. The (set size × backend) cells
/// run on `workers` threads; results are identical at every worker
/// count.
pub(crate) fn run_fig5(
    set_sizes: &[u64],
    invocations_per_trial: Option<u64>,
    mem_mib: u64,
    workers: usize,
) -> Vec<Fig5Row> {
    crate::throughput_grid(set_sizes, invocations_per_trial, mem_mib, workers)
        .into_iter()
        .map(|(m, seuss, linux)| Fig5Row {
            set_size: m,
            seuss: seuss.latency,
            linux: linux.latency,
        })
        .collect()
}

/// The `fig5` experiment: Figure 5 at set sizes 64, 2048 and 16384 on a
/// `mem_mib` SEUSS node.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let rows = run_fig5(&[64, 2_048, 16_384], None, a.num(0), workers);
    let mut out = String::new();
    for row in &rows {
        let mut t = Table::new(
            format!(
                "Figure 5: latency percentiles, {} functions (ms)",
                row.set_size
            ),
            &["backend", "p1", "p25", "p50", "p75", "p99", "mean"],
        );
        for (name, s) in [("SEUSS", row.seuss), ("Linux", row.linux)] {
            t.row(&[
                name.into(),
                format!("{:.1}", s.p1),
                format!("{:.1}", s.p25),
                format!("{:.1}", s.p50),
                format!("{:.1}", s.p75),
                format!("{:.1}", s.p99),
                format!("{:.1}", s.mean),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    let _ = writeln!(
        out,
        "paper shape: comparable tens-of-ms distributions at 64 functions\n\
         (Linux lower — the shim hop); Linux explodes to seconds once its\n\
         container cache saturates, SEUSS stays within tens of ms."
    );
    Ok(vec![Artifact::Printed("results/fig5.txt".into(), out)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_distribution_shape() {
        let rows = run_fig5(&[64, 2048], Some(4096), 3 * 1024, 2);
        let small = &rows[0];
        let big = &rows[1];
        // Small set: medians within tens of ms; Linux lower.
        assert!(small.linux.p50 < small.seuss.p50);
        assert!(small.seuss.p50 < 80.0, "{}", small.seuss.p50);
        // Saturated: Linux p50 in the seconds; SEUSS stays ≈50 ms.
        assert!(big.linux.p50 > 1_000.0, "{}", big.linux.p50);
        assert!(big.seuss.p50 < 100.0, "{}", big.seuss.p50);
        // SEUSS p99 grows only mildly with set size.
        assert!(big.seuss.p99 < small.seuss.p99 * 4.0 + 40.0);
    }
}
