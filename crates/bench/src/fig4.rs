//! Figure 4: OpenWhisk platform throughput vs unique-function set size.
//!
//! Each trial doubles the number of unique NOP functions (64 … 65536) and
//! drives the platform with 32 closed-loop workers until throughput
//! stabilizes. The paper's shape: both backends comparable (Linux ≈21%
//! ahead) while everything fits the container cache; Linux collapses
//! after saturation; SEUSS sustains throughput and ends up ~52× ahead on
//! the mostly-unique workload.

/// One set-size point for one backend.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Point {
    /// Unique-function set size (M).
    pub set_size: u64,
    /// SEUSS steady-state throughput, requests/s.
    pub seuss_rps: f64,
    /// Linux steady-state throughput, requests/s.
    pub linux_rps: f64,
    /// Errors on the Linux backend.
    pub linux_errors: u64,
    /// Errors on the SEUSS backend.
    pub seuss_errors: u64,
}

/// Runs the Figure 4 sweep over the given set sizes.
///
/// `invocations_per_trial` overrides N when `Some` (tests use small N);
/// `mem_mib` sizes the SEUSS node (the paper's 88 GB for the full run).
/// The sweep's (set size × backend) cells run on `workers` threads;
/// results are identical at every worker count.
pub fn run_fig4(
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
            seuss_errors: seuss.errors,
            linux_rps: linux.steady_throughput_rps,
            linux_errors: linux.errors,
        })
        .collect()
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
