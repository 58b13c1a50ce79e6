//! Firecracker microVMs (Kata backend): the VM-isolation baseline.
//!
//! "The minimal latency to deploy a single Node.js instance grew to over
//! 3 seconds, due to the requirement to boot the Linux kernel prior to
//! deploying the container and runtime. This resulted in a creation rate
//! of 1.3 instances per second" (§7), and "the use of a container
//! isolated within a virtual machine (with its own Linux kernel) results
//! in an increase of over 100 MB to the per-instance footprint … around
//! 450" instances in 88 GB.

use simcore::SimDuration;

/// Firecracker microVM creation/footprint model.
pub struct FirecrackerEngine {
    /// Resident memory per microVM instance (guest kernel + container +
    /// runtime), MiB.
    pub footprint_mib: f64,
    /// Guest kernel boot + container + runtime start, alone.
    pub(crate) base_latency: SimDuration,
    /// Added latency per concurrent creation (host KVM/IO contention).
    pub(crate) contention_per_concurrent: SimDuration,
}

impl Default for FirecrackerEngine {
    fn default() -> Self {
        Self::paper()
    }
}

impl FirecrackerEngine {
    /// Calibrated to Table 3: 450 instances in 88 GB, 1.3/s at 16-way.
    pub fn paper() -> Self {
        FirecrackerEngine {
            footprint_mib: 195.0,
            base_latency: SimDuration::from_millis(3_200),
            contention_per_concurrent: SimDuration::from_micros(570_000),
        }
    }

    /// Creation latency at an explicit concurrency level (for the
    /// parallel-fill harness).
    pub fn latency_with(&self, concurrent: u64) -> SimDuration {
        self.base_latency + self.contention_per_concurrent * concurrent
    }

    /// How many microVMs fit in `mem_mib` of memory.
    pub fn density_limit(&self, mem_mib: u64) -> u64 {
        (mem_mib as f64 / self.footprint_mib) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_table_3() {
        let e = FirecrackerEngine::paper();
        let d = e.density_limit(88 * 1024);
        assert!((440..480).contains(&d), "{d}");
    }

    #[test]
    fn single_boot_over_3_seconds() {
        let e = FirecrackerEngine::paper();
        assert!(e.latency_with(1) > SimDuration::from_secs(3));
    }

    #[test]
    fn sixteen_way_rate_near_1_3_per_second() {
        let e = FirecrackerEngine::paper();
        let rate = 16.0 / e.latency_with(16).as_secs_f64();
        assert!((1.2..1.5).contains(&rate), "{rate}");
    }
}
