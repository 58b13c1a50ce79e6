//! Plain Linux processes: the no-isolation baseline of Table 3.
//!
//! "As processes provide insufficient isolation, the purpose of this
//! result is to show the baseline memory sharing and startup latency of
//! Node.js on Linux" (§7). Creation is fork+exec plus Node.js startup;
//! the only cross-instance sharing is file-backed text, so each instance
//! holds ≈21 MiB of private memory (88 GB / 4 200).

use simcore::SimDuration;

/// Process-creation and footprint model.
pub struct ProcessEngine {
    /// Resident private memory per Node.js process, MiB.
    pub footprint_mib: f64,
    /// Base startup latency of one Node.js process, alone.
    pub(crate) base_latency: SimDuration,
    /// Added latency per concurrent creation (scheduler/page-cache
    /// contention at 16-way parallelism).
    pub(crate) contention_per_concurrent: SimDuration,
}

impl Default for ProcessEngine {
    fn default() -> Self {
        Self::paper()
    }
}

impl ProcessEngine {
    /// Calibrated to Table 3: 4 200 instances in 88 GB, 45/s at 16-way
    /// (effective 356 ms per creation at 16 concurrent).
    pub fn paper() -> Self {
        ProcessEngine {
            footprint_mib: 21.0,
            base_latency: SimDuration::from_millis(60),
            contention_per_concurrent: SimDuration::from_micros(18_500),
        }
    }

    /// Creation latency at an explicit concurrency level (for the
    /// parallel-fill harness).
    pub fn latency_with(&self, concurrent: u64) -> SimDuration {
        self.base_latency + self.contention_per_concurrent * concurrent
    }

    /// How many processes fit in `mem_mib` of memory.
    pub fn density_limit(&self, mem_mib: u64) -> u64 {
        (mem_mib as f64 / self.footprint_mib) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_table_3() {
        let e = ProcessEngine::paper();
        let d = e.density_limit(88 * 1024);
        assert!((4100..4400).contains(&d), "{d}");
    }

    #[test]
    fn sixteen_way_rate_near_45_per_second() {
        // Steady state: 16 in flight; each creation takes the latency at
        // concurrency 16, so rate = 16 / latency.
        let e = ProcessEngine::paper();
        let rate = 16.0 / e.latency_with(16).as_secs_f64();
        assert!((42.0..48.0).contains(&rate), "{rate}");
    }
}
