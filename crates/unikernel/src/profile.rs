//! UC sizing/cost calibration.
//!
//! Like `miniscript::RuntimeProfile`, this profile carries the magnitudes
//! that scale the mechanical UC model up to the paper's Node.js-on-Rumprun
//! measurements. Calibration targets (§7, Tables 1–3):
//!
//! * the fully-initialized Node.js runtime snapshot resolves ≈109.6 MiB
//!   before AO — text (44 MiB) + boot/runtime/driver writes (≈65 MiB);
//! * network AO removes N + D = 25.2 ms of first-connection and
//!   first-request cost from the cold path (42 → 16.8 ms) and commits
//!   ≈0.65 MiB of IO + driver state pre-snapshot;
//! * an idle UC deployed from a snapshot costs ≈1.6 MiB (54 000 UCs in
//!   88 GB): kernel metadata plus the pages the driver dirties resuming
//!   to its listening state.

use simcore::SimDuration;

/// Sizing and one-time-cost constants for a UC.
#[derive(Clone, Copy, Debug)]
pub struct UcProfile {
    /// Bytes of data/bss written by rumprun + libc + filesystem init.
    pub boot_data_bytes: u64,
    /// Bytes the interpreter writes while starting (heap commit, GC
    /// spaces) before any script runs.
    pub(crate) runtime_init_bytes: u64,
    /// Bytes written while starting the invocation driver (socket setup,
    /// script load).
    pub(crate) driver_init_bytes: u64,
    /// Virtual time to boot the unikernel to the driver-listen point.
    pub(crate) boot_time: SimDuration,
    /// Kernel-side frames pinned per live UC (descriptor, kernel stacks,
    /// per-UC packet rings).
    pub(crate) kmeta_pages: u64,
    /// Pages the driver dirties when a deployed UC resumes to its
    /// listening state (scattered writes into the data region).
    pub(crate) resume_touch_pages: u64,
    /// Bytes of IO-region state committed by the first network use
    /// (sockets, protocol control blocks, buffer pools).
    pub(crate) net_warm_bytes: u64,
    /// One-time cost of the first network use in a UC lineage — the N
    /// term of the Table 2 decomposition, hoisted by network AO.
    pub(crate) net_first_use_time: SimDuration,
    /// One-time cost of the driver handling its first request in a UC
    /// lineage — the D term, also hoisted by network AO (the AO request
    /// exercises the accept/dispatch path).
    pub(crate) driver_first_request_time: SimDuration,
    /// Bytes the driver commits handling its first request.
    pub(crate) driver_first_request_bytes: u64,
    /// Per-connection cost once the network path is warm.
    pub(crate) net_conn_time: SimDuration,
    /// Fuel budget per invocation segment (VM operations). A runaway
    /// script exhausts this and fails instead of wedging the host — the
    /// in-simulation counterpart of the platform's 60 s timeout.
    pub(crate) invocation_fuel: u64,
}

impl UcProfile {
    /// Calibrated to the paper's Node.js/Rumprun stack.
    pub fn nodejs() -> Self {
        UcProfile {
            boot_data_bytes: 22 << 20,
            runtime_init_bytes: 38 << 20,
            driver_init_bytes: 5 << 20,
            boot_time: SimDuration::from_millis(700),
            kmeta_pages: 64,
            resume_touch_pages: 349,
            net_warm_bytes: 400 << 10,
            net_first_use_time: SimDuration::from_micros(23_100),
            driver_first_request_time: SimDuration::from_micros(2_100),
            driver_first_request_bytes: 250 << 10,
            net_conn_time: SimDuration::from_micros(50),
            invocation_fuel: 64_000_000,
        }
    }

    /// Tiny profile for fast unit tests.
    pub fn tiny() -> Self {
        UcProfile {
            boot_data_bytes: 64 << 10,
            runtime_init_bytes: 64 << 10,
            driver_init_bytes: 16 << 10,
            boot_time: SimDuration::from_millis(10),
            kmeta_pages: 2,
            resume_touch_pages: 4,
            net_warm_bytes: 8 << 10,
            net_first_use_time: SimDuration::from_micros(500),
            driver_first_request_time: SimDuration::from_micros(100),
            driver_first_request_bytes: 4 << 10,
            net_conn_time: SimDuration::from_micros(10),
            invocation_fuel: 200_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodejs_base_snapshot_near_paper() {
        let p = UcProfile::nodejs();
        let text = 44u64 << 20;
        let dirty = p.boot_data_bytes + p.runtime_init_bytes + p.driver_init_bytes;
        let total_mib = (text + dirty) as f64 / (1024.0 * 1024.0);
        // Paper: 109.6 MiB before AO.
        assert!((104.0..115.0).contains(&total_mib), "{total_mib}");
    }

    #[test]
    fn idle_uc_footprint_near_density_target() {
        let p = UcProfile::nodejs();
        // Idle deployed UC ≈ kmeta + resume dirty + ~4 table pages.
        let pages = p.kmeta_pages + p.resume_touch_pages + 4;
        let mib = (pages * 4096) as f64 / (1024.0 * 1024.0);
        // 88 GB / 54 000 ≈ 1.67 MiB.
        assert!((1.5..1.8).contains(&mib), "{mib}");
    }
}
