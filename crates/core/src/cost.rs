//! The node cost model: fixed per-phase overheads.
//!
//! Mechanism crates already price their own work (page clones at 0.8 µs,
//! table ops, interpreter cycles at 1 ns). What remains are the fixed
//! software overheads of the SEUSS OS itself, calibrated so the post-AO
//! NOP microbenchmark lands on Table 1:
//!
//! ```text
//! hot  (0.8 ms)  = arg_import + dispatch_fixed + exec(≈0) + respond
//!                = 0.10 + 0.65 + 0.03            ≈ 0.78 ms
//! warm (3.5 ms)  = uc_construct_fixed + deploy-mech(≈0.28) + connect(0.05)
//!                  + hot-part(0.78)              ≈ 3.46 ms
//! cold (7.5 ms)  = warm + import(3.60 fixed + per-byte) + capture(≈0.42)
//!                                                ≈ 7.54 ms
//! ```
//!
//! `uc_construct_fixed` covers UC descriptor setup, core assignment,
//! page-table root install + TLB flush bookkeeping, and the driver's
//! resume-to-listening execution — everything in "constructing and
//! deploying the UC" that is not explicitly counted page work.

use simcore::SimDuration;

/// Fixed per-phase costs of the SEUSS OS node.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed cost of constructing + scheduling a new UC (beyond counted
    /// page-table and COW work).
    pub uc_construct_fixed: SimDuration,
    /// Importing the run arguments into a UC.
    pub(crate) arg_import: SimDuration,
    /// Driver dispatch overhead per invocation (HTTP parse, JSON
    /// marshalling, event-loop turn) — why even a NOP "ran for roughly
    /// 0.5 ms".
    pub(crate) dispatch_fixed: SimDuration,
    /// Returning the result from the UC to the kernel.
    pub(crate) respond: SimDuration,
    /// Per-byte cost of streaming function source into the UC.
    pub(crate) import_per_byte: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostModel {
    /// Calibrated to Table 1 (see module docs for the arithmetic).
    pub(crate) fn paper() -> Self {
        CostModel {
            uc_construct_fixed: SimDuration::from_micros(2_350),
            arg_import: SimDuration::from_micros(100),
            dispatch_fixed: SimDuration::from_micros(650),
            respond: SimDuration::from_micros(30),
            import_per_byte: SimDuration::from_nanos(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_fixed_costs_near_0_8_ms() {
        let c = CostModel::paper();
        let hot = c.arg_import + c.dispatch_fixed + c.respond;
        let ms = hot.as_millis_f64();
        assert!((0.7..0.9).contains(&ms), "{ms}");
    }

    #[test]
    fn warm_adds_construction_overhead() {
        let c = CostModel::paper();
        // Mechanical deploy work (≈0.28 ms for 349 resume touches) is
        // charged by the image store; the fixed part plus connect must
        // bring warm to ≈3.5 ms.
        let warm_fixed = c.uc_construct_fixed.as_millis_f64() + 0.28 + 0.05 + 0.78;
        assert!((3.3..3.7).contains(&warm_fixed), "{warm_fixed}");
    }
}
