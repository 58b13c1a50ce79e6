//! Operation counters: the currency between mechanism and cost model.
//!
//! Every MMU operation increments these counters. The SEUSS cost model
//! (`seuss-core::cost`) multiplies them by calibrated per-op costs to
//! produce virtual time, and the experiment harnesses report several of
//! them directly (e.g. "pages copied" in Table 1).

/// Counters of page-table and memory work performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Page-table levels traversed during walks.
    pub levels_walked: u64,
    /// Fresh page tables allocated.
    pub tables_allocated: u64,
    /// Shared tables split (cloned) on a write path.
    pub tables_split: u64,
    /// Entries copied while cloning tables (512 per split/shallow-clone).
    pub entries_copied: u64,
    /// Data frames cloned by COW breaks.
    pub cow_clones: u64,
    /// Data frames cloned while capturing snapshots.
    pub snapshot_clones: u64,
    /// Demand-zero data frames allocated.
    pub demand_zero_allocs: u64,
    /// Shallow root clones performed (deploys + captures).
    pub shallow_clones: u64,
    /// TLB flushes (address-space switches).
    pub tlb_flushes: u64,
    /// Dirty-scan leaf entries visited.
    pub dirty_scanned: u64,
    /// Unresolvable faults delivered.
    pub hard_faults: u64,
    /// Swapped-out pages faulted back in from the block device.
    pub swap_ins: u64,
    /// Virtual nanoseconds spent on device reads servicing swap-ins.
    pub swap_in_nanos: u64,
}

impl OpStats {
    /// A zeroed counter set.
    pub(crate) fn new() -> Self {
        OpStats::default()
    }

    /// The difference `self - earlier`, for measuring one operation.
    ///
    /// All counters are monotone, so plain subtraction is meaningful.
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            levels_walked: self.levels_walked - earlier.levels_walked,
            tables_allocated: self.tables_allocated - earlier.tables_allocated,
            tables_split: self.tables_split - earlier.tables_split,
            entries_copied: self.entries_copied - earlier.entries_copied,
            cow_clones: self.cow_clones - earlier.cow_clones,
            snapshot_clones: self.snapshot_clones - earlier.snapshot_clones,
            demand_zero_allocs: self.demand_zero_allocs - earlier.demand_zero_allocs,
            shallow_clones: self.shallow_clones - earlier.shallow_clones,
            tlb_flushes: self.tlb_flushes - earlier.tlb_flushes,
            dirty_scanned: self.dirty_scanned - earlier.dirty_scanned,
            hard_faults: self.hard_faults - earlier.hard_faults,
            swap_ins: self.swap_ins - earlier.swap_ins,
            swap_in_nanos: self.swap_in_nanos - earlier.swap_in_nanos,
        }
    }

    /// Total data frames this interval made private to some address space
    /// (COW breaks + demand-zero). This is the paper's "pages copied".
    pub fn pages_copied(&self) -> u64 {
        self.cow_clones + self.demand_zero_allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = OpStats {
            levels_walked: 10,
            cow_clones: 3,
            ..OpStats::new()
        };
        let b = OpStats {
            levels_walked: 25,
            cow_clones: 7,
            demand_zero_allocs: 2,
            ..OpStats::new()
        };
        let d = b.since(&a);
        assert_eq!(d.levels_walked, 15);
        assert_eq!(d.cow_clones, 4);
        assert_eq!(d.pages_copied(), 6);
    }
}
