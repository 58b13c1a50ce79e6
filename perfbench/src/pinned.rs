//! Exact simulated statistics pinned for the default seed and one
//! held-out seed. Every run re-derives them and fails on any difference,
//! so a change that claims only speed cannot also change behaviour.
//!
//! Only aggregates are pinned, never a hash of the records CSV: adding a
//! column to the records must not look like a change in behaviour.

use crate::args::DEFAULT_SEED;
use crate::workloads::{SimStats, Workload};

/// A seed no tuning of the benchmark looked at.
pub const HELD_OUT_SEED: u64 = 20_200_427;

/// The seeds with pinned statistics.
pub const PINNED_SEEDS: [u64; 2] = [DEFAULT_SEED, HELD_OUT_SEED];

/// The pinned statistics of `w` on `seed`, if `seed` is pinned.
pub fn pinned(w: Workload, seed: u64) -> Option<SimStats> {
    use Workload::*;
    let s = |cold, warm, hot, warm_tier, finish_ns, sim_rps, p50, p99, completed| SimStats {
        completed,
        errors: 0,
        cold,
        warm,
        hot,
        warm_tier,
        finish_ns,
        sim_rps,
        lat_p50_ms: p50,
        lat_p99_ms: p99,
    };
    Some(match (w, seed) {
        (ChurnUniform, DEFAULT_SEED) => s(
            8192,
            4102,
            4090,
            0,
            25_035_241_468,
            656.426329492838,
            47.460602,
            51.570894,
            16_384,
        ),
        (ChurnUniform, HELD_OUT_SEED) => s(
            8192,
            4166,
            4026,
            0,
            25_040_215_598,
            656.8920737980338,
            47.460602,
            51.570894,
            16_384,
        ),
        (HotZipf, DEFAULT_SEED) => s(
            1024,
            0,
            261_120,
            0,
            367_082_956_426,
            714.6047023401206,
            44.780002,
            44.780002,
            262_144,
        ),
        (HotZipf, HELD_OUT_SEED) => s(
            1024,
            0,
            261_120,
            0,
            367_082_950_420,
            714.6047023401205,
            44.780002,
            44.780002,
            262_144,
        ),
        (TierPressure, DEFAULT_SEED | HELD_OUT_SEED) => s(
            2048,
            23_136,
            0,
            9632,
            110_547_744_514,
            314.9408443660361,
            3.144764,
            3.546564,
            34_816,
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_pinned_on_both_seeds() {
        for w in Workload::ALL {
            for seed in PINNED_SEEDS {
                let s = pinned(w, seed).expect("pinned");
                assert_eq!(s.errors, 0);
                assert_eq!(s.cold + s.warm + s.hot + s.warm_tier, s.completed);
            }
            assert!(pinned(w, DEFAULT_SEED + 1).is_none());
        }
    }
}
