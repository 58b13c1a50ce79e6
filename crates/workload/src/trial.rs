//! Closed-loop trials: N invocations over M functions from C workers.

use seuss_platform::{FnKind, Registry, WorkloadSpec};
use simcore::{SimRng, Zipf};

/// Parameters of one benchmark trial.
#[derive(Clone, Copy, Debug)]
pub struct TrialParams {
    /// Total invocations (N).
    pub invocations: u64,
    /// Unique function set size (M).
    pub set_size: u64,
    /// Closed-loop worker threads (C).
    pub workers: u32,
    /// Function shape.
    pub kind: FnKind,
    /// Seed for the precomputed send order.
    pub seed: u64,
}

impl TrialParams {
    /// A Figure-4 style trial: NOP functions, 32 workers, N scaled to the
    /// set size so every trial reaches steady state.
    pub fn throughput(set_size: u64, seed: u64) -> Self {
        TrialParams {
            invocations: (2 * set_size).max(8_192),
            set_size,
            workers: 32,
            kind: FnKind::Nop,
            seed,
        }
    }

    /// Builds the function registry and the precomputed random order.
    ///
    /// Every function appears ⌈N/M⌉ or ⌊N/M⌋ times; the order is a seeded
    /// shuffle, reproducible across backends (the paper reuses one order
    /// for both Linux and SEUSS).
    pub fn build(&self) -> (Registry, WorkloadSpec) {
        let mut registry = Registry::new();
        registry.register_many(0, self.set_size, self.kind);
        let mut order: Vec<u64> = (0..self.invocations).map(|i| i % self.set_size).collect();
        let mut rng = SimRng::new(self.seed);
        rng.shuffle(&mut order);
        (registry, WorkloadSpec::closed_loop(order, self.workers))
    }
}

/// A popularity-skewed trial: function popularity follows a Zipf law
/// (`P(rank k) ∝ 1/k^alpha`), the shape real FaaS platforms observe — a
/// few hot functions dominate while a long tail stays cold. Skew is what
/// makes the idle-UC (hot) cache earn its keep.
#[derive(Clone, Copy, Debug)]
pub struct ZipfTrial {
    /// Total invocations (N).
    pub invocations: u64,
    /// Unique function set size (M).
    pub set_size: u64,
    /// Closed-loop worker threads (C).
    pub workers: u32,
    /// Skew exponent (0 = uniform; ≈1 is typical).
    pub alpha: f64,
    /// Function shape.
    pub kind: FnKind,
    /// Seed.
    pub seed: u64,
}

impl ZipfTrial {
    /// Builds the registry and a Zipf-sampled request order.
    pub fn build(&self) -> (Registry, WorkloadSpec) {
        assert!(self.set_size > 0, "need at least one function");
        let mut registry = Registry::new();
        registry.register_many(0, self.set_size, self.kind);
        // Inverse-CDF sampling over precomputed cumulative weights,
        // provided by simcore so every crate shares one implementation.
        let dist = Zipf::new(self.set_size, self.alpha);
        let mut rng = SimRng::new(self.seed);
        let order: Vec<u64> = (0..self.invocations)
            .map(|_| dist.sample(&mut rng))
            .collect();
        (registry, WorkloadSpec::closed_loop(order, self.workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_covers_all_functions_evenly() {
        let p = TrialParams {
            invocations: 100,
            set_size: 10,
            workers: 4,
            kind: FnKind::Nop,
            seed: 1,
        };
        let (reg, spec) = p.build();
        assert_eq!(reg.len(), 10);
        assert_eq!(spec.order.len(), 100);
        for f in 0..10u64 {
            assert_eq!(spec.order.iter().filter(|&&x| x == f).count(), 10);
        }
    }

    #[test]
    fn order_is_deterministic_per_seed() {
        let p = TrialParams {
            invocations: 50,
            set_size: 5,
            workers: 1,
            kind: FnKind::Nop,
            seed: 7,
        };
        assert_eq!(p.build().1.order, p.build().1.order);
        let mut q = p;
        q.seed = 8;
        assert_ne!(p.build().1.order, q.build().1.order);
    }

    #[test]
    fn order_is_shuffled() {
        let p = TrialParams {
            invocations: 64,
            set_size: 64,
            workers: 1,
            kind: FnKind::Nop,
            seed: 3,
        };
        let sorted: Vec<u64> = (0..64).collect();
        assert_ne!(p.build().1.order, sorted);
    }

    #[test]
    fn zipf_orders_are_skewed_and_deterministic() {
        let t = ZipfTrial {
            invocations: 10_000,
            set_size: 100,
            workers: 4,
            alpha: 1.0,
            kind: FnKind::Nop,
            seed: 11,
        };
        let (_, spec) = t.build();
        assert_eq!(spec.order, t.build().1.order, "seeded determinism");
        // Rank-1 function dominates: with alpha=1 over 100 fns it draws
        // ~1/H(100) ≈ 19% of requests.
        let top = spec.order.iter().filter(|&&f| f == 0).count() as f64 / 10_000.0;
        assert!((0.14..0.26).contains(&top), "rank-1 share {top}");
        // Everything stays in range.
        assert!(spec.order.iter().all(|&f| f < 100));
        // Uniform alpha flattens it.
        let flat = ZipfTrial { alpha: 0.0, ..t }.build().1;
        let top_flat = flat.order.iter().filter(|&&f| f == 0).count() as f64 / 10_000.0;
        assert!(top_flat < 0.03, "uniform rank-1 share {top_flat}");
    }

    #[test]
    fn zipf_skew_boosts_hot_hits_end_to_end() {
        use seuss_core::SeussConfig;
        use seuss_platform::{run_trial, BackendKind, ClusterConfig};
        let run = |alpha: f64| {
            let (reg, spec) = ZipfTrial {
                invocations: 512,
                set_size: 64,
                workers: 8,
                alpha,
                kind: FnKind::Nop,
                seed: 3,
            }
            .build();
            let node = SeussConfig::builder()
                .mem_mib(2048)
                .build()
                .expect("valid test config");
            let cfg = ClusterConfig {
                backend: BackendKind::Seuss(Box::new(node)),
                ..ClusterConfig::seuss_paper()
            };
            run_trial(cfg, reg, &spec).analysis.paths
        };
        let skewed = run(1.2);
        let uniform = run(0.0);
        // Hot-path share rises with skew.
        assert!(
            skewed.2 > uniform.2,
            "skewed hot {} vs uniform hot {}",
            skewed.2,
            uniform.2
        );
    }

    #[test]
    fn throughput_trial_scales_n() {
        let small = TrialParams::throughput(64, 0);
        assert_eq!(small.invocations, 8_192);
        let big = TrialParams::throughput(65_536, 0);
        assert_eq!(big.invocations, 131_072);
        assert_eq!(big.workers, 32);
    }
}
