//! A small, fast, seedable PRNG for simulation decisions.
//!
//! This is `xoshiro256**` seeded through SplitMix64 — the standard
//! recommendation for simulation workloads. We implement it locally (≈50
//! lines) instead of pulling `rand` into the workspace, keeping the whole
//! dependency graph free of external crates. The distribution the
//! workload generators need ([`Zipf`] popularity skew) lives here too,
//! so `seuss-workload` and `seuss-check` share one deterministic
//! randomness source.

/// Deterministic pseudo-random number generator (`xoshiro256**`).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the seed for an independent sub-stream of a trial seed.
///
/// Stream 0 is the identity (`stream_seed(s, 0) == s`), so a
/// single-shard execution consumes exactly the same random sequence as
/// an unsharded one — the byte-identity anchor the sharded executor
/// relies on. Higher streams mix the stream index through SplitMix64,
/// which decorrelates the xoshiro states the way per-thread `rand`
/// stream splitting does.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    if stream == 0 {
        return seed;
    }
    let mut sm = seed ^ stream.wrapping_mul(0xA0761D6478BD642F);
    splitmix64(&mut sm)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        // Lemire-style widening multiply; bias is negligible for 64-bit.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A Zipf(α) distribution over ranks `0..n`: `P(rank k) ∝ 1/(k+1)^α` —
/// the popularity skew real FaaS platforms observe. Sampling is
/// inverse-CDF over precomputed cumulative weights (O(log n) per draw),
/// so building once and sampling many times is the intended use.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `alpha`
    /// (0 = uniform; ≈1 is typical).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is not finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf requires at least one rank");
        assert!(alpha.is_finite(), "Zipf requires a finite exponent");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub(crate) fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SimRng::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn next_below_zero_panics() {
        SimRng::new(0).next_below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn uniformity_rough() {
        let mut r = SimRng::new(11);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let dist = Zipf::new(100, 1.0);
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        let draws: Vec<u64> = (0..10_000).map(|_| dist.sample(&mut a)).collect();
        assert_eq!(
            draws,
            (0..10_000).map(|_| dist.sample(&mut b)).collect::<Vec<_>>()
        );
        assert!(draws.iter().all(|&r| r < 100));
        // With alpha=1 over 100 ranks, rank 0 draws ~1/H(100) ≈ 19%.
        let top = draws.iter().filter(|&&r| r == 0).count() as f64 / 10_000.0;
        assert!((0.14..0.26).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let dist = Zipf::new(50, 0.0);
        let mut rng = SimRng::new(23);
        let mut counts = [0u32; 50];
        for _ in 0..10_000 {
            counts[dist.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((120..290).contains(&c), "uniform bucket {c}");
        }
    }

    #[test]
    fn stream_zero_is_identity() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(stream_seed(seed, 0), seed);
        }
    }

    #[test]
    fn streams_decorrelate() {
        let mut a = SimRng::new(stream_seed(42, 1));
        let mut b = SimRng::new(stream_seed(42, 2));
        let mut base = SimRng::new(42);
        let same_ab = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same_ab < 4);
        let mut a = SimRng::new(stream_seed(42, 1));
        let same_base = (0..64).filter(|_| a.next_u64() == base.next_u64()).count();
        assert!(same_base < 4);
        // Streams are a pure function of (seed, index).
        assert_eq!(stream_seed(42, 3), stream_seed(42, 3));
        assert_ne!(stream_seed(42, 3), stream_seed(43, 3));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
