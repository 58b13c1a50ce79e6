//! Deterministic retry with exponential backoff, jitter, and a budget.

use simcore::SimDuration;

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic retry schedule.
///
/// Backoff for attempt `a` (the first retry is `a = 1`) is
/// `base * 2^(a-1)`, capped at `max_backoff`, then jittered by up to
/// `±jitter_frac/2` of itself. The jitter is a *pure hash* of
/// `(seed, request, attempt)` — no shared RNG state is consumed, so
/// retries on one request can never perturb the random sequence any
/// other part of the trial observes, and the schedule is identical at
/// every worker count.
///
/// `budget` caps the total number of retries one trial may spend across
/// all requests; once it runs out, each further failure is recorded as
/// `RequestStatus::Error` instead of being retried.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per request, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff.
    pub max_backoff: SimDuration,
    /// Jitter width as a fraction of the backoff, in `[0, 1]`.
    pub jitter_frac: f64,
    /// Total retries allowed per trial (`u64::MAX` = unlimited).
    pub budget: u64,
}

impl RetryPolicy {
    /// No retries at all: every transient fault surfaces as an error.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter_frac: 0.0,
            budget: 0,
        }
    }

    /// The resilient default: up to 4 attempts, 50 ms base backoff
    /// doubling to a 2 s cap, 25% jitter, 10 000-retry trial budget.
    pub fn resilient() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_secs(2),
            jitter_frac: 0.25,
            budget: 10_000,
        }
    }

    /// Whether a request that has already made `attempts` attempts may
    /// try again under this policy (budget not considered).
    pub fn allows(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Backoff before retry number `attempt` (1-based) of request `req`
    /// in a trial seeded with `seed`.
    pub fn backoff(&self, seed: u64, req: u64, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(62);
        let raw = self.base_backoff.saturating_mul(1u64 << exp);
        let capped = raw.min(self.max_backoff).max(self.base_backoff);
        if self.jitter_frac <= 0.0 || capped == SimDuration::ZERO {
            return capped;
        }
        let h = mix64(seed ^ mix64(req) ^ mix64(attempt as u64).rotate_left(17));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
        let scale = 1.0 + self.jitter_frac * (unit - 0.5);
        SimDuration::from_nanos((capped.as_nanos() as f64 * scale).round() as u64)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.allows(1));
        assert_eq!(p.backoff(1, 1, 1), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::resilient()
        };
        let b1 = p.backoff(42, 0, 1);
        let b2 = p.backoff(42, 0, 2);
        let b3 = p.backoff(42, 0, 3);
        assert_eq!(b1, SimDuration::from_millis(50));
        assert_eq!(b2, SimDuration::from_millis(100));
        assert_eq!(b3, SimDuration::from_millis(200));
        // Far attempts hit the cap and stay there (no overflow).
        assert_eq!(p.backoff(42, 0, 40), SimDuration::from_secs(2));
        assert_eq!(p.backoff(42, 0, 200), SimDuration::from_secs(2));
    }

    #[test]
    fn jitter_is_pure_and_bounded() {
        let p = RetryPolicy::resilient();
        for attempt in 1..6 {
            for req in [0u64, 7, 1234] {
                let a = p.backoff(42, req, attempt);
                let b = p.backoff(42, req, attempt);
                assert_eq!(a, b, "pure function of (seed, req, attempt)");
                let nominal = p
                    .base_backoff
                    .saturating_mul(1u64 << (attempt - 1).min(62))
                    .min(p.max_backoff)
                    .max(p.base_backoff)
                    .as_nanos() as f64;
                let lo = nominal * (1.0 - p.jitter_frac / 2.0) - 1.0;
                let hi = nominal * (1.0 + p.jitter_frac / 2.0) + 1.0;
                let got = a.as_nanos() as f64;
                assert!((lo..=hi).contains(&got), "jitter out of band: {got}");
            }
        }
        // Different requests get different jitter (decorrelated herd).
        let spread: std::collections::HashSet<u64> = (0..16)
            .map(|req| p.backoff(42, req, 1).as_nanos())
            .collect();
        assert!(spread.len() > 8, "jitter should spread across requests");
    }

    #[test]
    fn allows_respects_max_attempts() {
        let p = RetryPolicy::resilient();
        assert!(p.allows(1));
        assert!(p.allows(3));
        assert!(!p.allows(4));
    }
}
