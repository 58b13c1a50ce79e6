//! The Linux bridge model: the container networking bottleneck.
//!
//! §7 ("Linux Container Limit"): "The use of a virtual Ethernet means a
//! single broadcast packet sent over a bridge interface with N connected
//! endpoints must be processed in the kernel N separate times. With 3000
//! endpoints, the result was a high rate of dropped packets on the
//! bridge, causing the TCP connections between the controller process and
//! the invocation server within the containers to timeout. Even with 1024
//! containers — the default limit of endpoints on a Linux bridge — we
//! still witness connection failures during parallel invocation
//! processing."
//!
//! The model: each broadcast costs `per_endpoint_cost × N` of kernel
//! budget; the bridge has a fixed processing budget per unit time, and
//! when the instantaneous load exceeds it packets drop with a probability
//! proportional to the overload. Connection setups through the bridge
//! fail when their SYN or SYN+ACK is dropped.

use simcore::{SimDuration, SimRng};

/// A Linux software bridge with N veth endpoints.
pub(crate) struct Bridge {
    endpoints: usize,
    max_endpoints: usize,
    /// Kernel cost to process one packet for one endpoint.
    per_endpoint_cost: SimDuration,
    /// Background broadcast rate each endpoint contributes (ARP refresh,
    /// DHCP renew…), per second.
    broadcast_rate_per_endpoint: f64,
    /// Kernel budget fraction available for bridge processing.
    kernel_budget: f64,
    rng: SimRng,
}

impl Bridge {
    /// A bridge with the Linux-default 1024 endpoint limit.
    pub(crate) fn new(seed: u64) -> Self {
        Bridge {
            endpoints: 0,
            max_endpoints: 1024,
            per_endpoint_cost: SimDuration::from_micros(2),
            broadcast_rate_per_endpoint: 1.0,
            // Calibrated so loss begins just above the Linux-default 1024
            // endpoints (≈1% drops at 1024) and collapses at the paper's
            // 3000-endpoint experiment (≈88% drops): 1020² × 1/s × 2 µs.
            kernel_budget: 2.08,
            rng: SimRng::new(seed),
        }
    }

    /// Overrides the endpoint limit (the paper also tried ~3000).
    pub(crate) fn with_max_endpoints(mut self, max: usize) -> Self {
        self.max_endpoints = max;
        self
    }

    /// Attaches a veth endpoint (container start). Returns `false` once
    /// the endpoint limit is reached.
    pub(crate) fn attach(&mut self) -> bool {
        if self.endpoints >= self.max_endpoints {
            return false;
        }
        self.endpoints += 1;
        true
    }

    /// Detaches an endpoint (container removal).
    pub(crate) fn detach(&mut self) {
        debug_assert!(self.endpoints > 0, "detach with no endpoints");
        self.endpoints = self.endpoints.saturating_sub(1);
    }

    /// The fraction of the kernel consumed by background broadcast churn:
    /// every endpoint broadcasts at `broadcast_rate_per_endpoint`, and each
    /// broadcast is processed once per endpoint — quadratic in N.
    pub(crate) fn background_load(&self) -> f64 {
        let n = self.endpoints as f64;
        let per_second = n * self.broadcast_rate_per_endpoint;
        per_second * n * self.per_endpoint_cost.as_secs_f64()
    }

    /// Probability an individual packet is dropped at the current load.
    pub(crate) fn drop_probability(&self) -> f64 {
        let load = self.background_load();
        if load <= self.kernel_budget {
            0.0
        } else {
            // Overload sheds proportionally, capped below 1 so progress
            // remains possible.
            (1.0 - self.kernel_budget / load).min(0.95)
        }
    }

    /// Simulates forwarding one packet. Returns `false` if dropped.
    pub(crate) fn forward(&mut self) -> bool {
        let p = self.drop_probability();
        !self.rng.chance(p)
    }

    /// Simulates a TCP connection setup across the bridge: the handshake
    /// needs three packets to survive. Returns `false` on timeout.
    pub(crate) fn connect(&mut self) -> bool {
        self.forward() && self.forward() && self.forward()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_limit_enforced() {
        let mut b = Bridge::new(1).with_max_endpoints(3);
        for _ in 0..3 {
            assert!(b.attach());
        }
        assert!(!b.attach());
        b.detach();
        assert!(b.attach());
    }

    #[test]
    fn small_bridge_never_drops() {
        let mut b = Bridge::new(2);
        for _ in 0..64 {
            assert!(b.attach());
        }
        assert_eq!(b.drop_probability(), 0.0);
        for _ in 0..1000 {
            assert!(b.forward());
        }
    }

    #[test]
    fn saturated_bridge_drops_and_times_out() {
        let mut b = Bridge::new(3).with_max_endpoints(4000);
        for _ in 0..3000 {
            assert!(b.attach());
        }
        // 3000 endpoints: background load = 3000 * 3000 * 2us = 18 s/s ≫ budget.
        assert!(b.drop_probability() > 0.5);
        let failures = (0..1000).filter(|_| !b.connect()).count();
        assert!(failures > 500, "only {failures} connect failures");
    }

    #[test]
    fn thousand_endpoints_marginal_failures() {
        // "Even with 1024 containers we still witness connection failures."
        let mut b = Bridge::new(4);
        for _ in 0..1024 {
            assert!(b.attach());
        }
        let p = b.drop_probability();
        assert!(p > 0.0, "1024 endpoints should show some loss");
        assert!(p < 0.3, "but not a collapse (p = {p})");
    }

    #[test]
    fn load_is_quadratic() {
        let mut b = Bridge::new(5).with_max_endpoints(10_000);
        for _ in 0..500 {
            assert!(b.attach());
        }
        let l500 = b.background_load();
        for _ in 0..500 {
            assert!(b.attach());
        }
        let l1000 = b.background_load();
        assert!((l1000 / l500 - 4.0).abs() < 0.01, "quadratic scaling");
    }
}
