//! TCP latency arithmetic for a simulated link.
//!
//! The simulation does not retransmit or window; what the experiments
//! need is latency accounting: a connection costs a handshake (1.5 RTT
//! before data can flow) and each message costs per-byte serialization
//! plus propagation.

use simcore::SimDuration;

/// Latency arithmetic for a link.
#[derive(Clone, Copy, Debug)]
pub struct TcpCostModel {
    /// Round-trip time of the link.
    pub(crate) rtt: SimDuration,
    /// Serialization cost per payload byte.
    pub(crate) per_byte: SimDuration,
    /// Fixed per-message software overhead (stack traversal, syscall/
    /// hypercall, interrupt).
    pub(crate) per_message: SimDuration,
}

impl TcpCostModel {
    /// A 10 GbE datacenter link (the paper's testbed network).
    pub fn datacenter() -> Self {
        TcpCostModel {
            rtt: SimDuration::from_micros(200),
            per_byte: SimDuration::from_nanos(1),
            per_message: SimDuration::from_micros(30),
        }
    }

    /// Time from SYN to data-ready (1.5 RTT plus two message overheads).
    pub fn handshake(&self) -> SimDuration {
        self.rtt + self.rtt / 2 + self.per_message * 2
    }

    /// One-way latency for a message of `bytes` payload.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        self.rtt / 2 + self.per_message + self.per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_is_1_5_rtt_plus_overheads() {
        let m = TcpCostModel {
            rtt: SimDuration::from_micros(100),
            per_byte: SimDuration::ZERO,
            per_message: SimDuration::from_micros(10),
        };
        assert_eq!(m.handshake(), SimDuration::from_micros(170));
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let m = TcpCostModel::datacenter();
        assert!(m.transfer(100_000) > m.transfer(100));
        let small = m.transfer(0);
        assert_eq!(small, m.rtt / 2 + m.per_message);
    }
}
