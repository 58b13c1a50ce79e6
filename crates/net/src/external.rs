//! The external HTTP endpoint used by IO-bound functions.
//!
//! "Each IO-bound function makes an external network call to a remote
//! HTTP server, which blocks for 250 ms before sending an OK reply" (§7).
//! The server model returns, for each request, the virtual time at which
//! the reply arrives; the caller schedules the wake-up event.

use simcore::{SimDuration, SimTime};

use crate::tcp::TcpCostModel;

/// A remote HTTP server with a fixed service (block) time.
pub struct ExternalServer {
    /// Time the server holds a request before replying.
    pub(crate) block_time: SimDuration,
    /// Link model between the compute node and the server.
    pub(crate) link: TcpCostModel,
}

impl ExternalServer {
    /// The paper's burst-experiment endpoint: 250 ms block over a 10 GbE link.
    pub fn paper_default() -> Self {
        ExternalServer {
            block_time: SimDuration::from_millis(250),
            link: TcpCostModel::datacenter(),
        }
    }

    /// Accepts a request sent at `now`; returns when the reply lands back
    /// at the caller.
    pub fn request(&self, now: SimTime, req_bytes: u64, resp_bytes: u64) -> SimTime {
        now + self.link.handshake()
            + self.link.transfer(req_bytes)
            + self.block_time
            + self.link.transfer(resp_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lands_after_block_time() {
        let s = ExternalServer::paper_default();
        let t0 = SimTime::from_secs(1);
        let done = s.request(t0, 200, 100);
        let elapsed = done.since(t0);
        assert!(elapsed >= SimDuration::from_millis(250));
        assert!(elapsed < SimDuration::from_millis(252), "{elapsed:?}");
    }
}
