//! `seuss-net` — the simulated network substrate.
//!
//! Three networks matter to the SEUSS evaluation:
//!
//! * **The UC network** (§6 "Networking"): every UC is configured with an
//!   identical IP and MAC address, so a per-core proxy uses the TCP
//!   destination port as the unique key mapping packets to the UC they
//!   belong to. [`proxy::NetProxy`] is that port table: every live UC
//!   holds one port. No trial sends a packet, so the table is all the
//!   simulation keeps of the proxy.
//! * **The Linux bridge** (§7 "Linux Container Limit"): container
//!   deployments attach veth endpoints to a bridge where every broadcast
//!   packet is processed N times (once per endpoint). Past ~1024
//!   endpoints the bridge drops packets and container TCP connections
//!   time out — this is the mechanism that caps the Linux container cache
//!   and produces the failures in Figures 6–8. [`bridge::Bridge`] models
//!   that cost law.
//! * **The external endpoint** (§7 burst experiment): a remote HTTP
//!   server that blocks 250 ms before replying, used by IO-bound
//!   functions. [`external::ExternalServer`] models it.
//!
//! [`tcp::TcpCostModel`] provides the latency arithmetic (handshake,
//! per-byte transfer) for the external endpoint's link and for links
//! between distributed nodes.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod bridge;
mod external;
mod proxy;
mod tcp;

pub use bridge::Bridge;
pub use external::ExternalServer;
pub use proxy::NetProxy;
pub use tcp::TcpCostModel;
