//! The per-core network proxy's port table.
//!
//! "Each UC is configured with an identical IP and MAC address … A
//! per-core network proxy maintains mappings for both the internal and
//! external networks for each unikernel instance active on that core.
//! TCP destination ports act as the unique key for mapping packets to an
//! active UC" (§6). This module is that table: registration assigns each
//! live UC a unique external port, and unregistration frees it.

use std::collections::{HashMap, HashSet};

/// Proxy errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyError {
    /// All 64k-ish mapping ports are in use.
    PortsExhausted,
}

impl core::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProxyError::PortsExhausted => write!(f, "proxy port space exhausted"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// The node's port table (logically per-core, one instance per node in
/// the simulation): each live UC, by node-local id, holds one port.
pub struct NetProxy {
    /// Ports held by live UCs.
    ports: HashSet<u16>,
    port_of_uc: HashMap<u32, u16>,
    next_port: u16,
    first_port: u16,
}

impl Default for NetProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl NetProxy {
    /// Creates a proxy with the ephemeral mapping range 20000..=64000.
    pub fn new() -> Self {
        NetProxy {
            ports: HashSet::new(),
            port_of_uc: HashMap::new(),
            next_port: 20000,
            first_port: 20000,
        }
    }

    /// Number of active mappings.
    pub fn active(&self) -> usize {
        self.ports.len()
    }

    /// Registers UC `uc`, assigning it a unique external port.
    pub fn register(&mut self, uc: u32) -> Result<u16, ProxyError> {
        if self.ports.len() >= (64000 - self.first_port as usize) {
            return Err(ProxyError::PortsExhausted);
        }
        // Linear probe over the ring of mapping ports.
        loop {
            let p = self.next_port;
            self.next_port = if self.next_port >= 64000 {
                self.first_port
            } else {
                self.next_port + 1
            };
            if self.ports.insert(p) {
                self.port_of_uc.insert(uc, p);
                return Ok(p);
            }
        }
    }

    /// Removes a UC's mapping (UC destroyed or cached out).
    pub fn unregister(&mut self, uc: u32) -> bool {
        match self.port_of_uc.remove(&uc) {
            Some(p) => {
                self.ports.remove(&p);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_ports() {
        let mut p = NetProxy::new();
        let a = p.register(1).unwrap();
        let b = p.register(2).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.active(), 2);
    }

    #[test]
    fn unregister_frees_port_for_reuse() {
        let mut p = NetProxy::new();
        p.register(1).unwrap();
        assert!(p.unregister(1));
        assert!(!p.unregister(1));
        assert_eq!(p.active(), 0);
        // Port ring eventually reuses the slot.
        for i in 0..40_000u32 {
            p.register(10 + i).unwrap();
        }
        assert_eq!(p.active(), 40_000);
        assert!(p.register(999_999).is_ok(), "freed port is reusable");
    }

    #[test]
    fn identical_uc_addresses_still_routable() {
        // The whole point: many UCs, same IP/MAC, distinct ports.
        let mut p = NetProxy::new();
        let mut ports = std::collections::HashSet::new();
        for uc in 0..1000 {
            ports.insert(p.register(uc).unwrap());
        }
        assert_eq!(ports.len(), 1000);
    }
}
