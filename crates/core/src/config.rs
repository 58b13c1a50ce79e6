//! Node configuration: the validated builder and its presets.
//!
//! [`SeussConfig`] is constructed through [`SeussConfig::builder`] (paper
//! defaults) or [`SeussConfig::test_builder`] (small test defaults).
//! [`SeussConfigBuilder::build`] rejects nonsensical combinations — zero
//! memory, empty cache capacities — so a node can assume its
//! config is coherent.

use miniscript::RuntimeProfile;
use seuss_store::StoreConfig;
use seuss_unikernel::UcProfile;
use simcore::SimDuration;

/// Which anticipatory optimizations to apply before capturing the base
/// runtime snapshot (the three columns of Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AoLevel {
    /// Capture immediately after the driver starts listening.
    None,
    /// Send an HTTP request through the UC first (network AO).
    Network,
    /// Network AO plus importing and running a dummy function
    /// (interpreter AO).
    NetworkAndInterpreter,
}

/// Configuration of a SEUSS compute node. Build via
/// [`SeussConfig::builder`]; the fields stay public for reading.
#[derive(Clone, Debug)]
pub struct SeussConfig {
    /// Physical memory in MiB (the paper's VM has 88 GB).
    pub mem_mib: u64,
    /// AO level for the base runtime snapshot.
    pub ao: AoLevel,
    /// UC sizing profile of the Node.js runtime.
    pub(crate) uc_profile: UcProfile,
    /// Interpreter sizing profile of the Node.js runtime.
    pub runtime_profile: RuntimeProfile,
    /// Maximum idle UCs cached per function.
    pub(crate) idle_per_fn: usize,
    /// Maximum idle UCs cached in total.
    pub idle_total: usize,
    /// Storage tier for demoted snapshots (`None` = all-DRAM node; the
    /// pre-tier behavior, byte-identical artifacts).
    pub(crate) store: Option<StoreConfig>,
}

/// A rejected [`SeussConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A node needs physical memory.
    ZeroMemory,
    /// The idle-UC cache must admit at least one UC per function.
    ZeroIdlePerFn,
    /// The idle-UC cache must admit at least one UC in total.
    ZeroIdleTotal,
    /// Per-function capacity cannot exceed the total capacity.
    IdlePerFnExceedsTotal {
        /// Configured per-function capacity.
        per_fn: usize,
        /// Configured total capacity.
        total: usize,
    },
    /// A storage tier was configured with a zero-block device.
    ZeroDeviceCapacity,
    /// A storage-tier device with zero bandwidth and zero latency would
    /// make demoted restores free, hiding the tier from every measured
    /// path; give the device a cost.
    FreeDevice,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroMemory => write!(f, "config: mem_mib must be >= 1"),
            ConfigError::ZeroIdlePerFn => write!(f, "config: idle_per_fn must be >= 1"),
            ConfigError::ZeroIdleTotal => write!(f, "config: idle_total must be >= 1"),
            ConfigError::IdlePerFnExceedsTotal { per_fn, total } => write!(
                f,
                "config: idle_per_fn ({per_fn}) exceeds idle_total ({total})"
            ),
            ConfigError::ZeroDeviceCapacity => {
                write!(f, "config: store device needs at least one block")
            }
            ConfigError::FreeDevice => {
                write!(f, "config: store device must cost something to read")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated builder for [`SeussConfig`].
#[derive(Clone, Debug)]
pub struct SeussConfigBuilder {
    cfg: SeussConfig,
}

impl SeussConfigBuilder {
    /// Physical memory in MiB.
    pub fn mem_mib(mut self, mem_mib: u64) -> Self {
        self.cfg.mem_mib = mem_mib;
        self
    }

    /// AO level for the base runtime snapshot.
    pub fn ao_level(mut self, ao: AoLevel) -> Self {
        self.cfg.ao = ao;
        self
    }

    /// UC sizing profile of the Node.js runtime.
    pub(crate) fn uc_profile(mut self, p: UcProfile) -> Self {
        self.cfg.uc_profile = p;
        self
    }

    /// Interpreter sizing profile of the Node.js runtime.
    pub(crate) fn runtime_profile(mut self, p: RuntimeProfile) -> Self {
        self.cfg.runtime_profile = p;
        self
    }

    /// Maximum idle UCs cached per function.
    pub fn idle_per_fn(mut self, n: usize) -> Self {
        self.cfg.idle_per_fn = n;
        self
    }

    /// Maximum idle UCs cached in total.
    pub fn idle_total(mut self, n: usize) -> Self {
        self.cfg.idle_total = n;
        self
    }

    /// Storage tier for demoted snapshots (`None` disables tiering).
    pub fn store(mut self, store: Option<StoreConfig>) -> Self {
        self.cfg.store = store;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SeussConfig, ConfigError> {
        let c = self.cfg;
        if c.mem_mib == 0 {
            return Err(ConfigError::ZeroMemory);
        }
        if c.idle_per_fn == 0 {
            return Err(ConfigError::ZeroIdlePerFn);
        }
        if c.idle_total == 0 {
            return Err(ConfigError::ZeroIdleTotal);
        }
        if c.idle_per_fn > c.idle_total {
            return Err(ConfigError::IdlePerFnExceedsTotal {
                per_fn: c.idle_per_fn,
                total: c.idle_total,
            });
        }
        if let Some(store) = &c.store {
            if store.device.capacity_blocks == 0 {
                return Err(ConfigError::ZeroDeviceCapacity);
            }
            if store.device.read_latency == SimDuration::ZERO && store.device.nanos_per_kib == 0 {
                return Err(ConfigError::FreeDevice);
            }
        }
        Ok(c)
    }
}

impl SeussConfig {
    /// Builder seeded with the paper's evaluation node: 88 GB, full AO,
    /// Node.js.
    pub fn builder() -> SeussConfigBuilder {
        SeussConfigBuilder {
            cfg: SeussConfig {
                mem_mib: 88 * 1024,
                ao: AoLevel::NetworkAndInterpreter,
                uc_profile: UcProfile::nodejs(),
                runtime_profile: RuntimeProfile::nodejs(),
                idle_per_fn: 4,
                idle_total: 4096,
                store: None,
            },
        }
    }

    /// Builder seeded with a small fast node for unit tests.
    pub fn test_builder() -> SeussConfigBuilder {
        SeussConfig::builder()
            .mem_mib(768)
            .uc_profile(UcProfile::tiny())
            .runtime_profile(RuntimeProfile::tiny())
            .idle_per_fn(2)
            .idle_total(16)
    }

    /// The paper's evaluation node (see [`SeussConfig::builder`]).
    pub fn paper_node() -> Self {
        SeussConfig::builder()
            .build()
            .expect("paper preset is valid")
    }

    /// A small fast node for unit tests.
    pub fn test_node() -> Self {
        SeussConfig::test_builder()
            .build()
            .expect("test preset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_matches_testbed() {
        let c = SeussConfig::paper_node();
        assert_eq!(c.mem_mib, 88 * 1024);
        assert_eq!(c.ao, AoLevel::NetworkAndInterpreter);
    }

    #[test]
    fn test_node_is_small() {
        let c = SeussConfig::test_node();
        assert!(c.mem_mib < 1024);
        assert!(c.uc_profile.boot_data_bytes < (1 << 20));
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            SeussConfig::builder().mem_mib(0).build().unwrap_err(),
            ConfigError::ZeroMemory
        );
        assert_eq!(
            SeussConfig::builder().idle_per_fn(0).build().unwrap_err(),
            ConfigError::ZeroIdlePerFn
        );
        assert_eq!(
            SeussConfig::builder().idle_total(0).build().unwrap_err(),
            ConfigError::ZeroIdleTotal
        );
        assert_eq!(
            SeussConfig::builder()
                .idle_per_fn(10)
                .idle_total(5)
                .build()
                .unwrap_err(),
            ConfigError::IdlePerFnExceedsTotal {
                per_fn: 10,
                total: 5
            }
        );
        let mut store = seuss_store::StoreConfig::nvme_prefetch();
        store.device.capacity_blocks = 0;
        assert_eq!(
            SeussConfig::builder()
                .store(Some(store))
                .build()
                .unwrap_err(),
            ConfigError::ZeroDeviceCapacity
        );
        let mut free = seuss_store::StoreConfig::nvme_prefetch();
        free.device.read_latency = SimDuration::ZERO;
        free.device.nanos_per_kib = 0;
        assert_eq!(
            SeussConfig::builder()
                .store(Some(free))
                .build()
                .unwrap_err(),
            ConfigError::FreeDevice
        );
    }

    #[test]
    fn store_defaults_off_and_round_trips() {
        assert!(SeussConfig::paper_node().store.is_none());
        let c = SeussConfig::test_builder()
            .store(Some(seuss_store::StoreConfig::nvme_prefetch()))
            .build()
            .unwrap();
        assert_eq!(c.store, Some(seuss_store::StoreConfig::nvme_prefetch()));
    }

    #[test]
    fn error_messages_render() {
        let e = ConfigError::IdlePerFnExceedsTotal {
            per_fn: 9,
            total: 3,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3"));
    }
}
