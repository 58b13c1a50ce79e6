//! Supported language runtimes.
//!
//! "An important requirement of SEUSS is that it supports a full set of
//! high-level language interpreters. … The unikernel stack of a UC is
//! implemented using Rumprun, an existing port of Python or JavaScript"
//! (§6). Runtime snapshots are per-interpreter: "only one per supported
//! interpreter" (§4). This module names the supported runtimes and binds
//! each to its layout and sizing profiles.

use miniscript::RuntimeProfile;

use crate::layout::Layout;
use crate::profile::UcProfile;

/// A supported language runtime (one base snapshot each).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuntimeKind {
    /// Node.js on Rumprun (the paper's primary evaluation target).
    NodeJs,
    /// CPython on Rumprun.
    Python,
}

impl RuntimeKind {
    /// The UC address-space layout for this runtime.
    pub fn layout(self) -> Layout {
        match self {
            RuntimeKind::NodeJs => Layout::nodejs(),
            RuntimeKind::Python => Layout::python(),
        }
    }

    /// The UC sizing profile for this runtime.
    pub fn uc_profile(self) -> UcProfile {
        match self {
            RuntimeKind::NodeJs => UcProfile::nodejs(),
            RuntimeKind::Python => UcProfile::python(),
        }
    }

    /// The interpreter sizing profile for this runtime.
    pub fn runtime_profile(self) -> RuntimeProfile {
        match self {
            RuntimeKind::NodeJs => RuntimeProfile::nodejs(),
            RuntimeKind::Python => RuntimeProfile::python(),
        }
    }

    /// Human-readable name (snapshot labels, logs).
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::NodeJs => "nodejs",
            RuntimeKind::Python => "python",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtimes_have_distinct_shapes() {
        let node = RuntimeKind::NodeJs;
        let py = RuntimeKind::Python;
        assert_ne!(node.layout().text_pages, py.layout().text_pages);
        assert!(node.uc_profile().runtime_init_bytes > py.uc_profile().runtime_init_bytes);
        assert_ne!(node.name(), py.name());
    }
}
