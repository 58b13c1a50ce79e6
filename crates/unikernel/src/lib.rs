//! `seuss-unikernel` — unikernel contexts (UCs): Rumprun-style guests
//! hosting a language runtime and the invocation driver.
//!
//! "In SEUSS, each unikernel context (UC) consists of a high-level
//! language interpreter configured to import and execute function code"
//! (§3). A UC here is [`UcContext`]: a flat address space laid out like
//! a Rumprun guest ([`Layout`]), a `miniscript` interpreter whose heap
//! writes land in that address space (`UcMemory`), and a
//! driver state machine that accepts function code and run arguments over
//! the internal network. The Solo5 guest/host interface itself (§5's
//! 12-call domain interface) is not modelled: §5 argues from its attack
//! surface, and no result depends on it.
//!
//! Booting a UC really dirties pages: the boot model commits the guest
//! image, runtime init, and driver startup through the paging crate, so a
//! fully-initialized Node.js-class UC resolves to ≈110 MiB of resident
//! pages — the paper's base-snapshot magnitude — page by page.
//!
//! [`ImageStore`] pairs mechanical snapshots (guest pages +
//! registers, from `seuss-snapshot`) with the semantic mirror a deployed
//! UC needs (the interpreter state as of the capture). Deploys from one
//! image share everything until they write, per the COW rules.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod context;
mod image;
mod layout;
mod memory;
mod profile;

pub use context::{InvocationOutcome, UcContext, UcError};
pub use image::ImageStore;
pub use layout::Layout;
pub use profile::UcProfile;
