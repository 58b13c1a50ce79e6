//! `seuss-check` — a minimal, fully deterministic property-testing
//! harness, in-tree so the workspace builds and tests with **zero**
//! external dependencies.
//!
//! SEUSS's claims are mechanism invariants — page-level COW sharing,
//! snapshot-stack diffs, dirty-page accounting — exactly the kind of
//! properties randomized state exploration validates well. This crate
//! replaces `proptest` with the ~20% of it those suites actually use:
//!
//! * **Seeded generators** built on [`simcore::SimRng`] — every case's
//!   seed derives from the property name and case index, never the wall
//!   clock, so runs are hermetic and byte-replayable.
//! * **A [`Gen`] trait** with integer/boolean/vector/tuple/choice
//!   combinators; each suite composes its own domain generators from
//!   them, and a custom one draws from a [`Source`].
//! * **Choice-sequence shrinking**: a case is the sequence of bounded
//!   draws that generated it. The runner shrinks a failure by deleting,
//!   zeroing, lowering and sorting draws and replaying them, so every
//!   generator shrinks, `map` and `one_of` included. Failures report both
//!   the raw and the minimized counterexample.
//! * **Failure-seed replay**: every report names the seed; re-run just
//!   that case with `SEUSS_CHECK_SEED=<seed> cargo test`. Case counts
//!   scale with `SEUSS_CHECK_CASES=<n>`. A value that does not parse (or
//!   zero cases) panics instead of being ignored.
//!
//! # Examples
//!
//! ```
//! use seuss_check::{check, ensure, gen};
//!
//! // "reversing twice is the identity", 64 deterministic cases
//! check(
//!     "reverse_roundtrip",
//!     &gen::vecs(gen::range(0u32, 1000), 0, 50),
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         ensure!(&w == v, "round trip changed the vector");
//!         Ok(())
//!     },
//! );
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod gen;
mod runner;

pub use gen::{bools, choice, just, one_of, range, vecs, Gen, Source};
pub use runner::{check, check_with, replay_seed, run_check, Config};
