//! `simcore` — a deterministic discrete-event simulation core.
//!
//! Every experiment in this repository runs on virtual time: mechanism
//! crates (paging, snapshots, the interpreter) report *operation counts*,
//! and the model crates convert those counts into [`SimDuration`]s which are
//! replayed through the [`Simulation`] engine. Nothing in the workspace
//! reads the wall clock, so every run is exactly reproducible from a seed.
//!
//! The engine follows the classic event-calendar design: `(time,
//! sequence, event)` entries, popped in order, handed to a user-supplied
//! [`World`] which mutates its own state and schedules follow-up events.
//! Sequence numbers break ties so simultaneous events fire in scheduling
//! order, which keeps runs deterministic. The calendar has two lanes: a
//! binary heap for ordinary events, and a FIFO lane for cancellable
//! timers whose deadlines never decrease, such as the platform timeout
//! armed a constant delay after each request. Only a timer can be
//! cancelled, through the [`EventId`] ticket
//! [`Scheduler::arm_timer`] returns. Both lanes share the sequence
//! counter and the engine pops whichever head is earlier, so the order
//! is the one a single heap would give.
//!
//! # Examples
//!
//! ```
//! use simcore::{Scheduler, SimDuration, SimTime, Simulation, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_in(now, SimDuration::from_millis(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_millis(20));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod engine;
pub mod lru;
mod rng;
mod stats;
mod time;

pub use engine::{EventId, Scheduler, Simulation, World};
pub use rng::{stream_seed, SimRng, Zipf};
pub use stats::{Histogram, PercentileSummary};
pub use time::{SimDuration, SimTime};
