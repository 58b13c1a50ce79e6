//! The discrete-event engine: an event calendar plus a user [`World`].
//!
//! The design is deliberately minimal. A [`World`] owns all simulation
//! state and a single typed event enum; the engine owns only the clock and
//! the pending-event heap. Cancellation is supported by id (events carry a
//! monotonically increasing [`EventId`]), which the burst and timeout
//! machinery in the platform crates rely on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::time::{SimDuration, SimTime};

/// Identifier for a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

/// The behaviour of a simulation: state plus an event handler.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at virtual time `now`.
    ///
    /// Follow-up events are scheduled through `sched`; the engine delivers
    /// them in `(time, schedule-order)` order.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break on sequence number for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling interface handed to [`World::handle`].
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: HashSet<EventId>,
    next_seq: u64,
    next_id: u64,
    scheduled_total: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            next_id: 0,
            scheduled_total: 0,
        }
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the engine
    /// clamps such events to the current pop time rather than time-travel,
    /// but callers should not rely on that.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { at, seq, id, ev });
        id
    }

    /// Schedules `ev` to fire `after` the given `now`.
    pub fn schedule_in(&mut self, now: SimTime, after: SimDuration, ev: E) -> EventId {
        self.schedule_at(now + after, ev)
    }

    /// Cancels a pending event so it is never delivered.
    ///
    /// Only pending ids may be cancelled: scheduled, and neither delivered
    /// nor cancelled yet. The id stays in the cancelled set until its
    /// calendar entry is popped, so cancelling an event that has already
    /// been delivered leaks the id forever; [`Simulation::run`]
    /// debug-asserts that the set is empty once the calendar drains.
    /// Returns `false` for an id that was never issued or is already
    /// cancelled, `true` otherwise.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false;
        }
        self.cancelled.insert(id)
    }

    /// Number of events currently pending (including cancelled-but-unpopped).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Total events scheduled over the lifetime of the simulation.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            return Some((entry.at, entry.ev));
        }
        None
    }

    /// Time of the next live event, dropping cancelled entries that sit
    /// at the head so they cannot stand in for it.
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.heap.peek() {
            let (at, id) = (head.at, head.id);
            if !self.cancelled.remove(&id) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }
}

/// A running simulation: a [`World`] plus the event calendar and clock.
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    now: SimTime,
    handled: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at t = 0 with the given world.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            handled: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (between event deliveries).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Schedules an event at an absolute time, from outside the world.
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) -> EventId {
        self.sched.schedule_at(at, ev)
    }

    /// Schedules an event relative to the current clock.
    pub fn schedule_in(&mut self, after: SimDuration, ev: W::Event) -> EventId {
        self.sched.schedule_in(self.now, after, ev)
    }

    /// Cancels a pending event by id.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.sched.cancel(id)
    }

    /// Delivers a single event, if any is pending. Returns whether one fired.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, ev)) => {
                // Clamp: never let the clock run backwards.
                if at > self.now {
                    self.now = at;
                }
                self.handled += 1;
                self.world.handle(self.now, ev, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the calendar is empty. Returns events handled.
    pub fn run(&mut self) -> u64 {
        let start = self.handled;
        while self.step() {}
        debug_assert!(
            self.sched.cancelled.is_empty(),
            "{} ids were cancelled after they were delivered",
            self.sched.cancelled.len()
        );
        self.handled - start
    }

    /// Runs until the calendar is empty or the clock passes `horizon`.
    ///
    /// Events scheduled after `horizon` remain pending; the clock is left at
    /// the last delivered event (≤ horizon).
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let start = self.handled;
        while self.sched.peek_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
        self.handled - start
    }

    /// Runs at most `n` events.
    pub fn run_steps(&mut self, n: u64) -> u64 {
        let start = self.handled;
        for _ in 0..n {
            if !self.step() {
                break;
            }
        }
        self.handled - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
        Chain(u32),
    }

    #[derive(Default)]
    struct Log {
        seen: Vec<(u64, &'static str)>,
        chain_left: u32,
    }

    impl World for Log {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::A => self.seen.push((now.as_nanos(), "A")),
                Ev::B => self.seen.push((now.as_nanos(), "B")),
                Ev::Chain(n) => {
                    self.chain_left = n;
                    if n > 0 {
                        sched.schedule_in(now, SimDuration::from_nanos(1), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::from_nanos(20), Ev::B);
        sim.schedule_at(SimTime::from_nanos(10), Ev::A);
        sim.run();
        assert_eq!(sim.world().seen, vec![(10, "A"), (20, "B")]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::from_nanos(5), Ev::A);
        sim.schedule_at(SimTime::from_nanos(5), Ev::B);
        sim.run();
        assert_eq!(sim.world().seen, vec![(5, "A"), (5, "B")]);
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut sim = Simulation::new(Log::default());
        let id = sim.schedule_at(SimTime::from_nanos(5), Ev::A);
        sim.schedule_at(SimTime::from_nanos(6), Ev::B);
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(sim.world().seen, vec![(6, "B")]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim = Simulation::new(Log::default());
        assert!(!sim.cancel(EventId(99)));
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain(10));
        let n = sim.run();
        assert_eq!(n, 11);
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.world().chain_left, 0);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::from_nanos(10), Ev::A);
        sim.schedule_at(SimTime::from_nanos(100), Ev::B);
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(sim.world().seen, vec![(10, "A")]);
        // The later event is still pending and fires on full run.
        sim.run();
        assert_eq!(sim.world().seen.len(), 2);
    }

    #[test]
    fn run_until_skips_a_cancelled_head_without_crossing_the_horizon() {
        let mut sim = Simulation::new(Log::default());
        let dead = sim.schedule_at(SimTime::from_nanos(10), Ev::A);
        sim.schedule_at(SimTime::from_nanos(100), Ev::B);
        assert!(sim.cancel(dead));
        assert_eq!(sim.run_until(SimTime::from_nanos(50)), 0);
        assert!(sim.world().seen.is_empty(), "nothing is due by 50 ns");
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.sched.pending(), 1, "the 100 ns event is still pending");
        sim.run();
        assert_eq!(sim.world().seen, vec![(100, "B")]);
    }

    #[test]
    fn run_steps_limits_work() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain(100));
        assert_eq!(sim.run_steps(5), 5);
        assert_eq!(sim.world().chain_left, 96);
    }

    #[test]
    fn determinism_across_runs() {
        let trace = |_seed: u64| {
            let mut sim = Simulation::new(Log::default());
            for i in 0..50u64 {
                sim.schedule_at(
                    SimTime::from_nanos(i % 7),
                    if i % 2 == 0 { Ev::A } else { Ev::B },
                );
            }
            sim.run();
            sim.world().seen.clone()
        };
        assert_eq!(trace(0), trace(0));
    }
}
