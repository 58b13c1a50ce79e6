//! The discrete-event engine: an event calendar plus a user [`World`].
//!
//! The design is deliberately minimal. A [`World`] owns all simulation
//! state and a single typed event enum; the engine owns only the clock and
//! a calendar of two lanes:
//!
//! - a binary heap of ordinary events, which cannot be cancelled;
//! - a FIFO lane of cancellable timers whose deadlines never decrease,
//!   such as a platform timeout armed a constant delay after each
//!   arrival. [`Scheduler::arm_timer`] hands out an [`EventId`] ticket
//!   and [`Scheduler::cancel`] empties the ticket's slot in O(1).
//!
//! Both lanes draw sequence numbers from one counter, and the engine
//! delivers whichever head comes first by `(time, sequence)`. Events
//! therefore fire in exactly the order one heap holding both lanes would
//! fire them, but a cancelled timer leaves the calendar as soon as it
//! reaches the lane's front instead of waiting out its deadline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// A ticket for an armed timer, usable for cancellation.
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
    ev: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// The scheduling interface handed to [`World::handle`].
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Armed timers in deadline order; a cancelled slot holds `None`.
    /// The front slot is always live.
    timers: VecDeque<Entry<Option<E>>>,
    /// Ticket of the front slot of `timers`.
    timer_base: u64,
    /// Timers armed and neither delivered nor cancelled.
    live_timers: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            timers: VecDeque::new(),
            timer_base: 0,
            live_timers: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        seq
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the engine
    /// clamps such events to the current pop time rather than time-travel,
    /// but callers should not rely on that.
    pub fn schedule_at(&mut self, at: SimTime, ev: E) {
        let seq = self.take_seq();
        self.heap.push(Entry { at, seq, ev });
    }

    /// Schedules `ev` to fire `after` the given `now`.
    pub fn schedule_in(&mut self, now: SimTime, after: SimDuration, ev: E) {
        self.schedule_at(now + after, ev)
    }

    /// Arms a cancellable timer that delivers `ev` at `at`, and returns
    /// its ticket for [`Scheduler::cancel`].
    ///
    /// Timers wait in a FIFO lane, so deadlines must never decrease: a
    /// constant delay after the current time always qualifies.
    ///
    /// # Panics
    ///
    /// If `at` is earlier than the deadline of a timer still in the lane.
    pub fn arm_timer(&mut self, at: SimTime, ev: E) -> EventId {
        if let Some(last) = self.timers.back() {
            assert!(
                last.at <= at,
                "timer deadline {at:?} precedes an armed deadline {:?}",
                last.at
            );
        }
        let id = EventId(self.timer_base + self.timers.len() as u64);
        let seq = self.take_seq();
        self.timers.push_back(Entry {
            at,
            seq,
            ev: Some(ev),
        });
        self.live_timers += 1;
        id
    }

    /// Cancels an armed timer so it is never delivered.
    ///
    /// Returns `false` for a ticket that was never issued, or whose timer
    /// was already delivered or cancelled; `true` otherwise.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) =
            id.0.checked_sub(self.timer_base)
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| self.timers.get_mut(i))
        else {
            return false;
        };
        if slot.ev.take().is_none() {
            return false;
        }
        self.live_timers -= 1;
        self.drop_cancelled_front();
        true
    }

    /// Number of live events: scheduled events plus armed timers that are
    /// neither delivered nor cancelled.
    pub fn pending(&self) -> usize {
        self.heap.len() + self.live_timers
    }

    /// Total events scheduled over the lifetime of the simulation, timers
    /// included.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Restores the lane's invariant that its front slot is live.
    fn drop_cancelled_front(&mut self) {
        while self.timers.front().is_some_and(|t| t.ev.is_none()) {
            self.timers.pop_front();
            self.timer_base += 1;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let timer_first = self
            .timers
            .front()
            .is_some_and(|t| self.heap.peek().is_none_or(|head| t.key() < head.key()));
        if !timer_first {
            return self.heap.pop().map(|e| (e.at, e.ev));
        }
        let timer = self.timers.pop_front()?;
        self.timer_base += 1;
        self.live_timers -= 1;
        self.drop_cancelled_front();
        Some((timer.at, timer.ev.expect("the lane's front timer is live")))
    }

    /// Time of the next event either lane delivers.
    fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|e| e.at);
        let lane = self.timers.front().map(|t| t.at);
        heap.into_iter().chain(lane).min()
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
    pub fn schedule_at(&mut self, at: SimTime, ev: W::Event) {
        self.sched.schedule_at(at, ev)
    }

    /// Schedules an event relative to the current clock.
    pub fn schedule_in(&mut self, after: SimDuration, ev: W::Event) {
        self.sched.schedule_in(self.now, after, ev)
    }

    /// Arms a cancellable timer from outside the world; see
    /// [`Scheduler::arm_timer`].
    pub fn arm_timer(&mut self, at: SimTime, ev: W::Event) -> EventId {
        self.sched.arm_timer(at, ev)
    }

    /// Cancels an armed timer by its ticket; see [`Scheduler::cancel`].
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
            self.sched.timers.is_empty() && self.sched.live_timers == 0,
            "the drained timer lane holds {} slots, {} of them live",
            self.sched.timers.len(),
            self.sched.live_timers
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
        let id = sim.arm_timer(SimTime::from_nanos(5), Ev::A);
        sim.schedule_at(SimTime::from_nanos(6), Ev::B);
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(sim.world().seen, vec![(6, "B")]);
    }

    #[test]
    fn cancelling_a_delivered_or_cancelled_timer_is_false_and_leaves_nothing() {
        let mut sim = Simulation::new(Log::default());
        let fired = sim.arm_timer(SimTime::from_nanos(5), Ev::A);
        let dead = sim.arm_timer(SimTime::from_nanos(6), Ev::B);
        assert_eq!(sim.run_steps(1), 1);
        assert!(!sim.cancel(fired), "a delivered timer cannot be cancelled");
        assert!(sim.cancel(dead));
        assert!(!sim.cancel(dead), "a timer is cancelled once");
        assert_eq!(sim.sched.pending(), 0);
        assert!(sim.sched.timers.is_empty(), "no slot is left behind");
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.world().seen, vec![(5, "A")]);
    }

    #[test]
    fn pending_excludes_cancelled_timers() {
        let mut sim = Simulation::new(Log::default());
        sim.schedule_at(SimTime::from_nanos(1), Ev::A);
        let ids: Vec<EventId> = (10..13)
            .map(|t| sim.arm_timer(SimTime::from_nanos(t), Ev::B))
            .collect();
        assert_eq!(sim.sched.pending(), 4);
        assert!(sim.cancel(ids[1]));
        assert_eq!(sim.sched.pending(), 3, "a cancelled slot mid-lane");
        assert!(sim.cancel(ids[0]));
        assert_eq!(sim.sched.pending(), 2, "a cancelled front slot");
        assert_eq!(sim.sched.timers.len(), 1, "empty front slots are dropped");
        sim.run();
        assert_eq!(sim.world().seen, vec![(1, "A"), (12, "B")]);
    }

    #[test]
    #[should_panic(expected = "precedes an armed deadline")]
    fn arming_an_earlier_deadline_panics() {
        let mut sim = Simulation::new(Log::default());
        sim.arm_timer(SimTime::from_nanos(10), Ev::A);
        sim.arm_timer(SimTime::from_nanos(9), Ev::B);
    }

    #[test]
    fn timers_and_events_interleave_in_schedule_order() {
        let mut sim = Simulation::new(Log::default());
        sim.arm_timer(SimTime::from_nanos(5), Ev::A);
        sim.schedule_at(SimTime::from_nanos(5), Ev::B);
        sim.arm_timer(SimTime::from_nanos(5), Ev::B);
        sim.schedule_at(SimTime::from_nanos(4), Ev::A);
        sim.run();
        assert_eq!(
            sim.world().seen,
            vec![(4, "A"), (5, "A"), (5, "B"), (5, "B")]
        );
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
        let dead = sim.arm_timer(SimTime::from_nanos(10), Ev::A);
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
