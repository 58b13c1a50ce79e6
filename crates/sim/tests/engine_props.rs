//! Property tests on the event engine (driven by `seuss-check`):
//! delivery order, cancellation, and determinism under arbitrary
//! schedules.

use std::cell::RefCell;
use std::rc::Rc;

use seuss_check::{check_with, ensure, ensure_eq, Config, Gen};
use simcore::{EventId, Scheduler, SimDuration, SimTime, Simulation, World};

#[derive(Default)]
struct Recorder {
    delivered: Vec<(u64, u32)>,
}

enum Ev {
    Tag(u32),
    /// Schedule `n` children `gap` ns apart when handled.
    Spawn {
        base: u32,
        n: u32,
        gap: u64,
    },
}

impl World for Recorder {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Tag(t) => self.delivered.push((now.as_nanos(), t)),
            Ev::Spawn { base, n, gap } => {
                for i in 0..n {
                    sched.schedule_in(
                        now,
                        SimDuration::from_nanos(gap * (i as u64 + 1)),
                        Ev::Tag(base + i),
                    );
                }
            }
        }
    }
}

#[test]
fn delivery_times_never_decrease() {
    check_with(
        Config::with_cases(64),
        "sim_monotone_delivery",
        &seuss_check::vecs(seuss_check::range(0u64, 9_999), 1, 99),
        |times| {
            let mut sim = Simulation::new(Recorder::default());
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(t), Ev::Tag(i as u32));
            }
            sim.run();
            let d = &sim.world().delivered;
            ensure_eq!(d.len(), times.len());
            for w in d.windows(2) {
                ensure!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn equal_times_deliver_in_schedule_order() {
    check_with(
        Config::with_cases(64),
        "sim_fifo_ties",
        &seuss_check::range(2u32, 49),
        |&n| {
            let mut sim = Simulation::new(Recorder::default());
            for i in 0..n {
                sim.schedule_at(SimTime::from_nanos(42), Ev::Tag(i));
            }
            sim.run();
            let tags: Vec<u32> = sim.world().delivered.iter().map(|&(_, t)| t).collect();
            ensure_eq!(tags, (0..n).collect::<Vec<_>>());
            Ok(())
        },
    );
}

#[test]
fn cancelled_events_never_fire() {
    let cases = (
        seuss_check::vecs(seuss_check::range(0u64, 999), 2, 59),
        seuss_check::vecs(seuss_check::bools(), 2, 59),
    );
    check_with(
        Config::with_cases(64),
        "sim_cancel_exact",
        &cases,
        |(times, cancel_mask)| {
            // Timer deadlines never decrease, so arm them in time order.
            let mut times = times.clone();
            times.sort_unstable();
            let mut sim = Simulation::new(Recorder::default());
            let mut expected = Vec::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    (
                        i as u32,
                        sim.arm_timer(SimTime::from_nanos(t), Ev::Tag(i as u32)),
                    )
                })
                .collect();
            for ((tag, id), &cancel) in ids
                .iter()
                .zip(cancel_mask.iter().chain(std::iter::repeat(&false)))
            {
                if cancel {
                    sim.cancel(*id);
                } else {
                    expected.push(*tag);
                }
            }
            sim.run();
            let mut got: Vec<u32> = sim.world().delivered.iter().map(|&(_, t)| t).collect();
            got.sort_unstable();
            expected.sort_unstable();
            ensure_eq!(got, expected);
            Ok(())
        },
    );
}

#[test]
fn cascading_schedules_advance_monotonically() {
    check_with(
        Config::with_cases(64),
        "sim_cascade_monotone",
        &seuss_check::vecs(
            (seuss_check::range(0u32, 7), seuss_check::range(1u64, 49)),
            1,
            11,
        ),
        |spawns| {
            let mut sim = Simulation::new(Recorder::default());
            for (i, &(n, gap)) in spawns.iter().enumerate() {
                sim.schedule_at(
                    SimTime::from_nanos(i as u64 * 7),
                    Ev::Spawn {
                        base: 1000 * i as u32,
                        n,
                        gap,
                    },
                );
            }
            sim.run();
            for w in sim.world().delivered.windows(2) {
                ensure!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            }
            let total: u32 = spawns.iter().map(|&(n, _)| n).sum();
            ensure_eq!(sim.world().delivered.len(), total as usize);
            Ok(())
        },
    );
}

#[test]
fn run_until_is_a_prefix_of_run() {
    let cases = (
        seuss_check::vecs(seuss_check::range(0u64, 999), 1, 59),
        seuss_check::range(0u64, 999),
    );
    check_with(
        Config::with_cases(64),
        "sim_run_until_prefix",
        &cases,
        |&(ref times, horizon)| {
            let build = |times: &[u64]| {
                let mut sim = Simulation::new(Recorder::default());
                for (i, &t) in times.iter().enumerate() {
                    sim.schedule_at(SimTime::from_nanos(t), Ev::Tag(i as u32));
                }
                sim
            };
            let mut whole = build(times);
            whole.run();
            let mut partial = build(times);
            partial.run_until(SimTime::from_nanos(horizon));
            let full = &whole.world().delivered;
            let pre = &partial.world().delivered;
            ensure!(pre.len() <= full.len(), "partial ran past the full trace");
            ensure_eq!(&full[..pre.len()], &pre[..]);
            ensure!(
                pre.iter().all(|&(t, _)| t <= horizon),
                "event fired past the horizon"
            );
            // Finishing the partial run yields the same trace.
            partial.run();
            ensure_eq!(&partial.world().delivered, full);
            Ok(())
        },
    );
}

/// One calendar operation of [`timers_and_events_deliver_like_one_sorted_list`].
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `schedule_at(now + delay)`.
    At(u64),
    /// `arm_timer(now + TIMER_DELAY)`.
    Timer,
    /// Cancel the n-th armed timer (modulo the number armed).
    Cancel(usize),
    /// From outside: deliver one event. Inside `handle`: nothing.
    Step,
}

const TIMER_DELAY: u64 = 300;

/// The reference model: every event in `(at, seq)` order of scheduling.
#[derive(Default)]
struct Model {
    /// `(at, cancelled)` by sequence number, which is also the event's tag.
    events: Vec<(u64, bool)>,
    /// Every timer armed: its ticket and its tag.
    timers: Vec<(EventId, u32)>,
    /// Tags delivered, in delivery order, with their delivery times.
    delivered: Vec<(u64, u32)>,
    /// Disagreements between `cancel`'s answer and the model.
    problems: Vec<String>,
}

/// The two places the engine can be driven from.
trait Calendar {
    fn at(&mut self, at: SimTime, tag: u32);
    fn timer(&mut self, at: SimTime, tag: u32) -> EventId;
    fn cancel(&mut self, id: EventId) -> bool;
}

impl Calendar for Scheduler<u32> {
    fn at(&mut self, at: SimTime, tag: u32) {
        self.schedule_at(at, tag)
    }
    fn timer(&mut self, at: SimTime, tag: u32) -> EventId {
        self.arm_timer(at, tag)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Scheduler::cancel(self, id)
    }
}

impl Calendar for Simulation<Mixer> {
    fn at(&mut self, at: SimTime, tag: u32) {
        self.schedule_at(at, tag)
    }
    fn timer(&mut self, at: SimTime, tag: u32) -> EventId {
        self.arm_timer(at, tag)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Simulation::cancel(self, id)
    }
}

impl Model {
    fn apply(&mut self, op: Op, now: SimTime, cal: &mut impl Calendar) {
        let tag = self.events.len() as u32;
        match op {
            Op::At(delay) => {
                let at = now.as_nanos() + delay;
                self.events.push((at, false));
                cal.at(SimTime::from_nanos(at), tag);
            }
            Op::Timer => {
                let at = now.as_nanos() + TIMER_DELAY;
                self.events.push((at, false));
                let id = cal.timer(SimTime::from_nanos(at), tag);
                self.timers.push((id, tag));
            }
            Op::Cancel(n) if !self.timers.is_empty() => {
                let (id, tag) = self.timers[n % self.timers.len()];
                let live =
                    !self.events[tag as usize].1 && !self.delivered.iter().any(|&(_, t)| t == tag);
                let cancelled = cal.cancel(id);
                if cancelled != live {
                    self.problems.push(format!(
                        "cancel of timer {tag}: {cancelled}, model says {live}"
                    ));
                }
                self.events[tag as usize].1 |= cancelled;
            }
            Op::Cancel(_) | Op::Step => {}
        }
    }
}

/// Records deliveries into the shared model, and runs the queued inside
/// operations from within `handle`.
struct Mixer {
    model: Rc<RefCell<Model>>,
    inside: Vec<Op>,
}

impl World for Mixer {
    type Event = u32;
    fn handle(&mut self, now: SimTime, tag: u32, sched: &mut Scheduler<u32>) {
        let mut model = self.model.borrow_mut();
        model.delivered.push((now.as_nanos(), tag));
        for op in self.inside.drain(..) {
            model.apply(op, now, sched);
        }
    }
}

#[test]
fn timers_and_events_deliver_like_one_sorted_list() {
    let op = (seuss_check::range(0u8, 3), seuss_check::range(0u64, 999)).map(|(k, v)| match k {
        0 => Op::At(v % 500),
        1 => Op::Timer,
        2 => Op::Cancel(v as usize),
        _ => Op::Step,
    });
    let cases = seuss_check::vecs((seuss_check::bools(), op), 1, 79);
    check_with(
        Config::with_cases(128),
        "sim_timer_lane_model",
        &cases,
        |ops| {
            let model = Rc::new(RefCell::new(Model::default()));
            let mut sim = Simulation::new(Mixer {
                model: Rc::clone(&model),
                inside: Vec::new(),
            });
            for &(inside, op) in ops {
                if inside {
                    sim.world_mut().inside.push(op);
                } else if let Op::Step = op {
                    sim.run_steps(1);
                } else {
                    let now = sim.now();
                    model.borrow_mut().apply(op, now, &mut sim);
                }
            }
            sim.run();
            let model = model.borrow();
            ensure!(model.problems.is_empty(), "{:?}", model.problems);
            let mut expected: Vec<(u64, u32)> = model
                .events
                .iter()
                .enumerate()
                .filter(|(_, &(_, cancelled))| !cancelled)
                .map(|(seq, &(at, _))| (at, seq as u32))
                .collect();
            expected.sort_unstable();
            ensure_eq!(&model.delivered, &expected);
            Ok(())
        },
    );
}
