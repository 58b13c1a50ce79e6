//! Fault plans: typed, time-sorted injection schedules.

use simcore::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The compute node crashes, losing its idle-UC and snapshot caches
    /// and all in-flight work, then rejoins after `reboot`.
    NodeCrash {
        /// Reboot cost before the node serves again.
        reboot: SimDuration,
    },
    /// Every packet arriving at the node during the window is dropped
    /// independently with probability `prob`.
    PacketLoss {
        /// Per-packet drop probability in `[0, 1]`.
        prob: f64,
        /// Window length.
        span: SimDuration,
    },
    /// The node's frame pool transiently shrinks by `frames`, driving
    /// the OOM daemon until the window closes.
    MemPressure {
        /// Frames withheld from the pool.
        frames: u64,
        /// Window length.
        span: SimDuration,
    },
    /// One worker core runs slow by `factor` until the window closes.
    StragglerCore {
        /// Core index (taken modulo the core count at injection time).
        core: u16,
        /// Execution-time multiplier, `>= 1.0`.
        factor: f64,
        /// Window length.
        span: SimDuration,
    },
    /// The cached function snapshot for `fn_id` is corrupted in place;
    /// the node's integrity check fails on next use and degrades the
    /// invocation to the cold path.
    SnapshotCorruption {
        /// Function whose cached snapshot is damaged.
        fn_id: u64,
    },
    /// The snapshot-tier block device fails every read until the window
    /// closes. Deploys of demoted snapshots detect the unreadable blocks
    /// and degrade to the cold path, whose re-capture repairs the cache.
    /// A no-op on nodes without a storage tier.
    DeviceReadError {
        /// Window length.
        span: SimDuration,
    },
}

/// One scheduled injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual instant at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of fault injections.
///
/// The empty plan ([`FaultPlan::none`]) is the determinism anchor: with
/// it, a trial draws nothing from the fault RNG streams and produces
/// byte-identical output to a build without the fault subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, sorting by instant (stable, so events
    /// at the same instant keep their given order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled injections.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by instant.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Appends an event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// The faults function `fn_id` observes: every node-global event plus
    /// corruption events targeting exactly that function.
    ///
    /// This is the shard-stability contract: the plan is broadcast
    /// verbatim to every shard, so how the workload is partitioned can
    /// never change this set.
    pub fn observed_by(&self, fn_id: u64) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter(|e| match e.kind {
                FaultKind::SnapshotCorruption { fn_id: f } => f == fn_id,
                _ => true,
            })
            .copied()
            .collect()
    }

    /// The plan as seen by shard `shard` of `shards`: all node-global
    /// events, plus corruption events for functions the shard owns
    /// (`fn_id % shards == shard`). Executing the full plan on every
    /// shard is equivalent — corrupting a snapshot the shard never
    /// caches is a no-op — so this view exists to *state* the
    /// shard-stability property, not to change execution.
    pub fn shard_view(&self, shard: u64, shards: u64) -> FaultPlan {
        assert!(shards > 0, "shard_view requires at least one shard");
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|e| match e.kind {
                    FaultKind::SnapshotCorruption { fn_id } => fn_id % shards == shard,
                    _ => true,
                })
                .copied()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn from_events_sorts_stably() {
        let crash = FaultKind::NodeCrash {
            reboot: SimDuration::from_millis(500),
        };
        let corrupt = FaultKind::SnapshotCorruption { fn_id: 7 };
        let p = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(9),
                kind: crash,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: corrupt,
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: crash,
            },
        ]);
        assert_eq!(p.events()[0].at, SimTime::from_secs(3));
        assert_eq!(p.events()[0].kind, corrupt, "equal instants keep order");
        assert_eq!(p.events()[1].kind, crash);
        assert_eq!(p.events()[2].at, SimTime::from_secs(9));
    }

    #[test]
    fn push_keeps_the_schedule_sorted() {
        let mut p = FaultPlan::none();
        let loss = FaultKind::PacketLoss {
            prob: 0.5,
            span: SimDuration::from_secs(1),
        };
        let pressure = FaultKind::MemPressure {
            frames: 100,
            span: SimDuration::from_secs(1),
        };
        p.push(SimTime::from_secs(2), loss);
        p.push(SimTime::from_secs(1), pressure);
        assert_eq!(p.len(), 2);
        assert_eq!(p.events()[0].kind, pressure);
        assert_eq!(p.events()[1].kind, loss);
    }

    #[test]
    fn observed_by_filters_targeted_faults() {
        let mut p = FaultPlan::none();
        p.push(
            SimTime::from_secs(1),
            FaultKind::NodeCrash {
                reboot: SimDuration::from_millis(100),
            },
        );
        p.push(
            SimTime::from_secs(2),
            FaultKind::SnapshotCorruption { fn_id: 4 },
        );
        p.push(
            SimTime::from_secs(3),
            FaultKind::SnapshotCorruption { fn_id: 9 },
        );
        let seen = p.observed_by(4);
        assert_eq!(seen.len(), 2);
        assert!(seen
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::SnapshotCorruption { fn_id } if fn_id != 4)));
    }

    #[test]
    fn shard_view_partitions_only_targeted_faults() {
        let mut p = FaultPlan::none();
        p.push(
            SimTime::from_secs(1),
            FaultKind::StragglerCore {
                core: 2,
                factor: 2.0,
                span: SimDuration::from_secs(5),
            },
        );
        p.push(
            SimTime::from_secs(2),
            FaultKind::SnapshotCorruption { fn_id: 5 },
        );
        let v0 = p.shard_view(0, 2);
        let v1 = p.shard_view(1, 2);
        assert_eq!(v0.len(), 1, "global only");
        assert_eq!(v1.len(), 2, "global + fn 5 (5 % 2 == 1)");
        // A function observes the same faults through its owning shard's
        // view as through the full plan.
        assert_eq!(v1.observed_by(5), p.observed_by(5));
    }
}
