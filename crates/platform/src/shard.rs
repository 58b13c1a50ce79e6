//! Deterministic workload partitioning for the sharded executor.
//!
//! A trial is split into `shards` independent sub-trials, each with its
//! own registry and workload spec, by a pure function of the original
//! `(Registry, WorkloadSpec, shards)` triple — no map iteration order,
//! no clocks, no randomness. The contract the executor builds on:
//!
//! * **Ownership**: function `f` belongs to shard `f % shards`. Every
//!   request (closed-loop order entry or open-loop arrival) follows its
//!   function, so a shard simulates all traffic for the functions it
//!   owns and nothing else.
//! * **Order preservation**: within a shard, the closed-loop order and
//!   the open arrivals keep their original relative order.
//! * **Identity at one shard**: `partition_workload(r, w, 1)` returns
//!   the input registry and spec unchanged — this is what anchors the
//!   sharded executor's byte-identity to the legacy single-threaded
//!   trial.

use crate::spec::{FnId, Registry, WorkloadSpec};

/// Shard index a function belongs to.
pub(crate) fn shard_of(fn_id: FnId, shards: usize) -> usize {
    (fn_id % shards as u64) as usize
}

/// Splits one trial into `shards` independent `(Registry, WorkloadSpec)`
/// sub-trials. See the module docs for the partition contract.
///
/// The closed-loop worker count `C` is dealt round-robin (`w % shards`),
/// with a floor of one worker for any shard that has closed-loop work —
/// a shard owning requests must be able to issue them. An aggregate
/// throttle is divided in proportion to each shard's share of the
/// closed-loop order, so the summed offered rate matches the original.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn partition_workload(
    registry: &Registry,
    spec: &WorkloadSpec,
    shards: usize,
) -> Vec<(Registry, WorkloadSpec)> {
    assert!(shards > 0, "partition_workload: shards must be >= 1");
    if shards == 1 {
        return vec![(registry.clone(), spec.clone())];
    }

    let mut parts: Vec<(Registry, WorkloadSpec)> = (0..shards)
        .map(|_| (Registry::new(), WorkloadSpec::default()))
        .collect();

    // Registry: sorted-id iteration so insertion into each sub-registry
    // is deterministic (the sub-registries are HashMaps too, but they're
    // only read via `get`).
    for id in registry.ids_sorted() {
        let spec_for_id = registry.get(id).expect("id from ids_sorted").clone();
        parts[shard_of(id, shards)].0.insert_spec(id, spec_for_id);
    }

    for &f in &spec.order {
        parts[shard_of(f, shards)].1.order.push(f);
    }
    for &(t, f) in &spec.open_arrivals {
        parts[shard_of(f, shards)].1.open_arrivals.push((t, f));
    }

    // Closed-loop workers: round-robin deal, then floor at one for any
    // shard with closed-loop requests to issue.
    for w in 0..spec.workers {
        parts[(w % shards as u32) as usize].1.workers += 1;
    }
    for (_, w) in parts.iter_mut() {
        if !w.order.is_empty() && w.workers == 0 {
            w.workers = 1;
        }
    }

    // Throttle: split the aggregate rate by closed-loop order share.
    if let Some(rps) = spec.throttle_rps {
        let total = spec.order.len();
        if total > 0 {
            for (_, w) in parts.iter_mut() {
                if !w.order.is_empty() {
                    w.throttle_rps = Some(rps * w.order.len() as f64 / total as f64);
                }
            }
        }
    }

    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FnKind;
    use simcore::SimTime;

    fn sample() -> (Registry, WorkloadSpec) {
        let mut r = Registry::new();
        let ids = r.register_many(0, 10, FnKind::Nop);
        let order: Vec<FnId> = ids.iter().cycle().take(40).copied().collect();
        let mut w = WorkloadSpec::closed_loop(order, 6);
        w.throttle_rps = Some(100.0);
        w.open_arrivals = vec![
            (SimTime::from_secs(1), 3),
            (SimTime::from_secs(2), 4),
            (SimTime::from_secs(3), 3),
        ];
        (r, w)
    }

    #[test]
    fn one_shard_is_identity() {
        let (r, w) = sample();
        let parts = partition_workload(&r, &w, 1);
        assert_eq!(parts.len(), 1);
        let (pr, pw) = &parts[0];
        assert_eq!(pr.len(), r.len());
        assert_eq!(pw.order, w.order);
        assert_eq!(pw.workers, w.workers);
        assert_eq!(pw.throttle_rps, w.throttle_rps);
        assert_eq!(pw.open_arrivals, w.open_arrivals);
    }

    #[test]
    fn shards_cover_everything_exactly_once() {
        let (r, w) = sample();
        let parts = partition_workload(&r, &w, 4);
        assert_eq!(parts.len(), 4);
        let fns: usize = parts.iter().map(|(pr, _)| pr.len()).sum();
        assert_eq!(fns, r.len());
        let reqs = |w: &WorkloadSpec| w.order.len() + w.open_arrivals.len();
        let total: usize = parts.iter().map(|(_, pw)| reqs(pw)).sum();
        assert_eq!(total, reqs(&w));
        // Each order entry landed on the shard owning its function, in
        // its original relative order.
        for (s, (pr, pw)) in parts.iter().enumerate() {
            for &f in &pw.order {
                assert_eq!(shard_of(f, 4), s);
                assert!(pr.get(f).is_some());
            }
            let original: Vec<FnId> = w
                .order
                .iter()
                .copied()
                .filter(|&f| shard_of(f, 4) == s)
                .collect();
            assert_eq!(pw.order, original);
        }
    }

    #[test]
    fn open_arrivals_follow_their_function() {
        let (r, w) = sample();
        let parts = partition_workload(&r, &w, 4);
        // fns 3 and 4 both map to shard 3 % 4 = 3 and 4 % 4 = 0.
        assert_eq!(
            parts[3].1.open_arrivals,
            vec![(SimTime::from_secs(1), 3), (SimTime::from_secs(3), 3)]
        );
        assert_eq!(parts[0].1.open_arrivals, vec![(SimTime::from_secs(2), 4)]);
    }

    #[test]
    fn workers_and_throttle_are_conserved() {
        let (r, w) = sample();
        let parts = partition_workload(&r, &w, 4);
        let workers: u32 = parts.iter().map(|(_, pw)| pw.workers).sum();
        assert!(workers >= w.workers);
        let rps: f64 = parts.iter().filter_map(|(_, pw)| pw.throttle_rps).sum();
        assert!((rps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn busy_shard_never_lacks_a_worker() {
        let mut r = Registry::new();
        r.register(7, FnKind::Nop);
        // One worker, eight shards: only shard 7 has work, and the
        // round-robin deal gives its worker to shard 0.
        let w = WorkloadSpec::closed_loop(vec![7, 7, 7], 1);
        let parts = partition_workload(&r, &w, 8);
        assert_eq!(parts[7].1.workers, 1);
        assert_eq!(parts[7].1.order.len(), 3);
    }
}
