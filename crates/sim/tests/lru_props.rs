//! Property tests on the recency list (driven by `seuss-check`): over
//! random push/touch/remove/pop-front/skip-walk sequences, `Recency`
//! picks exactly the victims of the scan it replaced — the minimum by
//! `(last_use, seq)` over a plain `Vec` stamped from a monotone clock.

use seuss_check::{check_with, ensure_eq, range, vecs, Config};
use simcore::lru::{Handle, Recency};

/// The reference: every entry stamped with its last use and insertion
/// order, the victim found by a linear min scan.
#[derive(Default)]
struct Model {
    entries: Vec<(u32, u64, u64)>,
    clock: u64,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, key: u32) {
        self.clock += 1;
        self.entries.push((key, self.clock, self.next_seq));
        self.next_seq += 1;
    }

    fn touch(&mut self, key: u32) {
        self.clock += 1;
        let e = self.entries.iter_mut().find(|e| e.0 == key).expect("live");
        e.1 = self.clock;
    }

    fn remove(&mut self, key: u32) {
        self.entries.retain(|e| e.0 != key);
    }

    /// The least-recently-used key not rejected by `skip`.
    fn coldest(&self, skip: impl Fn(u32) -> bool) -> Option<u32> {
        self.entries
            .iter()
            .filter(|e| !skip(e.0))
            .min_by_key(|e| (e.1, e.2))
            .map(|e| e.0)
    }

    fn order(&self) -> Vec<u32> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| (e.1, e.2));
        v.into_iter().map(|e| e.0).collect()
    }
}

/// A skip predicate drawn from the op argument, like the tier walk
/// passing over snapshots it may not demote.
fn skipper(arg: u32) -> impl Fn(u32) -> bool {
    let m = arg % 4 + 2;
    move |k| k % m == 0
}

#[test]
fn recency_matches_the_min_scan_it_replaced() {
    check_with(
        Config::with_cases(128),
        "lru_matches_min_scan",
        &vecs((range(0u8, 5), range(0u32, 63)), 1, 200),
        |ops| {
            let mut lru = Recency::new();
            let mut model = Model::default();
            let mut live: Vec<(u32, Handle)> = Vec::new();
            let mut next_key = 0u32;
            for &(op, arg) in ops {
                let pick = (!live.is_empty()).then(|| arg as usize % live.len());
                match (op, pick) {
                    (0, _) => {
                        live.push((next_key, lru.push_back(next_key)));
                        model.push(next_key);
                        next_key += 1;
                    }
                    (1, Some(i)) => {
                        lru.touch(live[i].1);
                        model.touch(live[i].0);
                    }
                    (2, Some(i)) => {
                        let (key, h) = live.swap_remove(i);
                        ensure_eq!(lru.remove(h), Some(key));
                        ensure_eq!(lru.remove(h), None, "second remove of {key}");
                        model.remove(key);
                    }
                    (3, _) => {
                        let victim = lru.pop_front();
                        ensure_eq!(victim, model.coldest(|_| false), "pop-front victim");
                        if let Some(key) = victim {
                            live.retain(|&(k, _)| k != key);
                            model.remove(key);
                        }
                    }
                    (4, _) => {
                        // Evict-style walk: first non-skipped entry, removed.
                        let skip = skipper(arg);
                        let found = lru.iter().find(|&(_, k)| !skip(k));
                        ensure_eq!(found.map(|(_, k)| k), model.coldest(&skip), "walk victim");
                        if let Some((h, key)) = found {
                            lru.remove(h);
                            live.retain(|&(k, _)| k != key);
                            model.remove(key);
                        }
                    }
                    _ => {
                        // Cursor walk (the tier's demotion walk); the victim
                        // is used again rather than removed.
                        let skip = skipper(arg);
                        let mut cursor = lru.front_handle();
                        let mut found = None;
                        while let Some(h) = cursor {
                            cursor = lru.next_handle(h);
                            let key = lru.get(h).expect("cursor is linked");
                            if !skip(key) {
                                found = Some((h, key));
                                break;
                            }
                        }
                        ensure_eq!(found.map(|(_, k)| k), model.coldest(&skip), "cursor victim");
                        if let Some((h, key)) = found {
                            lru.touch(h);
                            model.touch(key);
                        }
                    }
                }
                ensure_eq!(lru.len(), model.entries.len());
                ensure_eq!(lru.front(), model.coldest(|_| false));
            }
            let order: Vec<u32> = lru.iter().map(|(_, k)| k).collect();
            ensure_eq!(order, model.order(), "full cold-to-hot order");
            Ok(())
        },
    );
}
