//! Function specifications, the function registry, and workload specs.

use std::collections::HashMap;

use simcore::{SimDuration, SimTime};

/// Function identity.
pub(crate) type FnId = u64;

/// The three function shapes the evaluation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnKind {
    /// The NOP JavaScript function (micro + throughput experiments).
    Nop,
    /// CPU-bound: spins for the given duration (burst functions, ≈150 ms).
    Cpu(SimDuration),
    /// IO-bound: one external HTTP call the server holds for its block
    /// time (≈250 ms), plus trivial CPU.
    Io,
}

/// A registered function: its kind and its miniscript source.
#[derive(Clone, Debug)]
pub struct FnSpec {
    /// Behavioural class.
    pub(crate) kind: FnKind,
    /// Source code (what SEUSS imports and compiles; Linux containers
    /// /init with it).
    pub src: String,
}

impl FnSpec {
    /// Builds the canonical source for a function kind.
    ///
    /// Each unique function gets a salt comment so that logically-unique
    /// functions have distinct sources, like distinct client uploads.
    pub fn new(kind: FnKind, salt: u64) -> Self {
        let src = match kind {
            FnKind::Nop => {
                format!("// fn {salt}\nfunction main(args) {{ return 0; }}")
            }
            FnKind::Cpu(d) => format!(
                "// fn {salt}\nfunction main(args) {{ spin({}); return 'done'; }}",
                d.as_nanos()
            ),
            FnKind::Io => format!(
                "// fn {salt}\nfunction main(args) {{ let r = http_get('http://ext/{salt}'); return r; }}"
            ),
        };
        FnSpec { kind, src }
    }
}

/// The function store (the platform's CouchDB stand-in).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    fns: HashMap<FnId, FnSpec>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `count` unique functions of one kind starting at
    /// `first_id`. Returns the ids.
    pub fn register_many(&mut self, first_id: FnId, count: u64, kind: FnKind) -> Vec<FnId> {
        let ids: Vec<FnId> = (first_id..first_id + count).collect();
        for &id in &ids {
            self.fns.insert(id, FnSpec::new(kind, id));
        }
        ids
    }

    /// Registers one function.
    pub fn register(&mut self, id: FnId, kind: FnKind) {
        self.fns.insert(id, FnSpec::new(kind, id));
    }

    /// Inserts an already-built spec under an id (the shard partitioner
    /// uses this to copy specs between registries without re-deriving
    /// them from a kind + salt).
    pub(crate) fn insert_spec(&mut self, id: FnId, spec: FnSpec) {
        self.fns.insert(id, spec);
    }

    /// Looks up a function.
    pub(crate) fn get(&self, id: FnId) -> Option<&FnSpec> {
        self.fns.get(&id)
    }

    /// All registered ids in ascending order — the deterministic
    /// iteration the partitioner needs (`HashMap` iteration order is
    /// not).
    pub(crate) fn ids_sorted(&self) -> Vec<FnId> {
        let mut ids: Vec<FnId> = self.fns.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// A load description, mirroring the paper's benchmark tool: `N`
/// invocations over `M` functions issued by `C` closed-loop workers (with
/// an optional rate throttle), plus open-loop scheduled arrivals
/// (bursts).
#[derive(Clone, Debug, Default)]
pub struct WorkloadSpec {
    /// Precomputed shared request order for the closed-loop workers.
    pub order: Vec<FnId>,
    /// Number of closed-loop worker threads (`C`).
    pub workers: u32,
    /// Optional aggregate rate limit, requests per second.
    pub throttle_rps: Option<f64>,
    /// Open-loop arrivals: `(send time, function)` pairs (bursts).
    pub open_arrivals: Vec<(SimTime, FnId)>,
}

impl WorkloadSpec {
    /// A pure closed-loop trial.
    pub fn closed_loop(order: Vec<FnId>, workers: u32) -> Self {
        WorkloadSpec {
            order,
            workers,
            throttle_rps: None,
            open_arrivals: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_distinct_per_salt() {
        let a = FnSpec::new(FnKind::Nop, 1);
        let b = FnSpec::new(FnKind::Nop, 2);
        assert_ne!(a.src, b.src);
        assert!(a.src.contains("function main"));
    }

    #[test]
    fn cpu_source_embeds_duration() {
        let s = FnSpec::new(FnKind::Cpu(SimDuration::from_millis(150)), 0);
        assert!(s.src.contains("spin(150000000)"), "{}", s.src);
    }

    #[test]
    fn registry_round_trip() {
        let mut r = Registry::new();
        let ids = r.register_many(0, 10, FnKind::Nop);
        assert_eq!(ids.len(), 10);
        assert_eq!(r.len(), 10);
        assert!(r.get(9).is_some());
        assert!(r.get(10).is_none());
    }
}
