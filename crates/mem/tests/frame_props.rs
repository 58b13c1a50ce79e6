//! Property tests (driven by `seuss-check`): the frame pool must behave
//! exactly like a model — one refcount and one kind per frame, a LIFO
//! free list and a fixed capacity — under any sequence of allocations,
//! reference changes, clones and frees.
//!
//! After every operation the suite compares every live frame's refcount
//! and the pool's `MemStats`. A frame index handed out again after a
//! free must count under the kind it was handed out with, not the kind
//! it had before.

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameId, FrameKind, MemError, MemStats, PhysMemory, PAGE_SIZE};

/// Pool size: small enough that sequences run into `OutOfFrames`.
const CAPACITY: u64 = 24;

#[derive(Clone, Debug, PartialEq)]
enum Op {
    Alloc {
        kind: usize,
    },
    IncRef {
        f: usize,
    },
    DecRef {
        f: usize,
    },
    Clone {
        f: usize,
    },
    /// Drops every reference to `f`, then allocates again: the pool hands
    /// the same index back, under a kind other than `f`'s (`shift` 0
    /// or 1 picks which).
    Recycle {
        f: usize,
        shift: usize,
    },
}

const KINDS: [FrameKind; 3] = [FrameKind::PageTable, FrameKind::Data, FrameKind::KernelMeta];

fn ops() -> impl Gen<Value = Vec<Op>> {
    let frame = || seuss_check::range(0usize, 31);
    let alloc = seuss_check::range(0usize, 2).map(|kind| Op::Alloc { kind });
    let inc = frame().map(|f| Op::IncRef { f });
    let dec = frame().map(|f| Op::DecRef { f });
    let clone = frame().map(|f| Op::Clone { f });
    let recycle =
        (frame(), seuss_check::range(0usize, 1)).map(|(f, shift)| Op::Recycle { f, shift });
    seuss_check::vecs(
        seuss_check::one_of(vec![
            alloc.boxed(),
            inc.boxed(),
            dec.boxed(),
            clone.boxed(),
            recycle.boxed(),
        ]),
        1,
        120,
    )
}

/// The model of one live frame.
struct ModelFrame {
    refcount: u32,
    kind: FrameKind,
}

/// The model of the whole pool.
#[derive(Default)]
struct Model {
    frames: Vec<Option<ModelFrame>>,
    free: Vec<u32>,
    /// Live frame ids in allocation order; ops pick a frame by index.
    live: Vec<FrameId>,
    allocs: u64,
    frees: u64,
}

impl Model {
    fn used(&self) -> u64 {
        self.live.len() as u64
    }

    /// The id the pool must hand out next: the last freed index, else a
    /// fresh one.
    fn next_index(&self) -> u32 {
        self.free
            .last()
            .copied()
            .unwrap_or(self.frames.len() as u32)
    }

    fn alloc(&mut self, kind: FrameKind) -> FrameId {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.frames.push(None);
                self.frames.len() as u32 - 1
            }
        };
        self.frames[idx as usize] = Some(ModelFrame { refcount: 1, kind });
        let id = FrameId::from_index(idx);
        self.live.push(id);
        self.allocs += 1;
        id
    }

    fn frame_ref(&self, id: FrameId) -> &ModelFrame {
        self.frames[id.index() as usize].as_ref().expect("live")
    }

    fn frame(&mut self, id: FrameId) -> &mut ModelFrame {
        self.frames[id.index() as usize].as_mut().expect("live")
    }

    /// Drops one reference to `id`; returns whether that freed it.
    fn dec_ref(&mut self, id: FrameId) -> bool {
        let m = self.frame(id);
        m.refcount -= 1;
        if m.refcount > 0 {
            return false;
        }
        self.frames[id.index() as usize] = None;
        self.free.push(id.index());
        self.live.retain(|&l| l != id);
        self.frees += 1;
        true
    }

    fn stats(&self) -> MemStats {
        let count =
            |k: FrameKind| self.frames.iter().flatten().filter(|f| f.kind == k).count() as u64;
        MemStats {
            used_frames: self.used(),
            capacity_frames: CAPACITY,
            page_table_frames: count(FrameKind::PageTable),
            data_frames: count(FrameKind::Data),
            kernel_meta_frames: count(FrameKind::KernelMeta),
            total_allocs: self.allocs,
            total_frees: self.frees,
        }
    }
}

/// Allocates in the model what the pool allocated as `got`, checking
/// the id. `None` when both report a full pool.
fn alloc_both(
    model: &mut Model,
    got: Result<FrameId, MemError>,
    kind: FrameKind,
) -> Result<Option<FrameId>, String> {
    if model.used() == CAPACITY {
        ensure_eq!(got, Err(MemError::OutOfFrames));
        return Ok(None);
    }
    let want = model.next_index();
    let f = got.map_err(|e| format!("alloc failed below capacity: {e}"))?;
    ensure_eq!(f.index(), want, "frame ids must be handed out LIFO");
    ensure_eq!(model.alloc(kind), f);
    Ok(Some(f))
}

fn apply(mem: &mut PhysMemory, model: &mut Model, op: &Op) -> Result<(), String> {
    let pick = |f: usize| (!model.live.is_empty()).then(|| model.live[f % model.live.len()]);
    match op {
        Op::Alloc { kind } => {
            alloc_both(model, mem.alloc(KINDS[*kind]), KINDS[*kind])?;
        }
        Op::IncRef { f } => {
            if let Some(id) = pick(*f) {
                mem.inc_ref(id);
                model.frame(id).refcount += 1;
            }
        }
        Op::DecRef { f } => {
            if let Some(id) = pick(*f) {
                ensure_eq!(mem.dec_ref(id), model.dec_ref(id));
            }
        }
        Op::Clone { f } => {
            if let Some(id) = pick(*f) {
                let kind = model.frame_ref(id).kind;
                alloc_both(model, mem.clone_frame(id), kind)?;
            }
        }
        Op::Recycle { f, shift } => {
            if let Some(id) = pick(*f) {
                let old = model.frame_ref(id).kind;
                while !model.dec_ref(id) {
                    ensure!(!mem.dec_ref(id), "{id:?} freed early");
                }
                ensure!(mem.dec_ref(id), "{id:?} not freed by its last reference");
                let at = KINDS.iter().position(|&k| k == old).expect("a kind");
                let kind = KINDS[(at + 1 + shift) % KINDS.len()];
                let again = alloc_both(model, mem.alloc(kind), kind)?;
                ensure_eq!(again, Some(id), "a freed index is handed out next");
            }
        }
    }
    for &id in &model.live {
        ensure_eq!(mem.refcount(id), model.frame_ref(id).refcount, "{id:?}");
    }
    ensure_eq!(mem.stats(), model.stats());
    Ok(())
}

#[test]
fn pool_matches_a_model() {
    check_with(Config::with_cases(96), "frame_pool_model", &ops(), |ops| {
        let mut mem = PhysMemory::new(CAPACITY * PAGE_SIZE as u64);
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut mem, &mut model, op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
        }
        // Freeing every live frame returns the pool to empty.
        for id in model.live.clone() {
            for _ in 0..model.frame_ref(id).refcount {
                mem.dec_ref(id);
            }
        }
        ensure_eq!(mem.stats().used_frames, 0);
        Ok(())
    });
}
