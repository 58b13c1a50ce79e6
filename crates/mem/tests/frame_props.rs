//! Property tests (driven by `seuss-check`): the frame pool must behave
//! exactly like a dense model — one refcount, one kind and one 4 KiB
//! byte array per frame, a LIFO free list and a fixed capacity — under
//! any sequence of allocations, reference changes, writes, clones,
//! content shares and wholesale content replacement. The pool shares
//! content slots between clones and sharers; the model copies bytes, so
//! a write through one frame that leaks into another shows.
//!
//! After every operation the suite compares every live frame's refcount,
//! the pool's `MemStats`, and every read the operation makes. A frame
//! index handed out again after a free must read as zeroes, and count
//! under the kind it was handed out with, not the kind it had before.

use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
use seuss_mem::{FrameId, FrameKind, MemError, MemStats, PageContent, PhysMemory, PAGE_SIZE};

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
    Write {
        f: usize,
        offset: usize,
        bytes: Vec<u8>,
    },
    Clone {
        f: usize,
    },
    /// Clone `f`, then write `a` through `f` and `b` through the clone.
    CloneWrite {
        f: usize,
        a: (usize, Vec<u8>),
        b: (usize, Vec<u8>),
    },
    /// Drops every reference to `f`, then allocates again: the pool hands
    /// the same index back, under a kind other than `f`'s (`shift` 0
    /// or 1 picks which).
    Recycle {
        f: usize,
        shift: usize,
    },
    /// `share_content(dst, src)`.
    Share {
        dst: usize,
        src: usize,
    },
    /// `None` sets `PageContent::Zero`; `Some` sets content built by one
    /// write of `bytes` at `offset` into a zero page.
    SetContent {
        f: usize,
        write: Option<(usize, Vec<u8>)>,
    },
    ContentOf {
        f: usize,
    },
    Read {
        f: usize,
        offset: usize,
        len: usize,
    },
}

const KINDS: [FrameKind; 3] = [FrameKind::PageTable, FrameKind::Data, FrameKind::KernelMeta];

/// Offset plus 1–300 payload bytes, clamped so the write stays in-page.
/// Writes above 128 bytes promote a page to dense.
fn page_write() -> impl Gen<Value = (usize, Vec<u8>)> {
    (
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::vecs(seuss_check::range(0u8, 255), 1, 300),
    )
        .map(|(offset, mut bytes)| {
            bytes.truncate(PAGE_SIZE - offset);
            (offset, bytes)
        })
}

fn ops() -> impl Gen<Value = Vec<Op>> {
    let frame = || seuss_check::range(0usize, 31);
    let alloc = seuss_check::range(0usize, 2).map(|kind| Op::Alloc { kind });
    let inc = frame().map(|f| Op::IncRef { f });
    let dec = frame().map(|f| Op::DecRef { f });
    let write = (frame(), page_write()).map(|(f, (offset, bytes))| Op::Write { f, offset, bytes });
    let clone = frame().map(|f| Op::Clone { f });
    let clone_write =
        (frame(), page_write(), page_write()).map(|(f, a, b)| Op::CloneWrite { f, a, b });
    let recycle =
        (frame(), seuss_check::range(0usize, 1)).map(|(f, shift)| Op::Recycle { f, shift });
    let share = (frame(), frame()).map(|(dst, src)| Op::Share { dst, src });
    let set_zero = frame().map(|f| Op::SetContent { f, write: None });
    let set = (frame(), page_write()).map(|(f, w)| Op::SetContent { f, write: Some(w) });
    let content_of = frame().map(|f| Op::ContentOf { f });
    let read = (
        frame(),
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::range(1usize, 300),
    )
        .map(|(f, offset, len)| Op::Read {
            f,
            offset,
            len: len.min(PAGE_SIZE - offset),
        });
    seuss_check::vecs(
        seuss_check::one_of(vec![
            alloc.boxed(),
            inc.boxed(),
            dec.boxed(),
            write.boxed(),
            clone.boxed(),
            clone_write.boxed(),
            recycle.boxed(),
            share.boxed(),
            set_zero.boxed(),
            set.boxed(),
            content_of.boxed(),
            read.boxed(),
        ]),
        1,
        120,
    )
}

/// The dense model of one live frame.
struct ModelFrame {
    refcount: u32,
    kind: FrameKind,
    bytes: Vec<u8>,
}

/// The dense model of the whole pool.
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

    fn alloc(&mut self, kind: FrameKind, bytes: Vec<u8>) -> FrameId {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.frames.push(None);
                self.frames.len() as u32 - 1
            }
        };
        self.frames[idx as usize] = Some(ModelFrame {
            refcount: 1,
            kind,
            bytes,
        });
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

fn read_page(mem: &PhysMemory, f: FrameId) -> Vec<u8> {
    let mut page = vec![0xAA; PAGE_SIZE];
    mem.read(f, 0, &mut page);
    page
}

fn content_bytes(content: &PageContent) -> Vec<u8> {
    let mut page = vec![0xAA; PAGE_SIZE];
    content.read(0, &mut page);
    page
}

/// Allocates in the pool and the model, checking the id and that a
/// reused index reads as zeroes. `None` when both report a full pool.
fn alloc_both(
    mem: &mut PhysMemory,
    model: &mut Model,
    got: Result<FrameId, MemError>,
    kind: FrameKind,
    bytes: Vec<u8>,
) -> Result<Option<FrameId>, String> {
    if model.used() == CAPACITY {
        ensure_eq!(got, Err(MemError::OutOfFrames));
        return Ok(None);
    }
    let want = model.next_index();
    let f = got.map_err(|e| format!("alloc failed below capacity: {e}"))?;
    ensure_eq!(f.index(), want, "frame ids must be handed out LIFO");
    ensure_eq!(model.alloc(kind, bytes.clone()), f);
    ensure!(
        read_page(mem, f) == bytes,
        "{f:?} does not read as its expected content"
    );
    Ok(Some(f))
}

fn apply(mem: &mut PhysMemory, model: &mut Model, op: &Op) -> Result<(), String> {
    let pick = |f: usize| (!model.live.is_empty()).then(|| model.live[f % model.live.len()]);
    match op {
        Op::Alloc { kind } => {
            let got = mem.alloc(KINDS[*kind]);
            alloc_both(mem, model, got, KINDS[*kind], vec![0; PAGE_SIZE])?;
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
        Op::Write { f, offset, bytes } => {
            if let Some(id) = pick(*f) {
                mem.write(id, *offset, bytes);
                model.frame(id).bytes[*offset..*offset + bytes.len()].copy_from_slice(bytes);
            }
        }
        Op::Clone { f } => {
            if let Some(id) = pick(*f) {
                let got = mem.clone_frame(id);
                let m = model.frame(id);
                let (kind, bytes) = (m.kind, m.bytes.clone());
                alloc_both(mem, model, got, kind, bytes)?;
            }
        }
        Op::CloneWrite { f, a, b } => {
            if let Some(id) = pick(*f) {
                let got = mem.clone_frame(id);
                let m = model.frame(id);
                let (kind, bytes) = (m.kind, m.bytes.clone());
                if let Some(copy) = alloc_both(mem, model, got, kind, bytes)? {
                    for (frame, (offset, w)) in [(id, a), (copy, b)] {
                        mem.write(frame, *offset, w);
                        model.frame(frame).bytes[*offset..*offset + w.len()].copy_from_slice(w);
                    }
                    for frame in [id, copy] {
                        ensure!(
                            read_page(mem, frame) == model.frame_ref(frame).bytes,
                            "{frame:?} does not read as its own bytes"
                        );
                    }
                }
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
                let got = mem.alloc(kind);
                let again = alloc_both(mem, model, got, kind, vec![0; PAGE_SIZE])?;
                ensure_eq!(again, Some(id), "a freed index is handed out next");
            }
        }
        Op::Share { dst, src } => {
            if let (Some(dst), Some(src)) = (pick(*dst), pick(*src)) {
                mem.share_content(dst, src);
                model.frame(dst).bytes = model.frame_ref(src).bytes.clone();
            }
        }
        Op::SetContent { f, write } => {
            if let Some(id) = pick(*f) {
                let mut content = PageContent::Zero;
                let mut bytes = vec![0; PAGE_SIZE];
                if let Some((offset, w)) = write {
                    content.write(*offset, w);
                    bytes[*offset..*offset + w.len()].copy_from_slice(w);
                }
                mem.set_content(id, content);
                model.frame(id).bytes = bytes;
            }
        }
        Op::ContentOf { f } => {
            if let Some(id) = pick(*f) {
                let got = content_bytes(&mem.content_of(id));
                ensure!(got == model.frame(id).bytes, "content_of({id:?}) differs");
            }
        }
        Op::Read { f, offset, len } => {
            if let Some(id) = pick(*f) {
                let mut out = vec![0xAA; *len];
                mem.read(id, *offset, &mut out);
                ensure_eq!(&out[..], &model.frame(id).bytes[*offset..*offset + *len]);
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
fn pool_matches_a_dense_model() {
    check_with(
        Config::with_cases(96),
        "frame_pool_dense_model",
        &ops(),
        |ops| {
            let mut mem = PhysMemory::new(CAPACITY * PAGE_SIZE as u64);
            let mut model = Model::default();
            for (i, op) in ops.iter().enumerate() {
                apply(&mut mem, &mut model, op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
            }
            // Every live frame reads as its model, and freeing them all
            // returns the pool to empty.
            for id in model.live.clone() {
                ensure!(read_page(&mem, id) == model.frame_ref(id).bytes, "{id:?}");
                for _ in 0..model.frame_ref(id).refcount {
                    mem.dec_ref(id);
                }
            }
            ensure_eq!(mem.stats().used_frames, 0);
            Ok(())
        },
    );
}
