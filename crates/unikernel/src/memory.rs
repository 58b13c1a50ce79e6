//! Bridging the interpreter heap onto a UC address space.
//!
//! [`UcMemory`] implements `miniscript::HeapBackend` over an
//! `(Mmu, PhysMemory, AddressSpace)` triple: every interpreter write goes
//! through [`seuss_paging::Mmu::touch_write`] or
//! [`seuss_paging::Mmu::write_bytes`], and every heap commit through one
//! [`seuss_paging::Mmu::write_run`], so they fault, COW-break, and dirty
//! pages exactly like guest memory traffic.

use miniscript::{HeapBackend, HeapError};
use seuss_mem::{FrameId, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, Mmu, PageFault};

/// A borrowed view of a UC's memory, usable as an interpreter heap backend.
pub(crate) struct UcMemory<'a> {
    /// The node MMU.
    pub(crate) mmu: &'a mut Mmu,
    /// The node frame pool.
    pub(crate) mem: &'a mut PhysMemory,
    /// The UC's address space.
    pub(crate) space: &'a mut AddressSpace,
    /// The page number and frame of the last one-page write. Only this
    /// space's writes run during the borrow, so that page stays private,
    /// writable, dirty, accessed and in the dirty set: another
    /// `touch_write` on it would return the same frame and change nothing
    /// but [`seuss_paging::OpStats::levels_walked`].
    last_write: Option<(u64, FrameId)>,
}

impl<'a> UcMemory<'a> {
    /// Wraps the triple.
    pub(crate) fn new(
        mmu: &'a mut Mmu,
        mem: &'a mut PhysMemory,
        space: &'a mut AddressSpace,
    ) -> Self {
        UcMemory {
            mmu,
            mem,
            space,
            last_write: None,
        }
    }
}

fn map_fault(_f: PageFault) -> HeapError {
    HeapError::BackendFault
}

impl HeapBackend for UcMemory<'_> {
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let va = VirtAddr::new(addr);
        let offset = va.page_offset();
        if offset + bytes.len() > PAGE_SIZE {
            self.last_write = None;
            return self
                .mmu
                .write_bytes(self.mem, self.space, va, bytes)
                .map_err(map_fault);
        }
        let vpn = addr / PAGE_SIZE as u64;
        let frame = match self.last_write.take() {
            Some((last, frame)) if last == vpn => frame,
            _ => self
                .mmu
                .touch_write(self.mem, self.space, va)
                .map_err(map_fault)?,
        };
        self.last_write = Some((vpn, frame));
        self.mem.write(frame, offset, bytes);
        Ok(())
    }

    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError> {
        self.mmu
            .read_bytes(self.mem, self.space, VirtAddr::new(addr), out)
            .map_err(map_fault)
    }

    fn commit(&mut self, addr: u64, len: u64) -> Result<(), HeapError> {
        self.last_write = None;
        let pages = len.div_ceil(PAGE_SIZE as u64);
        self.mmu
            .write_run(
                self.mem,
                self.space,
                VirtAddr::new(addr),
                pages,
                &1u64.to_le_bytes(),
            )
            .map_err(map_fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_paging::{Region, RegionKind};

    #[test]
    fn interpreter_writes_dirty_guest_pages() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        space.add_region(Region {
            start: VirtAddr::new(0x10_0000),
            pages: 1024,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        {
            let mut ucm = UcMemory::new(&mut mmu, &mut mem, &mut space);
            ucm.write(0x10_0000, b"interpreter state").unwrap();
            let mut buf = [0u8; 17];
            ucm.read(0x10_0000, &mut buf).unwrap();
            assert_eq!(&buf, b"interpreter state");
        }
        assert_eq!(space.dirty_count(), 1);
    }

    #[test]
    fn faults_surface_as_backend_errors() {
        let mut mem = PhysMemory::with_mib(64);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).unwrap();
        let mut ucm = UcMemory::new(&mut mmu, &mut mem, &mut space);
        assert_eq!(ucm.write(0xDEAD_0000, b"x"), Err(HeapError::BackendFault));
    }
}

/// Property test (driven by `seuss-check`): a borrow's heap writes end
/// exactly as the same writes through [`Mmu::write_bytes`] one by one.
///
/// Each case builds a heap shared with a snapshot: some pages were
/// written before it (a write COW-breaks them), some after it (already
/// private), the rest never (demand-zero). One replica sends a random
/// sequence of writes (0–16 bytes, some empty, some crossing a page or
/// running past the heap) and commits through one [`UcMemory`]; its twin
/// sends each through the MMU. Both must give the same results, page
/// frames, page bytes, dirty set, private-page count, frame-pool stats
/// and `OpStats`, except `levels_walked`, which the borrow may only lower.
#[cfg(test)]
mod props {
    use super::*;
    use seuss_check::{check_with, ensure, ensure_eq, gen::Gen, Config};
    use seuss_paging::{OpStats, Region, RegionKind};

    const BASE: u64 = 0x10_0000;
    /// Heap pages; page `HEAP_PAGES` lies past every region.
    const HEAP_PAGES: u64 = 8;

    fn va_of(page: u64, offset: usize) -> VirtAddr {
        VirtAddr::new(BASE + page * PAGE_SIZE as u64 + offset as u64)
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        /// Writes `len` bytes of `val` at `offset` in page `page`.
        Write {
            page: u64,
            offset: usize,
            len: usize,
            val: u8,
        },
        /// Commits `pages` pages from page `page`.
        Commit { page: u64, pages: u64 },
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Case {
        /// Pages `0..shared` are written before the snapshot.
        shared: u64,
        /// Pages from `private` on are written after it.
        private: u64,
        ops: Vec<Op>,
    }

    fn cases() -> impl Gen<Value = Case> {
        let page = || seuss_check::range(0u64, HEAP_PAGES);
        // Offsets near either end of a page, so that writes often land on
        // the page the last one wrote, and often cross into the next.
        let offset = seuss_check::one_of(vec![
            seuss_check::range(0usize, 64).boxed(),
            seuss_check::range(PAGE_SIZE - 16, PAGE_SIZE - 1).boxed(),
        ]);
        // Lengths start at 0: an empty write must not touch its page.
        let write = (
            page(),
            offset,
            seuss_check::range(0usize, 16),
            seuss_check::range(0u8, 255),
        )
            .map(|(page, offset, len, val)| Op::Write {
                page,
                offset,
                len,
                val,
            });
        let commit =
            (page(), seuss_check::range(1u64, 3)).map(|(page, pages)| Op::Commit { page, pages });
        let ops = seuss_check::vecs(
            seuss_check::one_of(vec![write.boxed(), commit.boxed()]),
            1,
            48,
        );
        (page(), page(), ops).map(|(shared, private, ops)| Case {
            shared,
            private,
            ops,
        })
    }

    struct Rig {
        mem: PhysMemory,
        mmu: Mmu,
        space: AddressSpace,
    }

    /// Builds the case's heap; both replicas get the same one.
    fn build(case: &Case) -> Rig {
        let mut mem = PhysMemory::with_mib(16);
        let mut mmu = Mmu::new();
        let mut space = mmu.create_space(&mut mem).expect("space");
        space.add_region(Region {
            start: va_of(0, 0),
            pages: HEAP_PAGES,
            kind: RegionKind::Heap,
            writable: true,
            demand_zero: true,
        });
        for p in 0..case.shared {
            mmu.write_bytes(&mut mem, &mut space, va_of(p, 0), &[p as u8 + 1])
                .expect("shared page");
        }
        mmu.shallow_clone(&mut mem, space.root()).expect("snapshot");
        space.clear_dirty();
        space.reset_private_pages();
        for p in case.private..HEAP_PAGES {
            mmu.write_bytes(&mut mem, &mut space, va_of(p, 8), &[0xAA])
                .expect("private page");
        }
        Rig { mem, mmu, space }
    }

    /// Per-page frames and bytes, dirty set, private pages, pool stats
    /// and op stats without `levels_walked`.
    type State = (
        Vec<Option<(FrameId, Vec<u8>)>>,
        Vec<u64>,
        u64,
        seuss_mem::MemStats,
        OpStats,
    );

    fn state(rig: &Rig) -> State {
        let pages = (0..HEAP_PAGES)
            .map(|p| {
                let entry = rig.mmu.translate(rig.space.root(), va_of(p, 0))?;
                let mut bytes = vec![0; PAGE_SIZE];
                rig.mem.read(entry.frame(), 0, &mut bytes);
                Some((entry.frame(), bytes))
            })
            .collect();
        (
            pages,
            rig.space.dirty_pages().collect(),
            rig.space.private_pages(),
            rig.mem.stats(),
            OpStats {
                levels_walked: 0,
                ..rig.mmu.stats
            },
        )
    }

    #[test]
    fn cached_heap_writes_equal_mmu_writes() {
        check_with(
            Config::with_cases(256),
            "unikernel_write_cache_equals_mmu",
            &cases(),
            |case| {
                let mut cached = build(case);
                let walked = cached.mmu.stats.levels_walked;
                let got: Vec<Result<(), HeapError>> = {
                    let mut ucm =
                        UcMemory::new(&mut cached.mmu, &mut cached.mem, &mut cached.space);
                    case.ops
                        .iter()
                        .map(|op| match *op {
                            Op::Write {
                                page,
                                offset,
                                len,
                                val,
                            } => ucm.write(va_of(page, offset).as_u64(), &vec![val; len]),
                            Op::Commit { page, pages } => {
                                ucm.commit(va_of(page, 0).as_u64(), pages * PAGE_SIZE as u64)
                            }
                        })
                        .collect()
                };
                let cached_walked = cached.mmu.stats.levels_walked - walked;

                let mut twin = build(case);
                let walked = twin.mmu.stats.levels_walked;
                let want: Vec<Result<(), HeapError>> = case
                    .ops
                    .iter()
                    .map(|op| {
                        let (mmu, mem, space) = (&mut twin.mmu, &mut twin.mem, &mut twin.space);
                        match *op {
                            Op::Write {
                                page,
                                offset,
                                len,
                                val,
                            } => mmu.write_bytes(mem, space, va_of(page, offset), &vec![val; len]),
                            Op::Commit { page, pages } => mmu.write_run(
                                mem,
                                space,
                                va_of(page, 0),
                                pages,
                                &1u64.to_le_bytes(),
                            ),
                        }
                        .map_err(map_fault)
                    })
                    .collect();
                let twin_walked = twin.mmu.stats.levels_walked - walked;

                ensure_eq!(got, want, "write results");
                ensure!(
                    cached_walked <= twin_walked,
                    "the borrow walked {cached_walked} levels, the MMU writes {twin_walked}"
                );
                let (a, b) = (state(&cached), state(&twin));
                ensure!(a.0 == b.0, "page frames or bytes differ");
                ensure_eq!(a.1, b.1, "dirty set");
                ensure_eq!(a.2, b.2, "private pages");
                ensure_eq!(a.3, b.3, "memory stats");
                ensure_eq!(a.4, b.4, "op stats");
                Ok(())
            },
        );
    }
}
