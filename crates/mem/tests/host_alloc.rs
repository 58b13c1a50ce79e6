//! Host-allocation checks for the frame pool: a COW break costs the host
//! no heap block.
//!
//! Method: a counting global allocator tallies allocations (and
//! reallocations) per thread, and each check counts around one pool
//! call after a warm-up that leaves the free list and the pool's
//! arrays with room to spare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seuss_mem::{FrameKind, PhysMemory};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Host allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A pool whose free list holds spare slots: eight frames were
/// allocated and freed.
fn warm_pool() -> PhysMemory {
    let mut mem = PhysMemory::with_mib(1);
    let frames = mem.alloc_many(FrameKind::Data, 8).expect("alloc");
    for f in frames {
        mem.dec_ref(f);
    }
    mem
}

#[test]
fn cloning_a_frame_allocates_nothing() {
    let mut mem = warm_pool();
    let src = mem.alloc(FrameKind::Data).expect("alloc");
    let mut dst = None;
    let n = allocations(|| dst = Some(mem.clone_frame(src).expect("clone")));
    assert_eq!(n, 0, "a COW break must not touch the heap");
    assert_eq!(mem.refcount(dst.expect("cloned")), 1);
}
