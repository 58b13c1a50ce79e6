//! Host-allocation checks for the frame pool: simulated memory costs the
//! host only the content it holds.
//!
//! Method: a counting global allocator tallies allocations (and
//! reallocations) per thread, and each check counts around one pool
//! call after a warm-up that leaves the free lists and the pool's
//! arrays with room to spare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use seuss_mem::{FrameKind, PageContent, PhysMemory};

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

/// A pool whose frame and content free lists each hold spare slots:
/// eight frames were allocated, written and freed.
fn warm_pool() -> PhysMemory {
    let mut mem = PhysMemory::with_mib(1);
    let frames = mem.alloc_many(FrameKind::Data, 8).expect("alloc");
    for &f in &frames {
        mem.write(f, 0, &[1; 8]);
    }
    for f in frames {
        mem.dec_ref(f);
    }
    mem
}

#[test]
fn cloning_a_zero_frame_allocates_nothing() {
    let mut mem = warm_pool();
    let src = mem.alloc(FrameKind::Data).expect("alloc");
    let mut dst = None;
    let n = allocations(|| dst = Some(mem.clone_frame(src).expect("clone")));
    assert_eq!(
        n, 0,
        "a COW break of a never-written frame must not touch the heap"
    );
    let mut buf = [0xAA; 16];
    mem.read(dst.expect("cloned"), 0, &mut buf);
    assert_eq!(buf, [0; 16]);
}

#[test]
fn cloning_a_written_frame_allocates_nothing() {
    let mut mem = warm_pool();
    let src = mem.alloc(FrameKind::Data).expect("alloc");
    mem.write(src, 0, &[7; 256]); // dense
    let mut dst = None;
    let n = allocations(|| dst = Some(mem.clone_frame(src).expect("clone")));
    assert_eq!(
        n, 0,
        "a COW break must share the source's content, not copy it"
    );
    let mut buf = [0; 256];
    mem.read(dst.expect("cloned"), 0, &mut buf);
    assert_eq!(buf, [7; 256]);
}

#[test]
fn first_word_written_to_a_zero_page_allocates_nothing() {
    let mut mem = warm_pool();
    let f = mem.alloc(FrameKind::Data).expect("alloc");
    let n = allocations(|| mem.write(f, 64, &0xDEAD_BEEF_u64.to_le_bytes()));
    assert_eq!(n, 0, "a page's first word must stay inline");
    let mut buf = [0; 8];
    mem.read(f, 64, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 0xDEAD_BEEF);
}

#[test]
fn a_second_disjoint_write_allocates_once() {
    let mut mem = warm_pool();
    let f = mem.alloc(FrameKind::Data).expect("alloc");
    mem.write(f, 64, &1u64.to_le_bytes());
    let n = allocations(|| mem.write(f, 8, b"second"));
    assert_eq!(n, 1, "leaving the inline word must cost one buffer");
    let mut buf = [0; 64 + 8];
    mem.read(f, 0, &mut buf);
    assert_eq!(&buf[8..14], b"second");
    assert_eq!(
        u64::from_le_bytes(buf[64..].try_into().expect("8 bytes")),
        1
    );
}

#[test]
fn page_content_stays_three_words() {
    assert_eq!(std::mem::size_of::<PageContent>(), 24);
}
