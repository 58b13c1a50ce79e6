//! The interpreter heap: bump allocation over a pluggable backing store.
//!
//! Everything the interpreter allocates — interned strings, object backing
//! stores, compile arenas, lazily-initialized runtime subsystems — is
//! committed through a [`HeapBackend`]. The unikernel crate implements the
//! trait over a UC address space (so every allocation dirties guest pages
//! and participates in snapshots/COW); tests and host-side tools use the
//! in-memory [`HostHeap`].

use core::fmt;

/// Errors surfaced by a heap backend or the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The bump region is exhausted.
    OutOfHeap,
    /// The backing store rejected the access (page fault, OOM, …).
    BackendFault,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfHeap => write!(f, "interpreter heap exhausted"),
            HeapError::BackendFault => write!(f, "heap backend fault"),
        }
    }
}

impl std::error::Error for HeapError {}

/// A byte-addressable backing store for the interpreter heap.
///
/// Addresses are absolute within the runtime's heap region; the backend
/// decides what they mean (guest virtual addresses for a UC, plain vector
/// offsets for [`HostHeap`]).
pub trait HeapBackend {
    /// Writes `bytes` at `addr`.
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError>;
    /// Reads `out.len()` bytes from `addr`.
    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError>;

    /// Commits `len` bytes at `addr`: writes the word 1 at `addr` and at
    /// every 4 KiB step after it below `addr + len`, so every page of the
    /// allocation is genuinely written.
    fn commit(&mut self, addr: u64, len: u64) -> Result<(), HeapError> {
        let mut off = 0u64;
        while off < len {
            self.write(addr + off, &1u64.to_le_bytes())?;
            off += 4096;
        }
        Ok(())
    }
}

/// Simple growable in-memory backend for tests and host tools.
pub struct HostHeap {
    base: u64,
    bytes: Vec<u8>,
}

impl HostHeap {
    /// Creates a backend with the given capacity, based at address 0x1000.
    pub fn with_capacity(capacity: usize) -> Self {
        HostHeap {
            base: 0x1000,
            bytes: vec![0; capacity],
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }
}

impl HeapBackend for HostHeap {
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), HeapError> {
        let off = addr.checked_sub(self.base).ok_or(HeapError::BackendFault)? as usize;
        if off + bytes.len() > self.bytes.len() {
            return Err(HeapError::BackendFault);
        }
        self.bytes[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn read(&mut self, addr: u64, out: &mut [u8]) -> Result<(), HeapError> {
        let off = addr.checked_sub(self.base).ok_or(HeapError::BackendFault)? as usize;
        if off + out.len() > self.bytes.len() {
            return Err(HeapError::BackendFault);
        }
        out.copy_from_slice(&self.bytes[off..off + out.len()]);
        Ok(())
    }
}

/// Bump allocator bookkeeping over a backend-managed region.
#[derive(Clone, Debug)]
pub(crate) struct BumpHeap {
    brk: u64,
    limit: u64,
}

impl BumpHeap {
    /// Creates an allocator over `[base, base + size)`.
    pub(crate) fn new(base: u64, size: u64) -> Self {
        BumpHeap {
            brk: base,
            limit: base + size,
        }
    }

    /// Allocates `n` bytes, 8-byte aligned. No free — the region lives and
    /// dies with its UC, like a runtime's semispace before first GC.
    pub(crate) fn alloc(&mut self, n: u64) -> Result<u64, HeapError> {
        let addr = (self.brk + 7) & !7;
        let end = addr.checked_add(n).ok_or(HeapError::OutOfHeap)?;
        if end > self.limit {
            return Err(HeapError::OutOfHeap);
        }
        self.brk = end;
        Ok(addr)
    }

    /// Allocates and writes `bytes`, returning the address.
    pub(crate) fn alloc_bytes(
        &mut self,
        backend: &mut dyn HeapBackend,
        bytes: &[u8],
    ) -> Result<u64, HeapError> {
        let addr = self.alloc(bytes.len() as u64)?;
        backend.write(addr, bytes)?;
        Ok(addr)
    }

    /// Allocates `n` bytes and *commits* them: touches one word per 4 KiB
    /// page so every page of the allocation is genuinely written (the
    /// runtime behaviour that makes lazy-init allocations dirty pages).
    pub(crate) fn alloc_committed(
        &mut self,
        backend: &mut dyn HeapBackend,
        n: u64,
    ) -> Result<u64, HeapError> {
        let addr = self.alloc(n)?;
        backend.commit(addr, n)?;
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_aligned() {
        let mut h = BumpHeap::new(0x1000, 4096);
        let a = h.alloc(3).unwrap();
        let b = h.alloc(8).unwrap();
        assert_eq!(a, 0x1000);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
    }

    #[test]
    fn bump_exhausts() {
        let mut h = BumpHeap::new(0, 16);
        h.alloc(8).unwrap();
        h.alloc(8).unwrap();
        assert_eq!(h.alloc(1), Err(HeapError::OutOfHeap));
    }

    #[test]
    fn host_heap_round_trip() {
        let mut backend = HostHeap::with_capacity(1024);
        let mut h = BumpHeap::new(backend.base, 1024);
        let addr = h.alloc_bytes(&mut backend, b"hello").unwrap();
        let mut buf = [0u8; 5];
        backend.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn host_heap_bounds_checked() {
        let mut backend = HostHeap::with_capacity(16);
        assert_eq!(
            backend.write(0x1010, &[0u8; 8]),
            Err(HeapError::BackendFault)
        );
        assert_eq!(backend.write(0, &[0]), Err(HeapError::BackendFault));
    }

    #[test]
    fn alloc_committed_touches_every_page() {
        let mut backend = HostHeap::with_capacity(64 * 1024);
        let mut h = BumpHeap::new(backend.base, 64 * 1024);
        let addr = h.alloc_committed(&mut backend, 3 * 4096 + 1).unwrap();
        // Four pages touched → one word written at the start of each.
        for page in 0..4 {
            let mut word = [0u8; 8];
            backend.read(addr + page * 4096, &mut word).unwrap();
            assert_eq!(u64::from_le_bytes(word), 1, "page {page}");
        }
    }
}
