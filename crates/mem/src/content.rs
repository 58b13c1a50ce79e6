//! Sparse frame content.
//!
//! A simulated node carries tens of millions of frames; most are written
//! only at a word or two (commit touches, slot writes). Materializing a
//! full 4 KiB buffer per frame would cost the host as much memory as the
//! simulated machine has, so content is stored sparsely and promoted to a
//! dense page only when a frame accumulates enough distinct bytes.
//!
//! A sparse page is one byte buffer of records, each a little-endian
//! `u16` offset, a little-endian `u16` length and that many bytes. The
//! records are sorted by offset and never overlap, so the buffer's
//! payload is exactly the set of bytes ever written. The first write to
//! a zero page therefore costs one host allocation, and a rewrite of
//! bytes already held, or a write past the last record, changes the
//! buffer in place.

use crate::addr::PAGE_SIZE;

/// How many sparse bytes a frame may hold before promotion to dense.
const SPARSE_LIMIT: usize = 128;

/// Bytes of a sparse record's header: `u16` offset plus `u16` length.
const HEADER: usize = 4;

/// Byte content of one frame, lazily and sparsely materialized.
#[derive(Clone, Debug, Default)]
pub enum PageContent {
    /// Never written: reads as zeroes, costs nothing.
    #[default]
    Zero,
    /// A few written fragments packed into one buffer of
    /// `[offset u16][len u16][bytes]` records, sorted by offset and
    /// non-overlapping. Only [`PageContent::write`] builds one.
    Sparse(Vec<u8>),
    /// Fully materialized page.
    Dense(Box<[u8; PAGE_SIZE]>),
}

/// The `(offset, bytes)` records of a packed sparse buffer, in order.
fn records(buf: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut rest = buf;
    core::iter::from_fn(move || {
        let (head, tail) = rest.split_first_chunk::<HEADER>()?;
        let offset = u16::from_le_bytes([head[0], head[1]]) as usize;
        let len = u16::from_le_bytes([head[2], head[3]]) as usize;
        let (bytes, tail) = tail.split_at(len);
        rest = tail;
        Some((offset, bytes))
    })
}

/// Appends one record to a packed sparse buffer.
fn push_record(buf: &mut Vec<u8>, offset: usize, bytes: &[u8]) {
    buf.extend_from_slice(&(offset as u16).to_le_bytes());
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

impl PageContent {
    /// Writes `bytes` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write crosses the page boundary.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= PAGE_SIZE,
            "write crosses frame boundary"
        );
        if bytes.is_empty() {
            return;
        }
        match self {
            PageContent::Dense(page) => {
                page[offset..offset + bytes.len()].copy_from_slice(bytes);
            }
            PageContent::Zero => {
                if bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                } else {
                    let mut buf = Vec::with_capacity(HEADER + bytes.len());
                    push_record(&mut buf, offset, bytes);
                    *self = PageContent::Sparse(buf);
                }
            }
            PageContent::Sparse(buf) => {
                let total: usize = records(buf).map(|(_, b)| b.len()).sum();
                if total + bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                    return;
                }
                write_sparse(buf, offset, bytes);
            }
        }
    }

    /// Reads into `out` from `offset`; unwritten bytes read as zero.
    ///
    /// # Panics
    ///
    /// Panics if the read crosses the page boundary.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(
            offset + out.len() <= PAGE_SIZE,
            "read crosses frame boundary"
        );
        match self {
            PageContent::Zero => out.fill(0),
            PageContent::Dense(page) => {
                out.copy_from_slice(&page[offset..offset + out.len()]);
            }
            PageContent::Sparse(buf) => {
                out.fill(0);
                let start = offset;
                let end = offset + out.len();
                for (fs, fb) in records(buf) {
                    let fe = fs + fb.len();
                    if fe <= start || fs >= end {
                        continue;
                    }
                    let copy_start = fs.max(start);
                    let copy_end = fe.min(end);
                    out[copy_start - start..copy_end - start]
                        .copy_from_slice(&fb[copy_start - fs..copy_end - fs]);
                }
            }
        }
    }

    fn promote(&mut self) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        if let PageContent::Sparse(buf) = self {
            for (fs, fb) in records(buf) {
                page[fs..fs + fb.len()].copy_from_slice(fb);
            }
        }
        *self = PageContent::Dense(page);
    }

    /// A 64-bit digest of the page's logical bytes (zero-filled holes
    /// included), equal iff the full 4 KiB contents are equal with high
    /// probability.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the logical page, skipping zero runs cheaply.
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        match self {
            PageContent::Zero => OFFSET,
            PageContent::Dense(page) => {
                let mut h = OFFSET;
                for &b in page.iter() {
                    h = (h ^ b as u64).wrapping_mul(PRIME);
                }
                h
            }
            PageContent::Sparse(buf) => {
                // Hash as if the page were dense: zero bytes between
                // fragments must contribute exactly like Dense's zeroes.
                let mut h = OFFSET;
                let mut pos = 0usize;
                let hash_zeroes = |h: &mut u64, n: usize| {
                    for _ in 0..n {
                        *h = h.wrapping_mul(PRIME);
                    }
                };
                for (fs, fb) in records(buf) {
                    hash_zeroes(&mut h, fs - pos);
                    for &b in fb {
                        h = (h ^ b as u64).wrapping_mul(PRIME);
                    }
                    pos = fs + fb.len();
                }
                hash_zeroes(&mut h, PAGE_SIZE - pos);
                h
            }
        }
    }
}

/// Writes `bytes` at `start` into a packed sparse buffer, keeping its
/// records sorted and non-overlapping. A write inside one record or past
/// the last one edits the buffer in place; any other write rebuilds it,
/// trimming the records it overlaps.
fn write_sparse(buf: &mut Vec<u8>, start: usize, bytes: &[u8]) {
    let end = start + bytes.len();
    // The first record ending past `start`: where the write lands.
    let mut pos = 0;
    let first = records(buf).find_map(|(fs, fb)| {
        let at = pos;
        pos += HEADER + fb.len();
        (fs + fb.len() > start).then_some((at, fs, fs + fb.len()))
    });
    match first {
        None => return push_record(buf, start, bytes),
        Some((at, fs, fe)) if fs <= start && end <= fe => {
            let at = at + HEADER + (start - fs);
            buf[at..at + bytes.len()].copy_from_slice(bytes);
            return;
        }
        Some(_) => {}
    }
    let mut out = Vec::with_capacity(buf.len() + 2 * HEADER + bytes.len());
    let mut placed = false;
    for (fs, fb) in records(buf) {
        let fe = fs + fb.len();
        if fe <= start {
            push_record(&mut out, fs, fb);
            continue;
        }
        if fs < start {
            push_record(&mut out, fs, &fb[..start - fs]);
        }
        if !placed {
            push_record(&mut out, start, bytes);
            placed = true;
        }
        if fs >= end {
            push_record(&mut out, fs, fb);
        } else if fe > end {
            push_record(&mut out, end, &fb[end - fs..]);
        }
    }
    *buf = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_reads_zero() {
        let c = PageContent::Zero;
        let mut buf = [0xFFu8; 8];
        c.read(100, &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn sparse_write_read_round_trip() {
        let mut c = PageContent::Zero;
        c.write(10, b"hello");
        c.write(100, b"world");
        let mut buf = [0u8; 5];
        c.read(10, &mut buf);
        assert_eq!(&buf, b"hello");
        c.read(100, &mut buf);
        assert_eq!(&buf, b"world");
        // Gap reads as zero.
        let mut gap = [9u8; 4];
        c.read(20, &mut gap);
        assert_eq!(gap, [0; 4]);
        assert!(matches!(c, PageContent::Sparse(_)));
    }

    #[test]
    fn overlapping_sparse_writes_take_latest() {
        let mut c = PageContent::Zero;
        c.write(10, b"aaaaaaaa");
        c.write(12, b"bb");
        let mut buf = [0u8; 8];
        c.read(10, &mut buf);
        assert_eq!(&buf, b"aabbaaaa");
        // Partial overlap on the left edge.
        c.write(8, b"cccc");
        c.read(8, &mut buf);
        assert_eq!(&buf, b"ccccbbaa");
    }

    #[test]
    fn large_write_promotes_to_dense() {
        let mut c = PageContent::Zero;
        c.write(0, &[7u8; 300]);
        assert!(matches!(c, PageContent::Dense(_)));
        let mut buf = [0u8; 2];
        c.read(299, &mut buf);
        assert_eq!(buf, [7, 0]);
    }

    #[test]
    fn accumulation_promotes() {
        let mut c = PageContent::Zero;
        for i in 0..40u16 {
            c.write(i as usize * 16, &[i as u8; 8]);
        }
        assert!(matches!(c, PageContent::Dense(_)));
        let mut buf = [0u8; 8];
        c.read(16 * 39, &mut buf);
        assert_eq!(buf, [39; 8]);
    }

    #[test]
    fn read_spanning_fragments() {
        let mut c = PageContent::Zero;
        c.write(0, b"ab");
        c.write(4, b"cd");
        let mut buf = [0u8; 6];
        c.read(0, &mut buf);
        assert_eq!(&buf, b"ab\0\0cd");
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn boundary_checked() {
        PageContent::Zero.read(PAGE_SIZE - 1, &mut [0u8; 2]);
    }

    #[test]
    fn digest_sparse_equals_dense() {
        let mut sparse = PageContent::Zero;
        sparse.write(100, b"hello");
        sparse.write(4000, b"tail");
        let mut dense = PageContent::Zero;
        dense.write(0, &[0u8; 300]); // force dense
        dense.write(100, b"hello");
        dense.write(4000, b"tail");
        assert!(matches!(dense, PageContent::Dense(_)));
        assert_eq!(sparse.digest(), dense.digest());
    }

    #[test]
    fn digest_distinguishes_content_and_position() {
        let mut a = PageContent::Zero;
        a.write(0, b"x");
        let mut b = PageContent::Zero;
        b.write(1, b"x");
        let mut c = PageContent::Zero;
        c.write(0, b"y");
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(PageContent::Zero.digest(), PageContent::Zero.digest());
    }
}
