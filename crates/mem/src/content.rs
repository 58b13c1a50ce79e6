//! Sparse frame content.
//!
//! A simulated node carries tens of millions of frames; most are written
//! only at a word or two (commit touches, slot writes). Materializing a
//! full 4 KiB buffer per frame would cost the host as much memory as the
//! simulated machine has, so content is stored sparsely and promoted to a
//! dense page only when a frame accumulates enough distinct bytes.
//!
//! A page written once, with at most eight bytes (a commit touch, a
//! slot word), keeps that write inline and costs no heap block. A later
//! write inside those bytes changes them in place; any other write turns
//! the page into a sparse one: one byte buffer of records, each a
//! little-endian `u16` offset, a little-endian `u16` length and that
//! many bytes. The records are sorted by offset and never overlap, so
//! the buffer's payload is exactly the set of bytes ever written. A
//! rewrite of bytes already held, or a write past the last record,
//! changes the buffer in place.

use crate::addr::PAGE_SIZE;

/// How many sparse bytes a frame may hold before promotion to dense.
const SPARSE_LIMIT: usize = 128;

/// Bytes of a sparse record's header: `u16` offset plus `u16` length.
const HEADER: usize = 4;

/// The most bytes a page keeps inline from its only write.
const WORD: usize = 8;

/// Byte content of one frame, lazily and sparsely materialized.
#[derive(Clone, Debug, Default)]
pub enum PageContent {
    /// Never written: reads as zeroes, costs nothing.
    #[default]
    Zero,
    /// Written once, at most 8 bytes: `bytes[..len]` at `offset`,
    /// held inline. Only [`PageContent::write`] builds one.
    Word {
        /// Page offset of the first byte.
        offset: u16,
        /// How many of `bytes` were written.
        len: u8,
        /// The written bytes, then zero padding.
        bytes: [u8; WORD],
    },
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
            PageContent::Zero if bytes.len() <= WORD => {
                let mut word = [0; WORD];
                word[..bytes.len()].copy_from_slice(bytes);
                *self = PageContent::Word {
                    offset: offset as u16,
                    len: bytes.len() as u8,
                    bytes: word,
                };
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
            PageContent::Word {
                offset: at,
                len,
                bytes: word,
            } => {
                let (start, end) = (*at as usize, *at as usize + *len as usize);
                let held = &word[..*len as usize];
                if start <= offset && offset + bytes.len() <= end {
                    word[offset - start..offset - start + bytes.len()].copy_from_slice(bytes);
                } else if held.len() + bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                } else {
                    *self = PageContent::Sparse(merge_word(start, held, offset, bytes));
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
            PageContent::Word { .. } | PageContent::Sparse(_) => {
                out.fill(0);
                let start = offset;
                let end = offset + out.len();
                for (fs, fb) in self.fragments() {
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

    /// The written fragments of a `Word` or `Sparse` page as
    /// `(offset, bytes)`, in offset order; none for the other forms.
    fn fragments(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let (word, buf) = match self {
            PageContent::Word { offset, len, bytes } => {
                (Some((*offset as usize, &bytes[..*len as usize])), &[][..])
            }
            PageContent::Sparse(buf) => (None, &buf[..]),
            PageContent::Zero | PageContent::Dense(_) => (None, &[][..]),
        };
        word.into_iter().chain(records(buf))
    }

    fn promote(&mut self) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        for (fs, fb) in self.fragments() {
            page[fs..fs + fb.len()].copy_from_slice(fb);
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
            PageContent::Word { .. } | PageContent::Sparse(_) => {
                // Hash as if the page were dense: zero bytes between
                // fragments must contribute exactly like Dense's zeroes.
                let mut h = OFFSET;
                let mut pos = 0usize;
                let hash_zeroes = |h: &mut u64, n: usize| {
                    for _ in 0..n {
                        *h = h.wrapping_mul(PRIME);
                    }
                };
                for (fs, fb) in self.fragments() {
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

/// A packed sparse buffer holding the inline word `held` at `at` with
/// `bytes` written over it at `start`: what survives of the word before
/// the write, the write, and what survives after it.
fn merge_word(at: usize, held: &[u8], start: usize, bytes: &[u8]) -> Vec<u8> {
    let (held_end, end) = (at + held.len(), start + bytes.len());
    let mut buf = Vec::with_capacity(3 * HEADER + held.len() + bytes.len());
    if at < start {
        push_record(&mut buf, at, &held[..start.min(held_end) - at]);
    }
    push_record(&mut buf, start, bytes);
    if held_end > end {
        let from = end.max(at);
        push_record(&mut buf, from, &held[from - at..]);
    }
    buf
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
    fn one_short_write_stays_inline() {
        let mut c = PageContent::Zero;
        c.write(64, &0xDEAD_BEEF_u64.to_le_bytes());
        assert!(matches!(
            c,
            PageContent::Word {
                offset: 64,
                len: 8,
                ..
            }
        ));
        // A rewrite inside the held bytes edits them in place.
        c.write(66, &[0xAA]);
        assert!(matches!(c, PageContent::Word { .. }));
        let mut buf = [0u8; 10];
        c.read(63, &mut buf);
        assert_eq!(buf, [0, 0xEF, 0xBE, 0xAA, 0xDE, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn a_write_outside_the_word_goes_sparse() {
        for (start, bytes) in [(0usize, &b"ab"[..]), (100, b"xyz"), (14, b"0123456789")] {
            let mut c = PageContent::Zero;
            c.write(10, b"hijklmno");
            c.write(start, bytes);
            assert!(matches!(c, PageContent::Sparse(_)), "write at {start}");
            let mut want = [0u8; 128];
            want[10..18].copy_from_slice(b"hijklmno");
            want[start..start + bytes.len()].copy_from_slice(bytes);
            let mut got = [0u8; 128];
            c.read(0, &mut got);
            assert_eq!(got, want, "write at {start}");
        }
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
        let mut word = PageContent::Zero;
        word.write(100, b"hello");
        assert!(matches!(word, PageContent::Word { .. }));
        let mut sparse = word.clone();
        sparse.write(4000, b"tail");
        let mut dense = PageContent::Zero;
        dense.write(0, &[0u8; 300]); // force dense
        dense.write(100, b"hello");
        dense.write(4000, b"tail");
        assert!(matches!(dense, PageContent::Dense(_)));
        assert_eq!(sparse.digest(), dense.digest());
        let mut dense_word = PageContent::Zero;
        dense_word.write(0, &[0u8; 300]);
        dense_word.write(100, b"hello");
        assert_eq!(word.digest(), dense_word.digest());
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
