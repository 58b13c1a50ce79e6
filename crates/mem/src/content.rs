//! Sparse frame content.
//!
//! A simulated node carries tens of millions of frames; most are written
//! only at a word or two (commit touches, slot writes). Materializing a
//! full 4 KiB buffer per frame would cost the host as much memory as the
//! simulated machine has, so content is stored sparsely and promoted to a
//! dense page only when a frame accumulates enough distinct bytes.

use crate::addr::PAGE_SIZE;

/// How many sparse bytes a frame may hold before promotion to dense.
const SPARSE_LIMIT: usize = 128;

/// Byte content of one frame, lazily and sparsely materialized.
#[derive(Clone, Debug, Default)]
pub enum PageContent {
    /// Never written: reads as zeroes, costs nothing.
    #[default]
    Zero,
    /// A few written fragments: `(offset, bytes)`, non-overlapping,
    /// sorted by offset.
    Sparse(Vec<(u16, Vec<u8>)>),
    /// Fully materialized page.
    Dense(Box<[u8; PAGE_SIZE]>),
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
                    *self = PageContent::Sparse(vec![(offset as u16, bytes.to_vec())]);
                }
            }
            PageContent::Sparse(frags) => {
                let total: usize = frags.iter().map(|(_, b)| b.len()).sum();
                if total + bytes.len() > SPARSE_LIMIT {
                    self.promote();
                    self.write(offset, bytes);
                    return;
                }
                // Remove or trim overlapping fragments, then insert.
                let start = offset;
                let end = offset + bytes.len();
                let mut rebuilt: Vec<(u16, Vec<u8>)> = Vec::with_capacity(frags.len() + 1);
                for (fo, fb) in frags.drain(..) {
                    let fs = fo as usize;
                    let fe = fs + fb.len();
                    if fe <= start || fs >= end {
                        rebuilt.push((fo, fb));
                        continue;
                    }
                    // Keep the non-overlapping prefix/suffix.
                    if fs < start {
                        rebuilt.push((fo, fb[..start - fs].to_vec()));
                    }
                    if fe > end {
                        rebuilt.push((end as u16, fb[end - fs..].to_vec()));
                    }
                }
                rebuilt.push((start as u16, bytes.to_vec()));
                rebuilt.sort_by_key(|&(o, _)| o);
                *frags = rebuilt;
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
            PageContent::Sparse(frags) => {
                out.fill(0);
                let start = offset;
                let end = offset + out.len();
                for (fo, fb) in frags {
                    let fs = *fo as usize;
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
        if let PageContent::Sparse(frags) = self {
            for (fo, fb) in frags.iter() {
                page[*fo as usize..*fo as usize + fb.len()].copy_from_slice(fb);
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
            PageContent::Sparse(frags) => {
                // Hash as if the page were dense: zero bytes between
                // fragments must contribute exactly like Dense's zeroes.
                let mut h = OFFSET;
                let mut pos = 0usize;
                let hash_zeroes = |h: &mut u64, n: usize| {
                    for _ in 0..n {
                        *h = h.wrapping_mul(PRIME);
                    }
                };
                for (fo, fb) in frags {
                    let fs = *fo as usize;
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
