//! Property tests (driven by `seuss-check`): inline and sparse page
//! content must behave exactly like a dense 4 KiB byte array under any
//! write/read sequence.

use seuss_check::{check_with, ensure_eq, gen::Gen, Config};
use seuss_mem::{PageContent, PAGE_SIZE};

#[derive(Clone, Debug, PartialEq)]
struct WriteOp {
    offset: usize,
    bytes: Vec<u8>,
}

/// Offset plus 1–200 payload bytes, clamped so the write stays in-page.
fn write_ops(max_ops: usize) -> impl Gen<Value = Vec<WriteOp>> {
    let op = (
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::vecs(seuss_check::range(0u8, 255), 1, 200),
    )
        .map(|(offset, mut bytes)| {
            bytes.truncate((PAGE_SIZE - offset).max(1));
            WriteOp { offset, bytes }
        });
    seuss_check::vecs(op, 0, max_ops)
}

/// 1–12 byte writes within the first 64 bytes: a page often keeps its
/// first write inline, rewrites it in place, or overlaps it.
fn short_write_ops(max_ops: usize) -> impl Gen<Value = Vec<WriteOp>> {
    let op = (
        seuss_check::range(0usize, 63),
        seuss_check::vecs(seuss_check::range(0u8, 255), 1, 12),
    )
        .map(|(offset, bytes)| WriteOp { offset, bytes });
    seuss_check::vecs(op, 1, max_ops)
}

fn apply(ops: &[WriteOp]) -> (PageContent, Vec<u8>) {
    let mut content = PageContent::Zero;
    let mut reference = vec![0u8; PAGE_SIZE];
    for op in ops {
        content.write(op.offset, &op.bytes);
        reference[op.offset..op.offset + op.bytes.len()].copy_from_slice(&op.bytes);
    }
    (content, reference)
}

#[test]
fn sparse_matches_dense_reference() {
    check_with(
        Config::with_cases(64),
        "content_dense_equiv",
        &write_ops(40),
        |ops| {
            let (content, reference) = apply(ops);
            let mut full = vec![0u8; PAGE_SIZE];
            content.read(0, &mut full);
            ensure_eq!(&full, &reference);
            Ok(())
        },
    );
}

#[test]
fn partial_reads_match_reference() {
    let cases = (
        write_ops(20),
        seuss_check::range(0usize, PAGE_SIZE - 1),
        seuss_check::range(1usize, 300),
    );
    check_with(
        Config::with_cases(64),
        "content_partial_reads",
        &cases,
        |&(ref ops, read_offset, read_len)| {
            let read_len = read_len.min(PAGE_SIZE - read_offset).max(1);
            let (content, reference) = apply(ops);
            let mut out = vec![0u8; read_len];
            content.read(read_offset, &mut out);
            ensure_eq!(&out[..], &reference[read_offset..read_offset + read_len]);
            Ok(())
        },
    );
}

#[test]
fn clone_is_snapshot_isolated() {
    let cases = (write_ops(12), write_ops(12));
    check_with(
        Config::with_cases(64),
        "content_clone_isolated",
        &cases,
        |(ops_a, ops_b)| {
            let mut a = PageContent::Zero;
            for op in ops_a {
                a.write(op.offset, &op.bytes);
            }
            let frozen = a.clone();
            let mut want = vec![0u8; PAGE_SIZE];
            frozen.read(0, &mut want);
            // Mutating the original must not affect the clone (COW
            // semantics rely on this).
            for op in ops_b {
                a.write(op.offset, &op.bytes);
            }
            let mut got = vec![0u8; PAGE_SIZE];
            frozen.read(0, &mut got);
            ensure_eq!(got, want);
            Ok(())
        },
    );
}

#[test]
fn inline_word_reads_and_digests_like_dense() {
    check_with(
        Config::with_cases(128),
        "content_inline_dense_equiv",
        &short_write_ops(6),
        |ops| {
            let (content, reference) = apply(ops);
            let mut dense = PageContent::Zero;
            dense.write(0, &[0u8; PAGE_SIZE]);
            for op in ops {
                dense.write(op.offset, &op.bytes);
            }
            let mut full = vec![0u8; PAGE_SIZE];
            content.read(0, &mut full);
            ensure_eq!(&full, &reference);
            ensure_eq!(content.digest(), dense.digest());
            Ok(())
        },
    );
}
