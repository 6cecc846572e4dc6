//! Forged file headers are errors whose allocation is bounded by the
//! input: a 20-byte MTKT, MTKM, MTKS or MTTB file whose mode count is
//! `u32::MAX` must return `Err` without first sizing a vector by that
//! count (a 32 GiB request that aborts the process, which
//! `catch_unwind` cannot stop). The tile store is also checked with a
//! forged tile count.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::ooc::TileStore;
use mttkrp_repro::workloads::{read_model_from, read_sparse_from, read_tensor_from};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes a reader may allocate beyond its input: the boxed error
/// message, plus the 8 KiB `BufReader` of the path-based tile store.
const ALLOWANCE: u64 = 16 << 10;

const MAX: u64 = u32::MAX as u64;

/// `magic` then `(value, byte width)` little-endian words, zero-padded
/// to 20 bytes.
fn forged(magic: &[u8; 4], words: &[(u64, usize)]) -> Vec<u8> {
    let mut b = magic.to_vec();
    for &(w, width) in words {
        b.extend_from_slice(&w.to_le_bytes()[..width]);
    }
    b.resize(b.len().max(20), 0);
    b
}

/// `read` must report an error, allocating at most the input plus
/// [`ALLOWANCE`].
fn assert_bounded_err(what: &str, len: usize, read: impl FnOnce() -> bool) {
    let mut failed = false;
    let (_, bytes) = counted(|| failed = read());
    assert!(failed, "{what}: a forged header was accepted");
    assert!(
        bytes <= len as u64 + ALLOWANCE,
        "{what}: allocated {bytes} bytes for a {len}-byte input"
    );
}

#[test]
fn readers_reject_forged_mode_counts_with_bounded_allocation() {
    type Rejects = fn(&[u8]) -> bool;
    let cases: [(&str, Vec<u8>, Rejects); 5] = [
        ("MTKT v1", forged(b"MTKT", &[(1, 4), (MAX, 4)]), |b| {
            read_tensor_from::<f64>(&mut { b }, b.len() as u64).is_err()
        }),
        (
            "MTKT v2",
            forged(b"MTKT", &[(2, 4), (8, 4), (MAX, 4)]),
            |b| read_tensor_from::<f64>(&mut { b }, b.len() as u64).is_err(),
        ),
        (
            "MTKT f32",
            forged(b"MTKT", &[(2, 4), (4, 4), (MAX, 4)]),
            |b| read_tensor_from::<f32>(&mut { b }, b.len() as u64).is_err(),
        ),
        ("MTKM", forged(b"MTKM", &[(1, 4), (MAX, 4), (1, 4)]), |b| {
            read_model_from(&mut { b }, b.len() as u64).is_err()
        }),
        ("MTKS", forged(b"MTKS", &[(1, 4), (MAX, 4), (1, 8)]), |b| {
            read_sparse_from(&mut { b }, b.len() as u64).is_err()
        }),
    ];
    for (what, bytes, rejects) in cases {
        assert_eq!(bytes.len(), 20, "{what}");
        assert_bounded_err(what, bytes.len(), || rejects(&bytes));
    }
}

#[test]
fn tile_store_rejects_forged_mode_or_tile_count_with_bounded_allocation() {
    let dir = std::env::temp_dir().join(format!("forged_headers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d = 1u64 << 20;
    let stores = [
        // u32::MAX modes in a 20-byte file.
        ("modes.mttb", forged(b"MTTB", &[(1, 4), (MAX, 4)])),
        // Two 2^20 modes in unit tiles: a header promising 2^40 tile
        // offsets that stops after the geometry.
        (
            "tiles.mttb",
            forged(b"MTTB", &[(1, 4), (2, 4), (d, 8), (d, 8), (1, 8), (1, 8)]),
        ),
    ];
    for (name, bytes) in stores {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        assert_bounded_err(name, bytes.len(), || TileStore::open(&path).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}
