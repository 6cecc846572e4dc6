//! Forged file headers are errors whose allocation is bounded by the
//! input: a 20-byte MTKT, MTKM, MTKS or MTTB file whose mode count is
//! `u32::MAX` must return `Err` without first sizing a vector by that
//! count (a 32 GiB request that aborts the process, which
//! `catch_unwind` cannot stop). The tile store is also checked with a
//! forged tile count.
//!
//! The MTKS reader is also fuzzed: a seeded loop of truncations, bit
//! flips and forged header words over a valid file whose first mode
//! has 2^60 indices must never panic, and loading it, then building
//! its CSF trees, stays within the same allocation bound.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::ooc::TileStore;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::sparse::{CooTensor, CsfTensor};
use mttkrp_repro::workloads::io::{sparse_from_bytes, sparse_to_bytes};
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

/// A valid two-entry MTKS file of shape `[2^60, 4]`: the CSF build
/// runs before any factor-size check in the daemon, so its memory must
/// not follow the dims.
fn huge_dims_mtks() -> Vec<u8> {
    let d = 1usize << 60;
    let coo = CooTensor::from_entries(&[d, 4], vec![0, 0, d - 1, 3], vec![1.0, 2.0]);
    sparse_to_bytes(&coo)
}

/// Parse `bytes` as MTKS and, if that succeeds, build its CSF trees.
/// Returns whether it loaded and the bytes this thread allocated.
fn load_sparse_counted(bytes: &[u8]) -> (bool, u64) {
    let mut loaded = false;
    let (_, alloc) = counted(|| {
        if let Ok(coo) = sparse_from_bytes(bytes) {
            loaded = CsfTensor::from_coo(&coo).nnz() == coo.nnz();
        }
    });
    (loaded, alloc)
}

#[test]
fn huge_dims_sparse_file_loads_and_compresses_within_its_input() {
    let bytes = huge_dims_mtks();
    let (loaded, alloc) = load_sparse_counted(&bytes);
    assert!(loaded, "a valid [2^60, 4] file was refused");
    assert!(
        alloc <= bytes.len() as u64 + ALLOWANCE,
        "allocated {alloc} bytes for a {}-byte input",
        bytes.len()
    );
}

#[test]
fn mutated_sparse_files_never_panic_and_allocate_within_their_input() {
    let valid = huge_dims_mtks();
    // Header words: version and mode count (u32), nnz and both dims
    // (u64), by byte offset.
    let words: [(usize, usize); 5] = [(4, 4), (8, 4), (12, 8), (20, 8), (28, 8)];
    let forged_values = [0, 1, 2, 3, 1 << 32, 1 << 60, u32::MAX as u64, u64::MAX];
    let mut rng = Rng64::seed_from_u64(0x3715_F022);
    for case in 0..3000 {
        let mut bytes = valid.clone();
        let what = match case % 3 {
            0 => {
                let len = rng.usize_below(valid.len());
                bytes.truncate(len);
                format!("truncated to {len} bytes")
            }
            1 => {
                let flips = rng.usize_in(1, 4);
                for _ in 0..flips {
                    let bit = rng.usize_below(8 * bytes.len());
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                format!("{flips} bit flips")
            }
            _ => {
                let (at, width) = words[rng.usize_below(words.len())];
                let v = if rng.usize_below(2) == 0 {
                    forged_values[rng.usize_below(forged_values.len())]
                } else {
                    rng.next_u64()
                };
                bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                format!("header word at {at} forged to {v:#x}")
            }
        };
        let run = std::panic::catch_unwind(|| load_sparse_counted(&bytes));
        let (_, alloc) = run.unwrap_or_else(|_| panic!("case {case} ({what}) panicked"));
        assert!(
            alloc <= bytes.len() as u64 + ALLOWANCE,
            "case {case} ({what}): allocated {alloc} bytes for a {}-byte input",
            bytes.len()
        );
    }
}
