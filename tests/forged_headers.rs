//! Forged file headers are errors whose allocation is bounded by the
//! input: a 20-byte MTKT, MTKM, MTKS or MTTB file whose mode count is
//! `u32::MAX` must return `Err` without first sizing a vector by that
//! count (a 32 GiB request that aborts the process, which
//! `catch_unwind` cannot stop). The tile store is also checked with a
//! forged tile count.
//!
//! Every reader is also fuzzed by one seeded loop of truncations, bit
//! flips and forged header words: over a valid MTKS file whose first
//! mode has 2^60 indices (loaded, then compressed into CSF trees), over
//! small valid MTKT v1 (`f64`), MTKT v2 (`f32`) and MTKM files, over a
//! small valid MTTB tile store (each mutant written to a file and
//! opened), and over the two text parsers, a tuning profile and a
//! daemon submit line (a mutation that is not UTF-8 counts as an
//! error). No case may panic, and each stays within the same allocation
//! bound.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::blas::KernelTier;
use mttkrp_repro::ooc::{TileStore, TiledLayout};
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::serve::JobRequest;
use mttkrp_repro::sparse::{CooTensor, CsfTensor};
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::tune::{TierTuning, TuningProfile};
use mttkrp_repro::workloads::io::{
    model_to_bytes, sparse_from_bytes, sparse_to_bytes, tensor_to_bytes,
};
use mttkrp_repro::workloads::{read_model_from, read_sparse_from, read_tensor_from, StoredModel};

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

/// Header values the mutation loop forges, besides random words: the
/// small counts, the 2^32 and 2^60 boundaries and both all-ones widths.
const FORGED_VALUES: [u64; 8] = [0, 1, 2, 3, 1 << 32, 1 << 60, u32::MAX as u64, u64::MAX];

/// Mutations per file format.
const CASES: usize = 3000;

/// Feed `CASES` seeded mutations of the valid file `valid` to `load`,
/// which parses its input and returns the bytes it allocated: in turn a
/// truncation, 1–4 bit flips, and one forged header word (`words` lists
/// them as `(byte offset, width)`). No case may panic, and each must
/// allocate at most its input plus [`ALLOWANCE`].
fn mutation_loop(
    what: &str,
    valid: &[u8],
    words: &[(usize, usize)],
    seed: u64,
    load: impl Fn(&[u8]) -> u64,
) {
    let mut rng = Rng64::seed_from_u64(seed);
    for case in 0..CASES {
        let mut bytes = valid.to_vec();
        let mutation = match case % 3 {
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
                    FORGED_VALUES[rng.usize_below(FORGED_VALUES.len())]
                } else {
                    rng.next_u64()
                };
                bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                format!("header word at {at} forged to {v:#x}")
            }
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| load(&bytes)));
        let alloc = run.unwrap_or_else(|_| panic!("{what} case {case} ({mutation}) panicked"));
        assert!(
            alloc <= bytes.len() as u64 + ALLOWANCE,
            "{what} case {case} ({mutation}): allocated {alloc} bytes for a {}-byte input",
            bytes.len()
        );
    }
}

#[test]
fn mutated_sparse_files_never_panic_and_allocate_within_their_input() {
    // Header words: version and mode count (u32), nnz and both dims
    // (u64), by byte offset.
    let words = [(4, 4), (8, 4), (12, 8), (20, 8), (28, 8)];
    mutation_loop("MTKS", &huge_dims_mtks(), &words, 0x3715_F022, |b| {
        load_sparse_counted(b).1
    });
}

/// A `3 × 4 × 5` tensor of distinct entries.
fn small_tensor<S: mttkrp_repro::blas::Scalar>() -> DenseTensor<S> {
    let mut v = 0.0;
    DenseTensor::from_fn(&[3, 4, 5], || {
        v += 0.25;
        S::from_f64(v)
    })
}

/// The bytes `read` allocates on this thread; its result is dropped.
fn alloc_of<T>(read: impl FnOnce() -> T) -> u64 {
    counted(|| drop(read())).1
}

#[test]
fn mutated_dense_tensor_files_never_panic_and_allocate_within_their_input() {
    // MTKT v1 (f64): version and mode count (u32), then three u64 dims.
    let v1 = tensor_to_bytes(&small_tensor::<f64>());
    let words = [(4, 4), (8, 4), (12, 8), (20, 8), (28, 8)];
    mutation_loop("MTKT v1", &v1, &words, 0x7E45_0001, |b| {
        alloc_of(|| read_tensor_from::<f64>(&mut { b }, b.len() as u64))
    });
    // MTKT v2 (f32): version, dtype tag and mode count (u32), three dims.
    let v2 = tensor_to_bytes(&small_tensor::<f32>());
    let words = [(4, 4), (8, 4), (12, 4), (16, 8), (24, 8), (32, 8)];
    mutation_loop("MTKT v2", &v2, &words, 0x7E45_0002, |b| {
        alloc_of(|| read_tensor_from::<f32>(&mut { b }, b.len() as u64))
    });
}

#[test]
fn mutated_model_files_never_panic_and_allocate_within_their_input() {
    let dims = vec![3, 4, 5];
    let rank = 2;
    let model = StoredModel {
        factors: dims.iter().map(|&d| vec![0.5; d * rank]).collect(),
        dims,
        rank,
        lambda: vec![1.0, 2.0],
    };
    // MTKM: version, mode count and rank (u32), then three u64 dims.
    let words = [(4, 4), (8, 4), (12, 4), (16, 8), (24, 8), (32, 8)];
    mutation_loop("MTKM", &model_to_bytes(&model), &words, 0x7E45_0003, |b| {
        alloc_of(|| read_model_from(&mut { b }, b.len() as u64))
    });
}

#[test]
fn mutated_tile_stores_never_panic_and_allocate_within_their_input() {
    let dir = std::env::temp_dir().join(format!("forged_tile_stores_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A 3 × 4 × 5 tensor in a 2 × 1 × 2 grid of ragged tiles.
    let layout = TiledLayout::new(&[3, 4, 5], &[2, 4, 3]);
    let valid_path = dir.join("valid.mttb");
    TileStore::write_dense(&valid_path, &layout, &small_tensor::<f64>()).unwrap();
    let valid = std::fs::read(&valid_path).unwrap();
    // Version and mode count (u32), then the three dims, the three tile
    // extents, the tile count and the four tile offsets (u64).
    let mut words = vec![(4, 4), (8, 4)];
    words.extend((0..11).map(|w| (12 + 8 * w, 8)));
    let mutant = dir.join("mutant.mttb");
    mutation_loop("MTTB", &valid, &words, 0x7E45_0006, |b| {
        std::fs::write(&mutant, b).unwrap();
        alloc_of(|| TileStore::open(&mutant))
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// `(byte offset, 4)` just after each of `keys` in `text`: the values
/// the text mutation loops forge.
fn value_words(text: &str, keys: &[&str]) -> Vec<(usize, usize)> {
    let at = |key: &str| text.find(key).expect("key in the valid text") + key.len();
    keys.iter().map(|&key| (at(key), 4)).collect()
}

#[test]
fn mutated_tuning_profiles_never_panic_and_allocate_within_their_input() {
    let tier = |tier, gemm_flops| TierTuning {
        tier,
        gemm_flops,
        gemm_eff0: 0.9,
        hadamard_cost: 7.5e-10,
    };
    let profile = TuningProfile {
        cores: 4,
        threads: 4,
        bw1: 2.65e10,
        bw_theta: 11.4,
        reduce_scale: 0.74,
        mkl_penalty: 0.0,
        calib_err: Some(2.8e-2),
        tiers: vec![
            tier(KernelTier::Scalar, 8.9e9),
            tier(KernelTier::Avx512, 3e10),
        ],
    };
    let text = profile.to_text();
    assert_eq!(TuningProfile::from_text(&text).unwrap(), profile);
    let keys = ["v", "cores = ", "bw1 = ", "[tier ", "gemm_eff0 = "];
    let words = value_words(&text, &keys);
    mutation_loop("profile", text.as_bytes(), &words, 0x7E45_0004, |b| {
        alloc_of(|| std::str::from_utf8(b).map(TuningProfile::from_text))
    });
}

#[test]
fn mutated_submit_lines_never_panic_and_allocate_within_their_input() {
    let line = concat!(
        r#"{"v":"mttkrp-jobs-v1","op":"submit","id":"job-1","spec":{"path":"/data/x.mtkt","#,
        r#""format":"dense","rank":8,"max_iters":25,"tol":1e-6,"threads":2,"seed":7}}"#
    );
    assert!(JobRequest::parse(line).is_ok());
    let keys = [r#""v":"#, r#""rank":"#, r#""max_iters":"#, r#""threads":"#];
    let words = value_words(line, &keys);
    mutation_loop("submit line", line.as_bytes(), &words, 0x7E45_0005, |b| {
        alloc_of(|| std::str::from_utf8(b).map(JobRequest::parse))
    });
}
