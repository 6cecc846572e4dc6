//! Binary on-disk formats for tensors and Kruskal models, so CP runs
//! can be scripted from the CLI and results persist across processes.
//!
//! Layout (all little-endian):
//!
//! ```text
//! tensor  file:  b"MTKT" u32(version=1) u32(ndims) u64(dim)*ndims f64(entry)*Π dims
//!          or:   b"MTKT" u32(version=2) u32(dtype: 4=f32|8=f64) u32(ndims)
//!                u64(dim)*ndims dtype(entry)*Π dims
//! kruskal file:  b"MTKM" u32(version=1) u32(ndims) u32(rank)
//!                u64(dim)*ndims f64(lambda)*rank f64(factor rows)*Σ dims·rank
//! sparse  file:  b"MTKS" u32(version=1) u32(ndims) u64(nnz) u64(dim)*ndims
//!                u64(index)*nnz·ndims f64(value)*nnz
//! ```
//!
//! The tensor codec is generic over [`Scalar`]: version 1 is the legacy
//! all-`f64` layout (still what `f64` tensors are written as, so old
//! files and readers keep working bit-for-bit), and version 2 carries
//! an explicit dtype tag — the element size in bytes — immediately
//! after the version word. The typed readers **reject a dtype
//! mismatch from the header alone**: asking `read_tensor::<f32>` to
//! open an `f64` file (or vice versa) fails with `InvalidData` before
//! any payload byte is read, so a precision change can never silently
//! narrow values on the way in. Use [`tensor_dtype`] to sniff a file
//! and dispatch.
//!
//! Sparse entries are written in the COO tensor's canonical order
//! (sorted by linear position, duplicates pre-merged) and re-validated
//! on read — out-of-range indices, header arithmetic overflow, and
//! truncated payloads are all rejected with `InvalidData` rather than
//! deferred to a panic downstream.
//!
//! Tensor entries are the natural linearization; factors are row-major,
//! matching the in-memory conventions everywhere else in the workspace.
//!
//! Payloads move **straight between storage and file**: a vector of
//! scalars (tensor entries, model factors, sparse values) is read with
//! one `read_exact` into the bytes of the `Vec` it ends up in, and
//! written from those bytes, through [`Scalar::read_le`] and
//! [`Scalar::write_le`] — no whole-file `Vec<u8>`, no scratch buffer, no
//! per-element conversion, so a multi-gigabyte tensor costs one tensor
//! of memory and one copy. On Linux a payload of 32 MiB or more is
//! advised for transparent huge pages before the read faults it in.
//! Headers use plain `to_le_bytes`/`from_le_bytes`. Readers are handed
//! the total input length up-front (file metadata, or the slice length
//! for the `*_from_bytes` forms) and reject length mismatches **before**
//! touching the payload, so a header promising petabytes fails
//! immediately instead of after a long partial read.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use mttkrp_blas::{Dtype, Scalar};
use mttkrp_sparse::CooTensor;
use mttkrp_tensor::DenseTensor;

const TENSOR_MAGIC: &[u8; 4] = b"MTKT";
const MODEL_MAGIC: &[u8; 4] = b"MTKM";
const SPARSE_MAGIC: &[u8; 4] = b"MTKS";
const VERSION: u32 = 1;
/// Tensor-file version that carries an explicit dtype tag.
const TENSOR_VERSION_TYPED: u32 = 2;

/// A Kruskal model as stored on disk (mirrors
/// `mttkrp_cpals::KruskalModel` without depending on that crate).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredModel {
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// Decomposition rank.
    pub rank: usize,
    /// Component weights (length `rank`).
    pub lambda: Vec<f64>,
    /// Row-major `I_n × rank` factors.
    pub factors: Vec<Vec<f64>>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---- streaming primitives --------------------------------------------------

/// Index words per conversion chunk on the sparse index paths (8 KiB
/// of scratch; indices are `usize` in memory and `u64` on disk, and are
/// bounds-checked as they arrive).
const CHUNK: usize = 1024;

/// Payloads at least this large are read into memory advised for
/// transparent huge pages. At this size glibc serves the allocation
/// from its own `mmap`, so the advice touches only that mapping.
const HUGE_PAGE_MIN_BYTES: usize = 32 << 20;

fn put_u32_le(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64_le(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32_le(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64_le(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Read `count` little-endian scalars straight into a fresh vector's
/// storage (bit-exact; the inverse of [`Scalar::write_le`]).
fn get_vec<S: Scalar>(r: &mut impl Read, count: usize) -> io::Result<Vec<S>> {
    // `vec![0; n]` is a zeroed allocation whose pages are first touched
    // by the read below, after the huge-page advice.
    let mut out = vec![S::ZERO; count];
    advise_huge_pages(S::as_bytes_mut(&mut out));
    S::read_le(r, &mut out)?;
    Ok(out)
}

/// Ask the kernel to back a fresh buffer of at least
/// [`HUGE_PAGE_MIN_BYTES`] with transparent huge pages, so faulting it
/// in costs one fault per 2 MiB instead of one per 4 KiB. Only the
/// 2 MiB-aligned interior is advised, since only whole aligned blocks
/// can become huge pages. Pure advice: where THP is disabled the call
/// fails and nothing changes.
#[cfg(target_os = "linux")]
fn advise_huge_pages(buf: &mut [u8]) {
    use std::ffi::{c_int, c_void};
    const MADV_HUGEPAGE: c_int = 14;
    const HUGE: usize = 2 << 20;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    if buf.len() < HUGE_PAGE_MIN_BYTES {
        return;
    }
    let start = buf.as_mut_ptr() as usize;
    let lo = start.next_multiple_of(HUGE);
    let hi = (start + buf.len()) / HUGE * HUGE;
    if hi > lo {
        // SAFETY: `[lo, hi)` lies inside `buf`, which this call borrows
        // exclusively; MADV_HUGEPAGE only changes how the kernel backs
        // those pages, never their contents or the mapping's validity.
        unsafe { madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_buf: &mut [u8]) {}

fn check_magic(r: &mut impl Read, magic: &[u8; 4], what: &str) -> io::Result<()> {
    let mut m = [0u8; 4];
    r.read_exact(&mut m)
        .map_err(|_| bad(&format!("not a {what} file (truncated magic)")))?;
    if &m != magic {
        return Err(bad(&format!("not a {what} file (bad magic)")));
    }
    Ok(())
}

/// Reject a header whose `ndims` mode words (8 bytes each, after
/// `fixed` bytes) cannot fit the input, before anything is sized by
/// `ndims`: a forged count must not allocate.
fn check_header_fits(input_len: u64, fixed: u64, ndims: usize, what: &str) -> io::Result<()> {
    if fixed + 8 * ndims as u64 > input_len {
        return Err(bad(&format!(
            "{what} header of {ndims} modes exceeds the {input_len}-byte input"
        )));
    }
    Ok(())
}

/// Validate the declared total input length against the byte count the
/// parsed header implies — called before any payload is read.
fn check_total_len(input_len: u64, expected: u64, what: &str) -> io::Result<()> {
    if input_len != expected {
        return Err(bad(&format!(
            "{what} payload length mismatch: input is {input_len} bytes, header implies {expected}"
        )));
    }
    Ok(())
}

// ---- dense tensors ---------------------------------------------------------

/// Stream a tensor to any writer (header + entries, no intermediate
/// buffer). `f64` tensors write the legacy version-1 layout
/// (bit-identical to every pre-dtype file); `f32` tensors write
/// version 2 with the dtype tag.
pub fn write_tensor_to<S: Scalar>(w: &mut impl Write, x: &DenseTensor<S>) -> io::Result<()> {
    w.write_all(TENSOR_MAGIC)?;
    match S::DTYPE {
        Dtype::F64 => put_u32_le(w, VERSION)?,
        Dtype::F32 => {
            put_u32_le(w, TENSOR_VERSION_TYPED)?;
            put_u32_le(w, S::DTYPE.size_bytes() as u32)?;
        }
    }
    put_u32_le(w, x.dims().len() as u32)?;
    for &d in x.dims() {
        put_u64_le(w, d as u64)?;
    }
    S::write_le(w, x.data())
}

/// Parse magic + version (+ dtype tag on version 2); returns the
/// stored dtype and the bytes consumed so far. Shared by the typed
/// readers and the [`tensor_dtype`] sniffer, so the dtype decision is
/// always made before the dims — let alone the payload — are read.
fn get_tensor_dtype(r: &mut impl Read) -> io::Result<(Dtype, u64)> {
    check_magic(r, TENSOR_MAGIC, "tensor")?;
    match get_u32_le(r)? {
        VERSION => Ok((Dtype::F64, 8)),
        TENSOR_VERSION_TYPED => match get_u32_le(r)? {
            4 => Ok((Dtype::F32, 12)),
            8 => Ok((Dtype::F64, 12)),
            tag => Err(bad(&format!("unknown tensor dtype tag {tag}"))),
        },
        v => Err(bad(&format!("unsupported tensor file version {v}"))),
    }
}

/// The element type a tensor file stores, from its header alone.
pub fn tensor_dtype(path: impl AsRef<Path>) -> io::Result<Dtype> {
    let f = File::open(path)?;
    Ok(get_tensor_dtype(&mut BufReader::new(f))?.0)
}

/// Read a tensor from any reader whose total length is `input_len`
/// bytes. The dtype check happens first (a file storing the other
/// element type is rejected, never converted), then the length check,
/// both before the payload read.
pub fn read_tensor_from<S: Scalar>(
    r: &mut impl Read,
    input_len: u64,
) -> io::Result<DenseTensor<S>> {
    let (dtype, header) = get_tensor_dtype(r)?;
    if dtype != S::DTYPE {
        return Err(bad(&format!(
            "tensor dtype mismatch: file stores {dtype}, caller requested {}",
            S::DTYPE
        )));
    }
    let ndims = get_u32_le(r)? as usize;
    if ndims == 0 {
        return Err(bad("tensor with zero modes"));
    }
    check_header_fits(input_len, header + 4, ndims, "tensor")?;
    let mut dims = Vec::new();
    for _ in 0..ndims {
        let d = get_u64_le(r)? as usize;
        if d == 0 {
            return Err(bad("zero-length tensor mode"));
        }
        dims.push(d);
    }
    // Checked shape product: crafted headers must fail cleanly.
    let total = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| bad("tensor shape overflows"))?;
    // The byte count must also be computed checked: a total that fits
    // usize can still wrap `esz * total` and sneak past the length gate.
    let expected = (total as u64)
        .checked_mul(dtype.size_bytes() as u64)
        .and_then(|p| p.checked_add(header + 4 + 8 * ndims as u64))
        .ok_or_else(|| bad("tensor payload size overflows"))?;
    check_total_len(input_len, expected, "tensor")?;
    let data = get_vec::<S>(r, total)?;
    Ok(DenseTensor::from_vec(&dims, data))
}

/// Serialize a tensor into a byte buffer.
pub fn tensor_to_bytes<S: Scalar>(x: &DenseTensor<S>) -> Vec<u8> {
    let esz = S::DTYPE.size_bytes();
    let mut buf = Vec::with_capacity(16 + x.dims().len() * 8 + x.len() * esz);
    write_tensor_to(&mut buf, x).expect("Vec<u8> writes are infallible");
    buf
}

/// Deserialize a tensor from bytes.
pub fn tensor_from_bytes<S: Scalar>(buf: &[u8]) -> io::Result<DenseTensor<S>> {
    read_tensor_from(&mut { buf }, buf.len() as u64)
}

/// Write a tensor to `path`, streaming through a [`BufWriter`].
pub fn write_tensor<S: Scalar>(path: impl AsRef<Path>, x: &DenseTensor<S>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_tensor_to(&mut w, x)?;
    w.flush()
}

/// Read a tensor from `path`, streaming through a [`BufReader`]. A
/// file storing the other element type, or whose length disagrees
/// with its header, is rejected before the payload is read.
pub fn read_tensor<S: Scalar>(path: impl AsRef<Path>) -> io::Result<DenseTensor<S>> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    read_tensor_from(&mut BufReader::new(f), len)
}

// ---- Kruskal models --------------------------------------------------------

/// Stream a Kruskal model to any writer.
pub fn write_model_to(w: &mut impl Write, m: &StoredModel) -> io::Result<()> {
    w.write_all(MODEL_MAGIC)?;
    put_u32_le(w, VERSION)?;
    put_u32_le(w, m.dims.len() as u32)?;
    put_u32_le(w, m.rank as u32)?;
    for &d in &m.dims {
        put_u64_le(w, d as u64)?;
    }
    f64::write_le(w, &m.lambda)?;
    for f in &m.factors {
        f64::write_le(w, f)?;
    }
    Ok(())
}

/// Read a Kruskal model from any reader whose total length is
/// `input_len` bytes.
pub fn read_model_from(r: &mut impl Read, input_len: u64) -> io::Result<StoredModel> {
    check_magic(r, MODEL_MAGIC, "model")?;
    if get_u32_le(r)? != VERSION {
        return Err(bad("unsupported model file version"));
    }
    let ndims = get_u32_le(r)? as usize;
    let rank = get_u32_le(r)? as usize;
    if ndims == 0 || rank == 0 {
        return Err(bad("model with zero modes or zero rank"));
    }
    check_header_fits(input_len, 16, ndims, "model")?;
    let mut dims = Vec::new();
    for _ in 0..ndims {
        let d = get_u64_le(r)? as usize;
        if d == 0 {
            return Err(bad("zero-length model mode"));
        }
        dims.push(d);
    }
    // Checked arithmetic: crafted headers must fail cleanly, not wrap.
    let words = dims
        .iter()
        .try_fold(rank, |acc, &d| {
            d.checked_mul(rank).and_then(|f| acc.checked_add(f))
        })
        .ok_or_else(|| bad("model header overflows"))?;
    let expected = (words as u64)
        .checked_mul(8)
        .and_then(|p| p.checked_add(16 + 8 * ndims as u64))
        .ok_or_else(|| bad("model payload size overflows"))?;
    check_total_len(input_len, expected, "model")?;
    let lambda = get_vec(r, rank)?;
    let mut factors = Vec::new();
    for &d in &dims {
        factors.push(get_vec(r, d * rank)?);
    }
    Ok(StoredModel {
        dims,
        rank,
        lambda,
        factors,
    })
}

/// Serialize a Kruskal model into bytes.
pub fn model_to_bytes(m: &StoredModel) -> Vec<u8> {
    let factor_len: usize = m.factors.iter().map(|f| f.len()).sum();
    let mut buf = Vec::with_capacity(16 + m.dims.len() * 8 + (m.rank + factor_len) * 8);
    write_model_to(&mut buf, m).expect("Vec<u8> writes are infallible");
    buf
}

/// Deserialize a Kruskal model from bytes.
pub fn model_from_bytes(buf: &[u8]) -> io::Result<StoredModel> {
    read_model_from(&mut { buf }, buf.len() as u64)
}

/// Write a Kruskal model to `path`, streaming through a [`BufWriter`].
pub fn write_model(path: impl AsRef<Path>, m: &StoredModel) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_model_to(&mut w, m)?;
    w.flush()
}

/// Read a Kruskal model from `path`, streaming through a
/// [`BufReader`].
pub fn read_model(path: impl AsRef<Path>) -> io::Result<StoredModel> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    read_model_from(&mut BufReader::new(f), len)
}

// ---- sparse (COO) tensors --------------------------------------------------

/// Stream a sparse (COO) tensor to any writer, entries in canonical
/// order.
pub fn write_sparse_to(w: &mut impl Write, x: &CooTensor) -> io::Result<()> {
    w.write_all(SPARSE_MAGIC)?;
    put_u32_le(w, VERSION)?;
    put_u32_le(w, x.order() as u32)?;
    put_u64_le(w, x.nnz() as u64)?;
    for &d in x.dims() {
        put_u64_le(w, d as u64)?;
    }
    // Index words are converted to u64 in bounded chunks.
    let mut scratch = [0u8; 8 * CHUNK];
    for chunk in x.indices().chunks(CHUNK) {
        for (i, &v) in chunk.iter().enumerate() {
            scratch[8 * i..8 * i + 8].copy_from_slice(&(v as u64).to_le_bytes());
        }
        w.write_all(&scratch[..8 * chunk.len()])?;
    }
    f64::write_le(w, x.values())
}

/// Read a sparse (COO) tensor from any reader whose total length is
/// `input_len` bytes, re-validating indices and header arithmetic.
pub fn read_sparse_from(r: &mut impl Read, input_len: u64) -> io::Result<CooTensor> {
    check_magic(r, SPARSE_MAGIC, "sparse tensor")?;
    if get_u32_le(r)? != VERSION {
        return Err(bad("unsupported sparse tensor file version"));
    }
    let ndims = get_u32_le(r)? as usize;
    if ndims < 2 {
        return Err(bad("sparse tensor needs at least two modes"));
    }
    let nnz = get_u64_le(r)? as usize;
    check_header_fits(input_len, 20, ndims, "sparse tensor")?;
    let mut dims = Vec::new();
    for _ in 0..ndims {
        let d = get_u64_le(r)? as usize;
        if d == 0 {
            return Err(bad("zero-length sparse tensor mode"));
        }
        dims.push(d);
    }
    // Checked shape product: a forged shape must fail here, not panic
    // in the COO constructor's linearization.
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| bad("sparse tensor shape overflows"))?;
    // Checked arithmetic: crafted nnz/ndims must fail cleanly, not wrap.
    let payload_words = nnz
        .checked_mul(ndims)
        .and_then(|iw| iw.checked_add(nnz))
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| bad("sparse tensor header overflows"))?;
    let expected = (payload_words as u64)
        .checked_add(20 + 8 * ndims as u64)
        .ok_or_else(|| bad("sparse tensor payload size overflows"))?;
    check_total_len(input_len, expected, "sparse tensor")?;
    let mut inds = vec![0usize; nnz * ndims];
    let mut scratch = [0u8; 8 * CHUNK];
    let mut pos = 0usize;
    while pos < inds.len() {
        let n = (inds.len() - pos).min(CHUNK);
        r.read_exact(&mut scratch[..8 * n])?;
        for (i, slot) in inds[pos..pos + n].iter_mut().enumerate() {
            let word = u64::from_le_bytes(scratch[8 * i..8 * i + 8].try_into().unwrap()) as usize;
            let (k, m) = ((pos + i) / ndims, (pos + i) % ndims);
            if word >= dims[m] {
                return Err(bad(&format!(
                    "entry {k}: index {word} out of bounds for mode {m} ({})",
                    dims[m]
                )));
            }
            *slot = word;
        }
        pos += n;
    }
    let vals = get_vec(r, nnz)?;
    Ok(CooTensor::from_entries(&dims, inds, vals))
}

/// Serialize a sparse (COO) tensor into bytes, entries in canonical
/// order.
pub fn sparse_to_bytes(x: &CooTensor) -> Vec<u8> {
    let nm = x.order();
    let nnz = x.nnz();
    let mut buf = Vec::with_capacity(20 + nm * 8 + nnz * (nm + 1) * 8);
    write_sparse_to(&mut buf, x).expect("Vec<u8> writes are infallible");
    buf
}

/// Deserialize a sparse (COO) tensor from bytes, re-validating indices
/// and header arithmetic.
pub fn sparse_from_bytes(buf: &[u8]) -> io::Result<CooTensor> {
    read_sparse_from(&mut { buf }, buf.len() as u64)
}

/// Write a sparse tensor to `path`, streaming through a [`BufWriter`].
pub fn write_sparse(path: impl AsRef<Path>, x: &CooTensor) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_sparse_to(&mut w, x)?;
    w.flush()
}

/// Read a sparse tensor from `path`, streaming through a
/// [`BufReader`].
pub fn read_sparse(path: impl AsRef<Path>) -> io::Result<CooTensor> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    read_sparse_from(&mut BufReader::new(f), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_tensor;

    // Test-crafting helpers (headers built by hand into a Vec).
    fn push_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn push_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn tensor_round_trips_through_bytes() {
        let x = random_tensor(&[5, 4, 3], 1);
        let bytes = tensor_to_bytes(&x);
        let back: DenseTensor<f64> = tensor_from_bytes(&bytes).unwrap();
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.data(), x.data());
    }

    /// A reader that returns 1, 3, 5, 7, 1, … bytes per call, so the
    /// payload read resumes mid-element at every offset.
    struct Dribble<'a> {
        buf: &'a [u8],
        calls: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = [1, 3, 5, 7][self.calls % 4]
                .min(out.len())
                .min(self.buf.len());
            self.calls += 1;
            out[..n].copy_from_slice(&self.buf[..n]);
            self.buf = &self.buf[n..];
            Ok(n)
        }
    }

    fn dribble_round_trip<S: Scalar>(bits: &[S]) -> DenseTensor<S> {
        let x = DenseTensor::from_vec(&[3, bits.len() / 3], bits.to_vec());
        let bytes = tensor_to_bytes(&x);
        let mut r = Dribble {
            buf: &bytes,
            calls: 0,
        };
        read_tensor_from(&mut r, bytes.len() as u64).unwrap()
    }

    #[test]
    fn split_reads_round_trip_special_values_bit_for_bit() {
        let f64s = [
            0x3ff8_0000_0000_0000, // 1.5
            0x8000_0000_0000_0000, // -0.0
            0x0000_0000_0000_0001, // smallest subnormal
            0x800f_ffff_ffff_ffff, // largest negative subnormal
            0x7ff8_0000_dead_beef, // quiet NaN with payload
            0x7ff0_0000_0000_0001, // signalling NaN
            0xfff8_0000_0000_1234, // negative NaN with payload
            0x7ff0_0000_0000_0000, // +inf
            0xc00c_cccc_cccc_cccd, // -3.6
        ]
        .map(f64::from_bits);
        let back = dribble_round_trip(&f64s);
        assert_eq!(back.data().len(), f64s.len());
        for (got, want) in back.data().iter().zip(&f64s) {
            assert_eq!(got.to_bits(), want.to_bits());
        }

        let f32s = [
            0x3fc0_0000, // 1.5
            0x8000_0000, // -0.0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7fc0_beef, // quiet NaN with payload
            0x7fa0_0001, // signalling NaN
            0xffc0_1234, // negative NaN with payload
            0xff80_0000, // -inf
            0x4066_6666, // 3.6
        ]
        .map(f32::from_bits);
        let back = dribble_round_trip(&f32s);
        assert_eq!(back.data().len(), f32s.len());
        for (got, want) in back.data().iter().zip(&f32s) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn huge_page_sized_tensor_round_trips_through_file() {
        // 4 Mi f64 entries, 32 MiB: the payload takes the huge-page path.
        let dims = [256, 128, 128];
        let data = (0..1u64 << 22)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let x = DenseTensor::from_vec(&dims, data);
        assert!(x.len() * 8 >= HUGE_PAGE_MIN_BYTES);
        let path =
            std::env::temp_dir().join(format!("mttkrp_io_test_huge_{}.mtkt", std::process::id()));
        write_tensor(&path, &x).unwrap();
        let back: io::Result<DenseTensor<f64>> = read_tensor(&path);
        std::fs::remove_file(&path).ok();
        let back = back.unwrap();
        assert_eq!(back.dims(), x.dims());
        assert!(f64::as_bytes(back.data()) == f64::as_bytes(x.data()));
    }

    #[test]
    fn tensor_round_trips_through_file() {
        let x = random_tensor(&[6, 2, 7], 2);
        let path = std::env::temp_dir().join("mttkrp_io_test_tensor.mtkt");
        write_tensor(&path, &x).unwrap();
        let back = read_tensor(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, x);
    }

    #[test]
    fn model_round_trips() {
        let m = StoredModel {
            dims: vec![3, 4],
            rank: 2,
            lambda: vec![1.5, 0.25],
            factors: vec![vec![0.5; 6], vec![0.75; 8]],
        };
        let back = model_from_bytes(&model_to_bytes(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn f32_tensor_round_trips_and_is_half_the_bytes() {
        let x64 = random_tensor(&[5, 4, 3], 7);
        let x32 = x64.cast::<f32>();
        let b32 = tensor_to_bytes(&x32);
        let b64 = tensor_to_bytes(&x64);
        // v2 header is 4 bytes longer (dtype tag), payload half the size.
        assert_eq!(b32.len(), b64.len() - 8 * x64.len() + 4 * x64.len() + 4);
        let back: DenseTensor<f32> = tensor_from_bytes(&b32).unwrap();
        assert_eq!(back.dims(), x32.dims());
        assert_eq!(back.data(), x32.data());
    }

    #[test]
    fn f32_tensor_round_trips_through_file_with_dtype_sniff() {
        let x = random_tensor(&[6, 3], 9).cast::<f32>();
        let path = std::env::temp_dir().join("mttkrp_io_test_tensor_f32.mtkt");
        write_tensor(&path, &x).unwrap();
        assert_eq!(tensor_dtype(&path).unwrap(), mttkrp_blas::Dtype::F32);
        let back: DenseTensor<f32> = read_tensor(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, x);
    }

    // Satellite regression: the typed reader must refuse to open a
    // file of the other dtype — from the header, before any payload
    // read — rather than silently narrowing f64 payloads into f32 (or
    // widening the other way).
    #[test]
    fn rejects_dtype_mismatch_before_reading_payload() {
        let x64 = random_tensor(&[4, 4], 5);
        let bytes = tensor_to_bytes(&x64);
        let err = tensor_from_bytes::<f32>(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("dtype mismatch"), "{err}");

        let bytes = tensor_to_bytes(&x64.cast::<f32>());
        let err = tensor_from_bytes::<f64>(&bytes).unwrap_err();
        assert!(err.to_string().contains("dtype mismatch"), "{err}");

        // The mismatch fires even when the payload is absent entirely:
        // header-only input still reports dtype, not a length problem.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 2); // typed version
        push_u32(&mut buf, 4); // f32 tag
        push_u32(&mut buf, 3); // ndims — never reached by the check
        let err = tensor_from_bytes::<f64>(&buf).unwrap_err();
        assert!(err.to_string().contains("dtype mismatch"), "{err}");
    }

    #[test]
    fn rejects_unknown_dtype_tag_and_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 2);
        push_u32(&mut buf, 2); // no 2-byte dtype exists
        assert!(tensor_from_bytes::<f64>(&buf).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 3);
        assert!(tensor_from_bytes::<f64>(&buf).is_err());
    }

    #[test]
    fn v2_f64_files_are_accepted() {
        // The writer emits v1 for f64, but v2 + 8-byte tag is legal.
        let x = random_tensor(&[3, 2], 1);
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 2);
        push_u32(&mut buf, 8);
        push_u32(&mut buf, 2);
        push_u64(&mut buf, 3);
        push_u64(&mut buf, 2);
        for &v in x.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let back: DenseTensor<f64> = tensor_from_bytes(&buf).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(tensor_from_bytes::<f64>(b"NOPE").is_err());
        assert!(model_from_bytes(b"XXXXXXXXXXXXXXXXXXX").is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let x = random_tensor(&[3, 3], 3);
        let bytes = tensor_to_bytes(&x);
        assert!(tensor_from_bytes::<f64>(&bytes[..bytes.len() - 8]).is_err());
    }

    // Satellite regression: the streaming readers must reject a
    // length/header mismatch from the header alone, before any payload
    // is read — a header promising a huge payload over a short (or
    // overlong) input fails up-front with `InvalidData`, not midway
    // with `UnexpectedEof` after a long partial read.
    #[test]
    fn rejects_length_mismatch_before_reading_payload() {
        // Header declares a 100×100×100 tensor (8 MB payload) but the
        // input ends right after the header.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 3);
        for _ in 0..3 {
            push_u64(&mut buf, 100);
        }
        let err = tensor_from_bytes::<f64>(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("length mismatch"),
            "unexpected error: {err}"
        );

        // Same check fires for trailing garbage (input longer than the
        // header implies).
        let x = random_tensor(&[3, 3], 4);
        let mut bytes = tensor_to_bytes(&x);
        bytes.extend_from_slice(&[0u8; 8]);
        let err = tensor_from_bytes::<f64>(&bytes).unwrap_err();
        assert!(err.to_string().contains("length mismatch"));

        // And for the model and sparse readers.
        let m = StoredModel {
            dims: vec![2, 2],
            rank: 1,
            lambda: vec![1.0],
            factors: vec![vec![0.0; 2], vec![0.0; 2]],
        };
        let mut bytes = model_to_bytes(&m);
        bytes.truncate(bytes.len() - 8);
        assert!(model_from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("length mismatch"));
        let mut bytes = sparse_to_bytes(&crate::random_sparse(&[3, 3], 4, 1));
        bytes.pop();
        assert!(sparse_from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("length mismatch"));
    }

    #[test]
    fn rejects_zero_model_dim() {
        // Model header with a zero mode must fail cleanly, not defer a
        // panic to whoever consumes the decoded dims.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKM");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2); // ndims
        push_u32(&mut buf, 1); // rank
        push_u64(&mut buf, 0);
        push_u64(&mut buf, 3);
        assert!(model_from_bytes(&buf).is_err());
    }

    #[test]
    fn rejects_overflowing_tensor_shape() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2);
        push_u64(&mut buf, 1 << 40);
        push_u64(&mut buf, 1 << 40);
        assert!(tensor_from_bytes::<f64>(&buf).is_err());
    }

    // Regression: a shape whose *entry count* fits usize but whose
    // *byte count* wraps u64 (2^31 × 2^30 = 2^61 entries → 2^64 bytes)
    // used to wrap the length check to 0, match the header-only input,
    // and panic with a capacity overflow in the payload read. It must
    // be InvalidData like every other forged header.
    #[test]
    fn rejects_byte_count_wrapping_shape() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2);
        push_u64(&mut buf, 1 << 31);
        push_u64(&mut buf, 1 << 30);
        let err = tensor_from_bytes::<f64>(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Same construction against the model reader: factor word
        // counts that fit usize but wrap `8 × words` in u64.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKM");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2);
        push_u32(&mut buf, 1);
        push_u64(&mut buf, 1 << 60);
        push_u64(&mut buf, 1 << 60);
        let err = model_from_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_zero_dim() {
        // Hand-craft a header with a zero mode.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKT");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2);
        push_u64(&mut buf, 0);
        push_u64(&mut buf, 3);
        assert!(tensor_from_bytes::<f64>(&buf).is_err());
    }

    #[test]
    fn sparse_round_trips_through_bytes() {
        let x = crate::random_sparse(&[7, 5, 4], 30, 11);
        let back = sparse_from_bytes(&sparse_to_bytes(&x)).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn sparse_round_trips_through_file() {
        let x = crate::random_sparse(&[6, 6], 12, 2);
        let path = std::env::temp_dir().join("mttkrp_io_test_sparse.mtks");
        write_sparse(&path, &x).unwrap();
        let back = read_sparse(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, x);
    }

    #[test]
    fn sparse_rejects_bad_magic_and_version() {
        assert!(sparse_from_bytes(b"NOPExxxxxxxxxxxxxxxxxxxx").is_err());
        let mut buf = sparse_to_bytes(&crate::random_sparse(&[3, 3], 4, 1));
        buf[4] = 9; // version
        assert!(sparse_from_bytes(&buf).is_err());
    }

    #[test]
    fn sparse_rejects_truncation() {
        let bytes = sparse_to_bytes(&crate::random_sparse(&[5, 4, 3], 20, 3));
        // Any proper prefix must fail: header cuts and payload cuts alike.
        for cut in [4, 12, 19, bytes.len() - 8, bytes.len() - 1] {
            assert!(sparse_from_bytes(&bytes[..cut]).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn sparse_rejects_corrupt_header() {
        // nnz forged to overflow the payload-size arithmetic.
        let x = crate::random_sparse(&[3, 3], 2, 7);
        let mut buf = sparse_to_bytes(&x);
        buf[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(sparse_from_bytes(&buf).is_err());

        // Zero dimension.
        let mut buf = sparse_to_bytes(&x);
        buf[20..28].copy_from_slice(&0u64.to_le_bytes());
        assert!(sparse_from_bytes(&buf).is_err());

        // One-mode tensor.
        let mut buf = sparse_to_bytes(&x);
        buf[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(sparse_from_bytes(&buf).is_err());
    }

    #[test]
    fn sparse_rejects_overflowing_shape() {
        // ndims=2, nnz=0, dims = [2^40, 2^40]: every length check
        // passes, but the shape product overflows usize — must be
        // InvalidData, not a panic in the COO constructor.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MTKS");
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 2);
        push_u64(&mut buf, 0);
        push_u64(&mut buf, 1 << 40);
        push_u64(&mut buf, 1 << 40);
        assert!(sparse_from_bytes(&buf).is_err());
    }

    #[test]
    fn sparse_rejects_out_of_range_index() {
        let x = crate::random_sparse(&[3, 3], 2, 5);
        let mut buf = sparse_to_bytes(&x);
        // First index word sits right after the 20-byte header + 2 dims.
        let off = 20 + 2 * 8;
        buf[off..off + 8].copy_from_slice(&99u64.to_le_bytes());
        assert!(sparse_from_bytes(&buf).is_err());
    }
}
