//! Cache-blocked matrix-matrix multiply: `C ← α·A·B + β·C`.
//!
//! Three-level blocking (BLIS-style) shaped for MTTKRP's tall, skinny
//! `X(n) · K`: `m` is a tensor dimension `I_n`, `n` is the rank `C ≤ 64`
//! and `k` is huge. Blocks of `A` and `B` are packed into contiguous
//! buffers sized for cache residency, and the kernel set's `mr × w`
//! microkernel, vectorized along `m`, runs on rank panels of exact,
//! near-equal width (`25 → 9 + 8 + 8` on AVX-512), so no column of the
//! register tile is zero padding.
//!
//! Transposes and layouts are expressed through the strides of the
//! [`MatRef`] views, so one entry point serves every case in the MTTKRP
//! algorithms. The tensor is the `A` operand, and streaming it is most
//! of the work, so `A` is packed by its stride class at the cost of a
//! copy:
//!
//! * unit row stride (column-major `X(0:n)`: every `R` partial of the
//!   two-group sweep, mode-0 GEMMs, out-of-core tiles) by plain copies
//!   of its column runs into a column-major `mc × kc` block, tail rows
//!   zero-padded to a multiple of `mr`; the microkernel reads it in
//!   place through its leading-dimension argument (`lda` = the padded
//!   height);
//! * unit column stride (row-major tensor blocks, the last mode, the
//!   transposed `L` partials) by the set's in-register transpose into
//!   `kc × mr` micro-panels (`lda = mr`);
//! * anything else element by element into micro-panels.
//!
//! The `k`-block `KC_BYTES` is a byte size — 2 KiB of every row or
//! column run, so 256 `f64` or 512 `f32` — which keeps the runs a pack
//! reads equally long in both precisions. Tiles accumulate across the
//! whole `k` loop in a packed copy of the `C` block, which is written
//! into `C` once: `β = 0` stores `α·C_pack` without reading `C` (so NaN
//! in uninitialized output cannot leak in), any other `β` folds
//! `β·C + α·C_pack` into that same pass. `B` is packed once per call
//! rather than once per row block when `k` fits one `k`-block, or when
//! all `k × nc` of it fits `B_ONCE_BYTES` and there is more than one
//! row block to serve.
//!
//! `B` is either a strided [`MatRef`] or a [`KrpRef`]: a Khatri-Rao
//! product of row-major factors that is never formed. The pack
//! generates each KRP row straight into the panels, one Hadamard
//! product of factor rows per row, so every MTTKRP GEMM reads only the
//! tensor and the factors ([`gemm_krp_with`], [`par_gemm_krp_with`]).
//! A small problem, which is not packed, generates its whole `k × n`
//! KRP once into the thread-local B pack buffer instead.
//!
//! [`par_gemm`] statically partitions the larger output dimension across
//! a thread pool, mirroring how the paper invokes multithreaded MKL.

use mttkrp_parallel::{block_range, ThreadPool};

use crate::kernels::{kernels, KernelSet, MAX_MR, MAX_NR};
use crate::mat::{Layout, MatMut, MatRef};
use crate::scalar::Scalar;

/// K-dimension cache block in bytes: `kc = KC_BYTES / sizeof(S)` (256
/// `f64`, 512 `f32`), so a packed `kc × w` B panel stays L1-resident,
/// an `MC × kc` A block L2-resident, and every pack reads runs of 2 KiB.
const KC_BYTES: usize = 2048;
/// M-dimension cache block, a multiple of every set's tile height
/// [`KernelSet::mr`] (packed A block is `MC × kc`: 512 KiB).
const MC: usize = 256;
/// N-dimension cache block (packed B block is `kc × NC`).
const NC: usize = 1024;
/// Largest `k × nc` B block packed once per call when `k` spans several
/// `k`-blocks: about half an L2, so it stays resident while every row
/// block streams past it.
const B_ONCE_BYTES: usize = 256 << 10;
/// Byte alignment of the packed panels: one cache line, so no vector
/// load of a micro-panel straddles two lines.
const PACK_ALIGN: usize = 64;

/// `C ← α·A·B + β·C` for arbitrarily strided views, using the
/// process-wide [`kernels()`] dispatch.
///
/// # Panics
/// Panics on dimension mismatch (`A: m×k`, `B: k×n`, `C: m×n`).
pub fn gemm<S: Scalar>(alpha: f64, a: MatRef<S>, b: MatRef<S>, beta: f64, c: MatMut<S>) {
    gemm_with(kernels::<S>(), alpha, a, b, beta, c)
}

/// [`gemm`] against an explicit [`KernelSet`] — what plan executors
/// call so a tier forced at plan construction threads through.
pub fn gemm_with<S: Scalar>(
    ks: &KernelSet<S>,
    alpha: f64,
    a: MatRef<S>,
    b: MatRef<S>,
    beta: f64,
    c: MatMut<S>,
) {
    gemm_op(ks, alpha, a, b, beta, c)
}

/// [`gemm_with`] whose `B` is the Khatri-Rao product `b`, generated in
/// the pack. The result equals [`gemm_with`] on the materialised KRP
/// bit for bit.
///
/// # Panics
/// Panics on dimension mismatch (`A: m×k`, `B: k×n`, `C: m×n`).
pub fn gemm_krp_with<S: Scalar>(
    ks: &KernelSet<S>,
    alpha: f64,
    a: MatRef<S>,
    b: KrpRef<S>,
    beta: f64,
    c: MatMut<S>,
) {
    gemm_op(ks, alpha, a, b, beta, c)
}

fn gemm_op<S: Scalar, B: Operand<S>>(
    ks: &KernelSet<S>,
    alpha: f64,
    a: MatRef<S>,
    b: B,
    beta: f64,
    mut c: MatMut<S>,
) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    assert_eq!(b.nrows(), k, "inner dimensions must agree");
    assert_eq!(c.nrows(), m, "output rows must match A");
    assert_eq!(c.ncols(), n, "output columns must match B");

    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        scale_c(&mut c, beta);
        return;
    }

    // Small problems (e.g. the tiny per-block multiplies of the
    // internal-mode 1-step MTTKRP on high-order tensors) skip packing:
    // the panels would not amortize, and the accumulate loop below is
    // register-friendly enough at these sizes.
    let small = m * n * k <= 16 * 1024;
    if mttkrp_obs::metrics_enabled() {
        // Only the blocked path with β = 0 writes C without reading it.
        record_gemm_metrics::<S>(ks.tier(), m, n, k, small || beta != 0.0);
    }
    if small {
        scale_c(&mut c, beta);
        b.with_view(|b| small_kernel(alpha, &a, b, &mut c));
        return;
    }

    // Only the blocked path gets a dispatch span: the small-problem
    // calls above are too numerous (one per tensor block) to trace
    // individually without flooding the span buffers.
    let _span = mttkrp_obs::span_full!("gemm_blocked", mnk = m * n * k);

    // Pack buffers are thread-local (one arena per element type) and
    // grow-only, so repeated GEMM calls (one per tensor block) neither
    // re-allocate nor re-zero them once a CP-ALS sweep has sized them.
    let mc = MC.min(m.next_multiple_of(ks.mr()));
    let (kc, nc) = (k_block::<S>().min(k), NC.min(n));
    let b_once = k == kc || (m > MC && k * nc * std::mem::size_of::<S>() <= B_ONCE_BYTES);
    let kb = if b_once { k } else { kc };
    S::with_pack_buffers(|a_buf, bc_buf| {
        let a_pack = aligned(a_buf, mc * kc);
        let (b_pack, c_pack) = aligned(bc_buf, kb * nc + mc * nc).split_at_mut(kb * nc);
        gemm_blocked(
            ks, alpha, &a, &b, beta, &mut c, b_once, a_pack, b_pack, c_pack,
        );
    });
}

/// The `k`-block of element type `S`, `KC_BYTES` of it (256 `f64`,
/// 512 `f32`): a caller splitting a long `k` into separate GEMMs cuts
/// at its multiples, so every chunk runs whole blocks.
pub const fn k_block<S: Scalar>() -> usize {
    KC_BYTES / std::mem::size_of::<S>()
}

/// The first `len` elements of `buf` past its first
/// [`PACK_ALIGN`]-byte boundary, growing (never shrinking) `buf` to fit.
fn aligned<S: Scalar>(buf: &mut Vec<S>, len: usize) -> &mut [S] {
    let slack = PACK_ALIGN / std::mem::size_of::<S>();
    if buf.len() < len + slack {
        buf.resize(len + slack, S::ZERO);
    }
    let off = buf.as_ptr().align_offset(PACK_ALIGN).min(slack);
    &mut buf[off..off + len]
}

/// Per-tier GEMM call/byte/flop counters, recorded only under
/// `--metrics` (`MTTKRP_METRICS=1`). Bytes model each operand touched
/// once: `(m·k + k·n + 2·m·n) · sizeof(S)` when C is read and written,
/// `(m·k + k·n + m·n) · sizeof(S)` when it is only written (`reads_c`
/// false); flops are the exact `2·m·n·k`. Together the pair is what the
/// roofline attribution (`mttkrp-tune`'s perf-report bridge) divides by
/// the measured GEMM seconds.
fn record_gemm_metrics<S: Scalar>(
    tier: crate::KernelTier,
    m: usize,
    n: usize,
    k: usize,
    reads_c: bool,
) {
    let c_passes = 1 + usize::from(reads_c);
    let bytes = ((m * k + k * n + c_passes * m * n) * std::mem::size_of::<S>()) as u64;
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    // One statically-named counter triple per tier keeps the handles
    // cacheable per call site.
    let (calls, moved, work) = match tier {
        crate::KernelTier::Scalar => (
            mttkrp_obs::counter!("blas.gemm_calls.scalar"),
            mttkrp_obs::counter!("blas.gemm_bytes.scalar"),
            mttkrp_obs::counter!("blas.gemm_flops.scalar"),
        ),
        crate::KernelTier::Avx2 => (
            mttkrp_obs::counter!("blas.gemm_calls.avx2"),
            mttkrp_obs::counter!("blas.gemm_bytes.avx2"),
            mttkrp_obs::counter!("blas.gemm_flops.avx2"),
        ),
        crate::KernelTier::Avx512 => (
            mttkrp_obs::counter!("blas.gemm_calls.avx512"),
            mttkrp_obs::counter!("blas.gemm_bytes.avx512"),
            mttkrp_obs::counter!("blas.gemm_flops.avx512"),
        ),
        crate::KernelTier::Neon => (
            mttkrp_obs::counter!("blas.gemm_calls.neon"),
            mttkrp_obs::counter!("blas.gemm_bytes.neon"),
            mttkrp_obs::counter!("blas.gemm_flops.neon"),
        ),
    };
    calls.incr();
    moved.add(bytes);
    work.add(flops);
}

/// Unpacked accumulation kernel for small problems:
/// `C += α·A·B` (C already scaled by β).
fn small_kernel<S: Scalar>(alpha: f64, a: &MatRef<S>, b: &MatRef<S>, c: &mut MatMut<S>) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    let alpha = S::from_f64(alpha);
    for i in 0..m {
        for j in 0..n {
            let mut s = S::ZERO;
            for p in 0..k {
                // SAFETY: `i < m`, `p < k` and `j < n` index A and B.
                s += unsafe { a.get_unchecked(i, p) * b.get_unchecked(p, j) };
            }
            unsafe {
                let old = c.get_unchecked(i, j);
                c.set_unchecked(i, j, old + alpha * s);
            }
        }
    }
}

/// Width of rank panel `q` when `nc` columns are split into `np`
/// panels of near-equal width (the first `nc % np` are one wider).
#[inline]
fn panel_width(nc: usize, np: usize, q: usize) -> usize {
    nc / np + usize::from(q < nc % np)
}

/// The packed, blocked path of [`gemm`]: for each `MC` block of rows,
/// the tiles of a packed `C` block accumulate over all of `k` before
/// one `C ← α·C_pack + β·C`, the only pass over that block of `C`.
/// With `b_once`, `b_pack` holds all `k` rows of each `B` panel, packed
/// once per column block; otherwise one `k`-block of them, packed per
/// row block.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<S: Scalar, B: Operand<S>>(
    ks: &KernelSet<S>,
    alpha: f64,
    a: &MatRef<S>,
    b: &B,
    beta: f64,
    c: &mut MatMut<S>,
    b_once: bool,
    a_pack: &mut [S],
    b_pack: &mut [S],
    c_pack: &mut [S],
) {
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    let mr = ks.mr();
    let kc_max = k_block::<S>();

    let mut jc = 0;
    while jc < n {
        let nc = usize::min(NC, n - jc);
        let np = nc.div_ceil(ks.nr());
        if b_once {
            pack_b(b_pack, b, 0, k, jc, nc, np);
        }
        let mut ic = 0;
        while ic < m {
            let mc = usize::min(MC, m - ic);
            let mt = mc.div_ceil(mr);
            let c_pack = &mut c_pack[..mt * mr * nc];
            c_pack.fill(S::ZERO);
            let mut pc = 0;
            while pc < k {
                let kc = usize::min(kc_max, k - pc);
                // Panel `q` of width `w` starting at column `j0` holds
                // `kb` rows from row `p0` at `b_pack[kb·j0..]`.
                let (kb, p_in) = if b_once {
                    (k, pc)
                } else {
                    pack_b(b_pack, b, pc, kc, jc, nc, np);
                    (kc, 0)
                };
                let (t_stride, lda) = pack_a(ks, a_pack, &a.submatrix(ic, pc, mc, kc));
                // One B panel stays in L1 while the A tiles of the block
                // stream past it.
                let (mut j0, mut c_off) = (0, 0);
                for q in 0..np {
                    let w = panel_width(nc, np, q);
                    let b_panel = &b_pack[kb * j0 + p_in * w..][..kc * w];
                    for t in 0..mt {
                        let tile = &mut c_pack[c_off + t * mr * w..c_off + (t + 1) * mr * w];
                        (ks.gemm_micro)(kc, w, &a_pack[t * t_stride..], lda, b_panel, tile);
                    }
                    j0 += w;
                    c_off += mt * mr * w;
                }
                pc += kc_max;
            }
            unpack_c(alpha, beta, c_pack, c, ic, jc, mc, mr, nc, np);
            ic += MC;
        }
        jc += NC;
    }
}

/// Scale `C` by `beta` in place per the BLAS convention (`beta == 0`
/// overwrites, so NaNs in uninitialized output memory do not
/// propagate). Shared with the SYRK entry points.
pub(crate) fn scale_c<S: Scalar>(c: &mut MatMut<S>, beta: f64) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        c.fill(S::ZERO);
        return;
    }
    let beta = S::from_f64(beta);
    for i in 0..c.nrows() {
        for j in 0..c.ncols() {
            unsafe {
                let v = c.get_unchecked(i, j);
                c.set_unchecked(i, j, v * beta);
            }
        }
    }
}

/// Pack the `mc × kc` block `a` for the microkernel, rows past `mc`
/// zero-padded to a multiple of `mr = ks.mr()`, by the stride class of
/// `a`. Returns `(t_stride, lda)`: tile `t` reads row `i`, column `p`
/// at `a_pack[t·t_stride + p·lda + i]`.
///
/// Unit row stride packs a column-major block (`lda` = padded height,
/// each column one contiguous copy); the other classes pack `kc × mr`
/// micro-panels (`lda = mr`), by the set's transposing `pack_rows` for
/// unit column stride and element by element otherwise.
fn pack_a<S: Scalar>(ks: &KernelSet<S>, a_pack: &mut [S], a: &MatRef<S>) -> (usize, usize) {
    let (mc, kc) = (a.nrows(), a.ncols());
    let mr = ks.mr();
    let mt = mc.div_ceil(mr);
    if a.row_stride() == 1 {
        let lda = mt * mr;
        for (p, dst) in a_pack[..kc * lda].chunks_exact_mut(lda).enumerate() {
            let (col, pad) = dst.split_at_mut(mc);
            col.copy_from_slice(a.col_slice(p));
            pad.fill(S::ZERO);
        }
        return (mr, lda);
    }
    let panels = a_pack[..mt * kc * mr].chunks_exact_mut(kc * mr);
    if a.col_stride() == 1 {
        for (t, panel) in panels.enumerate() {
            let rows = usize::min(mr, mc - t * mr);
            let mut slices: [&[S]; MAX_MR] = [&[]; MAX_MR];
            for (i, s) in slices[..rows].iter_mut().enumerate() {
                *s = a.row_slice(t * mr + i);
            }
            (ks.pack_rows)(&slices[..rows], panel);
        }
    } else {
        for (t, panel) in panels.enumerate() {
            let rows = usize::min(mr, mc - t * mr);
            for (p, dst) in panel.chunks_exact_mut(mr).enumerate() {
                for (i, d) in dst.iter_mut().enumerate() {
                    // SAFETY: `i < rows` keeps the row inside the
                    // `mc`-row view, and `p < kc` the column.
                    *d = if i < rows {
                        unsafe { a.get_unchecked(t * mr + i, p) }
                    } else {
                        S::ZERO
                    };
                }
            }
        }
    }
    (kc * mr, mr)
}

/// Pack rows `p0..p0 + kb` of columns `jc..jc + nc` of `b` into `np`
/// panels of exact, near-equal width `w` ([`panel_width`]), row-major
/// within each (`b_pack[kb·j0 + p·w + j]` for the panel starting at
/// column `j0`). No column is padded.
fn pack_b<S: Scalar, B: Operand<S>>(
    b_pack: &mut [S],
    b: &B,
    p0: usize,
    kb: usize,
    jc: usize,
    nc: usize,
    np: usize,
) {
    let mut j0 = 0;
    for q in 0..np {
        let w = panel_width(nc, np, q);
        b.pack_panel(p0, jc + j0, &mut b_pack[kb * j0..kb * (j0 + w)], w);
        j0 += w;
    }
}

/// A GEMM `B` operand: what [`pack_b`] packs panel by panel and the
/// small kernel reads as a strided view.
trait Operand<S: Scalar>: Copy + Sync {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;
    /// Columns `j..j + n`.
    fn cols(self, j: usize, n: usize) -> Self;
    /// Rows `p0..p0 + dst.len() / w` of columns `j0..j0 + w` into the
    /// row-major `dst`.
    fn pack_panel(&self, p0: usize, j0: usize, dst: &mut [S], w: usize);
    /// Run `f` on the whole operand as a strided view.
    fn with_view<R>(&self, f: impl FnOnce(&MatRef<S>) -> R) -> R;
}

impl<S: Scalar> Operand<S> for MatRef<'_, S> {
    fn nrows(&self) -> usize {
        MatRef::nrows(self)
    }
    fn ncols(&self) -> usize {
        MatRef::ncols(self)
    }
    fn cols(self, j: usize, n: usize) -> Self {
        self.submatrix(0, j, MatRef::nrows(&self), n)
    }
    fn pack_panel(&self, p0: usize, j0: usize, dst: &mut [S], w: usize) {
        let b = self.submatrix(p0, j0, dst.len() / w, w);
        if b.col_stride() == 1 {
            for (p, d) in dst.chunks_exact_mut(w).enumerate() {
                d.copy_from_slice(b.row_slice(p));
            }
        } else {
            for (p, d) in dst.chunks_exact_mut(w).enumerate() {
                for (j, v) in d.iter_mut().enumerate() {
                    // SAFETY: `p < kb` and `j < w` index the view.
                    *v = unsafe { b.get_unchecked(p, j) };
                }
            }
        }
    }
    fn with_view<R>(&self, f: impl FnOnce(&MatRef<S>) -> R) -> R {
        f(self)
    }
}

/// Rows `row0..row0 + nrows`, columns `col0..col0 + ncols` of the
/// Khatri-Rao product `F[o_0] ⊙ F[o_1] ⊙ ⋯ ⊙ F[o_{Z−1}]` of row-major
/// factors `F` taken in `order` `o`, as a GEMM `B` operand that is
/// never formed ([`gemm_krp_with`], [`par_gemm_krp_with`]).
///
/// Row `r` is the Hadamard product of one row of each factor, the last
/// factor's row varying fastest, multiplied left to right — the
/// association of `mttkrp_krp::krp_reuse`, so a GEMM on a `KrpRef`
/// equals one on the materialised KRP bit for bit.
#[derive(Clone, Copy)]
pub struct KrpRef<'a, S: Scalar = f64> {
    factors: &'a [MatRef<'a, S>],
    order: &'a [usize],
    row0: usize,
    nrows: usize,
    col0: usize,
    ncols: usize,
}

impl<'a, S: Scalar> KrpRef<'a, S> {
    /// The whole KRP of `factors[order[0]] ⊙ factors[order[1]] ⊙ ⋯`.
    ///
    /// # Panics
    /// Panics if `order` is empty or indexes out of `factors`, or if the
    /// selected factors disagree on columns or have non-contiguous rows.
    pub fn new(factors: &'a [MatRef<'a, S>], order: &'a [usize]) -> Self {
        assert!(!order.is_empty(), "KRP of zero matrices is undefined");
        let ncols = factors[order[0]].ncols();
        let mut nrows = 1;
        for &i in order {
            let f = &factors[i];
            assert_eq!(
                f.ncols(),
                ncols,
                "KRP factor {i} has mismatched column count"
            );
            assert_eq!(
                f.col_stride(),
                1,
                "KRP factor {i} must have contiguous rows"
            );
            nrows *= f.nrows();
        }
        KrpRef {
            factors,
            order,
            row0: 0,
            nrows,
            col0: 0,
            ncols,
        }
    }

    /// Rows of the (sub-)product.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the (sub-)product.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Rows `start..start + len` of this product.
    ///
    /// # Panics
    /// Panics if the range leaves the product.
    pub fn rows(self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.nrows, "KRP row range out of bounds");
        KrpRef {
            row0: self.row0 + start,
            nrows: len,
            ..self
        }
    }

    /// Factor `z` of the product, in KRP order.
    #[inline]
    fn factor(&self, z: usize) -> MatRef<'a, S> {
        self.factors[self.order[z]]
    }

    /// Rows of the product of factors `z + 1..`: the stride of factor
    /// `z`'s row index in a KRP row index.
    fn stride(&self, z: usize) -> usize {
        (z + 1..self.order.len())
            .map(|q| self.factor(q).nrows())
            .product()
    }

    /// Rows `p0..p0 + dst.len() / w` of columns `j0..j0 + w` into the
    /// row-major `dst`, with `lead` (`w` long) as scratch for the
    /// Hadamard product of the leading factors' rows, which is formed
    /// once per run of the last factor's rows.
    fn generate(&self, p0: usize, j0: usize, dst: &mut [S], w: usize, lead: &mut [S]) {
        let z = self.order.len();
        let cols = self.col0 + j0..self.col0 + j0 + w;
        let last = self.factor(z - 1);
        let jl = last.nrows();
        let mut r = self.row0 + p0;
        let mut rows = dst.chunks_exact_mut(w);
        let mut left = rows.len();
        while left > 0 {
            let (outer, l0) = (r / jl, r % jl);
            let run = usize::min(jl - l0, left);
            for q in 0..z - 1 {
                let f = self.factor(q);
                let row = &f.row_slice(outer / (self.stride(q) / jl) % f.nrows())[cols.clone()];
                if q == 0 {
                    lead.copy_from_slice(row);
                } else {
                    for (a, &x) in lead.iter_mut().zip(row) {
                        *a *= x;
                    }
                }
            }
            for l in l0..l0 + run {
                let d = rows.next().expect("run within the panel");
                let x = &last.row_slice(l)[cols.clone()];
                if z == 1 {
                    d.copy_from_slice(x);
                } else {
                    for ((d, &a), &x) in d.iter_mut().zip(lead.iter()).zip(x) {
                        *d = a * x;
                    }
                }
            }
            r += run;
            left -= run;
        }
    }
}

impl<S: Scalar> Operand<S> for KrpRef<'_, S> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn cols(self, j: usize, n: usize) -> Self {
        assert!(j + n <= self.ncols, "KRP column range out of bounds");
        KrpRef {
            col0: self.col0 + j,
            ncols: n,
            ..self
        }
    }
    fn pack_panel(&self, p0: usize, j0: usize, dst: &mut [S], w: usize) {
        assert!(w <= MAX_NR, "B panel wider than any register tile");
        let mut lead = [S::ZERO; MAX_NR];
        self.generate(p0, j0, dst, w, &mut lead[..w]);
    }
    /// Generates the `k × n` product once, row-major, into the
    /// thread-local B pack buffer.
    fn with_view<R>(&self, f: impl FnOnce(&MatRef<S>) -> R) -> R {
        let (k, n) = (self.nrows, self.ncols);
        S::with_pack_buffers(|_, buf| {
            let (dst, lead) = aligned(buf, k * n + n).split_at_mut(k * n);
            self.generate(0, 0, dst, n, lead);
            f(&MatRef::from_slice(dst, k, n, Layout::RowMajor))
        })
    }
}

/// `C[ic.., jc..] ← α·C_pack + β·C` for one `mc × nc` block, the one
/// pass over it, reading the packed tiles in the order [`gemm_blocked`]
/// wrote them (per rank panel, per `mr`-row tile, column-major within a
/// tile): `β = 0` stores without reading `C`, `β = 1` adds, any other
/// `β` scales the old value in the same pass.
#[allow(clippy::too_many_arguments)]
fn unpack_c<S: Scalar>(
    alpha: f64,
    beta: f64,
    c_pack: &[S],
    c: &mut MatMut<S>,
    ic: usize,
    jc: usize,
    mc: usize,
    mr: usize,
    nc: usize,
    np: usize,
) {
    let (alpha, beta_s) = (S::from_f64(alpha), S::from_f64(beta));
    let mt = mc.div_ceil(mr);
    let (mut off, mut j0) = (0, 0);
    for q in 0..np {
        let w = panel_width(nc, np, q);
        for t in 0..mt {
            let tile = &c_pack[off + t * mr * w..off + (t + 1) * mr * w];
            let rows = usize::min(mr, mc - t * mr);
            for (j, col) in tile.chunks_exact(mr).enumerate() {
                for (i, &v) in col[..rows].iter().enumerate() {
                    let (ci, cj) = (ic + t * mr + i, jc + j0 + j);
                    // SAFETY: `ci < ic + mc <= m` and `cj < jc + nc <= n`.
                    unsafe {
                        let new = if beta == 0.0 {
                            alpha * v
                        } else if beta == 1.0 {
                            c.get_unchecked(ci, cj) + alpha * v
                        } else {
                            c.get_unchecked(ci, cj) * beta_s + alpha * v
                        };
                        c.set_unchecked(ci, cj, new);
                    }
                }
            }
        }
        off += mt * mr * w;
        j0 += w;
    }
}

/// Parallel `C ← α·A·B + β·C`: the larger output dimension is statically
/// partitioned into one contiguous block per pool thread, each of which
/// runs the sequential [`gemm`] on its disjoint slice of `C`.
pub fn par_gemm<S: Scalar>(
    pool: &ThreadPool,
    alpha: f64,
    a: MatRef<S>,
    b: MatRef<S>,
    beta: f64,
    c: MatMut<S>,
) {
    par_gemm_with(kernels::<S>(), pool, alpha, a, b, beta, c)
}

/// [`par_gemm`] against an explicit [`KernelSet`].
pub fn par_gemm_with<S: Scalar>(
    ks: &KernelSet<S>,
    pool: &ThreadPool,
    alpha: f64,
    a: MatRef<S>,
    b: MatRef<S>,
    beta: f64,
    c: MatMut<S>,
) {
    par_gemm_op(ks, pool, alpha, a, b, beta, c)
}

/// [`par_gemm_with`] whose `B` is the Khatri-Rao product `b`: each
/// thread generates the KRP rows (or columns) its block needs in its
/// pack ([`gemm_krp_with`]).
pub fn par_gemm_krp_with<S: Scalar>(
    ks: &KernelSet<S>,
    pool: &ThreadPool,
    alpha: f64,
    a: MatRef<S>,
    b: KrpRef<S>,
    beta: f64,
    c: MatMut<S>,
) {
    par_gemm_op(ks, pool, alpha, a, b, beta, c)
}

fn par_gemm_op<S: Scalar, B: Operand<S>>(
    ks: &KernelSet<S>,
    pool: &ThreadPool,
    alpha: f64,
    a: MatRef<S>,
    b: B,
    beta: f64,
    c: MatMut<S>,
) {
    let t = pool.num_threads();
    let (m, n) = (c.nrows(), c.ncols());
    if t == 1 || m * n == 0 {
        gemm_op(ks, alpha, a, b, beta, c);
        return;
    }
    let k = a.ncols();
    let split_cols = n >= m;
    let nsplit = usize::min(t, if split_cols { n } else { m });

    // Carve C into per-thread disjoint blocks ahead of the region.
    let mut blocks: Vec<Option<MatMut<S>>> = Vec::with_capacity(t);
    let mut rest = c;
    for tid in 0..t {
        if tid >= nsplit {
            blocks.push(None);
            continue;
        }
        let r = block_range(if split_cols { n } else { m }, nsplit, tid);
        if split_cols {
            let (head, tail) = rest.split_cols_at(r.len());
            blocks.push(Some(head));
            rest = tail;
        } else {
            let (head, tail) = rest.split_rows_at(r.len());
            blocks.push(Some(head));
            rest = tail;
        }
    }

    let mut items: Vec<Option<MatMut<S>>> = blocks;
    pool.run_with_private(
        |tid| items[tid].take(),
        |ctx, item| {
            if let Some(cblk) = item.take() {
                let r = block_range(if split_cols { n } else { m }, nsplit, ctx.thread_id);
                if split_cols {
                    gemm_op(ks, alpha, a, b.cols(r.start, r.len()), beta, cblk);
                } else {
                    gemm_op(
                        ks,
                        alpha,
                        a.submatrix(r.start, 0, r.len(), k),
                        b,
                        beta,
                        cblk,
                    );
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Layout;

    /// Definition-by-summation oracle.
    fn naive_gemm(alpha: f64, a: &MatRef, b: &MatRef, beta: f64, c: &mut [f64], n: usize) {
        let m = a.nrows();
        let k = a.ncols();
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.get(i, p) * b.get(p, j);
                }
                c[i * n + j] = alpha * s + beta * c[i * n + j];
            }
        }
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG so the test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    fn check_case(m: usize, n: usize, k: usize, la: Layout, lb: Layout, alpha: f64, beta: f64) {
        let a_data = rand_vec(m * k, (m * 31 + k) as u64);
        let b_data = rand_vec(k * n, (k * 17 + n) as u64);
        let a = MatRef::from_slice(&a_data, m, k, la);
        let b = MatRef::from_slice(&b_data, k, n, lb);

        let mut c_ref = rand_vec(m * n, 99);
        let mut c_ours = c_ref.clone();
        naive_gemm(alpha, &a, &b, beta, &mut c_ref, n);
        gemm(
            alpha,
            a,
            b,
            beta,
            MatMut::from_slice(&mut c_ours, m, n, Layout::RowMajor),
        );

        for (i, (x, y)) in c_ours.iter().zip(c_ref.iter()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                "m={m} n={n} k={k} idx={i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_oracle_small_sizes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 5, 5),
            (7, 3, 9),
            (1, 8, 1),
            (4, 8, 256),
        ] {
            check_case(m, n, k, Layout::RowMajor, Layout::RowMajor, 1.0, 0.0);
            check_case(m, n, k, Layout::ColMajor, Layout::RowMajor, 1.0, 0.0);
            check_case(m, n, k, Layout::RowMajor, Layout::ColMajor, 1.0, 0.0);
            check_case(m, n, k, Layout::ColMajor, Layout::ColMajor, 1.0, 0.0);
        }
    }

    #[test]
    fn matches_oracle_blocked_sizes() {
        // Cross the MC/KC/NC boundaries and the mr/nr tails.
        for &(m, n, k) in &[(65, 9, 257), (130, 1030, 3), (63, 17, 300), (100, 25, 513)] {
            check_case(m, n, k, Layout::ColMajor, Layout::RowMajor, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(alpha, beta) in &[(1.0, 1.0), (2.5, 0.0), (0.0, 3.0), (-1.0, 0.5), (0.0, 0.0)] {
            check_case(13, 11, 17, Layout::RowMajor, Layout::ColMajor, alpha, beta);
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a_data = vec![1.0; 4];
        let b_data = vec![1.0; 4];
        let a = MatRef::from_slice(&a_data, 2, 2, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 2, 2, Layout::RowMajor);
        let mut c_data = vec![f64::NAN; 4];
        gemm(
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c_data, 2, 2, Layout::RowMajor),
        );
        assert!(c_data.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn transposed_views_multiply_correctly() {
        // C = A^T * B where A is stored 3x2 and viewed 2x3.
        let a_data = rand_vec(6, 5);
        let b_data = rand_vec(9, 6);
        let a = MatRef::from_slice(&a_data, 3, 2, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 3, 3, Layout::RowMajor);
        let at = a.t();

        let mut c_ref = vec![0.0; 6];
        naive_gemm(1.0, &at, &b, 0.0, &mut c_ref, 3);
        let mut c_ours = vec![0.0; 6];
        gemm(
            1.0,
            at,
            b,
            0.0,
            MatMut::from_slice(&mut c_ours, 2, 3, Layout::RowMajor),
        );
        assert_eq!(c_ours, c_ref);
    }

    #[test]
    fn column_major_output() {
        let a_data = rand_vec(12, 7);
        let b_data = rand_vec(20, 8);
        let a = MatRef::from_slice(&a_data, 3, 4, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 4, 5, Layout::RowMajor);
        let mut c_rm = vec![0.0; 15];
        let mut c_cm = vec![0.0; 15];
        gemm(
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c_rm, 3, 5, Layout::RowMajor),
        );
        gemm(
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c_cm, 3, 5, Layout::ColMajor),
        );
        let rm = MatRef::from_slice(&c_rm, 3, 5, Layout::RowMajor);
        let cm = MatRef::from_slice(&c_cm, 3, 5, Layout::ColMajor);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(rm.get(i, j), cm.get(i, j));
            }
        }
    }

    #[test]
    fn par_gemm_matches_sequential() {
        let pool = ThreadPool::new(4);
        for &(m, n, k) in &[(37, 90, 64), (90, 7, 33), (4, 4, 4), (1, 100, 50)] {
            let a_data = rand_vec(m * k, 1);
            let b_data = rand_vec(k * n, 2);
            let a = MatRef::from_slice(&a_data, m, k, Layout::ColMajor);
            let b = MatRef::from_slice(&b_data, k, n, Layout::RowMajor);
            let mut c_seq = rand_vec(m * n, 3);
            let mut c_par = c_seq.clone();
            gemm(
                1.5,
                a,
                b,
                0.5,
                MatMut::from_slice(&mut c_seq, m, n, Layout::RowMajor),
            );
            par_gemm(
                &pool,
                1.5,
                a,
                b,
                0.5,
                MatMut::from_slice(&mut c_par, m, n, Layout::RowMajor),
            );
            for (x, y) in c_par.iter().zip(c_seq.iter()) {
                assert!((x - y).abs() <= 1e-12 * (1.0 + y.abs()));
            }
        }
    }

    #[test]
    fn par_gemm_more_threads_than_rows() {
        let pool = ThreadPool::new(8);
        let a_data = rand_vec(6, 1);
        let b_data = rand_vec(6, 2);
        let a = MatRef::from_slice(&a_data, 3, 2, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 2, 3, Layout::RowMajor);
        let mut c_par = vec![0.0; 9];
        par_gemm(
            &pool,
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c_par, 3, 3, Layout::RowMajor),
        );
        let mut c_seq = vec![0.0; 9];
        gemm(
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c_seq, 3, 3, Layout::RowMajor),
        );
        assert_eq!(c_par, c_seq);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a_data = vec![0.0; 6];
        let b_data = vec![0.0; 6];
        let a = MatRef::from_slice(&a_data, 2, 3, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 2, 3, Layout::RowMajor); // inner dim mismatch
        let mut c = vec![0.0; 4];
        gemm(
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c, 2, 2, Layout::RowMajor),
        );
    }
}
