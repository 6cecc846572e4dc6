//! `x86_64` SIMD kernels: AVX2+FMA and AVX-512F, for `f64` and `f32`.
//!
//! Every public wrapper here is a *safe* fn whose body immediately
//! enters the matching `#[target_feature]` implementation. That is
//! sound because the wrappers are only ever reachable through
//! `avx2_set_*` / `avx512_set_*`, which [`super::KernelSet::for_tier`]
//! refuses to construct unless the running CPU reports the features —
//! the `is_x86_feature_detected!` contract of the module docs.
//!
//! The `f32` kernels run **twice the lanes** of their `f64` twins
//! (AVX2: 8 vs 4, AVX-512: 16 vs 8) while keeping the mixed-precision
//! contract: `dot` and the SYRK rank-1 update widen to `f64`
//! accumulators in registers (`vcvtps2pd` + FMA), so long reductions
//! never round in single precision.
//!
//! The AVX-512 sets additionally assume AVX2+FMA for `f32` tails and
//! widening steps — every CPU with AVX-512F reports both.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

use super::{check_micro_args, check_pack_rows, KernelSet, KernelTier};

/// The AVX2+FMA `f64` set. Caller contract: only hand this out after
/// `KernelTier::Avx2.supported()` returned true.
pub(crate) fn avx2_set_f64() -> KernelSet<f64> {
    KernelSet {
        tier: KernelTier::Avx2,
        mr: 8,
        nr: NR_AVX2,
        dot: dot_avx2,
        axpy: axpy_avx2,
        hadamard: hadamard_avx2,
        hadamard_assign: hadamard_assign_avx2,
        mul_add: mul_add_avx2,
        syrk_rank1_lower: syrk_rank1_lower_avx2,
        gemm_micro: gemm_micro_avx2,
        pack_rows: pack_rows_avx2,
    }
}

/// The AVX-512F `f64` set. Caller contract: only hand this out after
/// `KernelTier::Avx512.supported()` returned true.
pub(crate) fn avx512_set_f64() -> KernelSet<f64> {
    KernelSet {
        tier: KernelTier::Avx512,
        mr: 16,
        nr: NR_AVX512,
        dot: dot_avx512,
        axpy: axpy_avx512,
        hadamard: hadamard_avx512,
        hadamard_assign: hadamard_assign_avx512,
        mul_add: mul_add_avx512,
        syrk_rank1_lower: syrk_rank1_lower_avx512,
        gemm_micro: gemm_micro_avx512,
        pack_rows: pack_rows_avx512,
    }
}

/// The AVX2+FMA `f32` set (8 lanes). Same caller contract as
/// [`avx2_set_f64`].
pub(crate) fn avx2_set_f32() -> KernelSet<f32> {
    KernelSet {
        tier: KernelTier::Avx2,
        mr: 16,
        nr: NR_AVX2,
        dot: dot_avx2_f32,
        axpy: axpy_avx2_f32,
        hadamard: hadamard_avx2_f32,
        hadamard_assign: hadamard_assign_avx2_f32,
        mul_add: mul_add_avx2_f32,
        syrk_rank1_lower: syrk_rank1_lower_avx2_f32,
        gemm_micro: gemm_micro_avx2_f32,
        pack_rows: pack_rows_avx2_f32,
    }
}

/// The AVX-512F `f32` set (16 lanes). Same caller contract as
/// [`avx512_set_f64`].
pub(crate) fn avx512_set_f32() -> KernelSet<f32> {
    KernelSet {
        tier: KernelTier::Avx512,
        mr: 32,
        nr: NR_AVX512,
        dot: dot_avx512_f32,
        axpy: axpy_avx512_f32,
        hadamard: hadamard_avx512_f32,
        hadamard_assign: hadamard_assign_avx512_f32,
        mul_add: mul_add_avx512_f32,
        syrk_rank1_lower: syrk_rank1_lower_avx512_f32,
        gemm_micro: gemm_micro_avx512_f32,
        pack_rows: pack_rows_avx512_f32,
    }
}

/// Horizontal sum of a 256-bit accumulator.
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: __m256d) -> f64 {
    let hi = _mm256_extractf128_pd::<1>(v);
    let lo = _mm256_castpd256_pd128(v);
    let s = _mm_add_pd(lo, hi);
    let hi64 = _mm_unpackhi_pd(s, s);
    _mm_cvtsd_f64(_mm_add_sd(s, hi64))
}

// ---------------------------------------------------------------- AVX2

fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_avx2_impl(x, y) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2_impl(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(xp.add(i + 4)),
            _mm256_loadu_pd(yp.add(i + 4)),
            acc1,
        );
        i += 8;
    }
    if i + 4 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
        i += 4;
    }
    let mut s = hsum256(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += x[i] * y[i];
        i += 1;
    }
    s
}

fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_avx2_impl(alpha, x, y) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let va = _mm256_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_fmadd_pd(va, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
        _mm256_storeu_pd(yp.add(i), r);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

fn hadamard_avx2(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_avx2_impl(a, b, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn hadamard_avx2_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        _mm256_storeu_pd(op.add(i), r);
        i += 4;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

fn hadamard_assign_avx2(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_avx2_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn hadamard_assign_avx2_impl(a: &mut [f64], b: &[f64]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_mul_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        _mm256_storeu_pd(ap.add(i), r);
        i += 4;
    }
    while i < n {
        a[i] *= b[i];
        i += 1;
    }
}

fn mul_add_avx2(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_avx2_impl(a, b, out) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mul_add_avx2_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i)),
            _mm256_loadu_pd(bp.add(i)),
            _mm256_loadu_pd(op.add(i)),
        );
        _mm256_storeu_pd(op.add(i), r);
        i += 4;
    }
    while i < n {
        out[i] += a[i] * b[i];
        i += 1;
    }
}

fn syrk_rank1_lower_avx2(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_avx2_impl(row, acc) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn syrk_rank1_lower_avx2_impl(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        // acc[p·n .. p·n+p+1] += rp · row[0..=p]
        axpy_avx2_impl(rp, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}

// ----------------------------------------------------------- AVX2 (f32)

fn dot_avx2_f32(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_avx2_f32_impl(x, y) }
}

/// `f32` dot with in-register widening: each 8-lane `f32` load is
/// converted to two 4-lane `f64` vectors before the FMA, so the
/// accumulation is pure `f64`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2_f32_impl(x: &[f32], y: &[f32]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let xv = _mm256_loadu_ps(xp.add(i));
        let yv = _mm256_loadu_ps(yp.add(i));
        acc0 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(xv)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(yv)),
            acc0,
        );
        acc1 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(xv)),
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(yv)),
            acc1,
        );
        i += 8;
    }
    let mut s = hsum256(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += x[i] as f64 * y[i] as f64;
        i += 1;
    }
    s
}

fn axpy_avx2_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_avx2_f32_impl(alpha, x, y) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_avx2_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let va = _mm256_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
        _mm256_storeu_ps(yp.add(i), r);
        i += 8;
    }
    while i < n {
        y[i] = alpha.mul_add(x[i], y[i]);
        i += 1;
    }
}

fn hadamard_avx2_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_avx2_f32_impl(a, b, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn hadamard_avx2_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        _mm256_storeu_ps(op.add(i), r);
        i += 8;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

fn hadamard_assign_avx2_f32(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_avx2_f32_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn hadamard_assign_avx2_f32_impl(a: &mut [f32], b: &[f32]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        _mm256_storeu_ps(ap.add(i), r);
        i += 8;
    }
    while i < n {
        a[i] *= b[i];
        i += 1;
    }
}

fn mul_add_avx2_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_avx2_f32_impl(a, b, out) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mul_add_avx2_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(
            _mm256_loadu_ps(ap.add(i)),
            _mm256_loadu_ps(bp.add(i)),
            _mm256_loadu_ps(op.add(i)),
        );
        _mm256_storeu_ps(op.add(i), r);
        i += 8;
    }
    while i < n {
        out[i] = a[i].mul_add(b[i], out[i]);
        i += 1;
    }
}

/// `y[i] += α·x[i]` with `f32` input and `f64` output, widening four
/// lanes at a time (`vcvtps2pd` + FMA).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_wide_avx2_impl(alpha: f64, x: &[f32], y: &mut [f64]) {
    let n = x.len();
    let va = _mm256_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(i)));
        let r = _mm256_fmadd_pd(va, xv, _mm256_loadu_pd(yp.add(i)));
        _mm256_storeu_pd(yp.add(i), r);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i] as f64;
        i += 1;
    }
}

fn syrk_rank1_lower_avx2_f32(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_avx2_f32_impl(row, acc) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn syrk_rank1_lower_avx2_f32_impl(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        axpy_wide_avx2_impl(rp as f64, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}

// -------------------------------------------------------------- AVX-512

fn dot_avx512(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_avx512_impl(x, y) }
}

#[target_feature(enable = "avx512f")]
unsafe fn dot_avx512_impl(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = _mm512_setzero_pd();
    let mut acc1 = _mm512_setzero_pd();
    let mut i = 0;
    while i + 16 <= n {
        acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)), acc0);
        acc1 = _mm512_fmadd_pd(
            _mm512_loadu_pd(xp.add(i + 8)),
            _mm512_loadu_pd(yp.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)), acc0);
        i += 8;
    }
    let mut s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
    while i < n {
        s += x[i] * y[i];
        i += 1;
    }
    s
}

fn axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_avx512_impl(alpha, x, y) }
}

#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let va = _mm512_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_fmadd_pd(va, _mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)));
        _mm512_storeu_pd(yp.add(i), r);
        i += 8;
    }
    if i < n {
        let mask: __mmask8 = (1u8 << (n - i)) - 1;
        let r = _mm512_fmadd_pd(
            va,
            _mm512_maskz_loadu_pd(mask, xp.add(i)),
            _mm512_maskz_loadu_pd(mask, yp.add(i)),
        );
        _mm512_mask_storeu_pd(yp.add(i), mask, r);
    }
}

fn hadamard_avx512(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_avx512_impl(a, b, out) }
}

#[target_feature(enable = "avx512f")]
unsafe fn hadamard_avx512_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_mul_pd(_mm512_loadu_pd(ap.add(i)), _mm512_loadu_pd(bp.add(i)));
        _mm512_storeu_pd(op.add(i), r);
        i += 8;
    }
    if i < n {
        let mask: __mmask8 = (1u8 << (n - i)) - 1;
        let r = _mm512_mul_pd(
            _mm512_maskz_loadu_pd(mask, ap.add(i)),
            _mm512_maskz_loadu_pd(mask, bp.add(i)),
        );
        _mm512_mask_storeu_pd(op.add(i), mask, r);
    }
}

fn hadamard_assign_avx512(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_avx512_impl(a, b) }
}

#[target_feature(enable = "avx512f")]
unsafe fn hadamard_assign_avx512_impl(a: &mut [f64], b: &[f64]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_mul_pd(_mm512_loadu_pd(ap.add(i)), _mm512_loadu_pd(bp.add(i)));
        _mm512_storeu_pd(ap.add(i), r);
        i += 8;
    }
    if i < n {
        let mask: __mmask8 = (1u8 << (n - i)) - 1;
        let r = _mm512_mul_pd(
            _mm512_maskz_loadu_pd(mask, ap.add(i)),
            _mm512_maskz_loadu_pd(mask, bp.add(i)),
        );
        _mm512_mask_storeu_pd(ap.add(i), mask, r);
    }
}

fn mul_add_avx512(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_avx512_impl(a, b, out) }
}

#[target_feature(enable = "avx512f")]
unsafe fn mul_add_avx512_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm512_fmadd_pd(
            _mm512_loadu_pd(ap.add(i)),
            _mm512_loadu_pd(bp.add(i)),
            _mm512_loadu_pd(op.add(i)),
        );
        _mm512_storeu_pd(op.add(i), r);
        i += 8;
    }
    if i < n {
        let mask: __mmask8 = (1u8 << (n - i)) - 1;
        let r = _mm512_fmadd_pd(
            _mm512_maskz_loadu_pd(mask, ap.add(i)),
            _mm512_maskz_loadu_pd(mask, bp.add(i)),
            _mm512_maskz_loadu_pd(mask, op.add(i)),
        );
        _mm512_mask_storeu_pd(op.add(i), mask, r);
    }
}

fn syrk_rank1_lower_avx512(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_avx512_impl(row, acc) }
}

#[target_feature(enable = "avx512f")]
unsafe fn syrk_rank1_lower_avx512_impl(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        axpy_avx512_impl(rp, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}

// --------------------------------------------------------- AVX-512 (f32)

fn dot_avx512_f32(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_avx512_f32_impl(x, y) }
}

/// `f32` dot with in-register widening to 8-lane `f64` vectors
/// (`vcvtps2pd` zmm form), two per 16-element step.
#[target_feature(enable = "avx512f")]
unsafe fn dot_avx512_f32_impl(x: &[f32], y: &[f32]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = _mm512_setzero_pd();
    let mut acc1 = _mm512_setzero_pd();
    let mut i = 0;
    while i + 16 <= n {
        acc0 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(xp.add(i))),
            _mm512_cvtps_pd(_mm256_loadu_ps(yp.add(i))),
            acc0,
        );
        acc1 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(xp.add(i + 8))),
            _mm512_cvtps_pd(_mm256_loadu_ps(yp.add(i + 8))),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(xp.add(i))),
            _mm512_cvtps_pd(_mm256_loadu_ps(yp.add(i))),
            acc0,
        );
        i += 8;
    }
    let mut s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
    while i < n {
        s += x[i] as f64 * y[i] as f64;
        i += 1;
    }
    s
}

fn axpy_avx512_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_avx512_f32_impl(alpha, x, y) }
}

#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let va = _mm512_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 16 <= n {
        let r = _mm512_fmadd_ps(va, _mm512_loadu_ps(xp.add(i)), _mm512_loadu_ps(yp.add(i)));
        _mm512_storeu_ps(yp.add(i), r);
        i += 16;
    }
    if i < n {
        let mask: __mmask16 = (1u32 << (n - i)) as u16 - 1;
        let r = _mm512_fmadd_ps(
            va,
            _mm512_maskz_loadu_ps(mask, xp.add(i)),
            _mm512_maskz_loadu_ps(mask, yp.add(i)),
        );
        _mm512_mask_storeu_ps(yp.add(i), mask, r);
    }
}

fn hadamard_avx512_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_avx512_f32_impl(a, b, out) }
}

#[target_feature(enable = "avx512f")]
unsafe fn hadamard_avx512_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 16 <= n {
        let r = _mm512_mul_ps(_mm512_loadu_ps(ap.add(i)), _mm512_loadu_ps(bp.add(i)));
        _mm512_storeu_ps(op.add(i), r);
        i += 16;
    }
    if i < n {
        let mask: __mmask16 = (1u32 << (n - i)) as u16 - 1;
        let r = _mm512_mul_ps(
            _mm512_maskz_loadu_ps(mask, ap.add(i)),
            _mm512_maskz_loadu_ps(mask, bp.add(i)),
        );
        _mm512_mask_storeu_ps(op.add(i), mask, r);
    }
}

fn hadamard_assign_avx512_f32(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_avx512_f32_impl(a, b) }
}

#[target_feature(enable = "avx512f")]
unsafe fn hadamard_assign_avx512_f32_impl(a: &mut [f32], b: &[f32]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 16 <= n {
        let r = _mm512_mul_ps(_mm512_loadu_ps(ap.add(i)), _mm512_loadu_ps(bp.add(i)));
        _mm512_storeu_ps(ap.add(i), r);
        i += 16;
    }
    if i < n {
        let mask: __mmask16 = (1u32 << (n - i)) as u16 - 1;
        let r = _mm512_mul_ps(
            _mm512_maskz_loadu_ps(mask, ap.add(i)),
            _mm512_maskz_loadu_ps(mask, bp.add(i)),
        );
        _mm512_mask_storeu_ps(ap.add(i), mask, r);
    }
}

fn mul_add_avx512_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_avx512_f32_impl(a, b, out) }
}

#[target_feature(enable = "avx512f")]
unsafe fn mul_add_avx512_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 16 <= n {
        let r = _mm512_fmadd_ps(
            _mm512_loadu_ps(ap.add(i)),
            _mm512_loadu_ps(bp.add(i)),
            _mm512_loadu_ps(op.add(i)),
        );
        _mm512_storeu_ps(op.add(i), r);
        i += 16;
    }
    if i < n {
        let mask: __mmask16 = (1u32 << (n - i)) as u16 - 1;
        let r = _mm512_fmadd_ps(
            _mm512_maskz_loadu_ps(mask, ap.add(i)),
            _mm512_maskz_loadu_ps(mask, bp.add(i)),
            _mm512_maskz_loadu_ps(mask, op.add(i)),
        );
        _mm512_mask_storeu_ps(op.add(i), mask, r);
    }
}

/// `y[i] += α·x[i]` with `f32` input and `f64` output, widening eight
/// lanes at a time.
#[target_feature(enable = "avx512f")]
unsafe fn axpy_wide_avx512_impl(alpha: f64, x: &[f32], y: &mut [f64]) {
    let n = x.len();
    let va = _mm512_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let xv = _mm512_cvtps_pd(_mm256_loadu_ps(xp.add(i)));
        let r = _mm512_fmadd_pd(va, xv, _mm512_loadu_pd(yp.add(i)));
        _mm512_storeu_pd(yp.add(i), r);
        i += 8;
    }
    while i < n {
        y[i] += alpha * x[i] as f64;
        i += 1;
    }
}

fn syrk_rank1_lower_avx512_f32(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_avx512_f32_impl(row, acc) }
}

#[target_feature(enable = "avx512f")]
unsafe fn syrk_rank1_lower_avx512_f32_impl(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        axpy_wide_avx512_impl(rp as f64, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}

// ------------------------------------------------------------ GEMM tiles
//
// One tile geometry for every tier and element type: MR = two vectors
// along m (the tensor's I_n rows), B broadcast along n (the rank) at an
// exact panel width w <= nr, 2·w independent accumulators. A full-width
// panel holds 24 zmm accumulators on AVX-512 and 12 ymm on AVX2, leaving
// room for the two A vectors and one broadcast.

/// Widest rank panel of the AVX-512 tiles (24 of 32 zmm accumulate).
const NR_AVX512: usize = 12;
/// Widest rank panel of the AVX2 tiles (12 of 16 ymm accumulate).
const NR_AVX2: usize = 6;
const _: () = assert!(NR_AVX512 <= super::MAX_NR && NR_AVX2 <= super::MAX_NR);

/// Defines a tile's safe `gemm_micro` wrapper `$micro` and the
/// `MR × W` kernel `$tile` (`MR = 2·lanes`) it dispatches to, one
/// const-generic instantiation per listed width `1..=nr`. Per step the
/// kernel loads two A vectors from column `p` (`a[p·lda ..]`: a packed
/// micro-panel when `lda = MR`, a strip of a column-major block
/// otherwise), broadcasts `W` entries of B (`b[p·W ..]`) and issues
/// `2·W` FMAs into register accumulators, which it adds into the
/// column-major tile `t` at the end.
macro_rules! simd_gemm_micro {
    ($micro:ident, $tile:ident, $t:ty, $feat:literal, $lanes:literal, $nr:expr, [$($w:literal),*],
     $zero:ident, $load:ident, $store:ident, $set1:ident, $fma:ident, $add:ident) => {
        fn $micro(kc: usize, w: usize, a: &[$t], lda: usize, b_panel: &[$t], tile: &mut [$t]) {
            check_micro_args(2 * $lanes, $nr, kc, w, a.len(), lda, b_panel.len(), tile.len());
            let (a, b, t) = (a.as_ptr(), b_panel.as_ptr(), tile.as_mut_ptr());
            // SAFETY: the set holding this kernel exists only where its
            // target features were detected, and the check above bounds
            // every A and B read and tile access.
            unsafe {
                match w {
                    $($w => $tile::<$w>(kc, a, lda, b, t),)*
                    _ => unreachable!("panel width is checked by check_micro_args"),
                }
            }
        }

        /// # Safety
        /// The CPU supports the tile's target features; `a` is readable
        /// at `p·lda + i` for `p < kc`, `i < MR`, `b` for `kc·W`
        /// elements, and `t` is readable and writable for `MR·W`.
        #[target_feature(enable = $feat)]
        unsafe fn $tile<const W: usize>(
            kc: usize,
            a: *const $t,
            lda: usize,
            b: *const $t,
            t: *mut $t,
        ) {
            const MR: usize = 2 * $lanes;
            let mut lo = [$zero(); W];
            let mut hi = [$zero(); W];
            let (mut ap, mut bp) = (a, b);
            for _ in 0..kc {
                let a0 = $load(ap);
                let a1 = $load(ap.add($lanes));
                for j in 0..W {
                    let bj = $set1(*bp.add(j));
                    lo[j] = $fma(a0, bj, lo[j]);
                    hi[j] = $fma(a1, bj, hi[j]);
                }
                ap = ap.wrapping_add(lda);
                bp = bp.add(W);
            }
            for j in 0..W {
                let tj = t.add(MR * j);
                $store(tj, $add($load(tj), lo[j]));
                $store(tj.add($lanes), $add($load(tj.add($lanes)), hi[j]));
            }
        }
    };
}

simd_gemm_micro! {
    gemm_micro_avx2, tile_avx2, f64, "avx2,fma", 4, NR_AVX2, [1, 2, 3, 4, 5, 6],
    _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_add_pd
}
simd_gemm_micro! {
    gemm_micro_avx2_f32, tile_avx2_f32, f32, "avx2,fma", 8, NR_AVX2, [1, 2, 3, 4, 5, 6],
    _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_add_ps
}
simd_gemm_micro! {
    gemm_micro_avx512, tile_avx512, f64, "avx512f", 8, NR_AVX512, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_add_pd
}
simd_gemm_micro! {
    gemm_micro_avx512_f32, tile_avx512_f32, f32, "avx512f", 16, NR_AVX512, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_add_ps
}

// --------------------------------------------- transposing packs of A
//
// A with unit column stride (row-major tensor blocks, the last mode,
// the 2-step `X(0:n−1)ᵀ`) is packed `lanes` rows at a time: load one
// vector from each row, transpose the `lanes × lanes` block in
// registers, and store each column as one vector of the micro-panel.

/// Defines a `pack_rows` wrapper for an `MR = 2·lanes` tile on top of
/// an in-register `lanes × lanes` transpose.
macro_rules! simd_pack_rows {
    ($name:ident, $imp:ident, $t:ty, $feat:literal, $lanes:literal,
     $zero:ident, $load:ident, $store:ident, $transpose:ident) => {
        fn $name(rows: &[&[$t]], dst: &mut [$t]) {
            let kc = check_pack_rows(2 * $lanes, rows, dst.len());
            // SAFETY: the set exists only where the target features were
            // detected; the check bounds every row read and panel write.
            unsafe { $imp(rows, kc, dst) }
        }

        /// # Safety
        /// The CPU supports the target features, every row has `kc`
        /// elements, `rows.len() <= MR` and `dst.len() >= kc·MR`.
        #[target_feature(enable = $feat)]
        unsafe fn $imp(rows: &[&[$t]], kc: usize, dst: &mut [$t]) {
            const L: usize = $lanes;
            const MR: usize = 2 * L;
            let d = dst.as_mut_ptr();
            for g in 0..2 {
                let group = rows.get(g * L..).unwrap_or(&[]);
                let group = &group[..group.len().min(L)];
                let mut p = 0;
                while p + L <= kc {
                    let mut r = [$zero(); L];
                    for (v, row) in r.iter_mut().zip(group) {
                        *v = $load(row.as_ptr().add(p));
                    }
                    for (j, col) in $transpose(r).into_iter().enumerate() {
                        $store(d.add((p + j) * MR + g * L), col);
                    }
                    p += L;
                }
                for p in p..kc {
                    for i in 0..L {
                        *d.add(p * MR + g * L + i) = group.get(i).map_or(0.0, |row| row[p]);
                    }
                }
            }
        }
    };
}

simd_pack_rows! {
    pack_rows_avx2, pack_rows_avx2_impl, f64, "avx2", 4,
    _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, transpose4_pd
}
simd_pack_rows! {
    pack_rows_avx2_f32, pack_rows_avx2_f32_impl, f32, "avx2", 8,
    _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, transpose8_ps
}
simd_pack_rows! {
    pack_rows_avx512, pack_rows_avx512_impl, f64, "avx512f", 8,
    _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, transpose8_pd
}
simd_pack_rows! {
    pack_rows_avx512_f32, pack_rows_avx512_f32_impl, f32, "avx512f", 16,
    _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, transpose16_ps
}

/// 4×4 `f64` transpose: `out[j]` lane `i` is `r[i]` lane `j`.
///
/// # Safety
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn transpose4_pd(r: [__m256d; 4]) -> [__m256d; 4] {
    // t[0]/t[1]: even/odd columns of rows 0–1, per 128-bit half.
    let t = [
        _mm256_unpacklo_pd(r[0], r[1]),
        _mm256_unpackhi_pd(r[0], r[1]),
        _mm256_unpacklo_pd(r[2], r[3]),
        _mm256_unpackhi_pd(r[2], r[3]),
    ];
    [
        _mm256_permute2f128_pd::<0x20>(t[0], t[2]),
        _mm256_permute2f128_pd::<0x20>(t[1], t[3]),
        _mm256_permute2f128_pd::<0x31>(t[0], t[2]),
        _mm256_permute2f128_pd::<0x31>(t[1], t[3]),
    ]
}

/// 8×8 `f32` transpose: `out[j]` lane `i` is `r[i]` lane `j`.
///
/// # Safety
/// The CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn transpose8_ps(r: [__m256; 8]) -> [__m256; 8] {
    // x[c][g], g = row quad: lane 4h + k holds column 4h + c of row 4g + k.
    let mut x = [[_mm256_setzero_pd(); 2]; 4];
    for g in 0..2 {
        let q = 4 * g;
        let lo01 = _mm256_castps_pd(_mm256_unpacklo_ps(r[q], r[q + 1]));
        let lo23 = _mm256_castps_pd(_mm256_unpacklo_ps(r[q + 2], r[q + 3]));
        let hi01 = _mm256_castps_pd(_mm256_unpackhi_ps(r[q], r[q + 1]));
        let hi23 = _mm256_castps_pd(_mm256_unpackhi_ps(r[q + 2], r[q + 3]));
        x[0][g] = _mm256_unpacklo_pd(lo01, lo23);
        x[1][g] = _mm256_unpackhi_pd(lo01, lo23);
        x[2][g] = _mm256_unpacklo_pd(hi01, hi23);
        x[3][g] = _mm256_unpackhi_pd(hi01, hi23);
    }
    let mut out = [_mm256_setzero_ps(); 8];
    for c in 0..4 {
        let (a, b) = (_mm256_castpd_ps(x[c][0]), _mm256_castpd_ps(x[c][1]));
        out[c] = _mm256_permute2f128_ps::<0x20>(a, b);
        out[c + 4] = _mm256_permute2f128_ps::<0x31>(a, b);
    }
    out
}

/// 128-bit-lane selectors of `vshuff64x2` / `vshuff32x4`: lanes 0 and 2
/// (`LANES02`) or 1 and 3 (`LANES13`) of each source.
const LANES02: i32 = 0b10_00_10_00;
const LANES13: i32 = 0b11_01_11_01;

/// 8×8 `f64` transpose: `out[j]` lane `i` is `r[i]` lane `j`.
///
/// # Safety
/// The CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose8_pd(r: [__m512d; 8]) -> [__m512d; 8] {
    let mut out = [_mm512_setzero_pd(); 8];
    for s in 0..2 {
        // Row pairs' columns s, s+2, s+4, s+6 (one 128-bit lane each).
        let [t01, t23, t45, t67] = if s == 0 {
            [
                _mm512_unpacklo_pd(r[0], r[1]),
                _mm512_unpacklo_pd(r[2], r[3]),
                _mm512_unpacklo_pd(r[4], r[5]),
                _mm512_unpacklo_pd(r[6], r[7]),
            ]
        } else {
            [
                _mm512_unpackhi_pd(r[0], r[1]),
                _mm512_unpackhi_pd(r[2], r[3]),
                _mm512_unpackhi_pd(r[4], r[5]),
                _mm512_unpackhi_pd(r[6], r[7]),
            ]
        };
        // Rows 0–3 / 4–7, columns (s, s+4) and (s+2, s+6).
        let u_lo = _mm512_shuffle_f64x2::<LANES02>(t01, t23);
        let u_hi = _mm512_shuffle_f64x2::<LANES13>(t01, t23);
        let v_lo = _mm512_shuffle_f64x2::<LANES02>(t45, t67);
        let v_hi = _mm512_shuffle_f64x2::<LANES13>(t45, t67);
        out[s] = _mm512_shuffle_f64x2::<LANES02>(u_lo, v_lo);
        out[s + 4] = _mm512_shuffle_f64x2::<LANES13>(u_lo, v_lo);
        out[s + 2] = _mm512_shuffle_f64x2::<LANES02>(u_hi, v_hi);
        out[s + 6] = _mm512_shuffle_f64x2::<LANES13>(u_hi, v_hi);
    }
    out
}

/// 16×16 `f32` transpose: `out[j]` lane `i` is `r[i]` lane `j`.
///
/// # Safety
/// The CPU supports AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose16_ps(r: [__m512; 16]) -> [__m512; 16] {
    // x[c][g], g = row quad: 128-bit lane h holds column 4h + c of rows
    // 4g .. 4g+3.
    let mut x = [[_mm512_setzero_pd(); 4]; 4];
    for g in 0..4 {
        let q = 4 * g;
        let lo01 = _mm512_castps_pd(_mm512_unpacklo_ps(r[q], r[q + 1]));
        let lo23 = _mm512_castps_pd(_mm512_unpacklo_ps(r[q + 2], r[q + 3]));
        let hi01 = _mm512_castps_pd(_mm512_unpackhi_ps(r[q], r[q + 1]));
        let hi23 = _mm512_castps_pd(_mm512_unpackhi_ps(r[q + 2], r[q + 3]));
        x[0][g] = _mm512_unpacklo_pd(lo01, lo23);
        x[1][g] = _mm512_unpackhi_pd(lo01, lo23);
        x[2][g] = _mm512_unpacklo_pd(hi01, hi23);
        x[3][g] = _mm512_unpackhi_pd(hi01, hi23);
    }
    let mut out = [_mm512_setzero_ps(); 16];
    for c in 0..4 {
        let q = [
            _mm512_castpd_ps(x[c][0]),
            _mm512_castpd_ps(x[c][1]),
            _mm512_castpd_ps(x[c][2]),
            _mm512_castpd_ps(x[c][3]),
        ];
        // Columns (c, c+8) and (c+4, c+12) of rows 0–7 / 8–15.
        let y0 = _mm512_shuffle_f32x4::<LANES02>(q[0], q[1]);
        let y1 = _mm512_shuffle_f32x4::<LANES13>(q[0], q[1]);
        let y2 = _mm512_shuffle_f32x4::<LANES02>(q[2], q[3]);
        let y3 = _mm512_shuffle_f32x4::<LANES13>(q[2], q[3]);
        out[c] = _mm512_shuffle_f32x4::<LANES02>(y0, y2);
        out[c + 8] = _mm512_shuffle_f32x4::<LANES13>(y0, y2);
        out[c + 4] = _mm512_shuffle_f32x4::<LANES02>(y1, y3);
        out[c + 12] = _mm512_shuffle_f32x4::<LANES13>(y1, y3);
    }
    out
}
