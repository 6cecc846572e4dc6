//! `aarch64` NEON (AdvSIMD) kernels.
//!
//! Same structure as the `x86_64` module: safe wrappers over
//! `#[target_feature(enable = "neon")]` implementations, handed out
//! only by [`super::KernelSet::for_tier`] after runtime detection
//! (`is_aarch64_feature_detected!("neon")` — true on every mainstream
//! AArch64 core, but checked anyway so the dispatch contract is
//! uniform across architectures).
//!
//! NEON is 128-bit: two lanes of `f64` (`float64x2_t`, `vfmaq_f64`) or
//! four lanes of `f32` (`float32x4_t`, `vfmaq_f32`). The `f32`
//! reductions widen pairs via `vcvt_f64_f32` so `dot` and the SYRK
//! rank-1 update accumulate in `f64`.
//!
//! The GEMM microkernel and A pack are the portable ones
//! ([`super::scalar::gemm_micro`]); a hand NEON tile of the x86 geometry
//! (two vectors along `m`, broadcast rank panels) is future work.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

use super::{scalar, KernelSet, KernelTier};

/// The NEON set. Caller contract: only hand this out after
/// `KernelTier::Neon.supported()` returned true.
pub(crate) fn neon_set_f64() -> KernelSet<f64> {
    KernelSet {
        tier: KernelTier::Neon,
        mr: scalar::MR,
        nr: scalar::NR,
        dot: dot_neon,
        axpy: axpy_neon,
        hadamard: hadamard_neon,
        hadamard_assign: hadamard_assign_neon,
        mul_add: mul_add_neon,
        syrk_rank1_lower: syrk_rank1_lower_neon,
        gemm_micro: scalar::gemm_micro,
        pack_rows: scalar::pack_rows,
    }
}

fn dot_neon(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_neon_impl(x, y) }
}

#[target_feature(enable = "neon")]
unsafe fn dot_neon_impl(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 4 <= n {
        acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
        acc1 = vfmaq_f64(acc1, vld1q_f64(xp.add(i + 2)), vld1q_f64(yp.add(i + 2)));
        i += 4;
    }
    let mut s = vaddvq_f64(vaddq_f64(acc0, acc1));
    while i < n {
        s += x[i] * y[i];
        i += 1;
    }
    s
}

fn axpy_neon(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_neon_impl(alpha, x, y) }
}

#[target_feature(enable = "neon")]
unsafe fn axpy_neon_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let va = vdupq_n_f64(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 2 <= n {
        let r = vfmaq_f64(vld1q_f64(yp.add(i)), va, vld1q_f64(xp.add(i)));
        vst1q_f64(yp.add(i), r);
        i += 2;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

fn hadamard_neon(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_neon_impl(a, b, out) }
}

#[target_feature(enable = "neon")]
unsafe fn hadamard_neon_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 2 <= n {
        vst1q_f64(
            op.add(i),
            vmulq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i))),
        );
        i += 2;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

fn hadamard_assign_neon(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_neon_impl(a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn hadamard_assign_neon_impl(a: &mut [f64], b: &[f64]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 2 <= n {
        vst1q_f64(
            ap.add(i),
            vmulq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i))),
        );
        i += 2;
    }
    while i < n {
        a[i] *= b[i];
        i += 1;
    }
}

fn mul_add_neon(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_neon_impl(a, b, out) }
}

#[target_feature(enable = "neon")]
unsafe fn mul_add_neon_impl(a: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 2 <= n {
        let r = vfmaq_f64(
            vld1q_f64(op.add(i)),
            vld1q_f64(ap.add(i)),
            vld1q_f64(bp.add(i)),
        );
        vst1q_f64(op.add(i), r);
        i += 2;
    }
    while i < n {
        out[i] += a[i] * b[i];
        i += 1;
    }
}

fn syrk_rank1_lower_neon(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_neon_impl(row, acc) }
}

#[target_feature(enable = "neon")]
unsafe fn syrk_rank1_lower_neon_impl(row: &[f64], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        axpy_neon_impl(rp, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}

// ------------------------------------------------------------ NEON (f32)

/// The NEON `f32` set (4 lanes). Same caller contract as
/// [`neon_set_f64`].
pub(crate) fn neon_set_f32() -> KernelSet<f32> {
    KernelSet {
        tier: KernelTier::Neon,
        mr: scalar::MR,
        nr: scalar::NR,
        dot: dot_neon_f32,
        axpy: axpy_neon_f32,
        hadamard: hadamard_neon_f32,
        hadamard_assign: hadamard_assign_neon_f32,
        mul_add: mul_add_neon_f32,
        syrk_rank1_lower: syrk_rank1_lower_neon_f32,
        gemm_micro: scalar::gemm_micro,
        pack_rows: scalar::pack_rows,
    }
}

fn dot_neon_f32(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    unsafe { dot_neon_f32_impl(x, y) }
}

/// `f32` dot with in-register widening: each 4-lane load splits into
/// two `float64x2_t` halves (`vcvt_f64_f32`) before the FMA, so the
/// accumulation is pure `f64`.
#[target_feature(enable = "neon")]
unsafe fn dot_neon_f32_impl(x: &[f32], y: &[f32]) -> f64 {
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 4 <= n {
        let xv = vld1q_f32(xp.add(i));
        let yv = vld1q_f32(yp.add(i));
        acc0 = vfmaq_f64(
            acc0,
            vcvt_f64_f32(vget_low_f32(xv)),
            vcvt_f64_f32(vget_low_f32(yv)),
        );
        acc1 = vfmaq_f64(
            acc1,
            vcvt_f64_f32(vget_high_f32(xv)),
            vcvt_f64_f32(vget_high_f32(yv)),
        );
        i += 4;
    }
    let mut s = vaddvq_f64(vaddq_f64(acc0, acc1));
    while i < n {
        s += x[i] as f64 * y[i] as f64;
        i += 1;
    }
    s
}

fn axpy_neon_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    unsafe { axpy_neon_f32_impl(alpha, x, y) }
}

#[target_feature(enable = "neon")]
unsafe fn axpy_neon_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let va = vdupq_n_f32(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = vfmaq_f32(vld1q_f32(yp.add(i)), va, vld1q_f32(xp.add(i)));
        vst1q_f32(yp.add(i), r);
        i += 4;
    }
    while i < n {
        y[i] = alpha.mul_add(x[i], y[i]);
        i += 1;
    }
}

fn hadamard_neon_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { hadamard_neon_f32_impl(a, b, out) }
}

#[target_feature(enable = "neon")]
unsafe fn hadamard_neon_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        vst1q_f32(
            op.add(i),
            vmulq_f32(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i))),
        );
        i += 4;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

fn hadamard_assign_neon_f32(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    unsafe { hadamard_assign_neon_f32_impl(a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn hadamard_assign_neon_f32_impl(a: &mut [f32], b: &[f32]) {
    let n = a.len();
    let (ap, bp) = (a.as_mut_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        vst1q_f32(
            ap.add(i),
            vmulq_f32(vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i))),
        );
        i += 4;
    }
    while i < n {
        a[i] *= b[i];
        i += 1;
    }
}

fn mul_add_neon_f32(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    unsafe { mul_add_neon_f32_impl(a, b, out) }
}

#[target_feature(enable = "neon")]
unsafe fn mul_add_neon_f32_impl(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let r = vfmaq_f32(
            vld1q_f32(op.add(i)),
            vld1q_f32(ap.add(i)),
            vld1q_f32(bp.add(i)),
        );
        vst1q_f32(op.add(i), r);
        i += 4;
    }
    while i < n {
        out[i] = a[i].mul_add(b[i], out[i]);
        i += 1;
    }
}

/// `y[i] += α·x[i]` with `f32` input and `f64` output, widening four
/// lanes at a time.
#[target_feature(enable = "neon")]
unsafe fn axpy_wide_neon_impl(alpha: f64, x: &[f32], y: &mut [f64]) {
    let n = x.len();
    let va = vdupq_n_f64(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let xv = vld1q_f32(xp.add(i));
        let r0 = vfmaq_f64(vld1q_f64(yp.add(i)), va, vcvt_f64_f32(vget_low_f32(xv)));
        let r1 = vfmaq_f64(
            vld1q_f64(yp.add(i + 2)),
            va,
            vcvt_f64_f32(vget_high_f32(xv)),
        );
        vst1q_f64(yp.add(i), r0);
        vst1q_f64(yp.add(i + 2), r1);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i] as f64;
        i += 1;
    }
}

fn syrk_rank1_lower_neon_f32(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    unsafe { syrk_rank1_lower_neon_f32_impl(row, acc) }
}

#[target_feature(enable = "neon")]
unsafe fn syrk_rank1_lower_neon_f32_impl(row: &[f32], acc: &mut [f64]) {
    let n = row.len();
    for p in 0..n {
        let rp = row[p];
        if rp == 0.0 {
            continue;
        }
        axpy_wide_neon_impl(rp as f64, &row[..p + 1], &mut acc[p * n..p * n + p + 1]);
    }
}
