//! Portable reference kernels — the semantic ground truth every SIMD
//! tier is property-tested against.
//!
//! These are plain Rust loops written so LLVM's autovectorizer does
//! well on them (independent partial sums, fixed-width inner blocks);
//! they are also the fallback tier on CPUs without AVX2/NEON. Every
//! kernel is generic over the element type [`Scalar`]; the reductions
//! (`dot`, `syrk_rank1_lower`) accumulate in `f64` regardless of the
//! storage type, matching the SIMD tiers' mixed-precision contract.

use super::{check_micro_args, check_pack_rows};
use crate::scalar::Scalar;

/// Dot product `Σ x[i]·y[i]`, accumulated in `f64`.
///
/// Accumulates in four independent partial sums so the loop vectorizes
/// and the rounding behaviour is deterministic for a given length.
pub fn dot<S: Scalar>(x: &[S], y: &[S]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xb = &x[c * 4..c * 4 + 4];
        let yb = &y[c * 4..c * 4 + 4];
        for l in 0..4 {
            acc[l] += xb[l].to_f64() * yb[l].to_f64();
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..x.len() {
        s += x[i].to_f64() * y[i].to_f64();
    }
    s
}

/// `y[i] += α·x[i]`.
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// `out[i] = a[i]·b[i]`.
pub fn hadamard<S: Scalar>(a: &[S], b: &[S], out: &mut [S]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for i in 0..out.len() {
        out[i] = a[i] * b[i];
    }
}

/// `a[i] *= b[i]`.
pub fn hadamard_assign<S: Scalar>(a: &mut [S], b: &[S]) {
    debug_assert_eq!(a.len(), b.len());
    for (ai, &bi) in a.iter_mut().zip(b.iter()) {
        *ai *= bi;
    }
}

/// `out[i] += a[i]·b[i]`.
pub fn mul_add<S: Scalar>(a: &[S], b: &[S], out: &mut [S]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &ai), &bi) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += ai * bi;
    }
}

/// Rank-1 lower-triangle SYRK row update into an `f64` accumulator:
/// `acc[p·n .. p·n+p+1] += row[p] · row[0..=p]` for `p in 0..n`.
pub fn syrk_rank1_lower<S: Scalar>(row: &[S], acc: &mut [f64]) {
    let n = row.len();
    debug_assert_eq!(acc.len(), n * n);
    for p in 0..n {
        let rp = row[p];
        if rp == S::ZERO {
            continue;
        }
        let rp = rp.to_f64();
        let dst = &mut acc[p * n..p * n + p + 1];
        for (q, d) in dst.iter_mut().enumerate() {
            *d += rp * row[q].to_f64();
        }
    }
}

/// Tile height of the portable GEMM microkernel (rows of C).
pub(crate) const MR: usize = 8;
/// Widest rank panel of the portable GEMM microkernel.
pub(crate) const NR: usize = 4;

/// The `mr × w` GEMM microkernel of the
/// [`KernelSet::gemm_micro`](super::KernelSet::gemm_micro) contract with
/// `mr = MR`, `w <= NR`: `tile[j·MR + i] += Σ_p a[p·lda + i] ·
/// b_panel[p·w + j]`, reading A's column `p` at `a[p·lda ..]` so packed
/// micro-panels (`lda = MR`) and column-major blocks (`lda >= MR`) go
/// through the same loop. Also the NEON sets' microkernel, and so the
/// only GEMM tile `aarch64` builds.
pub fn gemm_micro<S: Scalar>(
    kc: usize,
    w: usize,
    a: &[S],
    lda: usize,
    b_panel: &[S],
    tile: &mut [S],
) {
    check_micro_args(MR, NR, kc, w, a.len(), lda, b_panel.len(), tile.len());
    match w {
        1 => micro_tile::<S, 1>(kc, a, lda, b_panel, tile),
        2 => micro_tile::<S, 2>(kc, a, lda, b_panel, tile),
        3 => micro_tile::<S, 3>(kc, a, lda, b_panel, tile),
        _ => micro_tile::<S, 4>(kc, a, lda, b_panel, tile),
    }
}

/// One width of [`gemm_micro`]: the `MR × W` accumulator lives in
/// locals, and the fixed-width inner loop along `m` autovectorizes.
#[inline(always)]
fn micro_tile<S: Scalar, const W: usize>(
    kc: usize,
    a: &[S],
    lda: usize,
    b_panel: &[S],
    tile: &mut [S],
) {
    let mut acc = [[S::ZERO; MR]; W];
    for (p, b) in b_panel.chunks_exact(W).take(kc).enumerate() {
        let a: &[S; MR] = a[p * lda..p * lda + MR]
            .try_into()
            .expect("MR-element column");
        for j in 0..W {
            for i in 0..MR {
                acc[j][i] += a[i] * b[j];
            }
        }
    }
    for (t, col) in tile.chunks_exact_mut(MR).zip(acc.iter()) {
        for i in 0..MR {
            t[i] += col[i];
        }
    }
}

/// The portable `pack_rows`: `dst[p·MR + i] = rows[i][p]`, zero rows
/// past `rows.len()`.
pub fn pack_rows<S: Scalar>(rows: &[&[S]], dst: &mut [S]) {
    let kc = check_pack_rows(MR, rows, dst.len());
    for (p, d) in dst.chunks_exact_mut(MR).take(kc).enumerate() {
        for (i, v) in d.iter_mut().enumerate() {
            *v = rows.get(i).map_or(S::ZERO, |r| r[p]);
        }
    }
}
