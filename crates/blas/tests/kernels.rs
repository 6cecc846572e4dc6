//! Kernel-parity property tests: every dispatch tier the host CPU
//! supports must agree with the scalar reference to ≤ 1e-13 relative
//! error on seeded random inputs, including unaligned/remainder
//! lengths, `alpha == 0`, the NaN-clearing `beta` semantics of the full
//! GEMM, every rank-panel width of the microkernel and every class of
//! its A leading dimension, and the CP shapes (tall `m`, narrow ragged
//! `n`, deep `k`) over all three pack classes of A. The blocked GEMM is
//! also held to a naive product directly: `β = 0` over a NaN-filled `C`
//! (so `C` is written once and never read) and `β ∉ {0, 1}` scaling.
//! A GEMM whose `B` is a Khatri-Rao product generated in the pack
//! (`KrpRef`) must equal the same GEMM on the materialised KRP bit for
//! bit, on every tier, sequential and parallel.
//!
//! The `f32` kernel sets are held to the same structure: the two `f64`
//! reductions (`dot`, SYRK) keep near-f64 tolerances because they
//! accumulate in `f64` on every tier, while the natively-`f32`
//! elementwise and GEMM kernels get f32-appropriate budgets.

use mttkrp_blas::kernels::{available_tiers, KernelSet, KernelTier};
use mttkrp_blas::{
    gemm_krp_with, gemm_with, par_gemm_krp_with, par_gemm_with, syrk_t_with, KrpRef, Layout,
    MatMut, MatRef, Scalar,
};
use mttkrp_krp::krp_reuse;
use mttkrp_parallel::ThreadPool;

/// Relative-error budget of the acceptance criterion.
const TOL: f64 = 1e-13;

/// Lengths crossing every SIMD width boundary (2/4/8/16 lanes) plus
/// their off-by-one neighbours and a few long streams.
const LENGTHS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255,
    1000,
];

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 32) as f64) - 0.5
        })
        .collect()
}

fn assert_close(got: f64, want: f64, ctx: &str) {
    assert!(
        (got - want).abs() <= TOL * (1.0 + want.abs()),
        "{ctx}: {got} vs {want}"
    );
}

fn assert_all_close(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() <= TOL * (1.0 + w.abs()),
            "{ctx}[{i}]: {g} vs {w}"
        );
    }
}

/// SIMD tiers to compare against the scalar reference (scalar itself is
/// skipped — it would compare against itself).
fn simd_tiers() -> Vec<(KernelTier, KernelSet)> {
    available_tiers()
        .into_iter()
        .filter(|&t| t != KernelTier::Scalar)
        .map(|t| (t, KernelSet::for_tier(t).expect("listed tier resolves")))
        .collect()
}

#[test]
fn dot_matches_scalar_on_all_lengths() {
    let reference = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for &n in LENGTHS {
            let x = rand_vec(n, 11 + n as u64);
            let y = rand_vec(n, 29 + n as u64);
            let want = (reference.dot)(&x, &y);
            let got = (ks.dot)(&x, &y);
            assert_close(got, want, &format!("dot {tier} n={n}"));
        }
    }
}

#[test]
fn axpy_matches_scalar_including_alpha_zero() {
    let reference = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for &n in LENGTHS {
            for &alpha in &[0.0, 1.0, -2.5, 0.37] {
                let x = rand_vec(n, 3 + n as u64);
                let y0 = rand_vec(n, 5 + n as u64);
                let mut want = y0.clone();
                (reference.axpy)(alpha, &x, &mut want);
                let mut got = y0.clone();
                (ks.axpy)(alpha, &x, &mut got);
                assert_all_close(&got, &want, &format!("axpy {tier} n={n} alpha={alpha}"));
            }
        }
    }
}

#[test]
fn hadamard_family_matches_scalar() {
    let reference = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for &n in LENGTHS {
            let a = rand_vec(n, 7 + n as u64);
            let b = rand_vec(n, 13 + n as u64);

            let mut want = vec![f64::NAN; n];
            (reference.hadamard)(&a, &b, &mut want);
            let mut got = vec![f64::NAN; n];
            (ks.hadamard)(&a, &b, &mut got);
            assert_all_close(&got, &want, &format!("hadamard {tier} n={n}"));

            let mut want_assign = a.clone();
            (reference.hadamard_assign)(&mut want_assign, &b);
            let mut got_assign = a.clone();
            (ks.hadamard_assign)(&mut got_assign, &b);
            assert_all_close(
                &got_assign,
                &want_assign,
                &format!("hadamard_assign {tier} n={n}"),
            );

            let acc0 = rand_vec(n, 17 + n as u64);
            let mut want_acc = acc0.clone();
            (reference.mul_add)(&a, &b, &mut want_acc);
            let mut got_acc = acc0.clone();
            (ks.mul_add)(&a, &b, &mut got_acc);
            assert_all_close(&got_acc, &want_acc, &format!("mul_add {tier} n={n}"));
        }
    }
}

#[test]
fn syrk_rank1_lower_matches_scalar() {
    let reference = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 25, 33] {
            let row = rand_vec(n, 41 + n as u64);
            let acc0 = rand_vec(n * n, 43 + n as u64);
            let mut want = acc0.clone();
            (reference.syrk_rank1_lower)(&row, &mut want);
            let mut got = acc0.clone();
            (ks.syrk_rank1_lower)(&row, &mut got);
            assert_all_close(&got, &want, &format!("syrk_rank1_lower {tier} n={n}"));
        }
    }
}

#[test]
fn syrk_rank1_lower_with_zero_entries_skips_consistently() {
    // Zero entries in the row exercise the early-continue path.
    let reference = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        let mut row = rand_vec(9, 71);
        row[0] = 0.0;
        row[4] = 0.0;
        row[8] = 0.0;
        let mut want = vec![0.0; 81];
        (reference.syrk_rank1_lower)(&row, &mut want);
        let mut got = vec![0.0; 81];
        (ks.syrk_rank1_lower)(&row, &mut got);
        assert_all_close(&got, &want, &format!("syrk zero-entries {tier}"));
    }
}

#[test]
fn gemm_micro_matches_naive_panel_product() {
    // Every set at every panel width `1..=nr`, against a naive product
    // over its own packed layout (`a_panel[p·mr + i]`, `b_panel[p·w + j]`,
    // column-major `mr × w` tile).
    for (tier, ks) in std::iter::once((KernelTier::Scalar, KernelSet::scalar())).chain(simd_tiers())
    {
        let mr = ks.mr();
        for w in 1..=ks.nr() {
            for kc in [0usize, 1, 2, 3, 8, 17, 100, 255, 256] {
                let a_panel = rand_vec(kc * mr, 51 + kc as u64);
                let b_panel = rand_vec(kc * w, 53 + (kc * w) as u64);
                let init = rand_vec(mr * w, 57 + kc as u64);
                let mut got = init.clone();
                (ks.gemm_micro)(kc, w, &a_panel, mr, &b_panel, &mut got);
                let mut want = init;
                for p in 0..kc {
                    for j in 0..w {
                        for i in 0..mr {
                            want[j * mr + i] += a_panel[p * mr + i] * b_panel[p * w + j];
                        }
                    }
                }
                assert_all_close(&got, &want, &format!("gemm_micro {tier} w={w} kc={kc}"));
            }
        }
    }
}

/// `gemm_micro` with leading dimension `lda` against the naive
/// `tile[j·mr + i] += Σ_p a[p·lda + i] · b[p·w + j]`, accumulated in
/// `f64`, for every width and a few depths including the `k`-block of
/// either dtype. A holds exactly `(kc − 1)·lda + mr` elements (filler
/// between the columns is NaN, so a read outside the strip shows), and
/// the result must be within `tol` of the oracle.
fn check_micro_lda<S: Scalar>(tier: KernelTier, ks: &KernelSet<S>, lda: usize, tol: f64) {
    let mr = ks.mr();
    for w in 1..=ks.nr() {
        for kc in [0usize, 1, 2, 17, 256, 512] {
            let len = kc.checked_sub(1).map_or(0, |p| p * lda + mr);
            let vals = rand_vec(len, 61 + (kc * lda) as u64);
            let a: Vec<S> = (0..len)
                .map(|x| S::from_f64(if x % lda < mr { vals[x] } else { f64::NAN }))
                .collect();
            let b: Vec<S> = rand_vec(kc * w, 67 + w as u64)
                .into_iter()
                .map(S::from_f64)
                .collect();
            let init: Vec<S> = rand_vec(mr * w, 71).into_iter().map(S::from_f64).collect();
            let mut got = init.clone();
            (ks.gemm_micro)(kc, w, &a, lda, &b, &mut got);
            for j in 0..w {
                for i in 0..mr {
                    let want = init[j * mr + i].to_f64()
                        + (0..kc)
                            .map(|p| a[p * lda + i].to_f64() * b[p * w + j].to_f64())
                            .sum::<f64>();
                    let g = got[j * mr + i].to_f64();
                    assert!(
                        (g - want).abs() <= tol * (1.0 + want.abs()),
                        "{} gemm_micro {tier} lda={lda} w={w} kc={kc} [{i},{j}]: {g} vs {want}",
                        S::DTYPE
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_micro_reads_a_through_its_leading_dimension() {
    // lda = mr is the packed micro-panel, mr + 8 a padded column-major
    // block, and 1031 (odd, larger than any MC block) an arbitrary
    // stride: one kernel serves them all, on every tier and dtype.
    for tier in available_tiers() {
        let k64 = KernelSet::<f64>::for_tier(tier).unwrap();
        let k32 = KernelSet::<f32>::for_tier(tier).unwrap();
        for lda_of in [|mr| mr, |mr| mr + 8, |_| 1031] {
            check_micro_lda(tier, &k64, lda_of(k64.mr()), TOL);
            check_micro_lda(tier, &k32, lda_of(k32.mr()), TOL32_GEMM);
        }
    }
}

#[test]
#[should_panic(expected = "gemm_micro")]
fn gemm_micro_rejects_an_a_shorter_than_its_strided_reach() {
    let ks = KernelSet::<f64>::scalar();
    let (mr, kc, lda) = (ks.mr(), 4, ks.mr() + 8);
    // One element short of (kc − 1)·lda + mr.
    let a = vec![0.0; (kc - 1) * lda + mr - 1];
    let mut tile = vec![0.0; mr];
    (ks.gemm_micro)(kc, 1, &a, lda, &vec![0.0; kc], &mut tile);
}

/// `α·A·B + β·C0` by definition, in `f64`, row-major `m × n`.
fn naive_gemm<S: Scalar>(
    alpha: f64,
    a: &MatRef<S>,
    b: &MatRef<S>,
    beta: f64,
    c0: &[S],
) -> Vec<f64> {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let s: f64 = (0..k)
                .map(|p| a.get(i, p).to_f64() * b.get(p, j).to_f64())
                .sum();
            let c = if beta == 0.0 {
                0.0
            } else {
                beta * c0[i * n + j].to_f64()
            };
            out[i * n + j] = alpha * s + c;
        }
    }
    out
}

/// The blocked GEMM of every tier against [`naive_gemm`], on a shape
/// that crosses every block edge: `m = 300` (not a multiple of any
/// `mr`, past one `MC` block), `k = 600` (past both dtypes' `k`-block)
/// and `n = 25` (wider than any rank panel), for each pack class of A.
/// `C` starts as `c0`.
fn check_blocked<S: Scalar>(alpha: f64, beta: f64, c0: f64, tol: f64) {
    let (m, n, k) = (300, 25, 600);
    let a_data: Vec<S> = rand_vec(2 * m * k, 5)
        .into_iter()
        .map(S::from_f64)
        .collect();
    let b_data: Vec<S> = rand_vec(k * n, 6).into_iter().map(S::from_f64).collect();
    let b = MatRef::from_slice(&b_data, k, n, Layout::RowMajor);
    let c_init: Vec<S> = if c0.is_nan() {
        vec![S::from_f64(f64::NAN); m * n]
    } else {
        rand_vec(m * n, 7)
            .into_iter()
            .map(|x| S::from_f64(c0 + x))
            .collect()
    };
    for form in [AForm::ColMajor, AForm::RowMajor, AForm::Strided] {
        let a = a_view(&a_data, m, k, form);
        let want = naive_gemm(alpha, &a, &b, beta, &c_init);
        for tier in available_tiers() {
            let ks = KernelSet::<S>::for_tier(tier).unwrap();
            let mut got = c_init.clone();
            gemm_with(
                &ks,
                alpha,
                a,
                b,
                beta,
                MatMut::from_slice(&mut got, m, n, Layout::RowMajor),
            );
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                let g = g.to_f64();
                assert!(
                    (g - w).abs() <= tol * (1.0 + w.abs()),
                    "{} gemm {tier} {form:?} α={alpha} β={beta} [{idx}]: {g} vs {w}",
                    S::DTYPE
                );
            }
        }
    }
}

#[test]
fn blocked_gemm_with_beta_zero_writes_c_without_reading_it() {
    // C starts all-NaN: a single read of it would leave NaN behind.
    check_blocked::<f64>(1.0, 0.0, f64::NAN, TOL);
    check_blocked::<f64>(-0.5, 0.0, f64::NAN, TOL);
    check_blocked::<f32>(1.0, 0.0, f64::NAN, TOL32_GEMM);
}

#[test]
fn blocked_gemm_still_scales_c_for_other_betas() {
    for beta in [1.0, 2.0, -0.5] {
        check_blocked::<f64>(1.5, beta, 3.0, TOL);
        check_blocked::<f32>(1.5, beta, 3.0, TOL32_GEMM);
    }
}

/// How the full-GEMM parity tests lay out A, one per pack class.
#[derive(Debug, Clone, Copy)]
enum AForm {
    /// Unit row stride: the vector-copy pack.
    ColMajor,
    /// Unit column stride: the transposing pack.
    RowMajor,
    /// Every other row of a column-major buffer, viewed transposed
    /// twice: neither stride is 1, so the element-wise pack runs.
    Strided,
}

/// One full-GEMM parity case.
#[derive(Debug, Clone, Copy)]
struct GemmCase {
    m: usize,
    n: usize,
    k: usize,
    form: AForm,
    alpha: f64,
    beta: f64,
}

/// The CP shapes for a tile of height `mr`: every
/// `n ∈ {1, 5, 8, 9, 12, 13, 16, 24, 25, 64}` against every
/// `m ∈ {1, mr−1, mr, mr+1, 200, 225}`, each paired with one of
/// `k ∈ {3, 257, 513}`, one A form, one `α ∈ {0, 1, −1.5}` and one
/// `β ∈ {0, 1, 2}`, picked by a counter that mixes `n` and `m` so every
/// `m` meets every k, form, α and β across the `n` sweep.
fn gemm_cases(mr: usize) -> Vec<GemmCase> {
    const KS: [usize; 3] = [3, 257, 513];
    const FORMS: [AForm; 3] = [AForm::ColMajor, AForm::RowMajor, AForm::Strided];
    const ALPHAS: [f64; 3] = [0.0, 1.0, -1.5];
    const BETAS: [f64; 3] = [0.0, 1.0, 2.0];
    let mut cases = Vec::new();
    for (ni, &n) in [1usize, 5, 8, 9, 12, 13, 16, 24, 25, 64].iter().enumerate() {
        for (mi, &m) in [1, mr - 1, mr, mr + 1, 200, 225].iter().enumerate() {
            let c = 43 * ni + 7 * mi;
            cases.push(GemmCase {
                m,
                n,
                k: KS[c % 3],
                form: FORMS[c / 3 % 3],
                alpha: ALPHAS[c / 9 % 3],
                beta: BETAS[c / 27 % 3],
            });
        }
    }
    cases
}

/// Storage for A under `form` (`m × k`), and the view over it.
fn a_view<S: mttkrp_blas::Scalar>(data: &[S], m: usize, k: usize, form: AForm) -> MatRef<'_, S> {
    match form {
        AForm::ColMajor => MatRef::from_slice(&data[..m * k], m, k, Layout::ColMajor),
        AForm::RowMajor => MatRef::from_slice(&data[..m * k], m, k, Layout::RowMajor),
        AForm::Strided => {
            assert!(data.len() >= 2 * m * k);
            // SAFETY: element (i, p) sits at 2·i + 2·m·p ≤ 2·m·k − 2,
            // inside `data`.
            unsafe { MatRef::from_raw_parts(data.as_ptr(), m, k, 2, 2 * m as isize) }
        }
    }
}

#[test]
fn full_gemm_matches_scalar_tier_with_beta_variants() {
    // End-to-end GEMM parity per tier on the CP shapes: tall m around
    // the tile height, narrow ragged n, k crossing KC, all three pack
    // classes of A, and the α/β special values.
    let scalar = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for case in gemm_cases(ks.mr()) {
            let GemmCase {
                m,
                n,
                k,
                form,
                alpha,
                beta,
            } = case;
            let a_data = rand_vec(2 * m * k, (m * 31 + k) as u64);
            let b_data = rand_vec(k * n, (k * 17 + n) as u64);
            let a = a_view(&a_data, m, k, form);
            let b = MatRef::from_slice(&b_data, k, n, Layout::RowMajor);
            let c0 = rand_vec(m * n, 91);
            let mut want = c0.clone();
            gemm_with(
                &scalar,
                alpha,
                a,
                b,
                beta,
                MatMut::from_slice(&mut want, m, n, Layout::RowMajor),
            );
            let mut got = c0.clone();
            gemm_with(
                &ks,
                alpha,
                a,
                b,
                beta,
                MatMut::from_slice(&mut got, m, n, Layout::RowMajor),
            );
            assert_all_close(&got, &want, &format!("gemm {tier} {case:?}"));
        }
    }
}

#[test]
fn full_gemm_beta_zero_clears_nan_on_every_tier() {
    // beta == 0 must overwrite, not multiply, so NaNs in uninitialized
    // output memory do not propagate — on every tier.
    for tier in available_tiers() {
        let ks = KernelSet::for_tier(tier).unwrap();
        let a_data = vec![1.0; 6];
        let b_data = vec![1.0; 6];
        let a = MatRef::from_slice(&a_data, 2, 3, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 3, 2, Layout::RowMajor);
        let mut c = vec![f64::NAN; 4];
        gemm_with(
            &ks,
            1.0,
            a,
            b,
            0.0,
            MatMut::from_slice(&mut c, 2, 2, Layout::RowMajor),
        );
        assert!(c.iter().all(|&x| x == 3.0), "{tier}: {c:?}");
    }
}

#[test]
fn full_gemm_alpha_zero_only_scales_c_on_every_tier() {
    for tier in available_tiers() {
        let ks = KernelSet::for_tier(tier).unwrap();
        let a_data = rand_vec(12, 1);
        let b_data = rand_vec(12, 2);
        let a = MatRef::from_slice(&a_data, 3, 4, Layout::RowMajor);
        let b = MatRef::from_slice(&b_data, 4, 3, Layout::RowMajor);
        let mut c = vec![2.0; 9];
        gemm_with(
            &ks,
            0.0,
            a,
            b,
            3.0,
            MatMut::from_slice(&mut c, 3, 3, Layout::RowMajor),
        );
        assert!(c.iter().all(|&x| x == 6.0), "{tier}: {c:?}");
    }
}

#[test]
fn full_syrk_matches_scalar_tier() {
    let scalar = KernelSet::scalar();
    for (tier, ks) in simd_tiers() {
        for &(m, n) in &[(1usize, 1usize), (5, 3), (33, 7), (64, 8), (200, 25)] {
            let a_data = rand_vec(m * n, (m + 3 * n) as u64);
            let a = MatRef::from_slice(&a_data, m, n, Layout::RowMajor);
            let mut want = vec![0.0; n * n];
            let mut wv = MatMut::from_slice(&mut want, n, n, Layout::ColMajor);
            syrk_t_with(&scalar, 1.0, a, 0.0, &mut wv);
            let mut got = vec![0.0; n * n];
            let mut gv = MatMut::from_slice(&mut got, n, n, Layout::ColMajor);
            syrk_t_with(&ks, 1.0, a, 0.0, &mut gv);
            assert_all_close(&got, &want, &format!("syrk_t {tier} m={m} n={n}"));
        }
    }
}

// ------------------------------------------------------------- f32 tiers

/// f32 products widen exactly into f64, so the f64-accumulating
/// reductions differ from the reference only by f64 summation order.
const TOL32_REDUCE: f64 = 1e-12;
/// Elementwise f32 kernels differ at most by one FMA contraction.
const TOL32_ELEM: f64 = 1e-6;
/// Natively-f32 GEMM accumulation reorders hundreds of summands.
const TOL32_GEMM: f64 = 3e-4;

fn rand_vec_f32(n: usize, seed: u64) -> Vec<f32> {
    rand_vec(n, seed).into_iter().map(|x| x as f32).collect()
}

fn assert_all_close_f32(got: &[f32], want: &[f32], tol: f64, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (*g as f64 - *w as f64).abs() <= tol * (1.0 + w.abs() as f64),
            "{ctx}[{i}]: {g} vs {w}"
        );
    }
}

fn simd_tiers_f32() -> Vec<(KernelTier, KernelSet<f32>)> {
    available_tiers()
        .into_iter()
        .filter(|&t| t != KernelTier::Scalar)
        .map(|t| (t, KernelSet::for_tier(t).expect("listed tier resolves")))
        .collect()
}

#[test]
fn f32_dot_matches_scalar_on_all_lengths() {
    let reference = KernelSet::<f32>::scalar();
    for (tier, ks) in simd_tiers_f32() {
        for &n in LENGTHS {
            let x = rand_vec_f32(n, 11 + n as u64);
            let y = rand_vec_f32(n, 29 + n as u64);
            let want = (reference.dot)(&x, &y);
            let got = (ks.dot)(&x, &y);
            assert!(
                (got - want).abs() <= TOL32_REDUCE * (1.0 + want.abs()),
                "f32 dot {tier} n={n}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn f32_elementwise_kernels_match_scalar() {
    let reference = KernelSet::<f32>::scalar();
    for (tier, ks) in simd_tiers_f32() {
        for &n in LENGTHS {
            let a = rand_vec_f32(n, 7 + n as u64);
            let b = rand_vec_f32(n, 13 + n as u64);

            for &alpha in &[0.0f32, 1.0, -2.5, 0.37] {
                let mut want = b.clone();
                (reference.axpy)(alpha, &a, &mut want);
                let mut got = b.clone();
                (ks.axpy)(alpha, &a, &mut got);
                assert_all_close_f32(
                    &got,
                    &want,
                    TOL32_ELEM,
                    &format!("f32 axpy {tier} n={n} alpha={alpha}"),
                );
            }

            let mut want = vec![f32::NAN; n];
            (reference.hadamard)(&a, &b, &mut want);
            let mut got = vec![f32::NAN; n];
            (ks.hadamard)(&a, &b, &mut got);
            assert_all_close_f32(
                &got,
                &want,
                TOL32_ELEM,
                &format!("f32 hadamard {tier} n={n}"),
            );

            let mut want_assign = a.clone();
            (reference.hadamard_assign)(&mut want_assign, &b);
            let mut got_assign = a.clone();
            (ks.hadamard_assign)(&mut got_assign, &b);
            assert_all_close_f32(
                &got_assign,
                &want_assign,
                TOL32_ELEM,
                &format!("f32 hadamard_assign {tier} n={n}"),
            );

            let acc0 = rand_vec_f32(n, 17 + n as u64);
            let mut want_acc = acc0.clone();
            (reference.mul_add)(&a, &b, &mut want_acc);
            let mut got_acc = acc0.clone();
            (ks.mul_add)(&a, &b, &mut got_acc);
            assert_all_close_f32(
                &got_acc,
                &want_acc,
                TOL32_ELEM,
                &format!("f32 mul_add {tier} n={n}"),
            );
        }
    }
}

#[test]
fn f32_syrk_rank1_lower_matches_scalar() {
    // The accumulator is f64 on every tier, so the comparison is tight.
    let reference = KernelSet::<f32>::scalar();
    for (tier, ks) in simd_tiers_f32() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 25, 33] {
            let row = rand_vec_f32(n, 41 + n as u64);
            let acc0 = rand_vec(n * n, 43 + n as u64);
            let mut want = acc0.clone();
            (reference.syrk_rank1_lower)(&row, &mut want);
            let mut got = acc0.clone();
            (ks.syrk_rank1_lower)(&row, &mut got);
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - w).abs() <= TOL32_REDUCE * (1.0 + w.abs()),
                    "f32 syrk {tier} n={n} [{i}]: {g} vs {w}"
                );
            }
        }
    }
}

#[test]
fn f32_gemm_micro_matches_naive_panel_product() {
    // The f32 tiles are twice as tall as their f64 twins (two vectors
    // of twice the lanes); each is checked at every width over its own
    // layout.
    for (tier, ks) in
        std::iter::once((KernelTier::Scalar, KernelSet::<f32>::scalar())).chain(simd_tiers_f32())
    {
        let mr = ks.mr();
        for w in 1..=ks.nr() {
            for kc in [0usize, 1, 2, 3, 8, 17, 100, 255, 256] {
                let a_panel = rand_vec_f32(kc * mr, 51 + kc as u64);
                let b_panel = rand_vec_f32(kc * w, 53 + (kc * w) as u64);
                let init = rand_vec_f32(mr * w, 57 + kc as u64);
                let mut got = init.clone();
                (ks.gemm_micro)(kc, w, &a_panel, mr, &b_panel, &mut got);
                let mut want = init;
                for p in 0..kc {
                    for j in 0..w {
                        for i in 0..mr {
                            want[j * mr + i] += a_panel[p * mr + i] * b_panel[p * w + j];
                        }
                    }
                }
                assert_all_close_f32(
                    &got,
                    &want,
                    TOL32_GEMM,
                    &format!("f32 gemm_micro {tier} w={w} kc={kc}"),
                );
            }
        }
    }
}

#[test]
fn f32_full_gemm_and_syrk_match_scalar_tier() {
    let scalar = KernelSet::<f32>::scalar();
    for (tier, ks) in simd_tiers_f32() {
        for case in gemm_cases(ks.mr()) {
            let GemmCase {
                m,
                n,
                k,
                form,
                alpha,
                beta,
            } = case;
            let a_data = rand_vec_f32(2 * m * k, (m * 31 + k) as u64);
            let b_data = rand_vec_f32(k * n, (k * 17 + n) as u64);
            let a = a_view(&a_data, m, k, form);
            let b = MatRef::from_slice(&b_data, k, n, Layout::RowMajor);
            let c0 = rand_vec_f32(m * n, 91);
            let mut want = c0.clone();
            gemm_with(
                &scalar,
                alpha,
                a,
                b,
                beta,
                MatMut::from_slice(&mut want, m, n, Layout::RowMajor),
            );
            let mut got = c0.clone();
            gemm_with(
                &ks,
                alpha,
                a,
                b,
                beta,
                MatMut::from_slice(&mut got, m, n, Layout::RowMajor),
            );
            assert_all_close_f32(
                &got,
                &want,
                TOL32_GEMM,
                &format!("f32 gemm {tier} {case:?}"),
            );
        }

        // SYRK on f32 input writes an f64 Gram — near-f64 agreement.
        for &(m, n) in &[(5usize, 3usize), (64, 8), (200, 25)] {
            let a_data = rand_vec_f32(m * n, (m + 3 * n) as u64);
            let a = MatRef::from_slice(&a_data, m, n, Layout::RowMajor);
            let mut want = vec![0.0f64; n * n];
            let mut wv = MatMut::from_slice(&mut want, n, n, Layout::ColMajor);
            syrk_t_with(&scalar, 1.0, a, 0.0, &mut wv);
            let mut got = vec![0.0f64; n * n];
            let mut gv = MatMut::from_slice(&mut got, n, n, Layout::ColMajor);
            syrk_t_with(&ks, 1.0, a, 0.0, &mut gv);
            assert_all_close(&got, &want, &format!("f32 syrk_t {tier} m={m} n={n}"));
        }
    }
}

/// Bit patterns of `v`, for exact comparison.
fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// `C ← A·K(rows)` with `K = F[order[0]] ⊙ F[order[1]] ⊙ ⋯` generated
/// in the pack ([`KrpRef`]) against the same GEMM on the KRP that
/// `krp_reuse` materialises, bit for bit, for every tier and A form,
/// sequential and on a 3-thread team (whose split follows `n ≥ m`).
fn check_krp_operand<S: Scalar>(dims: &[usize], order: &[usize], c: usize, m: usize, skip: usize) {
    let factors_data: Vec<Vec<S>> = dims
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            rand_vec(d * c, 40 + i as u64)
                .into_iter()
                .map(S::from_f64)
                .collect()
        })
        .collect();
    let factors: Vec<MatRef<S>> = factors_data
        .iter()
        .zip(dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let inputs: Vec<MatRef<S>> = order.iter().map(|&i| factors[i]).collect();
    let total: usize = order.iter().map(|&i| dims[i]).product();
    let mut full = vec![S::ZERO; total * c];
    krp_reuse(&inputs, &mut full);
    // A row range that starts `skip` rows into the KRP and stops short
    // of its end.
    let k = total - skip - skip / 2;
    let b = MatRef::from_slice(&full[skip * c..(skip + k) * c], k, c, Layout::RowMajor);
    let krp = KrpRef::new(&factors, order).rows(skip, k);
    assert_eq!((krp.nrows(), krp.ncols()), (k, c));
    let a_data: Vec<S> = rand_vec(2 * m * k, 9)
        .into_iter()
        .map(S::from_f64)
        .collect();
    let pool = ThreadPool::new(3);
    for form in [AForm::ColMajor, AForm::RowMajor, AForm::Strided] {
        let a = a_view(&a_data, m, k, form);
        for tier in available_tiers() {
            let ks = KernelSet::<S>::for_tier(tier).unwrap();
            let ctx = format!(
                "{} {tier} {form:?} dims {dims:?} order {order:?} c={c} m={m} k={k}",
                S::DTYPE
            );
            let run = |par: bool, krp_b: bool| {
                let mut out = vec![S::from_f64(f64::NAN); m * c];
                let cv = MatMut::from_slice(&mut out, m, c, Layout::ColMajor);
                match (par, krp_b) {
                    (false, false) => gemm_with(&ks, 1.0, a, b, 0.0, cv),
                    (false, true) => gemm_krp_with(&ks, 1.0, a, krp, 0.0, cv),
                    (true, false) => par_gemm_with(&ks, &pool, 1.0, a, b, 0.0, cv),
                    (true, true) => par_gemm_krp_with(&ks, &pool, 1.0, a, krp, 0.0, cv),
                }
                bits(&out)
            };
            assert_eq!(run(false, true), run(false, false), "{ctx}");
            assert_eq!(run(true, true), run(true, false), "{ctx} on 3 threads");
        }
    }
}

#[test]
fn gemm_on_a_generated_krp_equals_gemm_on_the_materialised_krp() {
    // `(dims, order)`: one factor, two, and three in a permuted order;
    // the row counts cross both dtypes' k-block (256 f64, 512 f32).
    let products: [(&[usize], &[usize]); 4] = [
        (&[700], &[0]),
        (&[31, 23], &[0, 1]),
        (&[3, 11, 19], &[2, 0, 1]),
        (&[4, 2, 3], &[1, 2, 0]),
    ];
    // `(c, m)`: rank tails of every panel width (13 → 7 + 6 on AVX-512,
    // 25 → 9 + 8 + 8), row tails of every tile height, past one
    // 256-row block (with B packed once per call), both parallel splits
    // (`n ≥ m` splits columns) and the unpacked small-problem path.
    let shapes = [(13, 37), (25, 300), (25, 5), (1, 3), (5, 2)];
    for (dims, order) in products {
        for (c, m) in shapes {
            check_krp_operand::<f64>(dims, order, c, m, 5);
            check_krp_operand::<f32>(dims, order, c, m, 5);
        }
    }
    // A range starting mid-KRP, past a whole run of the last factor.
    check_krp_operand::<f64>(&[6, 5, 40], &[0, 1, 2], 9, 40, 57);
}

#[test]
#[should_panic(expected = "mismatched column count")]
fn krp_operand_rejects_factors_of_different_ranks() {
    let (a, b) = (vec![0.0; 6], vec![0.0; 8]);
    let f = [
        MatRef::from_slice(&a, 2, 3, Layout::RowMajor),
        MatRef::from_slice(&b, 2, 4, Layout::RowMajor),
    ];
    let _ = KrpRef::new(&f, &[0, 1]);
}
