//! Blocked Cholesky factorization and triangular solves on strided
//! [`MatRef`]/[`MatMut`] views, generic over the storage [`Scalar`].
//!
//! The factorization is the classic right-looking blocked LLT: factor a
//! `nb × nb` diagonal panel with the unblocked kernel, triangular-solve
//! the panel below it, then rank-`nb` update the trailing submatrix
//! through [`gemm_with`] so the O(n³) work runs on the SIMD kernel
//! tiers. At the rank × rank sizes of the CP-ALS Gram solves the panel
//! often *is* the whole matrix; the blocking pays off at the larger
//! sizes of the EVD path.
//!
//! Only the **lower** triangle of the input is read; on return the
//! lower triangle holds `L` with `A = L·Lᵀ` and the strict upper
//! triangle is unspecified (the blocked trailing update clobbers it).

use mttkrp_blas::{gemm_with, kernels, KernelSet, MatMut, MatRef, Scalar};

use crate::LinalgError;

/// Default panel (block) width of the blocked factorization. Chosen so
/// one `nb × nb` panel plus a packed GEMM strip stay cache-resident;
/// [`cholesky_in_place_with`] accepts any width for tuning.
pub const CHOL_PANEL: usize = 48;

/// Unblocked in-place lower Cholesky of the `n × n` view `a`
/// (the base-case kernel of the blocked factorization, and the
/// unblocked baseline the PR-8 bench compares against).
///
/// Reads only the lower triangle; leaves the strict upper untouched.
pub fn cholesky_unblocked<S: Scalar>(mut a: MatMut<'_, S>) -> Result<(), LinalgError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "matrix must be square");
    for j in 0..n {
        let mut d = unsafe { a.get_unchecked(j, j) };
        for k in 0..j {
            let ljk = unsafe { a.get_unchecked(j, k) };
            d -= ljk * ljk;
        }
        if d <= S::ZERO || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let ljj = d.sqrt();
        unsafe { a.set_unchecked(j, j, ljj) };
        let inv = S::ONE / ljj;
        for i in j + 1..n {
            let mut s = unsafe { a.get_unchecked(i, j) };
            for k in 0..j {
                s -= unsafe { a.get_unchecked(i, k) * a.get_unchecked(j, k) };
            }
            unsafe { a.set_unchecked(i, j, s * inv) };
        }
    }
    Ok(())
}

/// Blocked in-place lower Cholesky with the process-wide kernel set and
/// the default panel width. See [`cholesky_in_place_with`].
pub fn cholesky_in_place<S: Scalar>(a: MatMut<'_, S>) -> Result<(), LinalgError> {
    cholesky_in_place_with(kernels::<S>(), a, CHOL_PANEL)
}

/// Blocked right-looking in-place lower Cholesky: `A = L·Lᵀ` with `L`
/// left in the lower triangle of `a`. `nb` is the panel width (0 is
/// treated as the default); the trailing update runs as one
/// [`gemm_with`] per trailing block column on `ks`.
///
/// The strict upper triangle is unspecified on return.
pub fn cholesky_in_place_with<S: Scalar>(
    ks: &KernelSet<S>,
    a: MatMut<'_, S>,
    nb: usize,
) -> Result<(), LinalgError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "matrix must be square");
    let nb = if nb == 0 { CHOL_PANEL } else { nb };
    if n <= nb {
        return cholesky_unblocked(a);
    }

    let mut rest = a;
    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        // rest views a[k.., k..]; split off this panel's block column.
        let (col, trail) = rest.split_cols_at(kb);
        let (mut a11, mut a21) = col.split_rows_at(kb);
        cholesky_unblocked(a11.as_mut().submatrix(0, 0, kb, kb)).map_err(|_| {
            // Report which panel failed through the error kind only;
            // the caller escalates to LDLT/EVD regardless of position.
            LinalgError::NotPositiveDefinite
        })?;

        let below = n - k - kb;
        if below > 0 {
            // A21 ← A21 · L11⁻ᵀ (right triangular solve): column j of
            // the solved panel depends on already-solved columns < j.
            let l11 = a11.as_ref();
            for j in 0..kb {
                let inv = S::ONE / unsafe { l11.get_unchecked(j, j) };
                for i in 0..below {
                    let mut s = unsafe { a21.get_unchecked(i, j) };
                    for p in 0..j {
                        s -= unsafe { a21.get_unchecked(i, p) * l11.get_unchecked(j, p) };
                    }
                    unsafe { a21.set_unchecked(i, j, s * inv) };
                }
            }

            // Trailing update T ← T − A21·A21ᵀ, one GEMM per trailing
            // block column, skipping the blocks above the diagonal.
            let a21_ref = a21.as_ref();
            let mut t = trail.submatrix(kb, 0, below, below);
            let mut c0 = 0;
            while c0 < below {
                let cb = nb.min(below - c0);
                let rows = below - c0;
                let c_block = t.as_mut().submatrix(c0, c0, rows, cb);
                gemm_with(
                    ks,
                    -1.0,
                    a21_ref.submatrix(c0, 0, rows, kb),
                    a21_ref.submatrix(c0, 0, cb, kb).t(),
                    1.0,
                    c_block,
                );
                c0 += cb;
            }
            rest = t;
        } else {
            break;
        }
        k += kb;
    }
    Ok(())
}

/// Forward substitution `B ← L⁻¹·B` for a lower-triangular `L`
/// (diagonal included), blocked: substitution inside each `nb`-row
/// diagonal block, one GEMM to push the block's contribution into the
/// rows below.
pub fn solve_lower_in_place<S: Scalar>(ks: &KernelSet<S>, l: MatRef<'_, S>, mut b: MatMut<'_, S>) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "rhs rows must match factor");
    let nrhs = b.ncols();
    let nb = CHOL_PANEL;

    let mut k = 0;
    while k < n {
        let kb = nb.min(n - k);
        let lkk = l.submatrix(k, k, kb, kb);
        {
            let mut bk = b.as_mut().submatrix(k, 0, kb, nrhs);
            for j in 0..nrhs {
                for i in 0..kb {
                    let mut s = unsafe { bk.get_unchecked(i, j) };
                    for p in 0..i {
                        s -= unsafe { lkk.get_unchecked(i, p) * bk.get_unchecked(p, j) };
                    }
                    unsafe { bk.set_unchecked(i, j, s / lkk.get_unchecked(i, i)) };
                }
            }
        }
        let below = n - k - kb;
        if below > 0 {
            let (solved, lower) = b.as_mut().submatrix(k, 0, n - k, nrhs).split_rows_at(kb);
            gemm_with(
                ks,
                -1.0,
                l.submatrix(k + kb, k, below, kb),
                solved.as_ref(),
                1.0,
                lower,
            );
        }
        k += kb;
    }
}

/// Backward substitution `B ← L⁻ᵀ·B` given the lower-triangular `L`,
/// blocked like [`solve_lower_in_place`] but walking blocks bottom-up.
pub fn solve_lower_transpose_in_place<S: Scalar>(
    ks: &KernelSet<S>,
    l: MatRef<'_, S>,
    mut b: MatMut<'_, S>,
) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n, "factor must be square");
    assert_eq!(b.nrows(), n, "rhs rows must match factor");
    let nrhs = b.ncols();
    let nb = CHOL_PANEL;

    let mut k = n;
    while k > 0 {
        let kb = nb.min(k);
        let k0 = k - kb;
        let lkk = l.submatrix(k0, k0, kb, kb);
        {
            let mut bk = b.as_mut().submatrix(k0, 0, kb, nrhs);
            for j in 0..nrhs {
                for i in (0..kb).rev() {
                    let mut s = unsafe { bk.get_unchecked(i, j) };
                    for p in i + 1..kb {
                        // (Lᵀ)ᵢₚ = Lₚᵢ within the diagonal block.
                        s -= unsafe { lkk.get_unchecked(p, i) * bk.get_unchecked(p, j) };
                    }
                    unsafe { bk.set_unchecked(i, j, s / lkk.get_unchecked(i, i)) };
                }
            }
        }
        if k0 > 0 {
            // Rows above this block: B[0..k0] −= (L[k0.., 0..k0])ᵀ · B[k0..k].
            let (upper, solved) = b.as_mut().submatrix(0, 0, k, nrhs).split_rows_at(k0);
            gemm_with(
                ks,
                -1.0,
                l.submatrix(k0, 0, kb, k0).t(),
                solved.as_ref(),
                1.0,
                upper,
            );
        }
        k = k0;
    }
}

/// Solve `A·X = B` in place given the Cholesky factor `L` of `A`
/// (forward then backward substitution on every column of `B`).
pub fn cholesky_solve_in_place<S: Scalar>(l: MatRef<'_, S>, b: MatMut<'_, S>) {
    let ks = kernels::<S>();
    let mut b = b;
    solve_lower_in_place(ks, l, b.as_mut());
    solve_lower_transpose_in_place(ks, l, b);
}

/// `out ← A⁻¹` from the Cholesky factor `L` of `A`: solve
/// `L·Lᵀ·X = I` by the two blocked triangular solves, then symmetrize
/// (the exact inverse is symmetric; averaging removes the rounding
/// skew so Gram solves stay symmetric downstream).
pub fn cholesky_inverse_into<S: Scalar>(
    ks: &KernelSet<S>,
    l: MatRef<'_, S>,
    mut out: MatMut<'_, S>,
) {
    let n = l.nrows();
    assert_eq!(out.nrows(), n, "output must be n x n");
    assert_eq!(out.ncols(), n, "output must be n x n");
    out.fill(S::ZERO);
    for i in 0..n {
        out.set(i, i, S::ONE);
    }
    solve_lower_in_place(ks, l, out.as_mut());
    solve_lower_transpose_in_place(ks, l, out.as_mut());
    let half = S::from_f64(0.5);
    for j in 0..n {
        for i in 0..j {
            let v = unsafe { (out.get_unchecked(i, j) + out.get_unchecked(j, i)) * half };
            unsafe {
                out.set_unchecked(i, j, v);
                out.set_unchecked(j, i, v);
            }
        }
    }
}

/// `(min, max)` of the factor diagonal in `f64` — the input to the
/// cheap condition estimate `κ(A) ≈ (max lᵢᵢ / min lᵢᵢ)²` that gates
/// the Cholesky→LDLT→EVD escalation policy.
pub fn factor_diag_extrema<S: Scalar>(l: MatRef<'_, S>) -> (f64, f64) {
    let n = l.nrows();
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for i in 0..n {
        let d = l.get(i, i).to_f64().abs();
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_blas::Layout;

    fn spd_matrix(n: usize, seed: u64) -> Vec<f64> {
        // A = B Bᵀ + n·I is SPD.
        let mut state = seed | 1;
        let mut b = vec![0.0; n * n];
        for v in b.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f64 / (1u64 << 32) as f64) - 0.5;
        }
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[i + k * n] * b[j + k * n];
                }
                a[i + j * n] = s;
            }
        }
        for i in 0..n {
            a[i + i * n] += n as f64;
        }
        a
    }

    fn reconstruct_llt(l: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=usize::min(i, j) {
                    s += l[i + k * n] * l[j + k * n];
                }
                out[i + j * n] = s;
            }
        }
        out
    }

    #[test]
    fn unblocked_factor_reconstructs() {
        let n = 6;
        let a = spd_matrix(n, 3);
        let mut l = a.clone();
        cholesky_unblocked(MatMut::from_slice(&mut l, n, n, Layout::ColMajor)).unwrap();
        let back = reconstruct_llt(&l, n);
        for (x, y) in back.iter().zip(&a) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_matches_unblocked_across_sizes_and_panels() {
        for n in [1usize, 2, 7, 33, 64, 97, 150] {
            let a = spd_matrix(n, n as u64 + 5);
            let mut l_ref = a.clone();
            cholesky_unblocked(MatMut::from_slice(&mut l_ref, n, n, Layout::ColMajor)).unwrap();
            for nb in [1usize, 4, 17, 48, 200] {
                let mut l = a.clone();
                cholesky_in_place_with(
                    kernels::<f64>(),
                    MatMut::from_slice(&mut l, n, n, Layout::ColMajor),
                    nb,
                )
                .unwrap();
                // Compare lower triangles only (upper is unspecified).
                for j in 0..n {
                    for i in j..n {
                        let d = (l[i + j * n] - l_ref[i + j * n]).abs();
                        assert!(d < 1e-9, "n={n} nb={nb} ({i},{j}): {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_works_on_row_major_views() {
        let n = 40;
        let a = spd_matrix(n, 11);
        // Row-major copy of the symmetric matrix is the same matrix.
        let mut rm = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                rm[i * n + j] = a[i + j * n];
            }
        }
        cholesky_in_place(MatMut::from_slice(&mut rm, n, n, Layout::RowMajor)).unwrap();
        let mut cm = a.clone();
        cholesky_in_place(MatMut::from_slice(&mut cm, n, n, Layout::ColMajor)).unwrap();
        for j in 0..n {
            for i in j..n {
                assert!((rm[i * n + j] - cm[i + j * n]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution_multi_rhs() {
        let n = 37;
        let nrhs = 5;
        let a = spd_matrix(n, 9);
        let mut x_true = vec![0.0; n * nrhs];
        for (k, v) in x_true.iter_mut().enumerate() {
            *v = (k % 11) as f64 - 5.0;
        }
        // B = A · X_true (column-major).
        let mut b = vec![0.0; n * nrhs];
        for r in 0..nrhs {
            for i in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    s += a[i + j * n] * x_true[j + r * n];
                }
                b[i + r * n] = s;
            }
        }
        let mut l = a.clone();
        cholesky_in_place(MatMut::from_slice(&mut l, n, n, Layout::ColMajor)).unwrap();
        cholesky_solve_in_place(
            MatRef::from_slice(&l, n, n, Layout::ColMajor),
            MatMut::from_slice(&mut b, n, nrhs, Layout::ColMajor),
        );
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 29;
        let a = spd_matrix(n, 21);
        let mut l = a.clone();
        cholesky_in_place(MatMut::from_slice(&mut l, n, n, Layout::ColMajor)).unwrap();
        let mut inv = vec![0.0; n * n];
        cholesky_inverse_into(
            kernels::<f64>(),
            MatRef::from_slice(&l, n, n, Layout::ColMajor),
            MatMut::from_slice(&mut inv, n, n, Layout::ColMajor),
        );
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += inv[i + k * n] * a[k + j * n];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((s - want).abs() < 1e-8, "({i},{j}): {s}");
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(
            cholesky_in_place(MatMut::from_slice(&mut a, 2, 2, Layout::ColMajor)),
            Err(LinalgError::NotPositiveDefinite)
        );
    }

    #[test]
    fn f32_factor_reconstructs() {
        let n = 24;
        let a64 = spd_matrix(n, 77);
        let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
        let mut l = a.clone();
        cholesky_in_place(MatMut::from_slice(&mut l, n, n, Layout::ColMajor)).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0f64;
                for k in 0..=j {
                    s += (l[i + k * n] as f64) * (l[j + k * n] as f64);
                }
                let want = a[i + j * n] as f64;
                assert!((s - want).abs() < 1e-3 * (1.0 + want.abs()), "({i},{j})");
            }
        }
    }

    #[test]
    fn diag_extrema_reports_min_max() {
        let l = vec![2.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 4.0];
        let (lo, hi) = factor_diag_extrema(MatRef::from_slice(&l, 3, 3, Layout::ColMajor));
        assert_eq!(lo, 0.5);
        assert_eq!(hi, 4.0);
    }
}
