//! Matrix-vector multiply: `y ← α·A·x + β·y`.
//!
//! The 2-step MTTKRP's second phase (multi-TTV) contracts each of the
//! `C` columns of the partial with one GEMV per remaining mode, on
//! column- or row-major reshapes (Algorithm 4 lines 8 and 14), so this
//! kernel sits on the critical path of Figures 5–8.

use crate::level1::{axpy, dot, scale};
use crate::mat::MatRef;
use crate::scalar::Scalar;

/// `y ← α·A·x + β·y` for an arbitrarily strided `A` (m × n).
///
/// Row-contiguous views (`col_stride == 1`) use per-row dot products;
/// column-contiguous views (`row_stride == 1`) use per-column AXPYs;
/// other stride combinations fall back to a strided double loop.
pub fn gemv<S: Scalar>(alpha: f64, a: MatRef<S>, x: &[S], beta: f64, y: &mut [S]) {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(x.len(), n, "x length must equal ncols");
    assert_eq!(y.len(), m, "y length must equal nrows");

    if beta == 0.0 {
        y.fill(S::ZERO);
    } else if beta != 1.0 {
        scale(S::from_f64(beta), y);
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }

    let alpha_s = S::from_f64(alpha);
    if a.col_stride() == 1 {
        // The dispatched dot accumulates in f64; narrow once per entry.
        for i in 0..m {
            y[i] += S::from_f64(alpha * dot(a.row_slice(i), x));
        }
    } else if a.row_stride() == 1 {
        for j in 0..n {
            axpy(alpha_s * x[j], a.col_slice(j), y);
        }
    } else {
        for i in 0..m {
            let mut s = S::ZERO;
            for j in 0..n {
                s += unsafe { a.get_unchecked(i, j) } * x[j];
            }
            y[i] += alpha_s * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::{Layout, MatMut};

    fn naive(alpha: f64, a: &MatRef, x: &[f64], beta: f64, y: &mut [f64]) {
        for i in 0..a.nrows() {
            let mut s = 0.0;
            for j in 0..a.ncols() {
                s += a.get(i, j) * x[j];
            }
            y[i] = alpha * s + beta * y[i];
        }
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect()
    }

    #[test]
    fn matches_oracle_both_layouts() {
        for &(m, n) in &[(1, 1), (3, 5), (17, 9), (64, 33)] {
            for layout in [Layout::RowMajor, Layout::ColMajor] {
                let a_data = data(m * n);
                let a = MatRef::from_slice(&a_data, m, n, layout);
                let x = data(n);
                let mut y_ref = data(m);
                let mut y_ours = y_ref.clone();
                naive(2.0, &a, &x, -0.5, &mut y_ref);
                gemv(2.0, a, &x, -0.5, &mut y_ours);
                for (u, v) in y_ours.iter().zip(&y_ref) {
                    assert!((u - v).abs() < 1e-10, "m={m} n={n} {layout:?}");
                }
            }
        }
    }

    #[test]
    fn strided_submatrix_view() {
        // GEMV on an interior block of a bigger matrix exercises the
        // generic stride path through a transposed view.
        let big = data(100);
        let a_full = MatRef::from_slice(&big, 10, 10, Layout::RowMajor);
        let a = a_full.submatrix(2, 3, 4, 5).t(); // 5x4, rs=1? no: strides (1,10)
        let x = data(4);
        let mut y_ref = vec![0.0; 5];
        let mut y_ours = vec![0.0; 5];
        naive(1.0, &a, &x, 0.0, &mut y_ref);
        gemv(1.0, a, &x, 0.0, &mut y_ours);
        assert_eq!(y_ours, y_ref);
    }

    #[test]
    fn beta_zero_clears_nan() {
        let a_data = vec![1.0; 4];
        let a = MatRef::from_slice(&a_data, 2, 2, Layout::RowMajor);
        let mut y = vec![f64::NAN; 2];
        gemv(1.0, a, &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![2.0, 2.0]);
    }

    #[test]
    fn gemv_writes_into_matmut_column() {
        // A GEMV result written into one column of a row-major output
        // matrix; verify the slice plumbing works.
        let a_data = data(6);
        let a = MatRef::from_slice(&a_data, 3, 2, Layout::RowMajor);
        let x = vec![1.0, 1.0];
        let mut out = vec![0.0; 6];
        let mut m = MatMut::from_slice(&mut out, 3, 2, Layout::ColMajor);
        gemv(1.0, a, &x, 0.0, m.col_slice_mut(1));
        assert_eq!(
            &out[3..6],
            &[
                a.get(0, 0) + a.get(0, 1),
                a.get(1, 0) + a.get(1, 1),
                a.get(2, 0) + a.get(2, 1)
            ]
        );
    }
}
