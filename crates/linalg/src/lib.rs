//! Dense symmetric linear algebra substituting for LAPACK in the
//! CP-ALS driver — `Scalar`-generic and built on the strided
//! [`MatRef`](mttkrp_blas::MatRef)/[`MatMut`](mttkrp_blas::MatMut)
//! views from `mttkrp-blas`.
//!
//! CP-ALS needs one `C × C` solve per factor update: `U_n = M · H†`
//! where `H = ⊛_{k≠n} U_kᵀU_k` is symmetric positive semi-definite and
//! `C` is the decomposition rank. This crate provides the full
//! escalation ladder behind that solve:
//!
//! * [`cholesky_in_place`] / [`cholesky_solve_in_place`] — blocked
//!   right-looking LLᵀ whose trailing update routes through the SIMD
//!   `gemm` kernels, for the well-conditioned common case;
//! * [`ldlt_factor_in_place`] / [`ldlt_solve_in_place`] — diagonally
//!   pivoted, rank-revealing LDLᵀ for the semidefinite region;
//! * [`sym_evd_in`] — Householder tridiagonalization + implicit-shift
//!   QL symmetric eigendecomposition, the fast EVD;
//! * [`GramSolver`] — the policy object tying the rungs together with
//!   a cheap condition estimate and reusable workspaces;
//! * [`jacobi_eigh`] / [`sym_pinv`] — the original cyclic Jacobi
//!   eigensolver and pseudoinverse, retained as the slow-but-robust
//!   **test oracle** for every faster path above.
//!
//! Factorizations take views, so row-major, column-major, and
//! transposed/submatrix inputs all work without copies; contiguous
//! slices enter through `MatMut::from_slice(.., Layout::ColMajor)`.

#![deny(missing_docs)]

pub mod chol;
pub mod eigh;
pub mod evd;
pub mod ldlt;
pub mod solve;

pub use chol::{
    cholesky_in_place, cholesky_in_place_with, cholesky_inverse_into, cholesky_solve_in_place,
    cholesky_unblocked, factor_diag_extrema, solve_lower_in_place, solve_lower_transpose_in_place,
    CHOL_PANEL,
};
pub use eigh::{jacobi_eigh, jacobi_eigh_in, sym_pinv, sym_pinv_into, PinvWorkspace};
pub use evd::{sym_evd, sym_evd_in};
pub use ldlt::{ldlt_factor_in_place, ldlt_inverse_into, ldlt_solve_in_place};
pub use solve::{GramSolver, SolvePolicy, SolveVariant, DEFAULT_COND_LIMIT};

/// Errors from the dense factorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// A Cholesky/LDLᵀ pivot was negative beyond round-off: the matrix
    /// is not (numerically) positive semi-definite.
    NotPositiveDefinite,
    /// The eigensolver iteration limit was reached before convergence.
    NoConvergence,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::NoConvergence => write!(f, "eigensolver did not converge"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Multiply two column-major `n × n` matrices (test oracle; the
/// pseudoinverse assembly now folds the transpose into its own loop).
#[cfg(test)]
pub(crate) fn matmul_nn(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for j in 0..n {
        for p in 0..n {
            let bpj = b[p + j * n];
            if bpj != 0.0 {
                for i in 0..n {
                    c[i + j * n] += a[i + p * n] * bpj;
                }
            }
        }
    }
    c
}
