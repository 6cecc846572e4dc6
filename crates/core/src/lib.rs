//! Dense MTTKRP — the paper's primary contribution.
//!
//! The matricized-tensor times Khatri-Rao product for mode `n`,
//! `M = X(n) · (U_{N−1} ⊙ ⋯ ⊙ U_{n+1} ⊙ U_{n−1} ⊙ ⋯ ⊙ U_0)`,
//! is the bottleneck of CP decomposition algorithms. This crate
//! implements every variant the paper discusses:
//!
//! * [`oracle::mttkrp_oracle`] — definition-by-summation reference used
//!   by the test suite.
//! * [`baseline::mttkrp_explicit`] — the Bader–Kolda baseline: reorder
//!   tensor entries into an explicit column-major matricization, form
//!   the full KRP, and make one GEMM call (§2.3).
//! * [`onestep`] — Algorithms 2 and 3: BLAS calls directly on the
//!   zero-copy block structure of `X(n)`, never reordering entries.
//! * [`twostep`] — Algorithm 4 (Phan et al.): one large partial-MTTKRP
//!   GEMM on `X(0:n)` or `X(0:n−1)ᵀ` followed by a multi-TTV of GEMV
//!   calls, choosing the side that minimizes second-step flops. It runs
//!   the partial-MTTKRP type of [`multimode`] on one mode group.
//! * [`dispatch::mttkrp_auto`] — the paper's per-mode choice (1-step
//!   for external modes, 2-step for internal modes), which per-mode
//!   CP-ALS sweeps plan with.
//! * [`plan::MttkrpPlan`] — the reusable plan/executor split: algorithm
//!   choice, static partition schedule, and pre-allocated per-thread
//!   workspaces computed once per (shape, rank, mode, team) and reused
//!   across calls. The free functions above are thin allocating
//!   wrappers over one-shot plans; iterative drivers (CP-ALS) hold a
//!   [`plan::MttkrpPlanSet`] instead and pay no per-iteration
//!   allocation.
//! * [`multimode::DimTreePlan`] — the two-group (dimension-tree)
//!   MTTKRP, the paper's future-work item (Phan et al. §III.C): two
//!   partial-MTTKRP GEMMs and one multi-TTV per mode serve every mode
//!   of a CP-ALS sweep or a gradient.
//! * [`backend::MttkrpBackend`] — the storage-generic contract CP
//!   drivers are written against: shape/norm queries plus planned
//!   per-mode and in-sweep MTTKRP execution. Implemented here for the
//!   dense tensor (the two-group plan, planned kernels, or the explicit
//!   baseline) and by `mttkrp-sparse` and `mttkrp-ooc`.
//!
//! All variants share conventions: factor matrices and the output are
//! **row-major** `I_k × C` buffers, and the KRP factor order for mode
//! `n` is descending (`U_{N−1}, …, U_0` skipping `U_n`) so that mode 0
//! varies fastest, matching the column order of `X(n)`.
//!
//! Instrumented `*_timed` variants report the per-phase time breakdown
//! (Full KRP / Left&Right KRP / DGEMM / DGEMV / REDUCE / reorder) that
//! Figures 6 and 8 plot.
//!
//! # Example
//!
//! ```
//! use mttkrp_blas::{Layout, MatRef};
//! use mttkrp_core::mttkrp_auto;
//! use mttkrp_parallel::ThreadPool;
//! use mttkrp_tensor::DenseTensor;
//!
//! let dims = [4usize, 3, 2];
//! let c = 2;
//! let x = DenseTensor::from_vec(&dims, (0..24).map(|i| i as f64).collect());
//! let factors: Vec<Vec<f64>> = dims.iter().map(|&d| vec![1.0; d * c]).collect();
//! let refs: Vec<MatRef> = factors
//!     .iter()
//!     .zip(&dims)
//!     .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
//!     .collect();
//! let pool = ThreadPool::new(2);
//! let mut m = vec![0.0; dims[1] * c];
//! mttkrp_auto(&pool, &x, &refs, 1, &mut m);
//! // With all-ones factors, M sums X over the other modes.
//! assert_eq!(m[0], (0..24).filter(|i| (i / 4) % 3 == 0).sum::<usize>() as f64);
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod baseline;
pub mod breakdown;
pub mod choicelog;
pub mod dispatch;
pub mod model;
pub mod multimode;
pub mod onestep;
pub mod oracle;
pub mod plan;
pub mod twostep;

pub use backend::{DensePlans, MttkrpBackend};
pub use baseline::{mttkrp_explicit, mttkrp_explicit_timed};
pub use breakdown::Breakdown;
pub use choicelog::{ChoiceLog, ChoiceRecord};
pub use dispatch::{mttkrp_auto, mttkrp_auto_timed, ModeKind};
pub use model::{cost_model_installed, install_cost_model, tuned_cost, ModeCost};
pub use multimode::DimTreePlan;
pub use onestep::{mttkrp_1step, mttkrp_1step_seq, mttkrp_1step_timed};
pub use oracle::mttkrp_oracle;
pub use plan::{AlgoChoice, MttkrpPlan, MttkrpPlanSet, PlannedAlgo};
pub use twostep::{mttkrp_2step, mttkrp_2step_timed, TwoStepSide};

use mttkrp_blas::{MatRef, Scalar};

/// Validate factor shapes against the tensor and return `C`.
///
/// # Panics
/// Panics unless there is one `I_k × C` row-contiguous factor per mode.
pub(crate) fn validate_factors<S: Scalar>(dims: &[usize], factors: &[MatRef<S>]) -> usize {
    assert_eq!(
        factors.len(),
        dims.len(),
        "one factor matrix per tensor mode"
    );
    let c = factors[0].ncols();
    for (k, (f, &d)) in factors.iter().zip(dims).enumerate() {
        assert_eq!(f.nrows(), d, "factor {k} must have I_{k} rows");
        assert_eq!(f.ncols(), c, "factor {k} must have C columns");
        assert_eq!(f.col_stride(), 1, "factor {k} must be row-contiguous");
    }
    c
}

/// The KRP inputs for mode `n`: all factors but `U_n`, in descending
/// mode order (so mode 0 varies fastest in the KRP rows).
pub(crate) fn krp_inputs<'a, S: Scalar>(factors: &[MatRef<'a, S>], n: usize) -> Vec<MatRef<'a, S>> {
    factors
        .iter()
        .enumerate()
        .rev()
        .filter(|&(k, _)| k != n)
        .map(|(_, f)| *f)
        .collect()
}
