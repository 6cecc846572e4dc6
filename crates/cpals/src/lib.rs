//! CP decomposition by Alternating Least Squares (CP-ALS), the
//! application driver of the paper (§2.2, §5.3.3).
//!
//! Each factor update is three operations:
//!
//! 1. **MTTKRP** `M = X(n) · (⊙_{k≠n} U_k)` — the bottleneck, dispatched
//!    to the kernels of `mttkrp-core` per [`MttkrpStrategy`];
//! 2. **Gram/Hadamard** `H = ⊛_{k≠n} U_kᵀ U_k`;
//! 3. **solve** `U_n = M · H†` (symmetric pseudoinverse from
//!    `mttkrp-linalg`).
//!
//! [`cp_als`] is the optimized driver (1-step for external modes, 2-step
//! for internal, exactly as in §5.3.3); [`MttkrpStrategy::Explicit`]
//! reproduces the Tensor-Toolbox-style baseline the paper compares
//! against in Figure 7 (Matlab's `cp_als`, whose MTTKRP reorders the
//! tensor and forms the full KRP). On a dense tensor of order ≥ 3,
//! [`MttkrpStrategy::Auto`] runs the paper's future-work item — Phan et
//! al. §III.C reuse of partial MTTKRPs across the modes of one sweep:
//! two partial GEMMs (`mttkrp_core::DimTreePlan`) serve all `N` modes.
//!
//! Every iterative driver here builds its MTTKRP execution state
//! **once per model** and reuses it every sweep: [`cp_als`] holds the
//! backend's sweep plans (the two-group plan, or one cached plan per
//! mode — algorithm choice, partition schedule, and per-thread
//! workspaces), [`cp_als_nn`] the same sweep plans as an
//! `mttkrp_core::MttkrpPlanSet`, and
//! [`cp_gradient_planned`] accepts caller-held sweep plans, so
//! steady-state iterations perform no per-iteration allocation in the
//! MTTKRP path.
//!
//! # Example
//!
//! ```
//! use mttkrp_cpals::{cp_als, CpAlsOptions, KruskalModel};
//! use mttkrp_parallel::ThreadPool;
//!
//! let dims = [6usize, 5, 4];
//! let planted = KruskalModel::<f64>::random(&dims, 2, 7).to_dense();
//! let pool = ThreadPool::new(2);
//! let init = KruskalModel::random(&dims, 2, 8);
//! let opts = CpAlsOptions { max_iters: 100, ..Default::default() };
//! let (model, report) = cp_als(&pool, &planted, init, &opts);
//! assert_eq!(model.rank(), 2);
//! assert!(report.final_fit() > 0.95);
//! ```

pub mod als;
#[cfg(test)]
mod dimtree;
pub mod gradient;
pub mod gram;
pub mod model;
pub mod nncp;

pub use als::{cp_als, CpAlsOptions, CpAlsReport, CpAlsSweep, MttkrpStrategy};
pub use gradient::{cp_gradient, cp_gradient_planned};
pub use model::KruskalModel;
pub use mttkrp_linalg::{SolvePolicy, SolveVariant};
pub use nncp::cp_als_nn;
