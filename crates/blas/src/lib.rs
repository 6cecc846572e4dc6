//! Dense BLAS kernels substituting for Intel MKL in the MTTKRP
//! reproduction.
//!
//! The paper casts nearly all MTTKRP work as `DGEMM`/`DGEMV` on matrices
//! that are column- or row-major *views* of tensor memory — the whole
//! point of the 1-step/2-step algorithms is that tensor entries are never
//! reordered, only reinterpreted. This crate therefore provides:
//!
//! * [`Scalar`] — the sealed element-type parameter (`f32`/`f64`) every
//!   container and kernel below is generic over; reductions accumulate
//!   in `f64` for both storage types (mixed precision).
//! * [`MatRef`]/[`MatMut`] — borrowed, arbitrarily strided 2-D views.
//!   Row-major, column-major, transposed, and block-submatrix views are
//!   all just stride choices, so a single [`gemm()`] entry point covers
//!   every layout/transpose combination the algorithms need.
//! * [`gemm()`] — cache-blocked, packing matrix multiply
//!   (`C ← α·A·B + β·C`) with a register-tiled microkernel, plus
//!   [`par_gemm`] which statically partitions the output across an
//!   [`mttkrp_parallel::ThreadPool`] (how the paper uses multithreaded
//!   MKL).
//! * [`gemv()`] — matrix-vector multiply used by the 2-step multi-TTV.
//! * [`level1`] — dot/axpy/scale/Hadamard vector kernels (the Hadamard
//!   product is the inner operation of the row-wise Khatri-Rao product).
//! * [`kernels`](mod@kernels) — runtime-dispatched hardware kernels (scalar
//!   reference plus AVX2+FMA / AVX-512F / NEON variants) resolved once
//!   into a [`KernelSet`] of function pointers that the GEMM
//!   microkernel, SYRK row updates, level-1 wrappers, KRP row streams,
//!   and CSF accumulate loops all run on.
//! * [`stream`] — the STREAM bandwidth benchmark (McCalpin) the paper
//!   compares the KRP against in Figure 4.

pub mod gemm;
pub mod gemv;
pub mod kernels;
pub mod level1;
pub mod mat;
pub mod scalar;
pub mod stream;
pub mod syrk;

pub use gemm::{
    gemm, gemm_krp_with, gemm_with, k_block, par_gemm, par_gemm_krp_with, par_gemm_with, KrpRef,
};
pub use gemv::gemv;
pub use kernels::{available_tiers, force_tier, kernels, KernelSet, KernelTier};
pub use level1::{axpy, copy, dot, hadamard, hadamard_assign, mul_add, scale};
pub use mat::{Layout, MatMut, MatRef};
pub use scalar::{Dtype, Scalar};
pub use syrk::{par_syrk_t, par_syrk_t_ws, syrk_t, syrk_t_with, SyrkWorkspace};
