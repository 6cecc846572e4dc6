//! Nonnegative CP decomposition by HALS (hierarchical alternating least
//! squares, Cichocki et al.), built on the same MTTKRP kernels.
//!
//! The paper's related work (§2.4) includes Liavas et al.'s parallel
//! *nonnegative* CP; this module provides that capability. Each mode
//! update takes its MTTKRP from the same sweep plans as `cp_als` (so
//! all of the paper's kernel speedups carry over — MTTKRP still
//! dominates), and then performs rank-one HALS column updates with a
//! nonnegativity clamp instead of the unconstrained pseudoinverse solve:
//!
//! `U_n(:,c) ← max(0, U_n(:,c) + (M(:,c) − U_n·H(:,c)) / H(c,c))`
//!
//! where `M` is the mode-`n` MTTKRP and `H = ⊛_{k≠n} U_kᵀU_k`.

use mttkrp_core::{AlgoChoice, Breakdown, MttkrpPlanSet};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;

use crate::als::{CpAlsOptions, CpAlsReport};
use crate::gram::{factor_view, gram_into, hadamard_excluding_into, GramWorkspace};
use crate::model::KruskalModel;

/// Floor applied after the nonnegativity clamp so no column ever
/// collapses to exactly zero (which would make its Gram row singular
/// and permanently freeze the component).
const HALS_FLOOR: f64 = 1e-16;

/// Nonnegative CP-ALS via HALS column updates.
///
/// The initial model must be elementwise nonnegative
/// ([`KruskalModel::random`] qualifies). The `strategy` option is
/// ignored: an order ≥ 3 tensor runs the two-group sweep
/// (`MttkrpPlanSet::for_sweep` under the heuristic), an order-2 tensor
/// the per-mode heuristic plans.
///
/// # Panics
/// Panics if the initial factors contain negative entries.
pub fn cp_als_nn(
    pool: &ThreadPool,
    x: &DenseTensor,
    init: KruskalModel,
    opts: &CpAlsOptions,
) -> (KruskalModel, CpAlsReport) {
    let dims = x.dims().to_vec();
    let nmodes = dims.len();
    let c = init.rank();
    assert_eq!(init.dims(), &dims[..], "model shape must match tensor");
    for (n, f) in init.factors.iter().enumerate() {
        assert!(
            f.iter().all(|&v| v >= 0.0),
            "factor {n} has negative entries"
        );
    }

    let mut model = init;
    let norm_x = x.norm();
    let norm_x_sq = norm_x * norm_x;
    // Workspaces held across sweeps (same steady-state allocation
    // discipline as `CpAlsSweep`): SYRK accumulators for the Grams and
    // the Hadamard-product scratch for each mode update.
    let mut gram_ws = GramWorkspace::new(pool.num_threads());
    let mut h = vec![0.0; c * c];
    let mut grams: Vec<Vec<f64>> = model
        .factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| {
            let mut g = vec![0.0; c * c];
            gram_into(pool, &mut gram_ws, factor_view(f, d, c), &mut g);
            g
        })
        .collect();

    let mut report = CpAlsReport {
        iters: 0,
        fits: Vec::new(),
        iter_times: Vec::new(),
        mttkrp_time: 0.0,
        breakdown: Breakdown::default(),
        mode_breakdowns: vec![Breakdown::default(); nmodes],
        converged: false,
    };
    let mut m_buf = vec![0.0; dims.iter().copied().max().unwrap() * c];
    let mut prev_fit = f64::NEG_INFINITY;

    // Same plans as `cp_als`, built once per model. Only factor `n`
    // changes after mode `n`'s MTTKRP, the in-sweep call order the
    // two-group plan reuses its partials under.
    let mut plans = MttkrpPlanSet::for_sweep(pool, &dims, c, AlgoChoice::Heuristic);

    let mut last_mode_m = vec![0.0; dims[nmodes - 1] * c];
    for _iter in 0..opts.max_iters {
        let iter_t0 = std::time::Instant::now();

        for n in 0..nmodes {
            let rows = dims[n];
            let m = &mut m_buf[..rows * c];
            let bd = {
                let refs = model.factor_refs();
                plans.execute_in_sweep(pool, x, &refs, n, m)
            };
            report.mttkrp_time += bd.total;
            report.breakdown.accumulate(&bd);
            report.mode_breakdowns[n].accumulate(&bd);

            if n == nmodes - 1 {
                last_mode_m.copy_from_slice(m);
            }
            hadamard_excluding_into(&grams, n, c, &mut h);
            hals_update(&mut model.factors[n], m, &h, rows, c);
            model.lambda.fill(1.0);
            model.normalize_mode(n);
            gram_into(
                pool,
                &mut gram_ws,
                factor_view(&model.factors[n], rows, c),
                &mut grams[n],
            );
        }

        // Fit via the last-mode MTTKRP (as in cp_als).
        let inner: f64 = {
            let u = &model.factors[nmodes - 1];
            let mut s = 0.0;
            for i in 0..dims[nmodes - 1] {
                for col in 0..c {
                    s += model.lambda[col] * u[i * c + col] * last_mode_m[i * c + col];
                }
            }
            s
        };
        let resid_sq = (norm_x_sq - 2.0 * inner + model.norm_sq()).max(0.0);
        let fit = if norm_x > 0.0 {
            1.0 - resid_sq.sqrt() / norm_x
        } else {
            1.0
        };

        report.iters += 1;
        report.fits.push(fit);
        report.iter_times.push(iter_t0.elapsed().as_secs_f64());
        if (fit - prev_fit).abs() < opts.tol {
            report.converged = true;
            break;
        }
        prev_fit = fit;
    }

    (model, report)
}

/// One HALS sweep over the `c` columns of factor `u` (row-major
/// `rows × c`), given the mode's MTTKRP `m` and Gram Hadamard `h`
/// (column-major `c × c`).
fn hals_update(u: &mut [f64], m: &[f64], h: &[f64], rows: usize, c: usize) {
    for col in 0..c {
        let hcc = h[col + col * c].max(f64::MIN_POSITIVE);
        for i in 0..rows {
            // (U·H(:,col))_i over the *current* U, including already-
            // updated columns — the "hierarchical" in HALS.
            let mut uh = 0.0;
            let row = &u[i * c..(i + 1) * c];
            for k in 0..c {
                uh += row[k] * h[k + col * c];
            }
            let v = u[i * c + col] + (m[i * c + col] - uh) / hcc;
            u[i * c + col] = if v > HALS_FLOOR { v } else { HALS_FLOOR };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_nonneg(dims: &[usize], rank: usize, seed: u64) -> DenseTensor {
        // KruskalModel::random is uniform [0,1): already nonnegative.
        KruskalModel::random(dims, rank, seed).to_dense()
    }

    #[test]
    fn factors_stay_nonnegative() {
        let dims = [6usize, 5, 4];
        let x = planted_nonneg(&dims, 3, 1);
        let pool = ThreadPool::new(2);
        let opts = CpAlsOptions {
            max_iters: 15,
            tol: 0.0,
            ..Default::default()
        };
        let (model, _) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 3, 2), &opts);
        for f in &model.factors {
            assert!(f.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn fit_is_monotone_nondecreasing() {
        let dims = [7usize, 6, 5];
        let x = planted_nonneg(&dims, 2, 3);
        let pool = ThreadPool::new(1);
        let opts = CpAlsOptions {
            max_iters: 30,
            tol: 0.0,
            ..Default::default()
        };
        let (_, report) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 2, 4), &opts);
        // The clamp + per-mode renormalization can cause fit jitter of
        // up to ~1e-4 once converged (scale depends on the planted
        // data); require monotonicity up to that noise.
        for w in report.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-4, "fits: {:?}", report.fits);
        }
    }

    #[test]
    fn recovers_planted_nonnegative_structure() {
        let dims = [8usize, 7, 6];
        let x = planted_nonneg(&dims, 2, 5);
        let pool = ThreadPool::new(2);
        let opts = CpAlsOptions {
            max_iters: 250,
            tol: 1e-12,
            ..Default::default()
        };
        let (_, report) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 2, 6), &opts);
        // HALS converges more slowly than unconstrained ALS; 0.95 still
        // implies the planted structure dominates the fit.
        assert!(report.final_fit() > 0.95, "fit = {}", report.final_fit());
    }

    #[test]
    fn rank1_recovery_is_essentially_exact() {
        let dims = [9usize, 5, 7];
        let x = planted_nonneg(&dims, 1, 11);
        let pool = ThreadPool::new(1);
        let opts = CpAlsOptions {
            max_iters: 200,
            tol: 1e-13,
            ..Default::default()
        };
        let (_, report) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 1, 12), &opts);
        assert!(report.final_fit() > 0.9999, "fit = {}", report.final_fit());
    }

    #[test]
    fn works_on_4way_tensors() {
        let dims = [4usize, 5, 3, 4];
        let x = planted_nonneg(&dims, 2, 7);
        let pool = ThreadPool::new(2);
        let opts = CpAlsOptions {
            max_iters: 100,
            tol: 1e-10,
            ..Default::default()
        };
        let (model, report) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 2, 8), &opts);
        assert!(report.final_fit() > 0.95, "fit = {}", report.final_fit());
        assert!(model.lambda.iter().all(|&l| l >= 0.0));
    }

    /// On a 4-way tensor HALS runs the two-group sweep: only modes 0
    /// and 2 form a partial GEMM.
    #[test]
    fn four_way_sweep_forms_partials_at_modes_0_and_2() {
        let dims = [4usize, 5, 3, 4];
        let x = planted_nonneg(&dims, 2, 7);
        let pool = ThreadPool::new(1);
        let opts = CpAlsOptions {
            max_iters: 3,
            tol: 0.0,
            ..Default::default()
        };
        let (_, report) = cp_als_nn(&pool, &x, KruskalModel::random(&dims, 2, 8), &opts);
        for (n, bd) in report.mode_breakdowns.iter().enumerate() {
            assert_eq!(bd.dgemm > 0.0, n == 0 || n == 2, "mode {n}: {bd:?}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_negative_init() {
        let dims = [3usize, 3];
        let x = planted_nonneg(&dims, 1, 1);
        let pool = ThreadPool::new(1);
        let mut init = KruskalModel::random(&dims, 1, 2);
        init.factors[0][0] = -1.0;
        let _ = cp_als_nn(&pool, &x, init, &CpAlsOptions::default());
    }
}
