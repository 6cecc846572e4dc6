//! Gradient-based CP fitting (CP-OPT style), demonstrating the
//! all-modes MTTKRP and the analytic gradient.
//!
//! The paper (§2.2) points out that gradient methods are bottlenecked
//! by the same MTTKRP kernel as ALS; here all `N` MTTKRPs per gradient
//! evaluation are computed from two shared partial GEMMs (the
//! two-group `DimTreePlan` behind `plan_sweep`). Plain gradient descent
//! with backtracking line search — not competitive with ALS, but a
//! faithful skeleton for CP-OPT/L-BFGS-style optimizers.
//!
//! ```text
//! cargo run --release --example cp_opt
//! ```

use mttkrp_repro::cpals::{cp_gradient, cp_gradient_planned, KruskalModel};
use mttkrp_repro::mttkrp::{AlgoChoice, MttkrpBackend};
use mttkrp_repro::parallel::ThreadPool;

fn main() {
    let dims = [30usize, 25, 20];
    let rank = 3;
    let pool = ThreadPool::host();
    let x = KruskalModel::<f64>::random(&dims, rank, 1).to_dense();
    let norm_x_sq = x.data().iter().map(|v| v * v).sum::<f64>();

    let mut model = KruskalModel::random(&dims, rank, 2);
    let mut step = 1e-3;
    let (mut f, mut grads) = cp_gradient(&pool, &x, &model);
    println!(
        "iter 0: f = {f:.6e}, fit = {:.4}",
        1.0 - (2.0 * f / norm_x_sq).sqrt()
    );

    // The optimizer loop reuses one set of sweep plans and one set of
    // gradient buffers across every evaluation — steady-state gradient
    // descent allocates nothing MTTKRP-sized.
    let mut plan = x.plan_sweep(&pool, rank, Some(AlgoChoice::Heuristic));
    let mut g_new: Vec<Vec<f64>> = dims.iter().map(|&d| vec![0.0; d * rank]).collect();
    for iter in 1..=200 {
        // Candidate update with backtracking on the objective.
        let mut accepted = false;
        for _ in 0..20 {
            let mut cand = model.clone();
            for (fac, g) in cand.factors.iter_mut().zip(&grads) {
                for (w, &gi) in fac.iter_mut().zip(g) {
                    *w -= step * gi;
                }
            }
            let f_new = cp_gradient_planned(&pool, &x, &cand, &mut plan, &mut g_new);
            if f_new < f {
                model = cand;
                f = f_new;
                for (dst, src) in grads.iter_mut().zip(&g_new) {
                    dst.copy_from_slice(src);
                }
                step *= 1.2;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            println!("line search stalled at iter {iter}");
            break;
        }
        if iter % 25 == 0 {
            let fit = 1.0 - (2.0 * f / norm_x_sq).sqrt();
            println!("iter {iter}: f = {f:.6e}, fit = {fit:.6}, step = {step:.2e}");
        }
        let gnorm: f64 = grads
            .iter()
            .flat_map(|g| g.iter())
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt();
        if gnorm < 1e-10 {
            println!("converged: ‖∇f‖ = {gnorm:.2e} at iter {iter}");
            break;
        }
    }
    let fit = 1.0 - (2.0 * f / norm_x_sq).sqrt();
    println!("final fit = {fit:.6} (planted rank-{rank} tensor)");
}
