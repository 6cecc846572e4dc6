//! Gradient of the CP objective, for gradient-based optimizers.
//!
//! The paper notes (§2.2) that alternatives to ALS — CP-OPT and other
//! gradient methods — are *also* bottlenecked by MTTKRP, because for
//! `f(U) = ½‖X − ⟦U_0, …, U_{N−1}⟧‖²` the gradient is
//!
//! `∂f/∂U_n = U_n·(⊛_{k≠n} U_kᵀU_k) − M_n`
//!
//! with `M_n` the mode-`n` MTTKRP. All `N` MTTKRPs are computed at a
//! *fixed* factor set: the sweep call sequence of
//! [`MttkrpBackend::mttkrp_in_sweep`] with no updates in between, so a
//! dense order ≥ 3 tensor gets all of them from the two partial GEMMs
//! of `mttkrp_core::DimTreePlan`.

use mttkrp_blas::{gemm, Layout, MatMut, MatRef, Scalar};
use mttkrp_core::{AlgoChoice, MttkrpBackend};
use mttkrp_parallel::ThreadPool;

use crate::gram::{factor_view, gram, hadamard_excluding};
use crate::model::KruskalModel;

/// The CP objective `f = ½‖X − Y‖²` and its gradient with respect to
/// every factor matrix (λ is treated as folded into the factors and
/// must be all-ones).
///
/// Returns `(f, [∂f/∂U_0, …])` with each gradient row-major `I_n × C`.
///
/// Generic over the tensor storage ([`MttkrpBackend`]): the gradient
/// needs only the `N` MTTKRPs plus `‖X‖²`, so it runs unchanged on
/// dense or CSF tensors. It plans with
/// [`MttkrpBackend::plan_sweep`], so a dense order ≥ 3 tensor shares
/// two partial GEMMs across the modes. Optimizers evaluating many
/// gradients at the same shape should hold those plans and call
/// [`cp_gradient_planned`] instead.
///
/// # Panics
/// Panics if the model's λ is not identically 1 (fold weights into a
/// factor first) or shapes mismatch.
pub fn cp_gradient<X: MttkrpBackend>(
    pool: &ThreadPool,
    x: &X,
    model: &KruskalModel<X::Elem>,
) -> (f64, Vec<Vec<X::Elem>>) {
    let mut plans = x.plan_sweep(pool, model.rank(), Some(AlgoChoice::Heuristic));
    let mut grads: Vec<Vec<X::Elem>> = x
        .dims()
        .iter()
        .map(|&d| vec![<X::Elem as Scalar>::ZERO; d * model.rank()])
        .collect();
    let f = cp_gradient_planned(pool, x, model, &mut plans, &mut grads);
    (f, grads)
}

/// Shared tail of both gradient entry points. Precondition: `grads[n]`
/// holds the mode-`n` MTTKRP `M_n`. Applies `G_n = U_n·H − M_n` with
/// `H = ⊛_{k≠n} G_k` in place and returns the objective
/// `½(‖X‖² − 2⟨X,Y⟩ + ‖Y‖²).max(0)`, with `⟨X,Y⟩` read from the last
/// mode's MTTKRP before it is consumed.
fn finish_gradient<S: Scalar>(
    pool: &ThreadPool,
    model: &KruskalModel<S>,
    dims: &[usize],
    norm_x_sq: f64,
    grads: &mut [Vec<S>],
) -> f64 {
    let nmodes = dims.len();
    let c = model.rank();
    let refs = model.factor_refs();
    let grams: Vec<Vec<f64>> = model
        .factors
        .iter()
        .zip(dims)
        .map(|(f, &d)| gram(pool, factor_view(f, d, c)))
        .collect();

    let inner: f64 = {
        let n = nmodes - 1;
        let u = &model.factors[n];
        u.iter()
            .zip(&grads[n])
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .sum()
    };

    let mut h_cast = vec![S::ZERO; c * c];
    for n in 0..nmodes {
        let rows = dims[n];
        let g = &mut grads[n];
        assert_eq!(g.len(), rows * c, "gradient buffer {n} must be I_n × C");
        // G_n = U_n·H − M_n  (H symmetric; narrowed to the storage type
        // for the GEMM after the f64 Gram Hadamard).
        let h = hadamard_excluding(&grams, n, c);
        for (d, &src) in h_cast.iter_mut().zip(&h) {
            *d = S::from_f64(src);
        }
        let hv = MatRef::from_slice(&h_cast, c, c, Layout::ColMajor);
        gemm(
            1.0,
            refs[n],
            hv,
            -1.0,
            MatMut::from_slice(g, rows, c, Layout::RowMajor),
        );
    }

    let f = 0.5 * (norm_x_sq - 2.0 * inner + model.norm_sq());
    f.max(0.0)
}

/// [`cp_gradient`] against caller-held state: plans from
/// [`MttkrpBackend::plan_sweep`] and the per-mode gradient buffers are
/// reused across evaluations, so an optimizer's steady-state gradient
/// loop allocates nothing tensor-sized — only the `C × C` Gram and
/// Hadamard products remain per call.
///
/// # Panics
/// Panics if the model's λ is not identically 1, shapes mismatch, or
/// `grads` does not hold one `I_n × C` buffer per mode.
pub fn cp_gradient_planned<X: MttkrpBackend>(
    pool: &ThreadPool,
    x: &X,
    model: &KruskalModel<X::Elem>,
    plans: &mut X::PlanSet,
    grads: &mut [Vec<X::Elem>],
) -> f64 {
    assert!(
        model.lambda.iter().all(|&l| l == 1.0),
        "fold λ into a factor before calling cp_gradient"
    );
    let dims = x.dims().to_vec();
    let c = model.rank();
    assert_eq!(model.dims(), &dims[..], "model shape must match tensor");
    assert_eq!(grads.len(), dims.len(), "one gradient buffer per mode");
    for (n, g) in grads.iter().enumerate() {
        assert_eq!(g.len(), dims[n] * c, "gradient buffer {n} must be I_n × C");
    }

    model.with_factor_refs(|refs| {
        for (n, g) in grads.iter_mut().enumerate() {
            x.mttkrp_in_sweep(plans, pool, refs, n, g);
        }
    });
    let norm_x = x.norm();
    finish_gradient(pool, model, &dims, norm_x * norm_x, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::DenseTensor;

    fn objective(x: &DenseTensor, model: &KruskalModel) -> f64 {
        let y = model.to_dense();
        let mut s = 0.0;
        for (a, b) in x.data().iter().zip(y.data()) {
            s += (a - b) * (a - b);
        }
        0.5 * s
    }

    #[test]
    fn objective_matches_dense_residual() {
        let dims = [4usize, 3, 3];
        let x = KruskalModel::random(&dims, 2, 1).to_dense();
        let model = KruskalModel::random(&dims, 2, 2);
        let pool = ThreadPool::new(2);
        let (f, _) = cp_gradient(&pool, &x, &model);
        let want = objective(&x, &model);
        assert!((f - want).abs() < 1e-8 * (1.0 + want), "{f} vs {want}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let dims = [3usize, 4, 2];
        let c = 2;
        let x = KruskalModel::random(&dims, c, 5).to_dense();
        let model = KruskalModel::random(&dims, c, 6);
        let pool = ThreadPool::new(1);
        let (_, grads) = cp_gradient(&pool, &x, &model);

        let eps = 1e-6;
        for n in 0..dims.len() {
            for idx in 0..dims[n] * c {
                let mut plus = model.clone();
                plus.factors[n][idx] += eps;
                let mut minus = model.clone();
                minus.factors[n][idx] -= eps;
                let fd = (objective(&x, &plus) - objective(&x, &minus)) / (2.0 * eps);
                let an = grads[n][idx];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                    "mode {n} idx {idx}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_vanishes_at_exact_decomposition() {
        let dims = [5usize, 4, 3];
        let model = KruskalModel::<f64>::random(&dims, 2, 8);
        let x = model.to_dense();
        let pool = ThreadPool::new(2);
        let (f, grads) = cp_gradient(&pool, &x, &model);
        assert!(f < 1e-16 * x.norm().powi(2).max(1.0) + 1e-10, "f = {f}");
        for g in &grads {
            for &v in g {
                assert!(v.abs() < 1e-8, "gradient entry {v}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_weighted_models() {
        let dims = [3usize, 3];
        let x = KruskalModel::<f64>::random(&dims, 1, 1).to_dense();
        let mut model = KruskalModel::random(&dims, 1, 2);
        model.lambda[0] = 2.0;
        let pool = ThreadPool::new(1);
        let _ = cp_gradient(&pool, &x, &model);
    }

    /// The gradient through held two-group plans against the gradient
    /// through per-mode 1-step plans (and a one-shot `cp_gradient`),
    /// over orders 2–6 with ragged and size-1 modes.
    #[test]
    fn two_group_gradient_matches_per_mode() {
        let cases: [(&[usize], usize, usize); 8] = [
            (&[4, 5], 3, 1),
            (&[4, 3, 5], 3, 2),
            (&[3, 4, 2, 3], 2, 2),
            (&[2, 3, 2, 2, 3], 2, 3),
            (&[2, 2, 2, 2, 2, 2], 2, 1),
            (&[13, 2, 7], 4, 2),
            (&[1, 6, 5], 2, 2),
            (&[6, 1, 5, 2], 2, 1),
        ];
        for (dims, c, t) in cases {
            let x = KruskalModel::random(dims, c, 31).to_dense();
            let pool = ThreadPool::new(t);
            let zeros = || -> Vec<Vec<f64>> { dims.iter().map(|&d| vec![0.0; d * c]).collect() };
            let mut tree = x.plan_sweep(&pool, c, Some(AlgoChoice::Heuristic));
            let mut per_mode = x.plan_modes(&pool, c, Some(AlgoChoice::OneStep));
            for seed in [32, 33] {
                let model = KruskalModel::random(dims, c, seed);
                let (mut got, mut want) = (zeros(), zeros());
                let f = cp_gradient_planned(&pool, &x, &model, &mut tree, &mut got);
                let f_want = cp_gradient_planned(&pool, &x, &model, &mut per_mode, &mut want);
                assert!((f - f_want).abs() <= 1e-12 * (1.0 + f_want), "{dims:?}");
                for (a, b) in got.iter().flatten().zip(want.iter().flatten()) {
                    assert!(
                        (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                        "{dims:?}: {a} vs {b}"
                    );
                }
                assert_eq!(
                    cp_gradient(&pool, &x, &model).1,
                    got,
                    "{dims:?}: held vs fresh"
                );
            }
        }
    }
}
