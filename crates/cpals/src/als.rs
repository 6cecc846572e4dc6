//! The CP-ALS driver (§2.2) with selectable MTTKRP kernels.
//!
//! [`cp_als`] is generic over [`MttkrpBackend`]: the same sweep runs on
//! a dense tensor (the two-group plan, planned 1-step/2-step kernels or
//! the explicit baseline) or on a `mttkrp_sparse::CsfTensor` (planned
//! tree-walk kernel) — the driver only ever asks the backend for its
//! shape, its norm, and mode `n`'s MTTKRP inside the sweep.

use mttkrp_blas::{gemm, Layout, MatMut, MatRef, Scalar};
use mttkrp_core::{AlgoChoice, Breakdown, MttkrpBackend, TwoStepSide};
use mttkrp_linalg::{GramSolver, SolvePolicy};
use mttkrp_parallel::ThreadPool;

use crate::gram::{factor_view, gram_into, hadamard_excluding_into, GramWorkspace};
use crate::model::KruskalModel;

/// Which MTTKRP kernel CP-ALS uses for every mode.
///
/// On a dense tensor of order `N >= 3`, [`MttkrpStrategy::Auto`] and
/// [`MttkrpStrategy::Tuned`] run the two-group sweep
/// (`mttkrp_core::DimTreePlan`): two partial-MTTKRP GEMMs per sweep,
/// then one multi-TTV per mode, so the tensor is read twice per sweep
/// instead of `N` times. The forced strategies, order-2 tensors, and
/// the sparse and out-of-core backends run one planned MTTKRP per mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttkrpStrategy {
    /// The two-group sweep on dense order ≥ 3 tensors; otherwise the
    /// paper's per-mode choice (§5.3.3): 1-step for external modes,
    /// 2-step for internal modes.
    Auto,
    /// 1-step everywhere (Algorithm 3).
    OneStep,
    /// 2-step everywhere (Algorithm 4; degenerates to 1-step on
    /// external modes).
    TwoStep,
    /// Tensor-Toolbox-style baseline: explicit reordering
    /// matricization + full KRP + one GEMM per mode (Figure 7's Matlab
    /// comparator).
    Explicit,
    /// The two-group sweep where [`MttkrpStrategy::Auto`] runs it;
    /// elsewhere the per-mode choice from the process-wide cost model
    /// installed by a calibrated tuning profile (`mttkrp-tune`),
    /// identical to [`MttkrpStrategy::Auto`] when no profile is loaded.
    Tuned,
}

impl MttkrpStrategy {
    /// The per-mode [`AlgoChoice`] this strategy plans with, or `None`
    /// for the explicit baseline (which reorders tensor entries and has
    /// no plan-based executor).
    pub fn algo_choice(self) -> Option<AlgoChoice> {
        match self {
            MttkrpStrategy::Auto => Some(AlgoChoice::Heuristic),
            MttkrpStrategy::OneStep => Some(AlgoChoice::OneStep),
            MttkrpStrategy::TwoStep => Some(AlgoChoice::TwoStep(TwoStepSide::Auto)),
            MttkrpStrategy::Explicit => None,
            MttkrpStrategy::Tuned => Some(AlgoChoice::Tuned),
        }
    }
}

/// CP-ALS options.
#[derive(Debug, Clone, Copy)]
pub struct CpAlsOptions {
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between iterations.
    pub tol: f64,
    /// MTTKRP kernel selection.
    pub strategy: MttkrpStrategy,
}

impl Default for CpAlsOptions {
    fn default() -> Self {
        CpAlsOptions {
            max_iters: 50,
            tol: 1e-8,
            strategy: MttkrpStrategy::Auto,
        }
    }
}

/// Convergence/progress record of one CP-ALS run.
#[derive(Debug, Clone)]
pub struct CpAlsReport {
    /// Iterations executed.
    pub iters: usize,
    /// Fit `1 − ‖X − Y‖/‖X‖` after each iteration.
    pub fits: Vec<f64>,
    /// Wall-clock seconds per iteration.
    pub iter_times: Vec<f64>,
    /// Total seconds spent inside MTTKRP kernels.
    pub mttkrp_time: f64,
    /// Accumulated MTTKRP phase breakdown over all modes and iterations.
    pub breakdown: Breakdown,
    /// Per-mode accumulated MTTKRP breakdowns (index = mode) over all
    /// iterations — what the roofline perf report attributes; they sum
    /// to [`CpAlsReport::breakdown`]. In the two-group sweep a group's
    /// KRP and partial GEMM are charged to the mode that forms it
    /// (modes 0 and `⌈N/2⌉`), and every mode carries its multi-TTV.
    pub mode_breakdowns: Vec<Breakdown>,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
}

impl CpAlsReport {
    /// Final fit (0 when no iteration ran).
    pub fn final_fit(&self) -> f64 {
        self.fits.last().copied().unwrap_or(0.0)
    }

    /// Mean per-iteration wall time in seconds.
    pub fn mean_iter_time(&self) -> f64 {
        if self.iter_times.is_empty() {
            0.0
        } else {
            self.iter_times.iter().sum::<f64>() / self.iter_times.len() as f64
        }
    }
}

/// Run CP-ALS from the given initial model, returning the fitted model
/// and a progress report.
///
/// Matches the Tensor Toolbox `cp_als` structure: for each mode in
/// order, MTTKRP → Hadamard of Grams → pseudoinverse solve → column
/// normalization, with the fit evaluated from the last mode's MTTKRP
/// without forming the residual tensor.
///
/// Generic over the tensor storage: pass a `DenseTensor` or a
/// `mttkrp_sparse::CsfTensor` (any [`MttkrpBackend`]). Backends
/// without selectable kernels ignore [`CpAlsOptions::strategy`].
///
/// # Example
///
/// ```
/// use mttkrp_cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
/// use mttkrp_parallel::ThreadPool;
///
/// // A rank-1 tensor built from a known model is recovered to
/// // near-perfect fit within a few sweeps.
/// let dims = [6usize, 5, 4];
/// let truth = KruskalModel::<f64>::random(&dims, 1, 7);
/// let x = truth.to_dense();
/// let pool = ThreadPool::new(2);
/// let (model, report) = cp_als(
///     &pool,
///     &x,
///     KruskalModel::random(&dims, 1, 1),
///     &CpAlsOptions {
///         max_iters: 100,
///         tol: 1e-12,
///         strategy: MttkrpStrategy::Auto,
///     },
/// );
/// assert!(report.final_fit() > 0.999, "fit {}", report.final_fit());
/// assert_eq!(model.rank(), 1);
/// ```
pub fn cp_als<X: MttkrpBackend>(
    pool: &ThreadPool,
    x: &X,
    init: KruskalModel<X::Elem>,
    opts: &CpAlsOptions,
) -> (KruskalModel<X::Elem>, CpAlsReport) {
    let _span = mttkrp_obs::span!("cp_als", rank = init.rank());
    let mut sweep = CpAlsSweep::new(pool, x, init, opts);

    let mut report = CpAlsReport {
        iters: 0,
        // Reserve up-front so steady-state iterations do not reallocate
        // the report vectors (part of the zero-allocation invariant).
        fits: Vec::with_capacity(opts.max_iters),
        iter_times: Vec::with_capacity(opts.max_iters),
        mttkrp_time: 0.0,
        breakdown: Breakdown::default(),
        mode_breakdowns: Vec::new(),
        converged: false,
    };
    let mut prev_fit = f64::NEG_INFINITY;

    for _iter in 0..opts.max_iters {
        let iter_t0 = std::time::Instant::now();
        let (fit, bd) = sweep.sweep(pool, x);
        report.mttkrp_time += bd.total;
        report.breakdown.accumulate(&bd);
        report.iters += 1;
        report.fits.push(fit);
        report.iter_times.push(iter_t0.elapsed().as_secs_f64());

        if (fit - prev_fit).abs() < opts.tol {
            report.converged = true;
            break;
        }
        prev_fit = fit;
    }

    report.mode_breakdowns = sweep.mode_breakdowns().to_vec();
    (sweep.into_model(), report)
}

/// Reusable per-model CP-ALS iteration state: MTTKRP plans, Gram
/// matrices and their workspace, the pseudoinverse scratch, and every
/// intermediate buffer, all allocated at construction.
///
/// [`CpAlsSweep::sweep`] runs one full ALS iteration (all `N` modes:
/// MTTKRP → Gram Hadamard → pseudoinverse solve → normalization, then
/// the fit) and performs **zero heap allocation** on a single-thread
/// pool — the property tests/plan_alloc.rs proves with a counting
/// allocator. [`cp_als`] is a thin driver over this type.
pub struct CpAlsSweep<X: MttkrpBackend> {
    model: KruskalModel<X::Elem>,
    plans: X::PlanSet,
    dims: Vec<usize>,
    c: usize,
    norm_x: f64,
    /// Per-mode Gram matrices of the (normalized) factors, always
    /// accumulated in `f64` (the mixed-precision contract).
    grams: Vec<Vec<f64>>,
    gram_ws: GramWorkspace,
    solve: SolveWorkspace<X::Elem>,
    /// MTTKRP output buffer (`max I_n × C`).
    m_buf: Vec<X::Elem>,
    /// Copy of the last mode's MTTKRP for the fit evaluation.
    last_mode_m: Vec<X::Elem>,
    /// `c × c` scratch for the model-norm Gram Hadamard.
    norm_had: Vec<f64>,
    /// Per-mode accumulated MTTKRP breakdowns (pre-allocated so the
    /// steady-state sweep stays allocation-free).
    mode_bd: Vec<Breakdown>,
}

impl<X: MttkrpBackend> CpAlsSweep<X> {
    /// Build the sweep state: plans every mode and allocates every
    /// buffer the iteration loop needs.
    ///
    /// # Panics
    /// Panics if the model shape does not match the tensor.
    pub fn new(pool: &ThreadPool, x: &X, init: KruskalModel<X::Elem>, opts: &CpAlsOptions) -> Self {
        let dims = x.dims().to_vec();
        let nmodes = dims.len();
        let c = init.rank();
        assert_eq!(init.dims(), &dims[..], "model shape must match tensor");
        // Covers initial Grams plus per-mode plan construction.
        let _span = mttkrp_obs::span!("plan_construct", modes = nmodes);

        let model = init;
        let mut gram_ws = GramWorkspace::new(pool.num_threads());
        let grams: Vec<Vec<f64>> = model
            .factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| {
                let mut g = vec![0.0; c * c];
                gram_into(pool, &mut gram_ws, factor_view(f, d, c), &mut g);
                g
            })
            .collect();

        // The sweep's plans, built once and reused every sweep (for a
        // dense order >= 3 tensor under Auto/Tuned, one two-group plan
        // serving every mode): algorithm choice, partition schedule,
        // and workspaces are fixed by the backend's structure, so the
        // per-iteration MTTKRP path performs no heap allocation.
        let plans = x.plan_sweep(pool, c, opts.strategy.algo_choice());

        CpAlsSweep {
            plans,
            dims: dims.clone(),
            c,
            norm_x: x.norm(),
            grams,
            gram_ws,
            solve: SolveWorkspace::new(c),
            m_buf: vec![<X::Elem as Scalar>::ZERO; dims.iter().copied().max().unwrap_or(0) * c],
            last_mode_m: vec![<X::Elem as Scalar>::ZERO; dims[nmodes - 1] * c],
            norm_had: vec![0.0; c * c],
            mode_bd: vec![Breakdown::default(); nmodes],
            model,
        }
    }

    /// Per-mode accumulated MTTKRP breakdowns over every sweep so far
    /// (index = mode) — the raw material of the roofline perf report.
    #[inline]
    pub fn mode_breakdowns(&self) -> &[Breakdown] {
        &self.mode_bd
    }

    /// The current model.
    #[inline]
    pub fn model(&self) -> &KruskalModel<X::Elem> {
        &self.model
    }

    /// Replace the Gram-solve policy (default
    /// [`SolvePolicy::Auto`], the Cholesky → LDLᵀ → EVD escalation
    /// ladder). [`SolvePolicy::ForceJacobi`] routes every solve through
    /// the pre-refactor Jacobi pseudoinverse, which trajectory tests
    /// use as a bit-level oracle.
    pub fn set_solve_policy(&mut self, policy: SolvePolicy) {
        self.solve.solver.set_policy(policy);
    }

    /// Consume the state, returning the fitted model.
    pub fn into_model(self) -> KruskalModel<X::Elem> {
        self.model
    }

    /// One full ALS iteration over every mode; returns the fit
    /// `1 − ‖X − Y‖/‖X‖` and the accumulated MTTKRP phase breakdown.
    pub fn sweep(&mut self, pool: &ThreadPool, x: &X) -> (f64, Breakdown) {
        let _span = mttkrp_obs::span!("sweep");
        let nmodes = self.dims.len();
        let c = self.c;
        let mut sweep_bd = Breakdown::default();

        for n in 0..nmodes {
            let _mode_span = mttkrp_obs::span!("als_mode", mode = n);
            let rows = self.dims[n];
            let m = &mut self.m_buf[..rows * c];
            let bd = {
                let plans = &mut self.plans;
                self.model
                    .with_factor_refs(|refs| x.mttkrp_in_sweep(plans, pool, refs, n, m))
            };
            sweep_bd.accumulate(&bd);
            self.mode_bd[n].accumulate(&bd);

            if n == nmodes - 1 {
                self.last_mode_m.copy_from_slice(m);
            }
            {
                let _solve_span = mttkrp_obs::span!("solve", mode = n);
                solve_factor_update_ws(
                    &mut self.solve,
                    m,
                    rows,
                    c,
                    &self.grams,
                    n,
                    &mut self.model.factors[n],
                );
            }
            self.model.lambda.fill(1.0);
            self.model.normalize_mode(n);
            gram_into(
                pool,
                &mut self.gram_ws,
                factor_view(&self.model.factors[n], rows, c),
                &mut self.grams[n],
            );
        }

        // Fit via the last-mode MTTKRP: ⟨X, Y⟩ = Σ_{i,c} λ_c·U(i,c)·M(i,c).
        let _fit_span = mttkrp_obs::span!("fit");
        let inner: f64 = {
            let u = &self.model.factors[nmodes - 1];
            let mut s = 0.0;
            for i in 0..self.dims[nmodes - 1] {
                for col in 0..c {
                    s += self.model.lambda[col]
                        * u[i * c + col].to_f64()
                        * self.last_mode_m[i * c + col].to_f64();
                }
            }
            s
        };
        // ‖Y‖² = λᵀ (⊛_k G_k) λ from the Grams already on hand (no
        // recomputation, no allocation).
        let norm_y_sq = {
            self.norm_had.fill(1.0);
            for g in &self.grams {
                for (h, &gg) in self.norm_had.iter_mut().zip(g) {
                    *h *= gg;
                }
            }
            let mut total = 0.0;
            for i in 0..c {
                for j in 0..c {
                    total += self.model.lambda[i] * self.model.lambda[j] * self.norm_had[i + j * c];
                }
            }
            total
        };
        let norm_x_sq = self.norm_x * self.norm_x;
        // ‖X‖² − 2⟨X,Y⟩ + ‖Y‖² cancels catastrophically at a tight fit:
        // a residual within a few rounding errors of its terms is noise,
        // and counts as an exact fit so the fit stops flickering.
        let noise = 8.0 * f64::EPSILON * (norm_x_sq + 2.0 * inner.abs() + norm_y_sq);
        let resid_sq = norm_x_sq - 2.0 * inner + norm_y_sq;
        let resid_sq = if resid_sq <= noise { 0.0 } else { resid_sq };
        let fit = if self.norm_x > 0.0 {
            1.0 - resid_sq.sqrt() / self.norm_x
        } else {
            1.0
        };
        (fit, sweep_bd)
    }
}

/// Reusable scratch of the least-squares factor update (the Gram
/// Hadamard, its pseudoinverse in `f64`, the storage-typed copy the
/// final GEMM consumes, and the escalating Gram solver).
pub(crate) struct SolveWorkspace<S: Scalar = f64> {
    /// `H = ⊛_{k≠n} G_k`, column-major `c × c`.
    h: Vec<f64>,
    /// `H†`, column-major `c × c`.
    p: Vec<f64>,
    /// `H†` narrowed to the storage type for the `M · H†` GEMM.
    p_cast: Vec<S>,
    /// Cholesky → LDLᵀ → EVD escalation solver; always `f64` per the
    /// mixed-precision contract (Grams accumulate in `f64` even for
    /// `f32` storage).
    solver: GramSolver<f64>,
}

impl<S: Scalar> SolveWorkspace<S> {
    pub(crate) fn new(c: usize) -> Self {
        let mut solver = GramSolver::new();
        // Pre-grow every rung's scratch so steady-state sweeps stay
        // allocation-free even when the condition of the Grams drifts
        // across the escalation ladder mid-run.
        solver.reserve(c);
        SolveWorkspace {
            h: vec![0.0; c * c],
            p: vec![0.0; c * c],
            p_cast: vec![S::ZERO; c * c],
            solver,
        }
    }
}

/// One least-squares factor update: `U_n = M · H†` with
/// `H = ⊛_{k≠n} G_k` (all buffers row-major `rows × c`),
/// allocation-free against a caller-held [`SolveWorkspace`].
pub(crate) fn solve_factor_update_ws<S: Scalar>(
    ws: &mut SolveWorkspace<S>,
    m: &[S],
    rows: usize,
    c: usize,
    grams: &[Vec<f64>],
    n: usize,
    out: &mut Vec<S>,
) {
    hadamard_excluding_into(grams, n, c, &mut ws.h);
    ws.solver
        .pinv_into(&ws.h, c, 0.0, &mut ws.p)
        .expect("pseudoinverse of a c x c Gram Hadamard");
    for (d, &src) in ws.p_cast.iter_mut().zip(&ws.p) {
        *d = S::from_f64(src);
    }
    let mv = MatRef::from_slice(m, rows, c, Layout::RowMajor);
    let pv = MatRef::from_slice(&ws.p_cast, c, c, Layout::ColMajor);
    out.resize(rows * c, S::ZERO);
    gemm(
        1.0,
        mv,
        pv,
        0.0,
        MatMut::from_slice(out, rows, c, Layout::RowMajor),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::DenseTensor;

    fn planted_tensor(dims: &[usize], rank: usize, seed: u64) -> DenseTensor {
        KruskalModel::random(dims, rank, seed).to_dense()
    }

    #[test]
    fn fit_is_monotone_nondecreasing_after_first_iters() {
        let x = planted_tensor(&[6, 5, 4], 3, 11);
        let pool = ThreadPool::new(2);
        let init = KruskalModel::random(&[6, 5, 4], 3, 99);
        let (_, report) = cp_als(
            &pool,
            &x,
            init,
            &CpAlsOptions {
                max_iters: 30,
                ..Default::default()
            },
        );
        for w in report.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "fit decreased: {:?}", report.fits);
        }
    }

    #[test]
    fn recovers_planted_rank() {
        let x = planted_tensor(&[8, 7, 6], 2, 3);
        let pool = ThreadPool::new(2);
        let init = KruskalModel::random(&[8, 7, 6], 2, 1234);
        let (_, report) = cp_als(
            &pool,
            &x,
            init,
            &CpAlsOptions {
                max_iters: 200,
                tol: 1e-12,
                ..Default::default()
            },
        );
        // Random-init ALS can crawl through a swamp; 0.99 still implies
        // the planted structure was found (random models fit ≪ 0.9).
        assert!(report.final_fit() > 0.99, "fit = {}", report.final_fit());
    }

    #[test]
    fn all_strategies_converge_to_same_fit_from_same_init() {
        let x = planted_tensor(&[5, 4, 3, 3], 2, 21);
        let pool = ThreadPool::new(2);
        let opts_base = CpAlsOptions {
            max_iters: 25,
            tol: 0.0,
            ..Default::default()
        };
        let mut fits = Vec::new();
        for strategy in [
            MttkrpStrategy::Auto,
            MttkrpStrategy::OneStep,
            MttkrpStrategy::TwoStep,
            MttkrpStrategy::Explicit,
        ] {
            let init = KruskalModel::random(&[5, 4, 3, 3], 2, 777);
            let (_, report) = cp_als(
                &pool,
                &x,
                init,
                &CpAlsOptions {
                    strategy,
                    ..opts_base
                },
            );
            fits.push(report.final_fit());
        }
        for f in &fits[1..] {
            assert!((f - fits[0]).abs() < 1e-6, "strategies disagree: {fits:?}");
        }
    }

    #[test]
    fn converged_flag_set_on_tight_problem() {
        let x = planted_tensor(&[5, 5, 5], 1, 2);
        let pool = ThreadPool::new(1);
        let init = KruskalModel::random(&[5, 5, 5], 1, 3);
        let (_, report) = cp_als(
            &pool,
            &x,
            init,
            &CpAlsOptions {
                max_iters: 500,
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(report.converged);
        assert!(report.iters < 500);
    }

    #[test]
    fn report_times_are_populated() {
        let x = planted_tensor(&[4, 4, 4], 2, 5);
        let pool = ThreadPool::new(1);
        let init = KruskalModel::random(&[4, 4, 4], 2, 6);
        let (_, report) = cp_als(
            &pool,
            &x,
            init,
            &CpAlsOptions {
                max_iters: 3,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(report.iters, 3);
        assert_eq!(report.iter_times.len(), 3);
        assert!(report.mttkrp_time > 0.0);
        assert!(report.mean_iter_time() > 0.0);
        assert!(report.breakdown.total > 0.0);
    }

    #[test]
    fn two_way_matrix_factorization_works() {
        // CP on a matrix is just a low-rank matrix factorization.
        let x = planted_tensor(&[10, 8], 2, 31);
        let pool = ThreadPool::new(2);
        let init = KruskalModel::random(&[10, 8], 2, 32);
        let (_, report) = cp_als(
            &pool,
            &x,
            init,
            &CpAlsOptions {
                max_iters: 300,
                tol: 1e-13,
                ..Default::default()
            },
        );
        assert!(report.final_fit() > 0.999, "fit = {}", report.final_fit());
    }
}
