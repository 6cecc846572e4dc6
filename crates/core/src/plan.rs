//! Reusable MTTKRP execution plans — the plan/executor split.
//!
//! An MTTKRP call needs three things: the per-mode algorithm choice,
//! the static partition schedule, and its intermediate buffers
//! (thread-private outputs, 2-step partials). They depend only on
//! *shape* (tensor dims, rank, mode, team size), not on tensor or
//! factor values, so an iterative driver like CP-ALS, which performs
//! the same `N` MTTKRPs every sweep, can make them exactly once.
//!
//! [`MttkrpPlan`] captures everything shape-dependent:
//!
//! * the **algorithm choice** ([`AlgoChoice`] → [`PlannedAlgo`]):
//!   external modes always run the 1-step algorithm (the 2-step
//!   degenerates to it); internal modes run 2-step by default (the
//!   paper's §5.3.3 dispatch), a forced variant, or whichever a
//!   machine-model prediction says is faster
//!   ([`AlgoChoice::Predicted`], fed by `mttkrp_machine::predict`);
//! * the **static partition schedule**: per-thread column ranges of
//!   `X(n)` for external modes (`mttkrp_parallel::block_range`),
//!   block-cyclic dealing parameters for internal modes, and the
//!   left/right side of the 2-step partial;
//! * **pre-allocated workspaces**: private `I_n × C` accumulators held
//!   in a [`mttkrp_parallel::Workspace`] arena, and the 2-step's partial
//!   MTTKRP — the same crate-private type, with its partial, `k`-chunk
//!   and multi-TTV scratch, that [`DimTreePlan`] holds two of (see
//!   [`crate::multimode`]). No executor forms a KRP: every GEMM takes
//!   its Khatri-Rao `B` as a [`KrpRef`] over the factors, whose rows
//!   the GEMM's pack generates.
//!
//! [`MttkrpPlan::execute`] then runs the kernel against borrowed tensor
//! and factor data. Steady-state execution performs **no heap
//! allocation in the MTTKRP path** for single-thread pools, and only
//! O(threads) bookkeeping allocations (the reduction's slice-of-parts
//! header, pool messages) for multi-thread pools; every
//! tensor-sized or rank-sized buffer is reused across calls.
//!
//! The old free functions (`mttkrp_1step`, `mttkrp_2step`,
//! `mttkrp_auto`) remain as thin wrappers that build a plan, run it
//! once, and drop it — one code path for both APIs, so wrapper and
//! plan-based execution are bitwise identical.
//!
//! # Example
//!
//! ```
//! use mttkrp_blas::{Layout, MatRef};
//! use mttkrp_core::{AlgoChoice, MttkrpPlan};
//! use mttkrp_parallel::ThreadPool;
//! use mttkrp_tensor::DenseTensor;
//!
//! let dims = [4usize, 3, 2];
//! let c = 2;
//! let pool = ThreadPool::new(2);
//! let mut plan = MttkrpPlan::new(&pool, &dims, c, 1, AlgoChoice::Heuristic);
//!
//! let x = DenseTensor::from_vec(&dims, (0..24).map(|i| i as f64).collect());
//! let factors: Vec<Vec<f64>> = dims.iter().map(|&d| vec![1.0; d * c]).collect();
//! let refs: Vec<MatRef> = factors
//!     .iter()
//!     .zip(&dims)
//!     .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
//!     .collect();
//! let mut m = vec![0.0; dims[1] * c];
//! plan.execute(&pool, &x, &refs, &mut m);   // reusable: no fresh buffers
//! plan.execute(&pool, &x, &refs, &mut m);
//! assert_eq!(m[0], (0..24).filter(|i| (i / 4) % 3 == 0).sum::<usize>() as f64);
//! ```

use std::ops::Range;

use mttkrp_blas::{gemm_krp_with, kernels, KernelSet, KrpRef, Layout, MatMut, MatRef, Scalar};
use mttkrp_parallel::{block_range, reduce, ThreadPool, Workspace};
use mttkrp_tensor::DenseTensor;

use crate::breakdown::{timed, timed_traced, Breakdown};
use crate::model::{tuned_cost, ModeCost};
use crate::multimode::{ttv_workspace, DimTreePlan, Partial, TtvSlot};
use crate::twostep::TwoStepSide;
use crate::validate_factors;

/// How a plan picks the kernel for its mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgoChoice {
    /// The paper's §5.3.3 dispatch: 1-step for external modes, 2-step
    /// (auto side) for internal modes. What [`crate::mttkrp_auto`] does.
    Heuristic,
    /// Force the 1-step algorithm (Algorithm 3) on every mode.
    OneStep,
    /// Force the 2-step algorithm (Algorithm 4) with the given side on
    /// internal modes; external modes still degenerate to 1-step.
    TwoStep(TwoStepSide),
    /// Pick whichever of the two predicted times is smaller — the
    /// machine-model override. Build the predictions with
    /// `mttkrp_machine::predicted_choice`.
    Predicted {
        /// Predicted seconds for the 1-step algorithm on this mode.
        one_step: f64,
        /// Predicted seconds for the 2-step algorithm on this mode.
        two_step: f64,
    },
    /// Consult the process-wide cost model installed by the tuning
    /// subsystem ([`crate::model::install_cost_model`], fed by a
    /// calibrated `mttkrp-tune` profile): resolves to
    /// [`AlgoChoice::Predicted`] with the model's per-mode times when a
    /// model is installed, and falls back to [`AlgoChoice::Heuristic`]
    /// otherwise — so `Tuned` is always safe to request.
    Tuned,
}

/// The fully resolved kernel a plan will run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedAlgo {
    /// 1-step where `X(n)` is a single strided view (external modes,
    /// plus any mode whose left or right dims are all 1): one GEMM per
    /// thread on its column block, parallel reduction.
    OneStepExternal,
    /// 1-step on a blocked internal mode: block-cyclic GEMMs, parallel
    /// reduction.
    OneStepInternal,
    /// 2-step, partial on the left (`L = X(0:n−1)ᵀ·KL`).
    TwoStepLeft,
    /// 2-step, partial on the right (`R = X(0:n)·KR`).
    TwoStepRight,
}

/// Per-thread workspace of the external-mode 1-step executor.
struct ExtSlot<S: Scalar> {
    /// This thread's static column range of `X(n)` (empty beyond the
    /// threads that receive one).
    cols: Range<usize>,
    /// Private `I_n × C` output accumulator.
    m: Vec<S>,
    /// Per-thread phase times for the merged breakdown.
    bd: Breakdown,
}

/// Per-thread workspace of the internal-mode 1-step executor.
struct IntSlot<S: Scalar> {
    /// Private `I_n × C` output accumulator.
    m: Vec<S>,
    /// Per-thread phase times for the merged breakdown.
    bd: Breakdown,
}

/// The external-mode 1-step: one GEMM per thread on its column block
/// of `X(n)` and the matching KRP rows, then a reduction.
struct ExtPlan<S: Scalar> {
    /// Threads that actually receive a column block.
    nsplit: usize,
    /// Factor indices in KRP order (descending, skipping `n`).
    krp_order: Vec<usize>,
    ws: Workspace<ExtSlot<S>>,
}

/// The internal-mode 1-step: block-cyclic GEMMs, block `j` against KRP
/// rows `j·IL_n..(j+1)·IL_n`, then a reduction.
struct IntPlan<S: Scalar> {
    /// Factor indices in KRP order (descending, skipping `n`).
    krp_order: Vec<usize>,
    ws: Workspace<IntSlot<S>>,
}

enum PlanKind<S: Scalar> {
    OneStepExternal(ExtPlan<S>),
    OneStepInternal(IntPlan<S>),
    /// The group `n..N` (left side) or `0..=n` (right side).
    TwoStep {
        partial: Partial<S>,
        ttv: Workspace<TtvSlot<S>>,
    },
}

/// A reusable execution plan for the mode-`n` MTTKRP of one tensor
/// shape, rank, and thread-pool size. See the [module docs](self).
///
/// Generic over the element type `S` ([`Scalar`]; defaults to `f64`):
/// an `MttkrpPlan<f32>` runs the same schedule over `f32` tensor and
/// factor data with the f32 SIMD kernel tiers (twice the lanes, half
/// the memory traffic).
pub struct MttkrpPlan<S: Scalar = f64> {
    dims: Vec<usize>,
    c: usize,
    n: usize,
    threads: usize,
    algo: PlannedAlgo,
    /// The choice the plan was resolved from, post-`Tuned` resolution
    /// (`Tuned` itself never survives construction: it becomes
    /// `Predicted` or `Heuristic`). Kept so drivers and the
    /// [`crate::ChoiceLog`] can compare predictions against
    /// measurements.
    choice: AlgoChoice,
    kind: PlanKind<S>,
    /// Dispatched SIMD kernels for GEMM tiles and Hadamard row
    /// products, resolved at plan construction.
    kernels: KernelSet<S>,
}

impl<S: Scalar> std::fmt::Debug for MttkrpPlan<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MttkrpPlan")
            .field("dims", &self.dims)
            .field("c", &self.c)
            .field("n", &self.n)
            .field("threads", &self.threads)
            .field("algo", &self.algo)
            .finish()
    }
}

impl<S: Scalar> MttkrpPlan<S> {
    /// Plan the mode-`n` MTTKRP of a `dims` tensor at rank `c` on
    /// `pool`'s team, resolving `choice` to a concrete kernel and
    /// pre-allocating every workspace.
    ///
    /// # Panics
    /// Panics if the tensor order is below 2, `n` is out of range, or
    /// `c == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use mttkrp_core::{AlgoChoice, MttkrpPlan, PlannedAlgo};
    /// use mttkrp_parallel::ThreadPool;
    ///
    /// let pool = ThreadPool::new(2);
    /// // Mode 0 is external: the heuristic resolves to 1-step.
    /// let plan = MttkrpPlan::<f64>::new(&pool, &[4, 3, 2], 5, 0, AlgoChoice::Heuristic);
    /// assert_eq!(plan.algo(), PlannedAlgo::OneStepExternal);
    /// assert_eq!((plan.rank(), plan.mode(), plan.threads()), (5, 0, 2));
    ///
    /// // An internal mode with explicit predicted times takes the
    /// // cheaper algorithm (here: 1-step despite being internal).
    /// let plan = MttkrpPlan::<f64>::new(
    ///     &pool,
    ///     &[4, 3, 2],
    ///     5,
    ///     1,
    ///     AlgoChoice::Predicted { one_step: 1.0, two_step: 2.0 },
    /// );
    /// assert_eq!(plan.algo(), PlannedAlgo::OneStepInternal);
    /// assert_eq!(plan.predicted_times().unwrap().two_step, 2.0);
    /// ```
    pub fn new(pool: &ThreadPool, dims: &[usize], c: usize, n: usize, choice: AlgoChoice) -> Self {
        Self::new_with_kernels(pool, dims, c, n, choice, *kernels::<S>())
    }

    /// [`MttkrpPlan::new`] with an explicit [`KernelSet`] (e.g. a
    /// forced tier for parity testing); the set is captured by the plan
    /// and used by every execution.
    pub fn new_with_kernels(
        pool: &ThreadPool,
        dims: &[usize],
        c: usize,
        n: usize,
        choice: AlgoChoice,
        ks: KernelSet<S>,
    ) -> Self {
        let nmodes = dims.len();
        assert!(nmodes >= 2, "MTTKRP requires an order >= 2 tensor");
        assert!(n < nmodes, "mode {n} out of range");
        assert!(c > 0, "rank must be positive");
        let _span = mttkrp_obs::span!("plan_build", mode = n);
        mttkrp_obs::counter!("core.plans_built").incr();
        let t = pool.num_threads();
        // Resolve the adaptive choice first: with an installed cost
        // model `Tuned` becomes a concrete prediction for this shape;
        // without one it is exactly the paper's heuristic.
        let choice = match choice {
            AlgoChoice::Tuned => match tuned_cost(dims, c, n, t) {
                Some(ModeCost { one_step, two_step }) => {
                    AlgoChoice::Predicted { one_step, two_step }
                }
                None => AlgoChoice::Heuristic,
            },
            other => other,
        };
        let i_n = dims[n];
        let il: usize = dims[..n].iter().product();
        let ir: usize = dims[n + 1..].iter().product();
        // Algorithm choice follows the paper's mode-index rule: the
        // 2-step degenerates on modes 0 and N−1.
        let external = n == 0 || n == nmodes - 1;

        let one_step = external
            || match choice {
                AlgoChoice::Heuristic => false,
                AlgoChoice::OneStep => true,
                AlgoChoice::TwoStep(_) => false,
                AlgoChoice::Predicted { one_step, two_step } => one_step <= two_step,
                AlgoChoice::Tuned => unreachable!("Tuned resolved above"),
            };

        // The 1-step *kernel* variant is chosen by layout, not mode
        // index: whenever `X(n)` collapses to a single strided view
        // (all-left or all-right dims of size 1 — always true for
        // external modes), the column-partitioned external kernel
        // applies and parallelizes over all `I≠n` columns. Classifying
        // by index alone would send e.g. mode 1 of `[400, 300, 1]` to
        // the block-cyclic internal kernel, whose single block serializes
        // the whole GEMM on one thread.
        let krp_order: Vec<usize> = (0..nmodes).rev().filter(|&k| k != n).collect();
        let (algo, kind) = if one_step && (il == 1 || ir == 1) {
            let j_total: usize = dims.iter().product::<usize>() / i_n;
            let nsplit = usize::min(t, j_total.max(1));
            let ws = Workspace::new(t, |tid| {
                let cols = if tid < nsplit {
                    block_range(j_total, nsplit, tid)
                } else {
                    0..0
                };
                ExtSlot {
                    m: vec![S::ZERO; i_n * c],
                    cols,
                    bd: Breakdown::default(),
                }
            });
            (
                PlannedAlgo::OneStepExternal,
                PlanKind::OneStepExternal(ExtPlan {
                    nsplit,
                    krp_order,
                    ws,
                }),
            )
        } else if one_step {
            let ws = Workspace::new(t, |_| IntSlot {
                m: vec![S::ZERO; i_n * c],
                bd: Breakdown::default(),
            });
            (
                PlannedAlgo::OneStepInternal,
                PlanKind::OneStepInternal(IntPlan { krp_order, ws }),
            )
        } else {
            let use_left = match choice {
                AlgoChoice::TwoStep(TwoStepSide::Left) => true,
                AlgoChoice::TwoStep(TwoStepSide::Right) => false,
                // Auto / Heuristic / Predicted: the paper's rule.
                _ => il > ir,
            };
            let (algo, modes) = if use_left {
                (PlannedAlgo::TwoStepLeft, n..nmodes)
            } else {
                (PlannedAlgo::TwoStepRight, 0..n + 1)
            };
            let partial = Partial::new(dims, modes, c, t);
            let ttv = ttv_workspace(t, dims, c, std::slice::from_ref(&partial));
            (algo, PlanKind::TwoStep { partial, ttv })
        };

        MttkrpPlan {
            dims: dims.to_vec(),
            c,
            n,
            threads: t,
            algo,
            choice,
            kind,
            kernels: ks,
        }
    }

    /// The [`AlgoChoice`] the plan resolved to. [`AlgoChoice::Tuned`]
    /// never appears here: it is replaced at construction by the cost
    /// model's [`AlgoChoice::Predicted`] times, or by
    /// [`AlgoChoice::Heuristic`] when no model is installed.
    #[inline]
    pub fn choice(&self) -> AlgoChoice {
        self.choice
    }

    /// The cost model's predicted seconds for this mode, when the plan
    /// was built from a prediction ([`AlgoChoice::Predicted`], directly
    /// or via a resolved [`AlgoChoice::Tuned`]).
    pub fn predicted_times(&self) -> Option<ModeCost> {
        match self.choice {
            AlgoChoice::Predicted { one_step, two_step } => Some(ModeCost { one_step, two_step }),
            _ => None,
        }
    }

    /// The kernel tier this plan's hot loops dispatch to.
    #[inline]
    pub fn kernel_tier(&self) -> mttkrp_blas::KernelTier {
        self.kernels.tier()
    }

    /// Tensor dimensions the plan was built for.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Decomposition rank `C`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.c
    }

    /// The planned mode.
    #[inline]
    pub fn mode(&self) -> usize {
        self.n
    }

    /// Team size the schedule was computed for.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The resolved kernel.
    #[inline]
    pub fn algo(&self) -> PlannedAlgo {
        self.algo
    }

    /// Address of the first thread's private output buffer (the 2-step
    /// partial) — exposed so tests can assert workspace-pointer
    /// stability across executions (the "no per-iteration allocation"
    /// property).
    pub fn workspace_ptr(&self) -> *const S {
        match &self.kind {
            PlanKind::OneStepExternal(p) => p.ws.slot(0).m.as_ptr(),
            PlanKind::OneStepInternal(p) => p.ws.slot(0).m.as_ptr(),
            PlanKind::TwoStep { partial, .. } => partial.as_ptr(),
        }
    }

    /// Execute the planned MTTKRP: `out ← X(n) · (⊙_{k≠n} U_k)`,
    /// row-major `I_n × C`, overwritten.
    ///
    /// # Panics
    /// Panics if `pool`, `x`, `factors`, or `out` disagree with the
    /// planned shape.
    pub fn execute(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        out: &mut [S],
    ) {
        let _ = self.execute_timed(pool, x, factors, out);
    }

    /// [`MttkrpPlan::execute`] returning the per-phase time breakdown.
    pub fn execute_timed(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        out: &mut [S],
    ) -> Breakdown {
        let (n, c) = (self.n, self.c);
        check_planned(&self.dims, c, self.threads, pool, x, factors, n, out);
        let _span = mttkrp_obs::span!("mttkrp", mode = n);
        let total_t0 = std::time::Instant::now();
        let mut bd = Breakdown::default();
        let ks = &self.kernels;
        match &mut self.kind {
            PlanKind::OneStepExternal(p) => p.run(ks, pool, x, factors, n, out, &mut bd),
            PlanKind::OneStepInternal(p) => p.run(ks, pool, x, factors, n, out, &mut bd),
            PlanKind::TwoStep { partial, ttv } => {
                partial.form(ks, pool, x, factors, &mut bd);
                partial.contract(pool, ttv, &self.dims, factors, n, out, &mut bd);
            }
        }
        bd.total = total_t0.elapsed().as_secs_f64();
        bd
    }
}

/// Panics unless `pool`, `x`, `factors`, mode `n` and the `I_n × C`
/// `out` of one planned execution match the plan's shape `dims`, rank
/// `c` and team size `threads`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_planned<S: Scalar>(
    dims: &[usize],
    c: usize,
    threads: usize,
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &[S],
) {
    assert_eq!(
        x.dims(),
        dims,
        "tensor shape differs from the planned shape"
    );
    assert_eq!(
        pool.num_threads(),
        threads,
        "pool size differs from the planned team"
    );
    let rank = validate_factors(dims, factors);
    assert_eq!(rank, c, "factor rank differs from the planned rank");
    assert!(n < dims.len(), "mode {n} out of range");
    assert_eq!(out.len(), dims[n] * c, "output must be I_n × C");
}

impl<S: Scalar> ExtPlan<S> {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        ks: &KernelSet<S>,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
        bd: &mut Breakdown,
    ) {
        let (i_n, c) = (x.dims()[n], factors[0].ncols());
        let unf = x.unfold(n);
        let xv = unf
            .as_single_view()
            .expect("external mode is a single strided view");
        let krp = KrpRef::new(factors, &self.krp_order);

        pool.run_with_workspace(&mut self.ws, |_, slot| {
            slot.bd = Breakdown::default();
            let r = slot.cols.clone();
            if r.is_empty() {
                return;
            }
            timed_traced("gemm", &mut slot.bd.dgemm, || {
                gemm_krp_with(
                    ks,
                    1.0,
                    xv.submatrix(0, r.start, i_n, r.len()),
                    krp.rows(r.start, r.len()),
                    0.0,
                    MatMut::from_slice(&mut slot.m, i_n, c, Layout::RowMajor),
                );
            });
        });

        bd.dgemm = Breakdown::max_merge(self.ws.slots().iter().map(|s| &s.bd)).dgemm;
        timed_traced("reduce", &mut bd.reduce, || {
            reduce_slots(pool, out, self.ws.slots(), self.nsplit, |s| &s.m)
        });
    }
}

impl<S: Scalar> IntPlan<S> {
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        ks: &KernelSet<S>,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
        bd: &mut Breakdown,
    ) {
        let (i_n, c) = (x.dims()[n], factors[0].ncols());
        let unf = x.unfold(n);
        let (il, ir) = (unf.block_cols(), unf.num_blocks());
        let krp = KrpRef::new(factors, &self.krp_order);

        pool.run_with_workspace(&mut self.ws, |ctx, slot| {
            slot.bd = Breakdown::default();
            slot.m.fill(S::ZERO);
            // One detail span for the whole block-cyclic loop; per-block
            // spans would swamp the trace buffer for large IR_n.
            let _s = mttkrp_obs::span_full!("block_loop", blocks = ir);
            timed(&mut slot.bd.dgemm, || {
                for j in (ctx.thread_id..ir).step_by(ctx.num_threads) {
                    gemm_krp_with(
                        ks,
                        1.0,
                        unf.block(j),
                        krp.rows(j * il, il),
                        1.0,
                        MatMut::from_slice(&mut slot.m, i_n, c, Layout::RowMajor),
                    );
                }
            });
        });

        bd.dgemm = Breakdown::max_merge(self.ws.slots().iter().map(|s| &s.bd)).dgemm;
        timed_traced("reduce", &mut bd.reduce, || {
            reduce_slots(pool, out, self.ws.slots(), self.ws.slots().len(), |s| &s.m)
        });
    }
}

/// Combine the first `nparts` slots' private outputs into `out`
/// (overwriting). Allocation-free for one part; the paper's parallel
/// element-range reduction otherwise.
fn reduce_slots<W, S: Scalar>(
    pool: &ThreadPool,
    out: &mut [S],
    slots: &[W],
    nparts: usize,
    buf: impl Fn(&W) -> &Vec<S>,
) {
    if nparts == 1 {
        out.copy_from_slice(buf(&slots[0]));
        return;
    }
    out.fill(S::ZERO);
    let parts: Vec<&[S]> = slots[..nparts].iter().map(|s| buf(s).as_slice()).collect();
    reduce::sum_into(pool, out, &parts);
}

/// The MTTKRP plans a driver holds for one tensor shape: one
/// [`MttkrpPlan`] per mode, or one [`DimTreePlan`] that serves every
/// mode from two group partials (the CP-ALS sweep of an order ≥ 3
/// tensor, see [`MttkrpPlanSet::for_sweep`]).
#[derive(Debug)]
pub struct MttkrpPlanSet<S: Scalar = f64> {
    kind: SetKind<S>,
}

#[derive(Debug)]
enum SetKind<S: Scalar> {
    PerMode(Vec<MttkrpPlan<S>>),
    TwoGroup(Box<DimTreePlan<S>>),
}

impl<S: Scalar> MttkrpPlanSet<S> {
    /// Plan every mode of a `dims` tensor at rank `c` with the same
    /// [`AlgoChoice`].
    pub fn new(pool: &ThreadPool, dims: &[usize], c: usize, choice: AlgoChoice) -> Self {
        let plans = (0..dims.len())
            .map(|n| MttkrpPlan::new(pool, dims, c, n, choice))
            .collect();
        MttkrpPlanSet {
            kind: SetKind::PerMode(plans),
        }
    }

    /// The plans a CP-ALS sweep runs: one [`DimTreePlan`] for an order
    /// ≥ 3 tensor under [`AlgoChoice::Heuristic`] or [`AlgoChoice::Tuned`]
    /// (two passes over the tensor per sweep instead of `N`), otherwise
    /// [`MttkrpPlanSet::new`]'s per-mode kernels.
    pub fn for_sweep(pool: &ThreadPool, dims: &[usize], c: usize, choice: AlgoChoice) -> Self {
        if dims.len() >= 3 && matches!(choice, AlgoChoice::Heuristic | AlgoChoice::Tuned) {
            MttkrpPlanSet {
                kind: SetKind::TwoGroup(Box::new(DimTreePlan::new(pool, dims, c))),
            }
        } else {
            Self::new(pool, dims, c, choice)
        }
    }

    /// Number of planned modes.
    #[inline]
    pub fn nmodes(&self) -> usize {
        match &self.kind {
            SetKind::PerMode(plans) => plans.len(),
            SetKind::TwoGroup(tree) => tree.dims().len(),
        }
    }

    /// The plan for mode `n`.
    ///
    /// # Panics
    /// Panics on a two-group set, which has no per-mode plans.
    #[inline]
    pub fn plan(&self, n: usize) -> &MttkrpPlan<S> {
        match &self.kind {
            SetKind::PerMode(plans) => &plans[n],
            SetKind::TwoGroup(_) => panic!("a two-group plan set has no per-mode plans"),
        }
    }

    /// Execute the mode-`n` MTTKRP.
    pub fn execute(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
    ) {
        let _ = self.execute_timed(pool, x, factors, n, out);
    }

    /// Execute the mode-`n` MTTKRP, returning the phase breakdown. Any
    /// call order is valid; a two-group set forms mode `n`'s group
    /// partial on every call.
    pub fn execute_timed(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        match &mut self.kind {
            SetKind::PerMode(plans) => plans[n].execute_timed(pool, x, factors, out),
            SetKind::TwoGroup(tree) => tree.execute(pool, x, factors, n, out),
        }
    }

    /// Mode `n`'s MTTKRP inside a sweep, under the call-order contract
    /// of [`DimTreePlan::execute_in_sweep`]; per-mode plans ignore it.
    pub fn execute_in_sweep(
        &mut self,
        pool: &ThreadPool,
        x: &DenseTensor<S>,
        factors: &[MatRef<S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        match &mut self.kind {
            SetKind::PerMode(plans) => plans[n].execute_timed(pool, x, factors, out),
            SetKind::TwoGroup(tree) => tree.execute_in_sweep(pool, x, factors, n, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_oracle;
    use crate::{mttkrp_1step, mttkrp_2step, mttkrp_auto};

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = mttkrp_rng::Rng64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    fn setup(dims: &[usize], c: usize) -> (DenseTensor, Vec<Vec<f64>>) {
        let x = DenseTensor::from_vec(dims, rand_vec(dims.iter().product(), 77));
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| rand_vec(d * c, k as u64 + 11))
            .collect();
        (x, factors)
    }

    fn factor_refs<'a>(factors: &'a [Vec<f64>], dims: &[usize], c: usize) -> Vec<MatRef<'a>> {
        factors
            .iter()
            .zip(dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect()
    }

    #[test]
    fn plan_matches_oracle_all_modes_and_choices() {
        let dims = [4usize, 3, 2, 3];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        for t in [1usize, 2, 5] {
            let pool = ThreadPool::new(t);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                for choice in [
                    AlgoChoice::Heuristic,
                    AlgoChoice::OneStep,
                    AlgoChoice::TwoStep(TwoStepSide::Auto),
                    AlgoChoice::TwoStep(TwoStepSide::Left),
                    AlgoChoice::TwoStep(TwoStepSide::Right),
                    AlgoChoice::Predicted {
                        one_step: 1.0,
                        two_step: 2.0,
                    },
                    AlgoChoice::Predicted {
                        one_step: 2.0,
                        two_step: 1.0,
                    },
                ] {
                    let mut plan = MttkrpPlan::new(&pool, &dims, c, n, choice);
                    let mut got = vec![f64::NAN; dims[n] * c];
                    plan.execute(&pool, &x, &refs, &mut got);
                    for (a, b) in got.iter().zip(&want) {
                        assert!(
                            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                            "t={t} n={n} choice {choice:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_execution_is_bitwise_stable() {
        let dims = [5usize, 4, 3];
        let c = 4;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(3);
        for n in 0..dims.len() {
            let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::Heuristic);
            let mut first = vec![f64::NAN; dims[n] * c];
            plan.execute(&pool, &x, &refs, &mut first);
            let ptr = plan.workspace_ptr();
            for _ in 0..3 {
                let mut again = vec![f64::NAN; dims[n] * c];
                plan.execute(&pool, &x, &refs, &mut again);
                assert_eq!(first, again, "mode {n} drifted across executions");
            }
            assert_eq!(ptr, plan.workspace_ptr(), "workspace reallocated");
        }
    }

    #[test]
    fn wrappers_are_bitwise_identical_to_plans() {
        let dims = [3usize, 4, 2, 2];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        for t in [1usize, 4] {
            let pool = ThreadPool::new(t);
            for n in 0..dims.len() {
                let mut from_wrapper = vec![0.0; dims[n] * c];
                mttkrp_auto(&pool, &x, &refs, n, &mut from_wrapper);
                let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::Heuristic);
                let mut from_plan = vec![0.0; dims[n] * c];
                plan.execute(&pool, &x, &refs, &mut from_plan);
                assert_eq!(from_wrapper, from_plan, "auto t={t} n={n}");

                mttkrp_1step(&pool, &x, &refs, n, &mut from_wrapper);
                let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::OneStep);
                plan.execute(&pool, &x, &refs, &mut from_plan);
                assert_eq!(from_wrapper, from_plan, "1step t={t} n={n}");

                mttkrp_2step(&pool, &x, &refs, n, &mut from_wrapper);
                let mut plan =
                    MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::TwoStep(TwoStepSide::Auto));
                plan.execute(&pool, &x, &refs, &mut from_plan);
                assert_eq!(from_wrapper, from_plan, "2step t={t} n={n}");
            }
        }
    }

    #[test]
    fn planned_algo_resolution() {
        let pool = ThreadPool::new(2);
        let dims = [4usize, 3, 5];
        // External modes always resolve to 1-step.
        for choice in [
            AlgoChoice::Heuristic,
            AlgoChoice::TwoStep(TwoStepSide::Auto),
        ] {
            assert_eq!(
                MttkrpPlan::<f64>::new(&pool, &dims, 2, 0, choice).algo(),
                PlannedAlgo::OneStepExternal
            );
        }
        // Internal heuristic: 2-step with the IL > IR rule (IL=4 < IR=5
        // here → right).
        assert_eq!(
            MttkrpPlan::<f64>::new(&pool, &dims, 2, 1, AlgoChoice::Heuristic).algo(),
            PlannedAlgo::TwoStepRight
        );
        assert_eq!(
            MttkrpPlan::<f64>::new(&pool, &dims, 2, 1, AlgoChoice::TwoStep(TwoStepSide::Left))
                .algo(),
            PlannedAlgo::TwoStepLeft
        );
        // Machine-model override picks the cheaper prediction.
        assert_eq!(
            MttkrpPlan::<f64>::new(
                &pool,
                &dims,
                2,
                1,
                AlgoChoice::Predicted {
                    one_step: 0.5,
                    two_step: 1.0
                }
            )
            .algo(),
            PlannedAlgo::OneStepInternal
        );
    }

    #[test]
    fn degenerate_internal_modes_take_the_single_view_kernel() {
        // Mode 1 of [4, 3, 1] is "internal" by index but X(1) is a
        // single strided view (IR = 1); the 1-step kernel must use the
        // column-partitioned external variant, not the one-block
        // block-cyclic loop that would serialize the GEMM.
        let pool = ThreadPool::new(2);
        for dims in [vec![4usize, 3, 1], vec![1, 3, 4], vec![1, 1, 3, 4]] {
            let n = 1;
            let plan = MttkrpPlan::new(&pool, &dims, 2, n, AlgoChoice::OneStep);
            assert_eq!(plan.algo(), PlannedAlgo::OneStepExternal, "dims {dims:?}");
            // And it still matches the oracle.
            let (x, factors) = setup(&dims, 2);
            let refs = factor_refs(&factors, &dims, 2);
            let mut want = vec![0.0; dims[n] * 2];
            mttkrp_oracle(&x, &refs, n, &mut want);
            let mut plan = plan;
            let mut got = vec![0.0; dims[n] * 2];
            plan.execute(&pool, &x, &refs, &mut got);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "dims {dims:?}");
            }
        }
        // A genuinely blocked internal mode still plans the internal kernel.
        let plan = MttkrpPlan::<f64>::new(&pool, &[4, 3, 2], 2, 1, AlgoChoice::OneStep);
        assert_eq!(plan.algo(), PlannedAlgo::OneStepInternal);
    }

    #[test]
    fn plan_set_covers_every_mode() {
        let dims = [4usize, 2, 3];
        let c = 2;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        let mut set = MttkrpPlanSet::new(&pool, &dims, c, AlgoChoice::Heuristic);
        assert_eq!(set.nmodes(), 3);
        for n in 0..3 {
            let mut want = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            let mut got = vec![0.0; dims[n] * c];
            let bd = set.execute_timed(&pool, &x, &refs, n, &mut got);
            assert!(bd.total > 0.0);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "mode {n}");
            }
        }
    }

    #[test]
    fn pinned_kernel_tier_threads_through_every_executor() {
        // A plan built with an explicit KernelSet must report that tier
        // and still match the oracle through every kernel path (GEMM
        // tiles AND the KRP row streams — regression: the streams used
        // to fall back to the global dispatch).
        let dims = [4usize, 3, 2, 3];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        for tier in mttkrp_blas::available_tiers() {
            let ks = mttkrp_blas::KernelSet::for_tier(tier).expect("listed tier resolves");
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                for choice in [AlgoChoice::OneStep, AlgoChoice::TwoStep(TwoStepSide::Auto)] {
                    let mut plan = MttkrpPlan::new_with_kernels(&pool, &dims, c, n, choice, ks);
                    assert_eq!(plan.kernel_tier(), tier);
                    let mut got = vec![f64::NAN; dims[n] * c];
                    plan.execute(&pool, &x, &refs, &mut got);
                    for (a, b) in got.iter().zip(&want) {
                        assert!(
                            (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                            "tier {tier} n={n} choice {choice:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_pool_size_panics() {
        let dims = [3usize, 3];
        let (x, factors) = setup(&dims, 2);
        let refs = factor_refs(&factors, &dims, 2);
        let mut plan = MttkrpPlan::new(&ThreadPool::new(2), &dims, 2, 0, AlgoChoice::Heuristic);
        let mut out = vec![0.0; 6];
        plan.execute(&ThreadPool::new(3), &x, &refs, &mut out);
    }

    #[test]
    #[should_panic]
    fn wrong_tensor_shape_panics() {
        let dims = [3usize, 3];
        let (_, factors) = setup(&dims, 2);
        let refs = factor_refs(&factors, &dims, 2);
        let pool = ThreadPool::new(1);
        let mut plan = MttkrpPlan::new(&pool, &dims, 2, 0, AlgoChoice::Heuristic);
        let other = DenseTensor::zeros(&[3, 4]);
        let mut out = vec![0.0; 6];
        plan.execute(&pool, &other, &refs, &mut out);
    }
}
