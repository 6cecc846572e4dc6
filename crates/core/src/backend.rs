//! Backend-generic MTTKRP execution.
//!
//! CP decomposition drivers (ALS sweeps, gradient loops) interact with
//! a tensor through exactly two capabilities: shape/norm queries and
//! repeated planned MTTKRPs against a fixed set of factor matrices.
//! [`MttkrpBackend`] captures that contract so the drivers in
//! `mttkrp-cpals` run unchanged over any storage format — the dense
//! tensors of this crate, or the compressed-sparse-fiber tensors of
//! `mttkrp-sparse`.
//!
//! The associated `PlanSet` type is the backend's reusable execution
//! state, built once per (tensor, rank, team) and reused across every
//! sweep: [`MttkrpBackend::plan_modes`] plans independent per-mode
//! MTTKRPs, [`MttkrpBackend::plan_sweep`] the call sequence of a CP-ALS
//! sweep, which the dense backend serves with the two-group
//! [`crate::DimTreePlan`]. Backends resolve the dense [`AlgoChoice`]
//! however they see fit — the dense backend plans 1-step/2-step kernels
//! per mode (or the explicit Bader–Kolda baseline when no choice is
//! given), while sparse backends, with one tree-walk kernel per mode,
//! ignore it.

use mttkrp_blas::{MatRef, Scalar};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;

use crate::baseline::mttkrp_explicit_timed;
use crate::breakdown::Breakdown;
use crate::plan::{AlgoChoice, MttkrpPlanSet};

/// A tensor storage format the CP drivers can decompose: shape and norm
/// queries plus reusable planned per-mode MTTKRP execution.
pub trait MttkrpBackend {
    /// The element type the backend stores and the drivers compute in
    /// (`f64` for every backend predating the generic stack).
    type Elem: Scalar;

    /// Reusable per-mode execution state (plans + workspaces), built
    /// once and carried across sweeps.
    type PlanSet;

    /// Tensor dimensions `I_0 × ⋯ × I_{N−1}`.
    fn dims(&self) -> &[usize];

    /// Frobenius norm of the stored tensor.
    fn norm(&self) -> f64;

    /// Build the per-mode plan set for rank `c` on `pool`'s team.
    ///
    /// `choice` is the dense kernel selection: `Some(choice)` plans the
    /// 1-step/2-step executors, `None` requests the explicit
    /// reordering baseline. Backends without that distinction ignore
    /// it.
    fn plan_modes(&self, pool: &ThreadPool, c: usize, choice: Option<AlgoChoice>) -> Self::PlanSet;

    /// Execute the mode-`n` MTTKRP `out ← X(n) · (⊙_{k≠n} U_k)`
    /// through the reusable plan set, returning the phase breakdown.
    /// `out` is row-major `I_n × C`, overwritten.
    fn mttkrp_planned(
        &self,
        plans: &mut Self::PlanSet,
        pool: &ThreadPool,
        factors: &[MatRef<'_, Self::Elem>],
        n: usize,
        out: &mut [Self::Elem],
    ) -> Breakdown;

    /// Build the plan set a CP-ALS sweep runs, which may share work
    /// across modes (see [`MttkrpBackend::mttkrp_in_sweep`]). Defaults
    /// to [`MttkrpBackend::plan_modes`].
    fn plan_sweep(&self, pool: &ThreadPool, c: usize, choice: Option<AlgoChoice>) -> Self::PlanSet {
        self.plan_modes(pool, c, choice)
    }

    /// Mode `n`'s MTTKRP inside a sweep, through plans from
    /// [`MttkrpBackend::plan_sweep`]. Contract: it is called for
    /// `n = 0, 1, …, N−1` in order, and only factor `n−1` (factor `N−1`
    /// before `n = 0`) has changed since the previous call — a CP-ALS
    /// sweep, or all modes at fixed factors. Defaults to
    /// [`MttkrpBackend::mttkrp_planned`].
    fn mttkrp_in_sweep(
        &self,
        plans: &mut Self::PlanSet,
        pool: &ThreadPool,
        factors: &[MatRef<'_, Self::Elem>],
        n: usize,
        out: &mut [Self::Elem],
    ) -> Breakdown {
        self.mttkrp_planned(plans, pool, factors, n, out)
    }
}

/// The dense backend's plan state: planned kernels, or the explicit
/// baseline (which reorders tensor entries per call and has no
/// plannable workspace).
pub enum DensePlans<S: Scalar = f64> {
    /// One [`crate::MttkrpPlan`] per mode, or the two-group plan a
    /// sweep runs ([`MttkrpPlanSet::for_sweep`]).
    Planned(MttkrpPlanSet<S>),
    /// Bader–Kolda explicit matricization + full KRP + one GEMM.
    Explicit,
}

impl<S: Scalar> MttkrpBackend for DenseTensor<S> {
    type Elem = S;
    type PlanSet = DensePlans<S>;

    fn dims(&self) -> &[usize] {
        DenseTensor::dims(self)
    }

    fn norm(&self) -> f64 {
        DenseTensor::norm(self)
    }

    fn plan_modes(&self, pool: &ThreadPool, c: usize, choice: Option<AlgoChoice>) -> DensePlans<S> {
        match choice {
            Some(choice) => {
                DensePlans::Planned(MttkrpPlanSet::new(pool, DenseTensor::dims(self), c, choice))
            }
            None => DensePlans::Explicit,
        }
    }

    fn mttkrp_planned(
        &self,
        plans: &mut DensePlans<S>,
        pool: &ThreadPool,
        factors: &[MatRef<'_, S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        match plans {
            DensePlans::Planned(set) => set.execute_timed(pool, self, factors, n, out),
            DensePlans::Explicit => mttkrp_explicit_timed(pool, self, factors, n, out),
        }
    }

    /// The plans of [`MttkrpPlanSet::for_sweep`].
    fn plan_sweep(&self, pool: &ThreadPool, c: usize, choice: Option<AlgoChoice>) -> DensePlans<S> {
        match choice {
            Some(choice) => DensePlans::Planned(MttkrpPlanSet::for_sweep(
                pool,
                DenseTensor::dims(self),
                c,
                choice,
            )),
            None => DensePlans::Explicit,
        }
    }

    fn mttkrp_in_sweep(
        &self,
        plans: &mut DensePlans<S>,
        pool: &ThreadPool,
        factors: &[MatRef<'_, S>],
        n: usize,
        out: &mut [S],
    ) -> Breakdown {
        match plans {
            DensePlans::Planned(set) => set.execute_in_sweep(pool, self, factors, n, out),
            DensePlans::Explicit => mttkrp_explicit_timed(pool, self, factors, n, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_oracle;
    use mttkrp_blas::Layout;
    use mttkrp_rng::Rng64;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    #[test]
    fn dense_backend_matches_oracle_for_both_plan_kinds() {
        let dims = [4usize, 3, 2];
        let c = 2;
        let x = DenseTensor::from_vec(&dims, rand_vec(24, 3));
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| rand_vec(d * c, k as u64))
            .collect();
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let pool = ThreadPool::new(2);
        for choice in [Some(AlgoChoice::Heuristic), None] {
            let mut plans = MttkrpBackend::plan_modes(&x, &pool, c, choice);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                let mut got = vec![f64::NAN; dims[n] * c];
                let bd = x.mttkrp_planned(&mut plans, &pool, &refs, n, &mut got);
                assert!(bd.total > 0.0);
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "n={n} {choice:?}");
                }
            }
        }
    }

    #[test]
    fn trait_shape_queries_delegate_to_the_tensor() {
        let x = DenseTensor::from_vec(&[2, 2], vec![3.0, 0.0, 0.0, 4.0]);
        assert_eq!(MttkrpBackend::dims(&x), &[2, 2]);
        assert!((MttkrpBackend::norm(&x) - 5.0).abs() < 1e-12);
    }
}
