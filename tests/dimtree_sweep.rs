//! The two-group (dimension-tree) CP-ALS sweep against the per-mode
//! reference. `MttkrpStrategy::Auto` runs the two-group sweep on a
//! dense tensor of order ≥ 3; `MttkrpStrategy::OneStep` runs one 1-step
//! MTTKRP per mode. Both compute the same ALS iterates in a different
//! summation order, so their fit trajectories agree to rounding: within
//! [`F64_FIT_TOL`] in `f64` and [`F32_FIT_TOL`] in `f32` (the bound
//! perfbench holds `fmri4` to). Shapes cover orders 3–5, ragged and
//! size-1 modes, partials on the packed GEMM path, and teams of 1 and 2.
//! Every mode's in-sweep MTTKRP is also checked against the oracle while
//! the factors change between calls as in a sweep.

use mttkrp_repro::blas::Scalar;
use mttkrp_repro::cpals::{cp_als, CpAlsOptions, CpAlsReport, KruskalModel, MttkrpStrategy};
use mttkrp_repro::mttkrp::{mttkrp_oracle, MttkrpBackend};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;

/// Largest fit difference, two-group vs per-mode, in `f64`.
const F64_FIT_TOL: f64 = 1e-10;
/// Largest fit difference, two-group vs per-mode, in `f32`.
const F32_FIT_TOL: f64 = 1e-5;

const SHAPES: [&[usize]; 7] = [
    &[9, 7, 5],
    &[1, 8, 6],
    &[7, 6, 1],
    &[6, 1, 5, 4],
    &[5, 4, 3, 1, 2],
    &[3, 5, 2, 4, 3],
    // Partials of 12000 × 40 and 40 × 12000: the packed GEMM tiles on
    // the tall (m ≫ k) and wide (k ≫ m) shapes of a cubic tensor.
    &[200, 60, 40],
];

const RANK: usize = 4;
const SWEEPS: usize = 8;

/// A planted rank-`RANK` tensor plus noise, so the fits are far from 0
/// and 1 and the trajectory moves.
fn tensor<S: Scalar>(dims: &[usize], seed: u64) -> DenseTensor<S> {
    let mut x = KruskalModel::<f64>::random(dims, RANK, seed).to_dense();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xD1);
    x.data_mut()
        .iter_mut()
        .for_each(|v| *v += 0.3 * (rng.next_f64() - 0.5));
    x.cast()
}

fn run<S: Scalar>(
    x: &DenseTensor<S>,
    threads: usize,
    strategy: MttkrpStrategy,
    seed: u64,
) -> CpAlsReport {
    let opts = CpAlsOptions {
        max_iters: SWEEPS,
        tol: 0.0,
        strategy,
    };
    let init = KruskalModel::<S>::random(x.dims(), RANK, seed);
    cp_als(&ThreadPool::new(threads), x, init, &opts).1
}

/// Whether a report's per-mode breakdowns show the two-group sweep: a
/// partial GEMM in modes 0 and `⌈N/2⌉` only.
fn ran_two_group(report: &CpAlsReport) -> bool {
    let s = report.mode_breakdowns.len().div_ceil(2);
    report
        .mode_breakdowns
        .iter()
        .enumerate()
        .all(|(n, bd)| (bd.dgemm > 0.0) == (n == 0 || n == s))
}

fn trajectories_track<S: Scalar>(tol: f64) {
    for (k, dims) in SHAPES.iter().enumerate() {
        let x = tensor::<S>(dims, 40 + k as u64);
        let seed = 90 + k as u64;
        let reference = run(&x, 1, MttkrpStrategy::OneStep, seed);
        assert!(!ran_two_group(&reference), "{dims:?}: OneStep is per-mode");
        for threads in [1, 2] {
            let two_group = run(&x, threads, MttkrpStrategy::Auto, seed);
            assert!(ran_two_group(&two_group), "{dims:?}: Auto is two-group");
            assert_eq!(two_group.fits.len(), SWEEPS);
            let diff = two_group
                .fits
                .iter()
                .zip(&reference.fits)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(diff <= tol, "{dims:?} T={threads}: fits differ by {diff:e}");
            // The layers still add up: per-mode entries sum to the total.
            let summed: f64 = two_group.mode_breakdowns.iter().map(|b| b.dgemm).sum();
            assert!((summed - two_group.breakdown.dgemm).abs() <= 1e-12);
        }
    }
}

#[test]
fn two_group_fit_trajectories_track_per_mode_f64() {
    trajectories_track::<f64>(F64_FIT_TOL);
}

#[test]
fn two_group_fit_trajectories_track_per_mode_f32() {
    trajectories_track::<f32>(F32_FIT_TOL);
}

/// Drive the backend's sweep hook as `CpAlsSweep` does — mode `n`'s
/// MTTKRP, then a change to factor `n` only — for two sweeps, checking
/// every MTTKRP against the oracle at the factors of that moment.
fn in_sweep_matches_oracle<S: Scalar>(tol: f64) {
    for dims in SHAPES {
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let x = tensor::<S>(dims, 7);
            let mut model = KruskalModel::<S>::random(dims, RANK, 8);
            let mut plans = x.plan_sweep(&pool, RANK, MttkrpStrategy::Auto.algo_choice());
            let mut rng = Rng64::seed_from_u64(9);
            for _sweep in 0..2 {
                for (n, &rows) in dims.iter().enumerate() {
                    let mut got = vec![S::ZERO; rows * RANK];
                    let mut want = vec![0.0; rows * RANK];
                    model.with_factor_refs(|refs| {
                        x.mttkrp_in_sweep(&mut plans, &pool, refs, n, &mut got);
                        mttkrp_oracle(&x, refs, n, &mut want);
                    });
                    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g.to_f64() - w).abs() <= tol * scale,
                            "{dims:?} T={threads} mode {n}: {g} vs {w}"
                        );
                    }
                    for v in &mut model.factors[n] {
                        *v = S::from_f64(rng.next_f64() - 0.5);
                    }
                }
            }
        }
    }
}

#[test]
fn in_sweep_mttkrp_matches_oracle_every_mode() {
    in_sweep_matches_oracle::<f64>(1e-12);
    in_sweep_matches_oracle::<f32>(1e-5);
}
