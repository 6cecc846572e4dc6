//! Allocation accounting for a full CP-ALS iteration.
//!
//! The end-to-end extension of `tests/plan_alloc.rs`: once warm, one
//! whole ALS sweep — MTTKRP (planned kernels), KRP row streams, the
//! Gram path (`par_syrk_t` workspace), and the pseudoinverse solve —
//! performs **zero heap allocation** on a single-thread pool. This
//! covers the Gram/SYRK accumulators and the `sym_pinv` scratch that
//! used to heap-allocate on every call.
//!
//! The per-thread counting harness is shared with the plan/sparse
//! twins; see `tests/support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::blas::Scalar;
use mttkrp_repro::cpals::{CpAlsOptions, CpAlsSweep, KruskalModel, MttkrpStrategy};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Warm one sweep, then require two more to allocate nothing.
fn assert_steady_state_sweeps_do_not_allocate<S: Scalar>(
    dims: &[usize],
    strategy: MttkrpStrategy,
    seed: u64,
) {
    let mut rng = Rng64::seed_from_u64(seed);
    let total: usize = dims.iter().product();
    let data = (0..total)
        .map(|_| S::from_f64(rng.next_f64() - 0.5))
        .collect();
    let x = DenseTensor::<S>::from_vec(dims, data);
    let pool = ThreadPool::new(1);
    let opts = CpAlsOptions {
        max_iters: 10,
        tol: 0.0,
        strategy,
    };
    let mut sweep = CpAlsSweep::new(&pool, &x, KruskalModel::random(dims, 5, 77), &opts);
    // Warm up: the first iteration grows the thread-local GEMM pack
    // and SYRK accumulator buffers.
    let (warm_fit, _) = sweep.sweep(&pool, &x);
    assert!(warm_fit.is_finite());
    let (calls, bytes) = counted(|| {
        let (fit1, _) = sweep.sweep(&pool, &x);
        let (fit2, _) = sweep.sweep(&pool, &x);
        // 1e-9 in f64; the f32 sweep's own rounding is far coarser.
        let slack = f64::max(1e-9, 1e3 * S::EPSILON.to_f64());
        assert!(fit2 >= fit1 - slack, "ALS fit regressed: {fit1} -> {fit2}");
    });
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "steady-state cp_als iteration allocated: {} {dims:?} {strategy:?}",
        S::DTYPE
    );
}

/// `Auto` runs the two-group sweep on these shapes (`[30, 24, 20]`'s
/// partials take the packed GEMM path), `OneStep`/`TwoStep` the
/// per-mode plans; the f32 sweep also runs the f32 solve path.
#[test]
fn steady_state_cp_als_iteration_does_not_allocate() {
    for strategy in [
        MttkrpStrategy::Auto,
        MttkrpStrategy::OneStep,
        MttkrpStrategy::TwoStep,
    ] {
        assert_steady_state_sweeps_do_not_allocate::<f64>(&[8, 6, 5, 4], strategy, 0xA110_C002);
    }
    for dims in [&[8usize, 6, 5, 4][..], &[30, 24, 20]] {
        assert_steady_state_sweeps_do_not_allocate::<f64>(dims, MttkrpStrategy::Auto, 3);
        assert_steady_state_sweeps_do_not_allocate::<f32>(dims, MttkrpStrategy::Auto, 3);
    }
}
