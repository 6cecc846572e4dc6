//! Allocation accounting for plan-based MTTKRP execution.
//!
//! The acceptance property of the plan/executor split: after plan
//! construction (and one warm-up execution to fill lazily grown
//! buffers like the GEMM pack cache), executing a plan performs **zero
//! heap allocation** on a single-thread pool — every private
//! accumulator, partial and scratch buffer is reused. The allocating
//! wrappers, by contrast, build a plan on every call.
//!
//! The per-thread counting-allocator harness is shared with the
//! sparse twin; see `tests/support/counting_alloc.rs`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::blas::Scalar;
use mttkrp_repro::blas::{Layout, MatRef};
use mttkrp_repro::mttkrp::{mttkrp_auto, AlgoChoice, DimTreePlan, MttkrpPlan, TwoStepSide};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_plan_execution_does_not_allocate() {
    let dims = [8usize, 6, 5, 4];
    let c = 5;
    let mut rng = Rng64::seed_from_u64(0xA110_C001);
    let total: usize = dims.iter().product();
    let x = DenseTensor::from_vec(&dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let frefs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();

    // Single-thread pool: regions run inline, so the only possible
    // allocations are the executor's own — which the plan must have
    // hoisted into construction time.
    let pool = ThreadPool::new(1);

    for n in 0..dims.len() {
        for choice in [
            AlgoChoice::Heuristic,
            AlgoChoice::OneStep,
            AlgoChoice::TwoStep(TwoStepSide::Auto),
        ] {
            let mut plan = MttkrpPlan::new(&pool, &dims, c, n, choice);
            let mut out = vec![0.0; dims[n] * c];
            // Warm up: first run grows the thread-local GEMM pack
            // buffers to their steady sizes.
            plan.execute(&pool, &x, &frefs, &mut out);
            let (calls, bytes) = counted(|| {
                plan.execute(&pool, &x, &frefs, &mut out);
                plan.execute(&pool, &x, &frefs, &mut out);
            });
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "steady-state plan execution allocated: n={n} choice={choice:?}"
            );
        }

        // Contrast: the allocating wrapper builds (and allocates) a
        // plan on every call (this is what the plan split eliminates).
        let mut out = vec![0.0; dims[n] * c];
        mttkrp_auto(&pool, &x, &frefs, n, &mut out);
        let (calls, bytes) = counted(|| {
            mttkrp_auto(&pool, &x, &frefs, n, &mut out);
        });
        assert!(
            calls > 0,
            "expected the wrapper to allocate per call: n={n} calls={calls} bytes={bytes}"
        );
    }
}

/// The same zero-allocation property for the f32 instantiation of the
/// whole plan stack — the generic workspaces must size themselves off
/// the scalar type, not fall back to any f64-shaped scratch.
#[test]
fn steady_state_f32_plan_execution_does_not_allocate() {
    let dims = [7usize, 5, 6, 4];
    let c = 4;
    let mut rng = Rng64::seed_from_u64(0xA110_C0F2);
    let total: usize = dims.iter().product();
    let x = DenseTensor::<f32>::from_vec(
        &dims,
        (0..total).map(|_| (rng.next_f64() - 0.5) as f32).collect(),
    );
    let factors: Vec<Vec<f32>> = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| (rng.next_f64() - 0.5) as f32).collect())
        .collect();
    let frefs: Vec<MatRef<f32>> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let pool = ThreadPool::new(1);

    for n in 0..dims.len() {
        for choice in [AlgoChoice::OneStep, AlgoChoice::TwoStep(TwoStepSide::Auto)] {
            let mut plan = MttkrpPlan::<f32>::new(&pool, &dims, c, n, choice);
            let mut out = vec![0.0f32; dims[n] * c];
            plan.execute(&pool, &x, &frefs, &mut out);
            let (calls, bytes) = counted(|| {
                plan.execute(&pool, &x, &frefs, &mut out);
                plan.execute(&pool, &x, &frefs, &mut out);
            });
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "steady-state f32 plan execution allocated: n={n} choice={choice:?}"
            );
        }
    }
}

/// The two-group plan, at both precisions: once warm, an in-sweep pass
/// over every mode (both partial GEMMs, every multi-TTV) plus a
/// refreshing `execute` allocates nothing. `[30, 24, 20]` has a
/// one-mode right group and partials on the packed GEMM path;
/// `[100, 90, 6]` runs its `L` partial as `k`-chunks.
fn two_group_steady_state_does_not_allocate<S: Scalar>() {
    let mut rng = Rng64::seed_from_u64(0xA110_C0D7);
    let mut rand = |len: usize| -> Vec<S> {
        (0..len)
            .map(|_| S::from_f64(rng.next_f64() - 0.5))
            .collect()
    };
    let pool = ThreadPool::new(1);
    let c = 5;
    for dims in [
        vec![30usize, 24, 20],
        vec![100, 90, 6],
        vec![8, 6, 5, 4],
        vec![5, 4, 3, 2, 3],
    ] {
        let x = DenseTensor::<S>::from_vec(&dims, rand(dims.iter().product()));
        let factors: Vec<Vec<S>> = dims.iter().map(|&d| rand(d * c)).collect();
        let frefs: Vec<MatRef<S>> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let mut outs: Vec<Vec<S>> = dims.iter().map(|&d| vec![S::ZERO; d * c]).collect();
        let mut plan = DimTreePlan::<S>::new(&pool, &dims, c);
        let mut sweep = || {
            for (n, out) in outs.iter_mut().enumerate() {
                plan.execute_in_sweep(&pool, &x, &frefs, n, out);
            }
            plan.execute(&pool, &x, &frefs, 0, &mut outs[0]);
        };
        sweep(); // warm-up: GEMM pack buffers
        let (calls, bytes) = counted(|| {
            sweep();
            sweep();
        });
        assert_eq!((calls, bytes), (0, 0), "{} dims={dims:?}", S::DTYPE);
    }
}

#[test]
fn steady_state_two_group_execution_does_not_allocate() {
    two_group_steady_state_does_not_allocate::<f64>();
    two_group_steady_state_does_not_allocate::<f32>();
}
