//! The observability layer's disabled-path contract.
//!
//! Span guards sit inside every hot loop of the MTTKRP stack, so their
//! off cost is load-bearing: with tracing off, a guard is one relaxed
//! atomic load — no clock read, no thread-local registration, no heap
//! allocation — and with metrics off, the kernel byte counters are
//! never touched. This binary pins both halves with the shared
//! counting-allocator harness: a steady-state plan execution under
//! `TraceLevel::Off` allocates nothing (so the instrumented build is
//! indistinguishable from an uninstrumented one) and records nothing.
//!
//! The level is forced with [`set_trace_level`], not read from the
//! environment, so the test holds even under the CI leg that exports
//! `MTTKRP_TRACE=full` for the rest of the suite.
//!
//! [`set_trace_level`]: mttkrp_repro::obs::set_trace_level

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};
use mttkrp_repro::blas::{Layout, MatRef};
use mttkrp_repro::mttkrp::{AlgoChoice, MttkrpPlan, TwoStepSide};
use mttkrp_repro::obs::{set_metrics_enabled, set_trace_level, take_spans, TraceLevel};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// Both tests mutate the process-global trace level; serialize them.
static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn disabled_observability_is_free() {
    let _l = LEVEL_LOCK.lock().unwrap();
    set_trace_level(TraceLevel::Off);
    set_metrics_enabled(false);

    let dims = [10usize, 8, 9, 7];
    let c = 5;
    let mut rng = Rng64::seed_from_u64(0x0B5_0FF);
    let total: usize = dims.iter().product();
    let x = DenseTensor::from_vec(&dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let pool = ThreadPool::new(1);

    for n in 0..dims.len() {
        for choice in [AlgoChoice::OneStep, AlgoChoice::TwoStep(TwoStepSide::Auto)] {
            let mut plan = MttkrpPlan::new(&pool, &dims, c, n, choice);
            let mut out = vec![0.0; dims[n] * c];
            // Warm up the plan's lazily grown buffers, then drain any
            // spans a previous test (or the warm-up) might have left.
            plan.execute(&pool, &x, &refs, &mut out);
            let _ = take_spans();

            let (calls, bytes) = counted(|| {
                plan.execute(&pool, &x, &refs, &mut out);
                plan.execute(&pool, &x, &refs, &mut out);
            });
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "disabled-path execution allocated: n={n} choice={choice:?}"
            );
            assert!(
                take_spans().is_empty(),
                "off-level execution recorded spans: n={n} choice={choice:?}"
            );
        }
    }
}

#[test]
fn enabling_tracing_actually_records() {
    // Guard the guard: the same execution with tracing on must produce
    // spans, so the disabled test above can't pass vacuously (e.g. a
    // broken macro that never records).
    let _l = LEVEL_LOCK.lock().unwrap();
    set_trace_level(TraceLevel::Full);
    let dims = [6usize, 5, 4];
    let c = 3;
    let mut rng = Rng64::seed_from_u64(0xB50E);
    let total: usize = dims.iter().product();
    let x = DenseTensor::from_vec(&dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let pool = ThreadPool::new(1);
    let mut plan = MttkrpPlan::new(&pool, &dims, c, 1, AlgoChoice::OneStep);
    let mut out = vec![0.0; dims[1] * c];
    let _ = take_spans();
    plan.execute(&pool, &x, &refs, &mut out);
    set_trace_level(TraceLevel::Off);
    let spans = take_spans();
    assert!(
        spans.iter().any(|s| s.name == "mttkrp"),
        "full-level execution must record the mttkrp span (got {spans:?})"
    );
}
