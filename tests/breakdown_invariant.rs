//! Breakdown accounting invariants.
//!
//! Every timed MTTKRP entry point fills a [`Breakdown`] whose
//! categorized phase times are measured *inside* the call's wall
//! clock, so for a plain (non-overlapping) execution
//! `categorized() <= total` must hold up to timer resolution — the
//! phases are disjoint sub-intervals of the total. On a single-thread
//! pool the phases run inline and the bound is tight; on a
//! multi-thread pool concurrently executed phases are max-merged
//! across threads (the per-category maximum approximates the phase's
//! wall share), so imbalance between threads can push the sum past
//! the wall time and the bound is checked with generous slack.
//!
//! [`Breakdown::overlap`] is the complementary direction: a driver
//! that overlaps sub-call phases with its own wall time (the
//! out-of-core engine) reports `categorized() > total`, and the unit
//! tests in `mttkrp-core` plus the span-timeline test in
//! `crates/ooc/tests/trace.rs` pin that side.
//!
//! [`Breakdown`]: mttkrp_repro::mttkrp::Breakdown
//! [`Breakdown::overlap`]: mttkrp_repro::mttkrp::Breakdown::overlap

use mttkrp_repro::blas::{Layout, MatRef};
use mttkrp_repro::mttkrp::{
    mttkrp_1step_timed, mttkrp_2step_timed, mttkrp_explicit_timed, AlgoChoice, Breakdown,
    MttkrpPlan, TwoStepSide,
};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;

fn fixture(dims: &[usize], c: usize, seed: u64) -> (DenseTensor, Vec<Vec<f64>>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let total: usize = dims.iter().product();
    let x = DenseTensor::from_vec(dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    let factors = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    (x, factors)
}

/// Check `categorized() <= total` with `slack` seconds of grace for
/// timer resolution (serial) or thread imbalance (parallel).
fn assert_accounted(bd: &Breakdown, slack: f64, what: &str) {
    assert!(
        bd.total > 0.0,
        "{what}: total must be positive (got {bd:?})"
    );
    assert!(
        bd.categorized() <= bd.total + slack,
        "{what}: categorized {} exceeds total {} by more than {slack}s",
        bd.categorized(),
        bd.total,
    );
}

fn sweep(pool: &ThreadPool, slack: f64, tag: &str) {
    let dims = [14usize, 10, 12, 8];
    let c = 6;
    let (x, factors) = fixture(&dims, c, 0xB00B5);
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();

    for n in 0..dims.len() {
        let mut out = vec![0.0; dims[n] * c];

        let bd = mttkrp_explicit_timed(pool, &x, &refs, n, &mut out);
        assert_accounted(&bd, slack, &format!("{tag} explicit n={n}"));

        let bd = mttkrp_1step_timed(pool, &x, &refs, n, &mut out);
        assert_accounted(&bd, slack, &format!("{tag} 1step n={n}"));

        if n > 0 && n < dims.len() - 1 {
            let bd = mttkrp_2step_timed(pool, &x, &refs, n, &mut out, TwoStepSide::Auto);
            assert_accounted(&bd, slack, &format!("{tag} 2step n={n}"));
        }

        for choice in [
            AlgoChoice::Heuristic,
            AlgoChoice::OneStep,
            AlgoChoice::TwoStep(TwoStepSide::Auto),
        ] {
            let mut plan = MttkrpPlan::new(pool, &dims, c, n, choice);
            let bd = plan.execute_timed(pool, &x, &refs, &mut out);
            assert_accounted(&bd, slack, &format!("{tag} plan {choice:?} n={n}"));
        }
    }
}

#[test]
fn serial_breakdowns_never_exceed_total() {
    // Inline execution: phases are literal sub-intervals of the wall
    // clock. 500 µs of grace covers the Instant overhead of the many
    // per-phase timer reads.
    let pool = ThreadPool::new(1);
    sweep(&pool, 500e-6, "t=1");
}

#[test]
fn parallel_breakdowns_stay_accounted() {
    // Max-merged concurrent phases: thread imbalance can legitimately
    // push the per-category-max sum past the wall time, so the slack
    // here is generous — the test still catches double-counting bugs
    // (a phase charged to two categories doubles categorized()).
    let pool = ThreadPool::new(2);
    let dims = [14usize, 10, 12, 8];
    let c = 6;
    let (x, factors) = fixture(&dims, c, 0xB00B5);
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    for n in 0..dims.len() {
        let mut out = vec![0.0; dims[n] * c];
        for choice in [AlgoChoice::OneStep, AlgoChoice::TwoStep(TwoStepSide::Auto)] {
            if matches!(choice, AlgoChoice::TwoStep(_)) && (n == 0 || n == dims.len() - 1) {
                continue;
            }
            let mut plan = MttkrpPlan::new(&pool, &dims, c, n, choice);
            let bd = plan.execute_timed(&pool, &x, &refs, &mut out);
            let slack = bd.total + 1e-3; // <= 2x total + 1 ms
            assert_accounted(&bd, slack, &format!("t=2 plan {choice:?} n={n}"));
        }
    }
}
