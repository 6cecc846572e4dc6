//! Ablations of the design choices DESIGN.md calls out:
//!
//! * KRP prefix reuse on/off (sequential, isolating Algorithm 1's gain);
//! * 2-step left vs right partial (vs the paper's `IL_n > IR_n` rule);
//! * 1-step Algorithm 2 (explicit full KRP) vs Algorithm 3 with one
//!   thread (KRP rows generated inside each GEMM) — the paper's
//!   observation that the parallel formulation is the better
//!   sequential algorithm too;
//! * plan reuse on/off (per-call allocation vs cached `MttkrpPlan`).

use mttkrp_bench::{BenchGroup, MttkrpFixture, RANK};
use mttkrp_blas::{Layout, MatRef};
use mttkrp_core::{
    mttkrp_1step, mttkrp_1step_seq, mttkrp_2step_timed, AlgoChoice, MttkrpPlan, TwoStepSide,
};
use mttkrp_krp::{krp_naive, krp_reuse};
use mttkrp_parallel::ThreadPool;
use mttkrp_workloads::{krp_input_rows, random_matrix};

fn ablation_krp_reuse() {
    let group = BenchGroup::new("ablation/krp_reuse");
    let c = 25;
    let rows = krp_input_rows(4, 100_000);
    let mats: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(i, &r)| random_matrix(r, c, i as u64))
        .collect();
    let inputs: Vec<MatRef> = mats
        .iter()
        .zip(&rows)
        .map(|(m, &r)| MatRef::from_slice(m, r, c, Layout::RowMajor))
        .collect();
    let j: usize = rows.iter().product();
    let mut out = vec![0.0; j * c];
    group.bench("reuse_on", || krp_reuse(&inputs, &mut out));
    group.bench("reuse_off", || krp_naive(&inputs, &mut out));
}

fn ablation_twostep_side() {
    let group = BenchGroup::new("ablation/twostep_side");
    let pool = ThreadPool::host();
    // Asymmetric dims so the side choice matters: mode 1 has IL=32,
    // IR=64*40 — the paper's rule picks Right here.
    let fx = MttkrpFixture::with_dims(&[32, 24, 64, 40]);
    let refs = fx.refs();
    let n = 1;
    let mut out = vec![0.0; fx.dims[n] * RANK];
    for (name, side) in [
        ("auto", TwoStepSide::Auto),
        ("left", TwoStepSide::Left),
        ("right", TwoStepSide::Right),
    ] {
        group.bench(name, || {
            let _ = mttkrp_2step_timed(&pool, &fx.x, &refs, n, &mut out, side);
        });
    }
}

fn ablation_alg2_vs_alg3_seq() {
    let group = BenchGroup::new("ablation/onestep_seq_variant");
    let one = ThreadPool::new(1);
    let fx = MttkrpFixture::equal(4, 1_000_000);
    let refs = fx.refs();
    let n = 1;
    let mut out = vec![0.0; fx.dims[n] * RANK];
    group.bench("alg2_full_krp", || {
        mttkrp_1step_seq(&fx.x, &refs, n, &mut out)
    });
    group.bench("alg3_one_thread", || {
        mttkrp_1step(&one, &fx.x, &refs, n, &mut out)
    });
}

fn ablation_plan_reuse() {
    let group = BenchGroup::new("ablation/plan_reuse");
    let pool = ThreadPool::host();
    let fx = MttkrpFixture::equal(4, 1_000_000);
    let refs = fx.refs();
    let n = 1;
    let mut out = vec![0.0; fx.dims[n] * RANK];
    group.bench("allocating_wrapper", || {
        let mut plan = MttkrpPlan::new(&pool, &fx.dims, RANK, n, AlgoChoice::Heuristic);
        plan.execute(&pool, &fx.x, &refs, &mut out);
    });
    let mut plan = MttkrpPlan::new(&pool, &fx.dims, RANK, n, AlgoChoice::Heuristic);
    group.bench("cached_plan", || {
        plan.execute(&pool, &fx.x, &refs, &mut out)
    });
}

fn main() {
    ablation_krp_reuse();
    ablation_twostep_side();
    ablation_alg2_vs_alg3_seq();
    ablation_plan_reuse();
}
