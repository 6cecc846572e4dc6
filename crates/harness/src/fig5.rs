//! Figure 5: MTTKRP time vs threads for N ∈ {3,4,5,6} equal-dimension
//! tensors (≈750M entries in the paper, scaled here), C = 25 —
//! 1-step per mode, 2-step per internal mode, and the baseline DGEMM. `--dtype f32` runs the same sweep in
//! binary32 storage (f64 accumulators inside every reduction).

use mttkrp_blas::{Dtype, Layout, MatRef, Scalar};
use mttkrp_core::baseline::baseline_gemm_only;
use mttkrp_core::{AlgoChoice, MttkrpPlan, TwoStepSide};
use mttkrp_machine::{predict_1step, predict_2step, predict_baseline, Machine};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;
use mttkrp_workloads::{equal_dims, random_factors, random_matrix};

use crate::scale::Scale;
use crate::util::{claim, fmt_s, time_median, MODEL_THREADS};

pub const C: usize = 25;

/// Build the Figure 5/6 workload for one mode count at storage type
/// `S` (values are drawn in f64 and narrowed once, so the f32 tensor
/// holds the rounded values of the identical stream).
pub fn workload<S: Scalar>(
    nmodes: usize,
    scale: Scale,
) -> (DenseTensor<S>, Vec<Vec<S>>, Vec<usize>) {
    let dims = equal_dims(nmodes, scale.synthetic_entries());
    // from_fn with a cheap counter-based fill: value content is
    // irrelevant to timing, and even the in-tree Rng64 on 750M entries
    // would add noticeable generation time at the paper scale.
    let mut k = 0u64;
    let x = DenseTensor::from_fn(&dims, || {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        S::from_f64(((k >> 40) as f64) * 2e-8 - 0.5)
    });
    let factors = random_factors(&dims, C, nmodes as u64)
        .into_iter()
        .map(|f| f.into_iter().map(S::from_f64).collect())
        .collect();
    (x, factors, dims)
}

pub fn refs<'a, S: Scalar>(factors: &'a [Vec<S>], dims: &[usize]) -> Vec<MatRef<'a, S>> {
    factors
        .iter()
        .zip(dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, C, Layout::RowMajor))
        .collect()
}

pub fn run(scale: Scale, dtype: Dtype) {
    match dtype {
        Dtype::F64 => run_at::<f64>(scale),
        Dtype::F32 => run_at::<f32>(scale),
    }
}

fn run_at<S: Scalar>(scale: Scale) {
    println!(
        "## Figure 5: MTTKRP time vs threads (C = {C}, dtype = {})",
        S::DTYPE
    );
    let pool = ThreadPool::host();
    // Model/claims use the paper testbed's constants.
    let machine = Machine::sandy_bridge_12core();

    for nmodes in 3..=6 {
        let (x, factors, dims) = workload::<S>(nmodes, scale);
        println!("\n### N = {nmodes}: dims = {dims:?} ({} entries)", x.len());
        println!("series,threads,seconds,source");
        let frefs = refs(&factors, &dims);

        for n in 0..nmodes {
            let mut out = vec![S::ZERO; dims[n] * C];
            // Steady-state measurement: the plan (algorithm choice,
            // partition schedule, workspaces) is built once outside the
            // timing loop, exactly as CP-ALS reuses it across sweeps.
            let mut plan = MttkrpPlan::new(&pool, &dims, C, n, AlgoChoice::OneStep);
            let t1 = time_median(scale.trials(), || plan.execute(&pool, &x, &frefs, &mut out));
            println!("1-Step n={n},{},{},measured", pool.num_threads(), fmt_s(t1));
            for &t in &MODEL_THREADS {
                println!(
                    "1-Step n={n},{t},{},model",
                    fmt_s(predict_1step(&machine, &dims, n, C, t).total)
                );
            }
            if n > 0 && n < nmodes - 1 {
                let mut plan =
                    MttkrpPlan::new(&pool, &dims, C, n, AlgoChoice::TwoStep(TwoStepSide::Auto));
                let t2 = time_median(scale.trials(), || plan.execute(&pool, &x, &frefs, &mut out));
                println!("2-Step n={n},{},{},measured", pool.num_threads(), fmt_s(t2));
                for &t in &MODEL_THREADS {
                    println!(
                        "2-Step n={n},{t},{},model",
                        fmt_s(predict_2step(&machine, &dims, n, C, t).total)
                    );
                }
            }
        }

        // Baseline: single DGEMM between column-major matrices of the
        // MTTKRP shape for the middle mode (the paper plots one
        // baseline curve per tensor).
        let n_mid = nmodes / 2;
        let i_n = dims[n_mid];
        let i_neq = x.len() / i_n;
        let xv = MatRef::from_slice(x.data(), i_n, i_neq, Layout::ColMajor);
        let k: Vec<S> = random_matrix(i_neq, C, 5)
            .into_iter()
            .map(S::from_f64)
            .collect();
        let kv = MatRef::from_slice(&k, i_neq, C, Layout::ColMajor);
        let mut out = vec![S::ZERO; i_n * C];
        let tb = time_median(scale.trials(), || {
            baseline_gemm_only(&pool, xv, kv, &mut out)
        });
        println!("Baseline,{},{},measured", pool.num_threads(), fmt_s(tb));
        for &t in &MODEL_THREADS {
            println!(
                "Baseline,{t},{},model",
                fmt_s(predict_baseline(&machine, &dims, n_mid, C, t))
            );
        }

        // Claim checks for this tensor family (§5.3.1) at the paper's
        // ≈750M-entry size, on the modeled machine.
        let pdims = equal_dims(nmodes, 750_000_000);
        let base1 = predict_baseline(&machine, &pdims, n_mid, C, 1);
        let one1 = predict_1step(&machine, &pdims, n_mid, C, 1).total;
        let two1 = predict_2step(&machine, &pdims, n_mid, C, 1).total;
        println!(
            "# claim: seq 1-step <= 2x baseline -> {:.2}x [{}]",
            one1 / base1,
            claim(one1 / base1 < 2.3)
        );
        println!(
            "# claim: seq 2-step within [-25%,+3%] of baseline -> {:+.1}% [{}]",
            (two1 / base1 - 1.0) * 100.0,
            claim((two1 / base1 - 1.0).abs() < 0.45)
        );
        if nmodes > 3 {
            let base12 = predict_baseline(&machine, &pdims, n_mid, C, 12);
            let best12 = predict_2step(&machine, &pdims, n_mid, C, 12)
                .total
                .min(predict_1step(&machine, &pdims, n_mid, C, 12).total);
            println!(
                "# claim: 2-4.7x over baseline @12T (N>3) -> {:.2}x [{}]",
                base12 / best12,
                claim(base12 / best12 > 1.5)
            );
        }
    }
    println!();
}
