//! Figure 6: per-phase time breakdown of baseline / 1-step / 2-step
//! across modes, sequential (T=1) and parallel (T=12), for the
//! Figure 5 tensors. `--dtype f32` reruns the sweep in binary32
//! storage.
//!
//! Measured 1S and 2S rows carry their KRP time inside `dgemm`: the
//! planned GEMMs generate KRP rows in their pack, so `full_krp` and
//! `lr_krp` read 0 there. The modeled rows still split the KRP out as
//! the paper's figure does.

use mttkrp_blas::{Dtype, Scalar};
use mttkrp_core::{mttkrp_explicit_timed, AlgoChoice, Breakdown, MttkrpPlan, TwoStepSide};
use mttkrp_machine::{predict_1step, predict_2step, predict_explicit, Machine};
use mttkrp_parallel::ThreadPool;

use crate::fig5::{refs, workload, C};
use crate::scale::Scale;
use crate::util::fmt_s;

fn print_bd(series: &str, n: usize, t: usize, source: &str, bd: &Breakdown) {
    println!(
        "{series},n={n},T={t},{source},reorder={},full_krp={},lr_krp={},dgemm={},dgemv={},reduce={},total={}",
        fmt_s(bd.reorder),
        fmt_s(bd.full_krp),
        fmt_s(bd.lr_krp),
        fmt_s(bd.dgemm),
        fmt_s(bd.dgemv),
        fmt_s(bd.reduce),
        fmt_s(bd.total),
    );
}

pub fn run(scale: Scale, dtype: Dtype) {
    match dtype {
        Dtype::F64 => run_at::<f64>(scale),
        Dtype::F32 => run_at::<f32>(scale),
    }
}

fn run_at<S: Scalar>(scale: Scale) {
    println!(
        "## Figure 6: MTTKRP phase breakdowns (C = {C}, dtype = {})",
        S::DTYPE
    );
    println!("# B = explicit baseline (reorder + full KRP + DGEMM); 1S/2S = paper algorithms");
    println!("# measured 1S/2S: KRP generated inside DGEMM; model rows split it out");
    let pool = ThreadPool::host();
    let machine = Machine::sandy_bridge_12core();
    let host_t = pool.num_threads();

    for nmodes in 3..=6 {
        let (x, factors, dims) = workload::<S>(nmodes, scale);
        println!("\n### N = {nmodes}: dims = {dims:?}");
        let frefs = refs(&factors, &dims);

        for n in 0..nmodes {
            let mut out = vec![S::ZERO; dims[n] * C];
            let bd_b = mttkrp_explicit_timed(&pool, &x, &frefs, n, &mut out);
            print_bd("B", n, host_t, "measured", &bd_b);
            // Steady state: warm the plan once, report the second run.
            let mut p1 = MttkrpPlan::new(&pool, &dims, C, n, AlgoChoice::OneStep);
            p1.execute(&pool, &x, &frefs, &mut out);
            let bd_1 = p1.execute_timed(&pool, &x, &frefs, &mut out);
            print_bd("1S", n, host_t, "measured", &bd_1);
            if n > 0 && n < nmodes - 1 {
                let mut p2 =
                    MttkrpPlan::new(&pool, &dims, C, n, AlgoChoice::TwoStep(TwoStepSide::Auto));
                p2.execute(&pool, &x, &frefs, &mut out);
                let bd_2 = p2.execute_timed(&pool, &x, &frefs, &mut out);
                print_bd("2S", n, host_t, "measured", &bd_2);
            }

            for &t in &[1usize, 12] {
                print_bd(
                    "B",
                    n,
                    t,
                    "model",
                    &predict_explicit(&machine, &dims, n, C, t),
                );
                print_bd(
                    "1S",
                    n,
                    t,
                    "model",
                    &predict_1step(&machine, &dims, n, C, t),
                );
                if n > 0 && n < nmodes - 1 {
                    print_bd(
                        "2S",
                        n,
                        t,
                        "model",
                        &predict_2step(&machine, &dims, n, C, t),
                    );
                }
            }
        }
    }
    println!();
}
