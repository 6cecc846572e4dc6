//! Kernel microbenchmark: per-tier throughput of the dispatched SIMD
//! primitives (dot / axpy / hadamard / SYRK row update, and the packed
//! GEMM on the paper's CP shape), one series per tier the host CPU
//! supports.
//!
//! Output lines are `kernels-<tier>/<kernel>,median_s,min_s,max_s,n`;
//! each timed call streams `REPS` invocations so the per-call dispatch
//! overhead is amortized the same way the real hot loops amortize it.
//! Compare tiers row-wise to see what the explicit-FMA kernels buy over
//! the scalar reference (BENCH tracking: per-tier kernel throughput).

use mttkrp_bench::BenchGroup;
use mttkrp_blas::kernels::{available_tiers, KernelSet};
use mttkrp_blas::{gemm_with, Layout, MatMut, MatRef};

/// Vector length of the level-1 benches (L2-resident: 2 × 64 KiB).
const LEN: usize = 8192;
/// Invocations per timed call.
const REPS: usize = 200;
/// Gram rank of the SYRK row-update bench (the paper's C = 25).
const SYRK_N: usize = 25;
/// The `cubic3` mode-0 GEMM `X(0) · K`: `I_0 × (I_1·I_2)` times
/// `(I_1·I_2) × C` with `I_n = 200`, `C = 25`.
const CUBIC3: (usize, usize, usize) = (200, 40_000, 25);

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 32) as f64) - 0.5
        })
        .collect()
}

fn main() {
    for tier in available_tiers() {
        let ks = KernelSet::for_tier(tier).expect("listed tier resolves");
        let group = BenchGroup::new(format!("kernels-{tier}"));

        let x = rand_vec(LEN, 1);
        let y = rand_vec(LEN, 2);
        group.bench("dot_8k", || {
            let mut acc = 0.0;
            for _ in 0..REPS {
                acc += (ks.dot)(&x, &y);
            }
            std::hint::black_box(acc);
        });

        let mut yv = rand_vec(LEN, 3);
        group.bench("axpy_8k", || {
            for _ in 0..REPS {
                (ks.axpy)(1.000000001, &x, &mut yv);
            }
            std::hint::black_box(yv[0]);
        });

        let mut out = vec![0.0; LEN];
        group.bench("hadamard_8k", || {
            for _ in 0..REPS {
                (ks.hadamard)(&x, &y, &mut out);
            }
            std::hint::black_box(out[0]);
        });

        group.bench("mul_add_8k", || {
            for _ in 0..REPS {
                (ks.mul_add)(&x, &y, &mut out);
            }
            std::hint::black_box(out[0]);
        });

        // One KRP-rank row against a C × C Gram accumulator — the
        // inner operation of the Gram path (C = 25).
        let row = rand_vec(SYRK_N, 5);
        let mut acc = vec![0.0; SYRK_N * SYRK_N];
        group.bench("syrk_rank1_c25", || {
            for _ in 0..REPS * 4 {
                (ks.syrk_rank1_lower)(&row, &mut acc);
            }
            std::hint::black_box(acc[0]);
        });

        // The cubic3 mode-0 shape, with `X(0)` column-major as in the
        // tensor (the vector-copy pack of A) and row-major (the
        // transposing pack, as for the last mode). 2·m·k·n flops.
        let (m, k, n) = CUBIC3;
        let a_data = rand_vec(m * k, 9);
        let b_data = rand_vec(k * n, 10);
        let mut c_data = vec![0.0; m * n];
        for (name, layout) in [
            ("gemm_cubic3_m0", Layout::ColMajor),
            ("gemm_cubic3_rowmajor", Layout::RowMajor),
        ] {
            group.bench(name, || {
                let a = MatRef::from_slice(&a_data, m, k, layout);
                let b = MatRef::from_slice(&b_data, k, n, Layout::RowMajor);
                gemm_with(
                    &ks,
                    1.0,
                    a,
                    b,
                    0.0,
                    MatMut::from_slice(&mut c_data, m, n, Layout::RowMajor),
                );
                std::hint::black_box(c_data[0]);
            });
        }
    }
}
