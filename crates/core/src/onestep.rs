//! The 1-step MTTKRP (Algorithms 2 and 3).
//!
//! Sequential (Algorithm 2): form the full KRP with Algorithm 1, then
//! multiply against the zero-copy block structure of `X(n)` — one GEMM
//! for external modes, a block inner product of `IR_n` GEMMs for
//! internal modes. No tensor entry is ever moved.
//!
//! Parallel (Algorithm 3), run by [`MttkrpPlan`]:
//!
//! * **External modes** (`n = 0`, `n = N−1`): the columns of the (single
//!   strided view) matricization are partitioned into `T` contiguous
//!   blocks; each thread multiplies its block by its own rows of the
//!   KRP into a thread-private output, followed by a parallel
//!   reduction.
//! * **Internal modes**: the `IR_n` blocks are dealt block-cyclically
//!   to threads, each of which accumulates `X(n)[j] · K(j·IL_n.., :)`
//!   into its private output — again followed by a parallel reduction.
//!
//! Neither forms the KRP: each GEMM takes its rows as a
//! [`mttkrp_blas::KrpRef`] and generates them in its pack, so the KRP
//! time is part of `dgemm`. At `T = 1` both equal Algorithm 2 bit for
//! bit.

use mttkrp_blas::{gemm, Layout, MatMut, MatRef, Scalar};
use mttkrp_krp::{krp_reuse, krp_rows};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;

use crate::breakdown::Breakdown;
use crate::plan::{AlgoChoice, MttkrpPlan};
use crate::{krp_inputs, validate_factors};

/// Sequential 1-step MTTKRP (Algorithm 2): explicit full KRP, then one
/// GEMM per contiguous block of `X(n)`.
///
/// Output is row-major `I_n × C`, overwritten.
pub fn mttkrp_1step_seq<S: Scalar>(
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &mut [S],
) {
    let dims = x.dims();
    assert!(dims.len() >= 2, "MTTKRP requires an order >= 2 tensor");
    let c = validate_factors(dims, factors);
    assert!(n < dims.len(), "mode {n} out of range");
    assert_eq!(out.len(), dims[n] * c, "output must be I_n × C");

    let inputs = krp_inputs(factors, n);
    let j_rows = krp_rows(&inputs);
    let mut k = vec![S::ZERO; j_rows * c];
    krp_reuse(&inputs, &mut k);

    let unf = x.unfold(n);
    if let Some(xv) = unf.as_single_view() {
        let kv = MatRef::from_slice(&k, j_rows, c, Layout::RowMajor);
        gemm(
            1.0,
            xv,
            kv,
            0.0,
            MatMut::from_slice(out, dims[n], c, Layout::RowMajor),
        );
        return;
    }
    let il = unf.block_cols();
    for j in 0..unf.num_blocks() {
        let k_block = MatRef::from_slice(&k[j * il * c..(j + 1) * il * c], il, c, Layout::RowMajor);
        let beta = if j == 0 { 0.0 } else { 1.0 };
        gemm(
            1.0,
            unf.block(j),
            k_block,
            beta,
            MatMut::from_slice(out, dims[n], c, Layout::RowMajor),
        );
    }
}

/// Parallel 1-step MTTKRP (Algorithm 3). With a 1-thread pool it
/// equals [`mttkrp_1step_seq`] bit for bit without forming the full
/// KRP of Algorithm 2.
///
/// This is a thin allocating wrapper: it builds a one-shot
/// [`MttkrpPlan`] (forced to the 1-step kernel) and executes it.
/// Iterative callers should hold the plan instead.
pub fn mttkrp_1step<S: Scalar>(
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &mut [S],
) {
    let _ = mttkrp_1step_timed(pool, x, factors, n, out);
}

/// [`mttkrp_1step`] returning the per-phase time breakdown (Figure 6's
/// `1S` bars).
pub fn mttkrp_1step_timed<S: Scalar>(
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &mut [S],
) -> Breakdown {
    let c = validate_factors(x.dims(), factors);
    let mut plan = MttkrpPlan::new(pool, x.dims(), c, n, AlgoChoice::OneStep);
    plan.execute_timed(pool, x, factors, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_oracle;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 32) as f64) - 0.5
            })
            .collect()
    }

    fn setup(dims: &[usize], c: usize) -> (DenseTensor, Vec<Vec<f64>>) {
        let x = DenseTensor::from_vec(dims, rand_vec(dims.iter().product(), 42));
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| rand_vec(d * c, k as u64 + 1))
            .collect();
        (x, factors)
    }

    fn factor_refs<'a>(factors: &'a [Vec<f64>], dims: &[usize], c: usize) -> Vec<MatRef<'a>> {
        factors
            .iter()
            .zip(dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tag: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "{tag} idx {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn sequential_matches_oracle_all_modes_3way() {
        let dims = [5usize, 4, 3];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        for n in 0..3 {
            let mut want = vec![0.0; dims[n] * c];
            let mut got = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            mttkrp_1step_seq(&x, &refs, n, &mut got);
            assert_close(&got, &want, &format!("mode {n}"));
        }
    }

    #[test]
    fn sequential_matches_oracle_higher_orders() {
        for dims in [vec![3usize, 4], vec![2, 3, 2, 3], vec![2, 2, 3, 2, 2]] {
            let c = 2;
            let (x, factors) = setup(&dims, c);
            let refs = factor_refs(&factors, &dims, c);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                let mut got = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                mttkrp_1step_seq(&x, &refs, n, &mut got);
                assert_close(&got, &want, &format!("dims {dims:?} mode {n}"));
            }
        }
    }

    #[test]
    fn parallel_matches_oracle_many_thread_counts() {
        let dims = [4usize, 3, 3, 2];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        for t in [1usize, 2, 5, 13] {
            let pool = ThreadPool::new(t);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                let mut got = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                mttkrp_1step(&pool, &x, &refs, n, &mut got);
                assert_close(&got, &want, &format!("t={t} mode {n}"));
            }
        }
    }

    #[test]
    fn parallel_overwrites_stale_output() {
        let dims = [3usize, 3, 3];
        let c = 2;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        let mut want = vec![0.0; 3 * c];
        mttkrp_oracle(&x, &refs, 1, &mut want);
        let mut got = vec![f64::NAN; 3 * c];
        mttkrp_1step(&pool, &x, &refs, 1, &mut got);
        assert_close(&got, &want, "stale output");
    }

    #[test]
    fn timed_breakdown_is_consistent() {
        let dims = [8usize, 8, 8];
        let c = 4;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        for n in 0..3 {
            let mut out = vec![0.0; dims[n] * c];
            let bd = mttkrp_1step_timed(&pool, &x, &refs, n, &mut out);
            assert!(bd.total > 0.0);
            assert!(bd.categorized() > 0.0);
            assert_eq!(bd.reorder, 0.0, "1-step never reorders");
            assert_eq!(bd.dgemv, 0.0, "1-step has no GEMV phase");
            assert!(bd.dgemm > 0.0, "mode {n}: {bd:?}");
            assert_eq!(
                (bd.full_krp, bd.lr_krp),
                (0.0, 0.0),
                "mode {n}: the KRP is generated inside the GEMM"
            );
        }
    }

    #[test]
    fn one_thread_parallel_equals_sequential_bit_for_bit() {
        let cases: [(&[usize], usize); 5] = [
            (&[5, 4, 3], 3),
            (&[6, 5, 4, 3], 4),
            (&[4, 3, 2, 3, 2], 3),
            (&[64, 48, 40], 16),
            (&[10, 10, 10, 10, 10], 10),
        ];
        let pool = ThreadPool::new(1);
        for (dims, c) in cases {
            let (x, factors) = setup(dims, c);
            let refs = factor_refs(&factors, dims, c);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                let mut got = vec![f64::NAN; dims[n] * c];
                mttkrp_1step_seq(&x, &refs, n, &mut want);
                mttkrp_1step(&pool, &x, &refs, n, &mut got);
                assert_eq!(got, want, "dims {dims:?} mode {n}");
            }
        }
    }

    #[test]
    fn two_way_tensor_both_modes() {
        let dims = [6usize, 5];
        let c = 4;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(3);
        for n in 0..2 {
            let mut want = vec![0.0; dims[n] * c];
            let mut got = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            mttkrp_1step(&pool, &x, &refs, n, &mut got);
            assert_close(&got, &want, &format!("2-way mode {n}"));
        }
    }

    #[test]
    fn rank_one_factors_give_weighted_fiber_sums() {
        // With all-ones factors (C = 1), MTTKRP reduces to summing X over
        // all modes but n.
        let dims = [3usize, 2, 2];
        let x = DenseTensor::from_vec(&dims, (0..12).map(|i| i as f64).collect());
        let ones: Vec<Vec<f64>> = dims.iter().map(|&d| vec![1.0; d]).collect();
        let refs: Vec<MatRef> = ones
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, 1, Layout::RowMajor))
            .collect();
        let pool = ThreadPool::new(2);
        let mut got = vec![0.0; 3];
        mttkrp_1step(&pool, &x, &refs, 0, &mut got);
        // Sum over j,k of X(i,j,k): entries i, i+3, i+6, i+9.
        for i in 0..3 {
            let want: f64 = (0..4).map(|b| (i + 3 * b) as f64).sum();
            assert!((got[i] - want).abs() < 1e-12);
        }
    }
}
