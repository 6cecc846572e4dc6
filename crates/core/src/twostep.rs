//! The 2-step MTTKRP (Algorithm 4, due to Phan et al.).
//!
//! Step 1 — *partial MTTKRP* — is one large GEMM that never touches the
//! block structure: `X(0:n)` is column-major in memory for every `n`, so
//! `R(0:n) = X(0:n) · KR` is a single BLAS call (right variant), and
//! `X(0:n−1)ᵀ` is row-major, so `L = X(0:n−1)ᵀ · KL` is too (left
//! variant). The side is chosen to minimize the flops of step 2
//! (`IL_n > IR_n ⇒ left`, Algorithm 4 line 4). `KR`/`KL` are not
//! formed either: the GEMM generates their rows in its pack.
//!
//! Step 2 — *multi-TTV* — contracts column `j` of the partial with
//! column `j` of every remaining factor, one GEMV per mode, so the
//! TTV-side KRP is never formed. The columns are dealt across the team
//! in static blocks, so the result does not depend on the team size.
//!
//! Both steps are the partial MTTKRP of [`crate::multimode`]: the left
//! variant is its suffix group `n..N`, the right variant its prefix
//! group `0..=n`, the same code the two-group sweep runs. For external
//! modes the 2-step algorithm degenerates to the 1-step algorithm (the
//! partial MTTKRP already is the answer), so those modes plan the
//! 1-step kernel of [`crate::onestep`].

use mttkrp_blas::{MatRef, Scalar};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;

use crate::breakdown::Breakdown;
use crate::plan::{AlgoChoice, MttkrpPlan};
use crate::validate_factors;

/// Which side Algorithm 4 performs the partial MTTKRP on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoStepSide {
    /// Follow the paper's heuristic: left when `IL_n > IR_n`.
    Auto,
    /// Force `L = X(0:n−1)ᵀ · KL`, multi-TTV against `KR`.
    Left,
    /// Force `R = X(0:n) · KR`, multi-TTV against `KL`.
    Right,
}

/// 2-step MTTKRP (Algorithm 4): a parallel partial GEMM, then a
/// column-dealt multi-TTV. Output is row-major `I_n × C`, overwritten.
///
/// External modes delegate to the (equivalent) 1-step algorithm.
pub fn mttkrp_2step<S: Scalar>(
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &mut [S],
) {
    let _ = mttkrp_2step_timed(pool, x, factors, n, out, TwoStepSide::Auto);
}

/// [`mttkrp_2step`] with an explicit side choice (the left-vs-right
/// ablation) and per-phase timing (Figure 6's `2S` bars).
pub fn mttkrp_2step_timed<S: Scalar>(
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    factors: &[MatRef<S>],
    n: usize,
    out: &mut [S],
    side: TwoStepSide,
) -> Breakdown {
    let c = validate_factors(x.dims(), factors);
    let mut plan = MttkrpPlan::new(pool, x.dims(), c, n, AlgoChoice::TwoStep(side));
    plan.execute_timed(pool, x, factors, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_oracle;
    use mttkrp_blas::Layout;

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
        let x = DenseTensor::from_vec(dims, rand_vec(dims.iter().product(), 7));
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| rand_vec(d * c, k as u64 + 3))
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
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "{tag} idx {i}: {x} vs {y}"
            );
        }
    }

    /// Every side on every internal mode matches the oracle, written
    /// over a NaN-filled (stale) output.
    #[test]
    fn matches_oracle_internal_modes() {
        let cases = [
            (vec![4usize, 3, 5], 3, 2),
            (vec![3, 4, 2, 3], 3, 2),
            (vec![2, 3, 2, 2, 2], 3, 2),
        ];
        for (dims, c, t) in cases {
            let (x, factors) = setup(&dims, c);
            let refs = factor_refs(&factors, &dims, c);
            let pool = ThreadPool::new(t);
            for n in 1..dims.len() - 1 {
                let mut want = vec![0.0; dims[n] * c];
                mttkrp_oracle(&x, &refs, n, &mut want);
                for side in [TwoStepSide::Auto, TwoStepSide::Left, TwoStepSide::Right] {
                    let mut got = vec![f64::NAN; dims[n] * c];
                    mttkrp_2step_timed(&pool, &x, &refs, n, &mut got, side);
                    assert_close(&got, &want, &format!("dims {dims:?} mode {n} {side:?}"));
                }
            }
        }
    }

    #[test]
    fn left_and_right_variants_agree() {
        let dims = [4usize, 3, 2, 5];
        let c = 4;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(3);
        for n in 1..3 {
            let mut left = vec![0.0; dims[n] * c];
            let mut right = vec![0.0; dims[n] * c];
            let mut want = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            mttkrp_2step_timed(&pool, &x, &refs, n, &mut left, TwoStepSide::Left);
            mttkrp_2step_timed(&pool, &x, &refs, n, &mut right, TwoStepSide::Right);
            assert_close(&left, &want, &format!("left mode {n}"));
            assert_close(&right, &want, &format!("right mode {n}"));
        }
    }

    #[test]
    fn external_modes_delegate_to_1step() {
        let dims = [4usize, 3, 5];
        let c = 2;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        for n in [0, 2] {
            let mut want = vec![0.0; dims[n] * c];
            let mut got = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            mttkrp_2step(&pool, &x, &refs, n, &mut got);
            assert_close(&got, &want, &format!("external mode {n}"));
        }
    }

    #[test]
    fn auto_side_matches_paper_heuristic() {
        // dims chosen so mode 1 has IL=6 > IR=2 (left) and mode 2 has
        // IL=... the heuristic itself is internal; we just verify both
        // autos equal the oracle.
        let dims = [6usize, 2, 2, 2];
        let c = 3;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        for n in 1..3 {
            let mut want = vec![0.0; dims[n] * c];
            let mut got = vec![0.0; dims[n] * c];
            mttkrp_oracle(&x, &refs, n, &mut want);
            let bd = mttkrp_2step_timed(&pool, &x, &refs, n, &mut got, TwoStepSide::Auto);
            assert_close(&got, &want, &format!("auto mode {n}"));
            assert!(bd.dgemm > 0.0);
            assert!(bd.dgemv > 0.0);
            assert_eq!(bd.full_krp, 0.0, "2-step never forms the full KRP");
        }
    }

    #[test]
    fn timed_breakdown_sums_below_total() {
        let dims = [8usize, 6, 8];
        let c = 5;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(1);
        let mut out = vec![0.0; dims[1] * c];
        let bd = mttkrp_2step_timed(&pool, &x, &refs, 1, &mut out, TwoStepSide::Auto);
        assert!(bd.categorized() <= bd.total * 1.5 + 1e-3);
    }

    #[test]
    fn overwrites_stale_output() {
        let dims = [3usize, 4, 3];
        let c = 2;
        let (x, factors) = setup(&dims, c);
        let refs = factor_refs(&factors, &dims, c);
        let pool = ThreadPool::new(2);
        let mut want = vec![0.0; 4 * c];
        mttkrp_oracle(&x, &refs, 1, &mut want);
        let mut got = vec![f64::NAN; 4 * c];
        mttkrp_2step(&pool, &x, &refs, 1, &mut got);
        assert_close(&got, &want, "stale");
    }
}
