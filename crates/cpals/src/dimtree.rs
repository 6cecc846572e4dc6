//! Tests of the two-group (dimension-tree) CP-ALS sweep as [`cp_als`]
//! runs it: [`MttkrpStrategy::Auto`] on a dense tensor of order ≥ 3
//! computes the same ALS iterates as the per-mode
//! [`MttkrpStrategy::OneStep`] sweep, and converges on planted models.
//!
//! [`cp_als`]: crate::als::cp_als

mod tests {
    use crate::als::{cp_als, CpAlsOptions, CpAlsReport, MttkrpStrategy};
    use crate::model::KruskalModel;
    use mttkrp_parallel::ThreadPool;
    use mttkrp_tensor::DenseTensor;

    fn planted(dims: &[usize], rank: usize, seed: u64) -> DenseTensor {
        KruskalModel::random(dims, rank, seed).to_dense()
    }

    /// Whether the per-mode breakdowns show the two-group sweep: a
    /// partial GEMM in modes 0 and `⌈N/2⌉` only.
    fn ran_two_group(report: &CpAlsReport) -> bool {
        let s = report.mode_breakdowns.len().div_ceil(2);
        report
            .mode_breakdowns
            .iter()
            .enumerate()
            .all(|(n, bd)| (bd.dgemm > 0.0) == (n == 0 || n == s))
    }

    #[test]
    fn matches_standard_cp_als_iterates_3way() {
        let dims = [6usize, 5, 4];
        let x = planted(&dims, 2, 17);
        let pool = ThreadPool::new(2);
        let opts = |strategy| CpAlsOptions {
            max_iters: 8,
            tol: 0.0,
            strategy,
        };
        let init = || KruskalModel::random(&dims, 2, 5);
        let (m_std, r_std) = cp_als(&pool, &x, init(), &opts(MttkrpStrategy::OneStep));
        let (m_dt, r_dt) = cp_als(&pool, &x, init(), &opts(MttkrpStrategy::Auto));
        assert!(!ran_two_group(&r_std) && ran_two_group(&r_dt));
        assert_eq!(r_std.fits.len(), r_dt.fits.len());
        for (a, b) in r_std.fits.iter().zip(&r_dt.fits) {
            assert!(
                (a - b).abs() < 1e-8,
                "fits diverged: {:?} vs {:?}",
                r_std.fits,
                r_dt.fits
            );
        }
        for (fa, fb) in m_std.factors.iter().zip(&m_dt.factors) {
            for (x1, x2) in fa.iter().zip(fb) {
                assert!((x1 - x2).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matches_standard_cp_als_iterates_4way_and_5way() {
        for dims in [vec![4usize, 3, 3, 4], vec![3, 2, 3, 2, 3]] {
            let x = planted(&dims, 2, 23);
            let pool = ThreadPool::new(2);
            let opts = |strategy| CpAlsOptions {
                max_iters: 6,
                tol: 0.0,
                strategy,
            };
            let init = || KruskalModel::random(&dims, 2, 9);
            let (_, r_std) = cp_als(&pool, &x, init(), &opts(MttkrpStrategy::OneStep));
            let (_, r_dt) = cp_als(&pool, &x, init(), &opts(MttkrpStrategy::Auto));
            assert!(
                !ran_two_group(&r_std) && ran_two_group(&r_dt),
                "dims {dims:?}"
            );
            assert_eq!(r_std.fits.len(), r_dt.fits.len());
            for (a, b) in r_std.fits.iter().zip(&r_dt.fits) {
                assert!(
                    (a - b).abs() < 1e-8,
                    "dims {dims:?}: {:?} vs {:?}",
                    r_std.fits,
                    r_dt.fits
                );
            }
        }
    }

    /// Order 2 has no two-group split; `Auto` falls back to the
    /// per-mode sweep and must still recover the planted model.
    #[test]
    fn recovers_planted_rank_2way() {
        let dims = [8usize, 6];
        let x = planted(&dims, 2, 41);
        let pool = ThreadPool::new(1);
        let opts = CpAlsOptions {
            max_iters: 300,
            tol: 1e-13,
            strategy: MttkrpStrategy::Auto,
        };
        let (_, report) = cp_als(&pool, &x, KruskalModel::random(&dims, 2, 42), &opts);
        assert!(report.final_fit() > 0.999, "fit = {}", report.final_fit());
    }

    #[test]
    fn converges_on_planted_4way() {
        let dims = [5usize, 4, 4, 3];
        let x = planted(&dims, 3, 51);
        let pool = ThreadPool::new(2);
        let opts = CpAlsOptions {
            max_iters: 400,
            tol: 1e-12,
            strategy: MttkrpStrategy::Auto,
        };
        let (_, report) = cp_als(&pool, &x, KruskalModel::random(&dims, 3, 52), &opts);
        assert!(ran_two_group(&report));
        assert!(report.final_fit() > 0.99, "fit = {}", report.final_fit());
    }
}
