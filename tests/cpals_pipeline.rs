//! End-to-end pipeline tests: fMRI generation → linearization → CP-ALS
//! with each MTTKRP strategy → dimension-tree equivalence.

use mttkrp_repro::cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::workloads::{linearize_symmetric, FmriConfig};

fn tiny_fmri() -> FmriConfig {
    FmriConfig {
        time: 10,
        subjects: 4,
        regions: 12,
        latent: 3,
        window: 6,
        seed: 5,
    }
}

#[test]
fn fmri_pipeline_end_to_end() {
    let cfg = tiny_fmri();
    let x4 = cfg.generate_4way();
    let x3 = linearize_symmetric(&x4);
    assert_eq!(
        x3.len() * 2 + cfg.time * cfg.subjects * cfg.regions,
        x4.len()
    );

    let pool = ThreadPool::new(2);
    let opts = CpAlsOptions {
        max_iters: 20,
        tol: 1e-6,
        strategy: MttkrpStrategy::Auto,
    };
    for x in [&x4, &x3] {
        let init = KruskalModel::random(x.dims(), 4, 11);
        let (model, report) = cp_als(&pool, x, init, &opts);
        // Synthetic data has planted low-rank structure: a rank-4 model
        // must explain a nontrivial share of it and improve monotonically.
        assert!(report.final_fit() > 0.35, "fit = {}", report.final_fit());
        for w in report.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "fit decreased: {:?}", report.fits);
        }
        assert_eq!(model.rank(), 4);
        assert!(model.lambda.iter().all(|&l| l >= 0.0 && l.is_finite()));
    }
}

#[test]
fn strategies_produce_identical_trajectories() {
    let cfg = tiny_fmri();
    let x = linearize_symmetric(&cfg.generate_4way());
    let pool = ThreadPool::new(3);
    let mut trajectories = Vec::new();
    for strategy in [
        MttkrpStrategy::Auto,
        MttkrpStrategy::OneStep,
        MttkrpStrategy::TwoStep,
        MttkrpStrategy::Explicit,
    ] {
        let init = KruskalModel::random(x.dims(), 3, 99);
        let opts = CpAlsOptions {
            max_iters: 6,
            tol: 0.0,
            strategy,
        };
        let (_, report) = cp_als(&pool, &x, init, &opts);
        trajectories.push(report.fits);
    }
    for t in &trajectories[1..] {
        for (a, b) in t.iter().zip(&trajectories[0]) {
            assert!((a - b).abs() < 1e-7, "trajectories diverged: {a} vs {b}");
        }
    }
}

#[test]
fn dimtree_matches_standard_on_fmri() {
    let cfg = tiny_fmri();
    let x4 = cfg.generate_4way();
    let pool = ThreadPool::new(2);
    // `Auto` runs the two-group (dimension-tree) sweep on this 4-way
    // tensor; `OneStep` is the per-mode standard.
    let run = |strategy| {
        let opts = CpAlsOptions {
            max_iters: 5,
            tol: 0.0,
            strategy,
        };
        cp_als(&pool, &x4, KruskalModel::random(x4.dims(), 3, 4), &opts)
    };
    let (m_std, r_std) = run(MttkrpStrategy::OneStep);
    let (m_dt, r_dt) = run(MttkrpStrategy::Auto);
    for (a, b) in r_std.fits.iter().zip(&r_dt.fits) {
        assert!((a - b).abs() < 1e-8, "{:?} vs {:?}", r_std.fits, r_dt.fits);
    }
    for (fa, fb) in m_std.factors.iter().zip(&m_dt.factors) {
        for (x1, x2) in fa.iter().zip(fb) {
            assert!((x1 - x2).abs() < 1e-6);
        }
    }
}

#[test]
fn mttkrp_dominates_cpals_time() {
    // §2.2: nearly all CP-ALS time is MTTKRP. On a non-trivial tensor
    // our driver should spend the bulk of its time there.
    let cfg = FmriConfig {
        time: 24,
        subjects: 6,
        regions: 24,
        latent: 4,
        window: 8,
        seed: 2,
    };
    let x = cfg.generate_4way();
    let pool = ThreadPool::new(1);
    let opts = CpAlsOptions {
        max_iters: 2,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    let (_, report) = cp_als(&pool, &x, KruskalModel::random(x.dims(), 16, 3), &opts);
    let total: f64 = report.iter_times.iter().sum();
    assert!(
        report.mttkrp_time > 0.5 * total,
        "MTTKRP share = {:.1}%",
        100.0 * report.mttkrp_time / total
    );
}
