//! Installed-profile behavior. Installation is process-global (first
//! one wins, like the kernel-tier dispatch), so this is a
//! **single-test binary**: one `#[test]` exercises the whole
//! install-side story in a controlled order, and no other test shares
//! the process.
//!
//! When `MTTKRP_TUNE_PROFILE` is set (the CI tuned leg exports a
//! freshly calibrated profile), the profile comes from the
//! environment via `init_from_env` — exercising the exact path every
//! binary uses. Otherwise the test calibrates a quick profile itself.

use mttkrp_repro::blas::{Layout, MatRef};
use mttkrp_repro::cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_repro::machine;
use mttkrp_repro::mttkrp::{
    cost_model_installed, mttkrp_oracle, AlgoChoice, ChoiceLog, MttkrpPlan,
};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::sparse::{CooTensor, CsfTensor, SparseMttkrpPlan};
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::tune::{calibrate, CalibrateOptions};

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

#[test]
fn installed_profile_drives_every_plan_layer() {
    // --- Install: from the environment if the CI leg set it, else a
    // quick self-calibration. Either way the cost model comes alive.
    assert!(!cost_model_installed(), "fresh process starts untuned");
    let from_env = mttkrp_repro::tune::init_from_env().expect("env profile must load if set");
    if from_env.is_none() {
        assert!(mttkrp_repro::tune::install(calibrate(&CalibrateOptions {
            threads: Some(2),
            quick: true,
        })));
    }
    assert!(cost_model_installed(), "install registers the cost model");
    assert!(mttkrp_repro::tune::installed_profile().is_some());
    assert!(machine::installed_machine().is_some());
    // Repeat installation is refused, first profile stays in effect.
    assert!(!mttkrp_repro::tune::install(calibrate(&CalibrateOptions {
        threads: Some(1),
        quick: true,
    })));

    // --- Dense plans: Tuned now resolves to Predicted with the
    // calibrated times, and still matches the oracle.
    let dims = [6usize, 5, 4, 3];
    let c = 3;
    let pool = ThreadPool::new(2);
    let x = DenseTensor::from_vec(&dims, rand_vec(dims.iter().product(), 7));
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| rand_vec(d * c, k as u64 + 1))
        .collect();
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let mut log = ChoiceLog::new();
    for n in 0..dims.len() {
        let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::Tuned);
        let AlgoChoice::Predicted { one_step, two_step } = plan.choice() else {
            panic!(
                "mode {n}: Tuned must resolve to Predicted through the installed model, got {:?}",
                plan.choice()
            );
        };
        let p = plan.predicted_times().expect("predicted times recorded");
        assert_eq!((p.one_step, p.two_step), (one_step, two_step));
        assert!(p.one_step.is_finite() && p.one_step > 0.0);
        assert!(p.two_step.is_finite() && p.two_step > 0.0);
        let mut want = vec![0.0; dims[n] * c];
        mttkrp_oracle(&x, &refs, n, &mut want);
        let mut got = vec![f64::NAN; dims[n] * c];
        let bd = plan.execute_timed(&pool, &x, &refs, &mut got);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "mode {n}");
        }
        log.record(&plan, &bd);
    }
    assert_eq!(log.len(), dims.len());
    assert!(
        log.mean_prediction_error().is_some(),
        "tuned executions carry predictions"
    );

    // --- CP-ALS: the Tuned strategy runs end to end on the installed
    // model and produces the same fit as the heuristic (identical
    // math, different schedule).
    let opts_of = |strategy| CpAlsOptions {
        max_iters: 8,
        tol: 0.0,
        strategy,
    };
    let (_, tuned_rep) = cp_als(
        &pool,
        &x,
        KruskalModel::random(&dims, c, 9),
        &opts_of(MttkrpStrategy::Tuned),
    );
    let (_, auto_rep) = cp_als(
        &pool,
        &x,
        KruskalModel::random(&dims, c, 9),
        &opts_of(MttkrpStrategy::Auto),
    );
    assert!(
        (tuned_rep.final_fit() - auto_rep.final_fit()).abs() < 1e-9,
        "tuned {} vs auto {}",
        tuned_rep.final_fit(),
        auto_rep.final_fit()
    );

    // --- Sparse team cap: with the calibrated machine installed, a
    // hypersparse tensor (10 nonzeros feeding a 40k-row output) caps
    // the team — merging 4 private 120k-element accumulators costs
    // orders of magnitude more than the walk saves.
    let big_pool = ThreadPool::new(4);
    let sdims = [40_000usize, 30, 20];
    let mut inds = Vec::new();
    let mut vals = Vec::new();
    let mut rng = Rng64::seed_from_u64(33);
    for k in 0..10u64 {
        for &d in &sdims {
            inds.push((rng.next_u64() as usize) % d);
        }
        vals.push(k as f64 + 1.0);
    }
    let coo = CooTensor::from_entries(&sdims, inds, vals);
    let dense = coo.to_dense();
    let csf = CsfTensor::from_coo(&coo);
    let plan = SparseMttkrpPlan::new(&big_pool, &csf, c, 0);
    assert!(
        plan.team() < big_pool.num_threads(),
        "hypersparse mode 0 should cap the team, got {} of {}",
        plan.team(),
        big_pool.num_threads()
    );
    // And the capped plan still matches the densified oracle.
    let sfactors: Vec<Vec<f64>> = sdims
        .iter()
        .enumerate()
        .map(|(k, &d)| rand_vec(d * c, 50 + k as u64))
        .collect();
    let srefs: Vec<MatRef> = sfactors
        .iter()
        .zip(&sdims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    let mut want = vec![0.0; sdims[0] * c];
    mttkrp_oracle(&dense, &srefs, 0, &mut want);
    let mut plan = plan;
    let mut got = vec![f64::NAN; sdims[0] * c];
    plan.execute(&big_pool, &csf, &srefs, &mut got);
    for (a, b) in got.iter().zip(&want) {
        assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "capped sparse plan");
    }
}
