//! PR-10 migration safety: moving the thread pool onto the
//! work-stealing scheduler must not change a single numeric result.
//!
//! The argument: a plan's partition schedule is indexed by *slot id*,
//! not OS thread, and `reduce_slots` combines per-slot partials in
//! fixed slot order — so for a fixed team size `T`, the arithmetic
//! (operands, order, grouping) is identical no matter which OS thread
//! executes which slot. These tests pin that down empirically by
//! running every backend (dense planned, sparse CSF, out-of-core) and
//! CP-ALS across scheduler worker counts {0, 1, 3} — 0 workers forces
//! the submitting thread to execute all slots, i.e. the old static
//! schedule's arithmetic — and asserting *bitwise* equality for fixed
//! `T`, plus the issue's ≤1e-12 window against the `T = 1` reference
//! across team sizes.

use mttkrp_repro::blas::{Layout, MatRef};
use mttkrp_repro::cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_repro::mttkrp::{AlgoChoice, MttkrpBackend, MttkrpPlan, TwoStepSide};
use mttkrp_repro::ooc::{OocTensor, TileStore, TiledLayout};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::sched::Scheduler;
use mttkrp_repro::sparse::{CsfTensor, SparseMttkrpPlan};
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::workloads::random_sparse;

const TEAMS: [usize; 3] = [1, 2, 4];
const WORKERS: [usize; 3] = [0, 1, 3];

/// Pool of team size `t` on a private scheduler with `w` workers.
fn pool_on(t: usize, sched: &Scheduler) -> ThreadPool {
    ThreadPool::with_scheduler(t, sched.clone())
}

fn factors_for(dims: &[usize], c: usize, rng: &mut Rng64) -> Vec<Vec<f64>> {
    dims.iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect()
}

fn refs_of<'a>(factors: &'a [Vec<f64>], dims: &[usize], c: usize) -> Vec<MatRef<'a, f64>> {
    factors
        .iter()
        .zip(dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect()
}

/// Dense planned MTTKRP: for each team size and algorithm, every
/// worker count must reproduce the 0-worker (static-arithmetic) result
/// bit for bit; across team sizes the 1e-12 window holds.
#[test]
fn dense_planned_mttkrp_bitwise_stable_across_worker_counts() {
    let mut rng = Rng64::seed_from_u64(0x5CED_0001);
    for dims in [vec![7usize, 6, 5], vec![4, 5, 3, 4]] {
        let total: usize = dims.iter().product();
        let x = DenseTensor::from_vec(&dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
        let c = 4;
        let factors = factors_for(&dims, c, &mut rng);
        let refs = refs_of(&factors, &dims, c);
        for n in 0..dims.len() {
            let mut choices = vec![AlgoChoice::Heuristic, AlgoChoice::OneStep];
            if n > 0 && n < dims.len() - 1 {
                choices.push(AlgoChoice::TwoStep(TwoStepSide::Left));
                choices.push(AlgoChoice::TwoStep(TwoStepSide::Right));
            }
            for choice in choices {
                // T = 1 reference for the cross-team 1e-12 window.
                let seq_sched = Scheduler::new(0);
                let seq_pool = pool_on(1, &seq_sched);
                let mut seq = vec![0.0; dims[n] * c];
                MttkrpPlan::new(&seq_pool, &dims, c, n, choice)
                    .execute(&seq_pool, &x, &refs, &mut seq);
                seq_sched.shutdown();

                for t in TEAMS {
                    let mut static_ref: Option<Vec<f64>> = None;
                    for w in WORKERS {
                        let sched = Scheduler::new(w);
                        let pool = pool_on(t, &sched);
                        let mut got = vec![f64::NAN; dims[n] * c];
                        let mut plan = MttkrpPlan::new(&pool, &dims, c, n, choice);
                        plan.execute(&pool, &x, &refs, &mut got);
                        sched.shutdown();
                        match &static_ref {
                            None => static_ref = Some(got),
                            Some(want) => {
                                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                                    assert!(
                                        a.to_bits() == b.to_bits(),
                                        "dims {dims:?} n={n} {choice:?} t={t} w={w} \
                                         row-elt {i}: {a:e} != static {b:e} (bitwise)"
                                    );
                                }
                            }
                        }
                    }
                    for (a, b) in static_ref.as_ref().unwrap().iter().zip(&seq) {
                        assert!(
                            (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                            "dims {dims:?} n={n} {choice:?} t={t}: {a} vs T=1 {b}"
                        );
                    }
                }
            }
        }
    }
}

/// Sparse CSF planned MTTKRP under work-stealing: same bitwise/1e-12
/// structure as the dense test.
#[test]
fn sparse_planned_mttkrp_bitwise_stable_across_worker_counts() {
    let mut rng = Rng64::seed_from_u64(0x5CED_0002);
    for dims in [vec![8usize, 6, 5], vec![5, 4, 3, 4]] {
        let total: usize = dims.iter().product();
        let coo = random_sparse(&dims, total / 3, rng.next_u64());
        let csf = CsfTensor::from_coo(&coo);
        let c = 3;
        let factors = factors_for(&dims, c, &mut rng);
        let refs = refs_of(&factors, &dims, c);
        for n in 0..dims.len() {
            let seq_sched = Scheduler::new(0);
            let seq_pool = pool_on(1, &seq_sched);
            let mut seq = vec![0.0; dims[n] * c];
            SparseMttkrpPlan::new(&seq_pool, &csf, c, n).execute(&seq_pool, &csf, &refs, &mut seq);
            seq_sched.shutdown();

            for t in TEAMS {
                let mut static_ref: Option<Vec<f64>> = None;
                for w in WORKERS {
                    let sched = Scheduler::new(w);
                    let pool = pool_on(t, &sched);
                    let mut got = vec![f64::NAN; dims[n] * c];
                    SparseMttkrpPlan::new(&pool, &csf, c, n).execute(&pool, &csf, &refs, &mut got);
                    sched.shutdown();
                    match &static_ref {
                        None => static_ref = Some(got),
                        Some(want) => {
                            for (a, b) in got.iter().zip(want) {
                                assert!(
                                    a.to_bits() == b.to_bits(),
                                    "dims {dims:?} n={n} t={t} w={w}: sparse {a:e} != {b:e}"
                                );
                            }
                        }
                    }
                }
                for (a, b) in static_ref.as_ref().unwrap().iter().zip(&seq) {
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                        "dims {dims:?} n={n} t={t}: sparse {a} vs T=1 {b}"
                    );
                }
            }
        }
    }
}

/// Out-of-core streaming MTTKRP under work-stealing: tiles stream in a
/// fixed order and each tile's region is slot-deterministic, so the
/// same bitwise/1e-12 structure must hold.
#[test]
fn ooc_planned_mttkrp_bitwise_stable_across_worker_counts() {
    let mut rng = Rng64::seed_from_u64(0x5CED_0003);
    let dims = [7usize, 5, 6];
    let tile = [3usize, 2, 4];
    let total: usize = dims.iter().product();
    let x = DenseTensor::from_vec(&dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    let c = 4;
    let factors = factors_for(&dims, c, &mut rng);
    let refs = refs_of(&factors, &dims, c);

    let path = std::env::temp_dir().join(format!("sched_equiv_ooc_{}.mttb", std::process::id()));
    let layout = TiledLayout::new(&dims, &tile);
    let store = TileStore::write_dense(&path, &layout, &x).unwrap();
    let ooc = OocTensor::from_store(store).unwrap();

    for n in 0..dims.len() {
        let seq_sched = Scheduler::new(0);
        let seq_pool = pool_on(1, &seq_sched);
        let mut seq_plans = ooc.plan_modes(&seq_pool, c, Some(AlgoChoice::Heuristic));
        let mut seq = vec![0.0; dims[n] * c];
        ooc.mttkrp_planned(&mut seq_plans, &seq_pool, &refs, n, &mut seq);
        seq_sched.shutdown();

        for t in TEAMS {
            let mut static_ref: Option<Vec<f64>> = None;
            for w in WORKERS {
                let sched = Scheduler::new(w);
                let pool = pool_on(t, &sched);
                let mut plans = ooc.plan_modes(&pool, c, Some(AlgoChoice::Heuristic));
                let mut got = vec![f64::NAN; dims[n] * c];
                ooc.mttkrp_planned(&mut plans, &pool, &refs, n, &mut got);
                sched.shutdown();
                match &static_ref {
                    None => static_ref = Some(got),
                    Some(want) => {
                        for (a, b) in got.iter().zip(want) {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "n={n} t={t} w={w}: ooc {a:e} != {b:e}"
                            );
                        }
                    }
                }
            }
            for (a, b) in static_ref.as_ref().unwrap().iter().zip(&seq) {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "n={n} t={t}: ooc {a} vs T=1 {b}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// CP-ALS fit trajectories: for each team size, every worker count
/// must reproduce the 0-worker trajectory ≤1e-12 per iteration (in
/// fact bitwise — asserted through the fit, which is a function of all
/// factor entries, so any slot-placement-dependent rounding anywhere
/// in the sweep would surface here).
#[test]
fn cp_als_trajectory_stable_across_worker_counts() {
    let dims = [8usize, 7, 6];
    let rank = 3;
    let x = KruskalModel::<f64>::random(&dims, rank, 0x5CED).to_dense();
    let opts = CpAlsOptions {
        max_iters: 8,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    for t in TEAMS {
        let mut static_fits: Option<Vec<f64>> = None;
        for w in WORKERS {
            let sched = Scheduler::new(w);
            let pool = pool_on(t, &sched);
            let init = KruskalModel::<f64>::random(&dims, rank, 99);
            let (_, report) = cp_als(&pool, &x, init, &opts);
            sched.shutdown();
            match &static_fits {
                None => static_fits = Some(report.fits),
                Some(want) => {
                    assert_eq!(
                        want.len(),
                        report.fits.len(),
                        "t={t} w={w}: iteration count"
                    );
                    for (i, (a, b)) in report.fits.iter().zip(want).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-12,
                            "t={t} w={w} iter {i}: fit {a} vs static {b}"
                        );
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "t={t} w={w} iter {i}: fit not bitwise ({a:e} vs {b:e})"
                        );
                    }
                }
            }
        }
    }
}
