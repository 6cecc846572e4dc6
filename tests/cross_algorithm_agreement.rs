//! Cross-crate agreement: every MTTKRP implementation must produce the
//! same matrix as the definition-by-summation oracle, for arbitrary
//! shapes, orders, ranks, and modes. This is the repo's central
//! correctness property (the paper's algorithms are exact
//! reformulations, not approximations). Cases are generated from a
//! fixed-seed [`mttkrp_rng::Rng64`] stream so failures reproduce.

use mttkrp_repro::blas::{Layout, MatRef, Scalar};
use mttkrp_repro::cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_repro::mttkrp::{
    mttkrp_1step, mttkrp_1step_seq, mttkrp_2step_timed, mttkrp_auto, mttkrp_explicit,
    mttkrp_oracle, AlgoChoice, MttkrpBackend, MttkrpPlan, TwoStepSide,
};
use mttkrp_repro::ooc::{OocTensor, TileStore, TiledLayout};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::sparse::{CsfTensor, SparseMttkrpPlan};
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::workloads::random_sparse;

fn close(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x - y).abs() <= 1e-8 * (1.0 + y.abs()))
}

struct Case {
    dims: Vec<usize>,
    c: usize,
    n: usize,
    threads: usize,
}

fn rand_case(rng: &mut Rng64) -> Case {
    let order = rng.usize_in(2, 6);
    let dims: Vec<usize> = (0..order).map(|_| rng.usize_in(1, 7)).collect();
    let c = rng.usize_in(1, 5);
    let n = rng.usize_below(order);
    let threads = rng.usize_in(1, 6);
    Case {
        dims,
        c,
        n,
        threads,
    }
}

fn build(rng: &mut Rng64, case: &Case) -> (DenseTensor, Vec<Vec<f64>>) {
    let total: usize = case.dims.iter().product();
    let x = DenseTensor::from_vec(
        &case.dims,
        (0..total).map(|_| rng.next_f64() - 0.5).collect(),
    );
    let factors = case
        .dims
        .iter()
        .map(|&d| (0..d * case.c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    (x, factors)
}

#[test]
fn all_variants_match_oracle() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0001);
    for case_idx in 0..48 {
        let case = rand_case(&mut rng);
        let (x, factors) = build(&mut rng, &case);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&case.dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, case.c, Layout::RowMajor))
            .collect();
        let pool = ThreadPool::new(case.threads);
        let out_len = case.dims[case.n] * case.c;
        let tag = format!(
            "case {case_idx}: dims {:?} c={} n={} t={}",
            case.dims, case.c, case.n, case.threads
        );

        let mut want = vec![0.0; out_len];
        mttkrp_oracle(&x, &refs, case.n, &mut want);

        let mut got = vec![f64::NAN; out_len];
        mttkrp_1step_seq(&x, &refs, case.n, &mut got);
        assert!(close(&got, &want), "1-step seq; {tag}");

        got.fill(f64::NAN);
        mttkrp_1step(&pool, &x, &refs, case.n, &mut got);
        assert!(close(&got, &want), "1-step par; {tag}");

        got.fill(f64::NAN);
        mttkrp_explicit(&pool, &x, &refs, case.n, &mut got);
        assert!(close(&got, &want), "explicit baseline; {tag}");

        got.fill(f64::NAN);
        mttkrp_auto(&pool, &x, &refs, case.n, &mut got);
        assert!(close(&got, &want), "auto dispatch; {tag}");

        if case.n > 0 && case.n < case.dims.len() - 1 {
            for side in [TwoStepSide::Auto, TwoStepSide::Left, TwoStepSide::Right] {
                got.fill(f64::NAN);
                mttkrp_2step_timed(&pool, &x, &refs, case.n, &mut got, side);
                assert!(close(&got, &want), "2-step {side:?}; {tag}");
            }
        }
    }
}

/// The 1-step and 2-step algorithms are exact reformulations of the
/// same sum, grouped differently. At f64 they must agree to 1e-12; at
/// f32 (where the partials round differently per algorithm) to 1e-5 —
/// on every internal mode and over several team sizes.
#[test]
fn one_step_and_two_step_agree_at_both_precisions() {
    fn run<S: Scalar>(tol: f64) {
        let mut rng = Rng64::seed_from_u64(0xA62E_0006);
        for dims in [vec![6usize, 5, 4], vec![4, 3, 5, 3], vec![3, 2, 4, 2, 3]] {
            let total: usize = dims.iter().product();
            let c = 4;
            let x = DenseTensor::<S>::from_vec(
                &dims,
                (0..total)
                    .map(|_| S::from_f64(rng.next_f64() - 0.5))
                    .collect(),
            );
            let factors: Vec<Vec<S>> = dims
                .iter()
                .map(|&d| {
                    (0..d * c)
                        .map(|_| S::from_f64(rng.next_f64() - 0.5))
                        .collect()
                })
                .collect();
            let refs: Vec<MatRef<S>> = factors
                .iter()
                .zip(&dims)
                .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
                .collect();
            for t in [1usize, 2, 5] {
                let pool = ThreadPool::new(t);
                for n in 1..dims.len() - 1 {
                    let mut one = vec![S::ZERO; dims[n] * c];
                    mttkrp_1step(&pool, &x, &refs, n, &mut one);
                    let mut two = vec![S::ZERO; dims[n] * c];
                    mttkrp_2step_timed(&pool, &x, &refs, n, &mut two, TwoStepSide::Auto);
                    for (a, b) in two.iter().zip(&one) {
                        let (a, b) = (a.to_f64(), b.to_f64());
                        assert!(
                            (a - b).abs() <= tol * (1.0 + b.abs()),
                            "{} dims {dims:?} t={t} n={n}: 2-step {a} vs 1-step {b}",
                            S::DTYPE
                        );
                    }
                }
            }
        }
    }
    run::<f64>(1e-12);
    run::<f32>(1e-5);
}

/// f32 storage with f64 accumulators: every planned f32 algorithm must
/// track the f64 oracle of the *same rounded inputs* to ≈1e-5 relative
/// — the error of storing operands in binary32, not of accumulating in
/// it (a pure-f32 summation over these reduction lengths would drift
/// well past this bound).
#[test]
fn f32_planned_mttkrp_tracks_f64_oracle_all_modes() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0007);
    for dims in [vec![9usize, 6, 8], vec![5, 4, 6, 4]] {
        let total: usize = dims.iter().product();
        let c = 5;
        // Draw in f64, narrow once; the oracle runs on the narrowed
        // values widened back, so both precisions see identical inputs.
        let vals: Vec<f64> = (0..total).map(|_| rng.next_f64() - 0.5).collect();
        let x32 = DenseTensor::<f32>::from_vec(&dims, vals.iter().map(|&v| v as f32).collect());
        let x64 =
            DenseTensor::<f64>::from_vec(&dims, x32.data().iter().map(|&v| v as f64).collect());
        let f32s: Vec<Vec<f32>> = dims
            .iter()
            .map(|&d| (0..d * c).map(|_| (rng.next_f64() - 0.5) as f32).collect())
            .collect();
        let f64s: Vec<Vec<f64>> = f32s
            .iter()
            .map(|f| f.iter().map(|&v| v as f64).collect())
            .collect();
        let refs32: Vec<MatRef<f32>> = f32s
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        let refs64: Vec<MatRef<f64>> = f64s
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        for t in [1usize, 3] {
            let pool = ThreadPool::new(t);
            for n in 0..dims.len() {
                let mut want = vec![0.0f64; dims[n] * c];
                mttkrp_oracle(&x64, &refs64, n, &mut want);
                for choice in [
                    AlgoChoice::Heuristic,
                    AlgoChoice::OneStep,
                    AlgoChoice::TwoStep(TwoStepSide::Auto),
                ] {
                    let mut plan = MttkrpPlan::<f32>::new(&pool, &dims, c, n, choice);
                    let mut got = vec![f32::NAN; dims[n] * c];
                    plan.execute(&pool, &x32, &refs32, &mut got);
                    for (a, b) in got.iter().zip(&want) {
                        let a = *a as f64;
                        assert!(
                            (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                            "dims {dims:?} t={t} n={n} {choice:?}: f32 {a} vs f64 oracle {b}"
                        );
                    }
                }
            }
        }
    }
}

/// CP-ALS in f32 storage follows the f64 run's fit trajectory from the
/// same (rounded) init to ≈1e-5 per iteration: the Gram/pinv/fit
/// chain stays f64, so only factor storage rounds.
#[test]
fn f32_cp_als_fit_trajectory_tracks_f64() {
    let dims = [8usize, 7, 6];
    let rank = 3;
    let pool = ThreadPool::new(2);
    let x64 = KruskalModel::<f64>::random(&dims, rank, 0xF17).to_dense();
    let x32 = x64.cast::<f32>();
    // Same init, rounded the same way the tensor was.
    let init64 = KruskalModel::<f64>::random(&dims, rank, 21);
    let init32 = init64.cast::<f32>();
    let opts = CpAlsOptions {
        max_iters: 10,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    let (_, rep64) = cp_als(&pool, &x64, init64, &opts);
    let (_, rep32) = cp_als(&pool, &x32, init32, &opts);
    assert_eq!(rep64.iters, rep32.iters);
    for (i, (a, b)) in rep32.fits.iter().zip(&rep64.fits).enumerate() {
        assert!(
            (a - b).abs() <= 1e-5,
            "iter {i}: f32 fit {a} vs f64 fit {b}"
        );
    }
}

/// Sparse MTTKRP on a sparsified tensor must agree with dense MTTKRP
/// on its densification to 1e-12 — the kernels walk the same nonzeros,
/// only the summation order differs — across every mode and team size,
/// for 3rd- and 4th-order tensors.
#[test]
fn sparse_csf_agrees_with_densified_dense_all_modes() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0003);
    for dims in [
        vec![6usize, 5, 4],
        vec![9, 3, 7],
        vec![5, 4, 3, 3],
        vec![4, 6, 2, 5],
    ] {
        let total: usize = dims.iter().product();
        let coo = random_sparse(&dims, total / 3, rng.next_u64());
        let csf = CsfTensor::from_coo(&coo);
        let dense = coo.to_dense();
        let c = 4;
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
            .collect();
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();
        for t in [1usize, 2, 3, 7] {
            let pool = ThreadPool::new(t);
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                let mut plan = MttkrpPlan::new(&pool, &dims, c, n, AlgoChoice::Heuristic);
                plan.execute(&pool, &dense, &refs, &mut want);
                let mut got = vec![f64::NAN; dims[n] * c];
                let mut splan = SparseMttkrpPlan::new(&pool, &csf, c, n);
                splan.execute(&pool, &csf, &refs, &mut got);
                for (a, b) in got.iter().zip(&want) {
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                        "dims {dims:?} t={t} n={n}: sparse {a} vs dense {b}"
                    );
                }
            }
        }
    }
}

/// The sparse kernel partitions fibers differently per team size, so
/// bitwise equality across thread counts is not guaranteed — but the
/// 1e-12 window against the 1-thread result must hold.
#[test]
fn sparse_thread_count_does_not_change_results() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0004);
    let dims = vec![8usize, 6, 5, 4];
    let total: usize = dims.iter().product();
    let coo = random_sparse(&dims, total / 4, rng.next_u64());
    let csf = CsfTensor::from_coo(&coo);
    let c = 3;
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
        .collect();
    for n in 0..dims.len() {
        let mut reference = vec![0.0; dims[n] * c];
        SparseMttkrpPlan::new(&ThreadPool::new(1), &csf, c, n).execute(
            &ThreadPool::new(1),
            &csf,
            &refs,
            &mut reference,
        );
        for t in [2usize, 4, 9] {
            let pool = ThreadPool::new(t);
            let mut got = vec![f64::NAN; dims[n] * c];
            SparseMttkrpPlan::new(&pool, &csf, c, n).execute(&pool, &csf, &refs, &mut got);
            for (a, b) in got.iter().zip(&reference) {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "n={n} t={t}: {a} vs {b}"
                );
            }
        }
    }
}

/// Out-of-core streaming MTTKRP is the same arithmetic as the in-core
/// planned kernels, tile by tile, so it must agree to 1e-12 on every
/// mode — across ragged/prime shapes (tile extents that do not divide
/// the dims), 3rd- and 4th-order tensors, and team sizes 1/2/4.
#[test]
fn ooc_streaming_mttkrp_agrees_with_in_core_all_modes() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0005);
    // (dims, tile): prime dims with non-dividing prime tile extents,
    // extents of 1, and oversized extents (clamped to the mode).
    let cases: [(&[usize], &[usize]); 4] = [
        (&[7, 5, 3], &[3, 2, 2]),
        (&[11, 4, 6], &[5, 4, 1]),
        (&[5, 3, 2, 4], &[2, 2, 2, 3]),
        (&[6, 7, 5, 3], &[6, 3, 9, 2]),
    ];
    for (dims, tile) in cases {
        let total: usize = dims.iter().product();
        let x = DenseTensor::from_vec(dims, (0..total).map(|_| rng.next_f64() - 0.5).collect());
        let c = 4;
        let factors: Vec<Vec<f64>> = dims
            .iter()
            .map(|&d| (0..d * c).map(|_| rng.next_f64() - 0.5).collect())
            .collect();
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, c, Layout::RowMajor))
            .collect();

        let path = std::env::temp_dir().join(format!(
            "mttkrp_agree_ooc_{}_{total}.mttb",
            std::process::id()
        ));
        let layout = TiledLayout::new(dims, tile);
        assert!(layout.ntiles() > 1, "dims {dims:?}: want a multi-tile grid");
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let ooc = OocTensor::from_store(store).unwrap();

        for t in [1usize, 2, 4] {
            let pool = ThreadPool::new(t);
            let mut dense_plans =
                MttkrpBackend::plan_modes(&x, &pool, c, Some(AlgoChoice::Heuristic));
            let mut ooc_plans = ooc.plan_modes(&pool, c, Some(AlgoChoice::Heuristic));
            for n in 0..dims.len() {
                let mut want = vec![0.0; dims[n] * c];
                x.mttkrp_planned(&mut dense_plans, &pool, &refs, n, &mut want);
                let mut got = vec![f64::NAN; dims[n] * c];
                ooc.mttkrp_planned(&mut ooc_plans, &pool, &refs, n, &mut got);
                for (a, b) in got.iter().zip(&want) {
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                        "dims {dims:?} t={t} n={n}: ooc {a} vs in-core {b}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// CP-ALS over the out-of-core backend must track the in-core run from
/// the same init to 1e-12 in fit, iteration for iteration — the sweeps
/// perform the same updates, only the MTTKRP streams from disk.
#[test]
fn ooc_cp_als_matches_in_core_fit() {
    for (dims, tile, t) in [
        (vec![7usize, 6, 5], vec![3usize, 4, 2], 1usize),
        (vec![5, 4, 3, 3], vec![2, 3, 2, 2], 2),
        (vec![9, 5, 7], vec![4, 5, 3], 4),
    ] {
        let rank = 3;
        let x = KruskalModel::random(&dims, rank, 0xCAFE).to_dense();
        let path = std::env::temp_dir().join(format!(
            "mttkrp_agree_ooc_cp_{}_{}.mttb",
            std::process::id(),
            dims.len() * 100 + t
        ));
        let layout = TiledLayout::new(&dims, &tile);
        let store = TileStore::write_dense(&path, &layout, &x).unwrap();
        let ooc = OocTensor::from_store(store).unwrap();

        let pool = ThreadPool::new(t);
        let opts = CpAlsOptions {
            max_iters: 12,
            tol: 0.0,
            strategy: MttkrpStrategy::Auto,
        };
        let init = KruskalModel::random(&dims, rank, 7);
        let (_, dense_report) = cp_als(&pool, &x, init.clone(), &opts);
        let (_, ooc_report) = cp_als(&pool, &ooc, init, &opts);
        std::fs::remove_file(&path).ok();

        assert_eq!(dense_report.iters, ooc_report.iters);
        for (i, (a, b)) in ooc_report.fits.iter().zip(&dense_report.fits).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12,
                "dims {dims:?} t={t} iter {i}: ooc fit {a} vs in-core {b}"
            );
        }
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let mut rng = Rng64::seed_from_u64(0xA62E_0002);
    for case_idx in 0..24 {
        let order = rng.usize_in(3, 5);
        let dims: Vec<usize> = (0..order).map(|_| rng.usize_in(2, 6)).collect();
        let case = Case {
            dims: dims.clone(),
            c: 3,
            n: 1,
            threads: 1,
        };
        let (x, factors) = build(&mut rng, &case);
        let refs: Vec<MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| MatRef::from_slice(f, d, 3, Layout::RowMajor))
            .collect();
        let mut reference = vec![0.0; dims[1] * 3];
        mttkrp_1step(&ThreadPool::new(1), &x, &refs, 1, &mut reference);
        for t in [2usize, 3, 7] {
            let mut got = vec![0.0; dims[1] * 3];
            mttkrp_1step(&ThreadPool::new(t), &x, &refs, 1, &mut got);
            assert!(close(&got, &reference), "case {case_idx}: t = {t}");
        }
    }
}
