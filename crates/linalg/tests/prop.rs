//! Randomized-property tests for the dense factorizations: random
//! well-conditioned and rank-deficient inputs, Penrose conditions,
//! solver recovery, cross-checks between the blocked production paths
//! and the Jacobi/scalar oracles. Cases come from a fixed-seed stream.

use mttkrp_blas::{kernels, Layout, MatMut, MatRef};
use mttkrp_linalg::{
    cholesky_in_place, cholesky_solve_in_place, jacobi_eigh, sym_evd, sym_pinv, GramSolver,
    SolvePolicy,
};
use mttkrp_rng::Rng64;

fn matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for j in 0..n {
        for p in 0..n {
            let bpj = b[p + j * n];
            for i in 0..n {
                c[i + j * n] += a[i + p * n] * bpj;
            }
        }
    }
    c
}

fn rand_mat(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n * n).map(|_| rng.next_f64() - 0.5).collect()
}

/// SPD matrix `B·Bᵀ + n·I`.
fn spd(rng: &mut Rng64, n: usize) -> Vec<f64> {
    let b = rand_mat(rng, n);
    let mut bt = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            bt[i + j * n] = b[j + i * n];
        }
    }
    let mut a = matmul(&b, &bt, n);
    for i in 0..n {
        a[i + i * n] += n as f64;
    }
    a
}

/// Rank-`r` symmetric PSD matrix `B_r · B_rᵀ` (B_r is n × r).
fn psd_rank(rng: &mut Rng64, n: usize, r: usize) -> Vec<f64> {
    let b = rand_mat(rng, n); // take first r columns
    let mut a = vec![0.0; n * n];
    for p in 0..r {
        for i in 0..n {
            for j in 0..n {
                a[i + j * n] += b[i + p * n] * b[j + p * n];
            }
        }
    }
    a
}

#[test]
fn cholesky_solves_spd_systems() {
    let mut rng = Rng64::seed_from_u64(0x11A6_0002);
    for case in 0..48 {
        let n = rng.usize_in(1, 12);
        let a = spd(&mut rng, n);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 0.25).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[i + j * n] * x_true[j];
            }
        }
        let mut l = a.clone();
        cholesky_in_place(MatMut::from_slice(&mut l, n, n, Layout::ColMajor)).unwrap();
        cholesky_solve_in_place(
            MatRef::from_slice(&l, n, n, Layout::ColMajor),
            MatMut::from_slice(&mut b, n, 1, Layout::ColMajor),
        );
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "case {case}: n={n}");
        }
    }
}

#[test]
fn jacobi_eigenvalues_match_trace_and_norm() {
    let mut rng = Rng64::seed_from_u64(0x11A6_0003);
    for case in 0..48 {
        // Σλ = trace(A), Σλ² = ‖A‖²_F for symmetric A.
        let n = rng.usize_in(1, 10);
        let b = rand_mat(&mut rng, n);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i + j * n] = 0.5 * (b[i + j * n] + b[j + i * n]);
            }
        }
        let trace: f64 = (0..n).map(|i| a[i + i * n]).sum();
        let frob2: f64 = a.iter().map(|x| x * x).sum();
        let (w, _) = jacobi_eigh(&mut a.clone(), n).unwrap();
        let sum: f64 = w.iter().sum();
        let sum2: f64 = w.iter().map(|x| x * x).sum();
        assert!(
            (sum - trace).abs() < 1e-8 * (1.0 + trace.abs()),
            "case {case}: n={n}"
        );
        assert!(
            (sum2 - frob2).abs() < 1e-8 * (1.0 + frob2),
            "case {case}: n={n}"
        );
    }
}

#[test]
fn evd_eigenvalues_match_jacobi_oracle() {
    let mut rng = Rng64::seed_from_u64(0x11A6_0005);
    for case in 0..32 {
        let n = rng.usize_in(1, 14);
        let b = rand_mat(&mut rng, n);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i + j * n] = 0.5 * (b[i + j * n] + b[j + i * n]);
            }
        }
        let (w, _) = sym_evd(&a, n).unwrap();
        let (mut wj, _) = jacobi_eigh(&mut a.clone(), n).unwrap();
        wj.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (got, want) in w.iter().zip(&wj) {
            assert!(
                (got - want).abs() < 1e-10 * (1.0 + want.abs()),
                "case {case}: n={n}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn blocked_cholesky_matches_oracle_inverse() {
    // GramSolver's Cholesky rung against the Jacobi pseudoinverse on
    // well-conditioned SPD input — the blocked kernels, triangular
    // solves, and condition gate all sit on this path.
    let mut rng = Rng64::seed_from_u64(0x11A6_0006);
    let mut solver = GramSolver::<f64>::new();
    for case in 0..24 {
        let n = rng.usize_in(1, 60);
        let a = spd(&mut rng, n);
        let mut got = vec![0.0; n * n];
        solver.pinv_into(&a, n, 0.0, &mut got).unwrap();
        let want = sym_pinv(&a, n, 0.0).unwrap();
        for (x, y) in got.iter().zip(&want) {
            assert!(
                (x - y).abs() < 1e-10 * (1.0 + y.abs()),
                "case {case}: n={n}"
            );
        }
    }
}

#[test]
fn pinv_satisfies_penrose_conditions() {
    let mut rng = Rng64::seed_from_u64(0x11A6_0004);
    for case in 0..48 {
        let n = rng.usize_in(2, 9);
        let r = rng.usize_in(1, n + 1);
        let a = psd_rank(&mut rng, n, r);
        let p = sym_pinv(&a, n, 0.0).unwrap();
        // 1) A P A = A, 2) P A P = P, 3/4) symmetry of A·P and P·A.
        let ap = matmul(&a, &p, n);
        let apa = matmul(&ap, &a, n);
        let pap = matmul(&p, &ap, n);
        let scale = a.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
        let pnorm = p.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
        // Random PSD matrices can be arbitrarily ill-conditioned near the
        // rank cutoff; the achievable residual grows with ‖P‖·‖A‖.
        let kappa = 1.0 + pnorm * scale;
        for i in 0..n * n {
            assert!(
                (apa[i] - a[i]).abs() < 1e-8 * scale * kappa,
                "case {case}: APA=A failed"
            );
            assert!(
                (pap[i] - p[i]).abs() < 1e-8 * pnorm * kappa,
                "case {case}: PAP=P failed"
            );
        }
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (ap[i + j * n] - ap[j + i * n]).abs() < 1e-8 * scale * kappa,
                    "case {case}: AP not symmetric"
                );
            }
        }
    }
}

#[test]
fn escalation_pinv_satisfies_penrose_on_rank_deficient_input() {
    // Same Penrose battery, but through the Auto escalation ladder —
    // rank-deficient inputs must land on the EVD rung and still
    // produce a Moore–Penrose inverse.
    let mut rng = Rng64::seed_from_u64(0x11A6_0007);
    let mut solver = GramSolver::<f64>::new();
    for case in 0..32 {
        let n = rng.usize_in(2, 9);
        let r = rng.usize_in(1, n); // strictly deficient
        let a = psd_rank(&mut rng, n, r);
        let mut p = vec![0.0; n * n];
        solver.pinv_into(&a, n, 0.0, &mut p).unwrap();
        let ap = matmul(&a, &p, n);
        let apa = matmul(&ap, &a, n);
        let scale = a.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
        let pnorm = p.iter().map(|x| x.abs()).fold(0.0f64, f64::max).max(1.0);
        let kappa = 1.0 + pnorm * scale;
        for i in 0..n * n {
            assert!(
                (apa[i] - a[i]).abs() < 1e-8 * scale * kappa,
                "case {case}: APA=A failed"
            );
        }
    }
}

#[test]
fn forced_policies_agree_with_oracle_on_spd_input() {
    let mut rng = Rng64::seed_from_u64(0x11A6_0008);
    for case in 0..12 {
        let n = rng.usize_in(2, 24);
        let a = spd(&mut rng, n);
        let want = sym_pinv(&a, n, 0.0).unwrap();
        for policy in [
            SolvePolicy::ForceCholesky,
            SolvePolicy::ForceLdlt,
            SolvePolicy::ForceEvd,
            SolvePolicy::ForceJacobi,
        ] {
            let mut got = vec![0.0; n * n];
            GramSolver::<f64>::with_policy(policy)
                .pinv_into(&a, n, 0.0, &mut got)
                .unwrap();
            for (x, y) in got.iter().zip(&want) {
                assert!(
                    (x - y).abs() < 1e-10 * (1.0 + y.abs()),
                    "case {case}: n={n} policy {policy:?}"
                );
            }
        }
    }
}

#[test]
fn blocked_cholesky_handles_transposed_views() {
    // Factor the same SPD matrix through a transposed row-major view:
    // the strided code path must agree with the plain one.
    let mut rng = Rng64::seed_from_u64(0x11A6_0009);
    let n = 40;
    let a = spd(&mut rng, n); // symmetric, so Aᵀ = A
    let mut plain = a.clone();
    cholesky_in_place(MatMut::from_slice(&mut plain, n, n, Layout::ColMajor)).unwrap();
    let mut via_t = a.clone();
    let ks = kernels::<f64>();
    mttkrp_linalg::cholesky_in_place_with(
        ks,
        MatMut::from_slice(&mut via_t, n, n, Layout::RowMajor).t(),
        16,
    )
    .unwrap();
    for j in 0..n {
        for i in j..n {
            // plain is col-major; via_t's transposed view maps (i,j) to
            // row-major storage transposed, i.e. the same linear slot.
            let x = plain[i + j * n];
            let y = via_t[j * n + i];
            assert!((x - y).abs() < 1e-12, "({i},{j})");
        }
    }
}
