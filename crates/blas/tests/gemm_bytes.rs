//! The `blas.gemm_bytes.<tier>` counter prices what the blocked GEMM
//! moves: with `β = 0` it writes `C` once without reading it, with any
//! other `β` it reads and writes `C`.
//!
//! The counters are process-wide, so this check lives in its own test
//! binary: no other test can run a GEMM between the two reads.

use mttkrp_blas::{gemm_with, kernels, Layout, MatMut, MatRef};

#[test]
fn blocked_gemm_counts_c_once_for_beta_zero_and_twice_otherwise() {
    mttkrp_obs::set_metrics_enabled(true);
    let ks = kernels::<f64>();
    let name = format!("blas.gemm_bytes.{}", ks.tier().name());
    let counter = mttkrp_obs::registry().counter(&name);
    // m·n·k is far above the small-problem cutoff: the packed path.
    let (m, n, k) = (300, 25, 600);
    let a = vec![0.5; m * k];
    let b = vec![0.25; k * n];
    let mut c = vec![0.0; m * n];
    let mut bytes_of = |beta: f64| {
        let before = counter.value();
        gemm_with(
            ks,
            1.0,
            MatRef::from_slice(&a, m, k, Layout::ColMajor),
            MatRef::from_slice(&b, k, n, Layout::RowMajor),
            beta,
            MatMut::from_slice(&mut c, m, n, Layout::RowMajor),
        );
        counter.value() - before
    };
    let operands = (m * k + k * n) * 8;
    assert_eq!(bytes_of(0.0), (operands + m * n * 8) as u64, "β = 0");
    assert_eq!(bytes_of(1.0), (operands + 2 * m * n * 8) as u64, "β = 1");
}
