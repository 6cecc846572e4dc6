//! Calibration microbenchmarks.
//!
//! Each function measures one machine-model coefficient on the live
//! host, using the shared `mttkrp-bench` timer
//! ([`mttkrp_bench::sample_min`]: one warm-up, then best-of-N — the
//! least-noise estimator for throughput measurements) over the same
//! kernels the real plans execute: `gemm_with` register tiles, the
//! dispatched Hadamard row kernel, `par_stream_scale`, and
//! `reduce::sum_into`. Fixture sizes come in two flavors — `quick`
//! keeps every measurement in the low-millisecond range for tests and
//! CI, the default sizes are large enough to stream past the last-level
//! cache on ordinary hosts.

use mttkrp_bench::sample_min;
use mttkrp_blas::{gemm_with, stream::measure_scale_bandwidth, KernelSet, Layout, MatMut, MatRef};
use mttkrp_parallel::{reduce, ThreadPool};

/// Measurement repetitions per microbenchmark.
const TRIALS: usize = 5;

/// Rank-like row width used by the Hadamard benchmark (the paper's
/// C = 25).
const HADAMARD_COLS: usize = 25;

/// Measured STREAM Scale bandwidth (bytes/s) at `threads` threads.
pub fn stream_bandwidth(pool: &ThreadPool, quick: bool) -> f64 {
    let elems = if quick { 1 << 16 } else { 1 << 21 };
    measure_scale_bandwidth(pool, elems, TRIALS)
}

/// Measured sequential GEMM rate (flops/s) of `ks`'s register-tiled
/// microkernel at a square, cache-friendly shape.
pub fn gemm_flops(ks: &KernelSet, quick: bool) -> f64 {
    let n = if quick { 96 } else { 384 };
    let a = vec![1.0f64; n * n];
    let b = vec![0.5f64; n * n];
    let mut c = vec![0.0f64; n * n];
    let av = MatRef::from_slice(&a, n, n, Layout::ColMajor);
    let bv = MatRef::from_slice(&b, n, n, Layout::ColMajor);
    let dt = sample_min(TRIALS, || {
        gemm_with(
            ks,
            1.0,
            av,
            bv,
            0.0,
            MatMut::from_slice(&mut c, n, n, Layout::ColMajor),
        );
    });
    std::hint::black_box(&c);
    2.0 * (n as f64).powi(3) / dt
}

/// Measured per-element cost (seconds) of one dispatched Hadamard row
/// pass — the coefficient the KRP predictor scales by rows × C ×
/// passes.
pub fn hadamard_cost(ks: &KernelSet, quick: bool) -> f64 {
    let rows = if quick { 1 << 11 } else { 1 << 15 };
    let c = HADAMARD_COLS;
    let src: Vec<f64> = (0..rows * c).map(|i| 1.0 + (i % 7) as f64).collect();
    let scale = vec![0.5f64; c];
    let mut dst = vec![0.0f64; rows * c];
    let dt = sample_min(TRIALS, || {
        for (out, row) in dst.chunks_exact_mut(c).zip(src.chunks_exact(c)) {
            (ks.hadamard)(&scale, row, out);
        }
    });
    std::hint::black_box(&dst);
    dt / (rows * c) as f64
}

/// Measured throughput of the parallel element-range reduction
/// merging `parts` private buffers on `pool`, as a fraction of
/// `expected_bw` (the fitted `BW(T)` of the same team). This is the
/// machine model's `reduce_scale`: 1 means the reduction streams at
/// full bandwidth, lower values capture barrier and scheduling
/// overhead the roofline alone misses.
pub fn reduce_scale(pool: &ThreadPool, parts: usize, expected_bw: f64, quick: bool) -> f64 {
    if parts <= 1 || expected_bw <= 0.0 {
        return 1.0;
    }
    let elems = if quick { 1 << 13 } else { 1 << 17 };
    let bufs: Vec<Vec<f64>> = (0..parts).map(|k| vec![k as f64 + 0.5; elems]).collect();
    let views: Vec<&[f64]> = bufs.iter().map(|b| b.as_slice()).collect();
    let mut out = vec![0.0f64; elems];
    let dt = sample_min(TRIALS, || {
        out.fill(0.0);
        reduce::sum_into(pool, &mut out, &views);
    });
    std::hint::black_box(&out);
    // The model charges (parts + 1) · 8 bytes per output element: each
    // element is read from every private buffer and written once (the
    // `fill` is charged as the write's RFO half).
    let bytes = (elems * 8 * (parts + 1)) as f64;
    ((bytes / dt) / expected_bw).clamp(0.05, 2.0)
}

/// Fit the bandwidth-saturation parameter θ of
/// `BW(T) = bw1·T/(1+(T−1)/θ)` from `(threads, bandwidth)`
/// measurements. `bw1` is the single-thread point; each multi-thread
/// point solves for its implied θ and the median is returned (robust
/// to one noisy ladder rung). Falls back to the paper machine's θ = 12
/// when no multi-thread point constrains the fit (single-core hosts).
pub fn fit_bw_theta(bw1: f64, points: &[(usize, f64)]) -> f64 {
    let mut thetas: Vec<f64> = points
        .iter()
        .filter(|&&(t, bw)| t > 1 && bw > 0.0)
        .filter_map(|&(t, bw)| {
            let ratio = bw1 * t as f64 / bw; // = 1 + (t−1)/θ
            (ratio > 1.0 + 1e-9).then(|| (t as f64 - 1.0) / (ratio - 1.0))
        })
        .collect();
    if thetas.is_empty() {
        return 12.0;
    }
    thetas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    thetas[thetas.len() / 2].clamp(0.5, 256.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_blas::kernels;

    #[test]
    fn microbenchmarks_return_positive_finite_rates() {
        let pool = ThreadPool::new(1);
        let ks = *kernels();
        let bw = stream_bandwidth(&pool, true);
        assert!(bw.is_finite() && bw > 0.0);
        let gf = gemm_flops(&ks, true);
        assert!(gf.is_finite() && gf > 0.0);
        let h = hadamard_cost(&ks, true);
        assert!(h.is_finite() && h > 0.0 && h < 1e-3);
    }

    #[test]
    fn reduce_scale_is_clamped_and_degenerate_safe() {
        let pool = ThreadPool::new(2);
        let s = reduce_scale(&pool, 2, 1.0e10, true);
        assert!((0.05..=2.0).contains(&s));
        assert_eq!(reduce_scale(&pool, 1, 1.0e10, true), 1.0);
        assert_eq!(reduce_scale(&pool, 4, 0.0, true), 1.0);
    }

    #[test]
    fn theta_fit_recovers_the_generating_curve() {
        let bw1 = 6.0e9;
        let theta = 8.0;
        let points: Vec<(usize, f64)> = (1..=8)
            .map(|t| {
                let tf = t as f64;
                (t, bw1 * tf / (1.0 + (tf - 1.0) / theta))
            })
            .collect();
        let fit = fit_bw_theta(bw1, &points);
        assert!((fit - theta).abs() < 1e-6, "fit {fit}");
    }

    #[test]
    fn theta_fit_falls_back_without_multithread_points() {
        assert_eq!(fit_bw_theta(5.0e9, &[(1, 5.0e9)]), 12.0);
        // Superlinear noise (bw > bw1·t) yields no constraint either.
        assert_eq!(fit_bw_theta(5.0e9, &[(1, 5.0e9), (2, 1.2e10)]), 12.0);
    }
}
