//! Whole-host calibration: run every microbenchmark, fit the machine
//! model, assemble a [`TuningProfile`].

use mttkrp_blas::{available_tiers, KernelSet};
use mttkrp_parallel::ThreadPool;

use crate::measure;
use crate::profile::{TierTuning, TuningProfile};

/// Options for [`calibrate`].
#[derive(Debug, Clone, Default)]
pub struct CalibrateOptions {
    /// Team size for the parallel microbenchmarks (bandwidth ladder
    /// top, reduction). Defaults to the host's available parallelism.
    pub threads: Option<usize>,
    /// Shrink every fixture to the low-millisecond range. Meant for
    /// tests and CI; quick profiles are noisier but structurally
    /// identical.
    pub quick: bool,
}

/// The thread ladder the bandwidth fit samples: powers of two up to
/// `t`, always including 1 and `t` themselves.
fn thread_ladder(t: usize) -> Vec<usize> {
    let mut ladder = vec![1usize];
    let mut p = 2usize;
    while p < t {
        ladder.push(p);
        p *= 2;
    }
    if t > 1 {
        ladder.push(t);
    }
    ladder
}

/// Calibrate this host: measure the STREAM bandwidth curve over a
/// thread ladder, the sequential GEMM and Hadamard throughput of every
/// *supported* kernel tier, and the parallel-reduction efficiency;
/// fit the machine-model coefficients ([`measure::fit_bw_theta`]) and
/// return them as a persistable [`TuningProfile`].
///
/// The returned profile's `mkl_penalty` is 0: this implementation's
/// parallel GEMMs use private outputs plus a reduction, so the MKL
/// small-output stall the paper models does not occur here.
pub fn calibrate(opts: &CalibrateOptions) -> TuningProfile {
    let _span = mttkrp_obs::span!("calibrate");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = opts.threads.unwrap_or(cores).max(1);

    // Bandwidth ladder → bw1 and θ.
    let points: Vec<(usize, f64)> = {
        let _s = mttkrp_obs::span!("stream_ladder", threads = threads);
        thread_ladder(threads)
            .into_iter()
            .map(|t| {
                let pool = ThreadPool::new(t);
                (t, measure::stream_bandwidth(&pool, opts.quick))
            })
            .collect()
    };
    let bw1 = points[0].1;
    let bw_theta = measure::fit_bw_theta(bw1, &points);
    let bw_at_team = {
        let t = threads as f64;
        bw1 * t / (1.0 + (t - 1.0) / bw_theta)
    };
    // Residual of the fitted curve against the measured ladder: the
    // calibration-time noise floor that drift detection compares
    // runtime prediction error against.
    let calib_err = points
        .iter()
        .map(|&(t, measured)| {
            let t = t as f64;
            let model = bw1 * t / (1.0 + (t - 1.0) / bw_theta);
            ((model - measured) / measured).abs()
        })
        .sum::<f64>()
        / points.len() as f64;

    // Reduction efficiency at the full team.
    let reduce_scale = {
        let _s = mttkrp_obs::span!("reduce_scale");
        let pool = ThreadPool::new(threads);
        measure::reduce_scale(&pool, threads, bw_at_team, opts.quick)
    };

    // Per-tier kernel throughput.
    let tiers = available_tiers()
        .into_iter()
        .filter_map(|tier| KernelSet::for_tier(tier).map(|ks| (tier, ks)))
        .map(|(tier, ks)| {
            let _s = mttkrp_obs::span!("tier_throughput", tier = tier as usize);
            TierTuning {
                tier,
                gemm_flops: measure::gemm_flops(&ks, opts.quick),
                gemm_eff0: 0.90,
                hadamard_cost: measure::hadamard_cost(&ks, opts.quick),
            }
        })
        .collect();

    TuningProfile {
        cores,
        threads,
        bw1,
        bw_theta,
        reduce_scale,
        mkl_penalty: 0.0,
        calib_err: Some(calib_err),
        tiers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_covers_one_and_t() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn quick_calibration_yields_a_loadable_profile() {
        let p = calibrate(&CalibrateOptions {
            threads: Some(2),
            quick: true,
        });
        assert_eq!(p.threads, 2);
        assert!(!p.tiers.is_empty());
        assert!(p.bw1 > 0.0 && p.bw_theta > 0.0);
        assert_eq!(p.mkl_penalty, 0.0);
        // Fresh calibrations always record their fit residual.
        let ce = p.calib_err.expect("calib_err recorded");
        assert!(ce.is_finite() && ce >= 0.0, "calib_err {ce}");
        // The profile the calibrator emits must satisfy its own codec.
        let text = p.to_text();
        let q = TuningProfile::from_text(&text).expect("self round trip");
        assert_eq!(p, q);
        // And produce a usable machine for every measured tier.
        for t in &p.tiers {
            let m = p.machine_for(t.tier);
            assert!(m.peak_flops_core > 0.0);
            assert!(m.hadamard_cost > 0.0);
        }
    }
}
