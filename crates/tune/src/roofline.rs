//! The model-aware bridge from measured executions to the roofline
//! attribution report.
//!
//! `mttkrp_obs::roofline` is deliberately data-driven: it attributes
//! whatever [`PhaseSample`]s it is handed and knows nothing about
//! MTTKRP. This module is the part that *does* know — it owns the
//! per-phase traffic model (bytes and flops each [`Breakdown`] phase
//! moves for a given shape) and the roof model (the calibrated
//! profile's `BW(T)` fit and per-tier kernel rates), and folds one
//! [`ModeRun`] per executed mode into a [`PerfReport`]:
//!
//! * KRP phases write `rows·C` Hadamard-combined elements (write +
//!   read-for-ownership traffic) against the `hadamard_cost` rate; a
//!   2-step mode forms only its GEMM side's KRP (`IL_n` rows on the
//!   left, `IR_n` on the right);
//! * GEMM uses the measured `blas.gemm_bytes.<tier>` counter when the
//!   caller snapshotted it (falling back to the analytic operand
//!   traffic) against the tier's `gemm_flops / gemm_eff0` peak;
//! * the multi-TTV and reduction phases stream
//!   tensor-sized or output-sized traffic against `BW(T)` (the
//!   reduction against `BW(T)·reduce_scale`).
//!
//! The same runs feed a [`ChoiceLog`] seeded with the profile's
//! `calib_err` baseline, so a stale profile surfaces as the
//! "recalibrate" drift advisory on the report itself.

use mttkrp_blas::KernelTier;
use mttkrp_core::{Breakdown, ChoiceLog, ChoiceRecord, ModeCost, PlannedAlgo};
use mttkrp_obs::{PerfReport, PhaseSample};

use crate::profile::TuningProfile;

/// One executed (and timed) mode, as the harness or a CP-ALS driver
/// observed it: the resolved algorithm, the accumulated per-phase
/// breakdown, and optionally the model's prediction and the measured
/// GEMM byte counter over the same interval.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// The MTTKRP mode that ran.
    pub mode: usize,
    /// The kernel the plan resolved to.
    pub algo: PlannedAlgo,
    /// The cost model's per-algorithm prediction for this mode, when
    /// the plan was built from one (feeds drift detection).
    pub predicted: Option<ModeCost>,
    /// How many executions `breakdown` accumulates (≥ 1).
    pub runs: usize,
    /// Per-phase seconds summed over all `runs` executions.
    pub breakdown: Breakdown,
    /// Measured `blas.gemm_bytes.<tier>` delta over the same interval,
    /// when the caller snapshotted the counter (requires metrics to be
    /// enabled); `None` falls back to the analytic operand traffic.
    pub gemm_bytes: Option<f64>,
}

/// Shape-derived sizes shared by every phase model.
struct Shape {
    total: f64,
    rows: f64,
    other: f64,
    il: f64,
    ir: f64,
    c: f64,
    s: f64,
    t: f64,
}

impl Shape {
    fn new(dims: &[usize], mode: usize, rank: usize, threads: usize, elem_bytes: usize) -> Shape {
        let total: f64 = dims.iter().map(|&d| d as f64).product();
        let rows = dims.get(mode).copied().unwrap_or(1) as f64;
        let il: f64 = dims[..mode.min(dims.len())]
            .iter()
            .map(|&d| d as f64)
            .product();
        let ir: f64 = dims[(mode + 1).min(dims.len())..]
            .iter()
            .map(|&d| d as f64)
            .product();
        Shape {
            total,
            rows,
            other: total / rows.max(1.0),
            il,
            ir,
            c: rank as f64,
            s: elem_bytes as f64,
            t: threads as f64,
        }
    }
}

/// Build the attributed [`PerfReport`] for `runs` against the
/// **installed** profile (the one actually pricing plans in this
/// process). `None` when no profile is installed — callers fall back
/// to a hint to run `tensorcp tune`.
pub fn perf_report(
    dims: &[usize],
    rank: usize,
    threads: usize,
    elem_bytes: usize,
    tier: KernelTier,
    runs: &[ModeRun],
) -> Option<PerfReport> {
    crate::installed_profile()
        .map(|p| perf_report_with(p, dims, rank, threads, elem_bytes, tier, runs))
}

/// Build the attributed [`PerfReport`] for `runs` against an explicit
/// `profile` (what [`perf_report`] does with the installed one).
///
/// Every phase with recorded time in a run's breakdown becomes one
/// attributed [`PhaseSample`]; the runs also replay through a
/// [`ChoiceLog`] seeded with the profile's `calib_err` so sustained
/// prediction error surfaces as the drift advisory on the report.
pub fn perf_report_with(
    profile: &TuningProfile,
    dims: &[usize],
    rank: usize,
    threads: usize,
    elem_bytes: usize,
    tier: KernelTier,
    runs: &[ModeRun],
) -> PerfReport {
    let m = profile.machine_for(tier);
    let bw = m.bw(threads.max(1));
    let peak = threads.max(1) as f64 * m.peak_flops_core;

    let mut report = PerfReport::new();
    report.set_context(
        "dims",
        dims.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x"),
    );
    report.set_context("rank", rank.to_string());
    report.set_context("threads", threads.to_string());
    report.set_context("tier", tier.name());
    report.set_context("elem_bytes", elem_bytes.to_string());
    report.set_context("bw_roof_gb_per_s", format!("{:.2}", bw / 1e9));
    report.set_context(
        "gemm_roof_gflop_per_s",
        format!("{:.2}", peak * m.gemm_eff0 / 1e9),
    );
    if let Some(ce) = profile.calib_err {
        report.set_context("calib_err", format!("{ce:.4}"));
    }

    let mut log = ChoiceLog::new();
    if let Some(ce) = profile.calib_err {
        log.set_baseline_error(ce);
    }

    for run in runs {
        let sh = Shape::new(dims, run.mode, rank, threads, elem_bytes);
        let reps = run.runs.max(1) as f64;
        let bd = &run.breakdown;
        let mut samples = Vec::with_capacity(7);

        // Hadamard-rate roof for the row-wise KRP kernels: one
        // combined element per `hadamard_cost` seconds per thread.
        let krp_roof = sh.t / m.hadamard_cost;
        if bd.full_krp > 0.0 {
            samples.push(PhaseSample {
                name: "full_krp".into(),
                seconds: bd.full_krp,
                bytes: reps * sh.other * sh.c * 2.0 * sh.s,
                flops: reps * sh.other * sh.c,
                bw_roof: bw,
                flop_roof: krp_roof,
            });
        }
        if bd.lr_krp > 0.0 {
            // The internal 1-step forms both partial KRPs. The 2-step
            // generates its KRP inside the partial GEMM and records
            // none; a 2-step breakdown that charges one is priced at
            // its GEMM side's rows.
            let krp_rows = match run.algo {
                PlannedAlgo::TwoStepLeft => sh.il,
                PlannedAlgo::TwoStepRight => sh.ir,
                _ => sh.il + sh.ir,
            };
            samples.push(PhaseSample {
                name: "lr_krp".into(),
                seconds: bd.lr_krp,
                bytes: reps * krp_rows * sh.c * 2.0 * sh.s,
                flops: reps * krp_rows * sh.c,
                bw_roof: bw,
                flop_roof: krp_roof,
            });
        }
        if bd.dgemm > 0.0 {
            // Operand traffic (A + B + write/RFO of C) unless the
            // caller measured the real per-call counter.
            let model_bytes = reps * (sh.total + sh.other * sh.c + 2.0 * sh.rows * sh.c) * sh.s;
            samples.push(PhaseSample {
                name: "gemm".into(),
                seconds: bd.dgemm,
                bytes: run.gemm_bytes.filter(|&b| b > 0.0).unwrap_or(model_bytes),
                flops: reps * 2.0 * sh.total * sh.c,
                bw_roof: bw,
                flop_roof: peak * m.gemm_eff0,
            });
        }
        if bd.dgemv > 0.0 {
            // Multi-TTV: streams the step-1 intermediate once per rank
            // column; GEMV sustains a fraction of the GEMM peak.
            samples.push(PhaseSample {
                name: "gemv".into(),
                seconds: bd.dgemv,
                bytes: reps * sh.total * sh.s,
                flops: reps * 2.0 * sh.total,
                bw_roof: bw,
                flop_roof: peak * 0.25,
            });
        }
        if bd.reduce > 0.0 {
            // Read T private outputs, write the merged one, at the
            // measured reduction efficiency.
            samples.push(PhaseSample {
                name: "reduce".into(),
                seconds: bd.reduce,
                bytes: reps * sh.rows * sh.c * (sh.t + 1.0) * sh.s,
                flops: reps * sh.rows * sh.c * sh.t,
                bw_roof: bw * m.reduce_scale,
                flop_roof: peak,
            });
        }
        if bd.reorder > 0.0 {
            samples.push(PhaseSample {
                name: "reorder".into(),
                seconds: bd.reorder,
                bytes: reps * 2.0 * sh.total * sh.s,
                flops: 0.0,
                bw_roof: bw,
                flop_roof: peak,
            });
        }

        report.push_mode(
            &format!("mode {}", run.mode),
            &format!("{:?}", run.algo),
            bd.total,
            &samples,
        );

        if bd.total > 0.0 {
            log.push(ChoiceRecord {
                dims: dims.to_vec(),
                rank,
                mode: run.mode,
                threads,
                algo: run.algo,
                predicted: run.predicted,
                measured: bd.total / reps,
                measured_other: None,
            });
        }
    }

    if let Some(advisory) = log.drift_advisory() {
        report.set_advisory(advisory);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TierTuning;

    fn profile() -> TuningProfile {
        TuningProfile {
            cores: 4,
            threads: 4,
            bw1: 10e9, // 10 GB/s single thread
            bw_theta: 8.0,
            reduce_scale: 0.8,
            mkl_penalty: 0.0,
            calib_err: Some(0.05),
            tiers: vec![TierTuning {
                tier: KernelTier::Scalar,
                gemm_flops: 9e9,
                gemm_eff0: 0.9,
                hadamard_cost: 1e-9,
            }],
        }
    }

    /// A mode-0 run on a 64³ cube whose phase times sit well below the
    /// synthetic roofs (so pct_of_roof lands in a sane range).
    fn run_mode0(seconds_scale: f64) -> ModeRun {
        ModeRun {
            mode: 0,
            algo: PlannedAlgo::OneStepExternal,
            predicted: None,
            runs: 1,
            breakdown: Breakdown {
                full_krp: 0.004 * seconds_scale,
                dgemm: 0.006 * seconds_scale,
                reduce: 0.001 * seconds_scale,
                total: 0.011 * seconds_scale,
                ..Default::default()
            },
            gemm_bytes: None,
        }
    }

    #[test]
    fn dense_mode0_attributes_every_timed_phase() {
        let r = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &[run_mode0(1.0)],
        );
        assert_eq!(r.modes().len(), 1);
        let m = &r.modes()[0];
        assert_eq!(m.label, "mode 0");
        assert_eq!(m.algo, "OneStepExternal");
        let names: Vec<&str> = m.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["full_krp", "gemm", "reduce"]);
        for p in &m.phases {
            assert!(p.pct_of_roof.is_finite() && p.pct_of_roof > 0.0, "{p:?}");
        }
        // Context carries the model inputs.
        let ctx = r.context();
        assert!(ctx.iter().any(|(k, v)| k == "dims" && v == "64x64x64"));
        assert!(ctx.iter().any(|(k, _)| k == "calib_err"));
        assert!(r.advisory().is_none(), "no predictions, no drift");
    }

    #[test]
    fn slow_phases_lower_pct_of_roof() {
        let fast = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &[run_mode0(1.0)],
        );
        let slow = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &[run_mode0(10.0)],
        );
        assert!(
            slow.modes()[0].pct_of_roof < fast.modes()[0].pct_of_roof / 5.0,
            "10x slower should attribute ~10x lower: fast={} slow={}",
            fast.modes()[0].pct_of_roof,
            slow.modes()[0].pct_of_roof
        );
    }

    #[test]
    fn measured_gemm_bytes_override_the_analytic_model() {
        let mut run = run_mode0(1.0);
        run.gemm_bytes = Some(123.456e6);
        let r = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &[run],
        );
        let gemm = r.modes()[0]
            .phases
            .iter()
            .find(|p| p.name == "gemm")
            .unwrap();
        let expected = 123.456e6 / gemm.seconds / 1e9;
        assert!(
            (gemm.achieved_gb_per_s - expected).abs() < 1e-9,
            "counter bytes must win: {} vs {}",
            gemm.achieved_gb_per_s,
            expected
        );
    }

    #[test]
    fn sustained_prediction_error_surfaces_the_drift_advisory() {
        // Predictions 3x off the measurement, enough samples to fill
        // the drift window past its minimum.
        let predicted = Some(ModeCost {
            one_step: 0.033,
            two_step: 0.05,
        });
        let runs: Vec<ModeRun> = (0..6)
            .map(|i| {
                let mut r = run_mode0(1.0);
                r.mode = i % 3;
                r.predicted = predicted;
                r
            })
            .collect();
        let r = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &runs,
        );
        let advisory = r.advisory().expect("3x error over 6 runs must drift");
        assert!(advisory.contains("recalibrate"), "{advisory}");
        // Accurate predictions on the same runs stay quiet.
        let good: Vec<ModeRun> = (0..6)
            .map(|i| {
                let mut r = run_mode0(1.0);
                r.mode = i % 3;
                r.predicted = Some(ModeCost {
                    one_step: 0.011,
                    two_step: 0.05,
                });
                r
            })
            .collect();
        let r = perf_report_with(
            &profile(),
            &[64, 64, 64],
            16,
            4,
            8,
            KernelTier::Scalar,
            &good,
        );
        assert!(r.advisory().is_none());
    }

    #[test]
    fn two_step_phases_use_their_own_roofs() {
        let runs = [ModeRun {
            mode: 1,
            algo: PlannedAlgo::TwoStepLeft,
            predicted: None,
            runs: 2,
            breakdown: Breakdown {
                lr_krp: 0.002,
                dgemm: 0.004,
                dgemv: 0.003,
                total: 0.009,
                ..Default::default()
            },
            gemm_bytes: None,
        }];
        let r = perf_report_with(
            &profile(),
            &[48, 48, 48],
            16,
            4,
            8,
            KernelTier::Scalar,
            &runs,
        );
        assert_eq!(r.modes().len(), 1);
        let two = &r.modes()[0];
        let names: Vec<&str> = two.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["lr_krp", "gemm", "gemv"]);
        for p in &two.phases {
            assert!(p.pct_of_roof.is_finite() && p.pct_of_roof > 0.0, "{p:?}");
        }
        // The table and envelope render end to end.
        assert!(r.table().contains("mode 1 [TwoStepLeft]"));
        assert!(r.to_json().contains("\"schema\": \"mttkrp-perf-v1\""));
    }
}
