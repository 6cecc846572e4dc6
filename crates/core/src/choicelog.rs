//! Predicted-vs-measured bookkeeping for plan algorithm choices.
//!
//! A [`crate::AlgoChoice::Predicted`] or resolved
//! [`crate::AlgoChoice::Tuned`] plan commits to the algorithm its cost
//! model priced as faster — and nothing in the hot path ever checks
//! whether the model was right. [`ChoiceLog`] makes mispredictions
//! observable: drivers append one [`ChoiceRecord`] per timed execution
//! (model's predicted seconds next to the measured wall time), and
//! sweeps that time *both* algorithms can also record the road not
//! taken, which is what turns the log into an accuracy report
//! (`mttkrp-harness --tune` prints one).
//!
//! Two quality measures fall out:
//!
//! * [`ChoiceRecord::prediction_error`] — how far off the model's
//!   absolute time was for the algorithm that actually ran;
//! * [`ChoiceLog::agreement`] — over records where the alternative was
//!   also measured, how often the plan's choice was the empirically
//!   faster algorithm (the paper's machine-model claim, and the ≥ 80%
//!   acceptance bar of the tuning subsystem).
//!
//! ## Model-drift detection
//!
//! A calibrated profile goes stale — the machine changes (frequency
//! policy, contention, a migrated VM) and the model's predictions
//! quietly stop matching the clock. The log keeps a sliding window
//! ([`DRIFT_WINDOW`]) of the most recent per-record prediction errors;
//! when at least [`DRIFT_MIN_SAMPLES`] are in the window and their
//! mean exceeds [`DRIFT_FACTOR`] × the calibration-time baseline error
//! ([`ChoiceLog::set_baseline_error`], typically the profile's
//! `calib_err`; [`DEFAULT_BASELINE_ERROR`] otherwise), the log is
//! *drifted*: each transition into that state bumps the
//! `core.model_drift` counter, and [`ChoiceLog::drift_advisory`]
//! yields the "recalibrate" line the perf report and CLI footers
//! surface.

use std::collections::VecDeque;

use crate::breakdown::Breakdown;
use crate::model::ModeCost;
use crate::plan::{MttkrpPlan, PlannedAlgo};

/// Sliding-window length (records with predictions) drift is judged on.
pub const DRIFT_WINDOW: usize = 8;
/// Minimum predictions in the window before drift can trigger.
pub const DRIFT_MIN_SAMPLES: usize = 4;
/// Drift threshold: windowed mean error > this factor × baseline.
pub const DRIFT_FACTOR: f64 = 2.0;
/// Baseline relative error assumed when no calibration-time error is
/// known (quick profiles routinely sit near 25%).
pub const DEFAULT_BASELINE_ERROR: f64 = 0.25;

/// One observed plan execution (or one sweep configuration): what the
/// plan chose, what the model predicted, what the clock said.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceRecord {
    /// Tensor dimensions of the planned shape.
    pub dims: Vec<usize>,
    /// Decomposition rank `C`.
    pub rank: usize,
    /// The planned mode.
    pub mode: usize,
    /// Team size the plan was built for.
    pub threads: usize,
    /// The kernel the plan resolved to.
    pub algo: PlannedAlgo,
    /// Model-predicted seconds per algorithm, if the plan was built
    /// from a prediction (`None` for heuristic/forced plans).
    pub predicted: Option<ModeCost>,
    /// Measured seconds of the algorithm the plan ran.
    pub measured: f64,
    /// Measured seconds of the *other* algorithm, when the caller swept
    /// both (1-step when a 2-step ran, and vice versa).
    pub measured_other: Option<f64>,
}

impl ChoiceRecord {
    /// Whether the plan ran a 1-step kernel (either variant).
    pub fn ran_one_step(&self) -> bool {
        matches!(
            self.algo,
            PlannedAlgo::OneStepExternal | PlannedAlgo::OneStepInternal
        )
    }

    /// The model's predicted seconds for the algorithm that ran.
    /// `None` for unpredicted plans.
    pub fn predicted_for_run(&self) -> Option<f64> {
        let p = self.predicted?;
        Some(if self.ran_one_step() {
            p.one_step
        } else {
            p.two_step
        })
    }

    /// Relative error of the model on the executed algorithm:
    /// `|predicted − measured| / measured`. `None` for unpredicted
    /// plans or a zero measurement.
    pub fn prediction_error(&self) -> Option<f64> {
        let p = self.predicted_for_run()?;
        (self.measured > 0.0).then(|| (p - self.measured).abs() / self.measured)
    }

    /// Whether the plan's choice was the empirically faster algorithm.
    /// Requires the alternative to have been measured too; `None`
    /// otherwise.
    pub fn choice_was_fastest(&self) -> Option<bool> {
        self.measured_other.map(|other| self.measured <= other)
    }
}

/// An append-only log of [`ChoiceRecord`]s with aggregate accuracy
/// queries and sliding-window drift detection. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct ChoiceLog {
    records: Vec<ChoiceRecord>,
    baseline_error: Option<f64>,
    window: VecDeque<f64>,
    drifted_now: bool,
}

impl ChoiceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one timed execution of `plan`: the resolved algorithm,
    /// its predicted times (if any), and the measured total of `bd`.
    pub fn record(&mut self, plan: &MttkrpPlan, bd: &Breakdown) {
        self.push_record(plan, bd.total, None);
    }

    /// Record a sweep configuration where **both** algorithms were
    /// timed: `measured` is the plan's own algorithm, `measured_other`
    /// the alternative. This is what enables [`ChoiceLog::agreement`].
    pub fn record_sweep(&mut self, plan: &MttkrpPlan, measured: f64, measured_other: f64) {
        self.push_record(plan, measured, Some(measured_other));
    }

    fn push_record(&mut self, plan: &MttkrpPlan, measured: f64, measured_other: Option<f64>) {
        self.push(ChoiceRecord {
            dims: plan.dims().to_vec(),
            rank: plan.rank(),
            mode: plan.mode(),
            threads: plan.threads(),
            algo: plan.algo(),
            predicted: plan.predicted_times(),
            measured,
            measured_other,
        });
    }

    /// Append an externally-built record (callers that measured a run
    /// without an `MttkrpPlan` in hand — the tune perf-report bridge
    /// reconstructs records from CP-ALS breakdowns this way). Updates
    /// the aggregate counters and the drift window exactly like
    /// [`ChoiceLog::record`].
    pub fn push(&mut self, rec: ChoiceRecord) {
        mttkrp_obs::counter!("core.choice_records").incr();
        if rec.choice_was_fastest() == Some(true) {
            mttkrp_obs::counter!("core.choice_agree").incr();
        }
        if let Some(err) = rec.prediction_error() {
            if self.window.len() == DRIFT_WINDOW {
                self.window.pop_front();
            }
            self.window.push_back(err);
            let now = self.window.len() >= DRIFT_MIN_SAMPLES
                && self.window_error().is_some_and(|w| {
                    w > DRIFT_FACTOR * self.baseline_error.unwrap_or(DEFAULT_BASELINE_ERROR)
                });
            if now && !self.drifted_now {
                mttkrp_obs::counter!("core.model_drift").incr();
            }
            self.drifted_now = now;
        }
        self.records.push(rec);
    }

    /// Set the calibration-time mean prediction error the drift
    /// threshold is relative to (a loaded profile's `calib_err`).
    /// Without it, [`DEFAULT_BASELINE_ERROR`] applies. Set this before
    /// recording — the window is judged at push time.
    pub fn set_baseline_error(&mut self, err: f64) {
        if err.is_finite() && err > 0.0 {
            self.baseline_error = Some(err);
        }
    }

    /// The configured baseline error, if any.
    pub fn baseline_error(&self) -> Option<f64> {
        self.baseline_error
    }

    /// Mean relative prediction error over the sliding window (at most
    /// the last [`DRIFT_WINDOW`] predicted records); `None` while no
    /// predicted record has been pushed.
    pub fn window_error(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        Some(self.window.iter().sum::<f64>() / self.window.len() as f64)
    }

    /// Whether the log is currently in the drifted state.
    pub fn drifted(&self) -> bool {
        self.drifted_now
    }

    /// The "recalibrate" advisory when drifted, `None` otherwise.
    pub fn drift_advisory(&self) -> Option<String> {
        if !self.drifted_now {
            return None;
        }
        let w = self.window_error()?;
        let base = self.baseline_error.unwrap_or(DEFAULT_BASELINE_ERROR);
        Some(format!(
            "recalibrate: model drift detected — windowed prediction error {:.0}% exceeds \
             {DRIFT_FACTOR}x the calibration baseline {:.0}% (rerun `tensorcp tune`)",
            w * 100.0,
            base * 100.0
        ))
    }

    /// All recorded executions, in insertion order.
    pub fn records(&self) -> &[ChoiceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of two-sided records ([`ChoiceLog::record_sweep`])
    /// whose choice was empirically fastest — `None` if no record has
    /// the alternative measured.
    pub fn agreement(&self) -> Option<f64> {
        let decided: Vec<bool> = self
            .records
            .iter()
            .filter_map(ChoiceRecord::choice_was_fastest)
            .collect();
        if decided.is_empty() {
            return None;
        }
        Some(decided.iter().filter(|&&b| b).count() as f64 / decided.len() as f64)
    }

    /// Arithmetic mean of the relative prediction errors over
    /// predicted records — `None` when no record carries a prediction.
    pub fn mean_prediction_error(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .records
            .iter()
            .filter_map(ChoiceRecord::prediction_error)
            .collect();
        if errs.is_empty() {
            return None;
        }
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }

    /// One summary line per record plus an aggregate footer — what the
    /// harness prints after an accuracy sweep.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for r in &self.records {
            let dims = r
                .dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x");
            let _ = write!(
                s,
                "choice,{dims},n={},c={},t={},{:?},measured={:.3e}",
                r.mode, r.rank, r.threads, r.algo, r.measured
            );
            if let Some(p) = r.predicted_for_run() {
                let _ = write!(s, ",predicted={p:.3e}");
            }
            if let Some(best) = r.choice_was_fastest() {
                let _ = write!(s, ",fastest={}", if best { "yes" } else { "NO" });
            }
            s.push('\n');
        }
        if let Some(a) = self.agreement() {
            let _ = writeln!(s, "choice-agreement,{:.1}%", a * 100.0);
        }
        if let Some(e) = self.mean_prediction_error() {
            let _ = writeln!(s, "mean-prediction-error,{:.1}%", e * 100.0);
        }
        if let Some(a) = self.drift_advisory() {
            let _ = writeln!(s, "advisory,{a}");
        }
        s
    }

    /// Self-describing JSON dump of the whole log
    /// (`mttkrp-choices-v1`) — what `mttkrp-harness --choices-out`
    /// writes after an accuracy sweep.
    pub fn to_json(&self) -> String {
        use mttkrp_obs::json::number;
        use std::fmt::Write as _;

        // An absent value renders as `null`, like a non-finite one.
        let opt = |v: Option<f64>| number(v.unwrap_or(f64::NAN));

        let mut s = String::from("{\n  \"schema\": \"mttkrp-choices-v1\",\n");
        let _ = writeln!(s, "  \"agreement\": {},", opt(self.agreement()));
        let _ = writeln!(
            s,
            "  \"mean_prediction_error\": {},",
            opt(self.mean_prediction_error())
        );
        let _ = writeln!(s, "  \"baseline_error\": {},", opt(self.baseline_error()));
        let _ = writeln!(s, "  \"window_error\": {},", opt(self.window_error()));
        let _ = writeln!(s, "  \"drift\": {},", self.drifted_now);
        s.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            let dims = r
                .dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                s,
                "\n    {{\"dims\": [{dims}], \"rank\": {}, \"mode\": {}, \"threads\": {}, \
                 \"algo\": \"{:?}\", \"predicted\": ",
                r.rank, r.mode, r.threads, r.algo
            );
            match r.predicted {
                Some(p) => {
                    let _ = write!(
                        s,
                        "{{\"one_step\": {}, \"two_step\": {}}}",
                        number(p.one_step),
                        number(p.two_step)
                    );
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ", \"measured\": {}, \"measured_other\": {}, \"fastest\": {}}}{}",
                number(r.measured),
                opt(r.measured_other),
                match r.choice_was_fastest() {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                },
                if i + 1 < self.records.len() { "," } else { "" }
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AlgoChoice;
    use mttkrp_parallel::ThreadPool;
    use mttkrp_tensor::DenseTensor;

    fn run_once(plan: &mut MttkrpPlan, pool: &ThreadPool) -> Breakdown {
        let dims = plan.dims().to_vec();
        let c = plan.rank();
        let x = DenseTensor::zeros(&dims);
        let factors: Vec<Vec<f64>> = dims.iter().map(|&d| vec![1.0; d * c]).collect();
        let refs: Vec<mttkrp_blas::MatRef> = factors
            .iter()
            .zip(&dims)
            .map(|(f, &d)| mttkrp_blas::MatRef::from_slice(f, d, c, mttkrp_blas::Layout::RowMajor))
            .collect();
        let n = plan.mode();
        let mut out = vec![0.0; dims[n] * c];
        plan.execute_timed(pool, &x, &refs, &mut out)
    }

    #[test]
    fn records_capture_shape_algo_and_prediction() {
        let pool = ThreadPool::new(1);
        let dims = [4usize, 3, 2];
        let mut log = ChoiceLog::new();
        let mut plan = MttkrpPlan::new(
            &pool,
            &dims,
            2,
            1,
            AlgoChoice::Predicted {
                one_step: 2.0,
                two_step: 1.0,
            },
        );
        let bd = run_once(&mut plan, &pool);
        log.record(&plan, &bd);
        assert_eq!(log.len(), 1);
        let r = &log.records()[0];
        assert_eq!(r.dims, vec![4, 3, 2]);
        assert_eq!(r.mode, 1);
        assert!(!r.ran_one_step(), "2-step predicted faster");
        assert_eq!(r.predicted_for_run(), Some(1.0));
        assert!(r.prediction_error().is_some());
        assert!(r.choice_was_fastest().is_none(), "one-sided record");
        assert!(log.agreement().is_none());
    }

    #[test]
    fn sweep_records_drive_agreement() {
        let pool = ThreadPool::new(1);
        let dims = [4usize, 3, 2];
        let mut log = ChoiceLog::new();
        let plan = MttkrpPlan::new(
            &pool,
            &dims,
            2,
            1,
            AlgoChoice::Predicted {
                one_step: 2.0,
                two_step: 1.0,
            },
        );
        // Choice (2-step) measured faster than the alternative: right.
        log.record_sweep(&plan, 1.0e-3, 2.0e-3);
        // Choice measured slower: a misprediction.
        log.record_sweep(&plan, 3.0e-3, 2.0e-3);
        assert_eq!(log.agreement(), Some(0.5));
        let s = log.summary();
        assert!(s.contains("choice-agreement,50.0%"), "summary:\n{s}");
        assert!(s.contains("fastest=NO"), "summary:\n{s}");
    }

    #[test]
    fn to_json_is_self_describing_and_balanced() {
        let pool = ThreadPool::new(1);
        let mut log = ChoiceLog::new();
        let plan = MttkrpPlan::new(
            &pool,
            &[4, 3, 2],
            2,
            1,
            AlgoChoice::Predicted {
                one_step: 2.0,
                two_step: 1.0,
            },
        );
        log.record_sweep(&plan, 1.0e-3, 2.0e-3);
        let mut plain = MttkrpPlan::new(&pool, &[3, 3], 2, 0, AlgoChoice::Heuristic);
        let bd = run_once(&mut plain, &pool);
        log.record(&plain, &bd);
        let s = log.to_json();
        assert!(s.contains("\"schema\": \"mttkrp-choices-v1\""));
        assert!(s.contains("\"agreement\": 1e0"));
        assert!(s.contains("\"dims\": [4, 3, 2]"));
        assert!(s.contains("\"fastest\": true"));
        assert!(s.contains("\"predicted\": null"), "heuristic record:\n{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn heuristic_plans_record_without_predictions() {
        let pool = ThreadPool::new(1);
        let mut log = ChoiceLog::new();
        let mut plan = MttkrpPlan::new(&pool, &[3, 3], 2, 0, AlgoChoice::Heuristic);
        let bd = run_once(&mut plan, &pool);
        log.record(&plan, &bd);
        assert!(log.records()[0].predicted.is_none());
        assert!(log.records()[0].prediction_error().is_none());
        assert!(log.mean_prediction_error().is_none());
    }

    /// A synthetic record whose prediction error is exactly `err`
    /// (prediction `1+err`, measurement `1`).
    fn rec_with_error(err: f64) -> ChoiceRecord {
        ChoiceRecord {
            dims: vec![4, 3, 2],
            rank: 2,
            mode: 0,
            threads: 1,
            algo: PlannedAlgo::OneStepExternal,
            predicted: Some(ModeCost {
                one_step: 1.0 + err,
                two_step: 9.0,
            }),
            measured: 1.0,
            measured_other: None,
        }
    }

    #[test]
    fn drift_requires_min_samples_and_sustained_error() {
        let mut log = ChoiceLog::new();
        log.set_baseline_error(0.10); // threshold: windowed mean > 20%
        for _ in 0..DRIFT_MIN_SAMPLES - 1 {
            log.push(rec_with_error(0.50));
            assert!(!log.drifted(), "below the minimum sample count");
        }
        log.push(rec_with_error(0.50));
        assert!(log.drifted(), "4 records at 50% error vs 10% baseline");
        let adv = log.drift_advisory().expect("advisory present when drifted");
        assert!(adv.contains("recalibrate"), "{adv}");
        assert!(
            log.summary().contains("advisory,recalibrate"),
            "{}",
            log.summary()
        );
        assert!(log.to_json().contains("\"drift\": true"));
    }

    #[test]
    fn accurate_predictions_never_drift() {
        let mut log = ChoiceLog::new();
        log.set_baseline_error(0.10);
        for _ in 0..3 * DRIFT_WINDOW {
            log.push(rec_with_error(0.15)); // below 2× baseline
        }
        assert!(!log.drifted());
        assert!(log.drift_advisory().is_none());
        assert!(log.to_json().contains("\"drift\": false"));
    }

    #[test]
    fn drift_window_slides_and_recovers() {
        let mut log = ChoiceLog::new();
        log.set_baseline_error(0.10);
        for _ in 0..DRIFT_WINDOW {
            log.push(rec_with_error(1.0));
        }
        assert!(log.drifted());
        // A full window of accurate predictions flushes the bad ones.
        for _ in 0..DRIFT_WINDOW {
            log.push(rec_with_error(0.05));
        }
        assert!(!log.drifted(), "window slid past the drifted region");
        let w = log.window_error().unwrap();
        assert!((w - 0.05).abs() < 1e-12, "window mean {w}");
    }

    #[test]
    fn default_baseline_applies_when_unset() {
        let mut log = ChoiceLog::new();
        assert!(log.baseline_error().is_none());
        for _ in 0..DRIFT_WINDOW {
            // 2× default (0.25) exactly is not "above"; 0.6 is.
            log.push(rec_with_error(0.6));
        }
        assert!(log.drifted(), "0.6 > 2x the 0.25 default baseline");
        let mut calm = ChoiceLog::new();
        for _ in 0..DRIFT_WINDOW {
            calm.push(rec_with_error(0.4)); // under 2x default
        }
        assert!(!calm.drifted());
    }
}
