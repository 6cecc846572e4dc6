//! End-to-end roofline attribution: calibrate a real profile on this
//! host, execute every mode of a small dense MTTKRP with `Tuned`
//! plans, and check the `PerfReport` the tune bridge produces — every
//! timed phase attributed, finite throughput numbers, a well-formed
//! `mttkrp-perf-v1` JSON envelope, and the calibration residual
//! threaded through to the drift baseline.
//!
//! Percent-of-roof is asserted only to be positive and finite, not
//! `<= 110`: CI hosts whose last-level cache holds the whole fixture
//! legitimately exceed DRAM-priced roofs (the harness's strict claim
//! runs at scales that stream from memory).

use mttkrp_repro::blas::{kernels, Layout, MatRef};
use mttkrp_repro::mttkrp::{AlgoChoice, Breakdown, MttkrpPlan};
use mttkrp_repro::obs::Bound;
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::tune::{calibrate, perf_report_with, CalibrateOptions, ModeRun};

const RANK: usize = 16;
const REPS: usize = 2;

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

#[test]
fn calibrated_report_attributes_every_mode() {
    let profile = calibrate(&CalibrateOptions {
        threads: Some(2),
        quick: true,
    });
    let calib_err = profile
        .calib_err
        .expect("calibration records its BW-fit residual");
    assert!(calib_err.is_finite() && calib_err >= 0.0);

    let dims = vec![48usize, 40, 36];
    let pool = ThreadPool::new(2);
    let x = DenseTensor::from_vec(&dims, rand_vec(dims.iter().product(), 7));
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| rand_vec(d * RANK, 50 + k as u64))
        .collect();
    let refs: Vec<MatRef> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, RANK, Layout::RowMajor))
        .collect();

    let mut runs = Vec::new();
    for n in 0..dims.len() {
        let mut out = vec![0.0; dims[n] * RANK];
        let mut plan = MttkrpPlan::new(&pool, &dims, RANK, n, AlgoChoice::Tuned);
        plan.execute(&pool, &x, &refs, &mut out); // warm
        let mut bd = Breakdown::default();
        for _ in 0..REPS {
            bd.accumulate(&plan.execute_timed(&pool, &x, &refs, &mut out));
        }
        runs.push(ModeRun {
            mode: n,
            algo: plan.algo(),
            predicted: plan.predicted_times(),
            runs: REPS,
            breakdown: bd,
            gemm_bytes: None,
        });
    }

    let report = perf_report_with(
        &profile,
        &dims,
        RANK,
        pool.num_threads(),
        8,
        kernels::<f64>().tier(),
        &runs,
    );

    // Every executed mode is attributed, and every attributed phase
    // carries finite, positive roofline numbers.
    assert_eq!(report.modes().len(), dims.len());
    for m in report.modes() {
        assert!(
            !m.phases.is_empty(),
            "{} attributed no phases despite nonzero breakdown",
            m.label
        );
        assert!(m.seconds > 0.0);
        for p in &m.phases {
            assert!(p.seconds > 0.0, "{}/{}", m.label, p.name);
            assert!(
                p.achieved_gb_per_s.is_finite() && p.achieved_gb_per_s > 0.0,
                "{}/{}: GB/s = {}",
                m.label,
                p.name,
                p.achieved_gb_per_s
            );
            assert!(
                p.pct_of_roof.is_finite() && p.pct_of_roof > 0.0,
                "{}/{}: pct = {}",
                m.label,
                p.name,
                p.pct_of_roof
            );
            assert!(matches!(p.bound, Bound::Bandwidth | Bound::Compute));
        }
    }

    // The context rows carry the roofs and the calibration residual.
    let ctx = report.context();
    let get = |k: &str| {
        ctx.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("context key {k} missing"))
    };
    assert_eq!(get("dims"), "48x40x36");
    assert_eq!(get("threads"), "2");
    assert!(get("bw_roof_gb_per_s").parse::<f64>().unwrap() > 0.0);
    // The context prints the residual to four decimals.
    assert!((get("calib_err").parse::<f64>().unwrap() - calib_err).abs() <= 5e-5 + 1e-12);

    // The JSON envelope is the documented schema and parses back.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"mttkrp-perf-v1\""));
    let doc = mttkrp_repro::obs::JsonValue::parse(&json).expect("perf JSON parses");
    match doc.get("modes") {
        Some(mttkrp_repro::obs::JsonValue::Arr(modes)) => assert_eq!(modes.len(), dims.len()),
        other => panic!("modes is not an array: {other:?}"),
    }

    // The table renders one line per phase plus a header per mode.
    let table = report.table();
    for m in report.modes() {
        assert!(table.contains(m.label.as_str()), "table lacks {}", m.label);
        for p in &m.phases {
            assert!(table.contains(p.name.as_str()));
        }
    }
}
