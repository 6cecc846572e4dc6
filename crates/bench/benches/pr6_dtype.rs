//! PR 6 trajectory record: MTTKRP throughput per {dtype, tier,
//! algorithm, T} and CP-ALS sweep time per dtype — written to `BENCH_pr6.json` at the repo root through the
//! shared [`BenchReport`] builder (schema in docs/FORMATS.md).
//!
//! Throughput is reported **GB-effective**: bytes are counted as if
//! every element were 8 bytes regardless of storage dtype, so an f32
//! run that moves half the physical bytes in the same time shows up as
//! 2× the effective rate — the apples-to-apples number the
//! storage-precision tradeoff is about.
//!
//! Env knobs: `MTTKRP_BENCH_SMOKE=1` shrinks the fixture for CI smoke
//! runs, `MTTKRP_BENCH_OUT` overrides the output path,
//! `MTTKRP_BENCH_SAMPLES` the per-measurement sample count.

use mttkrp_bench::{sample_min, MttkrpFixture, RANK};
use mttkrp_blas::{kernels, Layout, MatRef, Scalar};
use mttkrp_core::{AlgoChoice, MttkrpPlan, TwoStepSide};
use mttkrp_cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_obs::BenchReport;
use mttkrp_parallel::ThreadPool;

const SAMPLES: usize = 5;

/// One measured MTTKRP configuration.
struct MttkrpRow {
    dtype: &'static str,
    tier: &'static str,
    algorithm: &'static str,
    threads: usize,
    mode: usize,
    seconds: f64,
    gb_effective_per_s: f64,
}

struct CpAlsRow {
    dtype: &'static str,
    seconds_per_sweep: f64,
    iters: usize,
    final_fit: f64,
}

fn samples() -> usize {
    std::env::var("MTTKRP_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(SAMPLES)
}

/// Sweep one dtype: every mode × {1-step, 2-step (internal)} ×
/// {1, host} threads, plus a CP-ALS run.
fn sweep<S: Scalar>(
    fx64: &MttkrpFixture,
    host: &ThreadPool,
    rows: &mut Vec<MttkrpRow>,
    cpals: &mut Vec<CpAlsRow>,
) {
    let dims = fx64.dims.clone();
    let nmodes = dims.len();
    let x = fx64.x.cast::<S>();
    let factors: Vec<Vec<S>> = fx64
        .factors
        .iter()
        .map(|f| f.iter().map(|&v| S::from_f64(v)).collect())
        .collect();
    let refs: Vec<MatRef<S>> = factors
        .iter()
        .zip(&dims)
        .map(|(f, &d)| MatRef::from_slice(f, d, RANK, Layout::RowMajor))
        .collect();
    let dtype = S::DTYPE.name();
    let tier = kernels::<S>().tier().name();
    let n_samples = samples();
    // Effective bytes: the tensor read once, normalized to 8-byte
    // elements so dtypes are compared on the same scale.
    let gb_eff = (x.len() as f64) * 8.0 / 1e9;

    let pools: Vec<ThreadPool> = if host.num_threads() > 1 {
        vec![ThreadPool::new(1), ThreadPool::new(host.num_threads())]
    } else {
        vec![ThreadPool::new(1)]
    };
    for pool in &pools {
        let t = pool.num_threads();
        for n in 0..nmodes {
            let mut out = vec![S::ZERO; dims[n] * RANK];
            let algos: &[(&str, AlgoChoice)] = &[
                ("1step", AlgoChoice::OneStep),
                ("2step", AlgoChoice::TwoStep(TwoStepSide::Auto)),
            ];
            for &(name, choice) in algos {
                if name == "2step" && (n == 0 || n == nmodes - 1) {
                    continue; // external modes have no 2-step split
                }
                let mut plan = MttkrpPlan::<S>::new(pool, &dims, RANK, n, choice);
                let secs = sample_min(n_samples, || plan.execute(pool, &x, &refs, &mut out));
                rows.push(MttkrpRow {
                    dtype,
                    tier,
                    algorithm: name,
                    threads: t,
                    mode: n,
                    seconds: secs,
                    gb_effective_per_s: gb_eff / secs,
                });
            }
        }
    }

    // CP-ALS sweep time on the same tensor.
    let iters = 4;
    let init = KruskalModel::<f64>::random(&dims, RANK, 23).cast::<S>();
    let opts = CpAlsOptions {
        max_iters: iters,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    let t0 = std::time::Instant::now();
    let (_, report) = cp_als(host, &x, init, &opts);
    let dt = t0.elapsed().as_secs_f64();
    cpals.push(CpAlsRow {
        dtype,
        seconds_per_sweep: dt / report.iters.max(1) as f64,
        iters: report.iters,
        final_fit: report.final_fit(),
    });
}

/// Best (max over modes/algorithms) GB-effective rate at `threads` for
/// one dtype.
fn best_rate(rows: &[MttkrpRow], dtype: &str, threads: usize) -> f64 {
    rows.iter()
        .filter(|r| r.dtype == dtype && r.threads == threads)
        .map(|r| r.gb_effective_per_s)
        .fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::var("MTTKRP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let entries = if smoke { 60_000 } else { 2_000_000 };
    let host = ThreadPool::host();
    let fx = MttkrpFixture::equal(3, entries);

    let mut rows = Vec::new();
    let mut cpals = Vec::new();
    sweep::<f64>(&fx, &host, &mut rows, &mut cpals);
    sweep::<f32>(&fx, &host, &mut rows, &mut cpals);

    let f64_t1 = best_rate(&rows, "f64", 1);
    let f32_t1 = best_rate(&rows, "f32", 1);
    let speedup = f32_t1 / f64_t1;

    let mut report = BenchReport::new(6);
    report
        .scalar("rank", RANK)
        .scalar(
            "dims",
            fx.dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
        )
        .scalar("smoke", smoke)
        .scalar("host_threads", host.num_threads());
    for r in &rows {
        report
            .row("mttkrp")
            .field("dtype", r.dtype)
            .field("tier", r.tier)
            .field("algorithm", r.algorithm)
            .field("threads", r.threads)
            .field("mode", r.mode)
            .field("seconds", r.seconds)
            .field("gb_effective_per_s", r.gb_effective_per_s);
    }
    for r in &cpals {
        report
            .row("cp_als")
            .field("dtype", r.dtype)
            .field("seconds_per_sweep", r.seconds_per_sweep)
            .field("iters", r.iters)
            .field("final_fit", r.final_fit);
    }
    report
        .row("acceptance")
        .field("f32_best_gb_effective_t1", f32_t1)
        .field("f64_best_gb_effective_t1", f64_t1)
        .field("f32_over_f64_t1", speedup)
        .field("f32_speedup_target", 1.5)
        .field("f32_speedup_met", speedup >= 1.5);

    let out = BenchReport::out_path(&format!(
        "{}/../../BENCH_pr6.json",
        env!("CARGO_MANIFEST_DIR")
    ));
    report.save(&out).expect("write BENCH_pr6.json");
    print!("{}", report.to_json());
    eprintln!("# wrote {out}");
}
