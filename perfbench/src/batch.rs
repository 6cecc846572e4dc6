//! The batch workloads `cubic3` and `fmri4`: one dense tensor file
//! decomposed by fixed-sweep CP-ALS (`tol = 0`, strategy `Auto`) at
//! T = nproc and at T = 1.

use std::io;
use std::path::Path;
use std::time::Instant;

use mttkrp_blas::{kernels, Scalar};
use mttkrp_core::{mttkrp_oracle, MttkrpBackend};
use mttkrp_cpals::{cp_als, CpAlsOptions, CpAlsSweep, KruskalModel, MttkrpStrategy};
use mttkrp_parallel::ThreadPool;
use mttkrp_tensor::DenseTensor;
use mttkrp_tune::{calibrate, CalibrateOptions};
use mttkrp_workloads::read_tensor;

use crate::fixtures::{CUBIC3_RANK, FMRI4_RANK};
use crate::replay::{self, LayerTotals, Replay, Traced};
use crate::spans::Tracer;
use crate::stats::{median, quantile, rel_err};
use crate::{host, Args, Report};

pub struct BatchSpec {
    file: &'static str,
    rank: usize,
    /// Sweeps per decomposition.
    sweeps: usize,
    /// Planned MTTKRP vs `mttkrp_oracle`, normwise relative.
    oracle_tol: f64,
    /// T = nproc vs T = 1 fit trajectories, absolute.
    trajectory_tol: f64,
    /// Replayed vs `cp_als` fits, relative.
    replay_tol: f64,
}

pub const CUBIC3: BatchSpec = BatchSpec {
    file: "cubic3.mtkt",
    rank: CUBIC3_RANK,
    sweeps: 5,
    oracle_tol: 1e-12,
    trajectory_tol: 1e-10,
    replay_tol: 1e-12,
};

pub const FMRI4: BatchSpec = BatchSpec {
    file: "fmri4.mtkt",
    rank: FMRI4_RANK,
    sweeps: 5,
    oracle_tol: 1e-5,
    trajectory_tol: 1e-5,
    replay_tol: 1e-5,
};

/// One decomposition in this many is repeated at T = 1: a T = 1
/// decomposition takes about twice as long and gives `sweep_s_t1`
/// several samples, so running fewer of them leaves more decompositions
/// for `job_p90_s`.
const T1_EVERY: usize = 2;
/// Decompositions a run completes at least, however short `--seconds`.
const MIN_DECOMPS: usize = 3;

fn read<S: Scalar>(path: &Path) -> io::Result<DenseTensor<S>> {
    read_tensor::<S>(path).map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

pub fn run<S: Scalar>(
    spec: &BatchSpec,
    dir: &Path,
    args: &Args,
    rep: &mut Report,
) -> io::Result<()> {
    let path = dir.join(spec.file);
    let nproc = host::nproc();
    let pool = ThreadPool::new(nproc);
    let pool1 = ThreadPool::new(1);
    rep.host("threads", format!("T = {nproc} and T = 1"));
    rep.host("rank", spec.rank);
    rep.host("sweeps_per_decomposition", spec.sweeps);

    // Untimed first read: shape, a warm page cache, the oracle input.
    let x = read::<S>(&path)?;
    let dims = x.dims().to_vec();
    rep.host(
        "dims",
        dims.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x"),
    );
    let init = KruskalModel::<S>::random(&dims, spec.rank, args.seed ^ 0x1417);
    let opts = CpAlsOptions {
        max_iters: spec.sweeps,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    oracle_check(spec, &pool, &x, &init, rep);
    drop(x);

    if args.trace {
        traced(spec, &path, args, &pool, &pool1, &init, &opts, rep)
    } else {
        untraced(spec, &path, args, &pool, &pool1, &init, &opts, rep)
    }
}

/// Each mode's planned MTTKRP against the definition-by-summation
/// oracle, on every run and outside every timed region, so the build
/// under test is always the one checked.
fn oracle_check<S: Scalar>(
    spec: &BatchSpec,
    pool: &ThreadPool,
    x: &DenseTensor<S>,
    init: &KruskalModel<S>,
    rep: &mut Report,
) {
    let dims = x.dims();
    let c = spec.rank;
    let mut plans = x.plan_modes(pool, c, MttkrpStrategy::Auto.algo_choice());
    for (n, &rows) in dims.iter().enumerate() {
        let mut out = vec![S::ZERO; rows * c];
        let mut want = vec![0.0; rows * c];
        init.with_factor_refs(|refs| {
            x.mttkrp_planned(&mut plans, pool, refs, n, &mut out);
            mttkrp_oracle(x, refs, n, &mut want);
        });
        let got: Vec<f64> = out.iter().map(|v| v.to_f64()).collect();
        let err = rel_err(&got, &want);
        rep.check(
            err <= spec.oracle_tol,
            format!(
                "mode-{n} MTTKRP relative error {err:e} > {:e}",
                spec.oracle_tol
            ),
        );
        rep.detail(&format!("check.oracle_err.m{n}"), err, "ratio");
    }
}

fn trajectories_agree(spec: &BatchSpec, a: &[f64], b: &[f64]) -> (bool, f64) {
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    (a.len() == b.len() && diff <= spec.trajectory_tol, diff)
}

#[allow(clippy::too_many_arguments)]
fn untraced<S: Scalar>(
    spec: &BatchSpec,
    path: &Path,
    args: &Args,
    pool: &ThreadPool,
    pool1: &ThreadPool,
    init: &KruskalModel<S>,
    opts: &CpAlsOptions,
    rep: &mut Report,
) -> io::Result<()> {
    // Setup: file → CSF-free dense tensor → plans + initial Grams + norm.
    let time_setup = || -> io::Result<f64> {
        let t0 = Instant::now();
        let x = read::<S>(path)?;
        let sweep = CpAlsSweep::new(pool, &x, init.clone(), opts);
        let s = t0.elapsed().as_secs_f64();
        drop(sweep);
        Ok(s)
    };

    // Untimed warm-up: the first decompositions of a process run slower
    // (page faults, allocator growth) and would land in the p90.
    {
        let x = read::<S>(path)?;
        cp_als(pool, &x, init.clone(), opts);
        cp_als(pool1, &x, init.clone(), opts);
    }

    // Every iteration times one setup and one decomposition at
    // T = nproc, and every `T1_EVERY`-th one a decomposition at T = 1,
    // so every figure samples the whole run, not one moment of it.
    let mut setup = Vec::new();
    let mut decomp = Vec::new();
    let mut sweeps_n = Vec::new();
    let mut sweeps_1 = Vec::new();
    let mut worst_traj = 0.0f64;
    let mut peak_rss = None;
    let start = Instant::now();
    while decomp.len() < MIN_DECOMPS || start.elapsed().as_secs_f64() < args.seconds {
        setup.push(time_setup()?);
        let t0 = Instant::now();
        let x = read::<S>(path)?;
        let (_, report_n) = cp_als(pool, &x, init.clone(), opts);
        decomp.push(t0.elapsed().as_secs_f64());
        rep.check(
            report_n.iters == spec.sweeps,
            format!(
                "decomposition ran {} of {} sweeps",
                report_n.iters, spec.sweeps
            ),
        );
        sweeps_n.extend_from_slice(&report_n.iter_times);

        if (decomp.len() - 1) % T1_EVERY == 0 {
            let (_, report_1) = cp_als(pool1, &x, init.clone(), opts);
            sweeps_1.extend_from_slice(&report_1.iter_times);
            let (ok, diff) = trajectories_agree(spec, &report_n.fits, &report_1.fits);
            worst_traj = worst_traj.max(diff);
            rep.check(
                ok,
                format!(
                    "T = nproc and T = 1 fits differ by {diff:e} > {:e}",
                    spec.trajectory_tol
                ),
            );
        }
        // Memory of setup plus one file-to-factors decomposition: later
        // iterations of this loop only add allocator fragmentation that
        // a user decomposing one file never sees.
        peak_rss.get_or_insert_with(host::peak_rss_mb);
    }

    rep.metric("setup_s", median(&setup), "s");
    rep.metric("decomp_s", median(&decomp), "s");
    rep.metric("sweep_s", median(&sweeps_n), "s");
    rep.metric("sweep_s_t1", median(&sweeps_1), "s");
    rep.metric("job_p50_s", median(&decomp), "s");
    rep.metric("job_p90_s", quantile(&decomp, 0.9), "s");
    rep.metric(
        "jobs_per_s",
        decomp.len() as f64 / decomp.iter().sum::<f64>(),
        "1/s",
    );
    rep.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB");
    rep.detail("samples.decompositions", decomp.len() as f64, "count");
    rep.detail("samples.sweeps", sweeps_n.len() as f64, "count");
    rep.detail("samples.sweeps_t1", sweeps_1.len() as f64, "count");
    rep.detail("samples.setups", setup.len() as f64, "count");
    rep.detail("check.trajectory_diff", worst_traj, "fit");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced<S: Scalar>(
    spec: &BatchSpec,
    path: &Path,
    args: &Args,
    pool: &ThreadPool,
    pool1: &ThreadPool,
    init: &KruskalModel<S>,
    opts: &CpAlsOptions,
    rep: &mut Report,
) -> io::Result<()> {
    let nproc = pool.num_threads();
    let profile = calibrate(&CalibrateOptions {
        threads: Some(nproc),
        quick: true,
    });
    let tier = kernels::<S>().tier();
    let (gemm_roof_gflops, bw_roof_gbps) = replay::roofs(&profile, nproc, tier);
    let region_us = replay::region_us(pool);

    let mut reads = Vec::new();
    let mut x = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        x = Some(read::<S>(path)?);
        reads.push(t0.elapsed().as_secs_f64());
    }
    let x = x.expect("three reads");
    let dims = x.dims().to_vec();

    let mut totals = LayerTotals::default();
    let mut mode_runs = Vec::new();
    let mut plan_s = Vec::new();
    let mut traced_sweeps = Vec::new();
    let mut untraced_n = Vec::new();
    let mut untraced_1 = Vec::new();
    let (mut regions, mut steals) = (0u64, 0u64);
    let start = Instant::now();
    while plan_s.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let mut tr = Tracer::new();
        let mut replay = Replay::new(pool, &x, init.clone(), &mut tr);
        let (r0, s0) = replay::sched_counters();
        let fits: Vec<f64> = (0..spec.sweeps)
            .map(|_| replay.sweep(pool, &x, &mut tr))
            .collect();
        let (r1, s1) = replay::sched_counters();
        regions += r1 - r0;
        steals += s1 - s0;
        plan_s.push(tr.total("core.plan").1);
        traced_sweeps.extend(tr.durations("sweep"));
        totals.add(&LayerTotals::collect(&tr, &replay));
        replay::merge_runs(&mut mode_runs, replay.mode_runs(spec.sweeps));

        let (_, report_n) = cp_als(pool, &x, init.clone(), opts);
        untraced_n.extend_from_slice(&report_n.iter_times);
        let err = rel_err(&fits, &report_n.fits);
        rep.check(
            err <= spec.replay_tol,
            format!(
                "replayed fits differ from cp_als by {err:e} > {:e}",
                spec.replay_tol
            ),
        );
        let (_, report_1) = cp_als(pool1, &x, init.clone(), opts);
        untraced_1.extend_from_slice(&report_1.iter_times);
    }

    let priced = replay::price(
        &profile,
        &dims,
        spec.rank,
        nproc,
        std::mem::size_of::<S>(),
        tier,
        &mode_runs,
    );
    Traced {
        totals,
        read_s: median(&reads),
        read_bytes: std::fs::metadata(path)?.len() as f64,
        plan_s: median(&plan_s),
        priced,
        region_us,
        untraced_sweep: median(&untraced_n),
        scaling_sweep_tn: median(&untraced_n),
        scaling_sweep_t1: median(&untraced_1),
        traced_sweep: median(&traced_sweeps),
        regions: regions as f64,
        steals: steals as f64,
        gemm_roof_gflops,
        bw_roof_gbps,
    }
    .report(nproc, rep);
    rep.detail("samples.replays", plan_s.len() as f64, "count");
    Ok(())
}
