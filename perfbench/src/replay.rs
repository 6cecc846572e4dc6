//! The traced replay: one CP-ALS decomposition rebuilt from the
//! library's public calls, with a span of the benchmark's own around
//! each call.
//!
//! [`Replay::sweep`] performs exactly the operations of
//! `mttkrp_cpals::CpAlsSweep::sweep`, in the same order and on the same
//! buffers (planned MTTKRP → Gram Hadamard → `GramSolver::pinv_into` →
//! `M·H†` GEMM → `normalize_mode` → `gram_into`, then the fit from the
//! last mode's MTTKRP), so from the same initial model it must
//! reproduce `cp_als`'s fit trajectory. The accounting check relies on
//! that: a replay that diverged would be timing different work.

use mttkrp_blas::{gemm, KernelTier, Layout, MatMut, MatRef, Scalar};
use mttkrp_core::{Breakdown, DensePlans, ModeCost, MttkrpBackend, PlannedAlgo};
use mttkrp_cpals::gram::{factor_view, gram_into, hadamard_excluding_into, GramWorkspace};
use mttkrp_cpals::{KruskalModel, MttkrpStrategy};
use mttkrp_linalg::GramSolver;
use mttkrp_ooc::OocTensor;
use mttkrp_parallel::ThreadPool;
use mttkrp_sparse::CsfTensor;
use mttkrp_tensor::DenseTensor;
use mttkrp_tune::{ModeRun, TuningProfile};

use crate::spans::Tracer;

/// Span names of the per-mode MTTKRP calls.
pub const MTTKRP_SPANS: [&str; 4] = [
    "core.mttkrp_s.m0",
    "core.mttkrp_s.m1",
    "core.mttkrp_s.m2",
    "core.mttkrp_s.m3",
];

/// Span names of the calls that make up `cpals.update_s`: the Gram
/// Hadamard, the `H†` cast to the storage type, the `M·H†` GEMM and
/// `normalize_mode`.
pub const UPDATE_SPANS: [&str; 4] = [
    "cpals.update.hadamard",
    "cpals.update.cast",
    "cpals.update.gemm",
    "cpals.update.normalize",
];

/// What the replay needs from a storage backend beyond
/// [`MttkrpBackend`].
pub trait LayerBackend: MttkrpBackend {
    /// Seconds the last planned MTTKRP waited on tile I/O.
    fn io_wait(_plans: &Self::PlanSet) -> f64 {
        0.0
    }

    /// Mode `n`'s resolved kernel and the cost model's prediction, for
    /// roofline pricing; `None` where the dense model does not apply.
    fn mode_algo(_plans: &Self::PlanSet, _n: usize) -> Option<(PlannedAlgo, Option<ModeCost>)> {
        None
    }
}

impl<S: Scalar> LayerBackend for DenseTensor<S> {
    fn mode_algo(plans: &DensePlans<S>, n: usize) -> Option<(PlannedAlgo, Option<ModeCost>)> {
        match plans {
            DensePlans::Planned(set) => Some((set.plan(n).algo(), set.plan(n).predicted_times())),
            DensePlans::Explicit => None,
        }
    }
}

impl LayerBackend for CsfTensor {}

impl LayerBackend for OocTensor {
    fn io_wait(plans: &mttkrp_ooc::OocMttkrpPlanSet) -> f64 {
        plans.last_io_wait()
    }
}

/// CP-ALS state mirroring `CpAlsSweep`, with public fields for the
/// per-mode phase breakdowns and the tile I/O wait.
pub struct Replay<X: LayerBackend> {
    model: KruskalModel<X::Elem>,
    plans: X::PlanSet,
    dims: Vec<usize>,
    c: usize,
    norm_x: f64,
    grams: Vec<Vec<f64>>,
    gram_ws: GramWorkspace,
    solver: GramSolver<f64>,
    h: Vec<f64>,
    p: Vec<f64>,
    p_cast: Vec<X::Elem>,
    m_buf: Vec<X::Elem>,
    last_mode_m: Vec<X::Elem>,
    norm_had: Vec<f64>,
    /// Per-mode MTTKRP phase breakdowns accumulated over every sweep.
    pub mode_bd: Vec<Breakdown>,
    /// Tile I/O wait accumulated over every sweep.
    pub io_wait: f64,
}

impl<X: LayerBackend> Replay<X> {
    /// Initial Grams and the plan set, each under its own span.
    pub fn new(pool: &ThreadPool, x: &X, init: KruskalModel<X::Elem>, tr: &mut Tracer) -> Self {
        let dims = x.dims().to_vec();
        let c = init.rank();
        let mut gram_ws = GramWorkspace::new(pool.num_threads());
        let grams = tr.time("cpals.gram_init", || {
            init.factors
                .iter()
                .zip(&dims)
                .map(|(f, &d)| {
                    let mut g = vec![0.0; c * c];
                    gram_into(pool, &mut gram_ws, factor_view(f, d, c), &mut g);
                    g
                })
                .collect()
        });
        let plans = tr.time("core.plan", || {
            x.plan_modes(pool, c, MttkrpStrategy::Auto.algo_choice())
        });
        let mut solver = GramSolver::new();
        solver.reserve(c);
        let max_dim = dims.iter().copied().max().unwrap_or(0);
        let last = dims[dims.len() - 1];
        Replay {
            model: init,
            plans,
            norm_x: x.norm(),
            grams,
            gram_ws,
            solver,
            h: vec![0.0; c * c],
            p: vec![0.0; c * c],
            p_cast: vec![X::Elem::ZERO; c * c],
            m_buf: vec![X::Elem::ZERO; max_dim * c],
            last_mode_m: vec![X::Elem::ZERO; last * c],
            norm_had: vec![0.0; c * c],
            mode_bd: vec![Breakdown::default(); dims.len()],
            io_wait: 0.0,
            dims,
            c,
        }
    }

    /// One traced ALS sweep over every mode; returns the fit.
    pub fn sweep(&mut self, pool: &ThreadPool, x: &X, tr: &mut Tracer) -> f64 {
        let sweep = tr.enter("sweep");
        let nmodes = self.dims.len();
        let c = self.c;
        for n in 0..nmodes {
            let rows = self.dims[n];
            let m = &mut self.m_buf[..rows * c];
            let bd = {
                let plans = &mut self.plans;
                let model = &self.model;
                tr.time(MTTKRP_SPANS[n.min(3)], || {
                    model.with_factor_refs(|refs| x.mttkrp_planned(plans, pool, refs, n, m))
                })
            };
            self.mode_bd[n].accumulate(&bd);
            self.io_wait += X::io_wait(&self.plans);

            if n == nmodes - 1 {
                self.last_mode_m.copy_from_slice(m);
            }
            let (grams, h) = (&self.grams, &mut self.h);
            tr.time(UPDATE_SPANS[0], || hadamard_excluding_into(grams, n, c, h));
            let (solver, h, p) = (&mut self.solver, &self.h, &mut self.p);
            tr.time("linalg.solve", || {
                solver
                    .pinv_into(h, c, 0.0, p)
                    .expect("pseudoinverse of a c x c Gram Hadamard")
            });
            let (p_cast, p) = (&mut self.p_cast, &self.p);
            tr.time(UPDATE_SPANS[1], || {
                for (d, &src) in p_cast.iter_mut().zip(p) {
                    *d = X::Elem::from_f64(src);
                }
            });
            let out = &mut self.model.factors[n];
            out.resize(rows * c, X::Elem::ZERO);
            let p_cast = &self.p_cast;
            tr.time(UPDATE_SPANS[2], || {
                gemm(
                    1.0,
                    MatRef::from_slice(m, rows, c, Layout::RowMajor),
                    MatRef::from_slice(p_cast, c, c, Layout::ColMajor),
                    0.0,
                    MatMut::from_slice(out, rows, c, Layout::RowMajor),
                )
            });
            let model = &mut self.model;
            tr.time(UPDATE_SPANS[3], || {
                model.lambda.fill(1.0);
                model.normalize_mode(n);
            });

            let (ws, factor, g) = (
                &mut self.gram_ws,
                &self.model.factors[n],
                &mut self.grams[n],
            );
            tr.time("cpals.gram", || {
                gram_into(pool, ws, factor_view(factor, rows, c), g)
            });
        }
        let fit = tr.time("cpals.fit", || self.fit());
        tr.exit(sweep);
        fit
    }

    /// `CpAlsSweep`'s fit: `⟨X, Y⟩` from the last mode's MTTKRP and
    /// `‖Y‖²` from the Grams, in the same summation order.
    fn fit(&mut self) -> f64 {
        let nmodes = self.dims.len();
        let c = self.c;
        let inner: f64 = {
            let u = &self.model.factors[nmodes - 1];
            let mut s = 0.0;
            for i in 0..self.dims[nmodes - 1] {
                for col in 0..c {
                    s += self.model.lambda[col]
                        * u[i * c + col].to_f64()
                        * self.last_mode_m[i * c + col].to_f64();
                }
            }
            s
        };
        let norm_y_sq = {
            self.norm_had.fill(1.0);
            for g in &self.grams {
                for (h, &gg) in self.norm_had.iter_mut().zip(g) {
                    *h *= gg;
                }
            }
            let mut total = 0.0;
            for i in 0..c {
                for j in 0..c {
                    total += self.model.lambda[i] * self.model.lambda[j] * self.norm_had[i + j * c];
                }
            }
            total
        };
        let norm_x_sq = self.norm_x * self.norm_x;
        let resid_sq = (norm_x_sq - 2.0 * inner + norm_y_sq).max(0.0);
        if self.norm_x > 0.0 {
            1.0 - resid_sq.sqrt() / self.norm_x
        } else {
            1.0
        }
    }

    /// One [`ModeRun`] per mode over `sweeps` sweeps, for roofline
    /// pricing (empty when the backend has no dense plans).
    pub fn mode_runs(&self, sweeps: usize) -> Vec<ModeRun> {
        (0..self.dims.len())
            .filter_map(|n| {
                X::mode_algo(&self.plans, n).map(|(algo, predicted)| ModeRun {
                    mode: n,
                    algo,
                    predicted,
                    runs: sweeps,
                    breakdown: self.mode_bd[n],
                    // Bytes are computed from array sizes, not measured.
                    gemm_bytes: None,
                })
            })
            .collect()
    }
}

/// Accumulate one replay's per-mode runs into the running totals.
pub fn merge_runs(acc: &mut Vec<ModeRun>, runs: Vec<ModeRun>) {
    if acc.is_empty() {
        *acc = runs;
        return;
    }
    for (a, r) in acc.iter_mut().zip(runs) {
        a.runs += r.runs;
        a.breakdown.accumulate(&r.breakdown);
    }
}

/// Phase totals priced against a calibrated roof, summed over modes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Priced {
    pub seconds: f64,
    pub roof_seconds: f64,
    pub gflop: f64,
}

impl Priced {
    /// Percent of the roof sustained; 0 for a phase that never ran
    /// (no reduction on a one-thread team).
    pub fn pct_roof(&self) -> f64 {
        if self.seconds > 0.0 {
            100.0 * self.roof_seconds / self.seconds
        } else {
            0.0
        }
    }

    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.gflop / self.seconds
        } else {
            0.0
        }
    }
}

/// Roofline-priced GEMM, KRP (full + left/right partial) and reduction
/// phases of `runs`, from `mttkrp_tune::perf_report_with`.
#[allow(clippy::too_many_arguments)]
pub fn price(
    profile: &TuningProfile,
    dims: &[usize],
    rank: usize,
    threads: usize,
    elem_bytes: usize,
    tier: KernelTier,
    runs: &[ModeRun],
) -> [Priced; 3] {
    let report =
        mttkrp_tune::perf_report_with(profile, dims, rank, threads, elem_bytes, tier, runs);
    let mut out = [Priced::default(); 3];
    for m in report.modes() {
        for p in &m.phases {
            let slot = match p.name.as_str() {
                "gemm" => 0,
                "full_krp" | "lr_krp" => 1,
                "reduce" => 2,
                _ => continue,
            };
            out[slot].seconds += p.seconds;
            out[slot].roof_seconds += p.roof_seconds;
            out[slot].gflop += p.achieved_gflop_per_s * p.seconds;
        }
    }
    out
}

/// Layer seconds summed over every traced sweep of one or more
/// replays; divide by `sweeps` for per-sweep figures.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub sweeps: usize,
    /// Traced sweep wall time.
    pub wall: f64,
    /// Sweep time not covered by any layer span.
    pub unaccounted: f64,
    pub mttkrp_modes: [f64; 4],
    pub gram: f64,
    pub solve: f64,
    pub update: f64,
    pub fit: f64,
    /// MTTKRP phases from the returned breakdowns.
    pub gemm: f64,
    pub gemv: f64,
    pub krp: f64,
    pub reduce: f64,
    pub io_wait: f64,
}

impl LayerTotals {
    /// Collect the sweep spans of `tr` and the breakdowns of `replay`.
    pub fn collect<X: LayerBackend>(tr: &Tracer, replay: &Replay<X>) -> LayerTotals {
        let (sweeps, wall) = tr.total("sweep");
        let mut t = LayerTotals {
            sweeps,
            wall,
            unaccounted: tr.self_time("sweep"),
            gram: tr.total("cpals.gram").1,
            solve: tr.total("linalg.solve").1,
            update: UPDATE_SPANS.iter().map(|name| tr.total(name).1).sum(),
            fit: tr.total("cpals.fit").1,
            io_wait: replay.io_wait,
            ..LayerTotals::default()
        };
        for (slot, name) in t.mttkrp_modes.iter_mut().zip(MTTKRP_SPANS) {
            *slot = tr.total(name).1;
        }
        for bd in &replay.mode_bd {
            t.gemm += bd.dgemm;
            t.gemv += bd.dgemv;
            t.krp += bd.full_krp + bd.lr_krp;
            t.reduce += bd.reduce;
        }
        t
    }

    pub fn add(&mut self, o: &LayerTotals) {
        self.sweeps += o.sweeps;
        self.wall += o.wall;
        self.unaccounted += o.unaccounted;
        for (a, b) in self.mttkrp_modes.iter_mut().zip(o.mttkrp_modes) {
            *a += b;
        }
        self.gram += o.gram;
        self.solve += o.solve;
        self.update += o.update;
        self.fit += o.fit;
        self.gemm += o.gemm;
        self.gemv += o.gemv;
        self.krp += o.krp;
        self.reduce += o.reduce;
        self.io_wait += o.io_wait;
    }

    pub fn mttkrp(&self) -> f64 {
        self.mttkrp_modes.iter().sum()
    }

    /// Sum of the layer spans, which should cover the sweep wall time.
    pub fn layers(&self) -> f64 {
        self.mttkrp() + self.gram + self.solve + self.update + self.fit
    }

    pub fn per_sweep(&self, v: f64) -> f64 {
        v / self.sweeps.max(1) as f64
    }
}

/// Everything one traced run measures, ready to report.
pub struct Traced {
    pub totals: LayerTotals,
    /// Median seconds and bytes of one file read.
    pub read_s: f64,
    pub read_bytes: f64,
    /// Median seconds of one `plan_modes`.
    pub plan_s: f64,
    /// GEMM, KRP and reduction priced against the calibrated roofs.
    pub priced: [Priced; 3],
    pub region_us: f64,
    /// Median untraced `cp_als` sweep seconds on the replay's team.
    pub untraced_sweep: f64,
    /// Median untraced `cp_als` sweep seconds at T = nproc and T = 1.
    pub scaling_sweep_tn: f64,
    pub scaling_sweep_t1: f64,
    /// Median traced (replayed) sweep seconds.
    pub traced_sweep: f64,
    /// Scheduler regions and steals over the traced sweeps.
    pub regions: f64,
    pub steals: f64,
    pub gemm_roof_gflops: f64,
    pub bw_roof_gbps: f64,
}

/// Median microseconds of an empty parallel region on `pool`.
pub fn region_us(pool: &ThreadPool) -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = std::time::Instant::now();
            pool.run(|ctx| {
                std::hint::black_box(ctx.thread_id);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

/// `sched.*` counters from the process-wide metrics registry.
pub fn sched_counters() -> (u64, u64) {
    let r = mttkrp_obs::registry();
    (
        r.counter("sched.regions").value(),
        r.counter("sched.tasks_stolen").value(),
    )
}

/// GEMM and bandwidth roofs of `profile` at `threads` on `tier`.
pub fn roofs(profile: &TuningProfile, threads: usize, tier: KernelTier) -> (f64, f64) {
    let m = profile.machine_for(tier);
    let peak = threads.max(1) as f64 * m.peak_flops_core * m.gemm_eff0;
    (peak / 1e9, m.bw(threads.max(1)) / 1e9)
}

impl Traced {
    /// Check the accounting invariants and report every per-layer
    /// metric.
    pub fn report(&self, nproc: usize, rep: &mut crate::Report) {
        rep.host("roofline_bytes", "computed from array sizes, not measured");
        let t = &self.totals;
        let per = |v: f64| t.per_sweep(v);
        let sweep = per(t.wall);
        let gap = (t.wall - t.layers()).abs() / t.wall;
        rep.check(
            gap <= 0.05,
            format!(
                "layers cover {:.2}% of the traced sweep time (need 95%)",
                100.0 * (1.0 - gap)
            ),
        );
        rep.metric("workloads.read_s", self.read_s, "s");
        rep.metric(
            "workloads.read_gbps",
            self.read_bytes / self.read_s / 1e9,
            "GB/s",
        );
        rep.metric("core.plan_s", self.plan_s, "s");
        rep.metric("core.mttkrp_s", per(t.mttkrp()), "s");
        for (m, name) in MTTKRP_SPANS.iter().enumerate().take(3) {
            rep.metric(name, per(t.mttkrp_modes[m]), "s");
        }
        let [gemm, krp, reduce] = self.priced;
        rep.metric("blas.gemm_s", per(t.gemm), "s");
        rep.metric("blas.gemm_gflops", gemm.gflops(), "GFLOP/s");
        rep.metric("blas.gemm_pct_roof", gemm.pct_roof(), "%");
        rep.metric("blas.gemm_share", 100.0 * per(t.gemm) / sweep, "%");
        rep.metric("blas.gemv_s", per(t.gemv), "s");
        rep.metric("krp.time_s", per(t.krp), "s");
        rep.metric("krp.pct_roof", krp.pct_roof(), "%");
        rep.metric("parallel.reduce_s", per(t.reduce), "s");
        rep.metric("parallel.reduce_pct_roof", reduce.pct_roof(), "%");
        rep.metric("cpals.gram_s", per(t.gram), "s");
        rep.metric("linalg.solve_s", per(t.solve), "s");
        rep.metric("cpals.update_s", per(t.update), "s");
        rep.metric("cpals.fit_s", per(t.fit), "s");
        rep.metric("sched.region_us", self.region_us, "us");
        rep.metric(
            "sched.scaling_eff",
            self.scaling_sweep_t1 / (nproc as f64 * self.scaling_sweep_tn),
            "ratio",
        );
        rep.metric("sched.unaccounted_s", per(t.unaccounted), "s");
        rep.metric("sched.regions_per_sweep", per(self.regions), "count");
        rep.metric("sched.steals_per_sweep", per(self.steals), "count");
        rep.metric("tune.gemm_roof_gflops", self.gemm_roof_gflops, "GFLOP/s");
        rep.metric("tune.bw_roof_gbps", self.bw_roof_gbps, "GB/s");
        rep.metric("obs.traced_sweep_s", self.traced_sweep, "s");
        rep.metric(
            "obs.trace_overhead",
            self.traced_sweep / self.untraced_sweep,
            "ratio",
        );
        if t.mttkrp_modes[3] > 0.0 {
            rep.detail(MTTKRP_SPANS[3], per(t.mttkrp_modes[3]), "s");
        }
        rep.detail("layers.sum_s", per(t.layers()), "s");
        rep.detail("layers.traced_sweeps", t.sweeps as f64, "count");
        rep.detail("untraced.sweep_s", self.untraced_sweep, "s");
        rep.detail("untraced.sweep_s_t1", self.scaling_sweep_t1, "s");
    }
}
