//! The `daemon_mix` workload: `tensorcpd` on loopback with default
//! admission (2 active, 8 queued), driven by `nproc` closed-loop
//! clients. Each client submits its next job only after the previous
//! one ends. Jobs are drawn by seed in equal thirds (shuffled blocks of
//! one job per kind, the first opening with the sparse job) from a
//! dense MTKT, a sparse MTKS and an out-of-core MTTB fixture, each with
//! 10 sweeps and `stream_fits` on, and with `threads: 0`, so the daemon
//! sizes every team itself.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mttkrp_blas::kernels;
use mttkrp_cpals::{cp_als, CpAlsOptions, CpAlsReport, KruskalModel, MttkrpStrategy};
use mttkrp_ooc::OocTensor;
use mttkrp_parallel::ThreadPool;
use mttkrp_rng::Rng64;
use mttkrp_sched::Scheduler;
use mttkrp_serve::{
    choose_team, Bind, Format, JobEvent, JobRequest, JobSpec, Server, ServerConfig,
};
use mttkrp_sparse::CsfTensor;
use mttkrp_tune::{calibrate, CalibrateOptions};
use mttkrp_workloads::{read_sparse, read_tensor};

use crate::fixtures::MIX_RANK;
use crate::replay::{self, LayerBackend, LayerTotals, Replay, Traced};
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile};
use crate::{host, Args, Report};

const JOB_SWEEPS: usize = 10;
/// Jobs a run completes at least, so that p90 has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Measurement windows of a `--trace 0` run. Each window times daemon
/// start-ups, runs closed-loop traffic against a fresh daemon, then
/// in-process reference rounds, so that every figure samples the whole
/// run instead of one moment of a noisy host.
const WINDOWS: usize = 6;
/// Share of a window given to traffic; reference rounds fill the rest.
const TRAFFIC_SHARE: f64 = 0.6;
/// Daemon start-ups per window; `setup_s` is the median of all windows.
const SETUP_REPS: usize = 35;
/// Initial-model seeds per kind; every job uses one of them, so every
/// job has an in-process reference fit.
const SEEDS_PER_KIND: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dense,
    Sparse,
    Ooc,
}

const KINDS: [Kind; 3] = [Kind::Dense, Kind::Sparse, Kind::Ooc];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense",
            Kind::Sparse => "sparse",
            Kind::Ooc => "ooc",
        }
    }

    fn file(self) -> &'static str {
        match self {
            Kind::Dense => "dense.mtkt",
            Kind::Sparse => "sparse.mtks",
            Kind::Ooc => "ooc.mttb",
        }
    }

    fn format(self) -> Format {
        match self {
            Kind::Dense => Format::Dense,
            Kind::Sparse => Format::Sparse,
            Kind::Ooc => Format::Ooc,
        }
    }
}

/// One fixture as the daemon sees it.
struct Fixture {
    kind: Kind,
    path: PathBuf,
    dims: Vec<usize>,
    /// The team the daemon sizes for this fixture (no tuning profile is
    /// installed, so this is the deterministic work heuristic).
    team: usize,
    seeds: [u64; SEEDS_PER_KIND],
}

fn err(what: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("{what}: {e}"))
}

/// The loaded tensor of one fixture. [`load`] times its stages into a
/// tracer: `workloads.read`, then `sparse.csf_build` or `ooc.open`.
enum Loaded {
    Dense(mttkrp_tensor::DenseTensor<f64>),
    Sparse(CsfTensor),
    Ooc(Box<OocTensor>),
}

fn load(kind: Kind, path: &Path, tr: &mut Tracer) -> io::Result<Loaded> {
    Ok(match kind {
        Kind::Dense => Loaded::Dense(
            tr.time("workloads.read", || read_tensor::<f64>(path))
                .map_err(|e| err("dense", e))?,
        ),
        Kind::Sparse => {
            let coo = tr
                .time("workloads.read", || read_sparse(path))
                .map_err(|e| err("sparse", e))?;
            Loaded::Sparse(tr.time("sparse.csf_build", || CsfTensor::from_coo(&coo)))
        }
        Kind::Ooc => Loaded::Ooc(Box::new(
            tr.time("ooc.open", || OocTensor::open(path))
                .map_err(|e| err("ooc", e))?,
        )),
    })
}

impl Loaded {
    fn dims(&self) -> Vec<usize> {
        match self {
            Loaded::Dense(x) => x.dims().to_vec(),
            Loaded::Sparse(x) => x.dims().to_vec(),
            Loaded::Ooc(x) => x.dims().to_vec(),
        }
    }

    fn cp_als(&self, pool: &ThreadPool, seed: u64) -> CpAlsReport {
        let init = KruskalModel::<f64>::random(&self.dims(), MIX_RANK, seed);
        let opts = CpAlsOptions {
            max_iters: JOB_SWEEPS,
            tol: 0.0,
            strategy: MttkrpStrategy::Auto,
        };
        match self {
            Loaded::Dense(x) => cp_als(pool, x, init, &opts).1,
            Loaded::Sparse(x) => cp_als(pool, x, init, &opts).1,
            Loaded::Ooc(x) => cp_als(pool, &**x, init, &opts).1,
        }
    }
}

/// Reference runs of one fixture, accumulated over the measurement
/// windows of a run: file-to-factors seconds, sweep seconds on the
/// daemon's team and at T = 1, and the final fit per seed.
#[derive(Default)]
struct Reference {
    decomp: Vec<f64>,
    sweeps: Vec<f64>,
    sweeps_t1: Vec<f64>,
    final_fit: [Option<f64>; SEEDS_PER_KIND],
}

impl Reference {
    /// The first fit of a seed becomes the reference; later runs of the
    /// same seed must reproduce it bit for bit.
    fn record_fit(&mut self, kind: Kind, seed_idx: usize, fit: f64, rep: &mut Report) {
        match self.final_fit[seed_idx] {
            None => self.final_fit[seed_idx] = Some(fit),
            Some(want) => rep.check(
                fit == want,
                format!(
                    "{} reference is not reproducible: {fit} vs {want}",
                    kind.name()
                ),
            ),
        }
    }

    fn final_fit(&self, seed_idx: usize) -> f64 {
        self.final_fit[seed_idx].unwrap_or(f64::NAN)
    }

    /// Forget the timings, keep the reference fits.
    fn clear_timings(&mut self) {
        self.decomp.clear();
        self.sweeps.clear();
        self.sweeps_t1.clear();
    }
}

/// One reference round with initial-model seed `seed_idx`: every
/// fixture decomposed file to factors on the daemon's team and, when
/// that team is larger than one, once more at T = 1 from the tensor
/// already in `loaded`.
fn reference_round(
    fixtures: &[Fixture],
    loaded: &[Loaded],
    refs: &mut [Reference],
    seed_idx: usize,
    rep: &mut Report,
) -> io::Result<()> {
    let pool1 = ThreadPool::new(1);
    for ((fx, x1), r) in fixtures.iter().zip(loaded).zip(refs.iter_mut()) {
        let seed = fx.seeds[seed_idx];
        let pool = ThreadPool::new(fx.team);
        let t0 = Instant::now();
        let x = load(fx.kind, &fx.path, &mut Tracer::new())?;
        let report = x.cp_als(&pool, seed);
        r.decomp.push(t0.elapsed().as_secs_f64());
        r.sweeps.extend_from_slice(&report.iter_times);
        r.record_fit(fx.kind, seed_idx, report.final_fit(), rep);
        if fx.team == 1 {
            r.sweeps_t1.extend_from_slice(&report.iter_times);
        } else {
            // A one-thread team reduces in another order than the
            // daemon's team, so these fits are not references.
            r.sweeps_t1.extend(x1.cp_als(&pool1, seed).iter_times);
        }
    }
    Ok(())
}

/// Untimed rounds with every seed: they record the reference fit of
/// every job the daemon can be sent and warm the process up.
fn warm_up(
    fixtures: &[Fixture],
    loaded: &[Loaded],
    refs: &mut [Reference],
    rep: &mut Report,
) -> io::Result<()> {
    for seed_idx in 0..SEEDS_PER_KIND {
        reference_round(fixtures, loaded, refs, seed_idx, rep)?;
    }
    refs.iter_mut().for_each(Reference::clear_timings);
    Ok(())
}

/// One window of daemon start-ups: scheduler workers, bind and accept
/// thread, until a loopback connection is accepted.
fn measure_setup(setup: &mut Vec<f64>) -> io::Result<()> {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let sched = Scheduler::new(Scheduler::default_workers());
        let mut cfg = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
        cfg.scheduler = Some(sched.clone());
        let mut server = Server::start(cfg)?;
        let addr = server
            .tcp_addr()
            .ok_or_else(|| io::Error::other("daemon has no TCP address"))?;
        let conn = TcpStream::connect(addr)?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(conn);
        server.stop();
        sched.shutdown();
    }
    Ok(())
}

/// Client-side record of one job, in seconds since the loop started.
#[derive(Debug, Default)]
struct JobRecord {
    kind: usize,
    seed_idx: usize,
    submit: f64,
    accepted: Option<f64>,
    started: Option<f64>,
    team: Option<usize>,
    fits: Vec<f64>,
    done: Option<f64>,
    final_fit: Option<f64>,
    iters: usize,
    /// Why the job did not complete (`rejected`, `error`, …).
    failure: Option<String>,
}

/// Failure of a job whose connection the daemon closed; the client
/// stops there.
const CLOSED: &str = "connection closed";

/// How long one traffic run lasts and which jobs it draws.
#[derive(Clone, Copy)]
struct Traffic {
    seconds: f64,
    /// Completed jobs, across all clients, before the clients stop.
    min_jobs: usize,
    seed: u64,
}

/// One closed-loop client: submit, wait for the job's terminal event,
/// repeat until the deadline has passed and enough jobs completed
/// across all clients, or the hard cap is hit.
fn client(
    addr: SocketAddr,
    idx: usize,
    fixtures: &[Fixture],
    origin: Instant,
    completed: &AtomicUsize,
    Traffic {
        seconds,
        min_jobs,
        seed,
    }: Traffic,
) -> io::Result<Vec<JobRecord>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A daemon that stops answering fails the run instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut rng = Rng64::seed_from_u64(seed ^ (0xC11E_0000 + idx as u64));
    let mut block: Vec<usize> = Vec::new();
    let mut records = Vec::new();
    let hard_cap = seconds + 90.0;
    let mut line = String::new();
    loop {
        let now = origin.elapsed().as_secs_f64();
        let enough = now >= seconds && completed.load(Ordering::SeqCst) >= min_jobs;
        if enough || now >= hard_cap {
            break;
        }
        if block.is_empty() {
            // Fisher–Yates over one job of each kind.
            block = (0..KINDS.len()).collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.usize_below(i + 1));
            }
            if records.is_empty() {
                // Every client opens with the sparse job, the largest
                // load, so all clients load it at once and the memory
                // high-water mark is the same worst overlap in every
                // run instead of whatever overlap the draw produced.
                let sparse = KINDS.iter().position(|&k| k == Kind::Sparse);
                let at = block.iter().position(|&k| Some(k) == sparse);
                if let Some(at) = at {
                    let last = block.len() - 1;
                    block.swap(at, last);
                }
            }
        }
        let kind = block.pop().expect("refilled above");
        let seed_idx = rng.usize_below(SEEDS_PER_KIND);
        let fx = &fixtures[kind];
        let id = format!("c{idx}-{}", records.len());
        let req = JobRequest::Submit {
            id: id.clone(),
            spec: JobSpec {
                path: fx.path.to_string_lossy().into_owned(),
                format: fx.kind.format(),
                rank: MIX_RANK,
                max_iters: JOB_SWEEPS,
                tol: 0.0,
                threads: 0,
                seed: fx.seeds[seed_idx],
                stream_fits: true,
                return_factors: false,
            },
        };
        let mut rec = JobRecord {
            kind,
            seed_idx,
            submit: origin.elapsed().as_secs_f64(),
            ..JobRecord::default()
        };
        writer.write_all(format!("{}\n", req.to_json()).as_bytes())?;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                rec.failure = Some(CLOSED.into());
                break;
            }
            let t = origin.elapsed().as_secs_f64();
            let ev = JobEvent::parse(line.trim()).map_err(|e| err("event", e))?;
            match ev {
                JobEvent::Accepted { id: ev_id, .. } if ev_id == id => rec.accepted = Some(t),
                JobEvent::Started { id: ev_id, team } if ev_id == id => {
                    rec.started = Some(t);
                    rec.team = Some(team);
                }
                JobEvent::Fit { id: ev_id, .. } if ev_id == id => rec.fits.push(t),
                JobEvent::Done {
                    id: ev_id,
                    iters,
                    final_fit,
                    ..
                } if ev_id == id => {
                    rec.done = Some(t);
                    rec.iters = iters;
                    rec.final_fit = Some(final_fit);
                    completed.fetch_add(1, Ordering::SeqCst);
                    break;
                }
                JobEvent::Rejected { code, reason, .. } => {
                    rec.failure = Some(format!("rejected {code}: {reason}"));
                    break;
                }
                JobEvent::Error { reason, .. } => {
                    rec.failure = Some(format!("error: {reason}"));
                    break;
                }
                JobEvent::Cancelled { .. } => {
                    rec.failure = Some("cancelled".into());
                    break;
                }
                other => {
                    rec.failure = Some(format!("unexpected event {other:?}"));
                    break;
                }
            }
        }
        let closed = rec.failure.as_deref() == Some(CLOSED);
        records.push(rec);
        if closed {
            break;
        }
    }
    Ok(records)
}

/// Closed-loop traffic against a fresh daemon; returns every job's
/// record and the loop's wall seconds.
fn traffic(
    fixtures: &[Fixture],
    plan: Traffic,
    clients: usize,
) -> io::Result<(Vec<JobRecord>, f64)> {
    let mut server = Server::start(ServerConfig::new(Bind::Tcp("127.0.0.1:0".into())))?;
    let addr = server
        .tcp_addr()
        .ok_or_else(|| io::Error::other("daemon has no TCP address"))?;
    let completed = AtomicUsize::new(0);
    let origin = Instant::now();
    let results: Vec<io::Result<Vec<JobRecord>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let completed = &completed;
                s.spawn(move || client(addr, i, fixtures, origin, completed, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    server.stop();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, wall))
}

/// Client-observed end-to-end figures of one traffic run.
struct TrafficStats {
    p50: f64,
    p90: f64,
    rate: f64,
}

/// Check every job and report the client-observed latencies.
fn report_traffic(
    records: &[JobRecord],
    wall: f64,
    fixtures: &[Fixture],
    refs: &[Reference],
    rep: &mut Report,
) -> TrafficStats {
    let mut latency = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut sweep_by_kind: [Vec<f64>; 3] = Default::default();
    let (mut accept, mut start, mut first_fit, mut done) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in records {
        let fx = &fixtures[r.kind];
        let want = refs[r.kind].final_fit(r.seed_idx);
        let ok = match (&r.failure, r.final_fit, r.team) {
            (None, Some(fit), Some(team)) => {
                let fit_ok = (fit - want).abs() <= 1e-12 * want.abs().max(1.0);
                if !fit_ok {
                    eprintln!(
                        "job {} final fit {fit} differs from reference {want}",
                        fx.kind.name()
                    );
                }
                fit_ok && team == fx.team && r.iters == JOB_SWEEPS && r.fits.len() == JOB_SWEEPS
            }
            _ => false,
        };
        rep.check(ok, format!("{} job: {:?}", fx.kind.name(), r.failure));
        let (Some(acc), Some(st), Some(dn)) = (r.accepted, r.started, r.done) else {
            continue;
        };
        latency.push(dn - r.submit);
        by_kind[r.kind].push(dn - r.submit);
        accept.push(acc - r.submit);
        start.push(st - acc);
        if let (Some(&f0), Some(&fl)) = (r.fits.first(), r.fits.last()) {
            first_fit.push(f0 - st);
            done.push(dn - fl);
        }
        sweep_by_kind[r.kind].extend(r.fits.windows(2).map(|w| w[1] - w[0]));
    }
    // The kinds' sweeps differ several-fold in length, so the median of
    // their pooled intervals would jump between kinds with the exact mix
    // of a run; the mean of per-kind medians does not.
    let sweep_s = mean(&sweep_by_kind.iter().map(|s| median(s)).collect::<Vec<_>>());
    let stats = TrafficStats {
        p50: median(&latency),
        p90: quantile(&latency, 0.9),
        rate: latency.len() as f64 / wall,
    };
    rep.detail("serve.accept_s", median(&accept), "s");
    rep.detail("serve.start_s", median(&start), "s");
    rep.detail("serve.first_fit_s", median(&first_fit), "s");
    rep.detail("serve.sweep_s", sweep_s, "s");
    rep.detail("serve.done_s", median(&done), "s");
    for (k, kind) in KINDS.iter().enumerate() {
        rep.detail(
            &format!("serve.job_s.{}", kind.name()),
            median(&by_kind[k]),
            "s",
        );
        rep.detail(
            &format!("serve.sweep_s.{}", kind.name()),
            median(&sweep_by_kind[k]),
            "s",
        );
    }
    rep.detail("samples.jobs", records.len() as f64, "count");
    rep.detail("samples.jobs_completed", latency.len() as f64, "count");
    stats
}

pub fn run(dir: &Path, args: &Args, rep: &mut Report) -> io::Result<()> {
    let nproc = host::nproc();
    rep.host(
        "threads",
        format!("daemon max_team = {nproc}, T = 1 references"),
    );
    rep.host("clients", nproc);
    rep.host("rank", MIX_RANK);
    rep.host("sweeps_per_job", JOB_SWEEPS);
    let mut seed_rng = Rng64::seed_from_u64(args.seed ^ 0xD43_0000);
    let mut fixtures = Vec::new();
    let mut loaded = Vec::new();
    for kind in KINDS {
        let path = std::fs::canonicalize(dir.join(kind.file()))?;
        let x = load(kind, &path, &mut Tracer::new())?;
        let dims = x.dims();
        loaded.push(x);
        let team = choose_team(&dims, MIX_RANK, nproc);
        rep.host(&format!("team.{}", kind.name()), team);
        // Seeds travel as JSON numbers, which hold integers exactly
        // only below 2^53.
        let seeds = [seed_rng.next_u64() >> 11, seed_rng.next_u64() >> 11];
        fixtures.push(Fixture {
            kind,
            path,
            dims,
            team,
            seeds,
        });
    }
    let mut refs: Vec<Reference> = fixtures.iter().map(|_| Reference::default()).collect();
    warm_up(&fixtures, &loaded, &mut refs, rep)?;

    if args.trace {
        traced(&fixtures, &refs, rep)?;
        let plan = Traffic {
            seconds: args.seconds,
            min_jobs: MIN_JOBS,
            seed: args.seed,
        };
        let (records, wall) = traffic(&fixtures, plan, nproc)?;
        let stats = report_traffic(&records, wall, &fixtures, &refs, rep);
        rep.detail("serve.job_p50_s", stats.p50, "s");
        rep.detail("serve.job_p90_s", stats.p90, "s");
        rep.detail("serve.jobs_per_s", stats.rate, "1/s");
        return Ok(());
    }

    let window = args.seconds / WINDOWS as f64;
    let mut setup = Vec::with_capacity(WINDOWS * SETUP_REPS);
    let (mut records, mut wall) = (Vec::new(), 0.0);
    let mut peak_rss = None;
    let mut round = 0;
    for w in 0..WINDOWS {
        let w0 = Instant::now();
        measure_setup(&mut setup)?;
        let plan = Traffic {
            seconds: window * TRAFFIC_SHARE,
            min_jobs: MIN_JOBS.div_ceil(WINDOWS),
            seed: args.seed ^ ((w as u64) << 32),
        };
        let (r, secs) = traffic(&fixtures, plan, nproc)?;
        records.extend(r);
        wall += secs;
        // Memory of one daemon's traffic: every later daemon starts new
        // threads, and the allocator arenas those leave behind would
        // make the high-water mark depend on arena reuse, not on the
        // jobs.
        peak_rss.get_or_insert_with(host::peak_rss_mb);
        loop {
            reference_round(&fixtures, &loaded, &mut refs, round % SEEDS_PER_KIND, rep)?;
            round += 1;
            if w0.elapsed().as_secs_f64() >= window {
                break;
            }
        }
    }
    let per_kind =
        |f: fn(&Reference) -> &[f64]| mean(&refs.iter().map(|r| median(f(r))).collect::<Vec<_>>());
    rep.metric("setup_s", median(&setup), "s");
    rep.metric("decomp_s", per_kind(|r| &r.decomp), "s");
    let stats = report_traffic(&records, wall, &fixtures, &refs, rep);
    rep.metric("sweep_s", per_kind(|r| &r.sweeps), "s");
    rep.metric("sweep_s_t1", per_kind(|r| &r.sweeps_t1), "s");
    rep.metric("job_p50_s", stats.p50, "s");
    rep.metric("job_p90_s", stats.p90, "s");
    rep.metric("jobs_per_s", stats.rate, "1/s");
    rep.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB");
    for (fx, r) in fixtures.iter().zip(&refs) {
        rep.detail(
            &format!("reference.decomp_s.{}", fx.kind.name()),
            median(&r.decomp),
            "s",
        );
    }
    rep.detail("samples.setups", setup.len() as f64, "count");
    Ok(())
}

/// Replay one job of each kind in-process with the benchmark's spans.
fn traced(fixtures: &[Fixture], refs: &[Reference], rep: &mut Report) -> io::Result<()> {
    let nproc = host::nproc();
    let host_pool = ThreadPool::new(nproc);
    let profile = calibrate(&CalibrateOptions {
        threads: Some(nproc),
        quick: true,
    });
    let tier = kernels::<f64>().tier();
    let (gemm_roof_gflops, bw_roof_gbps) = replay::roofs(&profile, nproc, tier);
    let region_us = replay::region_us(&host_pool);

    let mut totals = LayerTotals::default();
    let (mut reads, mut read_bytes, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_sweep, mut untraced_sweep) = (Vec::new(), Vec::new());
    let (mut scaling_tn, mut scaling_t1) = (Vec::new(), Vec::new());
    let (mut regions, mut steals) = (0u64, 0u64);
    let mut priced = [replay::Priced::default(); 3];
    for (fx, r) in fixtures.iter().zip(refs) {
        let pool = ThreadPool::new(fx.team);
        let mut tr = Tracer::new();
        let x = load(fx.kind, &fx.path, &mut tr)?;
        let (_, read_s) = tr.total("workloads.read");
        if read_s > 0.0 {
            reads.push(read_s);
            read_bytes.push(std::fs::metadata(&fx.path)?.len() as f64);
        }
        let setup_name = match fx.kind {
            Kind::Dense => None,
            Kind::Sparse => Some("sparse.csf_build"),
            Kind::Ooc => Some("ooc.open"),
        };
        if let Some(name) = setup_name {
            rep.detail(&format!("{name}_s"), tr.total(name).1, "s");
        }
        let seed = fx.seeds[0];
        let init = KruskalModel::<f64>::random(&fx.dims, MIX_RANK, seed);
        let (r0, s0) = replay::sched_counters();
        let (t, fits, runs) = match &x {
            Loaded::Dense(x) => replay_job(&pool, x, init, &mut tr),
            Loaded::Sparse(x) => replay_job(&pool, x, init, &mut tr),
            Loaded::Ooc(x) => replay_job(&pool, &**x, init, &mut tr),
        };
        let (r1, s1) = replay::sched_counters();
        regions += r1 - r0;
        steals += s1 - s0;
        plans.push(tr.total("core.plan").1);
        traced_sweep.push(median(&tr.durations("sweep")));
        let last = fits.last().copied().unwrap_or(f64::NAN);
        let want = r.final_fit(0);
        rep.check(
            (last - want).abs() <= 1e-12 * want.abs().max(1.0),
            format!(
                "{} replay fit {last} differs from cp_als {want}",
                fx.kind.name()
            ),
        );
        untraced_sweep.push(median(&x.cp_als(&pool, seed).iter_times));
        scaling_tn.push(median(&x.cp_als(&host_pool, seed).iter_times));
        scaling_t1.push(median(&x.cp_als(&ThreadPool::new(1), seed).iter_times));
        let per = |v: f64| t.per_sweep(v);
        match fx.kind {
            Kind::Dense => {
                priced = replay::price(&profile, &fx.dims, MIX_RANK, fx.team, 8, tier, &runs);
            }
            Kind::Sparse => rep.detail("sparse.mttkrp_s", per(t.mttkrp()), "s"),
            Kind::Ooc => {
                rep.detail("ooc.mttkrp_s", per(t.mttkrp()), "s");
                rep.detail("ooc.io_wait_s", per(t.io_wait), "s");
            }
        }
        totals.add(&t);
    }
    Traced {
        totals,
        read_s: mean(&reads),
        read_bytes: mean(&read_bytes),
        plan_s: mean(&plans),
        priced,
        region_us,
        untraced_sweep: mean(&untraced_sweep),
        scaling_sweep_tn: mean(&scaling_tn),
        scaling_sweep_t1: mean(&scaling_t1),
        traced_sweep: mean(&traced_sweep),
        regions: regions as f64,
        steals: steals as f64,
        gemm_roof_gflops,
        bw_roof_gbps,
    }
    .report(nproc, rep);
    Ok(())
}

/// One job's sweeps, traced: layer totals, the fit trajectory, and the
/// per-mode runs for roofline pricing.
fn replay_job<X: LayerBackend<Elem = f64>>(
    pool: &ThreadPool,
    x: &X,
    init: KruskalModel<f64>,
    tr: &mut Tracer,
) -> (LayerTotals, Vec<f64>, Vec<mttkrp_tune::ModeRun>) {
    let mut replay = Replay::new(pool, x, init, tr);
    let fits = (0..JOB_SWEEPS).map(|_| replay.sweep(pool, x, tr)).collect();
    (
        LayerTotals::collect(tr, &replay),
        fits,
        replay.mode_runs(JOB_SWEEPS),
    )
}
