//! The `tensorcpd` socket server: accept loop, connection handling,
//! and the per-job drivers that sweep CP-ALS on the shared
//! work-stealing scheduler.
//!
//! Concurrency model: one OS thread per client connection (parsing
//! requests, emitting events under a per-connection writer lock) and
//! one *driver* thread per active job. Drivers are bounded by the
//! admission controller (`max_active`); each driver, on finishing a
//! job, immediately takes over the head of the queue — the active-slot
//! count never dips while work is waiting. All drivers size a
//! per-job [`ThreadPool`] (team from the spec or the tuned cost model)
//! that submits its parallel regions to the one shared
//! [`Scheduler`], which is where jobs of different sizes actually
//! interleave: an idle worker steals region slots from whichever job
//! has them queued.
//!
//! Cancellation: every job carries a [`CancelToken`]. A `cancel`
//! request flips the token (observed by the driver between sweeps) and
//! sweeps the admission queue, so a queued job cancels without ever
//! starting and its queue slot frees immediately.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mttkrp_core::MttkrpBackend;
use mttkrp_cpals::{CpAlsOptions, CpAlsSweep, KruskalModel, MttkrpStrategy};
use mttkrp_ooc::OocTensor;
use mttkrp_parallel::ThreadPool;
use mttkrp_sched::{CancelToken, Scheduler};
use mttkrp_sparse::CsfTensor;
use mttkrp_tensor::DenseTensor;
use mttkrp_workloads::{read_sparse, read_tensor};

use crate::admission::{choose_team, Admission, AdmissionConfig, Offer};
use crate::protocol::{FactorPayload, Format, JobEvent, JobRequest, JobSpec};

/// Longest request line, newline excluded, that the daemon reads. A
/// longer line is answered with a 413 `rejected` event and its
/// connection is closed, so a client that never sends `\n` cannot grow
/// the daemon's memory without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest factor-matrix size, `rank × Σ dims` elements, that a job may
/// allocate (2^27 `f64`s, 1 GiB). A sparse file can declare huge dims
/// with a handful of nonzeros, so the loaded dims are checked against
/// this before any factor is allocated; a larger job gets an `error`
/// event.
pub const MAX_FACTOR_ELEMS: usize = 1 << 27;

/// Most client connections served at once. A connection beyond it is
/// answered with a 503 `rejected` event and closed, so a flood of idle
/// clients cannot exhaust the daemon's threads or file descriptors
/// (each connection holds two descriptors and one thread).
pub const MAX_CONNS: usize = 128;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// Unix-domain socket at the given path (removed on bind if stale).
    #[cfg(unix)]
    Unix(PathBuf),
    /// TCP address, e.g. `127.0.0.1:7117` (`:0` picks a free port).
    Tcp(String),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub bind: Bind,
    pub admission: AdmissionConfig,
    /// Cap on any single job's team size.
    pub max_team: usize,
    /// Scheduler to run jobs on; `None` uses the process-global one.
    pub scheduler: Option<Scheduler>,
}

impl ServerConfig {
    /// Config with defaults sized for the host: team cap = available
    /// parallelism, 2 active jobs, 8 queued.
    pub fn new(bind: Bind) -> ServerConfig {
        ServerConfig {
            bind,
            admission: AdmissionConfig::default(),
            max_team: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            scheduler: None,
        }
    }
}

/// A connection's event sink, shared between its reader thread and the
/// drivers of jobs it submitted. Lines are written whole, under the
/// lock, so events never interleave mid-line.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn emit(w: &SharedWriter, ev: &JobEvent) {
    write_event(&mut **w.lock().expect("event writer poisoned"), ev);
}

/// [`emit`] into an already locked writer.
fn write_event(w: &mut dyn Write, ev: &JobEvent) {
    let mut line = ev.to_json();
    line.push('\n');
    // A vanished client is not an error worth crashing a driver over.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// A submitted job: spec plus the plumbing its driver needs.
struct Job {
    id: String,
    spec: JobSpec,
    cancel: CancelToken,
    writer: SharedWriter,
}

/// Resolved listen address, kept so `stop()`/`shutdown` can poke the
/// accept loop out of its blocking `accept`.
#[derive(Debug, Clone)]
enum BoundAddr {
    #[cfg(unix)]
    Unix(PathBuf),
    Tcp(SocketAddr),
}

struct Shared {
    admission: Admission<Job>,
    /// Live tokens by job id (running and queued), for `cancel`.
    cancels: Mutex<HashMap<String, CancelToken>>,
    sched: Scheduler,
    max_team: usize,
    stop: AtomicBool,
    /// Connections being served (at most [`MAX_CONNS`]). A plain count
    /// that publishes no other data, so every access is `Relaxed`.
    conns: AtomicUsize,
    addr: BoundAddr,
    drivers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn poke(&self) {
        match &self.addr {
            #[cfg(unix)]
            BoundAddr::Unix(p) => {
                let _ = UnixStream::connect(p);
            }
            BoundAddr::Tcp(a) => {
                let _ = TcpStream::connect(a);
            }
        }
    }
}

/// A running `tensorcpd` server. Dropping it stops the accept loop and
/// joins all job drivers.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Server {
    /// Bind and start accepting. Returns once the socket is listening,
    /// so a client may connect immediately after.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let (listener, addr) = match &cfg.bind {
            #[cfg(unix)]
            Bind::Unix(path) => {
                // A stale socket file from a previous run refuses to
                // bind; remove it (harmless when absent).
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    BoundAddr::Unix(path.clone()),
                )
            }
            Bind::Tcp(spec) => {
                let l = TcpListener::bind(spec)?;
                let addr = l.local_addr()?;
                (Listener::Tcp(l), BoundAddr::Tcp(addr))
            }
        };
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.admission),
            cancels: Mutex::new(HashMap::new()),
            sched: cfg.scheduler.unwrap_or_else(|| Scheduler::global().clone()),
            max_team: cfg.max_team.max(1),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            addr,
            drivers: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("tensorcpd-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("failed to spawn accept thread");
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The TCP port actually bound (for `Tcp(":0")` configs); `None`
    /// for Unix sockets.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.shared.addr {
            BoundAddr::Tcp(a) => Some(*a),
            #[cfg(unix)]
            _ => None,
        }
    }

    /// Block until a client sends `shutdown` (the daemon main's idle
    /// state).
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, then join every job driver (running jobs finish
    /// their current sweep loop normally).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.poke();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let drivers: Vec<_> = self.shared.drivers.lock().unwrap().drain(..).collect();
        for d in drivers {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let conn: io::Result<(Box<dyn BufRead + Send>, SharedWriter)> = match &listener {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().and_then(|(s, _)| {
                let r = s.try_clone()?;
                Ok((
                    Box::new(BufReader::new(r)) as Box<dyn BufRead + Send>,
                    Arc::new(Mutex::new(Box::new(s) as Box<dyn Write + Send>)),
                ))
            }),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                let r = s.try_clone()?;
                Ok((
                    Box::new(BufReader::new(r)) as Box<dyn BufRead + Send>,
                    Arc::new(Mutex::new(Box::new(s) as Box<dyn Write + Send>)),
                ))
            }),
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok((_, writer)) if shared.conns.load(Ordering::Relaxed) >= MAX_CONNS => {
                let reason = format!("too many connections (limit {MAX_CONNS})");
                reject(&writer, 503, reason);
            }
            Ok((reader, writer)) => {
                let slot = ConnSlot::take(&shared);
                // Connection threads die on client EOF; no join needed.
                // The slot frees when the thread ends, or here if it
                // never starts.
                let _ = std::thread::Builder::new()
                    .name("tensorcpd-conn".into())
                    .spawn(move || handle_conn(slot, reader, writer));
            }
            Err(_) => {
                // Accept errors are transient (descriptor exhaustion,
                // a client aborting mid-handshake): back off and keep
                // serving rather than stop accepting for good.
                mttkrp_obs::counter!("serve.accept_errors").incr();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    #[cfg(unix)]
    if let BoundAddr::Unix(p) = &shared.addr {
        let _ = std::fs::remove_file(p);
    }
}

/// One counted connection; dropping it frees the slot.
struct ConnSlot(Arc<Shared>);

impl ConnSlot {
    fn take(shared: &Arc<Shared>) -> ConnSlot {
        shared.conns.fetch_add(1, Ordering::Relaxed);
        ConnSlot(shared.clone())
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

fn reject(writer: &SharedWriter, code: u32, reason: String) {
    let id = String::new();
    emit(writer, &JobEvent::Rejected { id, code, reason });
}

/// Serve one connection's requests; `slot` counts it until this returns.
fn handle_conn(slot: ConnSlot, mut reader: Box<dyn BufRead + Send>, writer: SharedWriter) {
    let shared = &slot.0;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            let reason = format!("request line longer than {MAX_LINE_BYTES} bytes");
            reject(&writer, 413, reason);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match JobRequest::parse(line) {
            Err(reason) => reject(&writer, 400, reason),
            Ok(JobRequest::Status) => {
                let (active, queued) = shared.admission.counts();
                let cfg = shared.admission.config();
                emit(
                    &writer,
                    &JobEvent::Status {
                        active,
                        queued,
                        max_active: cfg.max_active,
                        queue_cap: cfg.queue_cap,
                    },
                );
            }
            Ok(JobRequest::Shutdown) => {
                emit(&writer, &JobEvent::ShuttingDown);
                shared.stop.store(true, Ordering::Release);
                shared.poke();
                break;
            }
            Ok(JobRequest::Cancel { id }) => cancel_job(shared, &id, &writer),
            Ok(JobRequest::Submit { id, spec }) => submit_job(shared, id, spec, &writer),
        }
    }
}

fn cancel_job(shared: &Arc<Shared>, id: &str, writer: &SharedWriter) {
    let token = shared.cancels.lock().unwrap().get(id).cloned();
    match token {
        None => emit(
            writer,
            &JobEvent::Error {
                id: id.to_string(),
                reason: "unknown job id".into(),
            },
        ),
        Some(token) => {
            token.cancel();
            mttkrp_obs::counter!("serve.jobs_cancelled").incr();
            // A *queued* job cancels immediately: pull it out of the
            // queue so it never occupies an active slot.
            for job in shared.admission.remove_queued(|j| j.id == id) {
                shared.cancels.lock().unwrap().remove(&job.id);
                emit(&job.writer, &JobEvent::Cancelled { id: job.id.clone() });
            }
            // A *running* job's driver observes the token between
            // sweeps and emits its own `cancelled` event.
        }
    }
}

fn submit_job(shared: &Arc<Shared>, id: String, spec: JobSpec, writer: &SharedWriter) {
    mttkrp_obs::counter!("serve.jobs_submitted").incr();
    {
        let mut cancels = shared.cancels.lock().unwrap();
        if cancels.contains_key(&id) {
            emit(
                writer,
                &JobEvent::Rejected {
                    id,
                    code: 400,
                    reason: "duplicate job id".into(),
                },
            );
            return;
        }
        cancels.insert(id.clone(), CancelToken::new());
    }
    let cancel = shared.cancels.lock().unwrap()[&id].clone();
    let job = Job {
        id: id.clone(),
        spec,
        cancel,
        writer: writer.clone(),
    };
    // Hold this connection's writer across the offer: a driver can pop
    // a queued job at once, and none of its events may overtake
    // `accepted`.
    let mut out = writer.lock().expect("event writer poisoned");
    match shared.admission.offer(job) {
        Offer::Run(job) => {
            write_event(&mut **out, &JobEvent::Accepted { id, queue_depth: 0 });
            drop(out);
            // The offer already claimed an active slot; the driver
            // owns it until `finish`.
            spawn_driver(shared, job);
        }
        Offer::Queued(depth) => {
            write_event(
                &mut **out,
                &JobEvent::Accepted {
                    id,
                    queue_depth: depth,
                },
            );
        }
        Offer::Rejected(job) => {
            mttkrp_obs::counter!("serve.jobs_rejected").incr();
            shared.cancels.lock().unwrap().remove(&job.id);
            write_event(
                &mut **out,
                &JobEvent::Rejected {
                    id: job.id,
                    code: 429,
                    reason: "admission queue full".into(),
                },
            );
        }
    }
}

fn spawn_driver(shared: &Arc<Shared>, job: Job) {
    let driver_shared = shared.clone();
    let h = std::thread::Builder::new()
        .name("tensorcpd-driver".into())
        .spawn(move || run_driver(driver_shared, job))
        .expect("failed to spawn job driver");
    shared.drivers.lock().unwrap().push(h);
}

/// Drive jobs to completion, chaining onto the queue head after each:
/// the active slot this driver holds is handed from job to job by
/// `Admission::finish`, so the daemon runs exactly `max_active` drivers
/// whenever work is waiting.
fn run_driver(shared: Arc<Shared>, first: Job) {
    let mut job = first;
    loop {
        // A panic inside one job is reported to that job's client; the
        // driver carries on, so the active slot it holds is released.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| execute_job(&shared, &job)));
        if let Err(payload) = run {
            mttkrp_obs::counter!("serve.jobs_panicked").incr();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            emit(
                &job.writer,
                &JobEvent::Error {
                    id: job.id.clone(),
                    reason: format!("job panicked: {msg}"),
                },
            );
        }
        shared.cancels.lock().unwrap().remove(&job.id);
        match shared.admission.finish() {
            Some(next) => job = next,
            None => break,
        }
    }
}

/// Load the tensor, size the team, and sweep CP-ALS, streaming events
/// to the job's submitter.
fn execute_job(shared: &Arc<Shared>, job: &Job) {
    if job.cancel.is_cancelled() {
        mttkrp_obs::counter!("serve.jobs_cancelled_before_start").incr();
        emit(&job.writer, &JobEvent::Cancelled { id: job.id.clone() });
        return;
    }
    let _span = mttkrp_obs::span_full!("serve.job");
    let spec = &job.spec;
    let outcome = match spec.format {
        Format::Dense => read_tensor::<f64>(&spec.path)
            .map_err(|e| format!("failed to read dense tensor: {e}"))
            .map(|x| {
                let dims = x.dims().to_vec();
                (dims, DriverInput::Dense(x))
            }),
        Format::Sparse => read_sparse(&spec.path)
            .map_err(|e| format!("failed to read sparse tensor: {e}"))
            .map(|coo| {
                let csf = CsfTensor::from_coo(&coo);
                let dims = csf.dims().to_vec();
                (dims, DriverInput::Sparse(csf))
            }),
        Format::Ooc => OocTensor::open(&spec.path)
            .map_err(|e| format!("failed to open out-of-core tensor: {e}"))
            .map(|x| {
                let dims = x.dims().to_vec();
                (dims, DriverInput::Ooc(Box::new(x)))
            }),
    };
    let (dims, input) = match outcome {
        Ok(v) => v,
        Err(reason) => {
            emit(
                &job.writer,
                &JobEvent::Error {
                    id: job.id.clone(),
                    reason,
                },
            );
            return;
        }
    };
    if dims.is_empty() || spec.rank == 0 {
        emit(
            &job.writer,
            &JobEvent::Error {
                id: job.id.clone(),
                reason: "degenerate tensor or rank".into(),
            },
        );
        return;
    }
    let factor_elems = dims
        .iter()
        .try_fold(0usize, |sum, &d| sum.checked_add(d))
        .and_then(|sum| sum.checked_mul(spec.rank));
    if factor_elems.is_none_or(|e| e > MAX_FACTOR_ELEMS) {
        emit(
            &job.writer,
            &JobEvent::Error {
                id: job.id.clone(),
                reason: format!(
                    "factor matrices of rank {} over dims {dims:?} exceed \
                     {MAX_FACTOR_ELEMS} elements",
                    spec.rank
                ),
            },
        );
        return;
    }
    let team = if spec.threads > 0 {
        spec.threads.min(shared.max_team)
    } else {
        choose_team(&dims, spec.rank, shared.max_team)
    };
    emit(
        &job.writer,
        &JobEvent::Started {
            id: job.id.clone(),
            team,
        },
    );
    let mut pool = ThreadPool::with_scheduler(team, shared.sched.clone());
    pool.set_cancel_token(job.cancel.clone());
    let init = KruskalModel::<f64>::random(&dims, spec.rank, spec.seed);
    let started = Instant::now();
    let result = match input {
        DriverInput::Dense(x) => drive(job, &pool, &x, init),
        DriverInput::Sparse(x) => drive(job, &pool, &x, init),
        DriverInput::Ooc(x) => drive(job, &pool, &*x, init),
    };
    let Some((model, fits, converged)) = result else {
        mttkrp_obs::counter!("serve.jobs_cancelled_running").incr();
        emit(&job.writer, &JobEvent::Cancelled { id: job.id.clone() });
        return;
    };
    let factors = spec.return_factors.then(|| FactorPayload {
        dims: dims.clone(),
        rank: spec.rank,
        factors: model.factors.clone(),
        lambda: model.lambda.clone(),
    });
    mttkrp_obs::counter!("serve.jobs_completed").incr();
    emit(
        &job.writer,
        &JobEvent::Done {
            id: job.id.clone(),
            iters: fits.len(),
            final_fit: fits.last().copied().unwrap_or(f64::NAN),
            converged,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            factors,
        },
    );
}

enum DriverInput {
    Dense(DenseTensor<f64>),
    Sparse(CsfTensor),
    Ooc(Box<OocTensor>),
}

/// Sweep CP-ALS over any backend, checking the cancel token between
/// sweeps and streaming per-iteration fits. `None` means cancelled.
fn drive<X: MttkrpBackend<Elem = f64>>(
    job: &Job,
    pool: &ThreadPool,
    x: &X,
    init: KruskalModel<f64>,
) -> Option<(KruskalModel<f64>, Vec<f64>, bool)> {
    let spec = &job.spec;
    let opts = CpAlsOptions {
        max_iters: spec.max_iters,
        tol: spec.tol,
        strategy: MttkrpStrategy::Auto,
    };
    let mut sweeper = CpAlsSweep::new(pool, x, init, &opts);
    let mut fits = Vec::new();
    let mut converged = false;
    for iter in 0..spec.max_iters {
        if job.cancel.is_cancelled() {
            return None;
        }
        let (fit, _) = sweeper.sweep(pool, x);
        if spec.stream_fits {
            emit(
                &job.writer,
                &JobEvent::Fit {
                    id: job.id.clone(),
                    iter,
                    fit,
                },
            );
        }
        let delta = fits.last().map_or(f64::INFINITY, |p: &f64| (fit - p).abs());
        fits.push(fit);
        if spec.tol > 0.0 && delta < spec.tol {
            converged = true;
            break;
        }
    }
    Some((sweeper.into_model(), fits, converged))
}
