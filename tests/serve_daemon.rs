//! End-to-end battery for the `tensorcpd` daemon over a Unix socket:
//! concurrent mixed-format jobs finish with *exactly* the fits a direct
//! in-process CP-ALS run produces, cancellation hands the freed slot to
//! a queued job, a full admission queue rejects with 429-style
//! backpressure, a hostile request line or tensor file (a forged
//! header included) is refused without harming other tenants, and
//! connections past the cap are turned away with 503 until one closes.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mttkrp_repro::cpals::{cp_als, CpAlsOptions, KruskalModel, MttkrpStrategy};
use mttkrp_repro::ooc::{OocTensor, TileStore, TiledLayout};
use mttkrp_repro::parallel::ThreadPool;
use mttkrp_repro::rng::Rng64;
use mttkrp_repro::sched::Scheduler;
use mttkrp_repro::serve::server::Bind;
use mttkrp_repro::serve::{
    AdmissionConfig, Format, JobEvent, JobRequest, JobSpec, Server, ServerConfig, MAX_CONNS,
    MAX_LINE_BYTES,
};
use mttkrp_repro::sparse::{CooTensor, CsfTensor};
use mttkrp_repro::tensor::DenseTensor;
use mttkrp_repro::workloads::{random_sparse, write_sparse, write_tensor};

const DIMS: [usize; 3] = [10, 8, 6];
const TILE: [usize; 3] = [4, 4, 3];
const NNZ: usize = 240;
const RANK: usize = 3;
const ITERS: usize = 5;

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(sock: &Path) -> Client {
        let writer = UnixStream::connect(sock).expect("connect to daemon");
        // A daemon that never answers fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { reader, writer }
    }

    fn send(&mut self, req: &JobRequest) {
        self.send_raw(&req.to_json());
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
    }

    fn next_event(&mut self) -> JobEvent {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read event");
        assert!(n > 0, "daemon closed connection");
        JobEvent::parse(line.trim()).expect("parse event")
    }
}

/// Write the three workload files into `dir` and return the dense
/// tensor for reference computations.
fn write_workloads(dir: &Path) -> DenseTensor<f64> {
    let mut rng = Rng64::seed_from_u64(0xE2E);
    let total: usize = DIMS.iter().product();
    let x = DenseTensor::from_vec(&DIMS, (0..total).map(|_| rng.next_f64() - 0.5).collect());
    write_tensor(dir.join("x.mtkt"), &x).expect("write dense");
    write_sparse(dir.join("x.mtks"), &random_sparse(&DIMS, NNZ, 0xE2E5)).expect("write sparse");
    let layout = TiledLayout::new(&DIMS, &TILE);
    TileStore::write_dense(dir.join("x.mttb"), &layout, &x).expect("write ooc");
    x
}

fn spec(dir: &Path, file: &str, format: Format, max_iters: usize, seed: u64) -> JobSpec {
    JobSpec {
        path: dir.join(file).to_string_lossy().into_owned(),
        format,
        rank: RANK,
        max_iters,
        tol: 0.0,
        threads: 1,
        seed,
        stream_fits: true,
        return_factors: false,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start(dir: &Path, admission: AdmissionConfig) -> (Server, PathBuf) {
    let sock = dir.join("tensorcpd.sock");
    let server = Server::start(ServerConfig {
        bind: Bind::Unix(sock.clone()),
        admission,
        max_team: 2,
        scheduler: Some(Scheduler::new(1)),
    })
    .expect("start daemon");
    (server, sock)
}

/// The reference trajectory the daemon must reproduce bit for bit: the
/// same seed, options, and a team-1 pool.
fn reference_fits<X: mttkrp_repro::mttkrp::MttkrpBackend<Elem = f64>>(
    x: &X,
    dims: &[usize],
    seed: u64,
) -> Vec<f64> {
    let sched = Scheduler::new(0);
    let pool = ThreadPool::with_scheduler(1, sched.clone());
    let opts = CpAlsOptions {
        max_iters: ITERS,
        tol: 0.0,
        strategy: MttkrpStrategy::Auto,
    };
    let init = KruskalModel::<f64>::random(dims, RANK, seed);
    let (_, report) = cp_als(&pool, x, init, &opts);
    sched.shutdown();
    report.fits
}

/// Drive one job to completion, collecting its fit trajectory.
fn run_to_done(client: &mut Client, id: &str, spec: JobSpec) -> Vec<f64> {
    client.send(&JobRequest::Submit {
        id: id.into(),
        spec,
    });
    let mut fits = Vec::new();
    loop {
        match client.next_event() {
            JobEvent::Accepted { id: eid, .. } => assert_eq!(eid, id),
            JobEvent::Started { id: eid, team } => {
                assert_eq!(eid, id);
                assert_eq!(team, 1, "spec pinned threads=1");
            }
            JobEvent::Fit { id: eid, iter, fit } => {
                assert_eq!(eid, id);
                assert_eq!(iter, fits.len(), "fit events in sweep order");
                fits.push(fit);
            }
            JobEvent::Done {
                id: eid,
                iters,
                final_fit,
                converged,
                ..
            } => {
                assert_eq!(eid, id);
                assert_eq!(iters, fits.len());
                assert!(!converged, "tol=0 never converges early");
                assert_eq!(final_fit.to_bits(), fits.last().unwrap().to_bits());
                return fits;
            }
            other => panic!("job {id}: unexpected event {other:?}"),
        }
    }
}

/// Concurrent dense + sparse + OOC jobs, one connection each, all
/// admitted at once (`max_active = 3`): every trajectory must equal the
/// direct in-process run exactly — the daemon and the scheduler add
/// plumbing, not arithmetic.
#[test]
fn concurrent_mixed_jobs_produce_exact_fits() {
    let dir = fresh_dir("mixed");
    let x = write_workloads(&dir);
    let want_dense = reference_fits(&x, &DIMS, 11);
    let csf = CsfTensor::from_coo(&random_sparse(&DIMS, NNZ, 0xE2E5));
    let want_sparse = reference_fits(&csf, &DIMS, 12);
    let ooc = OocTensor::open(dir.join("x.mttb")).expect("open ooc");
    let want_ooc = reference_fits(&ooc, &DIMS, 13);
    drop(ooc);

    let (mut server, sock) = start(
        &dir,
        AdmissionConfig {
            max_active: 3,
            queue_cap: 4,
        },
    );
    let jobs = [
        ("dense", Format::Dense, "x.mtkt", 11, want_dense),
        ("sparse", Format::Sparse, "x.mtks", 12, want_sparse),
        ("ooc", Format::Ooc, "x.mttb", 13, want_ooc),
    ];
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|(id, format, file, seed, want)| {
            let dir = dir.clone();
            let sock = sock.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock);
                let fits = run_to_done(&mut client, id, spec(&dir, file, format, ITERS, seed));
                assert_eq!(fits.len(), want.len(), "{id}: trajectory length");
                for (i, (got, want)) in fits.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{id} iter {i}: daemon fit {got:e} != direct {want:e}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("job thread");
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// With one active slot: job A hogs it (huge `max_iters`), job B queues
/// behind it. Cancelling A must free the slot, and B — never touched —
/// must run to completion.
#[test]
fn cancelled_job_frees_slot_for_queued_job() {
    let dir = fresh_dir("cancel");
    let _ = write_workloads(&dir);
    let (mut server, sock) = start(
        &dir,
        AdmissionConfig {
            max_active: 1,
            queue_cap: 2,
        },
    );

    let mut a = Client::connect(&sock);
    a.send(&JobRequest::Submit {
        id: "hog".into(),
        spec: spec(&dir, "x.mtkt", Format::Dense, 1_000_000, 1),
    });
    // Wait until A is definitely sweeping (accepted + started + a fit).
    loop {
        match a.next_event() {
            JobEvent::Fit { .. } => break,
            JobEvent::Accepted { .. } | JobEvent::Started { .. } => {}
            other => panic!("hog: unexpected event {other:?}"),
        }
    }

    let mut b = Client::connect(&sock);
    b.send(&JobRequest::Submit {
        id: "patient".into(),
        spec: spec(&dir, "x.mtks", Format::Sparse, ITERS, 2),
    });
    match b.next_event() {
        JobEvent::Accepted { id, queue_depth } => {
            assert_eq!(id, "patient");
            assert_eq!(queue_depth, 1, "B waits behind the hog");
        }
        other => panic!("patient: unexpected event {other:?}"),
    }

    let mut canceller = Client::connect(&sock);
    canceller.send(&JobRequest::Cancel { id: "hog".into() });
    // A's stream drains remaining fit events, then the terminal event.
    loop {
        match a.next_event() {
            JobEvent::Cancelled { id } => {
                assert_eq!(id, "hog");
                break;
            }
            JobEvent::Fit { .. } => {}
            other => panic!("hog: unexpected event {other:?}"),
        }
    }
    // The freed slot must go to B, which runs to completion.
    let mut fits = Vec::new();
    loop {
        match b.next_event() {
            JobEvent::Started { id, .. } => assert_eq!(id, "patient"),
            JobEvent::Fit { fit, .. } => fits.push(fit),
            JobEvent::Done { id, iters, .. } => {
                assert_eq!(id, "patient");
                assert_eq!(iters, ITERS);
                break;
            }
            other => panic!("patient: unexpected event {other:?}"),
        }
    }
    assert_eq!(fits.len(), ITERS);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// With `max_active = 1`, `queue_cap = 1`: the third submit must bounce
/// with a 429 — backpressure, not an unbounded queue. Cancelling the
/// queued job must emit its terminal event without it ever starting.
#[test]
fn full_queue_rejects_with_backpressure() {
    let dir = fresh_dir("reject");
    let _ = write_workloads(&dir);
    let (mut server, sock) = start(
        &dir,
        AdmissionConfig {
            max_active: 1,
            queue_cap: 1,
        },
    );

    let mut a = Client::connect(&sock);
    a.send(&JobRequest::Submit {
        id: "a".into(),
        spec: spec(&dir, "x.mtkt", Format::Dense, 1_000_000, 1),
    });
    loop {
        match a.next_event() {
            JobEvent::Fit { .. } => break,
            JobEvent::Accepted { .. } | JobEvent::Started { .. } => {}
            other => panic!("a: unexpected event {other:?}"),
        }
    }

    let mut b = Client::connect(&sock);
    b.send(&JobRequest::Submit {
        id: "b".into(),
        spec: spec(&dir, "x.mtkt", Format::Dense, ITERS, 2),
    });
    match b.next_event() {
        JobEvent::Accepted { id, queue_depth } => {
            assert_eq!(id, "b");
            assert_eq!(queue_depth, 1);
        }
        other => panic!("b: unexpected event {other:?}"),
    }

    let mut c = Client::connect(&sock);
    c.send(&JobRequest::Submit {
        id: "c".into(),
        spec: spec(&dir, "x.mtkt", Format::Dense, ITERS, 3),
    });
    match c.next_event() {
        JobEvent::Rejected { id, code, .. } => {
            assert_eq!(id, "c");
            assert_eq!(code, 429, "queue-full rejection is 429-style");
        }
        other => panic!("c: unexpected event {other:?}"),
    }

    // A rejected id is forgotten: resubmitting later must not hit the
    // duplicate-id guard (after the hog is cancelled the slot frees).
    let mut canceller = Client::connect(&sock);
    canceller.send(&JobRequest::Cancel { id: "b".into() });
    match b.next_event() {
        JobEvent::Cancelled { id } => assert_eq!(id, "b", "queued job cancels without starting"),
        other => panic!("b: unexpected event {other:?}"),
    }
    canceller.send(&JobRequest::Cancel { id: "a".into() });
    loop {
        match a.next_event() {
            JobEvent::Cancelled { id } => {
                assert_eq!(id, "a");
                break;
            }
            JobEvent::Fit { .. } => {}
            other => panic!("a: unexpected event {other:?}"),
        }
    }
    let mut c2 = Client::connect(&sock);
    let fits = run_to_done(&mut c2, "c", spec(&dir, "x.mtkt", Format::Dense, ITERS, 3));
    assert_eq!(fits.len(), ITERS);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile request lines that would each abort or bloat an unguarded
/// daemon for every tenant: 200,000 `[` (stack overflow in a recursive
/// parser), a rank of 2^45 (an impossible factor allocation), a seed
/// above 2^53 (silently rounded by an f64 reader), and a line longer
/// than `MAX_LINE_BYTES` with no newline in sight. Each is answered with
/// a rejection on its own connection (400, 400, 400, then 413 and a
/// close), and a job on another connection must still finish with the
/// in-process fit.
#[test]
fn hostile_nesting_is_rejected_and_other_tenants_are_unharmed() {
    let dir = fresh_dir("hostile");
    let x = write_workloads(&dir);
    let want = reference_fits(&x, &DIMS, 21);
    let (mut server, sock) = start(
        &dir,
        AdmissionConfig {
            max_active: 1,
            queue_cap: 1,
        },
    );

    let mut hostile = Client::connect(&sock);
    hostile.send_raw(&"[".repeat(200_000));
    match hostile.next_event() {
        JobEvent::Rejected { code, reason, .. } => {
            assert_eq!(code, 400, "malformed requests are 400-style");
            assert!(reason.contains("nesting"), "{reason}");
        }
        other => panic!("hostile: unexpected event {other:?}"),
    }
    // The hostile connection itself is still served.
    hostile.send(&JobRequest::Status);
    assert!(matches!(hostile.next_event(), JobEvent::Status { .. }));

    let submit = |field: &str, value: &str| {
        format!(
            r#"{{"op":"submit","id":"h","spec":{{"{field}":{value},"path":"p","format":"dense","rank":3}}}}"#
        )
    };
    for (field, value, needle) in [
        ("rank", "35184372088832", "spec.rank"),
        ("seed", "9007199254740993", "2^53"),
    ] {
        hostile.send_raw(&submit(field, value));
        match hostile.next_event() {
            JobEvent::Rejected { code, reason, .. } => {
                assert_eq!(code, 400, "{field}: out-of-range specs are 400-style");
                assert!(reason.contains(needle), "{field}: {reason}");
            }
            other => panic!("hostile {field}: unexpected event {other:?}"),
        }
    }

    // An over-long line is refused without being buffered whole, and
    // the daemon hangs up. The tail of the write may race that close.
    let long = vec![b' '; MAX_LINE_BYTES + 4096];
    let _ = hostile.writer.write_all(&long);
    match hostile.next_event() {
        JobEvent::Rejected { code, .. } => assert_eq!(code, 413, "over-long lines are 413"),
        other => panic!("hostile long line: unexpected event {other:?}"),
    }
    let mut rest = String::new();
    assert!(
        !matches!(hostile.reader.read_line(&mut rest), Ok(n) if n > 0),
        "the daemon must close an over-long connection, got {rest:?}"
    );

    let mut tenant = Client::connect(&sock);
    let fits = run_to_done(
        &mut tenant,
        "after",
        spec(&dir, "x.mtkt", Format::Dense, ITERS, 21),
    );
    assert_eq!(
        fits.last().unwrap().to_bits(),
        want.last().unwrap().to_bits(),
        "final_fit must equal the in-process run"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// With `max_active = 1`, submit each hostile `(id, format, file)` job
/// in `dir` on one connection: each must be accepted and end with an
/// `error` whose reason contains `why`. A dense job on another
/// connection must then start, reproduce the in-process fit bit for
/// bit, and leave no admission slot behind.
fn hostile_files_error_and_spare_other_tenants(
    dir: &Path,
    x: &DenseTensor<f64>,
    jobs: &[(&str, Format, &str)],
    why: &str,
) {
    let want = reference_fits(x, &DIMS, 23);
    let (mut server, sock) = start(
        dir,
        AdmissionConfig {
            max_active: 1,
            queue_cap: 1,
        },
    );

    let mut hostile = Client::connect(&sock);
    for &(id, format, file) in jobs {
        hostile.send(&JobRequest::Submit {
            id: id.into(),
            spec: spec(dir, file, format, ITERS, 1),
        });
        loop {
            match hostile.next_event() {
                JobEvent::Accepted { id: eid, .. } => assert_eq!(eid, id),
                JobEvent::Error { id: eid, reason } => {
                    assert_eq!(eid, id);
                    assert!(reason.contains(why), "{id}: {reason}");
                    break;
                }
                other => panic!("{id}: unexpected event {other:?}"),
            }
        }
    }

    let mut tenant = Client::connect(&sock);
    let fits = run_to_done(
        &mut tenant,
        "after",
        spec(dir, "x.mtkt", Format::Dense, ITERS, 23),
    );
    assert_eq!(
        fits.last().unwrap().to_bits(),
        want.last().unwrap().to_bits(),
        "final_fit must equal the in-process run"
    );
    // The driver releases its slot right after `done`.
    let mut idle = false;
    for _ in 0..500 {
        tenant.send(&JobRequest::Status);
        match tenant.next_event() {
            JobEvent::Status { active, queued, .. } if active == 0 && queued == 0 => {
                idle = true;
                break;
            }
            JobEvent::Status { .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("status: unexpected event {other:?}"),
        }
    }
    assert!(idle, "an admission slot leaked");
    server.stop();
    std::fs::remove_dir_all(dir).ok();
}

/// Sparse files whose declared dims make the factor matrices impossible
/// with two nonzeros: `[2^32, 4]` used to abort the daemon on a 34 GB
/// factor allocation, and `[2^60, 4]` used to panic its driver
/// ("capacity overflow") and leak the admission slot.
#[test]
fn huge_sparse_dims_get_error_and_release_the_slot() {
    let dir = fresh_dir("huge_dims");
    let x = write_workloads(&dir);
    for (file, d0) in [("huge32.mtks", 1usize << 32), ("huge60.mtks", 1usize << 60)] {
        let coo = CooTensor::from_entries(&[d0, 4], vec![0, 0, d0 - 1, 3], vec![1.0, 2.0]);
        write_sparse(dir.join(file), &coo).expect("write huge sparse");
    }
    let jobs = [
        ("h32", Format::Sparse, "huge32.mtks"),
        ("h60", Format::Sparse, "huge60.mtks"),
    ];
    hostile_files_error_and_spare_other_tenants(&dir, &x, &jobs, "exceed");
}

/// 20-byte MTKT, MTKS and MTTB files whose mode count is `u32::MAX`
/// used to abort the daemon on a 32 GiB allocation of their dims.
#[test]
fn forged_mode_counts_get_error_and_other_tenants_are_unharmed() {
    let dir = fresh_dir("forged_modes");
    let x = write_workloads(&dir);
    for (file, magic) in [
        ("f.mtkt", b"MTKT"),
        ("f.mtks", b"MTKS"),
        ("f.mttb", b"MTTB"),
    ] {
        let mut bytes = magic.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(20, 0);
        std::fs::write(dir.join(file), bytes).expect("write forged file");
    }
    let jobs = [
        ("fd", Format::Dense, "f.mtkt"),
        ("fs", Format::Sparse, "f.mtks"),
        ("fo", Format::Ooc, "f.mttb"),
    ];
    hostile_files_error_and_spare_other_tenants(&dir, &x, &jobs, "modes exceeds");
}

/// `MAX_CONNS` idle connections fill the daemon: the next one gets a
/// 503 `rejected` event and is closed. Closing one idle connection
/// frees its slot for a new client, whose job must still reproduce the
/// in-process fit exactly.
#[test]
fn connections_past_the_cap_get_503_until_one_closes() {
    let dir = fresh_dir("conn_cap");
    let x = write_workloads(&dir);
    let want = reference_fits(&x, &DIMS, 29);
    let (mut server, sock) = start(
        &dir,
        AdmissionConfig {
            max_active: 1,
            queue_cap: 1,
        },
    );

    // One descriptor per idle client keeps the test far below a
    // 1024-descriptor limit (the daemon side holds two per connection).
    let mut idle: Vec<UnixStream> = (0..MAX_CONNS)
        .map(|_| UnixStream::connect(&sock).expect("connect idle client"))
        .collect();
    let mut over = Client::connect(&sock);
    match over.next_event() {
        JobEvent::Rejected { code, reason, .. } => {
            assert_eq!(code, 503, "connections past the cap are 503");
            assert!(reason.contains("too many connections"), "{reason}");
        }
        other => panic!("over-cap connection: unexpected event {other:?}"),
    }
    let mut rest = String::new();
    assert!(
        !matches!(over.reader.read_line(&mut rest), Ok(n) if n > 0),
        "the daemon must close an over-cap connection, got {rest:?}"
    );

    // Closing one idle client frees a slot once the daemon sees its EOF.
    drop(idle.pop());
    let mut tenant = None;
    for _ in 0..500 {
        let mut c = Client::connect(&sock);
        // A turned-away connection may be closed before the request is
        // written, so the write can fail; its 503 is still there to read.
        let _ = writeln!(c.writer, "{}", JobRequest::Status.to_json());
        match c.next_event() {
            JobEvent::Status { .. } => {
                tenant = Some(c);
                break;
            }
            JobEvent::Rejected { code: 503, .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("new connection: unexpected event {other:?}"),
        }
    }
    let mut tenant = tenant.expect("a closed connection's slot was never freed");
    let fits = run_to_done(
        &mut tenant,
        "after",
        spec(&dir, "x.mtkt", Format::Dense, ITERS, 29),
    );
    assert_eq!(
        fits.last().unwrap().to_bits(),
        want.last().unwrap().to_bits(),
        "final_fit must equal the in-process run"
    );
    drop(idle);
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
