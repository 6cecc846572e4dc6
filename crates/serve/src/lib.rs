//! `tensorcpd`: a multi-tenant CP decomposition service.
//!
//! This crate turns the repository's decomposition stack into a
//! long-running daemon: clients submit jobs over a newline-delimited
//! JSON protocol (`mttkrp-jobs-v1`, see `docs/FORMATS.md`) on a Unix or
//! TCP socket, pointing at MTKT/MTKS/MTTB files on disk; the daemon
//! admits them through a bounded queue (rejecting with backpressure
//! when full), sizes each job's parallel team from the tuned cost
//! model, drives CP-ALS sweeps on the shared work-stealing
//! [`Scheduler`](mttkrp_sched::Scheduler), and streams fit trajectories
//! and factor matrices back as events.
//!
//! Layout:
//! * [`protocol`] — request/response envelope types and NDJSON codec.
//! * [`admission`] — bounded queue, active-job table, team sizing.
//! * [`server`] — socket accept loop, connection handling, job drivers.

pub mod admission;
pub mod protocol;
pub mod server;

pub use admission::{choose_team, Admission, AdmissionConfig, Offer};
pub use protocol::{
    FactorPayload, Format, JobEvent, JobRequest, JobSpec, MAX_ITERS, MAX_RANK, MAX_THREADS,
    PROTOCOL,
};
pub use server::{Bind, Server, ServerConfig, MAX_CONNS, MAX_FACTOR_ELEMS, MAX_LINE_BYTES};
