//! The `mttkrp-jobs-v1` wire protocol.
//!
//! Newline-delimited JSON, one object per line, in both directions
//! (documented normatively in `docs/FORMATS.md`). Requests carry an
//! `"op"`; responses carry an `"event"`. The daemon never interleaves
//! partial lines: each event is serialized and written under one lock.
//!
//! Parsing reuses the in-tree [`JsonValue`] parser from `mttkrp-obs`
//! (the repo builds without a crate registry, so no serde);
//! serialization is hand-rolled through [`JsonOut`] on the same
//! module's `escape` and `number` writers (NaN/∞ become `null`).

use mttkrp_obs::json::{escape, number};
use mttkrp_obs::JsonValue;

/// Protocol identifier carried in every request's `"v"` field.
pub const PROTOCOL: &str = "mttkrp-jobs-v1";

/// Largest `spec.rank` a submit may ask for. The factor matrices are
/// allocated before the tensor is touched, so an unbounded rank could
/// request more memory than the host has and abort the daemon.
pub const MAX_RANK: usize = 4096;

/// Largest `spec.max_iters` a submit may ask for: with `tol = 0` a job
/// runs every sweep it asks for, so an unbounded count could hold an
/// admission slot indefinitely. (A client can still cancel sooner.)
pub const MAX_ITERS: usize = 1_000_000;

/// Largest `spec.threads` a submit may name. The daemon caps the team
/// at its `--max-team` either way; larger values are refused as
/// malformed rather than silently clamped.
pub const MAX_THREADS: usize = 1024;

/// 2^53: JSON numbers are read as `f64`, which holds every integer
/// below this exactly and rounds some above it, so integer fields at or
/// above it are refused rather than silently changed.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Storage format of a submitted tensor (selects the backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Dense MTKT file → in-core `DenseTensor` executors.
    Dense,
    /// Sparse MTKS file → CSF executors.
    Sparse,
    /// Tiled MTTB file → out-of-core streaming executors.
    Ooc,
}

impl Format {
    pub fn as_str(self) -> &'static str {
        match self {
            Format::Dense => "dense",
            Format::Sparse => "sparse",
            Format::Ooc => "ooc",
        }
    }

    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "dense" => Ok(Format::Dense),
            "sparse" => Ok(Format::Sparse),
            "ooc" => Ok(Format::Ooc),
            other => Err(format!(
                "unknown format {other:?} (expected dense | sparse | ooc)"
            )),
        }
    }
}

/// What to decompose and how.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Path (on the daemon's filesystem) of the tensor file.
    pub path: String,
    /// Storage format of the file at `path`.
    pub format: Format,
    /// CP rank.
    pub rank: usize,
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between sweeps
    /// (`0.0` disables early stopping).
    pub tol: f64,
    /// Team size; `0` asks the daemon to size the team from the tuned
    /// cost model (capped by the server's `max_team`).
    pub threads: usize,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Stream a `fit` event after every sweep.
    pub stream_fits: bool,
    /// Attach factor matrices and weights to the `done` event.
    pub return_factors: bool,
}

/// One parsed client request line.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// Submit a decomposition job under a client-chosen id.
    Submit { id: String, spec: JobSpec },
    /// Cancel a running or queued job.
    Cancel { id: String },
    /// Ask for daemon occupancy.
    Status,
    /// Ask the daemon to stop accepting and exit its accept loop.
    Shutdown,
}

fn need_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn opt_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn opt_usize(v: &JsonValue, key: &str, default: usize) -> Result<usize, String> {
    match opt_f64(v, key) {
        None => Ok(default),
        Some(f) if f >= 0.0 && f.fract() == 0.0 && f < MAX_EXACT_INT => Ok(f as usize),
        Some(f) => Err(format!(
            "{key:?} must be a non-negative integer below 2^53, got {f}"
        )),
    }
}

fn opt_usize_at_most(
    v: &JsonValue,
    key: &str,
    default: usize,
    max: usize,
) -> Result<usize, String> {
    match opt_usize(v, key, default)? {
        x if x > max => Err(format!("spec.{key} must be at most {max}, got {x}")),
        x => Ok(x),
    }
}

fn opt_bool(v: &JsonValue, key: &str, default: bool) -> bool {
    v.get(key).and_then(|x| x.as_bool()).unwrap_or(default)
}

impl JobRequest {
    /// Parse one request line. The `"v"` field, when present, must be
    /// [`PROTOCOL`]; absent is tolerated for hand-typed sessions.
    pub fn parse(line: &str) -> Result<JobRequest, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        if let Some(ver) = v.get("v").and_then(|x| x.as_str()) {
            if ver != PROTOCOL {
                return Err(format!("unsupported protocol {ver:?} (want {PROTOCOL:?})"));
            }
        }
        let op = need_str(&v, "op")?;
        match op.as_str() {
            "submit" => {
                let id = need_str(&v, "id")?;
                let spec = v.get("spec").ok_or("missing \"spec\"")?;
                let rank = opt_usize(spec, "rank", 0)?;
                if !(1..=MAX_RANK).contains(&rank) {
                    return Err(format!("spec.rank must be in 1..={MAX_RANK}, got {rank}"));
                }
                Ok(JobRequest::Submit {
                    id,
                    spec: JobSpec {
                        path: need_str(spec, "path")?,
                        format: Format::parse(&need_str(spec, "format")?)?,
                        rank,
                        max_iters: opt_usize_at_most(spec, "max_iters", 25, MAX_ITERS)?,
                        tol: opt_f64(spec, "tol").unwrap_or(0.0),
                        threads: opt_usize_at_most(spec, "threads", 0, MAX_THREADS)?,
                        seed: opt_usize(spec, "seed", 42)? as u64,
                        stream_fits: opt_bool(spec, "stream_fits", true),
                        return_factors: opt_bool(spec, "return_factors", false),
                    },
                })
            }
            "cancel" => Ok(JobRequest::Cancel {
                id: need_str(&v, "id")?,
            }),
            "status" => Ok(JobRequest::Status),
            "shutdown" => Ok(JobRequest::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl JobRequest {
    /// Serialize to one JSON request line (no trailing newline) — the
    /// client half of the codec, used by clients and the tests.
    pub fn to_json(&self) -> String {
        let o = JsonOut::obj().str_field("v", PROTOCOL);
        match self {
            JobRequest::Submit { id, spec } => {
                let nested = JsonOut::obj()
                    .str_field("path", &spec.path)
                    .str_field("format", spec.format.as_str())
                    .u_field("rank", spec.rank)
                    .u_field("max_iters", spec.max_iters)
                    .f_field("tol", spec.tol)
                    .u_field("threads", spec.threads)
                    .u_field("seed", spec.seed as usize)
                    .bool_field("stream_fits", spec.stream_fits)
                    .bool_field("return_factors", spec.return_factors)
                    .finish();
                o.str_field("op", "submit")
                    .str_field("id", id)
                    .raw_field("spec", &nested)
                    .finish()
            }
            JobRequest::Cancel { id } => o.str_field("op", "cancel").str_field("id", id).finish(),
            JobRequest::Status => o.str_field("op", "status").finish(),
            JobRequest::Shutdown => o.str_field("op", "shutdown").finish(),
        }
    }
}

/// Factor payload attached to a `done` event on request.
#[derive(Debug, Clone)]
pub struct FactorPayload {
    pub dims: Vec<usize>,
    pub rank: usize,
    /// Row-major `dims[n] × rank` matrices, one per mode.
    pub factors: Vec<Vec<f64>>,
    /// Component weights, length `rank`.
    pub lambda: Vec<f64>,
}

/// One daemon → client event line.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job was admitted; `queue_depth == 0` means it starts now.
    Accepted { id: String, queue_depth: usize },
    /// The admission queue is full (HTTP-429-style backpressure) or the
    /// request was malformed; `code` distinguishes (429 vs 400).
    Rejected {
        id: String,
        code: u32,
        reason: String,
    },
    /// The job left the queue and its driver started sweeping; `team`
    /// is the parallel team size the daemon chose (spec'd or sized by
    /// the tuned cost model).
    Started { id: String, team: usize },
    /// Fit after one ALS sweep (streamed when `stream_fits`).
    Fit { id: String, iter: usize, fit: f64 },
    /// The job finished; factors attached when `return_factors`.
    Done {
        id: String,
        iters: usize,
        final_fit: f64,
        converged: bool,
        elapsed_ms: f64,
        factors: Option<FactorPayload>,
    },
    /// The job observed its cancellation token and stopped.
    Cancelled { id: String },
    /// The job failed (unreadable file, bad spec against the file, …).
    Error { id: String, reason: String },
    /// Occupancy snapshot in response to `status`.
    Status {
        active: usize,
        queued: usize,
        max_active: usize,
        queue_cap: usize,
    },
    /// Acknowledges `shutdown`.
    ShuttingDown,
}

/// Minimal JSON writer: objects assembled field by field through
/// `mttkrp_obs::json`'s string escaper and number formatter.
pub struct JsonOut {
    buf: String,
    first: bool,
}

impl JsonOut {
    pub fn obj() -> JsonOut {
        JsonOut {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str_field(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.buf, v);
        self
    }

    pub fn u_field(mut self, k: &str, v: usize) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn f_field(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    pub fn bool_field(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn raw_field(mut self, k: &str, raw: &str) -> Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    buf.push_str(&escape(s));
    buf.push('"');
}

fn f64_array(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(","))
}

impl JobEvent {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let o = JsonOut::obj().str_field("v", PROTOCOL);
        match self {
            JobEvent::Accepted { id, queue_depth } => o
                .str_field("event", "accepted")
                .str_field("id", id)
                .u_field("queue_depth", *queue_depth)
                .finish(),
            JobEvent::Rejected { id, code, reason } => o
                .str_field("event", "rejected")
                .str_field("id", id)
                .u_field("code", *code as usize)
                .str_field("reason", reason)
                .finish(),
            JobEvent::Started { id, team } => o
                .str_field("event", "started")
                .str_field("id", id)
                .u_field("team", *team)
                .finish(),
            JobEvent::Fit { id, iter, fit } => o
                .str_field("event", "fit")
                .str_field("id", id)
                .u_field("iter", *iter)
                .f_field("fit", *fit)
                .finish(),
            JobEvent::Done {
                id,
                iters,
                final_fit,
                converged,
                elapsed_ms,
                factors,
            } => {
                let mut o = o
                    .str_field("event", "done")
                    .str_field("id", id)
                    .u_field("iters", *iters)
                    .f_field("final_fit", *final_fit)
                    .bool_field("converged", *converged)
                    .f_field("elapsed_ms", *elapsed_ms);
                if let Some(p) = factors {
                    let dims = format!(
                        "[{}]",
                        p.dims
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    let mats = format!(
                        "[{}]",
                        p.factors
                            .iter()
                            .map(|f| f64_array(f))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    o = o
                        .raw_field("dims", &dims)
                        .u_field("rank", p.rank)
                        .raw_field("factors", &mats)
                        .raw_field("lambda", &f64_array(&p.lambda));
                }
                o.finish()
            }
            JobEvent::Cancelled { id } => o
                .str_field("event", "cancelled")
                .str_field("id", id)
                .finish(),
            JobEvent::Error { id, reason } => o
                .str_field("event", "error")
                .str_field("id", id)
                .str_field("reason", reason)
                .finish(),
            JobEvent::Status {
                active,
                queued,
                max_active,
                queue_cap,
            } => o
                .str_field("event", "status")
                .u_field("active", *active)
                .u_field("queued", *queued)
                .u_field("max_active", *max_active)
                .u_field("queue_cap", *queue_cap)
                .finish(),
            JobEvent::ShuttingDown => o.str_field("event", "shutting_down").finish(),
        }
    }

    /// Parse an event line (the client half of the codec).
    pub fn parse(line: &str) -> Result<JobEvent, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let event = need_str(&v, "event")?;
        let id = || need_str(&v, "id");
        let num = |key: &str| opt_f64(&v, key).ok_or_else(|| format!("missing number {key:?}"));
        match event.as_str() {
            "accepted" => Ok(JobEvent::Accepted {
                id: id()?,
                queue_depth: num("queue_depth")? as usize,
            }),
            "rejected" => Ok(JobEvent::Rejected {
                id: id()?,
                code: num("code")? as u32,
                reason: need_str(&v, "reason")?,
            }),
            "started" => Ok(JobEvent::Started {
                id: id()?,
                team: num("team")? as usize,
            }),
            "fit" => Ok(JobEvent::Fit {
                id: id()?,
                iter: num("iter")? as usize,
                fit: num("fit")?,
            }),
            "done" => {
                let factors = match (v.get("factors"), v.get("lambda"), v.get("dims")) {
                    (Some(f), Some(l), Some(d)) => {
                        let to_vec = |x: &JsonValue| -> Option<Vec<f64>> {
                            x.as_arr()?.iter().map(|e| e.as_f64()).collect()
                        };
                        let dims: Option<Vec<usize>> = d
                            .as_arr()
                            .map(|a| a.iter().filter_map(|e| e.as_f64()).map(|f| f as usize))
                            .map(Iterator::collect);
                        let mats: Option<Vec<Vec<f64>>> =
                            f.as_arr().map(|a| a.iter().filter_map(to_vec).collect());
                        match (dims, mats, to_vec(l), num("rank").ok()) {
                            (Some(dims), Some(factors), Some(lambda), Some(rank)) => {
                                Some(FactorPayload {
                                    dims,
                                    rank: rank as usize,
                                    factors,
                                    lambda,
                                })
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                };
                Ok(JobEvent::Done {
                    id: id()?,
                    iters: num("iters")? as usize,
                    final_fit: num("final_fit")?,
                    converged: opt_bool(&v, "converged", false),
                    elapsed_ms: num("elapsed_ms")?,
                    factors,
                })
            }
            "cancelled" => Ok(JobEvent::Cancelled { id: id()? }),
            "error" => Ok(JobEvent::Error {
                id: id()?,
                reason: need_str(&v, "reason")?,
            }),
            "status" => Ok(JobEvent::Status {
                active: num("active")? as usize,
                queued: num("queued")? as usize,
                max_active: num("max_active")? as usize,
                queue_cap: num("queue_cap")? as usize,
            }),
            "shutting_down" => Ok(JobEvent::ShuttingDown),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_parse() {
        let line = r#"{"v":"mttkrp-jobs-v1","op":"submit","id":"j1","spec":{"path":"/tmp/x.mtkt","format":"dense","rank":4,"max_iters":7,"tol":1e-6,"threads":2,"stream_fits":false,"return_factors":true}}"#;
        match JobRequest::parse(line).unwrap() {
            JobRequest::Submit { id, spec } => {
                assert_eq!(id, "j1");
                assert_eq!(spec.path, "/tmp/x.mtkt");
                assert_eq!(spec.format, Format::Dense);
                assert_eq!(spec.rank, 4);
                assert_eq!(spec.max_iters, 7);
                assert!((spec.tol - 1e-6).abs() < 1e-18);
                assert_eq!(spec.threads, 2);
                assert!(!spec.stream_fits);
                assert!(spec.return_factors);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn spec_defaults_apply() {
        let line = r#"{"op":"submit","id":"j2","spec":{"path":"p","format":"sparse","rank":3}}"#;
        match JobRequest::parse(line).unwrap() {
            JobRequest::Submit { spec, .. } => {
                assert_eq!(spec.format, Format::Sparse);
                assert_eq!(spec.max_iters, 25);
                assert_eq!(spec.threads, 0, "0 = team sized by the daemon");
                assert!(spec.stream_fits);
                assert!(!spec.return_factors);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(JobRequest::parse("not json").is_err());
        assert!(JobRequest::parse(r#"{"op":"submit","id":"x"}"#).is_err());
        assert!(JobRequest::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(
            JobRequest::parse(r#"{"v":"mttkrp-jobs-v2","op":"status"}"#).is_err(),
            "future protocol versions must not silently parse"
        );
        assert!(JobRequest::parse(
            r#"{"op":"submit","id":"x","spec":{"path":"p","format":"dense","rank":0}}"#
        )
        .is_err());
    }

    fn submit_with(field: &str, value: &str) -> Result<JobRequest, String> {
        JobRequest::parse(&format!(
            r#"{{"op":"submit","id":"x","spec":{{"{field}":{value},"path":"p","format":"dense","rank":2}}}}"#
        ))
    }

    #[test]
    fn rank_above_max_rank_is_rejected() {
        assert!(submit_with("rank", &MAX_RANK.to_string()).is_ok());
        let e = submit_with("rank", &(MAX_RANK + 1).to_string()).unwrap_err();
        assert!(e.contains("spec.rank"), "{e}");
        // 2^45: a factor allocation this size aborts the process.
        assert!(submit_with("rank", "35184372088832").is_err());
    }

    #[test]
    fn integers_are_exact_or_refused() {
        let req = JobRequest::Submit {
            id: "s".into(),
            spec: JobSpec {
                path: "p".into(),
                format: Format::Dense,
                rank: 2,
                max_iters: 1,
                tol: 0.0,
                threads: 1,
                seed: (1 << 53) - 1,
                stream_fits: true,
                return_factors: false,
            },
        };
        match JobRequest::parse(&req.to_json()).unwrap() {
            JobRequest::Submit { spec, .. } => assert_eq!(spec.seed, (1 << 53) - 1),
            other => panic!("wrong request: {other:?}"),
        }
        // 2^53 + 1 reads back as the f64 2^53: refused, not rounded.
        let e = submit_with("seed", "9007199254740993").unwrap_err();
        assert!(e.contains("2^53"), "{e}");
        assert!(submit_with("seed", "9007199254740992").is_err());
        assert!(submit_with("max_iters", "1e300").is_err());
    }

    #[test]
    fn max_iters_and_threads_above_their_bounds_are_rejected() {
        assert!(submit_with("max_iters", &MAX_ITERS.to_string()).is_ok());
        let e = submit_with("max_iters", &(MAX_ITERS + 1).to_string()).unwrap_err();
        assert!(e.contains("spec.max_iters"), "{e}");
        // 2^52 sweeps at tol = 0 would hold an admission slot for good.
        assert!(submit_with("max_iters", "4503599627370496").is_err());
        assert!(submit_with("threads", &MAX_THREADS.to_string()).is_ok());
        let e = submit_with("threads", &(MAX_THREADS + 1).to_string()).unwrap_err();
        assert!(e.contains("spec.threads"), "{e}");
    }

    #[test]
    fn deeply_nested_request_is_an_error_not_an_abort() {
        let hostile = "[".repeat(200_000);
        let e = JobRequest::parse(&hostile).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        // Nesting inside an otherwise valid request is refused too.
        let spec = format!(r#"{{"op":"status","x":{}}}"#, "[".repeat(200_000));
        assert!(JobRequest::parse(&spec).is_err());
    }

    #[test]
    fn events_round_trip_and_escape() {
        let events = [
            JobEvent::Accepted {
                id: "a\"b".into(),
                queue_depth: 1,
            },
            JobEvent::Started {
                id: "j".into(),
                team: 3,
            },
            JobEvent::Rejected {
                id: "j".into(),
                code: 429,
                reason: "queue full\n".into(),
            },
            JobEvent::Fit {
                id: "j".into(),
                iter: 2,
                fit: 0.93125,
            },
            JobEvent::Done {
                id: "j".into(),
                iters: 5,
                final_fit: 0.99,
                converged: true,
                elapsed_ms: 12.5,
                factors: Some(FactorPayload {
                    dims: vec![2, 3],
                    rank: 2,
                    factors: vec![vec![1.0, 2.0, 3.0, 4.0], vec![0.5; 6]],
                    lambda: vec![1.0, 1.0],
                }),
            },
            JobEvent::Status {
                active: 2,
                queued: 1,
                max_active: 2,
                queue_cap: 4,
            },
        ];
        for ev in &events {
            let line = ev.to_json();
            let back = JobEvent::parse(&line)
                .unwrap_or_else(|e| panic!("round-trip failed for {line}: {e}"));
            assert_eq!(format!("{ev:?}"), format!("{back:?}"), "line {line}");
        }
    }

    #[test]
    fn non_finite_fit_becomes_null() {
        let line = JobEvent::Fit {
            id: "j".into(),
            iter: 0,
            fit: f64::NAN,
        }
        .to_json();
        assert!(line.contains("\"fit\":null"), "{line}");
    }
}
