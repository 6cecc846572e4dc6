//! `perfbench`: the file-to-factors benchmark of the MTTKRP stack.
//!
//! ```text
//! perfbench --workload <cubic3|fmri4|daemon_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's seeded fixture files, runs it, checks every
//! output, and prints the host block and every metric by name and unit,
//! then one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. The
//! metric and workload reference is `perfbench/METRICS.md`.

mod batch;
mod fixtures;
mod host;
mod mix;
mod replay;
mod spans;
mod stats;

use std::fmt::Display;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cubic3,
    Fmri4,
    DaemonMix,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cubic3 => "cubic3",
            Workload::Fmri4 => "fmri4",
            Workload::DaemonMix => "daemon_mix",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        [Workload::Cubic3, Workload::Fmri4, Workload::DaemonMix]
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (cubic3 | fmri4 | daemon_mix)"))
    }
}

/// The end-to-end metrics every `--trace 0` run reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "decomp_s",
    "sweep_s",
    "sweep_s_t1",
    "job_p50_s",
    "job_p90_s",
    "jobs_per_s",
    "peak_rss_mb",
];

/// The per-layer metrics every `--trace 1` run reports, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 29] = [
    "workloads.read_s",
    "workloads.read_gbps",
    "core.plan_s",
    "core.mttkrp_s",
    "core.mttkrp_s.m0",
    "core.mttkrp_s.m1",
    "core.mttkrp_s.m2",
    "blas.gemm_s",
    "blas.gemm_gflops",
    "blas.gemm_pct_roof",
    "blas.gemm_share",
    "blas.gemv_s",
    "krp.time_s",
    "krp.pct_roof",
    "parallel.reduce_s",
    "parallel.reduce_pct_roof",
    "cpals.gram_s",
    "linalg.solve_s",
    "cpals.update_s",
    "cpals.fit_s",
    "sched.region_us",
    "sched.scaling_eff",
    "sched.unaccounted_s",
    "sched.regions_per_sweep",
    "sched.steals_per_sweep",
    "tune.gemm_roof_gflops",
    "tune.bw_roof_gbps",
    "obs.traced_sweep_s",
    "obs.trace_overhead",
];

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Checks, metrics and host facts of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Metrics of the final JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics printed by name only (workload-specific layers, sample
    /// counts, `fail_ratio`).
    details: Vec<(String, f64, &'static str)>,
    host_block: Vec<(String, String)>,
}

impl Report {
    /// Count one attempted operation or check; a failure is reported
    /// on stderr and counted.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    pub fn host(&mut self, key: &str, value: impl Display) {
        self.host_block.push((key.to_string(), value.to_string()));
    }

    /// Print the human-readable block and the final JSON line.
    fn finish(mut self, expected: &[&str]) {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        let complete = names == expected;
        self.check(
            complete,
            format!("metric set {names:?} differs from {expected:?}"),
        );
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        self.check(finite, "every reported metric is finite");
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.detail("fail_ratio", fail_ratio, "ratio");

        for (k, v) in &self.host_block {
            println!("host {k} = {v}");
        }
        for (name, value, unit) in self.metrics.iter().chain(&self.details) {
            println!("metric {name} = {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = match fixtures::ensure(args.workload, args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Everything from here on is measured: the generators' buffers must
    // not count toward `peak_rss_mb`.
    if let Err(e) = host::reset_peak_rss() {
        eprintln!("perfbench: cannot reset the memory high-water mark: {e}");
        return ExitCode::FAILURE;
    }

    let mut report = Report::default();
    for (k, v) in host::block() {
        report.host(&k, v);
    }
    report.host("workload", args.workload.name());
    report.host("seed", args.seed);
    report.host("trace", u8::from(args.trace));
    match fixtures::sizes(args.workload, &dir) {
        Ok(sizes) => {
            for (f, bytes) in sizes {
                report.host(&format!("fixture.{f}"), format!("{bytes} B"));
            }
        }
        Err(e) => report.check(false, format!("fixture sizes: {e}")),
    }

    let outcome = match args.workload {
        Workload::Cubic3 => batch::run::<f64>(&batch::CUBIC3, &dir, &args, &mut report),
        Workload::Fmri4 => batch::run::<f32>(&batch::FMRI4, &dir, &args, &mut report),
        Workload::DaemonMix => mix::run(&dir, &args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    report.finish(if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}
