//! PR 7 trajectory record: the observability layer's cost — written to
//! `BENCH_pr7.json` via the shared [`BenchReport`] builder (schema in
//! docs/FORMATS.md).
//!
//! Two questions, answered per algorithm on an internal mode:
//!
//! 1. **What does a disabled probe cost?** Every span site in the
//!    instrumented build pays one relaxed atomic load when tracing is
//!    off, and every GEMM call one more for the metrics gate. The
//!    bench microbenchmarks the per-check cost, counts the checks one
//!    planned execution actually performs (spans seen at `full` level
//!    plus GEMM calls from the metrics counters), and asserts the
//!    product stays ≤ 2% of the execution's off-level wall time — the
//!    "instrumented build is indistinguishable" acceptance bound,
//!    computed from measured quantities rather than a second binary.
//! 2. **What does an *enabled* trace cost?** The same executions are
//!    measured at `off`, `spans`, and `full` levels; the ratios are
//!    recorded (not asserted — enabled tracing is allowed to cost).
//!
//! Env knobs: `MTTKRP_BENCH_SMOKE=1` shrinks the fixture,
//! `MTTKRP_BENCH_OUT` overrides the output path,
//! `MTTKRP_BENCH_SAMPLES` the per-measurement sample count.

use mttkrp_bench::{sample_min, MttkrpFixture, RANK};
use mttkrp_core::{AlgoChoice, MttkrpPlan, TwoStepSide};
use mttkrp_obs::{
    registry, set_metrics_enabled, set_trace_level, take_spans, BenchReport, SpanGuard, TraceLevel,
};
use mttkrp_parallel::ThreadPool;

const SAMPLES: usize = 7;
const OFF_OVERHEAD_BOUND: f64 = 0.02;

fn samples() -> usize {
    std::env::var("MTTKRP_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(SAMPLES)
}

/// Nanoseconds one disabled span probe costs: the relaxed level load
/// plus the branch, measured over a tight loop of real guard sites.
fn disabled_check_ns() -> f64 {
    set_trace_level(TraceLevel::Off);
    let iters: u64 = 16_000_000;
    // Warm the branch predictor and the level cacheline.
    for _ in 0..10_000 {
        let g = SpanGuard::enter(TraceLevel::Spans, "probe", "mttkrp-bench", "", 0);
        std::hint::black_box(&g);
    }
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        let g = SpanGuard::enter(
            TraceLevel::Spans,
            "probe",
            "mttkrp-bench",
            "i",
            i as i64, // varying payload keeps the guard from folding away
        );
        std::hint::black_box(&g);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Total GEMM calls recorded so far, summed over kernel tiers.
fn gemm_calls() -> u64 {
    ["scalar", "avx2", "avx512", "neon"]
        .iter()
        .map(|t| registry().counter(&format!("blas.gemm_calls.{t}")).value())
        .sum()
}

fn main() {
    let smoke = std::env::var("MTTKRP_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let entries = if smoke { 60_000 } else { 2_000_000 };
    let host = ThreadPool::host();
    let fx = MttkrpFixture::equal(3, entries);
    let dims = fx.dims.clone();
    let refs = fx.refs();
    let n = 1; // internal mode: every algorithm (incl. 2-step) applies
    let n_samples = samples();
    let gb = (fx.x.len() as f64) * 8.0 / 1e9;

    let mut report = BenchReport::new(7);
    report
        .scalar("rank", RANK)
        .scalar(
            "dims",
            dims.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
        )
        .scalar("smoke", smoke)
        .scalar("host_threads", host.num_threads())
        .scalar("mode", n);

    let per_check_ns = disabled_check_ns();
    report.scalar("disabled_check_ns", per_check_ns);

    let algos: &[(&str, AlgoChoice)] = &[
        ("1step", AlgoChoice::OneStep),
        ("2step", AlgoChoice::TwoStep(TwoStepSide::Auto)),
    ];
    let levels = [TraceLevel::Off, TraceLevel::Spans, TraceLevel::Full];

    let mut all_met = true;
    for &(name, choice) in algos {
        let mut plan = MttkrpPlan::new(&host, &dims, RANK, n, choice);
        let mut out = vec![0.0; dims[n] * RANK];
        plan.execute(&host, &fx.x, &refs, &mut out); // warm up buffers

        // Throughput at each trace level (metrics stay off so the two
        // gates are measured independently).
        set_metrics_enabled(false);
        let mut secs_at = [0.0f64; 3];
        for (i, &level) in levels.iter().enumerate() {
            set_trace_level(level);
            secs_at[i] = sample_min(n_samples, || plan.execute(&host, &fx.x, &refs, &mut out));
            set_trace_level(TraceLevel::Off);
            let _ = take_spans(); // keep the span buffers from filling
            report
                .row("mttkrp")
                .field("algorithm", name)
                .field("level", level.name())
                .field("threads", host.num_threads())
                .field("seconds", secs_at[i])
                .field("gb_per_s", gb / secs_at[i]);
        }

        // Count the disabled checks one execution performs: span sites
        // seen at full level + the per-GEMM metrics gates.
        set_trace_level(TraceLevel::Full);
        let _ = take_spans();
        plan.execute(&host, &fx.x, &refs, &mut out);
        set_trace_level(TraceLevel::Off);
        let span_sites = take_spans().len() as u64;
        set_metrics_enabled(true);
        let calls_before = gemm_calls();
        plan.execute(&host, &fx.x, &refs, &mut out);
        let gemm_gates = gemm_calls() - calls_before;
        set_metrics_enabled(false);

        let checks = span_sites + gemm_gates;
        let off_secs = secs_at[0];
        let overhead_frac = (checks as f64 * per_check_ns * 1e-9) / off_secs;
        let met = overhead_frac <= OFF_OVERHEAD_BOUND;
        all_met &= met;
        report
            .row("off_overhead")
            .field("algorithm", name)
            .field("span_sites_per_execute", span_sites)
            .field("gemm_gates_per_execute", gemm_gates)
            .field("off_seconds", off_secs)
            .field("checks_cost_frac", overhead_frac)
            .field("spans_over_off", secs_at[1] / off_secs)
            .field("full_over_off", secs_at[2] / off_secs)
            .field("within_bound", met);
        println!(
            "{name}: off {off_secs:.3e}s, spans x{:.3}, full x{:.3}; \
             {checks} disabled checks = {:.4}% of off time (bound 2%)",
            secs_at[1] / off_secs,
            secs_at[2] / off_secs,
            100.0 * overhead_frac,
        );
    }

    report
        .row("acceptance")
        .field("off_overhead_bound", OFF_OVERHEAD_BOUND)
        .field("off_overhead_met", all_met);

    let out = BenchReport::out_path(&format!(
        "{}/../../BENCH_pr7.json",
        env!("CARGO_MANIFEST_DIR")
    ));
    report.save(&out).expect("write BENCH_pr7.json");
    print!("{}", report.to_json());
    eprintln!("# wrote {out}");

    assert!(
        all_met,
        "disabled-path observability overhead exceeds {:.0}%",
        100.0 * OFF_OVERHEAD_BOUND
    );
}
