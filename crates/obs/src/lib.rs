//! Unified observability for the MTTKRP workspace: tracing spans, a
//! process-wide metrics registry, trace exporters, roofline
//! attribution, and the JSON reader/writer they share.
//!
//! Everything here is **compiled in and runtime-gated**, with the
//! disabled path costing a single relaxed atomic load per site:
//!
//! * **Spans** ([`trace`]) — `let _s = span!("mttkrp", mode = n);`
//!   opens an RAII guard recorded into a fixed-capacity per-thread
//!   buffer when `MTTKRP_TRACE` (or [`set_trace_level`]) enables
//!   tracing. [`span!`](crate::span) spans form the coarse timeline
//!   (plan construction → per-mode MTTKRP → Gram → solve, OOC tile
//!   reads); [`span_full!`](crate::span_full) adds the per-phase
//!   detail (KRP, GEMM, reduce, tile waits) under `MTTKRP_TRACE=full`.
//! * **Exporters** ([`export`]) — drained spans render as chrome-trace
//!   JSON (load in Perfetto / `chrome://tracing`) or the compact
//!   self-describing `mttkrp-trace-v1` format.
//! * **Metrics** ([`metrics`]) — named counters / gauges / histograms
//!   behind [`registry`], with `&'static` handles cached per call site
//!   by the [`counter!`](crate::counter), [`gauge!`](crate::gauge) and
//!   [`histogram!`](crate::histogram) macros so the record path is a
//!   bare relaxed atomic op.
//! * **Roofline attribution** ([`roofline`]) — [`PerfReport`] folds
//!   measured phase seconds, byte/flop estimates, and machine roofs
//!   into percent-of-roof and bandwidth-vs-compute verdicts per phase
//!   and mode, rendered as a utilization table and the
//!   `mttkrp-perf-v1` envelope. (The model-aware bridge that feeds it
//!   lives in `mttkrp-tune`, which knows the calibrated roofs.)
//! * **Prometheus exposition** ([`metrics::render_prometheus`]) — the
//!   registry rendered in the Prometheus text format, groundwork for
//!   a scraping daemon.
//!
//! The crate has no dependencies (std only) and sits below every other
//! crate in the workspace, so any layer can record without cycles.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod roofline;
pub mod trace;

pub use export::{chrome_trace, compact_trace, write_chrome_trace, write_compact_trace};
pub use json::JsonValue;
pub use metrics::{
    metrics_enabled, registry, render_prometheus, set_metrics_enabled, Counter, Gauge, Histogram,
    Registry,
};
pub use roofline::{Bound, ModeAttribution, PerfReport, PhaseAttribution, PhaseSample};
pub use trace::{
    dropped_spans, set_trace_level, take_spans, thread_names, trace_level, SpanGuard, SpanRecord,
    TraceLevel,
};

/// Open a coarse-timeline span (recorded at `MTTKRP_TRACE=spans` and
/// above). Expands to a [`SpanGuard`] that must be bound to a local —
/// the span covers the guard's scope. The category is the calling
/// crate's name (via `CARGO_PKG_NAME` at the expansion site).
///
/// ```
/// # use mttkrp_obs::span;
/// let _s = span!("mttkrp");
/// let _t = span!("mttkrp", mode = 2usize); // one integer argument
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter(
            $crate::TraceLevel::Spans,
            $name,
            env!("CARGO_PKG_NAME"),
            "",
            0,
        )
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::SpanGuard::enter(
            $crate::TraceLevel::Spans,
            $name,
            env!("CARGO_PKG_NAME"),
            stringify!($key),
            i64::try_from($val).unwrap_or(i64::MAX),
        )
    };
}

/// Open a detail span (recorded only at `MTTKRP_TRACE=full`). Same
/// shape as [`span!`](crate::span); use inside hot loops where the
/// coarse timeline would be too noisy at the `spans` level.
#[macro_export]
macro_rules! span_full {
    ($name:expr) => {
        $crate::SpanGuard::enter(
            $crate::TraceLevel::Full,
            $name,
            env!("CARGO_PKG_NAME"),
            "",
            0,
        )
    };
    ($name:expr, $key:ident = $val:expr) => {
        $crate::SpanGuard::enter(
            $crate::TraceLevel::Full,
            $name,
            env!("CARGO_PKG_NAME"),
            stringify!($key),
            i64::try_from($val).unwrap_or(i64::MAX),
        )
    };
}

/// The counter named by the literal, resolved through [`registry`] once
/// per call site and cached in a local `static` — repeat executions are
/// a single relaxed atomic add away.
///
/// ```
/// # use mttkrp_obs::counter;
/// counter!("core.plans_built").incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// The gauge named by the literal, cached per call site like
/// [`counter!`](crate::counter).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// The histogram named by the literal, cached per call site like
/// [`counter!`](crate::counter).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_macros_cache_per_site() {
        let a = counter!("test.lib_macro_counter");
        a.add(2);
        let b = counter!("test.lib_macro_counter");
        assert!(std::ptr::eq(a, b) || b.value() >= 2);
        gauge!("test.lib_macro_gauge").add(5);
        assert_eq!(gauge!("test.lib_macro_gauge").value(), 5);
        histogram!("test.lib_macro_hist").record(9);
        assert_eq!(histogram!("test.lib_macro_hist").count(), 1);
    }

    #[test]
    fn span_macro_compiles_with_and_without_arg() {
        // Level may be anything here (other tests mutate it); just
        // exercise both expansions.
        let _a = span!("lib_macro_span");
        let _b = span!("lib_macro_span", mode = 1usize);
        let _c = span_full!("lib_macro_detail", bytes = u64::MAX);
    }
}
