//! Roofline attribution: fold measured phase timings, byte/flop
//! estimates, and machine roofs into a per-execution [`PerfReport`].
//!
//! This module is deliberately **data-driven**: it knows nothing about
//! tuning profiles, kernel tiers, or MTTKRP algorithms. A caller (the
//! bridge in `mttkrp-tune`) supplies one [`PhaseSample`] per observed
//! phase — measured wall seconds next to the bytes/flops the phase
//! moved and the bandwidth/compute roofs it ran under — and this module
//! computes the attribution: achieved GB/s and GFLOP/s, the modeled
//! roofline time `max(bytes/BW, flops/F)`, the percent of that roof
//! actually sustained, and the dominant [`Bound`] per phase and per
//! mode. Reports render as a human-readable utilization table
//! ([`PerfReport::table`]) and as the self-describing
//! [`PerfReport::SCHEMA`] JSON envelope ([`PerfReport::to_json`],
//! documented in docs/FORMATS.md).
//!
//! Percent-of-roof reads as "how much of the modeled best case did the
//! phase sustain": 100% means the phase ran exactly at its roof, lower
//! means headroom, and values above ~110% mean the traffic model
//! overestimated the phase (e.g. a cache-resident working set priced at
//! DRAM bandwidth) — the sanity bound the acceptance bench asserts.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{escape, number};

/// Which roofline term dominates a phase or mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The memory term `bytes / BW(T)` is the larger one.
    Bandwidth,
    /// The compute term `flops / F(T)` is the larger one.
    Compute,
}

impl Bound {
    /// Lower-case name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth",
            Bound::Compute => "compute",
        }
    }
}

/// One measured phase plus the model inputs needed to attribute it.
///
/// `bytes`/`flops` cover the **whole** measured interval (all
/// repetitions the caller accumulated into `seconds`). Roofs are
/// absolute rates: `bw_roof` in bytes/s, `flop_roof` in flops/s, both
/// already scaled to the team size the phase ran at. A roof of 0
/// disables that term (the phase is then attributed entirely to the
/// other one).
#[derive(Debug, Clone)]
pub struct PhaseSample {
    /// Phase name (`krp`, `gemm`, `reduce`, …).
    pub name: String,
    /// Measured wall seconds of the phase.
    pub seconds: f64,
    /// Bytes moved over the measured interval (measured counter or
    /// traffic model).
    pub bytes: f64,
    /// Floating-point operations over the measured interval.
    pub flops: f64,
    /// Bandwidth roof in bytes/s at the executing team size.
    pub bw_roof: f64,
    /// Compute roof in flops/s at the executing team size.
    pub flop_roof: f64,
}

/// The computed attribution of one [`PhaseSample`].
#[derive(Debug, Clone)]
pub struct PhaseAttribution {
    /// Phase name.
    pub name: String,
    /// Measured wall seconds.
    pub seconds: f64,
    /// Achieved throughput, GB/s (`bytes / seconds / 1e9`).
    pub achieved_gb_per_s: f64,
    /// Achieved compute rate, GFLOP/s.
    pub achieved_gflop_per_s: f64,
    /// Bandwidth roof, GB/s.
    pub bw_roof_gb_per_s: f64,
    /// Compute roof, GFLOP/s.
    pub flop_roof_gflop_per_s: f64,
    /// Modeled roofline seconds: `max(bytes/BW, flops/F)`.
    pub roof_seconds: f64,
    /// `100 · roof_seconds / seconds` — fraction of the modeled best
    /// case the phase sustained.
    pub pct_of_roof: f64,
    /// The dominant roofline term.
    pub bound: Bound,
    /// The memory term of the roof (seconds), kept for mode rollups.
    pub bw_seconds: f64,
    /// The compute term of the roof (seconds), kept for mode rollups.
    pub flop_seconds: f64,
}

impl PhaseAttribution {
    /// Attribute one sample; `None` when the phase recorded no time.
    pub fn from_sample(s: &PhaseSample) -> Option<PhaseAttribution> {
        if s.seconds <= 0.0 || !s.seconds.is_finite() {
            return None;
        }
        let bw_seconds = if s.bw_roof > 0.0 {
            s.bytes / s.bw_roof
        } else {
            0.0
        };
        let flop_seconds = if s.flop_roof > 0.0 {
            s.flops / s.flop_roof
        } else {
            0.0
        };
        let roof_seconds = bw_seconds.max(flop_seconds);
        Some(PhaseAttribution {
            name: s.name.clone(),
            seconds: s.seconds,
            achieved_gb_per_s: s.bytes / s.seconds / 1e9,
            achieved_gflop_per_s: s.flops / s.seconds / 1e9,
            bw_roof_gb_per_s: s.bw_roof / 1e9,
            flop_roof_gflop_per_s: s.flop_roof / 1e9,
            roof_seconds,
            pct_of_roof: 100.0 * roof_seconds / s.seconds,
            bound: if bw_seconds >= flop_seconds {
                Bound::Bandwidth
            } else {
                Bound::Compute
            },
            bw_seconds,
            flop_seconds,
        })
    }
}

/// All phases of one attributed mode (or of one whole run).
#[derive(Debug, Clone)]
pub struct ModeAttribution {
    /// Display label (`mode 0`, `all modes`, …).
    pub label: String,
    /// The algorithm that ran (`OneStepExternal`, `TwoStepLeft`, …).
    pub algo: String,
    /// Measured wall seconds of the whole mode.
    pub seconds: f64,
    /// The dominant bound over the mode (larger summed roofline term).
    pub bound: Bound,
    /// `100 · Σ roof_seconds / seconds` over the mode's phases.
    pub pct_of_roof: f64,
    /// Per-phase attributions, in the caller's phase order.
    pub phases: Vec<PhaseAttribution>,
}

/// A per-execution roofline attribution report. Build with
/// [`PerfReport::push_mode`], render with [`PerfReport::table`] /
/// [`PerfReport::to_json`]. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    context: Vec<(String, String)>,
    modes: Vec<ModeAttribution>,
    advisory: Option<String>,
}

impl PerfReport {
    /// The schema tag of the JSON envelope (docs/FORMATS.md).
    pub const SCHEMA: &'static str = "mttkrp-perf-v1";

    /// An empty report.
    pub fn new() -> PerfReport {
        PerfReport::default()
    }

    /// Add (or overwrite) a context entry — dims, rank, threads, tier,
    /// the profile's roofs — emitted verbatim in the envelope header.
    pub fn set_context(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        let value = value.into();
        match self.context.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.context.push((key.to_string(), value)),
        }
        self
    }

    /// Attribute `samples` as one mode. Phases that recorded no time
    /// are dropped; the mode's dominant bound is whichever roofline
    /// term sums larger across the surviving phases.
    pub fn push_mode(&mut self, label: &str, algo: &str, seconds: f64, samples: &[PhaseSample]) {
        let phases: Vec<PhaseAttribution> = samples
            .iter()
            .filter_map(PhaseAttribution::from_sample)
            .collect();
        let bw: f64 = phases.iter().map(|p| p.bw_seconds).sum();
        let fl: f64 = phases.iter().map(|p| p.flop_seconds).sum();
        let roof: f64 = phases.iter().map(|p| p.roof_seconds).sum();
        self.modes.push(ModeAttribution {
            label: label.to_string(),
            algo: algo.to_string(),
            seconds,
            bound: if bw >= fl {
                Bound::Bandwidth
            } else {
                Bound::Compute
            },
            pct_of_roof: if seconds > 0.0 {
                100.0 * roof / seconds
            } else {
                0.0
            },
            phases,
        });
    }

    /// Attach (or replace) the advisory line — the model-drift
    /// "recalibrate" recommendation surfaces here.
    pub fn set_advisory(&mut self, advisory: impl Into<String>) {
        self.advisory = Some(advisory.into());
    }

    /// The advisory, if one was attached.
    pub fn advisory(&self) -> Option<&str> {
        self.advisory.as_deref()
    }

    /// The attributed modes, in insertion order.
    pub fn modes(&self) -> &[ModeAttribution] {
        &self.modes
    }

    /// The context entries, in insertion order.
    pub fn context(&self) -> &[(String, String)] {
        &self.context
    }

    /// The human-readable utilization table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<22} {:>10} {:>8} {:>9} {:>8} {:>9} {:>6}  bound",
            "phase", "seconds", "GB/s", "GFLOP/s", "bw-roof", "fl-roof", "%roof"
        );
        for m in &self.modes {
            let _ = writeln!(
                s,
                "{} [{}]  {:.3e}s  {:.0}% of roof, {}-bound",
                m.label,
                m.algo,
                m.seconds,
                m.pct_of_roof,
                m.bound.name()
            );
            for p in &m.phases {
                let _ = writeln!(
                    s,
                    "  {:<20} {:>10.3e} {:>8.2} {:>9.2} {:>8.2} {:>9.2} {:>6.0}  {}",
                    p.name,
                    p.seconds,
                    p.achieved_gb_per_s,
                    p.achieved_gflop_per_s,
                    p.bw_roof_gb_per_s,
                    p.flop_roof_gflop_per_s,
                    p.pct_of_roof,
                    p.bound.name()
                );
            }
        }
        if let Some(a) = &self.advisory {
            let _ = writeln!(s, "advisory: {a}");
        }
        s
    }

    /// Render the `mttkrp-perf-v1` JSON envelope.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{}\",", Self::SCHEMA);
        s.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            let comma = if i + 1 < self.context.len() { "," } else { "" };
            let _ = write!(s, "\n    \"{}\": \"{}\"{comma}", escape(k), escape(v));
        }
        s.push_str("\n  },\n");
        match &self.advisory {
            Some(a) => {
                let _ = writeln!(s, "  \"advisory\": \"{}\",", escape(a));
            }
            None => s.push_str("  \"advisory\": null,\n"),
        }
        s.push_str("  \"modes\": [");
        for (i, m) in self.modes.iter().enumerate() {
            let comma = if i + 1 < self.modes.len() { "," } else { "" };
            let _ = write!(
                s,
                "\n    {{\"label\": \"{}\", \"algo\": \"{}\", \"seconds\": {}, \"bound\": \"{}\", \"pct_of_roof\": {}, \"phases\": [",
                escape(&m.label),
                escape(&m.algo),
                number(m.seconds),
                m.bound.name(),
                number(m.pct_of_roof)
            );
            for (j, p) in m.phases.iter().enumerate() {
                let pc = if j + 1 < m.phases.len() { "," } else { "" };
                let _ = write!(
                    s,
                    "\n      {{\"name\": \"{}\", \"seconds\": {}, \"achieved_gb_per_s\": {}, \"achieved_gflop_per_s\": {}, \"bw_roof_gb_per_s\": {}, \"flop_roof_gflop_per_s\": {}, \"pct_of_roof\": {}, \"bound\": \"{}\"}}{pc}",
                    escape(&p.name),
                    number(p.seconds),
                    number(p.achieved_gb_per_s),
                    number(p.achieved_gflop_per_s),
                    number(p.bw_roof_gb_per_s),
                    number(p.flop_roof_gflop_per_s),
                    number(p.pct_of_roof),
                    p.bound.name()
                );
            }
            let _ = write!(s, "\n    ]}}{comma}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Write the JSON envelope to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, seconds: f64, bytes: f64, flops: f64) -> PhaseSample {
        PhaseSample {
            name: name.to_string(),
            seconds,
            bytes,
            flops,
            bw_roof: 10e9,    // 10 GB/s
            flop_roof: 100e9, // 100 GFLOP/s
        }
    }

    #[test]
    fn bandwidth_bound_phase_is_attributed() {
        // 1 GB in 0.2 s → 5 GB/s achieved, roof time 0.1 s → 50%.
        let p = PhaseAttribution::from_sample(&sample("krp", 0.2, 1e9, 1e9)).unwrap();
        assert_eq!(p.bound, Bound::Bandwidth);
        assert!((p.achieved_gb_per_s - 5.0).abs() < 1e-9);
        assert!((p.pct_of_roof - 50.0).abs() < 1e-6, "pct={}", p.pct_of_roof);
    }

    #[test]
    fn compute_bound_phase_is_attributed() {
        // 100 GFLOP vs 1 GB: compute term 1 s ≫ memory term 0.1 s.
        let p = PhaseAttribution::from_sample(&sample("gemm", 1.25, 1e9, 100e9)).unwrap();
        assert_eq!(p.bound, Bound::Compute);
        assert!((p.pct_of_roof - 80.0).abs() < 1e-6, "pct={}", p.pct_of_roof);
    }

    #[test]
    fn zero_time_phases_are_dropped() {
        assert!(PhaseAttribution::from_sample(&sample("idle", 0.0, 1.0, 1.0)).is_none());
        let mut r = PerfReport::new();
        r.push_mode(
            "mode 0",
            "OneStepExternal",
            0.2,
            &[sample("krp", 0.2, 1e9, 1e9), sample("idle", 0.0, 1.0, 1.0)],
        );
        assert_eq!(r.modes()[0].phases.len(), 1);
        assert_eq!(r.modes()[0].bound, Bound::Bandwidth);
    }

    #[test]
    fn mode_bound_follows_larger_roof_term() {
        let mut r = PerfReport::new();
        r.push_mode(
            "mode 1",
            "TwoStepLeft",
            2.0,
            &[
                sample("krp", 0.2, 1e9, 1e9),     // memory term 0.1
                sample("gemm", 1.25, 1e9, 200e9), // compute term 2.0
            ],
        );
        assert_eq!(r.modes()[0].bound, Bound::Compute);
        assert!(r.modes()[0].pct_of_roof > 0.0);
    }

    #[test]
    fn json_envelope_is_self_describing_and_balanced() {
        let mut r = PerfReport::new();
        r.set_context("dims", "60x50x40").set_context("rank", "8");
        r.set_context("rank", "16"); // overwrite by key
        r.push_mode(
            "mode 0",
            "OneStepExternal",
            0.2,
            &[sample("krp", 0.2, 1e9, 1e9)],
        );
        r.set_advisory("recalibrate: drift \"detected\"");
        let s = r.to_json();
        assert!(s.contains("\"schema\": \"mttkrp-perf-v1\""));
        assert!(s.contains("\"rank\": \"16\""));
        assert!(!s.contains("\"rank\": \"8\""));
        assert!(s.contains("\"bound\": \"bandwidth\""));
        assert!(s.contains("recalibrate: drift \\\"detected\\\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn table_renders_every_phase_and_the_advisory() {
        let mut r = PerfReport::new();
        r.push_mode(
            "mode 0",
            "TwoStepRight",
            0.2,
            &[sample("gemv", 0.2, 1e9, 3e9)],
        );
        r.set_advisory("recalibrate");
        let t = r.table();
        assert!(t.contains("mode 0 [TwoStepRight]"), "table:\n{t}");
        assert!(t.contains("gemv"), "table:\n{t}");
        assert!(t.contains("advisory: recalibrate"), "table:\n{t}");
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let s = PerfReport::new().to_json();
        assert!(s.contains("\"advisory\": null"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
