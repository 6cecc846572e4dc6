//! Analytic performance model of the paper's testbed — a dual-socket
//! 12-core Sandy Bridge Xeon E5-2620 — used to regenerate the *scaling*
//! figures on hosts that lack 12 physical cores.
//!
//! Every kernel class is modeled with a roofline:
//! `time = max(compute, memory)` where compute scales with threads and
//! an efficiency factor, and memory follows a saturating bandwidth
//! curve `BW(T) = BW₁ · T / (1 + (T−1)/θ)` (single-thread bandwidth on
//! Sandy Bridge is concurrency-limited at roughly 1/6 of the socket
//! aggregate, which is why the paper's memory-bound KRP still scales
//! 6.6–8.3×).
//!
//! Two effects the paper highlights are modeled explicitly:
//!
//! * **GEMM shape efficiency** — very rectangular multiplies (tiny `n`,
//!   enormous `k`) run well below peak even sequentially;
//! * **MKL parallel penalty for inner-product shapes** (§5.3.1) — when
//!   the output matrix is small, MKL forgoes the write-conflict
//!   parallelization (thread-private outputs + reduction) that the
//!   paper's algorithms use, so the baseline DGEMM stops scaling. The
//!   penalty decays with output size, which is exactly why the 2-step
//!   algorithm's "more square" partial MTTKRP scales better.
//!
//! Absolute constants default to the E5-2620 (16 GFLOP/s per core);
//! `mttkrp-tune`'s calibration instead measures this host's GEMM rate,
//! bandwidth curve and Hadamard cost and installs the resulting
//! [`Machine`] with [`install_machine`].

#![deny(missing_docs)]

pub mod predict;

pub use predict::{
    predict_1step, predict_2step, predict_baseline, predict_explicit, predict_krp, predict_stream,
    predicted_choice,
};

use std::sync::OnceLock;

use mttkrp_core::ModeCost;

/// Roofline machine model (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Physical cores modeled.
    pub cores: usize,
    /// Peak double-precision flop rate per core (flops/s).
    pub peak_flops_core: f64,
    /// Single-thread sustainable bandwidth (bytes/s).
    pub bw1: f64,
    /// Bandwidth saturation parameter θ: `BW(T) = bw1·T/(1+(T−1)/θ)`.
    pub bw_theta: f64,
    /// Best-case GEMM efficiency (fraction of peak) for square shapes.
    pub gemm_eff0: f64,
    /// Seconds per element per Hadamard pass in row-wise KRP code
    /// (single thread).
    pub hadamard_cost: f64,
    /// Strength of the MKL small-output parallel penalty (0 disables).
    pub mkl_penalty: f64,
    /// Efficiency of the parallel private-buffer reduction relative to
    /// raw STREAM bandwidth (1.0 = the paper-machine assumption that a
    /// reduction streams at full `BW(T)`; a calibrated profile measures
    /// the real ratio, which barrier overhead drags below 1).
    pub reduce_scale: f64,
}

impl Machine {
    /// The paper's machine: 2 × 6-core Sandy Bridge Xeon E5-2620,
    /// 2.0 GHz, 16 GFLOP/s per core, turbo off.
    pub fn sandy_bridge_12core() -> Self {
        Machine {
            cores: 12,
            peak_flops_core: 16.0e9,
            bw1: 5.5e9,
            bw_theta: 12.0,
            gemm_eff0: 0.90,
            hadamard_cost: 3.0e-9,
            mkl_penalty: 0.35,
            reduce_scale: 1.0,
        }
    }

    /// Saturating bandwidth at `t` threads (bytes/s).
    pub fn bw(&self, t: usize) -> f64 {
        let t = t.max(1) as f64;
        self.bw1 * t / (1.0 + (t - 1.0) / self.bw_theta)
    }

    /// Sequential GEMM efficiency for an `m × n × k` multiply:
    /// penalizes small `m`/`n` register-tile underutilization.
    pub fn gemm_eff(&self, m: usize, n: usize) -> f64 {
        let m = m as f64;
        let n = n as f64;
        self.gemm_eff0 * (n / (n + 8.0)) * (m / (m + 4.0))
    }

    /// Parallel efficiency multiplier for an *MKL-style* GEMM with an
    /// `m × n` output: small outputs (inner-product shapes) stop scaling
    /// (§5.3.1). Our own GEMMs pass `mkl = false` (they parallelize with
    /// private outputs and a reduction, so only bandwidth limits them).
    pub fn gemm_parallel_eff(&self, m: usize, n: usize, t: usize, mkl: bool) -> f64 {
        let t = t.max(1) as f64;
        if !mkl || self.mkl_penalty == 0.0 {
            return t;
        }
        let out = (m * n) as f64;
        let s = self.mkl_penalty * (-out / 5.0e4).exp();
        t / (1.0 + (t - 1.0) * s)
    }

    /// Time of an `m × n × k` GEMM at `t` threads.
    pub fn gemm_time(&self, m: usize, n: usize, k: usize, t: usize, mkl: bool) -> f64 {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let eff_t = self.gemm_parallel_eff(m, n, t, mkl);
        let compute = flops / (self.peak_flops_core * eff_t * self.gemm_eff(m, n));
        let bytes = 8.0 * (m as f64 * k as f64 + k as f64 * n as f64 + 2.0 * m as f64 * n as f64);
        let memory = bytes / self.bw(t);
        compute.max(memory)
    }

    /// Time of `reps` GEMV calls of shape `m × n` at `t` threads
    /// (memory-bound: the matrix is read once per call).
    pub fn gemv_time(&self, m: usize, n: usize, reps: usize, t: usize) -> f64 {
        let flops = 2.0 * (m * n * reps) as f64;
        let compute = flops / (self.peak_flops_core * t as f64 * 0.25);
        let bytes = 8.0 * (m * n * reps) as f64;
        let memory = bytes / self.bw(t);
        compute.max(memory)
    }

    /// Time to produce `rows × c` KRP output with `z` inputs at `t`
    /// threads. `reuse = true` is Algorithm 1 (≈1 Hadamard per row);
    /// `false` is the naive variant (`z−1` Hadamards per row).
    pub fn krp_time(&self, rows: usize, c: usize, z: usize, reuse: bool, t: usize) -> f64 {
        // The naive variant performs z−1 Hadamards per row, but the
        // later passes hit warm caches; an effective 0.75 increment per
        // extra pass matches the paper's measured 1.5–2.5× Reuse gain.
        let hadamards = if reuse || z <= 2 {
            1.0
        } else {
            1.0 + 0.75 * (z - 2) as f64
        };
        let elems = (rows * c) as f64;
        let compute = elems * hadamards * self.hadamard_cost / t as f64;
        // Write + RFO read of the output; factor rows stay cached.
        let memory = elems * 16.0 / self.bw(t);
        compute.max(memory)
    }

    /// STREAM Scale time over `elems` doubles (one read + one write).
    pub fn stream_time(&self, elems: usize, t: usize) -> f64 {
        (elems as f64) * 16.0 / self.bw(t)
    }

    /// Reduction of `t_bufs` private `elems`-sized buffers at `t`
    /// threads (each element read `t_bufs` times, written once), at
    /// the machine's measured reduction efficiency.
    pub fn reduce_time(&self, elems: usize, t_bufs: usize, t: usize) -> f64 {
        if t_bufs <= 1 {
            return 0.0;
        }
        (elems as f64) * 8.0 * (t_bufs as f64 + 1.0) / (self.bw(t) * self.reduce_scale)
    }
}

/// The team size the model recommends for a sparse tree-walk MTTKRP
/// producing `out_elems` output elements from `nnz` nonzeros at rank
/// `c`, at most `t` threads. The walk scales linearly with threads, but
/// every extra thread adds a private `out_elems` accumulator to the
/// final reduction — for hypersparse tensors (tiny `nnz`, huge `I_n`)
/// merging `T` mostly-zero buffers costs more than the walk saves, so
/// the model caps the team where `walk(t') + reduce(t')` is minimized.
/// Ties go to the larger team (the uncapped behavior).
pub fn sparse_team(m: &Machine, out_elems: usize, c: usize, nnz: usize, t: usize) -> usize {
    // Per-nonzero cost of the CSF walk: one `axpy` over a C-row at the
    // leaf plus amortized internal `mul_add`s — about two fused
    // multiply-adds per column, priced with the measured per-element
    // Hadamard cost (the same streamed-FMA kernel family).
    let walk1 = nnz as f64 * c as f64 * 2.0 * m.hadamard_cost;
    let mut best_t = 1usize;
    let mut best = f64::INFINITY;
    for cand in 1..=t.max(1) {
        let cost = walk1 / cand as f64 + m.reduce_time(out_elems, cand, cand);
        if cost <= best {
            best = cost;
            best_t = cand;
        }
    }
    best_t
}

static TUNED_MACHINE: OnceLock<Machine> = OnceLock::new();

/// Install `m` as the process-wide tuned machine model: registers a
/// cost model with `mttkrp-core` (so every later
/// [`mttkrp_core::AlgoChoice::Tuned`] plan prices its mode with
/// [`predict_1step`]/[`predict_2step`] on `m`) and makes `m` available
/// to the sparse planner via [`installed_machine`]. First installation
/// wins; returns `false` (leaving the earlier model in effect) on
/// repeat calls.
pub fn install_machine(m: Machine) -> bool {
    if TUNED_MACHINE.set(m).is_err() {
        return false;
    }
    let m = *TUNED_MACHINE.get().expect("just installed");
    mttkrp_core::install_cost_model(Box::new(move |dims, c, n, t| {
        Some(ModeCost {
            one_step: predict_1step(&m, dims, n, c, t).total,
            two_step: predict_2step(&m, dims, n, c, t).total,
        })
    }))
}

/// The machine installed by [`install_machine`], if any. Planners that
/// can exploit calibrated coefficients (e.g. the sparse team-size cap)
/// consult this and fall back to their uncalibrated defaults on `None`.
pub fn installed_machine() -> Option<&'static Machine> {
    TUNED_MACHINE.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_saturates() {
        let m = Machine::sandy_bridge_12core();
        assert!((m.bw(1) - m.bw1).abs() < 1.0);
        assert!(m.bw(12) > 5.0 * m.bw1, "12-thread bw should scale ~6x");
        assert!(m.bw(12) < 12.0 * m.bw1);
        assert!(m.bw(6) < m.bw(12));
    }

    #[test]
    fn gemm_eff_penalizes_small_n() {
        let m = Machine::sandy_bridge_12core();
        assert!(m.gemm_eff(900, 900) > m.gemm_eff(900, 25));
        assert!(m.gemm_eff(900, 25) > 0.4);
    }

    #[test]
    fn mkl_penalty_only_for_small_outputs() {
        let m = Machine::sandy_bridge_12core();
        // Baseline MTTKRP output (900 × 25) barely scales.
        let small = m.gemm_parallel_eff(900, 25, 12, true);
        assert!(small < 5.0, "small output should stall: {small}");
        // 2-step partial MTTKRP output (810000 × 25) scales fully.
        let big = m.gemm_parallel_eff(810_000, 25, 12, true);
        assert!(big > 11.0, "big output should scale: {big}");
        // Our own GEMMs never pay the penalty.
        assert_eq!(m.gemm_parallel_eff(900, 25, 12, false), 12.0);
    }

    #[test]
    fn paper_headline_baseline_sequential_time_is_plausible() {
        // N=3, 909³ tensor, C=25: baseline DGEMM ≈ 3–6 s sequentially
        // (Figure 5a shows ~5 s).
        let m = Machine::sandy_bridge_12core();
        let i = 909 * 909 * 909 / 909;
        let t = m.gemm_time(909, 25, i, 1, true);
        assert!(t > 2.0 && t < 8.0, "t = {t}");
    }

    #[test]
    fn krp_reuse_beats_naive_and_is_memory_bound_at_scale() {
        let m = Machine::sandy_bridge_12core();
        let rows = 20_000_000;
        let naive = m.krp_time(rows, 25, 4, false, 1);
        let reuse = m.krp_time(rows, 25, 4, true, 1);
        assert!(naive > reuse, "naive {naive} vs reuse {reuse}");
        let ratio = naive / reuse;
        assert!(
            ratio > 1.3 && ratio < 3.5,
            "Fig 4 reports 1.5–2.5x: {ratio}"
        );
        // Parallel KRP speedup in the paper's observed 6.6–8.3x band.
        let speedup = m.krp_time(rows, 25, 3, true, 1) / m.krp_time(rows, 25, 3, true, 12);
        assert!(speedup > 5.0 && speedup < 9.0, "speedup = {speedup}");
    }

    #[test]
    fn stream_and_reduce_are_positive_and_scale() {
        let m = Machine::sandy_bridge_12core();
        assert!(m.stream_time(1 << 20, 1) > m.stream_time(1 << 20, 12));
        assert_eq!(m.reduce_time(1000, 1, 4), 0.0);
        assert!(m.reduce_time(1000, 12, 12) > 0.0);
    }
}
