//! Per-algorithm phase-time predictions on the modeled machine.
//!
//! Each predictor mirrors the phase structure of the corresponding
//! implementation in `mttkrp-core` and fills the same [`Breakdown`]
//! categories, so the harness can print modeled Figure 5/6/8 series
//! next to measured ones.

use mttkrp_core::{AlgoChoice, Breakdown};
use mttkrp_tensor::DimInfo;

use crate::Machine;

/// Modeled time of the paper's plotted "Baseline": one MKL-style DGEMM
/// of the MTTKRP shape (`I_n × I≠n` · `I≠n × C`), excluding reorder and
/// KRP time.
pub fn predict_baseline(m: &Machine, dims: &[usize], n: usize, c: usize, t: usize) -> f64 {
    let info = DimInfo::new(dims);
    m.gemm_time(info.dim(n), c, info.i_neq(n), t, true)
}

/// Modeled Bader–Kolda explicit MTTKRP: reorder + full KRP + DGEMM.
pub fn predict_explicit(m: &Machine, dims: &[usize], n: usize, c: usize, t: usize) -> Breakdown {
    let info = DimInfo::new(dims);
    let mut bd = Breakdown::default();
    // Strided gather/scatter of every entry costs about two STREAM
    // passes (read at stride, write contiguous, TLB-unfriendly).
    bd.reorder = 2.0 * m.stream_time(info.total(), t);
    bd.full_krp = m.krp_time(info.i_neq(n), c, dims.len() - 1, true, t);
    bd.dgemm = m.gemm_time(info.dim(n), c, info.i_neq(n), t, true);
    bd.total = bd.categorized();
    bd
}

/// Modeled 1-step MTTKRP (Algorithm 3).
pub fn predict_1step(m: &Machine, dims: &[usize], n: usize, c: usize, t: usize) -> Breakdown {
    let info = DimInfo::new(dims);
    let nmodes = dims.len();
    let i_n = info.dim(n);
    let i_neq = info.i_neq(n);
    let mut bd = Breakdown::default();

    if n == 0 || n == nmodes - 1 {
        // External: per-thread KRP blocks + one GEMM each + reduction.
        bd.full_krp = m.krp_time(i_neq, c, nmodes - 1, true, t);
        // Column-partitioned GEMM with private outputs: linear thread
        // scaling of compute, shared memory bandwidth.
        let flops = 2.0 * i_n as f64 * c as f64 * i_neq as f64;
        let compute = flops / (m.peak_flops_core * t as f64 * m.gemm_eff(i_n, c));
        let bytes = 8.0 * (i_n as f64 * i_neq as f64 + i_neq as f64 * c as f64);
        bd.dgemm = compute.max(bytes / m.bw(t));
        bd.reduce = m.reduce_time(i_n * c, t, t);
    } else {
        let il = info.i_left(n);
        let ir = info.i_right(n);
        // KL formation (tiny) plus per-block K_t = KR(j,:) ⊙ KL
        // expansion: I≠n·C Hadamard elements total. K_t stays
        // cache-resident when IL_n·C is small; otherwise it also pays
        // bandwidth.
        bd.lr_krp = m.krp_time(il, c, n, true, t);
        let expand_elems = (il * ir * c) as f64;
        let expand_compute = expand_elems * m.hadamard_cost / t as f64;
        let kt_bytes = (il * c * 8) as f64;
        let expand_mem = if kt_bytes > 2.0e6 {
            expand_elems * 16.0 / m.bw(t)
        } else {
            0.0
        };
        bd.lr_krp += expand_compute.max(expand_mem);
        // IR_n block GEMMs of I_n × C × IL_n, block-cyclic across threads.
        let flops = 2.0 * i_n as f64 * c as f64 * (il * ir) as f64;
        let compute = flops / (m.peak_flops_core * t as f64 * m.gemm_eff(i_n, c));
        let bytes = 8.0 * info.total() as f64;
        bd.dgemm = compute.max(bytes / m.bw(t));
        bd.reduce = m.reduce_time(i_n * c, t, t);
    }
    bd.total = bd.categorized();
    bd
}

/// Modeled 2-step MTTKRP (Algorithm 4); external modes degenerate to
/// [`predict_1step`].
pub fn predict_2step(m: &Machine, dims: &[usize], n: usize, c: usize, t: usize) -> Breakdown {
    let nmodes = dims.len();
    if n == 0 || n == nmodes - 1 {
        return predict_1step(m, dims, n, c, t);
    }
    let info = DimInfo::new(dims);
    let i_n = info.dim(n);
    let il = info.i_left(n);
    let ir = info.i_right(n);
    let mut bd = Breakdown::default();
    let (krp_rows, krp_modes) = if il > ir {
        // Left: L = X(0:n−1)ᵀ·KL is (I_n·IR_n) × C ← GEMM k = IL_n.
        bd.dgemm = m.gemm_time(i_n * ir, c, il, t, true);
        bd.dgemv = m.gemv_time(i_n, ir, c, t);
        (il, n)
    } else {
        // Right: R = X(0:n)·KR is (IL_n·I_n) × C ← GEMM k = IR_n.
        bd.dgemm = m.gemm_time(il * i_n, c, ir, t, true);
        bd.dgemv = m.gemv_time(i_n, il, c, t);
        (ir, nmodes - 1 - n)
    };
    // Only the GEMM side's KRP is formed, and only when that side spans
    // two or more modes; the multi-TTV reads the other factors directly.
    if krp_modes > 1 {
        bd.lr_krp = m.krp_time(krp_rows, c, krp_modes, true, t);
    }
    bd.total = bd.categorized();
    bd
}

/// The machine-model override for plan construction: hand
/// `MttkrpPlan::new` the predicted 1-step and 2-step times of mode `n`
/// at `t` threads, letting it pick the faster kernel for *this* shape on
/// *this* modeled machine instead of the paper's external/internal rule.
pub fn predicted_choice(m: &Machine, dims: &[usize], n: usize, c: usize, t: usize) -> AlgoChoice {
    AlgoChoice::Predicted {
        one_step: predict_1step(m, dims, n, c, t).total,
        two_step: predict_2step(m, dims, n, c, t).total,
    }
}

/// Modeled Algorithm 1 (or naive) KRP time — the Figure 4 series.
pub fn predict_krp(m: &Machine, rows: usize, c: usize, z: usize, reuse: bool, t: usize) -> f64 {
    m.krp_time(rows, c, z, reuse, t)
}

/// Modeled STREAM Scale time over a `rows × c` matrix — Figure 4's
/// bandwidth roofline series.
pub fn predict_stream(m: &Machine, rows: usize, c: usize, t: usize) -> f64 {
    m.stream_time(rows * c, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_workloads::equal_dims;

    const C: usize = 25;

    fn machine() -> Machine {
        Machine::sandy_bridge_12core()
    }

    /// The paper's Figure 5 synthetic tensors (≈750M entries).
    fn fig5_dims() -> Vec<Vec<usize>> {
        (3..=6).map(|n| equal_dims(n, 750_000_000)).collect()
    }

    #[test]
    fn sequential_ordering_matches_paper() {
        // §5.3.1: sequentially, 2-step ≤ ~baseline (within -25%/+3%) and
        // 1-step ≤ ~2× baseline, for every internal mode and tensor.
        let m = machine();
        for dims in fig5_dims() {
            for n in 1..dims.len() - 1 {
                let base = predict_baseline(&m, &dims, n, C, 1);
                let one = predict_1step(&m, &dims, n, C, 1).total;
                let two = predict_2step(&m, &dims, n, C, 1).total;
                assert!(
                    two <= base * 1.35,
                    "2-step too slow: {two} vs {base} {dims:?} n={n}"
                );
                assert!(
                    base <= two * 1.45,
                    "2-step unrealistically fast {dims:?} n={n}"
                );
                assert!(
                    one <= base * 2.3,
                    "1-step beyond 2x baseline {dims:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn parallel_speedups_in_paper_bands() {
        // §5.3.1: on 12 threads, 1-step speedup 8–12×, 2-step 6–8×
        // (modeled bands widened by ±25%).
        let m = machine();
        for dims in fig5_dims() {
            for n in 0..dims.len() {
                let s1 = predict_1step(&m, &dims, n, C, 1).total
                    / predict_1step(&m, &dims, n, C, 12).total;
                assert!(s1 > 5.0 && s1 < 14.0, "1-step speedup {s1} {dims:?} n={n}");
                if n > 0 && n < dims.len() - 1 {
                    let s2 = predict_2step(&m, &dims, n, C, 1).total
                        / predict_2step(&m, &dims, n, C, 12).total;
                    // Lower band 3.0: for modes with tiny IL_n (e.g. n=1
                    // of the 6-way tensor) the right-side partial GEMM
                    // has a baseline-like small output and its modeled
                    // MKL scaling stalls, dragging the mode below the
                    // paper's aggregate 6–8× band.
                    assert!(s2 > 3.0 && s2 < 12.0, "2-step speedup {s2} {dims:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn proposed_algorithms_beat_baseline_at_12_threads() {
        // §5.3.1: at 12 threads and N > 3 the speedup over the baseline
        // DGEMM ranges from 2× to 4.7×.
        let m = machine();
        for dims in fig5_dims().into_iter().skip(1) {
            for n in 1..dims.len() - 1 {
                let base = predict_baseline(&m, &dims, n, C, 12);
                let two = predict_2step(&m, &dims, n, C, 12).total;
                let ratio = base / two;
                assert!(
                    ratio > 1.5,
                    "expected >1.5x win, got {ratio} {dims:?} n={n}"
                );
                assert!(ratio < 8.0, "implausible win {ratio} {dims:?} n={n}");
            }
        }
    }

    #[test]
    fn krp_fraction_grows_with_order() {
        // Conclusion: for the 6-way tensor's external modes the KRP is
        // a third to half of 1-step time.
        let m = machine();
        let dims = equal_dims(6, 750_000_000);
        let bd = predict_1step(&m, &dims, 0, C, 1);
        let frac = bd.full_krp / bd.total;
        assert!(frac > 0.25 && frac < 0.6, "KRP fraction {frac}");
        // For the 3-way tensor it is minor.
        let dims3 = equal_dims(3, 750_000_000);
        let bd3 = predict_1step(&m, &dims3, 0, C, 1);
        assert!(bd3.full_krp / bd3.total < 0.15);
    }

    #[test]
    fn stream_tracks_krp_reuse() {
        // Figure 4: Algorithm 1 is competitive with STREAM.
        let m = machine();
        let rows = 20_000_000;
        for t in [1usize, 6, 12] {
            let krp = predict_krp(&m, rows, C, 3, true, t);
            let stream = predict_stream(&m, rows, C, t);
            let ratio = krp / stream;
            assert!(ratio > 0.5 && ratio < 2.0, "t={t} ratio={ratio}");
        }
    }

    #[test]
    fn external_mode_2step_equals_1step() {
        let m = machine();
        let dims = equal_dims(4, 1_000_000);
        let a = predict_1step(&m, &dims, 0, C, 4);
        let b = predict_2step(&m, &dims, 0, C, 4);
        assert_eq!(a, b);
    }
}
