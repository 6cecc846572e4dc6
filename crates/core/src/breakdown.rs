//! Per-phase timing breakdown of an MTTKRP call (Figures 6 and 8).

use std::time::Instant;

/// Wall-clock seconds spent in each phase of one MTTKRP invocation.
///
/// The categories match the paper's Figure 6 legend. Phases executed
/// concurrently by several threads (the block GEMMs of the
/// internal-mode 1-step loop) report the **maximum** per-thread sum,
/// which approximates the phase's wall-clock share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Explicit tensor reordering (baseline only).
    pub reorder: f64,
    /// Forming the full KRP (1-step external modes; baseline). The
    /// planned executors generate KRP rows inside `dgemm`, so only the
    /// explicit baseline and the machine model fill it.
    pub full_krp: f64,
    /// Forming left/right partial KRPs and per-block KRP rows
    /// (1-step internal modes; 2-step lines 2–3). Only the machine
    /// model fills it; measured executors count this work in `dgemm`.
    pub lr_krp: f64,
    /// Matrix-matrix multiplication time.
    pub dgemm: f64,
    /// Matrix-vector multiplication time (2-step multi-TTV).
    pub dgemv: f64,
    /// Final parallel reduction of thread-private outputs.
    pub reduce: f64,
    /// End-to-end wall time of the call.
    pub total: f64,
}

impl Breakdown {
    /// Sum of all categorized phase times (excludes `total`).
    pub fn categorized(&self) -> f64 {
        self.reorder + self.full_krp + self.lr_krp + self.dgemm + self.dgemv + self.reduce
    }

    /// Merge per-thread phase sums by taking the max per category —
    /// the wall-clock approximation for concurrently executed phases.
    pub fn max_merge<'a>(parts: impl IntoIterator<Item = &'a Breakdown>) -> Breakdown {
        let mut out = Breakdown::default();
        for p in parts {
            out.reorder = out.reorder.max(p.reorder);
            out.full_krp = out.full_krp.max(p.full_krp);
            out.lr_krp = out.lr_krp.max(p.lr_krp);
            out.dgemm = out.dgemm.max(p.dgemm);
            out.dgemv = out.dgemv.max(p.dgemv);
            out.reduce = out.reduce.max(p.reduce);
            out.total = out.total.max(p.total);
        }
        out
    }

    /// Add another breakdown category-wise (accumulating over CP-ALS
    /// iterations or over modes).
    pub fn accumulate(&mut self, other: &Breakdown) {
        self.accumulate_phases(other);
        self.total += other.total;
    }

    /// Add only the categorized phases, leaving `total` untouched.
    ///
    /// Drivers that overlap sub-calls with other work (the out-of-core
    /// engine runs tile MTTKRPs while an I/O thread prefetches the next
    /// tile) sum their sub-call phases but report their *own* wall time
    /// as `total`, so `total < categorized()` measures the overlap won.
    pub fn accumulate_phases(&mut self, other: &Breakdown) {
        self.reorder += other.reorder;
        self.full_krp += other.full_krp;
        self.lr_krp += other.lr_krp;
        self.dgemm += other.dgemm;
        self.dgemv += other.dgemv;
        self.reduce += other.reduce;
    }

    /// Seconds of categorized work hidden behind the driver's wall
    /// time: `max(0, categorized() − total)`. Zero for a plain serial
    /// execution; positive when a driver overlapped sub-call phases
    /// with other work (see [`Breakdown::accumulate_phases`]) or when
    /// concurrently executed phases were max-merged. The same overlap
    /// is visible structurally in the span timeline (`MTTKRP_TRACE`):
    /// compute spans on the main thread run concurrently with
    /// `tile_read` spans on the prefetch thread.
    pub fn overlap(&self) -> f64 {
        (self.categorized() - self.total).max(0.0)
    }
}

/// Time a closure, adding the elapsed seconds to `slot`, and return its
/// value.
#[inline]
pub(crate) fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot += t0.elapsed().as_secs_f64();
    r
}

/// [`timed`] that also emits a detail span (`MTTKRP_TRACE=full`) named
/// `name`, so the phase shows up on the trace timeline as well as in
/// the breakdown slot.
#[inline]
pub(crate) fn timed_traced<R>(name: &'static str, slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let _s = mttkrp_obs::span_full!(name);
    timed(slot, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_accumulates() {
        let mut slot = 0.0;
        let v = timed(&mut slot, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(slot >= 0.004, "slot={slot}");
        timed(&mut slot, || {});
        assert!(slot >= 0.004);
    }

    #[test]
    fn max_merge_takes_per_category_max() {
        let a = Breakdown {
            dgemm: 2.0,
            lr_krp: 1.0,
            ..Default::default()
        };
        let b = Breakdown {
            dgemm: 1.0,
            lr_krp: 3.0,
            ..Default::default()
        };
        let m = Breakdown::max_merge(&[a, b]);
        assert_eq!(m.dgemm, 2.0);
        assert_eq!(m.lr_krp, 3.0);
    }

    #[test]
    fn accumulate_sums() {
        let mut a = Breakdown {
            dgemm: 1.0,
            total: 2.0,
            ..Default::default()
        };
        let b = Breakdown {
            dgemm: 0.5,
            total: 1.0,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.dgemm, 1.5);
        assert_eq!(a.total, 3.0);
        assert_eq!(a.categorized(), 1.5);
    }

    #[test]
    fn overlap_measures_hidden_phase_time() {
        let mut bd = Breakdown {
            total: 1.0,
            ..Default::default()
        };
        assert_eq!(bd.overlap(), 0.0, "serial execution has no overlap");
        bd.accumulate_phases(&Breakdown {
            dgemm: 0.8,
            reduce: 0.4,
            total: 9.0, // sub-call totals are ignored
            ..Default::default()
        });
        assert!((bd.overlap() - 0.2).abs() < 1e-12, "got {}", bd.overlap());
    }

    #[test]
    fn accumulate_phases_leaves_total_alone() {
        let mut a = Breakdown {
            dgemm: 1.0,
            total: 2.0,
            ..Default::default()
        };
        let b = Breakdown {
            dgemm: 0.5,
            reduce: 0.25,
            total: 9.0,
            ..Default::default()
        };
        a.accumulate_phases(&b);
        assert_eq!(a.dgemm, 1.5);
        assert_eq!(a.reduce, 0.25);
        assert_eq!(a.total, 2.0);
    }
}
