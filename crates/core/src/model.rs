//! Process-wide cost-model hook for adaptive plan selection.
//!
//! The machine-model crates sit *above* `mttkrp-core` in the dependency
//! graph (`mttkrp-machine` predicts with core's [`Breakdown`]
//! categories, `mttkrp-tune` calibrates the model's coefficients on the
//! live host), so a plan constructor cannot call them directly. This
//! module inverts the dependency the same way the hardware-kernel
//! dispatch does (`mttkrp_blas::kernels()`): a higher layer installs a
//! cost model **once** per process, and every subsequently built
//! [`crate::MttkrpPlan`] with [`crate::AlgoChoice::Tuned`] consults it
//! to decide between the 1-step and 2-step algorithms for its mode.
//!
//! When no model is installed — no tuning profile was loaded, no
//! machine model registered — [`tuned_cost`] returns `None` and
//! `Tuned` plans fall back to the paper's §5.3.3 heuristic, so the
//! hook is strictly opt-in: behavior without a profile is identical to
//! [`crate::AlgoChoice::Heuristic`].
//!
//! [`Breakdown`]: crate::Breakdown

use std::sync::OnceLock;

/// Predicted seconds for the two dense MTTKRP algorithms on one mode —
/// what an installed cost model returns and what
/// [`crate::AlgoChoice::Predicted`] is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCost {
    /// Predicted seconds for the 1-step algorithm (Algorithm 3).
    pub one_step: f64,
    /// Predicted seconds for the 2-step algorithm (Algorithm 4).
    pub two_step: f64,
}

/// A cost model: `(dims, rank, mode, threads)` to the predicted
/// per-algorithm times, or `None` if the model cannot price the shape.
pub type CostModelFn = dyn Fn(&[usize], usize, usize, usize) -> Option<ModeCost> + Send + Sync;

static COST_MODEL: OnceLock<Box<CostModelFn>> = OnceLock::new();

/// Install the process-wide cost model consulted by
/// [`crate::AlgoChoice::Tuned`] plans built from now on. The first
/// installation wins (like the kernel-tier dispatch); returns `false`
/// if a model was already installed, in which case the existing model
/// stays in effect.
pub fn install_cost_model(model: Box<CostModelFn>) -> bool {
    COST_MODEL.set(model).is_ok()
}

/// Whether a cost model has been installed in this process.
pub fn cost_model_installed() -> bool {
    COST_MODEL.get().is_some()
}

/// Price the mode-`n` MTTKRP of a `dims` tensor at rank `c` on
/// `threads` threads through the installed cost model. `None` when no
/// model is installed (callers fall back to the heuristic).
pub fn tuned_cost(dims: &[usize], c: usize, n: usize, threads: usize) -> Option<ModeCost> {
    COST_MODEL.get().and_then(|m| m(dims, c, n, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: installation is process-global and `cargo test` shares one
    // process per test binary, so this module only checks the
    // *uninstalled* behavior plus type-level properties. Installation
    // semantics are covered by the single-test integration binaries in
    // the workspace root (`tests/tune_install.rs`,
    // `tests/tune_fallback.rs`).

    #[test]
    fn mode_cost_is_plain_data() {
        let a = ModeCost {
            one_step: 1.0,
            two_step: 2.0,
        };
        assert_eq!(a, a);
        assert!(format!("{a:?}").contains("one_step"));
    }
}
