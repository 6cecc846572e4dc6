//! Bounded admission: how many jobs run, how many wait, who is turned
//! away, and how large each admitted job's team is.
//!
//! The daemon runs at most `max_active` job drivers at once; up to
//! `queue_cap` further jobs wait in FIFO order; beyond that, submits
//! are rejected immediately (429-style backpressure — the client hears
//! `rejected` instead of hanging on an unbounded queue).
//!
//! Team sizing is the admission-control half of the PR-5 tuned cost
//! model: when a calibrated profile is installed, [`choose_team`]
//! evaluates the model's predicted per-sweep cost at every candidate
//! team size and picks the smallest team within 10% of the best —
//! small jobs get small teams, leaving workers for the rest of the
//! fleet, which is exactly the multi-tenant win over one-job-owns-the-
//! machine sizing. Without a profile it falls back to a work-based
//! heuristic (≈1 slot per 256Ki tensor entries).

use std::collections::VecDeque;
use std::sync::Mutex;

use mttkrp_core::tuned_cost;

/// Admission limits.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Jobs running concurrently.
    pub max_active: usize,
    /// Jobs waiting beyond the active set.
    pub queue_cap: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_active: 2,
            queue_cap: 8,
        }
    }
}

/// Outcome of offering a job to the admission controller.
#[derive(Debug)]
pub enum Offer<J> {
    /// An active slot was claimed; the caller must start the job now.
    Run(J),
    /// Queued at depth `usize` (1 = next in line).
    Queued(usize),
    /// Queue full; the job inside is handed back.
    Rejected(J),
}

struct State<J> {
    active: usize,
    queue: VecDeque<J>,
}

/// Thread-safe bounded admission queue over opaque job payloads.
pub struct Admission<J> {
    cfg: AdmissionConfig,
    state: Mutex<State<J>>,
}

impl<J> Admission<J> {
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(cfg.max_active > 0, "max_active must be at least 1");
        Admission {
            cfg,
            state: Mutex::new(State {
                active: 0,
                queue: VecDeque::new(),
            }),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Offer a job: runs now, waits, or bounces.
    pub fn offer(&self, job: J) -> Offer<J> {
        let mut s = self.state.lock().unwrap();
        if s.active < self.cfg.max_active {
            s.active += 1;
            Offer::Run(job)
        } else if s.queue.len() < self.cfg.queue_cap {
            s.queue.push_back(job);
            Offer::Queued(s.queue.len())
        } else {
            Offer::Rejected(job)
        }
    }

    /// A running job finished (or was cancelled): hand its slot to the
    /// head of the queue, if any. The caller must start the returned
    /// job — its slot is already accounted as active.
    pub fn finish(&self) -> Option<J> {
        let mut s = self.state.lock().unwrap();
        debug_assert!(s.active > 0, "finish without a running job");
        match s.queue.pop_front() {
            Some(next) => Some(next), // slot transfers: active count unchanged
            None => {
                s.active -= 1;
                None
            }
        }
    }

    /// Remove queued jobs matching `pred` (cancellation while waiting)
    /// and return them so the caller can emit their terminal events.
    pub fn remove_queued(&self, mut pred: impl FnMut(&J) -> bool) -> Vec<J> {
        let mut s = self.state.lock().unwrap();
        let mut removed = Vec::new();
        let mut kept = VecDeque::with_capacity(s.queue.len());
        for job in s.queue.drain(..) {
            if pred(&job) {
                removed.push(job);
            } else {
                kept.push_back(job);
            }
        }
        s.queue = kept;
        removed
    }

    /// `(active, queued)` snapshot.
    pub fn counts(&self) -> (usize, usize) {
        let s = self.state.lock().unwrap();
        (s.active, s.queue.len())
    }
}

/// Size a job's parallel team: the smallest team whose predicted
/// per-sweep cost is within 10% of the best candidate's, evaluated
/// through the tuned cost model when one is installed; a work-based
/// heuristic otherwise. Always in `1..=cap`.
pub fn choose_team(dims: &[usize], rank: usize, cap: usize) -> usize {
    let cap = cap.max(1);
    let total: usize = dims.iter().product();
    // Predicted seconds for one full sweep (all modes, each mode's
    // cheapest algorithm) at team size `t`, if the model covers it.
    let sweep_cost = |t: usize| -> Option<f64> {
        let mut sum = 0.0;
        for n in 0..dims.len() {
            let c = tuned_cost(dims, rank, n, t)?;
            sum += c.one_step.min(c.two_step);
        }
        Some(sum)
    };
    if let Some(costs) = (1..=cap).map(sweep_cost).collect::<Option<Vec<f64>>>() {
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        for (i, &c) in costs.iter().enumerate() {
            if c <= best * 1.10 {
                return i + 1;
            }
        }
    }
    // No model: ~1 slot per 256Ki entries, capped.
    (total >> 18).clamp(1, cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_fill_active_then_queue_then_reject() {
        let adm = Admission::new(AdmissionConfig {
            max_active: 2,
            queue_cap: 2,
        });
        assert!(matches!(adm.offer("a"), Offer::Run("a")));
        assert!(matches!(adm.offer("b"), Offer::Run("b")));
        assert!(matches!(adm.offer("c"), Offer::Queued(1)));
        assert!(matches!(adm.offer("d"), Offer::Queued(2)));
        match adm.offer("e") {
            Offer::Rejected(job) => assert_eq!(job, "e"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(adm.counts(), (2, 2));
    }

    #[test]
    fn finish_promotes_fifo_and_frees_slots() {
        let adm = Admission::new(AdmissionConfig {
            max_active: 1,
            queue_cap: 3,
        });
        assert!(matches!(adm.offer(1), Offer::Run(1)));
        assert!(matches!(adm.offer(2), Offer::Queued(1)));
        assert!(matches!(adm.offer(3), Offer::Queued(2)));
        assert_eq!(adm.finish(), Some(2), "FIFO promotion");
        assert_eq!(adm.finish(), Some(3));
        assert_eq!(adm.finish(), None);
        assert_eq!(adm.counts(), (0, 0));
        assert!(matches!(adm.offer(4), Offer::Run(4)), "slot is free again");
    }

    #[test]
    fn cancelled_queued_jobs_are_removed() {
        let adm = Admission::new(AdmissionConfig {
            max_active: 1,
            queue_cap: 4,
        });
        let _ = adm.offer(10);
        let _ = adm.offer(11);
        let _ = adm.offer(12);
        let _ = adm.offer(13);
        let removed = adm.remove_queued(|j| j % 2 == 1);
        assert_eq!(removed, vec![11, 13]);
        assert_eq!(adm.counts(), (1, 1));
        assert_eq!(adm.finish(), Some(12), "queue order preserved");
    }

    #[test]
    fn choose_team_heuristic_scales_with_work() {
        // No tuned profile installed in this test binary: the
        // work-based fallback applies.
        assert_eq!(choose_team(&[10, 10, 10], 4, 8), 1);
        assert!(choose_team(&[256, 256, 64], 16, 8) >= 8);
        assert_eq!(choose_team(&[512, 512, 512], 16, 4), 4, "cap wins");
        assert_eq!(choose_team(&[2, 2], 1, 0), 1, "cap floor is 1");
    }
}
