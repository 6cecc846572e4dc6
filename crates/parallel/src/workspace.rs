//! Reusable per-thread workspace arenas.
//!
//! The paper's parallel MTTKRP kernels give every thread private
//! buffers (partial outputs, scratch) that would otherwise be
//! allocated on every call. A [`Workspace`] owns one
//! slot of caller-defined state per pool thread and hands thread `t`
//! exclusive `&mut` access to slot `t` inside a region
//! ([`ThreadPool::run_with_workspace`]), so a kernel that keeps its
//! workspace alive across calls — e.g. a cached `MttkrpPlan` driving
//! every CP-ALS sweep — performs zero per-call heap allocation in its
//! per-thread state.
//!
//! Outside a region the workspace is plain owned data: slots can be
//! inspected ([`Workspace::slots`]), mutated, or combined (the final
//! MTTKRP reduction reads every slot's private output).

use crate::pool::{ThreadPool, WorkerCtx};

/// One slot of per-thread state per pool thread, reusable across
/// parallel regions.
#[derive(Debug)]
pub struct Workspace<S> {
    slots: Vec<S>,
}

impl<S> Workspace<S> {
    /// Build a workspace with `threads` slots, `init(t)` producing the
    /// slot for thread `t`.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize, init: impl FnMut(usize) -> S) -> Self {
        assert!(threads > 0, "workspace needs at least one slot");
        Workspace {
            slots: (0..threads).map(init).collect(),
        }
    }

    /// Number of slots (must match the pool size at region time).
    #[inline]
    pub fn threads(&self) -> usize {
        self.slots.len()
    }

    /// Shared view of every slot (e.g. for the post-region reduction).
    #[inline]
    pub fn slots(&self) -> &[S] {
        &self.slots
    }

    /// Mutable view of every slot.
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [S] {
        &mut self.slots
    }

    /// Slot of thread `t`.
    #[inline]
    pub fn slot(&self, t: usize) -> &S {
        &self.slots[t]
    }

    /// Mutable slot of thread `t`.
    #[inline]
    pub fn slot_mut(&mut self, t: usize) -> &mut S {
        &mut self.slots[t]
    }
}

impl ThreadPool {
    /// Run a region where thread `t` receives `&mut` access to
    /// workspace slot `t` — [`ThreadPool::run_with_private`] without the
    /// per-call allocation, because the slots outlive the region.
    ///
    /// # Panics
    /// Panics if the workspace slot count differs from the pool size.
    pub fn run_with_workspace<S, F>(&self, ws: &mut Workspace<S>, f: F)
    where
        S: Send,
        F: Fn(WorkerCtx, &mut S) + Sync,
    {
        assert_eq!(
            ws.threads(),
            self.num_threads(),
            "workspace sized for a different team"
        );
        // Provenance-preserving shared pointer: the raw pointer itself
        // (not a usize round trip) crosses into the region closure. The
        // accessor method makes the closure capture the Sync wrapper,
        // not the raw-pointer field (2021 disjoint capture).
        struct SlotsPtr<S>(*mut S);
        impl<S> SlotsPtr<S> {
            fn get(&self) -> *mut S {
                self.0
            }
        }
        // Safety: only disjoint `add(thread_id)` projections are ever
        // dereferenced, one per thread.
        unsafe impl<S: Send> Sync for SlotsPtr<S> {}
        let base = SlotsPtr(ws.slots.as_mut_ptr());
        self.run(|ctx| {
            // Safety: each thread touches only element `thread_id`, and
            // `ws` is exclusively borrowed for the whole region.
            let slot = unsafe { &mut *base.get().add(ctx.thread_id) };
            f(ctx, slot);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_per_thread_and_persist_across_regions() {
        let pool = ThreadPool::new(4);
        let mut ws: Workspace<Vec<usize>> = Workspace::new(4, |t| vec![t]);
        for round in 0..3 {
            pool.run_with_workspace(&mut ws, |ctx, slot| {
                slot.push(100 * (round + 1) + ctx.thread_id);
            });
        }
        for (t, slot) in ws.slots().iter().enumerate() {
            assert_eq!(slot, &vec![t, 100 + t, 200 + t, 300 + t]);
        }
    }

    #[test]
    fn buffers_keep_their_allocation() {
        let pool = ThreadPool::new(3);
        let mut ws: Workspace<Vec<f64>> = Workspace::new(3, |_| vec![0.0; 1024]);
        let ptrs: Vec<*const f64> = ws.slots().iter().map(|s| s.as_ptr()).collect();
        for _ in 0..5 {
            pool.run_with_workspace(&mut ws, |ctx, slot| {
                for v in slot.iter_mut() {
                    *v += ctx.thread_id as f64;
                }
            });
        }
        let after: Vec<*const f64> = ws.slots().iter().map(|s| s.as_ptr()).collect();
        assert_eq!(
            ptrs, after,
            "workspace buffers must be stable across regions"
        );
        assert!(ws.slot(2).iter().all(|&v| v == 10.0));
    }

    #[test]
    fn single_thread_workspace_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut ws: Workspace<u64> = Workspace::new(1, |_| 0);
        pool.run_with_workspace(&mut ws, |_, slot| *slot += 7);
        assert_eq!(*ws.slot(0), 7);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let pool = ThreadPool::new(2);
        let mut ws: Workspace<u8> = Workspace::new(3, |_| 0);
        pool.run_with_workspace(&mut ws, |_, _| {});
    }
}
