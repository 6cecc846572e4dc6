//! Work-stealing task scheduler for multi-tenant tensor decomposition.
//!
//! PR 1's `ThreadPool` gave every parallel region a static
//! one-block-per-thread schedule: correct and cache-friendly when one
//! decomposition owns the machine (the setting of Hayashi et al.), but
//! the moment several jobs of different sizes share a host, static
//! splits strand cores — a small sparse job finishes its blocks and its
//! threads idle while a dense job next door is still grinding.
//!
//! This crate replaces the *execution substrate* without touching the
//! *partition semantics*:
//!
//! * [`WorkDeque`] — per-worker owner-LIFO/thief-FIFO deques (coarse
//!   locked, trivially linearizable; tasks are block-sized, so lock
//!   cost is noise).
//! * [`Scheduler`] — `W` workers + an injector, randomized stealing,
//!   condvar parking. [`Scheduler::run_region`] runs the OpenMP-style
//!   blocking region every MTTKRP executor is written against: `team`
//!   slots claimed dynamically (atomic slot counter + stealable
//!   tickets) so any idle worker — from any job — can pick one up.
//!   Slot *identity* is preserved, so partition tables and workspace
//!   arenas indexed by slot id produce bitwise-identical results to the
//!   static schedule.
//! * [`TaskGroup`] / [`JobCtx`] — job-scoped `'static` task groups with
//!   panic propagation and cooperative [`CancelToken`] cancellation;
//!   the unit the `tensorcpd` daemon submits per decomposition job.
//!
//! The scheduler is deliberately oblivious to tensors: it moves opaque
//! closures. `mttkrp-parallel` keeps its entire public API and simply
//! submits its regions here, which is how every existing executor
//! (dense, sparse CSF, out-of-core) migrated unchanged.

mod cancel;
mod deque;
mod scheduler;

pub use cancel::CancelToken;
pub use deque::WorkDeque;
pub use scheduler::{JobCtx, Scheduler, TaskGroup, TeamCtx};
