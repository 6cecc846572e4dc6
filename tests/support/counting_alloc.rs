//! Shared counting-allocator harness for the allocation-accounting
//! test binaries (`plan_alloc.rs`, `sparse_plan_alloc.rs`,
//! `cpals_alloc.rs`, `cpals_alloc_evd.rs`, `obs_disabled.rs`), included
//! via `#[path]` so each binary installs its own `#[global_allocator]`
//! while the hook logic has a single definition. (Files under
//! `tests/support/` are not test targets themselves.)
//!
//! Counting is enabled **per thread**: libtest's orchestrator thread
//! runs concurrently with the measured window and allocates
//! sporadically, so a process-global flag would intermittently charge
//! its traffic to the kernel under test. The single-thread pools used
//! by these tests run the executors inline on the measuring thread, so
//! a thread-local flag captures exactly the kernel's own allocations.
//!
//! The counters are thread-local too: libtest runs a binary's tests on
//! concurrent threads, and process-global counters would let one
//! test's [`counted`] reset and read another's traffic.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // Const-initialized so touching them from the allocator hook never
    // itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Charge one allocation of `bytes` to this thread, if it is counting.
fn record(bytes: usize) {
    // try_with: the hook can run during TLS teardown.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with this thread's allocation counting enabled; returns the
/// (calls, bytes) this thread allocated inside `f`.
pub fn counted(f: impl FnOnce()) -> (u64, u64) {
    ALLOC_CALLS.with(|c| c.set(0));
    ALLOC_BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOC_CALLS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}
