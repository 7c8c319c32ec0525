//! The counting allocator behind the linear-work gates
//! (`tests/qstore_linear_work.rs`, `tests/chk_linear_work.rs`), the teardown
//! gate (`tests/teardown.rs`) and `examples/alloc_census.rs`, each of which
//! `#[path]`-includes this file. Including it installs the allocator for the
//! whole binary, which is why every user is a binary of its own. Counts are
//! per thread — a simulation runs on the thread that built it, so what the
//! test harness allocates on its own threads meanwhile is not in them — and
//! a function of the seed: no clock is read.

// Each user reads only part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation call and every byte requested (a `realloc` is
/// one call of its new size), and keeps the bytes this thread holds.
struct Counting;

thread_local! {
    // Const-initialised and without destructors: reading them allocates
    // nothing and works for as long as the thread runs.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(calls: u64, bytes: usize, live: i64) {
    CALLS.with(|c| c.set(c.get() + calls));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
    LIVE.with(|l| l.set(l.get() + live));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes requested by this thread since it started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Allocated {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocated {
    pub(crate) fn now() -> Self {
        Allocated {
            calls: CALLS.get(),
            bytes: BYTES.get(),
        }
    }

    /// What was allocated since `earlier`.
    pub(crate) fn since(earlier: Allocated) -> Self {
        let now = Allocated::now();
        Allocated {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

/// Bytes allocated and not yet freed by this thread (negative when it
/// freed more than it allocated, e.g. memory another thread handed it).
pub(crate) fn live_bytes() -> i64 {
    LIVE.get()
}
