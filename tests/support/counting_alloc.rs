//! The counting allocator behind the linear-work gates
//! (`tests/qstore_linear_work.rs`, `tests/chk_linear_work.rs`) and
//! `examples/alloc_census.rs`, each of which `#[path]`-includes this file.
//! Including it installs the allocator for the whole binary, which is why
//! every user is a binary of its own. Counts are per thread — a simulation
//! runs on the thread that built it, so what the test harness allocates on
//! its own threads meanwhile is not in them — and a function of the seed:
//! no clock is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation call and every byte requested (growth through
/// the default `realloc` is an `alloc` of the new size, so it is counted
/// too).
struct Counting;

thread_local! {
    // Const-initialised and without destructors: reading them allocates
    // nothing and works for as long as the thread runs.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes requested by this thread since it started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocated {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocated {
    pub fn now() -> Self {
        Allocated {
            calls: CALLS.get(),
            bytes: BYTES.get(),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(earlier: Allocated) -> Self {
        let now = Allocated::now();
        Allocated {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}
