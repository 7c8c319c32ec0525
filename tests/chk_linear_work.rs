//! QR-CHK must do work per transaction proportional to its data set, not
//! to the square of it: a checkpoint is taken per `chk_threshold` objects
//! (default 1), so a checkpoint that copies the data set makes an N-object
//! transaction allocate O(N^2) times. Twice the objects may make about
//! twice the allocation *calls*. Bytes are not counted: they stay
//! quadratic by protocol, since each of the N Rqv requests carries the
//! data set read so far.
//!
//! The file is its own test binary because it installs a counting
//! `#[global_allocator]`. No wall clock is read: the number of allocations
//! is a function of the seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qr_dtm::prelude::*;

/// Counts every allocation call (growth through the default `realloc` is
/// an `alloc` of the new size, so it is counted too).
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TRANSACTIONS: u64 = 8;

/// One client, `TRANSACTIONS` transactions, each reading `objects` `Int`
/// objects and writing their sum to one more. Returns `(checkpoints
/// taken, allocation calls)`.
fn scan_and_write(objects: u64) -> (u64, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Checkpoint,
        ..Default::default()
    });
    let sink = ObjectId(objects);
    c.preload_all((0..=objects).map(|i| (ObjectId(i), ObjVal::Int(1))));
    let client = c.client(NodeId(3));
    c.sim().spawn(async move {
        for _ in 0..TRANSACTIONS {
            client
                .run(|tx| async move {
                    let mut sum = 0;
                    for i in 0..objects {
                        sum += tx.read(ObjectId(i)).await?.expect_int();
                    }
                    tx.write(sink, ObjVal::Int(sum)).await
                })
                .await;
        }
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, TRANSACTIONS);
    assert_eq!(s.chk_rollbacks + s.root_aborts, 0, "one client: {s:?}");
    assert_eq!(c.latest(sink).unwrap().1, ObjVal::Int(objects as i64));
    drop(c);
    (s.checkpoints, CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn twice_the_objects_make_about_twice_the_allocations() {
    let n = 128;
    let (chk_n, calls_n) = scan_and_write(n);
    let (chk_2n, calls_2n) = scan_and_write(2 * n);
    // Default threshold 1: every fetched object (the written one too) is a
    // checkpoint — the work whose cost is being bounded did happen.
    assert_eq!(chk_n, TRANSACTIONS * (n + 1));
    assert_eq!(chk_2n, TRANSACTIONS * (2 * n + 1));
    let growth = calls_2n as f64 / calls_n as f64;
    assert!(
        growth <= 2.2,
        "{n} objects: {calls_n} allocations, {} objects: {calls_2n}: \
         x{growth:.2} for twice the data set",
        2 * n
    );
}
