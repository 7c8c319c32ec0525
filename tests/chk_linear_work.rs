//! The QR engine must do work per transaction proportional to its data
//! set, and per remote read a small constant, whatever the objects hold.
//! Wire bytes (`size_hint`) stay quadratic in the data set, as the protocol
//! requires: each of the N Rqv requests carries the data set read so far.
//! Allocated bytes no longer do, because a request shares the
//! transaction's copy-on-write payload instead of copying it. Four gates on
//! allocation *calls* and two on bytes:
//!
//! * QR-CHK takes a checkpoint per `chk_threshold` objects (default 1), so
//!   a checkpoint that copies the data set makes an N-object transaction
//!   allocate O(N^2) times; twice the objects may make about twice the
//!   calls. A QR-CN or QR-CHK scan of twice the objects may also allocate
//!   about twice the bytes, which a per-read copy of the payload breaks.
//! * A committed value is shared, never copied: reading 128 eight-level
//!   skip-list nodes costs exactly the calls of reading 128 integers, and
//!   a Vacation reservation allocates about the same bytes whether the
//!   customer record it extends is empty or thousands of entries long.
//! * The call plumbing of one remote read — quorum call, data-set entry,
//!   op log — stays within one call of what it makes today; the Rqv
//!   payload it carries is shared and costs none.
//! * A closed-nested scope is a mark on the data-set log: a scope that
//!   only shadows a held copy allocates nothing.
//!
//! A seventh gate counts queue work, not allocations: at the default 500 ms
//! `rpc_timeout` — the paper testbed's, and past the event wheel's 268 ms
//! horizon — the one deadline per quorum call waits in the wheel's far lane
//! and never reaches the overflow heap.
//!
//! The file is its own test binary because it installs the counting
//! allocator of `tests/support/counting_alloc.rs`. No wall clock is read:
//! the number of allocations is a function of the seed. Every run is one
//! client on 13 nodes and counts from after `preload_all`.

use std::cell::RefCell;
use std::rc::Rc;

use qr_dtm::core::{DtmStats, SkipNode};
use qr_dtm::prelude::*;
use qr_dtm::workloads::vacation::{self, VacationLayout};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::Allocated;

const TRANSACTIONS: u64 = 8;

/// One client running `TRANSACTIONS` times `body` over `objects` preloaded
/// copies of `val` (plus an `Int` sink behind them), which must leave
/// `sink` installed in the sink. Returns the counters and the allocations
/// of the run.
fn run_client<F, Fut>(
    mode: NestingMode,
    objects: u64,
    val: ObjVal,
    sink: ObjVal,
    body: F,
) -> (DtmStats, Allocated)
where
    F: Fn(Tx) -> Fut + 'static,
    Fut: std::future::Future<Output = Result<(), Abort>>,
{
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode,
        ..Default::default()
    });
    c.preload_all((0..objects).map(|i| (ObjectId(i), val.clone())));
    c.preload(ObjectId(objects), ObjVal::Int(0));
    let before = Allocated::now();
    let client = c.client(NodeId(3));
    c.sim().spawn(async move {
        for _ in 0..TRANSACTIONS {
            client.run(&body).await;
        }
    });
    c.sim().run();
    let allocated = Allocated::since(before);
    let s = c.stats();
    assert_eq!(s.commits, TRANSACTIONS);
    assert_eq!(s.chk_rollbacks + s.root_aborts, 0, "one client: {s:?}");
    assert_eq!(c.latest(ObjectId(objects)).unwrap().1, sink, "{mode}");
    (s, allocated)
}

/// Each transaction reads all `objects` copies of `val` and writes to the
/// sink what it read: the sum of the integers, or of any other kind how
/// many came back equal to `val` — `objects` either way when `val` is
/// `Int(1)`, and a wrong read changes it.
fn scan_and_write(mode: NestingMode, objects: u64, val: ObjVal) -> (DtmStats, Allocated) {
    let sink = ObjVal::Int(objects as i64);
    run_client(mode, objects, val.clone(), sink, move |tx| {
        let val = val.clone();
        async move {
            let mut sum = 0;
            for i in 0..objects {
                sum += match tx.read(ObjectId(i)).await? {
                    ObjVal::Int(n) => n,
                    other => i64::from(other == val),
                };
            }
            tx.write(ObjectId(objects), ObjVal::Int(sum)).await
        }
    })
}

#[test]
fn twice_the_objects_make_about_twice_the_allocations() {
    let n = 128;
    let (s_n, Allocated { calls: calls_n, .. }) =
        scan_and_write(NestingMode::Checkpoint, n, ObjVal::Int(1));
    let (
        s_2n,
        Allocated {
            calls: calls_2n, ..
        },
    ) = scan_and_write(NestingMode::Checkpoint, 2 * n, ObjVal::Int(1));
    // Default threshold 1: every fetched object (the written one too) is a
    // checkpoint — the work whose cost is being bounded did happen.
    assert_eq!(s_n.checkpoints, TRANSACTIONS * (n + 1));
    assert_eq!(s_2n.checkpoints, TRANSACTIONS * (2 * n + 1));
    let growth = calls_2n as f64 / calls_n as f64;
    assert!(
        growth <= 2.2,
        "{n} objects: {calls_n} allocations, {} objects: {calls_2n}: \
         x{growth:.2} for twice the data set",
        2 * n
    );
}

#[test]
fn twice_the_objects_allocate_about_twice_the_bytes() {
    let n = 64;
    for mode in [NestingMode::Closed, NestingMode::Checkpoint] {
        let (_, bytes_n) = scan_and_write(mode, n, ObjVal::Int(1));
        let (_, bytes_2n) = scan_and_write(mode, 2 * n, ObjVal::Int(1));
        let growth = bytes_2n.bytes as f64 / bytes_n.bytes as f64;
        assert!(
            growth <= 2.2,
            "{mode}: {n} objects: {} bytes, {} objects: {}: x{growth:.2} for twice \
             the data set",
            bytes_n.bytes,
            2 * n,
            bytes_2n.bytes
        );
    }
}

#[test]
fn reading_big_values_allocates_no_more_than_reading_integers() {
    let node = ObjVal::SkipNode(SkipNode {
        key: 7,
        val: 0,
        nexts: vec![Some(ObjectId(1)); 8].into(),
    });
    for mode in NestingMode::ALL {
        let (_, ints) = scan_and_write(mode, 128, ObjVal::Int(1));
        let (_, nodes) = scan_and_write(mode, 128, node.clone());
        assert_eq!(
            nodes.calls, ints.calls,
            "{mode}: 128 skip-list nodes against 128 integers, {TRANSACTIONS} transactions"
        );
    }
}

#[test]
fn a_reservation_allocates_the_same_bytes_however_long_the_record() {
    // One QR-CN client books three rows per reservation for one customer,
    // whose record ends 4 500 entries long. A copy of the record per append
    // would make the last 100 commits allocate several times the bytes of
    // the first 100.
    const RESERVATIONS: u64 = 1_500;
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        ..Default::default()
    });
    let v = VacationLayout {
        base: 0,
        rows: 16,
        customers: 1,
        capacity: RESERVATIONS as i64,
    };
    c.preload_all(v.setup());
    let per_commit = Rc::new(RefCell::new(Vec::with_capacity(RESERVATIONS as usize)));
    let (client, out) = (c.client(NodeId(3)), Rc::clone(&per_commit));
    c.sim().spawn(async move {
        for i in 0..RESERVATIONS {
            let picks = [i % 16, i * 7 % 16, i * 13 % 16];
            let before = Allocated::now();
            let got = client
                .run(|tx| async move { vacation::make_reservation(&tx, &v, 0, picks).await })
                .await;
            assert_eq!(got, 3);
            out.borrow_mut().push(Allocated::since(before).bytes);
        }
    });
    c.sim().run();
    assert_eq!(c.stats().commits, RESERVATIONS);
    let bytes = per_commit.borrow();
    let first: u64 = bytes[..100].iter().sum();
    let last: u64 = bytes[bytes.len() - 100..].iter().sum();
    assert!(
        last as f64 <= 1.25 * first as f64,
        "first 100 commits: {first} bytes, last 100: {last} (x{:.2})",
        last as f64 / first as f64
    );
}

#[test]
fn a_remote_read_makes_a_handful_of_allocations() {
    // One call more than a read makes (1.03 flat, 1.05 closed, 2.07 chk;
    // a copied Rqv payload was one more each).
    for (mode, bound) in [
        (NestingMode::Flat, 2.1),
        (NestingMode::Closed, 2.1),
        (NestingMode::Checkpoint, 3.1),
    ] {
        let (
            _,
            Allocated {
                calls: calls_64, ..
            },
        ) = scan_and_write(mode, 64, ObjVal::Int(1));
        let (
            s,
            Allocated {
                calls: calls_128, ..
            },
        ) = scan_and_write(mode, 128, ObjVal::Int(1));
        assert_eq!(s.read_rounds, TRANSACTIONS * 129);
        let per_read = (calls_128 - calls_64) as f64 / (64 * TRANSACTIONS) as f64;
        assert!(
            per_read <= bound,
            "{mode}: {calls_64} calls for 64 objects, {calls_128} for 128: \
             {per_read:.2} per remote read, bound {bound}"
        );
    }
}

#[test]
fn a_scope_that_only_promotes_allocates_nothing() {
    // One QR-CN root reads the sink, then runs `scopes` closed-nested
    // transactions each writing it: every one a local hit, every commit a
    // merge into the root.
    let promote = |scopes: i64| {
        let last = ObjVal::Int(scopes - 1);
        let (s, Allocated { calls, .. }) = run_client(
            NestingMode::Closed,
            0,
            ObjVal::Unit,
            last,
            move |tx| async move {
                tx.read(ObjectId(0)).await?;
                for k in 0..scopes {
                    tx.closed(|ct| async move { ct.write(ObjectId(0), ObjVal::Int(k)).await })
                        .await?;
                }
                Ok(())
            },
        );
        assert_eq!(s.ct_commits, TRANSACTIONS * scopes as u64);
        assert_eq!(s.read_rounds, TRANSACTIONS);
        calls
    };
    // What is left is the log's own growth: one capacity doubling per
    // transaction between 100 and 200 entries.
    let (calls_100, calls_200) = (promote(100), promote(200));
    assert!(
        calls_200 - calls_100 <= TRANSACTIONS,
        "100 scopes: {calls_100} calls, 200 scopes: {calls_200}"
    );
}

#[test]
fn call_deadlines_never_reach_the_overflow_heap() {
    // Four QR-CN clients transferring between 16 accounts for two virtual
    // seconds, then every outstanding deadline drained.
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        ..Default::default()
    });
    c.preload_all((0..16).map(|i| (ObjectId(i), ObjVal::Int(100))));
    let end = c.sim().now() + SimDuration::from_secs(2);
    for node in [1, 4, 7, 10] {
        let (client, sim) = (c.client(NodeId(node)), c.sim().clone());
        c.sim().spawn(async move {
            let mut k = u64::from(node);
            while sim.now() < end {
                let (from, to) = (ObjectId(k % 16), ObjectId((k + 5) % 16));
                k += 3;
                let transfer = move |tx: Tx| async move {
                    let a = tx.read(from).await?.expect_int();
                    let b = tx.read(to).await?.expect_int();
                    tx.write(from, ObjVal::Int(a - 1)).await?;
                    tx.write(to, ObjVal::Int(b + 1)).await
                };
                client
                    .run(|tx| async move { tx.closed(transfer).await })
                    .await;
            }
        });
    }
    c.sim().run();
    let (s, m) = (c.stats(), c.sim().metrics());
    assert!(s.commits >= 40 && s.read_rounds >= 80, "{s:?}");
    assert_eq!(m.queue.promotions, 0, "one deadline per quorum call: {s:?}");
}
