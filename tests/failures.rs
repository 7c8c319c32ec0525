//! Integration tests for fault tolerance: node failures, quorum
//! reconfiguration, stale-replica catch-up after recovery, and the
//! workload driver's Fig. 10-style failure schedule.

use qr_dtm::prelude::*;
use qr_dtm::workloads::{run, Benchmark, RunSpec, WorkloadParams};

fn cluster(seed: u64) -> Cluster {
    // Requests in flight toward a node at the instant it dies would hang
    // forever without a timeout — an asynchronous system only learns of a
    // failure this way. The default `rpc_timeout` (500 ms) covers it.
    Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        read_level: 0,
        seed,
        ..Default::default()
    })
}

#[test]
fn commits_continue_after_losing_the_whole_read_quorum() {
    let c = cluster(1);
    c.preload(ObjectId(1), ObjVal::Int(0));
    let client = c.client(NodeId(12));
    let sim = c.sim().clone();
    c.sim().spawn(async move {
        loop {
            client
                .run(|tx| async move {
                    let v = tx.read(ObjectId(1)).await?.expect_int();
                    tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                    Ok(())
                })
                .await;
            sim.sleep(SimDuration::from_millis(5)).await;
        }
    });
    c.sim().run_for(SimDuration::from_secs(3));
    let before = c.stats().commits;
    assert!(before > 0);
    for victim in c.read_quorum() {
        assert!(crash(&c, c.sim(), victim), "quorum survives");
    }
    c.sim().run_for(SimDuration::from_secs(3));
    let after = c.stats().commits;
    assert!(after > before, "no progress after failover");
    let (_, val) = c.latest(ObjectId(1)).unwrap();
    // `run_for` halts virtual time at an arbitrary instant, so the single
    // client may have a commit applied on the quorum whose acknowledgement
    // it has not yet counted — the value may lead the counter by at most
    // that one in-flight transaction, but must never trail it.
    let v = val.expect_int();
    assert!(
        v == after as i64 || v == after as i64 + 1,
        "committed increments lost or duplicated: value {v}, commits {after}"
    );
}

#[test]
fn write_quorum_member_failure_is_tolerated() {
    let c = cluster(2);
    c.preload(ObjectId(1), ObjVal::Int(0));
    // Fail a non-root write-quorum member up front.
    let victim = *c.write_quorum().last().unwrap();
    assert!(crash(&c, c.sim(), victim));
    assert!(!c.write_quorum().contains(&victim));
    let client = c.client(NodeId(12));
    c.sim().spawn(async move {
        for _ in 0..5 {
            client
                .run(|tx| async move {
                    let v = tx.read(ObjectId(1)).await?.expect_int();
                    tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                    Ok(())
                })
                .await;
        }
    });
    c.sim().run();
    assert_eq!(c.stats().commits, 5);
    assert_eq!(c.latest(ObjectId(1)).unwrap().1, ObjVal::Int(5));
}

/// A recovered node holds stale state; the max-version read rule hides
/// that, and later write-quorum traffic catches it up.
#[test]
fn recovered_node_catches_up_through_new_commits() {
    let c = cluster(3);
    c.preload(ObjectId(1), ObjVal::Int(0));
    let root = NodeId(0);
    assert!(crash(&c, c.sim(), root));
    // Ten commits happen while the root is down.
    let client = c.client(NodeId(12));
    c.sim().spawn(async move {
        for _ in 0..10 {
            client
                .run(|tx| async move {
                    let v = tx.read(ObjectId(1)).await?.expect_int();
                    tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                    Ok(())
                })
                .await;
        }
    });
    c.sim().run();
    assert_eq!(c.stats().commits, 10);
    // While down, the root's copy froze at version 1; rejoin performs a
    // state transfer, because the root immediately becomes the singleton
    // read quorum again — serving stale state would break 1-copy
    // equivalence for commits it missed.
    let (v_before, _) = c.peek(root, ObjectId(1)).unwrap();
    assert_eq!(v_before, qr_dtm::core::Version(1), "stale while down");
    assert!(recover(&c, c.sim(), root));
    let (v_synced, val_synced) = c.peek(root, ObjectId(1)).unwrap();
    assert_eq!(
        v_synced,
        qr_dtm::core::Version(11),
        "state transfer on rejoin"
    );
    assert_eq!(val_synced, ObjVal::Int(10));
    assert_eq!(c.read_quorum(), vec![root]);
    // And new commits keep flowing through it.
    let client2 = c.client(NodeId(11));
    c.sim().spawn(async move {
        client2
            .run(|tx| async move {
                let v = tx.read(ObjectId(1)).await?.expect_int();
                tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let (v_root, val_root) = c.peek(root, ObjectId(1)).unwrap();
    assert_eq!(v_root, qr_dtm::core::Version(12), "root caught up");
    assert_eq!(val_root, ObjVal::Int(11));
}

/// RPC timeouts surface as retried (not lost) transactions when a node
/// dies with requests in flight and the view is repaired shortly after.
#[test]
fn in_flight_requests_to_a_dying_node_time_out_and_retry() {
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        read_level: 0,
        seed: 4,
        rpc_timeout: Some(SimDuration::from_millis(200)),
        ..Default::default()
    });
    c.preload(ObjectId(1), ObjVal::Int(0));
    let client = c.client(NodeId(12));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                let v = tx.read(ObjectId(1)).await?.expect_int();
                tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                Ok(())
            })
            .await;
    });
    // Kill the read-quorum root immediately — without updating the quorum
    // view, so the first attempt times out; then repair the view.
    c.sim().fail_node(NodeId(0));
    c.sim().run_for(SimDuration::from_millis(250));
    assert!(crash(&c, c.sim(), NodeId(0)), "view repair");
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 1);
    assert!(s.timeouts >= 1, "the dead quorum was noticed: {s:?}");
    assert_eq!(c.latest(ObjectId(1)).unwrap().1, ObjVal::Int(1));
}

/// Cluster-level failure bookkeeping is idempotent, and `no_timeout()`
/// restores the pure paper model (trust the view, no timeout machinery).
#[test]
fn fail_and_recover_are_idempotent_at_the_cluster_level() {
    let c = Cluster::new(
        DtmConfig {
            nodes: 13,
            mode: NestingMode::Closed,
            read_level: 0,
            seed: 5,
            ..Default::default()
        }
        .no_timeout(),
    );
    c.preload(ObjectId(1), ObjVal::Int(0));
    assert!(crash(&c, c.sim(), NodeId(0)));
    let rq = c.read_quorum();
    assert!(crash(&c, c.sim(), NodeId(0))); // double-fail: no-op
    assert_eq!(c.read_quorum(), rq);
    assert!(recover(&c, c.sim(), NodeId(0)));
    assert!(recover(&c, c.sim(), NodeId(0))); // recover-of-alive: no-op
    assert_eq!(c.read_quorum(), vec![NodeId(0)]);
    // The view matches reality, so `None` timeouts still make progress.
    let client = c.client(NodeId(12));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                let v = tx.read(ObjectId(1)).await?.expect_int();
                tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    assert_eq!(c.stats().commits, 1);
    assert_eq!(c.stats().timeouts, 0);
}

/// The driver's Fig. 10 failure schedule keeps every benchmark committing
/// through 8 failures on the 28-node tree.
#[test]
fn driver_failure_schedule_survives_eight_failures() {
    for bench in [Benchmark::Hashmap, Benchmark::Bst, Benchmark::Vacation] {
        let cfg = DtmConfig {
            nodes: 28,
            mode: NestingMode::Closed,
            read_level: 0,
            seed: 6,
            ..Default::default()
        };
        let r = run(
            cfg,
            &RunSpec {
                bench,
                params: WorkloadParams {
                    read_pct: 50,
                    calls: 1,
                    objects: 64,
                },
                warmup: SimDuration::from_millis(500),
                duration: SimDuration::from_secs(2),
                clients_per_node: 1,
                failures: 8,
            },
        );
        assert!(r.commits > 0, "{} starved under failures", bench.name());
        assert_eq!(r.stats.timeouts, 0, "reconfigured quorums never hang");
    }
}
