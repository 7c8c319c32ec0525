//! Regression tests for the zombie-transaction guards (see DESIGN.md,
//! "flat QR is not opaque"): the exact configuration that exposed the
//! hazard — SList under flat nesting with a tiny key space on the
//! 40-node testbed — must terminate. Without the guards, a torn snapshot
//! around t≈24.5s of virtual time sent a transaction into an infinite
//! local-hit traversal and the process never returned.

use qr_dtm::prelude::*;
use qr_dtm::workloads::{run, Benchmark, RunSpec, WorkloadParams};

fn testbed(mode: NestingMode) -> DtmConfig {
    DtmConfig {
        nodes: 40,
        mode,
        read_level: 1,
        seed: 42,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    }
}

fn hot_spec(bench: Benchmark) -> RunSpec {
    RunSpec {
        bench,
        params: WorkloadParams {
            read_pct: 50,
            calls: 3,
            objects: 12, // tiny key space maximizes torn-snapshot odds
        },
        warmup: SimDuration::from_secs(2),
        duration: SimDuration::from_secs(28), // past the historical t≈24.5s
        clients_per_node: 1,
        failures: 0,
    }
}

/// The configuration that originally hung, plus the sibling
/// pointer-chasing workloads, across all three modes. Termination IS the
/// assertion; the commit counts confirm real progress.
#[test]
fn pointer_chasing_workloads_terminate_under_extreme_contention() {
    for bench in [Benchmark::SList, Benchmark::RBTree, Benchmark::Bst] {
        for mode in NestingMode::ALL {
            let r = run(testbed(mode), &hot_spec(bench));
            assert!(
                r.commits > 0,
                "{} under {mode} made no progress",
                bench.name()
            );
        }
    }
}

/// `abort_here` unwinds to the right scope per mode.
#[test]
fn abort_here_targets_the_innermost_scope() {
    use qr_dtm::core::AbortTarget;
    for (mode, expected_root) in [
        (NestingMode::Flat, AbortTarget::Level(0)),
        (NestingMode::Closed, AbortTarget::Level(0)),
        (NestingMode::Checkpoint, AbortTarget::Chk(0)),
    ] {
        let c = Cluster::new(DtmConfig {
            nodes: 13,
            mode,
            seed: 1,
            ..Default::default()
        });
        c.preload(ObjectId(1), ObjVal::Int(0));
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            client
                .run(|tx| async move {
                    assert_eq!(tx.abort_here().target, expected_root, "{mode} root scope");
                    let inner_target = tx
                        .closed(|tx2| async move { Ok(tx2.abort_here().target) })
                        .await?;
                    match mode {
                        NestingMode::Closed => {
                            assert_eq!(inner_target, AbortTarget::Level(1), "CT scope")
                        }
                        NestingMode::Flat => {
                            assert_eq!(inner_target, AbortTarget::Level(0), "flattened")
                        }
                        NestingMode::Checkpoint => {
                            assert_eq!(inner_target, AbortTarget::Chk(0), "full rollback")
                        }
                    }
                    Ok(())
                })
                .await;
        });
        c.sim().run();
    }
}

/// A body that aborts voluntarily retries and eventually succeeds.
#[test]
fn voluntary_abort_retries_the_body() {
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        seed: 2,
        ..Default::default()
    });
    c.preload(ObjectId(1), ObjVal::Int(0));
    let client = c.client(NodeId(3));
    let attempts = std::rc::Rc::new(std::cell::Cell::new(0u32));
    let at = std::rc::Rc::clone(&attempts);
    c.sim().spawn(async move {
        client
            .run(|tx| {
                let at = std::rc::Rc::clone(&at);
                async move {
                    at.set(at.get() + 1);
                    tx.read(ObjectId(1)).await?;
                    if at.get() < 3 {
                        return Err(tx.abort_here());
                    }
                    tx.write(ObjectId(1), ObjVal::Int(99)).await?;
                    Ok(())
                }
            })
            .await;
    });
    c.sim().run();
    assert_eq!(attempts.get(), 3);
    assert_eq!(c.latest(ObjectId(1)).unwrap().1, ObjVal::Int(99));
    assert_eq!(c.stats().commits, 1);
}

/// One guard rule for every tree descent: on a torn snapshot that links
/// two nodes into a cycle (key 1's right child is key 3, key 3's left
/// child is key 1), a descent for key 2 never ends, and each of the four
/// tree operations aborts its attempt after the same number of reads.
/// Reads are counted as `read_rounds + local_hits`.
#[test]
fn every_tree_descent_aborts_a_cycle_after_the_same_reads() {
    use qr_dtm::core::TreeNode;
    use qr_dtm::workloads::{bst, rbtree};
    use std::cell::RefCell;
    use std::rc::Rc;

    let c = Rc::new(Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Flat,
        seed: 3,
        ..Default::default()
    }));
    let t = rbtree::TreeLayout {
        base: 0,
        key_space: 4,
    };
    c.preload_all(t.setup());
    let node = |key, left: Option<i64>, right: Option<i64>| TreeNode {
        key,
        val: key,
        left: left.map(|k| t.node(k)),
        right: right.map(|k| t.node(k)),
        red: false,
    };
    c.preload(t.root_ptr(), ObjVal::Ptr(Some(t.node(1))));
    c.preload(t.node(1), ObjVal::Node(node(1, None, Some(3))));
    c.preload(t.node(3), ObjVal::Node(node(3, Some(1), None)));

    let reads = Rc::new(RefCell::new(Vec::new()));
    for op in [
        "rbtree::contains",
        "rbtree::remove",
        "rbtree::insert",
        "bst::insert",
    ] {
        let (c2, reads) = (Rc::clone(&c), Rc::clone(&reads));
        c.sim().spawn(async move {
            let tx = DtmProtocol::begin(&*c2, NodeId(3));
            let before = c2.stats();
            let r = match op {
                "rbtree::contains" => rbtree::contains(&tx, &t, 2).await,
                "rbtree::remove" => rbtree::remove(&tx, &t, 2).await,
                "rbtree::insert" => rbtree::insert(&tx, &t, 2, 2).await,
                _ => bst::insert(&tx, &t, 2, 2).await,
            };
            assert_eq!(r, Err(tx.abort_here()), "{op} must abort the attempt");
            let after = c2.stats();
            let n = after.read_rounds + after.local_hits - before.read_rounds - before.local_hits;
            reads.borrow_mut().push((op, n));
        });
        c.sim().run();
    }
    // The root pointer, then `key_space + 2` nodes; the next hop aborts.
    let reads = reads.borrow();
    assert!(
        reads.iter().all(|&(_, n)| n == 7),
        "reads before the guard fired: {reads:?}"
    );
}
