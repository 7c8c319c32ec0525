//! End-to-end serializability auditing: record the committed history of
//! heavily contended runs in every mode and machine-check 1-copy
//! serializability (the executable counterpart of the paper's Theorem V.1),
//! plus latency accounting.

use qr_dtm::prelude::*;
use std::rc::Rc;

use qr_dtm::workloads::hashmap;
use qr_dtm::workloads::protocol_bank::{audit, transfer};

fn audited_cluster(mode: NestingMode, seed: u64) -> Cluster {
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode,
        seed,
        ..Default::default()
    });
    c.enable_history();
    c
}

fn contended_history_is_serializable(mode: NestingMode) {
    let c = Rc::new(audited_cluster(mode, 61));
    // Few accounts: plenty of conflicts.
    c.preload_all((0..4).map(|i| (ObjectId(i), ObjVal::Int(100))));
    for node in 0..8u32 {
        let (p, sim) = (Rc::clone(&c), c.sim().clone());
        c.sim().spawn(async move {
            for _ in 0..4 {
                let from = ObjectId(sim.rand_below(4));
                let to = ObjectId((from.0 + 1) % 4);
                if sim.rand_below(4) == 0 {
                    audit(&*p, NodeId(node), from, to).await;
                } else {
                    transfer(&*p, NodeId(node), from, to, 3).await;
                }
            }
        });
    }
    c.sim().run();
    assert_eq!(c.history().len() as u64, c.stats().commits);
    let violations = c.verify_history();
    assert!(
        violations.is_empty(),
        "{mode}: serializability violations: {violations:?}"
    );
}

#[test]
fn contended_bank_history_serializable_flat() {
    contended_history_is_serializable(NestingMode::Flat);
}

#[test]
fn contended_bank_history_serializable_closed() {
    contended_history_is_serializable(NestingMode::Closed);
}

#[test]
fn contended_bank_history_serializable_checkpoint() {
    contended_history_is_serializable(NestingMode::Checkpoint);
}

/// Hashmap churn — structural writes with bigger read sets — also audits
/// clean.
#[test]
fn contended_hashmap_history_serializable() {
    let c = audited_cluster(NestingMode::Closed, 67);
    let map = hashmap::HashmapLayout {
        base: 0,
        buckets: 4,
    };
    c.preload_all(map.setup());
    for node in 0..8u32 {
        let client = c.client(NodeId(node));
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for _ in 0..5 {
                let key = sim.rand_below(24) as i64;
                if sim.rand_below(2) == 0 {
                    client
                        .run(|tx| async move { hashmap::put(&tx, &map, key).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { hashmap::remove(&tx, &map, key).await })
                        .await;
                }
            }
        });
    }
    c.sim().run();
    let violations = c.verify_history();
    assert!(violations.is_empty(), "{violations:?}");
}

/// Latency accounting: the mean committed latency is at least the minimum
/// protocol cost (read round + two commit rounds) and the max is at least
/// the mean.
#[test]
fn latency_statistics_are_sane() {
    let c = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Flat,
        seed: 73,
        latency: LatencySpec::Const(SimDuration::from_millis(10)),
        ..Default::default()
    });
    c.preload(ObjectId(1), ObjVal::Int(0));
    for node in 0..4u32 {
        let client = c.client(NodeId(node));
        c.sim().spawn(async move {
            for _ in 0..3 {
                client
                    .run(|tx| async move {
                        let v = tx.read(ObjectId(1)).await?.expect_int();
                        tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                        Ok(())
                    })
                    .await;
            }
        });
    }
    c.sim().run();
    let s = c.stats();
    // One read round (20ms) + vote round (20ms) + apply round (20ms) is the
    // conflict-free floor.
    let mean_ns = s.latency_sum_ns / s.commits;
    assert!(mean_ns >= 60_000_000, "{mean_ns} ns");
    assert!(s.latency_max_ns >= mean_ns);
    assert!(s.latency_sum_ns > 0);
}

/// Metric-space latency (cc-DTM model) works end to end and remains
/// deterministic per seed.
#[test]
fn metric_space_cluster_runs_and_is_deterministic() {
    let run_once = || {
        let c = Cluster::new(DtmConfig {
            nodes: 13,
            mode: NestingMode::Closed,
            seed: 79,
            latency: LatencySpec::Metric(SimDuration::from_millis(20), SimDuration::from_millis(1)),
            ..Default::default()
        });
        c.preload(ObjectId(1), ObjVal::Int(0));
        for node in 0..4u32 {
            let client = c.client(NodeId(node));
            c.sim().spawn(async move {
                for _ in 0..3 {
                    client
                        .run(|tx| async move {
                            let v = tx.read(ObjectId(1)).await?.expect_int();
                            tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                            Ok(())
                        })
                        .await;
                }
            });
        }
        c.sim().run();
        (c.stats(), c.sim().now())
    };
    let (s1, t1) = run_once();
    let (s2, t2) = run_once();
    assert_eq!(s1.commits, 12);
    assert_eq!(s1, s2);
    assert_eq!(t1, t2);
}
