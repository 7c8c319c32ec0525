//! End-to-end serializability auditing: record the committed history of
//! heavily contended runs in every mode and machine-check 1-copy
//! serializability (the executable counterpart of the paper's Theorem V.1),
//! plus latency accounting.

use qr_dtm::prelude::*;
use qr_dtm::workloads::{bank, hashmap};

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
    let c = audited_cluster(mode, 61);
    let layout = bank::BankLayout {
        base: 0,
        accounts: 4, // few accounts = plenty of conflicts
    };
    c.preload_all(layout.setup(100));
    for node in 0..8u32 {
        let client = c.client(NodeId(node));
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for _ in 0..4 {
                let from = sim.rand_below(4);
                let to = (from + 1) % 4;
                if sim.rand_below(4) == 0 {
                    client
                        .run(|tx| async move { bank::audit(&tx, &layout, from, to).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { bank::transfer(&tx, &layout, from, to, 3).await })
                        .await;
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
    assert!(s.mean_latency_ms() >= 60.0, "{}", s.mean_latency_ms());
    assert!(s.max_latency_ms() >= s.mean_latency_ms());
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
