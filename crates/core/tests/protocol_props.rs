//! Protocol-level property tests: mode discipline of the counters, lock
//! hygiene at quiescence, version/commit bookkeeping, and Rqv's
//! zero-message guarantees — across random configurations.

use std::rc::Rc;

use proptest::prelude::*;
use qrdtm_core::{
    spawn_detector, Cluster, DtmConfig, LatencySpec, NestingMode, ObjVal, ObjectId, Version,
};
use qrdtm_sim::{NodeId, SimDuration};

fn mode_strategy() -> impl Strategy<Value = NestingMode> {
    prop_oneof![
        Just(NestingMode::Flat),
        Just(NestingMode::Closed),
        Just(NestingMode::Checkpoint),
    ]
}

fn contended_run(
    mode: NestingMode,
    seed: u64,
    nodes: usize,
    clients: u32,
    objects: u64,
) -> Cluster {
    let c = Cluster::new(DtmConfig {
        nodes,
        mode,
        seed,
        latency: LatencySpec::Jittered(SimDuration::from_millis(10), 0.2),
        ..Default::default()
    });
    for i in 0..objects {
        c.preload(ObjectId(i), ObjVal::Int(0));
    }
    for node in 0..clients.min(nodes as u32) {
        let client = c.client(NodeId(node));
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for _ in 0..3 {
                let a = sim.rand_below(objects);
                let b = (a + 1) % objects;
                client
                    .run(|tx| async move {
                        let x = tx
                            .closed(move |t2| async move {
                                let v = t2.read(ObjectId(a)).await?.expect_int();
                                t2.write(ObjectId(a), ObjVal::Int(v + 1)).await?;
                                Ok(v)
                            })
                            .await?;
                        let _ = tx.read(ObjectId(b)).await?;
                        Ok(x)
                    })
                    .await;
            }
        });
    }
    c.sim().run();
    c
}

/// A cluster on which a failure detector has run: started, then stopped
/// at once, with no heartbeat left to keep the simulation from quiescing.
fn watched(c: Cluster) -> Rc<Cluster> {
    let c = Rc::new(c);
    spawn_detector(Rc::clone(&c), c.sim().clone()).stop();
    c
}

/// A read-only QR-CN workload on a cluster a detector has watched or not:
/// six clients, two transactions each, two reads per transaction, under
/// jittered latency.
fn read_only_run(seed: u64, detector: bool) -> Rc<Cluster> {
    let c = Cluster::new(DtmConfig {
        nodes: 7,
        mode: NestingMode::Closed,
        seed,
        latency: LatencySpec::Jittered(SimDuration::from_millis(10), 0.4),
        ..Default::default()
    });
    let c = if detector { watched(c) } else { Rc::new(c) };
    for i in 0..4u64 {
        c.preload(ObjectId(i), ObjVal::Int(7));
    }
    c.enable_history();
    for node in 0..6u32 {
        let client = c.client(NodeId(node));
        c.sim().spawn(async move {
            for _ in 0..2 {
                client
                    .run(move |tx| async move {
                        let a = tx.read(ObjectId(u64::from(node) % 4)).await?.expect_int();
                        let b = tx
                            .read(ObjectId((u64::from(node) + 1) % 4))
                            .await?
                            .expect_int();
                        Ok(a + b)
                    })
                    .await;
            }
        });
    }
    c.sim().run();
    c
}

/// A detector moves the view, not the transport: on a cluster one has
/// watched, every read still goes to the read quorum alone, so every
/// read-only QR-CN transaction keeps Rqv's zero-message local commit and
/// the run sends exactly the messages of an unwatched one.
#[test]
fn a_watched_cluster_reads_and_commits_like_an_unwatched_one() {
    for seed in 20..26 {
        let runs = [read_only_run(seed, false), read_only_run(seed, true)];
        for c in &runs {
            let s = c.stats();
            assert_eq!(s.commits, 12, "6 clients x 2 read-only txns");
            assert_eq!(s.local_commits, s.commits, "all commits are local");
            assert_eq!(s.commit_rounds, 0);
            assert!(c.verify_history().is_empty());
        }
        let sent = runs.map(|c| c.sim().metrics().sent_total);
        assert_eq!(sent[0], sent[1], "seed {seed}: same messages");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counter discipline: only the active mode's partial-abort counters
    /// may move, commits always equal the offered transactions, and at
    /// quiescence no replica is left locked.
    #[test]
    fn mode_discipline_and_lock_hygiene(
        mode in mode_strategy(),
        seed in 0u64..500,
        nodes in 4usize..16,
        clients in 2u32..6,
        objects in 2u64..8,
    ) {
        let c = contended_run(mode, seed, nodes, clients, objects);
        let s = c.stats();
        prop_assert_eq!(s.commits, u64::from(clients.min(nodes as u32)) * 3);
        match mode {
            NestingMode::Flat => {
                prop_assert_eq!(s.ct_aborts, 0);
                prop_assert_eq!(s.ct_commits, 0);
                prop_assert_eq!(s.chk_rollbacks, 0);
                prop_assert_eq!(s.checkpoints, 0);
                prop_assert_eq!(s.local_commits, 0);
            }
            NestingMode::Closed => {
                prop_assert_eq!(s.chk_rollbacks, 0);
                prop_assert_eq!(s.checkpoints, 0);
                prop_assert!(s.ct_commits >= s.commits, "every commit ran its CT");
            }
            NestingMode::Checkpoint => {
                prop_assert_eq!(s.ct_aborts, 0);
                prop_assert_eq!(s.ct_commits, 0);
            }
        }
        // Lock hygiene: nothing protected once the system is quiescent.
        for n in 0..nodes as u32 {
            for i in 0..objects {
                if let Some((v, _)) = c.peek(NodeId(n), ObjectId(i)) {
                    prop_assert!(v >= Version(1));
                }
            }
        }
    }

    /// Version bookkeeping: the max version of each object across replicas
    /// equals 1 + its committed increments, and no replica exceeds it.
    #[test]
    fn versions_count_commits_exactly(
        mode in mode_strategy(),
        seed in 0u64..500,
        clients in 2u32..6,
    ) {
        let objects = 3u64;
        let c = contended_run(mode, seed, 13, clients, objects);
        // Each transaction increments exactly one object, so total version
        // growth across objects equals total commits.
        let mut growth = 0u64;
        for i in 0..objects {
            let (v, val) = c.latest(ObjectId(i)).unwrap();
            growth += v.0 - 1;
            prop_assert_eq!(val.expect_int() as u64, v.0 - 1, "value tracks version");
            for n in 0..13u32 {
                let (vn, _) = c.peek(NodeId(n), ObjectId(i)).unwrap();
                prop_assert!(vn <= v, "no replica ahead of the committed max");
            }
        }
        prop_assert_eq!(growth, c.stats().commits);
    }

    /// Rqv's zero-message commit: read-only transactions under QR-CN send
    /// read rounds and nothing else.
    #[test]
    fn read_only_closed_transactions_send_no_commit_traffic(
        seed in 0u64..500,
        reads in 1usize..6,
    ) {
        let c = Cluster::new(DtmConfig {
            nodes: 13,
            mode: NestingMode::Closed,
            seed,
            ..Default::default()
        });
        for i in 0..reads as u64 {
            c.preload(ObjectId(i), ObjVal::Int(7));
        }
        let client = c.client(NodeId(5));
        c.sim().spawn(async move {
            client
                .run(|tx| async move {
                    for i in 0..reads as u64 {
                        tx.read(ObjectId(i)).await?;
                    }
                    Ok(())
                })
                .await;
        });
        c.sim().run();
        let m = c.sim().metrics();
        prop_assert_eq!(m.sent(qrdtm_core::msg::class::COMMIT_REQ), 0);
        prop_assert_eq!(m.sent(qrdtm_core::msg::class::APPLY), 0);
        prop_assert_eq!(m.sent(qrdtm_core::msg::class::ABORT_REQ), 0);
        let s = c.stats();
        prop_assert_eq!(s.local_commits, 1);
        // Exactly one read round per distinct object (2 messages each for
        // the level-1 read quorum) plus their replies.
        prop_assert_eq!(s.read_rounds as usize, reads);
    }

    /// Disabling Rqv forces even read-only QR-CN transactions back to the
    /// quorum (the ablation's safety argument).
    #[test]
    fn disabling_rqv_disables_local_commits(seed in 0u64..200) {
        let c = Cluster::new(DtmConfig {
            nodes: 13,
            mode: NestingMode::Closed,
            seed,
            rqv: false,
            ..Default::default()
        });
        c.preload(ObjectId(0), ObjVal::Int(0));
        let client = c.client(NodeId(5));
        c.sim().spawn(async move {
            client
                .run(|tx| async move { tx.read(ObjectId(0)).await.map(|_| ()) })
                .await;
        });
        c.sim().run();
        let s = c.stats();
        prop_assert_eq!(s.local_commits, 0);
        prop_assert_eq!(s.commit_rounds, 1);
    }

    /// Contended read-write QR-CN runs on a cluster a detector has
    /// watched commit every offered transaction and produce a
    /// serializable history.
    #[test]
    fn watched_contended_runs_stay_serializable(seed in 0u64..200) {
        let c = watched(Cluster::new(DtmConfig {
            nodes: 7,
            mode: NestingMode::Closed,
            seed,
            latency: LatencySpec::Jittered(SimDuration::from_millis(10), 0.3),
            ..Default::default()
        }));
        for i in 0..3u64 {
            c.preload(ObjectId(i), ObjVal::Int(0));
        }
        c.enable_history();
        for node in 0..4u32 {
            let client = c.client(NodeId(node));
            let sim = c.sim().clone();
            c.sim().spawn(async move {
                for _ in 0..2 {
                    let a = sim.rand_below(3);
                    client
                        .run(move |tx| async move {
                            let v = tx.read(ObjectId(a)).await?.expect_int();
                            tx.write(ObjectId(a), ObjVal::Int(v + 1)).await
                        })
                        .await;
                }
            });
        }
        c.sim().run();
        prop_assert_eq!(c.stats().commits, 8);
        let violations = c.verify_history();
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}
