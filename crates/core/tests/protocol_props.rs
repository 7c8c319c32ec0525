//! Protocol-level property tests: mode discipline of the counters, lock
//! hygiene at quiescence, version/commit bookkeeping, and Rqv's
//! zero-message guarantees — across random configurations.

use proptest::prelude::*;
use qrdtm_core::{
    Cluster, DetectorConfig, DtmConfig, LatencySpec, NestingMode, ObjVal, ObjectId, Version,
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

/// A read-only QR-CN workload with the transport's hedging knob set to
/// `hedge` extra destinations per read round: six clients, two
/// transactions each, two reads per transaction, under jittered latency
/// so hedge replies genuinely race the quorum's.
fn hedged_read_only_run(seed: u64, hedge: usize) -> Cluster {
    let c = Cluster::new(DtmConfig {
        nodes: 7,
        mode: NestingMode::Closed,
        seed,
        latency: LatencySpec::Jittered(SimDuration::from_millis(10), 0.4),
        detector: Some(DetectorConfig { hedge }),
        ..Default::default()
    });
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

/// Hedged reads disqualify Rqv's zero-message local commit. A read round
/// won by a hedge reply came from outside the configured read quorum, so
/// the local-commit proof (every read saw the quorum) no longer covers the
/// transaction and it must fall back to a full commit round. With hedging
/// off every read-only transaction commits locally; with it on, exactly
/// the hedge-free transactions still do, the rest pay a commit round, the
/// losers' late replies are accounted as wasted, and the history stays
/// serializable throughout.
#[test]
fn hedged_reads_disqualify_local_commits_but_stay_serializable() {
    // Seed 16 is pinned so both branches of the fallback are exercised:
    // some transactions see only quorum replies (and stay local), most
    // get at least one hedge win (and take a commit round).
    let baseline = hedged_read_only_run(16, 0);
    let sb = baseline.stats();
    assert_eq!(sb.commits, 12, "6 clients x 2 read-only txns");
    assert_eq!(sb.local_commits, sb.commits, "all commits are local");
    assert_eq!(sb.commit_rounds, 0);
    let mb = baseline.sim().metrics();
    assert_eq!((mb.hedged_calls, mb.hedged_wins), (0, 0));
    assert!(baseline.verify_history().is_empty());

    let hedged = hedged_read_only_run(16, 2);
    let sh = hedged.stats();
    let mh = hedged.sim().metrics();
    assert_eq!(sh.commits, 12, "hedging changes cost, not outcomes");
    assert!(mh.hedged_calls > 0, "every read round hedged");
    assert!(mh.hedged_wins > 0, "at least one hedge reply won the race");
    assert!(
        mh.wasted_replies > 0,
        "losing destinations' replies are wasted, and counted"
    );
    assert!(sh.local_commits > 0, "hedge-free txns keep the fast path");
    assert!(
        sh.local_commits < sh.commits,
        "hedge-won txns lost the fast path"
    );
    assert_eq!(
        sh.commit_rounds,
        sh.commits - sh.local_commits,
        "each disqualified txn pays exactly one commit round"
    );
    assert!(hedged.verify_history().is_empty());
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

    /// Hedging is a latency tool, not a correctness lever: contended
    /// read-write QR-CN runs with hedged reads still commit every offered
    /// transaction and produce a serializable history.
    #[test]
    fn hedged_contended_runs_stay_serializable(
        seed in 0u64..200,
        hedge in 1usize..4,
    ) {
        let c = Cluster::new(DtmConfig {
            nodes: 7,
            mode: NestingMode::Closed,
            seed,
            latency: LatencySpec::Jittered(SimDuration::from_millis(10), 0.3),
            detector: Some(DetectorConfig { hedge }),
            ..Default::default()
        });
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
