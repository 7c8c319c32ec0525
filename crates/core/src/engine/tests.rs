//! Engine unit tests (moved with the runtime split; scenarios unchanged).

use super::*;
use crate::cluster::{Cluster, DtmConfig, InjectedBug, LatencySpec};
use crate::object::Version;
use crate::txid::NestingMode;
use std::cell::Cell;

fn cfg(mode: NestingMode) -> DtmConfig {
    DtmConfig {
        mode,
        latency: LatencySpec::Const(SimDuration::from_millis(10)),
        ..Default::default()
    }
}

fn o(i: u64) -> ObjectId {
    ObjectId(i)
}

/// Run a single writer transaction and check the commit became visible.
#[test]
fn flat_write_commits_and_is_visible() {
    let c = Cluster::new(cfg(NestingMode::Flat));
    c.preload(o(1), ObjVal::Int(10));
    let client = c.client(NodeId(5));
    let sim = c.sim().clone();
    sim.spawn(async move {
        client
            .run(|tx| async move {
                let v = tx.read(o(1)).await?.expect_int();
                tx.write(o(1), ObjVal::Int(v + 5)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let (ver, val) = c.latest(o(1)).unwrap();
    assert_eq!(val, ObjVal::Int(15));
    assert_eq!(ver, Version(2));
    let s = c.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.root_aborts, 0);
    assert_eq!(s.commit_rounds, 1);
    // Every write-quorum replica is unlocked afterwards.
    for n in c.write_quorum() {
        let (v, _) = c.peek(n, o(1)).unwrap();
        assert_eq!(v, Version(2));
    }
}

#[test]
fn second_read_is_a_local_hit() {
    let c = Cluster::new(cfg(NestingMode::Closed));
    c.preload(o(1), ObjVal::Int(1));
    let client = c.client(NodeId(4));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                tx.read(o(1)).await?;
                tx.read(o(1)).await?;
                tx.read(o(1)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.read_rounds, 1);
    assert_eq!(s.local_hits, 2);
}

#[test]
fn read_only_commits_locally_under_closed_nesting() {
    let c = Cluster::new(cfg(NestingMode::Closed));
    c.preload(o(1), ObjVal::Int(1));
    let client = c.client(NodeId(4));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                tx.read(o(1)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.local_commits, 1);
    assert_eq!(s.commit_rounds, 0, "zero commit messages");
}

#[test]
fn read_only_still_validates_remotely_under_flat() {
    let c = Cluster::new(cfg(NestingMode::Flat));
    c.preload(o(1), ObjVal::Int(1));
    let client = c.client(NodeId(4));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                tx.read(o(1)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    assert_eq!(c.stats().commit_rounds, 1);
}

#[test]
fn write_after_read_promotes_without_extra_round() {
    let c = Cluster::new(cfg(NestingMode::Flat));
    c.preload(o(1), ObjVal::Int(1));
    let client = c.client(NodeId(4));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                let v = tx.read(o(1)).await?.expect_int();
                tx.write(o(1), ObjVal::Int(v * 2)).await?;
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.read_rounds, 1, "write reused the read's copy");
    assert_eq!(c.latest(o(1)).unwrap().1, ObjVal::Int(2));
}

/// The paper's key scenario: a conflict on a CT-owned object aborts only
/// the CT; the root's work (and its reads) survive.
#[test]
fn conflict_on_ct_object_aborts_only_the_ct() {
    let c = Cluster::new(cfg(NestingMode::Closed));
    c.preload_all([
        (o(1), ObjVal::Int(1)),
        (o(2), ObjVal::Int(2)),
        (o(3), ObjVal::Int(3)),
    ]);
    let sim = c.sim().clone();
    // T1 at node 3: root reads o1; CT reads o2, dawdles, reads o3.
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    let result = Rc::new(Cell::new(0i64));
    let result2 = Rc::clone(&result);
    sim.spawn(async move {
        let total = t1
            .run(|tx| {
                let sim1 = sim1.clone();
                async move {
                    let a = tx.read(o(1)).await?.expect_int();
                    let bc = tx
                        .closed(|tx2| {
                            let sim1 = sim1.clone();
                            async move {
                                let b = tx2.read(o(2)).await?.expect_int();
                                sim1.sleep(SimDuration::from_millis(100)).await;
                                let c = tx2.read(o(3)).await?.expect_int();
                                Ok(b + c)
                            }
                        })
                        .await?;
                    Ok(a + bc)
                }
            })
            .await;
        result2.set(total);
    });
    // T2 at node 4: bump o2 while T1's CT holds its first copy.
    let t2 = c.client(NodeId(4));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(45)).await;
        t2.run(|tx| async move {
            let v = tx.read(o(2)).await?.expect_int();
            tx.write(o(2), ObjVal::Int(v + 100)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 2);
    assert!(s.ct_aborts >= 1, "the CT retried: {s:?}");
    assert_eq!(s.root_aborts, 0, "the root never aborted: {s:?}");
    // T1 saw the committed bump after its CT retry: 1 + 102 + 3.
    assert_eq!(result.get(), 106);
}

/// Same contention shape under flat nesting: the whole transaction
/// retries instead.
#[test]
fn conflict_under_flat_aborts_the_root() {
    let c = Cluster::new(cfg(NestingMode::Flat));
    c.preload_all([(o(1), ObjVal::Int(1)), (o(2), ObjVal::Int(2))]);
    let sim = c.sim().clone();
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    sim.spawn(async move {
        t1.run(|tx| {
            let sim1 = sim1.clone();
            async move {
                let a = tx.read(o(2)).await?.expect_int();
                sim1.sleep(SimDuration::from_millis(100)).await;
                tx.write(o(1), ObjVal::Int(a)).await?;
                Ok(())
            }
        })
        .await;
    });
    let t2 = c.client(NodeId(4));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(30)).await;
        t2.run(|tx| async move {
            let v = tx.read(o(2)).await?.expect_int();
            tx.write(o(2), ObjVal::Int(v + 1)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 2);
    assert!(s.root_aborts >= 1, "flat conflict is a full abort: {s:?}");
    assert_eq!(s.ct_aborts, 0);
    // T1 committed after retry with the fresh value of o2.
    assert_eq!(c.latest(o(1)).unwrap().1, ObjVal::Int(3));
}

/// QR-CHK: a read-time conflict rolls back to the newest checkpoint that
/// excludes the invalid object, replays the prefix, and commits.
#[test]
fn checkpoint_rollback_replays_and_commits() {
    let mut config = cfg(NestingMode::Checkpoint);
    config.chk_threshold = 2;
    config.chk_cost = SimDuration::ZERO;
    let c = Cluster::new(config);
    c.preload_all((1..=5).map(|i| (o(i), ObjVal::Int(i as i64))));
    let sim = c.sim().clone();
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    let result = Rc::new(Cell::new(0i64));
    let result2 = Rc::clone(&result);
    sim.spawn(async move {
        let total = t1
            .run(|tx| {
                let sim1 = sim1.clone();
                async move {
                    let a = tx.read(o(1)).await?.expect_int();
                    let b = tx.read(o(2)).await?.expect_int(); // checkpoint 1 here
                    let c_ = tx.read(o(3)).await?.expect_int();
                    sim1.sleep(SimDuration::from_millis(120)).await;
                    let d = tx.read(o(4)).await?.expect_int();
                    tx.write(o(5), ObjVal::Int(a + b + c_ + d)).await?;
                    Ok(a + b + c_ + d)
                }
            })
            .await;
        result2.set(total);
    });
    // Conflicting writer bumps o3 while T1 sleeps (o3 was fetched under
    // checkpoint 1, so rollback lands exactly on checkpoint 1).
    let t2 = c.client(NodeId(4));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(70)).await;
        t2.run(|tx| async move {
            let v = tx.read(o(3)).await?.expect_int();
            tx.write(o(3), ObjVal::Int(v + 10)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 2);
    assert!(s.chk_rollbacks >= 1, "partial rollback happened: {s:?}");
    assert_eq!(s.root_aborts, 0, "never a full abort: {s:?}");
    assert!(s.replayed_ops >= 2, "the prefix was replayed: {s:?}");
    assert!(s.checkpoints >= 1);
    // 1 + 2 + 13 + 4 after seeing T2's bump.
    assert_eq!(result.get(), 20);
    assert_eq!(c.latest(o(5)).unwrap().1, ObjVal::Int(20));
}

/// Two writers hammering the same object: locks, votes and releases keep
/// the history linear (versions strictly increase by one per commit).
#[test]
fn contending_writers_serialize() {
    let c = Cluster::new(cfg(NestingMode::Flat));
    c.preload(o(1), ObjVal::Int(0));
    let sim = c.sim().clone();
    for node in [3u32, 4, 5, 6] {
        let client = c.client(NodeId(node));
        sim.spawn(async move {
            for _ in 0..3 {
                client
                    .run(|tx| async move {
                        let v = tx.read(o(1)).await?.expect_int();
                        tx.write(o(1), ObjVal::Int(v + 1)).await?;
                        Ok(())
                    })
                    .await;
            }
        });
    }
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 12);
    let (ver, val) = c.latest(o(1)).unwrap();
    assert_eq!(val, ObjVal::Int(12), "no lost updates");
    assert_eq!(ver, Version(13), "one version bump per commit");
    // No replica remains locked.
    for n in 0..13u32 {
        let r = c.inner.stores[n as usize].borrow();
        assert_eq!(
            r.get(o(1)).unwrap().protected_by,
            None,
            "node {n} still locked"
        );
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    fn run_once(seed: u64) -> (crate::stats::DtmStats, u64, u64) {
        let mut config = cfg(NestingMode::Closed);
        config.seed = seed;
        config.latency = LatencySpec::Jittered(SimDuration::from_millis(15), 0.2);
        let c = Cluster::new(config);
        c.preload_all((0..8).map(|i| (o(i), ObjVal::Int(0))));
        let sim = c.sim().clone();
        for node in 3..9u32 {
            let client = c.client(NodeId(node));
            let sim2 = sim.clone();
            sim.spawn(async move {
                for i in 0..4u64 {
                    let target = o((u64::from(node) + i) % 8);
                    client
                        .run(|tx| async move {
                            let v = tx.read(target).await?.expect_int();
                            tx.closed(
                                |tx2| async move { tx2.write(target, ObjVal::Int(v + 1)).await },
                            )
                            .await?;
                            Ok(())
                        })
                        .await;
                    sim2.sleep(SimDuration::from_millis(1)).await;
                }
            });
        }
        c.sim().run();
        (
            c.stats(),
            c.sim().metrics().sent_total,
            c.sim().now().as_nanos(),
        )
    }
    assert_eq!(run_once(7), run_once(7));
    // A different seed perturbs the jittered latencies, so the virtual
    // end-of-run instant differs even if counts happen to coincide.
    assert_ne!(run_once(7).2, run_once(8).2);
}

/// The refactor's event sink: engine events mirror the protocol milestones
/// without perturbing the simulation.
#[test]
fn engine_events_mirror_protocol_milestones() {
    use qrdtm_sim::EngineEventKind;
    let mut config = cfg(NestingMode::Checkpoint);
    config.chk_threshold = 2;
    config.chk_cost = SimDuration::ZERO;
    let c = Cluster::new(config);
    c.sim().record_engine_events(true);
    c.preload_all((1..=4).map(|i| (o(i), ObjVal::Int(i as i64))));
    let client = c.client(NodeId(3));
    c.sim().spawn(async move {
        client
            .run(|tx| async move {
                for i in 1..=4 {
                    tx.read(o(i)).await?;
                }
                Ok(())
            })
            .await;
    });
    c.sim().run();
    let m = c.sim().metrics();
    let s = c.stats();
    assert_eq!(
        m.engine_events(EngineEventKind::QuorumRound),
        s.read_rounds + s.commit_rounds,
        "one QuorumRound event per RPC round"
    );
    assert_eq!(
        m.engine_events(EngineEventKind::ReadValidated),
        s.read_rounds,
        "every remote read under QR-CHK is Rqv-validated"
    );
    assert_eq!(
        m.engine_events(EngineEventKind::CheckpointTaken),
        s.checkpoints
    );
    assert_eq!(m.engine_events(EngineEventKind::AbortWithTarget), 0);
    assert_eq!(
        m.engine_event_log.len() as u64,
        m.engine_events_by_kind.iter().sum::<u64>(),
        "recording captured every event"
    );
}

// ---- The phase-two registry and the epoch fence, on hand-built schedules ----
//
// Node 5 writes (or reads) `o(1)` on the 13-node constant-latency cluster;
// the tests stop the clock a millisecond at a time, so "while the message
// is in flight" is an exact instant and not luck.

fn one_transaction(config: DtmConfig, write: bool) -> Cluster {
    let c = Cluster::new(config);
    c.preload(o(1), ObjVal::Int(10));
    let client = c.client(NodeId(5));
    c.sim().spawn(async move {
        let body = |tx: Tx| async move {
            if write {
                tx.write(o(1), ObjVal::Int(77)).await
            } else {
                tx.read(o(1)).await.map(|_| ())
            }
        };
        client.run(body).await;
    });
    c
}

fn step_until(c: &Cluster, what: &str, reached: impl Fn() -> bool) {
    for _ in 0..2_000 {
        if reached() {
            return;
        }
        c.sim().run_for(SimDuration::from_millis(1));
    }
    panic!("never reached: {what}");
}

/// Version of `o(1)` at `n` and whether a commit lock sits on it.
fn copy_at(c: &Cluster, n: NodeId) -> (Version, bool) {
    let store = c.inner.stores[n.index()].borrow();
    let r = store.get(o(1)).expect("preloaded");
    (r.version, r.protected_by.is_some())
}

fn alive(c: &Cluster) -> Vec<NodeId> {
    let all = (0..c.config().nodes as u32).map(NodeId);
    all.filter(|&n| c.sim().is_alive(n)).collect()
}

/// `version` is on the whole write quorum and no alive replica is locked.
fn assert_committed(c: &Cluster, version: Version) {
    for n in c.write_quorum() {
        assert_eq!(copy_at(c, n), (version, false), "node {n:?}");
    }
    for n in alive(c) {
        assert!(!copy_at(c, n).1, "node {n:?} still locked");
    }
}

/// A node that is neither the client nor in a quorum: failing it changes
/// the view and nothing else.
fn bystander(c: &Cluster) -> NodeId {
    let (rq, wq) = (c.read_quorum(), c.write_quorum());
    let busy = |n: &NodeId| *n == NodeId(5) || rq.contains(n) || wq.contains(n);
    alive(c).into_iter().find(|n| !busy(n)).expect("a spare")
}

/// Voters other than the client's node and the read quorum.
fn voters(c: &Cluster) -> Vec<NodeId> {
    let rq = c.read_quorum();
    let plain = |n: &NodeId| *n != NodeId(5) && !rq.contains(n);
    c.write_quorum().into_iter().filter(plain).collect()
}

/// Cut `n` off once the decided phase two is on the wire, and let every
/// other voter process it.
fn lose_phase_two_at(c: &Cluster, n: NodeId) {
    step_until(c, "a decided phase two", || {
        !c.inner.pending.borrow().is_empty()
    });
    c.sim().set_partition(&[vec![n]]);
    c.sim().run_for(SimDuration::from_millis(20));
}

#[test]
fn view_change_finishes_an_apply_still_in_flight() {
    let c = one_transaction(cfg(NestingMode::Flat), true);
    let cut = voters(&c)[0];
    lose_phase_two_at(&c, cut);
    assert_eq!(copy_at(&c, cut), (Version(1), true), "missed the Apply");
    assert!(crash(&c, c.sim(), bystander(&c)));
    // At the view change, long before the fan-out's retry: refresh alone
    // leaves a locked replica alone, so this is the registry's work.
    for n in alive(&c) {
        assert_eq!(copy_at(&c, n), (Version(2), false), "node {n:?}");
    }
    assert_eq!(c.inner.pending.borrow().len(), 1, "fan-out still retrying");
    c.sim().heal_partition();
    c.sim().run();
    for n in alive(&c) {
        assert_eq!(copy_at(&c, n), (Version(2), false), "retry was harmless");
    }
    assert!(c.inner.pending.borrow().is_empty());
    let s = c.stats();
    assert_eq!((s.commits, s.root_aborts), (1, 0));
    assert!(s.timeouts >= 1, "the fan-out did time out and retry");
}

#[test]
fn view_change_finishes_a_release_still_in_flight() {
    let c = one_transaction(cfg(NestingMode::Flat), true);
    // A foreign commit lock makes one voter refuse; the others grant.
    let (refuser, cut) = (voters(&c)[0], voters(&c)[1]);
    let foreign = crate::txid::TxId { node: 99, seq: 0 };
    let lock = &[(o(1), Version(1))];
    assert!(c.inner.stores[refuser.index()]
        .borrow_mut()
        .vote(foreign, &[], lock));
    lose_phase_two_at(&c, cut);
    assert_eq!(copy_at(&c, cut), (Version(1), true), "missed the release");
    assert!(crash(&c, c.sim(), bystander(&c)));
    for n in alive(&c).into_iter().filter(|&n| n != refuser) {
        assert_eq!(copy_at(&c, n), (Version(1), false), "node {n:?}");
    }
    assert_eq!(c.inner.pending.borrow().len(), 1, "fan-out still retrying");
    c.inner.stores[refuser.index()]
        .borrow_mut()
        .release(foreign, &[o(1)]);
    c.sim().heal_partition();
    c.sim().run();
    assert_committed(&c, Version(2));
    assert!(c.inner.pending.borrow().is_empty());
    let s = c.stats();
    assert_eq!((s.commits, s.root_aborts), (1, 1));
}

/// ROADMAP 6(b): fail a bystander while the `CommitReq` round is in flight,
/// so the votes straddle an epoch bump. Returns commits, root aborts and
/// commit rounds at the end.
fn view_change_mid_vote(write: bool, bug: Option<InjectedBug>) -> (u64, u64, u64) {
    let mut config = cfg(NestingMode::Flat);
    config.injected_bug = bug;
    let c = one_transaction(config, write);
    step_until(&c, "CommitReq sent", || c.stats().commit_rounds == 1);
    let epoch = c.view_epoch();
    assert!(crash(&c, c.sim(), bystander(&c)));
    assert_eq!(c.view_epoch(), epoch + 1);
    if bug.is_none() {
        step_until(&c, "the fenced attempt", || c.stats().root_aborts == 1);
        for n in alive(&c) {
            assert_eq!(copy_at(&c, n), (Version(1), false), "nothing installed");
        }
    }
    c.sim().run();
    assert_committed(&c, Version(1 + u64::from(write)));
    assert!(c.inner.pending.borrow().is_empty());
    let s = c.stats();
    (s.commits, s.root_aborts, s.commit_rounds)
}

#[test]
fn epoch_fence_aborts_a_vote_that_straddles_a_view_change() {
    // The update commit, then the read-only vote path flat QR takes.
    for write in [true, false] {
        assert_eq!(view_change_mid_vote(write, None), (1, 1, 2));
        let unfenced = view_change_mid_vote(write, Some(InjectedBug::SkipEpochFence));
        assert_eq!(unfenced, (1, 0, 1), "the first attempt went through");
    }
}
