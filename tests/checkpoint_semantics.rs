//! Integration tests for QR-CHK checkpointing semantics: rollback targets
//! exclude every invalid object, replay reconstructs the execution exactly,
//! and commit-time conflicts still abort fully (the paper's design).

use qr_dtm::core::Version;
use qr_dtm::prelude::*;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn cluster(seed: u64, threshold: usize) -> Cluster {
    Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Checkpoint,
        seed,
        chk_threshold: threshold,
        chk_cost: SimDuration::ZERO,
        latency: LatencySpec::Const(SimDuration::from_millis(10)),
        ..Default::default()
    })
}

/// The rollback lands on the newest checkpoint that excludes the invalid
/// object: work before it is replayed (no messages), work after re-reads.
#[test]
fn rollback_replays_prefix_and_rereads_suffix() {
    let c = cluster(1, 2);
    for i in 1..=6u64 {
        c.preload(ObjectId(i), ObjVal::Int(10 * i as i64));
    }
    let sim = c.sim().clone();
    let body_runs = Rc::new(Cell::new(0));
    let br = Rc::clone(&body_runs);
    let out = Rc::new(Cell::new(0i64));
    let out2 = Rc::clone(&out);
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    sim.spawn(async move {
        let total = t1
            .run(|tx| {
                let br = Rc::clone(&br);
                let sim1 = sim1.clone();
                async move {
                    br.set(br.get() + 1);
                    let mut sum = 0;
                    // Objects 1,2 -> checkpoint 1; objects 3,4 -> checkpoint 2.
                    for i in 1..=4u64 {
                        sum += tx.read(ObjectId(i)).await?.expect_int();
                    }
                    sim1.sleep(SimDuration::from_millis(150)).await;
                    // Remote read of object 5 triggers Rqv; object 4 (bumped
                    // meanwhile, fetched under checkpoint 1... see writer) is
                    // detected and the rollback lands just before it.
                    sum += tx.read(ObjectId(5)).await?.expect_int();
                    Ok(sum)
                }
            })
            .await;
        out2.set(total);
    });
    let t2 = c.client(NodeId(5));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(95)).await;
        t2.run(|tx| async move {
            let v = tx.read(ObjectId(4)).await?.expect_int();
            tx.write(ObjectId(4), ObjVal::Int(v + 1)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 2);
    assert!(s.chk_rollbacks >= 1, "{s:?}");
    assert_eq!(s.root_aborts, 0, "read conflicts never fully abort: {s:?}");
    assert!(s.replayed_ops >= 2, "prefix replayed: {s:?}");
    assert_eq!(body_runs.get(), 2, "body re-entered once for the rollback");
    // 10+20+30+41+50: the retry observed the bumped object 4.
    assert_eq!(out.get(), 151);
}

/// Replay hands back the logged results — the re-execution observes the
/// exact same values for the prefix even if those objects changed remotely
/// in the meantime (snapshot stability of the kept prefix).
#[test]
fn replayed_prefix_is_stable() {
    let c = cluster(2, 2);
    for i in 1..=5u64 {
        c.preload(ObjectId(i), ObjVal::Int(0));
    }
    let sim = c.sim().clone();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen2 = Rc::clone(&seen);
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    sim.spawn(async move {
        t1.run(|tx| {
            let seen2 = Rc::clone(&seen2);
            let sim1 = sim1.clone();
            async move {
                let a = tx.read(ObjectId(1)).await?.expect_int();
                let b = tx.read(ObjectId(2)).await?.expect_int(); // checkpoint 1
                let c_ = tx.read(ObjectId(3)).await?.expect_int();
                seen2.borrow_mut().push((a, b, c_));
                sim1.sleep(SimDuration::from_millis(150)).await;
                tx.read(ObjectId(4)).await?; // Rqv catches stale object 3
                Ok(())
            }
        })
        .await;
    });
    let t2 = c.client(NodeId(5));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(80)).await;
        t2.run(|tx| async move {
            // Bump BOTH a prefix object (1) and the conflict object (3).
            // Object 1 was read under checkpoint 0... the rollback keeps it
            // only if it is still valid; since it is invalid too, the
            // rollback target moves before it.
            let v1 = tx.read(ObjectId(1)).await?.expect_int();
            let v3 = tx.read(ObjectId(3)).await?.expect_int();
            tx.write(ObjectId(1), ObjVal::Int(v1 + 100)).await?;
            tx.write(ObjectId(3), ObjVal::Int(v3 + 100)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let records = seen.borrow();
    // First run saw zeros; the rollback (to checkpoint 0, because object 1
    // itself was invalid) re-read everything and saw the bumps.
    assert_eq!(records[0], (0, 0, 0));
    assert_eq!(records.last().unwrap(), &(100, 0, 100));
    assert_eq!(c.stats().commits, 2);
}

/// Commit-request conflicts abort the WHOLE transaction under QR-CHK (the
/// paper: "when a conflict is detected during request commit, the entire
/// transaction is aborted and retried").
#[test]
fn commit_conflict_is_a_full_abort() {
    let c = cluster(3, 2);
    c.preload(ObjectId(1), ObjVal::Int(0));
    c.preload(ObjectId(2), ObjVal::Int(0));
    let sim = c.sim().clone();
    // T1 reads object 1 then writes object 2 after a long pause; no further
    // remote READ happens after the conflicting commit, so the conflict is
    // only discoverable at T1's commit request.
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    sim.spawn(async move {
        t1.run(|tx| {
            let sim1 = sim1.clone();
            async move {
                let v = tx.read(ObjectId(1)).await?.expect_int();
                let w = tx.read(ObjectId(2)).await?.expect_int();
                sim1.sleep(SimDuration::from_millis(200)).await;
                tx.write(ObjectId(2), ObjVal::Int(v + w + 1)).await?;
                Ok(())
            }
        })
        .await;
    });
    let t2 = c.client(NodeId(5));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(60)).await;
        t2.run(|tx| async move {
            let v = tx.read(ObjectId(1)).await?.expect_int();
            tx.write(ObjectId(1), ObjVal::Int(v + 10)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
    let s = c.stats();
    assert_eq!(s.commits, 2);
    assert!(s.root_aborts >= 1, "commit conflict fully aborts: {s:?}");
    // T1's retry saw the bump: 10 + 0 + 1.
    assert_eq!(c.latest(ObjectId(2)).unwrap().1, ObjVal::Int(11));
}

/// Checkpoint cadence follows the threshold.
#[test]
fn checkpoints_follow_the_threshold() {
    for (threshold, expected) in [(1usize, 6u64), (2, 3), (3, 2), (6, 1)] {
        let c = cluster(4, threshold);
        for i in 1..=6u64 {
            c.preload(ObjectId(i), ObjVal::Int(0));
        }
        let t = c.client(NodeId(3));
        c.sim().spawn(async move {
            t.run(|tx| async move {
                for i in 1..=6u64 {
                    tx.read(ObjectId(i)).await?;
                }
                Ok(())
            })
            .await;
        });
        c.sim().run();
        assert_eq!(
            c.stats().checkpoints,
            expected,
            "threshold {threshold}: 6 objects"
        );
    }
}

/// Checkpoint creation cost is charged in virtual time.
#[test]
fn checkpoint_cost_consumes_virtual_time() {
    let elapsed = |cost: SimDuration| {
        let c = Cluster::new(DtmConfig {
            nodes: 13,
            mode: NestingMode::Checkpoint,
            seed: 5,
            chk_threshold: 1,
            chk_cost: cost,
            latency: LatencySpec::Const(SimDuration::from_millis(10)),
            ..Default::default()
        });
        for i in 1..=8u64 {
            c.preload(ObjectId(i), ObjVal::Int(0));
        }
        let t = c.client(NodeId(3));
        c.sim().spawn(async move {
            t.run(|tx| async move {
                for i in 1..=8u64 {
                    tx.read(ObjectId(i)).await?;
                }
                Ok(())
            })
            .await;
        });
        c.sim().run();
        c.sim().now()
    };
    let cheap = elapsed(SimDuration::ZERO);
    let pricey = elapsed(SimDuration::from_millis(5));
    assert_eq!(
        (pricey - cheap).as_nanos(),
        8 * SimDuration::from_millis(5).as_nanos(),
        "8 checkpoints x 5ms"
    );
}

/// A write promoted from a local hit lives in the write set under the
/// `owner_chk` of the read it shadows, so a rollback that lands between
/// the read and the promotion must drop the write and keep the read. `x`
/// is read under checkpoint 0 and promoted after checkpoint 3; a second
/// client then overwrites the first object fetched under checkpoint 2.
#[test]
fn rollback_drops_a_write_promoted_after_the_mark() {
    const X: ObjectId = ObjectId(1);
    const Z: ObjectId = ObjectId(99);
    for threshold in [1usize, 2] {
        let t = threshold as u64;
        let c = cluster(6, threshold);
        c.enable_history();
        // X and then ids 2.. are read in order, `threshold` per checkpoint.
        let scanned = 3 * t;
        for i in 1..=scanned {
            c.preload(ObjectId(i), ObjVal::Int(100 * i as i64));
        }
        c.preload(Z, ObjVal::Int(-1));
        let victim = ObjectId(2 * t + 1); // first fetch under checkpoint 2
        let sim = c.sim().clone();
        let body_runs = Rc::new(Cell::new(0));
        let x_before_write = Rc::new(RefCell::new(Vec::new()));
        let t1 = c.client(NodeId(3));
        {
            let (sim1, br, seen) = (
                sim.clone(),
                Rc::clone(&body_runs),
                Rc::clone(&x_before_write),
            );
            sim.spawn(async move {
                t1.run(|tx| {
                    let (sim1, br, seen) = (sim1.clone(), Rc::clone(&br), Rc::clone(&seen));
                    async move {
                        br.set(br.get() + 1);
                        for i in 1..=scanned {
                            tx.read(ObjectId(i)).await?;
                        }
                        // Both local hits: what the data set holds for X,
                        // then the promotion.
                        let held = tx.read(X).await?.expect_int();
                        seen.borrow_mut().push(held);
                        tx.write(X, ObjVal::Int(777)).await?;
                        sim1.sleep(SimDuration::from_millis(200)).await;
                        tx.read(Z).await?; // Rqv finds the victim stale
                        Ok(())
                    }
                })
                .await;
            });
        }
        let t2 = c.client(NodeId(5));
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(130)).await;
            t2.run(|tx| async move {
                let v = tx.read(victim).await?.expect_int();
                tx.write(victim, ObjVal::Int(v + 1)).await?;
                Ok(())
            })
            .await;
        });
        c.sim().run();
        let s = c.stats();
        assert_eq!(s.commits, 2, "threshold {threshold}: {s:?}");
        assert_eq!(s.chk_rollbacks, 1, "threshold {threshold}: {s:?}");
        assert_eq!(s.root_aborts, 0, "threshold {threshold}: {s:?}");
        assert_eq!(body_runs.get(), 2, "threshold {threshold}");
        // Checkpoint 2 was taken after 2*threshold reads: exactly those are
        // replayed, everything later is issued again.
        assert_eq!(s.replayed_ops, 2 * t, "threshold {threshold}: {s:?}");
        let first_run = scanned + 1;
        let second_run = (scanned - 2 * t) + 1;
        assert_eq!(
            s.read_rounds,
            first_run + second_run + 1,
            "threshold {threshold}: no round for the replayed prefix: {s:?}"
        );
        // Had the promoted write survived the rollback, the second run's
        // local read of X would have seen 777.
        assert_eq!(
            *x_before_write.borrow(),
            [100, 100],
            "threshold {threshold}"
        );
        assert_eq!(
            c.latest(X).unwrap(),
            (Version(2), ObjVal::Int(777)),
            "threshold {threshold}: X installed exactly once"
        );
        assert_eq!(c.latest(Z).unwrap().0, Version::INITIAL);
        assert_eq!(c.verify_history(), vec![], "threshold {threshold}");
    }
}

/// Run a body that is not a pure function of its `Tx` results. Its first
/// execution reads objects 1, 2 (checkpoint 1), 3, and after a pause 5,
/// where Rqv finds 3 overwritten and rolls back to checkpoint 1: two
/// logged reads to replay. Its second execution issues `second_run`
/// instead — `(object, Some(value to write) | None to read)` — and returns.
fn run_diverging_body(second_run: &'static [(u64, Option<i64>)]) {
    let c = cluster(7, 2);
    for i in 1..=5u64 {
        c.preload(ObjectId(i), ObjVal::Int(0));
    }
    let sim = c.sim().clone();
    let runs = Rc::new(Cell::new(0u32));
    let t1 = c.client(NodeId(3));
    let sim1 = sim.clone();
    sim.spawn(async move {
        t1.run(|tx| {
            let (sim1, runs) = (sim1.clone(), Rc::clone(&runs));
            async move {
                runs.set(runs.get() + 1);
                if runs.get() == 1 {
                    for i in 1..=3u64 {
                        tx.read(ObjectId(i)).await?;
                    }
                    sim1.sleep(SimDuration::from_millis(150)).await;
                    tx.read(ObjectId(5)).await?;
                    unreachable!("object 3 was overwritten during the pause");
                }
                for &(oid, write) in second_run {
                    match write {
                        None => drop(tx.read(ObjectId(oid)).await?),
                        Some(v) => tx.write(ObjectId(oid), ObjVal::Int(v)).await?,
                    }
                }
                Ok(())
            }
        })
        .await;
    });
    let t2 = c.client(NodeId(5));
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(80)).await;
        t2.run(|tx| async move {
            let v = tx.read(ObjectId(3)).await?.expect_int();
            tx.write(ObjectId(3), ObjVal::Int(v + 1)).await?;
            Ok(())
        })
        .await;
    });
    c.sim().run();
}

/// Another object's read where the log holds `o1`'s: served from the log
/// it would silently get `o1`'s value. It is diagnosed instead.
#[test]
#[should_panic(
    expected = "replay divergence in T3.0: op 0 was logged as (o1, read) but the re-executed body issued (o2, read)"
)]
fn replay_of_a_different_object_is_diagnosed() {
    run_diverging_body(&[(2, None)]);
}

/// A write where a read was logged.
#[test]
#[should_panic(
    expected = "replay divergence in T3.0: op 1 was logged as (o2, read) but the re-executed body issued (o2, write)"
)]
fn replay_of_a_different_kind_is_diagnosed() {
    run_diverging_body(&[(1, None), (2, Some(9))]);
}

/// A body that returns before it has re-issued the whole logged prefix
/// would commit a restored data set it did not produce.
#[test]
#[should_panic(expected = "T3.0: the re-executed body finished after 1 of the 2 logged operations")]
fn replay_cut_short_is_diagnosed() {
    run_diverging_body(&[(1, None)]);
}
