//! Protocol-conformance suite: one parameterized scenario set run against
//! every [`DtmProtocol`] implementation — QR flat, QR-CN, QR-CHK, TFA
//! (HyFlow), Decent-STM and Q-Store on the simulator, and the threaded
//! TL2 backend of `qrdtm-par`.
//!
//! The trait promises begin/read/write/commit/restart semantics that the
//! workload drivers rely on regardless of protocol:
//!
//! * **read-your-writes** — a transaction observes its own buffered write;
//! * **write visibility after commit** — a committed write is observed by
//!   a later transaction from another node;
//! * **abort isolation** — a write buffered by an aborted attempt is never
//!   observed, neither by the restarted attempt nor by other transactions;
//! * **determinism per seed** — a contended run is reproducible message-
//!   for-message given the same seed.

use std::cell::Cell;
use std::rc::Rc;

use qr_dtm::baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qr_dtm::core::{Cluster, DtmConfig, DtmProtocol, ObjVal, ObjectId, ProtocolStats, SimHosted};
use qr_dtm::prelude::{Abort, NestingMode, NodeId};
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};
use qr_dtm::workloads::protocol_bank::transfer;

const ACCOUNTS: u64 = 8;
const INITIAL: i64 = 100;

/// Run every scenario against clusters produced by `mk(seed)` (preloaded
/// with `ACCOUNTS` integer objects of value `INITIAL`).
fn conforms<P, F>(mk: F)
where
    P: SimHosted + 'static,
    F: Fn(u64) -> Rc<P>,
{
    on_sim(mk(11), read_your_writes);
    on_sim(mk(12), write_visibility_after_commit);
    on_sim(mk(13), abort_isolation);
    determinism_per_seed(&mk);
}

/// Run `scenario` as one task on `p`'s simulator, to quiescence, and fail
/// if it is still blocked there (a read or commit that never resolved).
fn on_sim<P: SimHosted + 'static>(p: Rc<P>, scenario: impl AsyncFnOnce(&P) + 'static) {
    let done = Rc::new(Cell::new(false));
    let (p2, done2) = (Rc::clone(&p), Rc::clone(&done));
    p.sim().spawn(async move {
        scenario(&*p2).await;
        done2.set(true);
    });
    p.sim().run();
    assert!(done.get(), "scenario did not run to completion");
}

async fn read_your_writes<P: DtmProtocol>(p: &P) {
    let mut h = p.begin(NodeId(0));
    let a = p.read(&mut h, ObjectId(1)).await.unwrap().expect_int();
    assert_eq!(a, INITIAL);
    p.write(&mut h, ObjectId(1), ObjVal::Int(7)).await.unwrap();
    assert_eq!(
        p.read(&mut h, ObjectId(1)).await.unwrap(),
        ObjVal::Int(7),
        "a transaction must observe its own write"
    );
    p.commit(&mut h).await.unwrap();
    assert_eq!(
        p.protocol_stats(),
        ProtocolStats {
            commits: 1,
            aborts: 0
        }
    );
}

async fn write_visibility_after_commit<P: DtmProtocol>(p: &P) {
    let mut h = p.begin(NodeId(0));
    p.write(&mut h, ObjectId(2), ObjVal::Int(INITIAL + 23))
        .await
        .unwrap();
    p.commit(&mut h).await.unwrap();

    let mut h2 = p.begin(NodeId(3));
    assert_eq!(
        p.read(&mut h2, ObjectId(2)).await.unwrap(),
        ObjVal::Int(INITIAL + 23),
        "a committed write must be visible to later transactions"
    );
    p.commit(&mut h2).await.unwrap();
    assert_eq!(p.protocol_stats().commits, 2);
}

async fn abort_isolation<P: DtmProtocol>(p: &P) {
    let mut h = p.begin(NodeId(0));
    p.write(&mut h, ObjectId(0), ObjVal::Int(-1)).await.unwrap();
    // The attempt aborts before commit; restart must discard the write.
    p.restart(&mut h, Abort::root()).await;
    assert_eq!(
        p.read(&mut h, ObjectId(0)).await.unwrap(),
        ObjVal::Int(INITIAL),
        "the restarted attempt must not observe the aborted write"
    );
    p.commit(&mut h).await.unwrap();

    let mut h2 = p.begin(NodeId(5));
    assert_eq!(
        p.read(&mut h2, ObjectId(0)).await.unwrap(),
        ObjVal::Int(INITIAL),
        "other transactions must not observe the aborted write"
    );
    p.commit(&mut h2).await.unwrap();
}

fn determinism_per_seed<P, F>(mk: &F)
where
    P: SimHosted + 'static,
    F: Fn(u64) -> Rc<P>,
{
    let run_once = || {
        let p = mk(99);
        for node in 0..4u32 {
            let p2 = Rc::clone(&p);
            p.sim().spawn(async move {
                for i in 0..3u64 {
                    let from = ObjectId((u64::from(node) + i) % ACCOUNTS);
                    let to = ObjectId((u64::from(node) + i + 1) % ACCOUNTS);
                    transfer(&*p2, NodeId(node), from, to, 3).await;
                }
            });
        }
        p.sim().run();
        (p.protocol_stats(), p.sim().metrics().sent_total)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0.commits, 12, "every transfer eventually commits");
    assert_eq!(a, b, "same seed must replay the same run");
}

fn qr(mode: NestingMode) -> impl Fn(u64) -> Rc<Cluster> {
    move |seed| {
        let c = Rc::new(Cluster::new(DtmConfig {
            nodes: 13,
            mode,
            seed,
            ..Default::default()
        }));
        for i in 0..ACCOUNTS {
            c.preload(ObjectId(i), ObjVal::Int(INITIAL));
        }
        c
    }
}

#[test]
fn qr_flat_conforms() {
    assert_eq!(qr(NestingMode::Flat)(1).protocol_name(), "QR");
    conforms(qr(NestingMode::Flat));
}

#[test]
fn qr_cn_conforms() {
    assert_eq!(qr(NestingMode::Closed)(1).protocol_name(), "QR-CN");
    conforms(qr(NestingMode::Closed));
}

#[test]
fn qr_chk_conforms() {
    assert_eq!(qr(NestingMode::Checkpoint)(1).protocol_name(), "QR-CHK");
    conforms(qr(NestingMode::Checkpoint));
}

#[test]
fn tfa_conforms() {
    let mk = |seed| {
        let c = Rc::new(TfaCluster::new(TfaConfig {
            seed,
            ..Default::default()
        }));
        for i in 0..ACCOUNTS {
            c.preload(ObjectId(i), ObjVal::Int(INITIAL));
        }
        c
    };
    assert_eq!(mk(1).protocol_name(), "HyFlow");
    conforms(mk);
}

#[test]
fn decent_conforms() {
    let mk = |seed| {
        let c = Rc::new(DecentCluster::new(DecentConfig {
            seed,
            ..Default::default()
        }));
        for i in 0..ACCOUNTS {
            c.preload(ObjectId(i), ObjVal::Int(INITIAL));
        }
        c
    };
    assert_eq!(mk(1).protocol_name(), "Decent-STM");
    conforms(mk);
}

fn qstore(seed: u64) -> Rc<QStoreCluster> {
    let c = Rc::new(QStoreCluster::new(QStoreConfig {
        seed,
        ..Default::default()
    }));
    for i in 0..ACCOUNTS {
        DtmProtocol::preload(&*c, ObjectId(i), ObjVal::Int(INITIAL));
    }
    c
}

#[test]
fn qstore_conforms() {
    assert_eq!(qstore(1).protocol_name(), "Q-Store");
    conforms(qstore);
}

/// Multi-seed high-contention stress for the batching family: many
/// clients over few accounts, every run audited for serializability and
/// batch atomicity, money conserved.
#[test]
fn qstore_high_contention_stress_stays_serializable() {
    const HOT_ACCOUNTS: u64 = 4;
    for seed in [2, 7, 19, 41, 97] {
        let c = Rc::new(QStoreCluster::new(QStoreConfig {
            seed,
            ..Default::default()
        }));
        for i in 0..HOT_ACCOUNTS {
            DtmProtocol::preload(&*c, ObjectId(i), ObjVal::Int(INITIAL));
        }
        c.begin_history();
        for node in 0..8u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..4u64 {
                    let from = ObjectId((u64::from(node) + i) % HOT_ACCOUNTS);
                    let to = ObjectId((u64::from(node) + i + 1) % HOT_ACCOUNTS);
                    transfer(&*c2, NodeId(node), from, to, 5).await;
                }
            });
        }
        c.sim().run();
        assert_eq!(
            c.protocol_stats().commits,
            32,
            "seed {seed}: lost transfers"
        );
        let total: i64 = (0..HOT_ACCOUNTS)
            .map(|i| c.latest(ObjectId(i)).unwrap().1.expect_int())
            .sum();
        assert_eq!(
            total,
            HOT_ACCOUNTS as i64 * INITIAL,
            "seed {seed}: money not conserved"
        );
        assert_eq!(
            c.verify_history(),
            vec![],
            "seed {seed}: serializability violated"
        );
        assert_eq!(
            c.batch_atomicity_violations(),
            Vec::<String>::new(),
            "seed {seed}: batch atomicity violated"
        );
    }
}

/// The same scenarios against the multi-threaded TL2 backend. It is a
/// [`DtmProtocol`] but not [`SimHosted`] — there is no simulator to spawn
/// on — so the scenarios run on the calling thread via `block_on`, and
/// determinism is checked at the level the backend promises it: identical
/// final state and counters for a single-threaded run, and a serializable
/// history (audited by the sim-world checker) for any interleaving.
mod par_backend {
    use super::{abort_isolation, read_your_writes, write_visibility_after_commit};
    use super::{ACCOUNTS, INITIAL};
    use qr_dtm::core::{DtmProtocol, ObjVal, ObjectId};
    use qr_dtm::par::{block_on, run_par_bank, ParBackend, ParBankSpec};
    use qr_dtm::prelude::NodeId;
    use qr_dtm::workloads::protocol_bank::transfer;

    fn mk() -> ParBackend {
        let b = ParBackend::new();
        for i in 0..ACCOUNTS {
            b.stm().preload(ObjectId(i), ObjVal::Int(INITIAL));
        }
        b
    }

    #[test]
    fn par_read_your_writes() {
        assert_eq!(mk().stm().protocol_name(), "PAR-TL2");
        block_on(read_your_writes(&mk().stm()));
    }

    #[test]
    fn par_write_visibility_after_commit() {
        block_on(write_visibility_after_commit(&mk().stm()));
    }

    #[test]
    fn par_abort_isolation() {
        block_on(abort_isolation(&mk().stm()));
    }

    #[test]
    fn par_determinism_single_thread() {
        // One thread has one interleaving: the same transfer sequence must
        // reproduce the same final state and counters run-for-run.
        let run_once = || {
            let b = mk();
            let p = b.stm();
            block_on(async {
                for i in 0..12u64 {
                    let from = ObjectId(i % ACCOUNTS);
                    let to = ObjectId((i + 1) % ACCOUNTS);
                    transfer(&p, NodeId(0), from, to, 3).await;
                }
            });
            let state: Vec<_> = (0..ACCOUNTS).map(|i| b.latest(ObjectId(i))).collect();
            (p.protocol_stats(), state)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0.commits, 12, "every transfer commits");
        assert_eq!(a, b, "single-threaded runs must be reproducible");
    }

    #[test]
    fn par_stress_high_contention_serializable() {
        // 8 threads hammering 4 accounts: the recorded history of every
        // run must pass the serializability audit, and money is conserved.
        let spec = ParBankSpec {
            accounts: 4,
            read_pct: 30,
            ops_per_thread: 50,
        };
        for seed in 0..100u64 {
            let r = run_par_bank(seed, 8, &spec);
            assert_eq!(r.violations, 0, "seed {seed}: serializability violated");
            assert_eq!(r.commits, r.ops, "seed {seed}: lost transactions");
            assert_eq!(
                r.total_balance,
                4 * 1_000,
                "seed {seed}: money not conserved"
            );
        }
    }
}
