//! Integration tests for the durable Q-Store model: the batch-granular
//! WAL on the simulated disk, crash-restart-with-amnesia, torn-tail
//! batch atomicity, and epoch repair from the quorum frontier.

use std::rc::Rc;

use qrdtm_core::{
    atomically, crash, recover, DtmProtocol, DurabilityConfig, Membership, ObjVal, ObjectId,
};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{DiskConfig, NodeId};

const ACCOUNTS: u64 = 8;
const INITIAL: i64 = 100;

fn durable_cfg(seed: u64) -> QStoreConfig {
    QStoreConfig {
        seed,
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    }
}

fn cluster(cfg: QStoreConfig) -> Rc<QStoreCluster> {
    let c = Rc::new(QStoreCluster::new(cfg));
    for i in 0..ACCOUNTS {
        c.preload(ObjectId(i), ObjVal::Int(INITIAL));
    }
    c
}

async fn transfer(c: &QStoreCluster, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
    atomically(c, node, async |h| {
        let a = c.read(h, from).await?.expect_int();
        let b = c.read(h, to).await?.expect_int();
        c.write(h, from, ObjVal::Int(a - amount)).await?;
        c.write(h, to, ObjVal::Int(b + amount)).await
    })
    .await
}

fn total(c: &QStoreCluster) -> i64 {
    (0..ACCOUNTS)
        .map(|i| c.latest(ObjectId(i)).unwrap().1.expect_int())
        .sum()
}

#[test]
fn amnesia_crash_replays_the_fsynced_prefix_and_repairs_the_rest() {
    let c = cluster(durable_cfg(23));
    c.begin_history();
    let victim = NodeId(7);
    let c2 = Rc::clone(&c);
    c.sim().spawn(async move {
        // Batches the victim fsyncs before the crash...
        for i in 0..3u64 {
            transfer(&c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 5).await;
        }
        assert!(crash(&*c2, c2.sim(), victim));
        c2.forget(victim);
        // ...and batches it misses while down, which replay cannot
        // resurrect: they must come from the quorum frontier.
        for i in 0..3u64 {
            transfer(&c2, NodeId(3), ObjectId(i + 2), ObjectId(i + 3), 5).await;
        }
        assert!(recover(&*c2, c2.sim(), victim));
        // One more commit proves the readmitted replica participates.
        transfer(&c2, NodeId(4), ObjectId(0), ObjectId(1), 5).await;
    });
    c.sim().run();
    let m = c.sim().metrics();
    assert!(m.log_replays >= 1, "restart must replay the durable image");
    assert!(m.repair_rounds >= 1, "missed batches must be repaired");
    assert!(m.repaired_objects >= 1);
    assert!(m.repair_bytes > 0, "repair transfer must be charged");
    assert_eq!(c.stats().commits, 7);
    assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
    assert_eq!(c.verify_history(), vec![]);
    assert_eq!(c.batch_atomicity_violations(), Vec::<String>::new());
}

#[test]
fn a_torn_tail_drops_whole_batches_and_repair_restores_them() {
    let c = cluster(durable_cfg(29));
    let victim = NodeId(5);
    let c2 = Rc::clone(&c);
    c.sim().spawn(async move {
        for i in 0..4u64 {
            transfer(&c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 3).await;
        }
        assert!(
            c2.corrupt_tail(victim),
            "durable log had records to corrupt"
        );
        assert!(crash(&*c2, c2.sim(), victim));
        c2.forget(victim);
        assert!(recover(&*c2, c2.sim(), victim));
        transfer(&c2, NodeId(3), ObjectId(0), ObjectId(1), 3).await;
    });
    c.sim().run();
    let m = c.sim().metrics();
    assert!(m.torn_tails >= 1, "the tear must be detected at replay");
    assert!(m.log_replays >= 1);
    assert!(
        m.repair_rounds >= 1,
        "the dropped batch must come back from the quorum frontier"
    );
    assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
}

#[test]
fn snapshot_truncation_survives_amnesia() {
    let c = cluster(QStoreConfig {
        durability: Some(DurabilityConfig { snapshot_every: 2 }),
        ..durable_cfg(31)
    });
    let victim = NodeId(6);
    let c2 = Rc::clone(&c);
    c.sim().spawn(async move {
        // Enough batches that the snapshot policy fires and truncates the
        // log; the replayed state must then come from snapshot + suffix.
        for i in 0..6u64 {
            transfer(
                &c2,
                NodeId(2),
                ObjectId(i % ACCOUNTS),
                ObjectId((i + 1) % ACCOUNTS),
                2,
            )
            .await;
        }
        assert!(crash(&*c2, c2.sim(), victim));
        c2.forget(victim);
        assert!(recover(&*c2, c2.sim(), victim));
        transfer(&c2, NodeId(3), ObjectId(0), ObjectId(1), 2).await;
    });
    c.sim().run();
    assert!(c.sim().metrics().log_replays >= 1);
    assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
    // Every group commit was sampled on the real disk.
    let lat = c.fsync_latencies();
    assert!(!lat.is_empty(), "durable mode must sample fsync latencies");
    let fsync = DiskConfig::default().fsync_latency.as_nanos();
    assert!(lat.iter().all(|&ns| ns >= fsync));
}

#[test]
fn durable_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let c = cluster(durable_cfg(seed));
        let victim = NodeId(7);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            for i in 0..3u64 {
                transfer(&c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 4).await;
            }
            assert!(crash(&*c2, c2.sim(), victim));
            c2.forget(victim);
            for i in 0..2u64 {
                transfer(&c2, NodeId(3), ObjectId(i + 3), ObjectId(i + 4), 4).await;
            }
            assert!(recover(&*c2, c2.sim(), victim));
        });
        c.sim().run();
        let m = c.sim().metrics();
        (
            c.sim().now().as_nanos(),
            m.sent_total,
            m.log_replays,
            m.torn_tails,
            m.repaired_objects,
            m.repair_bytes,
            c.stats().commits,
            c.wal_totals(),
            total(&c),
        )
    };
    assert_eq!(run(37), run(37), "same seed, same trace");
    assert_ne!(run(37), run(38), "seed perturbs the trace");
}

#[test]
#[should_panic(expected = "requires QStoreConfig::durability")]
fn amnesia_without_durability_panics() {
    let c = cluster(QStoreConfig::default());
    c.forget(NodeId(1));
}
