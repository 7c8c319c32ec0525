//! Integration tests for the durable-replica model: write-ahead logging,
//! crash-restart-with-amnesia, torn-tail detection, and quorum repair.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

use qrdtm_core::{
    crash_sim_only, Cluster, DtmConfig, DurabilityConfig, Membership, ObjVal, ObjectId,
};
use qrdtm_sim::{NodeId, SimDuration};

fn durable_cfg(seed: u64) -> DtmConfig {
    DtmConfig {
        seed,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    }
}

const ACCOUNTS: u32 = 8;

fn preload_accounts(cluster: &Cluster) {
    for a in 0..ACCOUNTS {
        cluster.preload(ObjectId(u64::from(a)), ObjVal::Int(1000));
    }
}

fn spawn_bank_clients(cluster: &Rc<Cluster>, until: SimDuration) {
    for c in 0..3u32 {
        let client = cluster.client(NodeId(3 + c));
        let sim = cluster.sim().clone();
        let deadline = sim.now() + until;
        cluster.sim().spawn(async move {
            let mut i = c;
            while sim.now() < deadline {
                let from = ObjectId(u64::from(i % ACCOUNTS));
                let to = ObjectId(u64::from((i + 1) % ACCOUNTS));
                i += 1;
                if from == to {
                    continue;
                }
                client
                    .run(|tx| async move {
                        let a = tx.read(from).await?.expect_int();
                        let b = tx.read(to).await?.expect_int();
                        tx.write(from, ObjVal::Int(a - 10)).await?;
                        tx.write(to, ObjVal::Int(b + 10)).await?;
                        Ok(())
                    })
                    .await;
            }
        });
    }
}

fn total_balance(cluster: &Cluster) -> i64 {
    (0..ACCOUNTS)
        .map(|a| {
            cluster
                .latest(ObjectId(u64::from(a)))
                .unwrap()
                .1
                .expect_int()
        })
        .sum()
}

/// Right after readmission (before any further commit lands) the
/// recovered node must hold the max-version committed copy of every
/// object — replay+repair plus the view-change refresh guarantee it.
fn assert_caught_up(cluster: &Cluster, node: NodeId) {
    for a in 0..ACCOUNTS {
        let oid = ObjectId(u64::from(a));
        let latest = cluster.latest(oid).unwrap();
        let mine = cluster
            .peek(node, oid)
            .expect("recovered replica holds object");
        assert_eq!(mine, latest, "recovered node lags on {oid:?}");
    }
}

#[test]
fn amnesia_crash_recovers_via_replay_and_quorum_repair() {
    let cluster = Rc::new(Cluster::new(durable_cfg(11)));
    preload_accounts(&cluster);
    cluster.enable_history();
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, SimDuration::from_secs(3));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(800)).await;
        cl.crash_node_amnesia(victim).unwrap();
        assert!(
            cl.peek(victim, ObjectId(0)).is_none(),
            "amnesia wipes the volatile object table"
        );
        assert!(!cl.view_alive(victim) && !cl.sim().is_alive(victim));
        // Let commits the victim will have to repair happen while it is down.
        sim2.sleep(SimDuration::from_millis(1000)).await;
        cl.recover_node(victim).unwrap();
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(2)); // drain client retries

    let m = sim.metrics();
    assert!(m.log_replays >= 1, "restart replayed the WAL");
    assert!(m.repair_rounds >= 1, "restart ran quorum repair");
    assert!(
        m.repaired_objects >= 1,
        "commits during the outage had to be repaired"
    );
    assert!(m.repair_bytes > 0);
    assert_eq!(total_balance(&cluster), 1000 * i64::from(ACCOUNTS));
    assert!(cluster.verify_history().is_empty(), "serializable");
}

#[test]
fn corrupt_tail_is_detected_and_repaired_on_restart() {
    let cluster = Rc::new(Cluster::new(durable_cfg(12)));
    preload_accounts(&cluster);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, SimDuration::from_secs(2));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(700)).await;
        assert!(
            cl.corrupt_tail(victim),
            "durable log had records to corrupt"
        );
        cl.crash_node_amnesia(victim).unwrap();
        sim2.sleep(SimDuration::from_millis(600)).await;
        cl.recover_node(victim).unwrap();
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    assert!(m.torn_tails >= 1, "the tear was detected at replay");
    assert!(m.log_replays >= 1);
    assert_eq!(total_balance(&cluster), 1000 * i64::from(ACCOUNTS));
}

#[test]
fn sim_only_amnesia_rejoins_through_the_shared_readmit_path() {
    // The detector flavour: the network dies and the state is lost, but
    // the quorum view is told nothing; ejection and readmission go through
    // Membership::{eject, rejoin}, which must run the same honest recovery.
    let cluster = Rc::new(Cluster::new(durable_cfg(13)));
    preload_accounts(&cluster);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, SimDuration::from_secs(2));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(600)).await;
        assert!(crash_sim_only(&*cl, cl.sim(), victim));
        cl.forget(victim);
        assert!(cl.eject(victim));
        sim2.sleep(SimDuration::from_millis(600)).await;
        sim2.recover_node(victim);
        let charged = cl.rejoin(victim).unwrap();
        assert!(
            charged > SimDuration::ZERO,
            "amnesiac rejoin charges replay + repair time"
        );
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    assert!(m.log_replays >= 1, "rejoin ran the honest recovery");
    assert!(m.repair_rounds >= 1);
    assert_eq!(total_balance(&cluster), 1000 * i64::from(ACCOUNTS));
}

#[test]
fn durable_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let cluster = Rc::new(Cluster::new(durable_cfg(seed)));
        preload_accounts(&cluster);
        let sim = cluster.sim().clone();
        spawn_bank_clients(&cluster, SimDuration::from_secs(2));
        let victim = cluster.read_quorum()[0];
        let cl = Rc::clone(&cluster);
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(500)).await;
            cl.crash_node_amnesia(victim).unwrap();
            sim2.sleep(SimDuration::from_millis(700)).await;
            cl.recover_node(victim).unwrap();
        });
        sim.run_for(SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(2));
        let m = sim.metrics();
        (
            sim.now().as_nanos(),
            m.sent_total,
            m.log_replays,
            m.repaired_objects,
            m.repair_bytes,
            total_balance(&cluster),
        )
    };
    assert_eq!(run(21), run(21), "same seed, same trace");
    assert_ne!(run(21), run(22), "seed perturbs the trace");
}

/// Refused on entry: the view, the network and the replica are as they were.
#[test]
#[should_panic(expected = "requires DtmConfig::durability")]
fn amnesia_without_durability_panics() {
    let cluster = Cluster::new(DtmConfig::default());
    cluster.preload(ObjectId(0), ObjVal::Int(1));
    let call = AssertUnwindSafe(|| cluster.crash_node_amnesia(NodeId(1)));
    let refused = catch_unwind(call).expect_err("no disk to restart from");
    assert!(cluster.view_alive(NodeId(1)) && cluster.sim().is_alive(NodeId(1)));
    assert_eq!(cluster.view_epoch(), 0, "no view change ran");
    assert!(cluster.peek(NodeId(1), ObjectId(0)).is_some());
    resume_unwind(refused);
}
