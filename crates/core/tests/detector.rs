//! Integration tests for the heartbeat failure detector: oracle-free crash
//! handling, false suspicion survivability, rejoin state transfer, and the
//! charged transfer latency.

use std::rc::Rc;

use qrdtm_core::{
    spawn_detector, Cluster, DetectorConfig, DtmConfig, LatencySpec, Membership, ObjVal, ObjectId,
};
use qrdtm_sim::{NodeId, SimDuration};

fn detector_cfg(seed: u64) -> DtmConfig {
    DtmConfig {
        seed,
        // Tight timeout so calls to silently-dead nodes fail fast relative
        // to the suspicion window.
        rpc_timeout: Some(SimDuration::from_millis(100)),
        detector: Some(DetectorConfig::default()),
        ..Default::default()
    }
}

/// Run a closed-loop transfer workload between `accounts` accounts from a
/// few clients while the given faults happen, then assert conservation and
/// serializability.
fn bank_accounts(cluster: &Cluster, accounts: u32) {
    for a in 0..accounts {
        cluster.preload(ObjectId(u64::from(a)), ObjVal::Int(1000));
    }
}

fn spawn_bank_clients(cluster: &Rc<Cluster>, accounts: u32, until: SimDuration) {
    for c in 0..3u32 {
        let client = cluster.client(NodeId(3 + c));
        let sim = cluster.sim().clone();
        let deadline = sim.now() + until;
        cluster.sim().spawn(async move {
            let mut i = c;
            while sim.now() < deadline {
                let from = ObjectId(u64::from(i % accounts));
                let to = ObjectId(u64::from((i + 1) % accounts));
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

fn total_balance(cluster: &Cluster, accounts: u32) -> i64 {
    (0..accounts)
        .map(|a| {
            cluster
                .latest(ObjectId(u64::from(a)))
                .unwrap()
                .1
                .expect_int()
        })
        .sum()
}

#[test]
fn crash_is_detected_and_heal_rejoins_without_oracle() {
    let cluster = Rc::new(Cluster::new(detector_cfg(7)));
    bank_accounts(&cluster, 8);
    cluster.enable_history();
    let det = spawn_detector(&cluster);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, 8, SimDuration::from_secs(3));

    // Kill a read-quorum member in the SIMULATOR ONLY — nobody tells the
    // view. The detector must eject it, the cluster keep committing, and
    // after the heal the node must rejoin automatically.
    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(500)).await;
        sim2.fail_node(victim);
        sim2.sleep(SimDuration::from_millis(1000)).await;
        assert!(
            !cl.view_alive(victim),
            "crash was not detected within 1s (window is 200ms)"
        );
        sim2.recover_node(victim);
    });
    sim.run_for(SimDuration::from_secs(3));
    det.stop();
    sim.run_for(SimDuration::from_secs(2));

    assert!(cluster.view_alive(victim), "healed node rejoined the view");
    let m = sim.metrics();
    assert!(m.heartbeats_sent > 0 && m.heartbeats_delivered > 0);
    assert!(m.suspicions >= 1, "the crash raised a suspicion");
    assert!(m.rejoins >= 1, "the heal triggered a rejoin");
    assert!(cluster.stats().commits > 0, "cluster kept committing");
    assert_eq!(total_balance(&cluster, 8), 8 * 1000, "conservation");
    assert!(cluster.verify_history().is_empty(), "1-copy serializable");
}

#[test]
fn false_suspicion_is_survivable_and_serializable() {
    let cluster = Rc::new(Cluster::new(detector_cfg(11)));
    bank_accounts(&cluster, 8);
    cluster.enable_history();
    let det = spawn_detector(&cluster);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, 8, SimDuration::from_secs(3));

    // Partition one read-quorum member away: it stays ALIVE and keeps
    // answering whatever (nothing) reaches it, but its heartbeats stop
    // crossing the cut — a textbook false suspicion.
    let victim = cluster.read_quorum()[0];
    let others: Vec<NodeId> = (0..cluster.config().nodes as u32)
        .map(NodeId)
        .filter(|&n| n != victim)
        .collect();
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(500)).await;
        sim2.set_partition(&[vec![victim], others]);
        sim2.sleep(SimDuration::from_millis(1000)).await;
        assert!(!cl.view_alive(victim), "partitioned node was not suspected");
        assert!(sim2.is_alive(victim), "victim was alive all along");
        sim2.heal_partition();
    });
    sim.run_for(SimDuration::from_secs(3));
    det.stop();
    sim.run_for(SimDuration::from_secs(2));

    assert!(cluster.view_alive(victim), "victim rejoined after the heal");
    let m = sim.metrics();
    assert!(m.false_suspicions >= 1, "suspicion was counted as false");
    assert!(m.rejoins >= 1);
    assert!(cluster.stats().commits > 0, "cluster kept committing");
    assert_eq!(total_balance(&cluster, 8), 8 * 1000, "conservation");
    assert!(cluster.verify_history().is_empty(), "1-copy serializable");
    // Rejoin refreshed the victim's stale copies: every object's copy at
    // the victim matches the max version across the cluster, so it can
    // serve in read quorums immediately.
    for a in 0..8u32 {
        let (latest_v, latest_val) = cluster.latest(ObjectId(u64::from(a))).unwrap();
        let (v, val) = cluster.peek(victim, ObjectId(u64::from(a))).unwrap();
        assert_eq!(v, latest_v, "object {a} version refreshed at victim");
        assert_eq!(val, latest_val, "object {a} value refreshed at victim");
    }
}

#[test]
fn transfer_charge_scales_with_object_count() {
    // The charge is objects x nominal link latency; the rejoining node is
    // busy for that long, so a request arriving right after rejoin
    // finishes late. 20 objects x 10ms = 200ms of busy time on the joiner.
    let cfg = DtmConfig {
        latency: LatencySpec::Const(SimDuration::from_millis(10)),
        ..Default::default()
    };
    let cluster = Rc::new(Cluster::new(cfg));
    for a in 0..20u32 {
        cluster.preload(ObjectId(u64::from(a)), ObjVal::Int(1));
    }
    let sim = cluster.sim().clone();
    cluster.fail_node(NodeId(1)).unwrap();
    cluster.recover_node(NodeId(1)).unwrap();
    let client = cluster.client(NodeId(5));
    let t0 = sim.now();
    let done = Rc::new(std::cell::Cell::new(None));
    let done2 = Rc::clone(&done);
    let sim2 = sim.clone();
    sim.spawn(async move {
        client
            .run(|tx| async move {
                tx.read(ObjectId(0)).await?;
                Ok(())
            })
            .await;
        done2.set(Some(sim2.now()));
    });
    sim.run();
    let took = done.get().expect("read committed").saturating_since(t0);
    assert!(
        took >= SimDuration::from_millis(200),
        "derived transfer charge applied, took only {took}"
    );
}

#[test]
fn slow_node_under_surge_is_not_falsely_ejected() {
    use qrdtm_core::OverloadConfig;
    use qrdtm_workloads::{spawn_open_loop, LoadControl, LoadTallies, OpenLoopSpec};
    use std::cell::Cell;

    // Open-loop overload: 600 arrivals/s — far past capacity — while one
    // read-quorum member runs 3x slow but stays alive and keeps
    // heartbeating. Queue pressure and late replies must not look like
    // death to the detector: the node stays in the view (or at worst is
    // briefly suspected and rejoins), and the false-suspicion counter
    // stays bounded instead of climbing with the backlog.
    let mut cfg = detector_cfg(19);
    cfg.overload = Some(OverloadConfig::default());
    let nodes = cfg.nodes;
    let cluster = Rc::new(Cluster::new(cfg));
    bank_accounts(&cluster, 16);
    let det = spawn_detector(&cluster);
    let sim = cluster.sim().clone();

    let spec = OpenLoopSpec {
        accounts: 16,
        rate_tps: 600,
        deadline: SimDuration::from_millis(400),
        queue_bound: 16,
        protect: true,
        ..OpenLoopSpec::default()
    };
    let control = Rc::new(LoadControl::default());
    let tallies = Rc::new(LoadTallies::default());
    let stop = Rc::new(Cell::new(false));
    spawn_open_loop(
        &cluster,
        nodes,
        spec,
        Rc::clone(&control),
        Rc::clone(&tallies),
        Rc::clone(&stop),
    );

    let victim = cluster.read_quorum()[0];
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(400)).await;
        sim2.set_service_factor(victim, 3.0);
        sim2.sleep(SimDuration::from_millis(1_600)).await;
        sim2.set_service_factor(victim, 1.0);
    });
    sim.run_for(SimDuration::from_secs(3));
    stop.set(true);
    det.stop();
    sim.run_for(SimDuration::from_secs(2));

    assert!(
        cluster.view_alive(victim),
        "slow-but-alive node must be in the view once the surge drains"
    );
    let m = sim.metrics();
    assert!(
        m.false_suspicions <= 2,
        "false suspicions must stay bounded under surge, got {}",
        m.false_suspicions
    );
    assert!(
        tallies.goodput.get() > 0,
        "cluster kept meeting deadlines under surge"
    );
    assert!(
        tallies.shed.get() > 0,
        "surge past capacity must hit the admission queue bound"
    );
    assert_eq!(total_balance(&cluster, 16), 16 * 1000, "conservation");
}

#[test]
fn detector_runs_are_deterministic_per_seed() {
    fn trace(seed: u64) -> (u64, u64, u64, u64, u64) {
        let cluster = Rc::new(Cluster::new(detector_cfg(seed)));
        bank_accounts(&cluster, 8);
        let det = spawn_detector(&cluster);
        let sim = cluster.sim().clone();
        spawn_bank_clients(&cluster, 8, SimDuration::from_secs(2));
        let victim = cluster.read_quorum()[0];
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(400)).await;
            sim2.fail_node(victim);
            sim2.sleep(SimDuration::from_millis(800)).await;
            sim2.recover_node(victim);
        });
        sim.run_for(SimDuration::from_secs(2));
        det.stop();
        sim.run_for(SimDuration::from_secs(2));
        let m = sim.metrics();
        (
            m.heartbeats_sent,
            m.suspicions,
            m.rejoins,
            cluster.stats().commits,
            cluster.view_epoch(),
        )
    }
    assert_eq!(trace(42), trace(42), "same seed, same trace");
    assert_ne!(
        trace(42).0,
        trace(43).0,
        "different seed jitters heartbeats differently"
    );
}
