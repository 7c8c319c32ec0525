//! Regression tests for the unified zero-cost charging path.
//!
//! The engine used to decide "is this cost zero?" in two places (abort
//! backoff and checkpoint-save cost); both now funnel through
//! `Sim::charge`, whose contract is that a zero cost schedules no
//! timer event and draws no RNG — a zero-cost config replays the exact
//! event order of a run that never charged at all. If someone
//! reintroduces a `sleep(ZERO)` or an unconditional jitter draw on either
//! path, the event counts and virtual clock here shift and catch it.
//!
//! (Note: an *entirely* zero-cost cluster under contention would livelock
//! — aborted attempts retry in lockstep at the same instant forever — so
//! the contended test keeps jittered link latency to advance time, and the
//! event-count test keeps its clients on disjoint accounts.)

use std::rc::Rc;

use qr_dtm::baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qr_dtm::core::{
    Abort, Cluster, DtmConfig, DtmProtocol, LatencySpec, ObjVal, ObjectId, SimHosted,
};
use qr_dtm::prelude::{NestingMode, NodeId, SimDuration, SimTime};
use qr_dtm::workloads::protocol_bank::transfer;

fn cluster(mode: NestingMode, accounts: u64) -> Rc<Cluster> {
    let c = Rc::new(Cluster::new(DtmConfig {
        nodes: 10,
        mode,
        seed: 5,
        latency: LatencySpec::Jittered(SimDuration::from_millis(2), 0.2),
        service_time: SimDuration::ZERO,
        chk_cost: SimDuration::ZERO,
        chk_threshold: 2,
        backoff_base: SimDuration::ZERO,
        backoff_max: SimDuration::ZERO,
        // No RPC timeouts: a timeout guard is a real timer event, and the
        // zero-time test below asserts that *nothing* advances the clock.
        rpc_timeout: None,
        ..Default::default()
    }));
    for i in 0..accounts {
        c.preload(ObjectId(i), ObjVal::Int(100));
    }
    c
}

#[test]
fn zero_backoff_contended_run_replays_identically() {
    // Zero backoff and zero checkpoint cost under real contention: every
    // abort takes the charge(ZERO) edge. Two runs must agree event count
    // for event count. The link latency is jittered — with zero backoff
    // AND deterministic constant latency, mutually-aborting clients retry
    // in perfect lockstep forever (a livelock the backoff normally
    // breaks); seeded jitter desynchronizes them while keeping the run
    // exactly repeatable.
    let run_once = |mode| {
        let c = cluster(mode, 4);
        for node in 0..4u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..5u64 {
                    let from = ObjectId((u64::from(node) + i) % 4);
                    let to = ObjectId((u64::from(node) + i + 1) % 4);
                    transfer(&*c2, NodeId(node), from, to, 1).await;
                }
            });
        }
        c.sim().run();
        let m = c.sim().metrics();
        (c.protocol_stats(), m.events, m.sent_total, c.sim().now())
    };
    for mode in [
        NestingMode::Flat,
        NestingMode::Closed,
        NestingMode::Checkpoint,
    ] {
        let a = run_once(mode);
        let b = run_once(mode);
        assert_eq!(a.0.commits, 20, "{mode:?}: every transfer commits");
        assert!(a.0.aborts > 0, "{mode:?}: contention must exercise backoff");
        assert_eq!(a, b, "{mode:?}: zero-cost runs must replay event-for-event");
    }
}

#[test]
fn zero_checkpoint_cost_charges_nothing() {
    // Disjoint accounts per client (no aborts, so the only charge left is
    // the checkpoint-save cost; chk_threshold=2 fires on every 4-object
    // transfer). The contract: charging zero schedules no timer event, so
    // the QR-CHK run must execute *exactly* as many simulator events and
    // end at exactly the same virtual instant as the flat run of the same
    // workload — while a nonzero checkpoint cost visibly would not.
    // (Message transit itself is not free even at LatencySpec::Const(0):
    // the latency model keeps its loopback floor, which is fine — it is
    // identical across the compared runs.)
    let run = |mode, chk_cost| {
        let c = Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode,
            seed: 5,
            latency: LatencySpec::Const(SimDuration::ZERO),
            service_time: SimDuration::ZERO,
            chk_cost,
            chk_threshold: 2,
            backoff_base: SimDuration::ZERO,
            backoff_max: SimDuration::ZERO,
            rpc_timeout: None,
            ..Default::default()
        }));
        for i in 0..8u64 {
            c.preload(ObjectId(i), ObjVal::Int(100));
        }
        for node in 0..4u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                let a = ObjectId(u64::from(node) * 2);
                let b = ObjectId(u64::from(node) * 2 + 1);
                for _ in 0..3 {
                    transfer(&*c2, NodeId(node), a, b, 1).await;
                }
            });
        }
        c.sim().run();
        assert_eq!(c.protocol_stats().commits, 12);
        let chk = c.stats().checkpoints;
        (c.sim().metrics().events, c.sim().now(), chk)
    };
    let flat = run(NestingMode::Flat, SimDuration::ZERO);
    let chk_free = run(NestingMode::Checkpoint, SimDuration::ZERO);
    let chk_paid = run(NestingMode::Checkpoint, SimDuration::from_millis(5));
    assert!(chk_free.2 > 0, "checkpoints must actually fire");
    assert_eq!(
        (chk_free.0, chk_free.1),
        (flat.0, flat.1),
        "charge(ZERO) must add no events and no time over the flat run"
    );
    assert!(
        chk_paid.1 > chk_free.1,
        "a nonzero checkpoint cost must advance the clock (probe sanity)"
    );
}

#[test]
fn baseline_restart_with_zero_backoff_schedules_no_timer() {
    // TFA and Decent-STM take their abort backoff through the same
    // `Sim::charge` as the QR engine, so a zero `backoff_base` makes
    // `restart` event-free: a task that restarts once must cost exactly
    // the events (and virtual time) of a task that does nothing.
    fn events<P: SimHosted + 'static>(p: Rc<P>, restart: bool) -> (u64, SimTime) {
        let p2 = Rc::clone(&p);
        p.sim().spawn(async move {
            if restart {
                let mut tx = p2.begin(NodeId(0));
                p2.restart(&mut tx, Abort::root()).await;
            }
        });
        p.sim().run();
        assert_eq!(p.protocol_stats().aborts, u64::from(restart));
        (p.sim().metrics().events, p.sim().now())
    }
    let tfa = || {
        Rc::new(TfaCluster::new(TfaConfig {
            backoff_base: SimDuration::ZERO,
            ..Default::default()
        }))
    };
    let decent = || {
        Rc::new(DecentCluster::new(DecentConfig {
            backoff_base: SimDuration::ZERO,
            ..Default::default()
        }))
    };
    assert_eq!(events(tfa(), true), events(tfa(), false), "TFA");
    assert_eq!(
        events(decent(), true),
        events(decent(), false),
        "Decent-STM"
    );
}
