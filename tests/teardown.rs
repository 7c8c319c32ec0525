//! Dropping a cluster frees its simulation: after every handle is gone, the
//! bytes this thread holds are back where they were before the cluster was
//! built — with tasks still parked on it, with its failure detector
//! running, after whole chaos runs back to back, and after every workload
//! driver, whose clients hold the cluster until the driver ends the run.
//!
//! Each case builds and drops once first, so one-time allocations (lazy
//! statics, thread-locals) are out of the count. The file is its own test
//! binary because it installs the counting allocator of
//! `tests/support/counting_alloc.rs`. No wall clock is read.

use std::cell::Cell;
use std::rc::Rc;

use qr_dtm::baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qr_dtm::core::{
    spawn_detector, Cluster, DtmConfig, DurabilityConfig, NestingMode, ObjVal, ObjectId,
    OverloadConfig, SimHosted, Tx,
};
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};
use qr_dtm::sim::{NodeId, SimDuration};
use qr_dtm::workloads::protocol_bank::transfer;
use qr_dtm::workloads::{
    run, run_bank, run_open_loop, BankSpec, Benchmark, OpenLoopSpec, RunSpec, WorkloadParams,
};
use qrdtm_chaos::{run_plan, ChaosSpec, FaultPlan};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::live_bytes;

const NODES: u32 = 10;
const ACCOUNTS: u64 = 8;
const COMMITS: u64 = 40;

/// Run `case` once as a warm-up, then again, and require the thread's live
/// bytes after the second run to equal those before it.
fn gate(name: &str, case: impl Fn()) {
    case();
    let before = live_bytes();
    case();
    let leaked = live_bytes() - before;
    assert_eq!(
        leaked, 0,
        "{name}: {leaked} bytes outlive the dropped cluster"
    );
}

/// Pump `p`'s simulation in 50 ms steps until `commits()` reaches [`COMMITS`].
fn run_to_commits<P: SimHosted>(p: &P, commits: impl Fn() -> u64) {
    while commits() < COMMITS {
        p.sim().run_for(SimDuration::from_millis(50));
    }
}

async fn move_one(tx: Tx, from: ObjectId, to: ObjectId) -> Result<(), qr_dtm::core::Abort> {
    let a = tx.read(from).await?.expect_int();
    let b = tx.read(to).await?.expect_int();
    tx.write(from, ObjVal::Int(a - 1)).await?;
    tx.write(to, ObjVal::Int(b + 1)).await
}

/// A QR cluster with one endless client per node: the clients hold the
/// simulation, not the cluster, so they are still parked mid-transaction
/// when the cluster is dropped. With `detector` the heartbeat detector
/// runs, and it is stopped only after its cluster is gone.
fn qr(cfg: DtmConfig, detector: bool) {
    let c = Rc::new(Cluster::new(DtmConfig {
        nodes: NODES as usize,
        ..cfg
    }));
    c.preload_all((0..ACCOUNTS).map(|i| (ObjectId(i), ObjVal::Int(100))));
    let handle = detector.then(|| spawn_detector(Rc::clone(&c), c.sim().clone()));
    for node in 0..NODES {
        let client = c.client(NodeId(node));
        c.sim().spawn(async move {
            for k in u64::from(node).. {
                let (from, to) = (ObjectId(k % ACCOUNTS), ObjectId((k + 3) % ACCOUNTS));
                // A nested scope under QR-CN, inline under the other modes.
                client
                    .run(|tx| async move { tx.closed(|t| move_one(t, from, to)).await })
                    .await;
            }
        });
    }
    run_to_commits(&*c, || c.stats().commits);
    assert!(c.sim().live_tasks() >= NODES as usize, "clients are parked");
    drop(c);
    if let Some(h) = handle {
        h.stop();
    }
}

/// A family driven through [`DtmProtocol`]: its clients hold the cluster,
/// so they stop and drain first; what the library itself keeps parked (the
/// detector, Q-Store's batch tasks) is still there when it is dropped.
fn protocol<P: SimHosted + 'static>(p: Rc<P>) {
    for i in 0..ACCOUNTS {
        p.preload(ObjectId(i), ObjVal::Int(100));
    }
    let (stop, exited) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(0)));
    for node in 0..NODES {
        let (p2, stop, exited) = (Rc::clone(&p), Rc::clone(&stop), Rc::clone(&exited));
        p.sim().spawn(async move {
            let mut k = u64::from(node);
            while !stop.get() {
                let (from, to) = (ObjectId(k % ACCOUNTS), ObjectId((k + 3) % ACCOUNTS));
                transfer(&*p2, NodeId(node), from, to, 1).await;
                k += 1;
            }
            exited.set(exited.get() + 1);
        });
    }
    run_to_commits(&*p, || p.protocol_stats().commits);
    stop.set(true);
    while exited.get() < NODES {
        p.sim().run_for(SimDuration::from_millis(50));
    }
}

fn qstore(durable: bool, detector: bool) {
    let c = Rc::new(QStoreCluster::new(QStoreConfig {
        nodes: NODES as usize,
        durability: durable.then(DurabilityConfig::default),
        ..Default::default()
    }));
    let handle = detector.then(|| spawn_detector(Rc::clone(&c), c.sim().clone()));
    protocol(Rc::clone(&c));
    if detector {
        assert!(c.sim().live_tasks() > 0, "the detector is parked");
    }
    drop(c);
    if let Some(h) = handle {
        h.stop();
    }
}

#[test]
fn qr_clusters_free_their_simulation_with_clients_parked() {
    for mode in NestingMode::ALL {
        gate(&format!("QR {mode}"), || {
            qr(
                DtmConfig {
                    mode,
                    ..Default::default()
                },
                false,
            )
        });
    }
    gate("durable QR-CN", || {
        qr(
            DtmConfig {
                mode: NestingMode::Closed,
                durability: Some(DurabilityConfig::default()),
                ..Default::default()
            },
            false,
        )
    });
}

#[test]
fn a_detector_mode_qr_cluster_frees_its_simulation() {
    gate("QR with detector", || {
        qr(
            DtmConfig {
                rpc_timeout: Some(SimDuration::from_millis(100)),
                ..Default::default()
            },
            true,
        )
    });
}

#[test]
fn q_store_frees_its_simulation_with_batch_tasks_parked() {
    gate("durable Q-Store", || qstore(true, false));
    gate("Q-Store with detector", || qstore(false, true));
}

#[test]
fn the_baselines_free_their_simulation() {
    gate("TFA", || {
        protocol(Rc::new(TfaCluster::new(TfaConfig {
            nodes: NODES as usize,
            ..Default::default()
        })))
    });
    gate("Decent-STM", || {
        protocol(Rc::new(DecentCluster::new(DecentConfig {
            nodes: NODES as usize,
            ..Default::default()
        })))
    });
}

/// The shape of `repro chaos` and `repro mc`: one cluster per run, many
/// runs on one thread. Each run must give back everything it took.
#[test]
fn back_to_back_detector_chaos_runs_do_not_accumulate() {
    let spec = ChaosSpec {
        detector: true,
        ..ChaosSpec::smoke()
    };
    let plan = FaultPlan::parse("@300000us crash 0\n@1100000us recover 0").expect("plan parses");
    let run = || {
        let c = Rc::new(QStoreCluster::new(QStoreConfig {
            nodes: NODES as usize,
            ..Default::default()
        }));
        assert!(run_plan(c, &spec, &plan).ok());
    };
    run();
    let before = live_bytes();
    for i in 1..=5 {
        run();
        let leaked = live_bytes() - before;
        assert_eq!(leaked, 0, "run {i}: {leaked} bytes outlive the chaos run");
    }
}

const WARMUP: SimDuration = SimDuration::from_millis(200);
const WINDOW: SimDuration = SimDuration::from_secs(1);

#[test]
fn run_bank_frees_the_cluster_on_every_family() {
    let spec = BankSpec {
        accounts: ACCOUNTS,
        read_pct: 50,
        warmup: WARMUP,
        duration: WINDOW,
    };
    let nodes = NODES as usize;
    gate("run_bank on QR", || {
        run_bank(
            Rc::new(Cluster::new(DtmConfig {
                nodes,
                ..Default::default()
            })),
            &spec,
        );
    });
    gate("run_bank on TFA", || {
        run_bank(
            Rc::new(TfaCluster::new(TfaConfig {
                nodes,
                ..Default::default()
            })),
            &spec,
        );
    });
    gate("run_bank on Decent-STM", || {
        run_bank(
            Rc::new(DecentCluster::new(DecentConfig {
                nodes,
                ..Default::default()
            })),
            &spec,
        );
    });
    gate("run_bank on Q-Store", || {
        run_bank(
            Rc::new(QStoreCluster::new(QStoreConfig {
                nodes,
                ..Default::default()
            })),
            &spec,
        );
    });
}

#[test]
fn run_open_loop_frees_its_cluster() {
    gate("run_open_loop on QR-CN", || {
        let c = Rc::new(Cluster::new(DtmConfig {
            nodes: NODES as usize,
            mode: NestingMode::Closed,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            overload: Some(OverloadConfig::default()),
            ..Default::default()
        }));
        let spec = OpenLoopSpec {
            accounts: ACCOUNTS,
            ..Default::default()
        };
        run_open_loop(c, &spec, WARMUP, WINDOW);
    });
}

/// `run` owns its cluster, and its Bank clients hold it.
#[test]
fn the_closed_loop_driver_frees_its_cluster() {
    gate("workloads::run (Bank)", || {
        run(
            DtmConfig {
                nodes: NODES as usize,
                mode: NestingMode::Closed,
                ..Default::default()
            },
            &RunSpec {
                bench: Benchmark::Bank,
                params: WorkloadParams {
                    objects: ACCOUNTS,
                    ..Default::default()
                },
                warmup: WARMUP,
                duration: WINDOW,
                ..Default::default()
            },
        );
    });
}
