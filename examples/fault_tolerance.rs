//! Fault tolerance live: nodes crash mid-run, quorums reconfigure, and
//! every transaction still commits with 1-copy equivalence.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```
//!
//! This is the property the paper's Fig. 10 quantifies (and the reason the
//! faster HyFlow/TFA baseline is disqualified from it): with objects
//! replicated on every node and quorums rebuilt by the cluster manager,
//! losing the read-quorum nodes — even the tree root — only changes *which*
//! replicas answer.

use qr_dtm::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

fn main() {
    let cluster = Cluster::new(DtmConfig {
        nodes: 13,
        mode: NestingMode::Closed,
        read_level: 0, // start with the smallest possible read quorum: the root
        seed: 3,
        ..Default::default()
    });
    let counter = ObjectId(1);
    cluster.preload(counter, ObjVal::Int(0));

    // A client that increments the replicated counter forever.
    let client = cluster.client(NodeId(12));
    let sim = cluster.sim().clone();
    let committed = Rc::new(Cell::new(0i64));
    let committed2 = Rc::clone(&committed);
    sim.spawn(async move {
        loop {
            client
                .run(|tx| async move {
                    let v = tx.read(counter).await?.expect_int();
                    tx.write(counter, ObjVal::Int(v + 1)).await?;
                    Ok(())
                })
                .await;
            committed2.set(committed2.get() + 1);
        }
    });

    println!("read quorum at start: {:?}", cluster.read_quorum());
    cluster.sim().run_for(SimDuration::from_secs(5));
    let before = committed.get();
    println!("t=5s   committed {before:>4} increments");

    // Crash the entire read quorum, then a write-quorum member.
    for victim in cluster.read_quorum() {
        println!("*** failing {victim} (read-quorum member)");
        assert!(crash(&cluster, cluster.sim(), victim), "quorums survive");
    }
    println!("read quorum now     : {:?}", cluster.read_quorum());
    let wq_victim = *cluster
        .write_quorum()
        .last()
        .expect("write quorum non-empty");
    println!("*** failing {wq_victim} (write-quorum member)");
    assert!(crash(&cluster, cluster.sim(), wq_victim), "quorums survive");
    println!("write quorum now    : {:?}", cluster.write_quorum());

    cluster.sim().run_for(SimDuration::from_secs(5));
    let after = committed.get();
    println!(
        "t=10s  committed {after:>4} increments ({} since the crashes)",
        after - before
    );
    assert!(after > before, "progress despite failures");

    // 1-copy equivalence check: the latest committed value visible through
    // the (reconfigured) read quorum equals the number of commits.
    let (version, val) = cluster.latest(counter).expect("object live");
    println!("counter = {val:?} at {version:?}; client observed {after} commits");
    assert_eq!(val, ObjVal::Int(after));
    println!("ok: no committed increment was lost");
}
