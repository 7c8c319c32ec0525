//! Membership conformance: [`Membership`] is the one door through which
//! every fault-tolerant family crashes, recovers, ejects, readmits and
//! corrupts a node. One generic body runs over a QR cluster and a Q-Store
//! cluster, each memory-only and durable:
//!
//! * an oracle `crash` kills the node in the view and in the network and
//!   raises the epoch; `recover` brings it back in both;
//! * `eject` is view-only — the node stays alive in the network — and
//!   `rejoin` readmits it;
//! * crashing node after node ends in a refusal that leaves view, network
//!   and epoch untouched;
//! * `durable()` says whether the nodes keep a disk, and `corrupt_tail`
//!   corrupts a record exactly when they do.

use qr_dtm::core::{Cluster, DtmConfig, DurabilityConfig, Membership, ObjVal, ObjectId, SimHosted};
use qr_dtm::prelude::NodeId;
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};

fn conforms<M: Membership + SimHosted>(m: &M, durable: bool) {
    m.preload(ObjectId(0), ObjVal::Int(1));
    let alive = |n: NodeId| (m.view_alive(n), m.sim().is_alive(n));
    let (a, b) = (NodeId(1), NodeId(2));

    let epoch = m.view_epoch();
    assert!(m.crash(a));
    assert_eq!(alive(a), (false, false), "crash: dead in view and network");
    assert!(m.view_epoch() > epoch, "crash raises the epoch");
    assert!(m.recover(a));
    assert_eq!(alive(a), (true, true), "recover: alive in view and network");

    assert!(m.eject(b));
    assert_eq!(alive(b), (false, true), "eject touches the view only");
    assert!(m.rejoin(b).is_some());
    assert_eq!(alive(b), (true, true), "rejoin readmits");

    let mut nodes = (0..m.node_count() as u32).map(NodeId);
    let epoch = loop {
        let n = nodes.next().expect("some crash is refused");
        let epoch = m.view_epoch();
        if !m.crash(n) {
            assert_eq!(alive(n), (true, true), "a refused crash kills nothing");
            break epoch;
        }
    };
    assert_eq!(m.view_epoch(), epoch, "a refused crash changes no view");

    assert_eq!(m.durable(), durable);
    assert_eq!(m.corrupt_tail(NodeId(0)), durable);
}

#[test]
fn qr_cluster_conforms() {
    conforms(&Cluster::new(DtmConfig::default()), false);
    let durable = DtmConfig {
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    };
    conforms(&Cluster::new(durable), true);
}

#[test]
fn qstore_cluster_conforms() {
    conforms(&QStoreCluster::new(QStoreConfig::default()), false);
    let durable = QStoreConfig {
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    };
    conforms(&QStoreCluster::new(durable), true);
}
