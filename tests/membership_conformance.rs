//! Membership conformance: [`Membership`] is the one door through which
//! every fault-tolerant family ejects, readmits, forgets and corrupts a
//! node, and the oracle's [`crash`] / [`recover`] are a network fault
//! around those verbs. One generic body runs over a QR cluster and a
//! Q-Store cluster, each memory-only and durable:
//!
//! * an oracle `crash` kills the node in the view and in the network and
//!   raises the epoch; `recover` brings it back in both;
//! * `recover` of a node the view still lists but the network has down
//!   (a detector-mode crash not yet noticed) runs the whole readmission:
//!   a new epoch, and with a disk the replay of a forgotten log;
//! * `eject` is view-only — the node stays alive in the network — and
//!   `rejoin` readmits it;
//! * `crash` of a node the view already excludes still kills it in the
//!   network, and `recover` of a node alive in both is a no-op; both
//!   return `true`;
//! * crashing node after node ends in a refusal that leaves view, network
//!   and epoch untouched;
//! * `durable()` says whether the nodes keep a disk, and `corrupt_tail`
//!   corrupts a record exactly when they do;
//! * `read_quorum_victim()` names a view-alive member of QR's read quorum,
//!   and another once that one crashed; Q-Store reads from no designated
//!   quorum and names none;
//! * `detection_bound()` leaves the detector at least its own slack.

use qr_dtm::core::{
    crash, recover, Cluster, DtmConfig, DurabilityConfig, Membership, ObjVal, ObjectId, SimHosted,
};
use qr_dtm::prelude::NodeId;
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};
use qr_dtm::sim::{HEARTBEAT_INTERVAL, SUSPECT_WINDOW};

fn conforms<M: Membership + SimHosted>(m: &M, durable: bool) {
    m.preload(ObjectId(0), ObjVal::Int(1));
    let sim = m.sim();
    let alive = |n: NodeId| (m.view_alive(n), sim.is_alive(n));
    let (a, b) = (NodeId(1), NodeId(2));

    assert!(m.detection_bound() >= SUSPECT_WINDOW * 2 + HEARTBEAT_INTERVAL * 4);
    if let Some(victim) = m.read_quorum_victim() {
        assert!(m.view_alive(victim), "the victim is a view member");
        assert!(crash(m, sim, victim));
        let next = m.read_quorum_victim().expect("the read quorum regrows");
        assert_ne!(next, victim, "a crashed victim is not named again");
        assert!(m.view_alive(next));
        assert!(recover(m, sim, victim));
    }

    let epoch = m.view_epoch();
    assert!(crash(m, sim, a));
    assert_eq!(alive(a), (false, false), "crash: dead in view and network");
    assert!(m.view_epoch() > epoch, "crash raises the epoch");
    assert!(recover(m, sim, a));
    assert_eq!(alive(a), (true, true), "recover: alive in view and network");

    sim.fail_node(a);
    assert_eq!(
        alive(a),
        (true, false),
        "a detector-mode crash is unnoticed"
    );
    if durable {
        m.forget(a);
    }
    let (epoch, replays) = (m.view_epoch(), sim.metrics().log_replays);
    assert!(recover(m, sim, a));
    assert_eq!(alive(a), (true, true), "recover of a listed node: alive");
    assert!(
        m.view_epoch() > epoch,
        "a listed-but-down node is readmitted"
    );
    let replayed = sim.metrics().log_replays - replays;
    assert_eq!(
        replayed,
        u64::from(durable),
        "readmission replays a forgotten log"
    );

    assert!(m.eject(b));
    assert_eq!(alive(b), (false, true), "eject touches the view only");
    assert!(m.rejoin(b).is_some());
    assert_eq!(alive(b), (true, true), "rejoin readmits");

    assert!(m.eject(b));
    assert!(crash(m, sim, b), "crashing an ejected node is no refusal");
    assert_eq!(alive(b), (false, false), "crash after eject: dead in both");
    assert!(recover(m, sim, b));
    let epoch = m.view_epoch();
    assert!(recover(m, sim, b), "recovering a live node is no refusal");
    assert_eq!(alive(b), (true, true));
    assert_eq!(m.view_epoch(), epoch, "recovering a live node is a no-op");

    let mut nodes = (0..m.node_count() as u32).map(NodeId);
    let epoch = loop {
        let n = nodes.next().expect("some crash is refused");
        let epoch = m.view_epoch();
        if !crash(m, sim, n) {
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
    let c = Cluster::new(DtmConfig::default());
    let victim = c.read_quorum_victim().expect("QR reads from a quorum");
    assert!(c.read_quorum().contains(&victim));
    conforms(&c, false);
    let durable = DtmConfig {
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    };
    conforms(&Cluster::new(durable), true);
}

#[test]
fn qstore_cluster_conforms() {
    let c = QStoreCluster::new(QStoreConfig::default());
    assert_eq!(c.read_quorum_victim(), None);
    conforms(&c, false);
    let durable = QStoreConfig {
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    };
    conforms(&QStoreCluster::new(durable), true);
}
