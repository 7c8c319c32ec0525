//! What the nemesis needs from a protocol beyond [`DtmProtocol`](qrdtm_core::DtmProtocol):
//! its membership view, if it has one, and how to read back committed
//! state for the checkers.

use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, TfaCluster};
use qrdtm_core::history::verify;
use qrdtm_core::{
    spawn_detector, Cluster, CommitRecord, DetectorConfig, DetectorHandle, Membership, ObjVal,
    ObjectId, SimHosted, Version,
};
use qrdtm_qstore::QStoreCluster;
use qrdtm_sim::{NodeId, SimDuration};

/// A protocol the nemesis can drive: a simulator-hosted [`DtmProtocol`]
/// plus its membership view and committed-state access for the post-hoc
/// checkers.
///
/// No method here crashes, recovers, forgets or corrupts a node: every
/// fault verb goes through the target's [`Membership`] view, and what the
/// nemesis may inject follows from whether there is a view and whether it
/// is durable. The baselines keep none, so they take gray faults only.
///
/// [`DtmProtocol`]: qrdtm_core::DtmProtocol
pub trait ChaosTarget: SimHosted {
    /// The node a `crash-rq` event should kill (the Fig. 10 victim), if
    /// the notion applies.
    fn read_quorum_victim(&self) -> Option<NodeId> {
        None
    }

    /// The reconfigurable membership view, if the target keeps one: the
    /// door for every crash, recovery, amnesia and log corruption. In
    /// detector mode the nemesis touches the simulator only, through
    /// `qrdtm_core::{crash_sim_only, recover_sim_only}` over this view, and
    /// the convergence checker compares it against network aliveness.
    fn membership(&self) -> Option<&dyn Membership> {
        None
    }

    /// Start the target's failure detector, if it has one configured.
    fn start_detector(self: Rc<Self>) -> Option<DetectorHandle> {
        None
    }

    /// How long after a crash the detector may take to raise its suspicion
    /// before the checker flags it ([`DetectorConfig::detection_bound`]
    /// over the family's transfer cost; `None` when no detector is
    /// configured).
    ///
    /// [`DetectorConfig::detection_bound`]: qrdtm_core::DetectorConfig::detection_bound
    fn detection_bound(&self) -> Option<SimDuration> {
        None
    }

    /// Start recording a commit history for post-hoc serializability
    /// checking (no-op if the protocol has no recorder).
    fn begin_history(&self) {}

    /// The commits recorded since [`ChaosTarget::begin_history`] (empty if
    /// the protocol has no recorder).
    fn history(&self) -> Vec<CommitRecord> {
        Vec::new()
    }

    /// Violations found by replaying the recorded history.
    fn history_violations(&self) -> Vec<String> {
        verify(&self.history())
            .into_iter()
            .map(|v| v.to_string())
            .collect()
    }

    /// Every `(object id, installed version)` pair acknowledged to a
    /// client by a successful commit, from the recorded history. The
    /// durability checker asserts none of these regressed after the run.
    fn acked_write_versions(&self) -> Vec<(u64, u64)> {
        self.history()
            .iter()
            .flat_map(|rec| {
                rec.writes
                    .iter()
                    .map(|(oid, _, installed)| (oid.0, installed.0))
            })
            .collect()
    }

    /// The committed `(version, value)` of an object as a client reading
    /// after quiescence would see it; the version is `None` for protocols
    /// that keep none.
    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)>;

    /// The committed value of an integer object.
    fn committed_int(&self, oid: ObjectId) -> Option<i64> {
        self.committed(oid).map(|(_, val)| val.expect_int())
    }

    /// The committed version of an object (for the durability checker;
    /// `None` if unknown or inapplicable).
    fn committed_version(&self, oid: ObjectId) -> Option<u64> {
        self.committed(oid)?.0.map(|v| v.0)
    }

    /// Batch-oriented protocols only: violations of epoch (batch)
    /// atomicity — a committed transaction observing a write from an
    /// unacknowledged batch. Empty for per-transaction protocols.
    fn batch_atomicity_violations(&self) -> Vec<String> {
        Vec::new()
    }

    /// The target's client retry budget as `(cap, refill_per_commit,
    /// drip)`, when overload protection is armed — feeds the no-retry-storm
    /// checker. `None` when the protocol has no budget (nothing to check).
    fn retry_budget(&self) -> Option<(u64, u64, SimDuration)> {
        None
    }
}

impl ChaosTarget for Cluster {
    fn read_quorum_victim(&self) -> Option<NodeId> {
        self.read_quorum().first().copied()
    }

    fn membership(&self) -> Option<&dyn Membership> {
        Some(self)
    }

    fn start_detector(self: Rc<Self>) -> Option<DetectorHandle> {
        self.config().detector.map(|_| spawn_detector(&self))
    }

    fn detection_bound(&self) -> Option<SimDuration> {
        self.config()
            .detector
            .map(|_| DetectorConfig::detection_bound(self.transfer_cost()))
    }

    fn begin_history(&self) {
        self.enable_history();
    }

    fn history(&self) -> Vec<CommitRecord> {
        Cluster::history(self)
    }

    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|(v, val)| (Some(v), val))
    }

    fn retry_budget(&self) -> Option<(u64, u64, SimDuration)> {
        self.config()
            .overload
            .map(|o| (o.retry_budget_cap, o.retry_refill_per_commit, o.retry_drip))
    }
}

impl ChaosTarget for TfaCluster {
    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|val| (None, val))
    }
}

impl ChaosTarget for DecentCluster {
    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|val| (None, val))
    }
}

impl ChaosTarget for QStoreCluster {
    fn membership(&self) -> Option<&dyn Membership> {
        Some(self)
    }

    fn start_detector(self: Rc<Self>) -> Option<DetectorHandle> {
        self.config()
            .detector
            .map(|_| QStoreCluster::start_detector(&self))
    }

    fn detection_bound(&self) -> Option<SimDuration> {
        self.config()
            .detector
            .map(|_| DetectorConfig::detection_bound(self.config().transfer_cost))
    }

    fn begin_history(&self) {
        QStoreCluster::begin_history(self);
    }

    fn history(&self) -> Vec<CommitRecord> {
        QStoreCluster::history(self)
    }

    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|(v, val)| (Some(v), val))
    }

    fn batch_atomicity_violations(&self) -> Vec<String> {
        QStoreCluster::batch_atomicity_violations(self)
    }
}
