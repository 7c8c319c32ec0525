//! What the nemesis needs from a protocol beyond [`DtmProtocol`](qrdtm_core::DtmProtocol):
//! its membership view, if it has one, and how to read back committed
//! state for the checkers.

use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, TfaCluster};
use qrdtm_core::{Cluster, CommitRecord, Membership, ObjVal, ObjectId, SimHosted, Version};
use qrdtm_qstore::QStoreCluster;
use qrdtm_sim::SimDuration;

/// A protocol the nemesis can drive: a simulator-hosted [`DtmProtocol`]
/// plus what differs by family — its membership view, history and
/// committed-state access for the post-hoc [`audit`](crate::audit).
///
/// No method here crashes, recovers, forgets or corrupts a node: every
/// fault verb goes through the target's [`Membership`] view, and what the
/// nemesis may inject is what [`FaultClass::admitted`] allows for whether
/// there is a view and whether it is durable. The baselines keep none, so
/// they take gray faults only.
///
/// [`FaultClass::admitted`]: crate::FaultClass::admitted
///
/// [`DtmProtocol`]: qrdtm_core::DtmProtocol
pub trait ChaosTarget: SimHosted {
    /// The reconfigurable membership view, if the target keeps one: the
    /// door for every crash, recovery, amnesia and log corruption, through
    /// `qrdtm_core::{crash, recover}` over this view. In detector mode the
    /// nemesis starts `qrdtm_core::spawn_detector` on this view and then
    /// faults the simulator itself (`Sim::{fail_node, recover_node}`); the
    /// convergence checker compares the view against network aliveness.
    fn membership(self: &Rc<Self>) -> Option<Rc<dyn Membership>> {
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

    /// The committed `(version, value)` of an object as a client reading
    /// after quiescence would see it; the version is `None` for protocols
    /// that keep none.
    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)>;

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
    fn membership(self: &Rc<Self>) -> Option<Rc<dyn Membership>> {
        Some(Rc::clone(self) as Rc<dyn Membership>)
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
    fn membership(self: &Rc<Self>) -> Option<Rc<dyn Membership>> {
        Some(Rc::clone(self) as Rc<dyn Membership>)
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
