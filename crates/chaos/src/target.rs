//! What the nemesis needs from a protocol beyond [`DtmProtocol`](qrdtm_core::DtmProtocol):
//! which fault classes it can honestly be subjected to, how to crash and
//! recover its nodes, and how to read back committed state for the
//! checkers.

use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, TfaCluster};
use qrdtm_core::history::verify;
use qrdtm_core::{
    spawn_detector, Cluster, CommitRecord, DetectorConfig, DetectorHandle, Membership, ObjVal,
    ObjectId, SimHosted, Version,
};
use qrdtm_qstore::QStoreCluster;
use qrdtm_sim::{NodeId, SimDuration};

use crate::plan::FaultKind;

/// The fault classes a protocol tolerates by design.
///
/// The paper is explicit that the baselines are *not* fault-tolerant (TFA
/// has single-copy home nodes; Decent-STM as modelled has no recovery
/// protocol), so subjecting them to crashes or partitions would only
/// reconfirm their stated assumptions by hanging or losing the single
/// copy. Gray failures — slow nodes, latency spikes — violate no
/// assumption of any protocol, so every target supports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSupport {
    /// Crash-stop failures with quorum-view repair.
    pub crashes: bool,
    /// Network partitions.
    pub partitions: bool,
    /// Probabilistic per-link message loss.
    pub link_drops: bool,
    /// Crash-restart-with-amnesia and durable-log corruption — requires
    /// the target to actually keep durable storage (QR with
    /// `DtmConfig::durability` armed).
    pub amnesia: bool,
}

impl FaultSupport {
    /// Everything (the QR-DTM configurations; amnesia additionally needs
    /// durable storage armed — see [`ChaosTarget::fault_support`] for
    /// `Cluster`).
    pub fn all() -> Self {
        FaultSupport {
            crashes: true,
            partitions: true,
            link_drops: true,
            amnesia: true,
        }
    }

    /// Gray failures only (the baselines).
    pub fn gray_only() -> Self {
        FaultSupport {
            crashes: false,
            partitions: false,
            link_drops: false,
            amnesia: false,
        }
    }

    /// Whether a fault event may be applied to a target with this support.
    /// Cures are always allowed (they only remove faults).
    pub fn allows(&self, kind: &FaultKind) -> bool {
        if kind.is_cure() {
            return true;
        }
        match kind {
            FaultKind::Crash { .. } | FaultKind::CrashReadQuorum => self.crashes,
            FaultKind::Partition { .. } => self.partitions,
            FaultKind::DropLink { .. } => self.link_drops,
            FaultKind::CrashAmnesia { .. } | FaultKind::CorruptTail { .. } => self.amnesia,
            FaultKind::Delay { .. } | FaultKind::Slow { .. } => true,
            _ => true,
        }
    }
}

/// A protocol the nemesis can drive: a simulator-hosted [`DtmProtocol`]
/// plus fault hooks and committed-state access for the post-hoc checkers.
///
/// Only what differs per family is a hook here. The detector-mode verbs
/// (`crash_sim_only` & co.) are written once in `qrdtm_core` over the
/// [`Membership`] view a self-healing target hands out; the oracle verbs
/// stay per family because the order of view repair and network kill is
/// part of each protocol.
///
/// [`DtmProtocol`]: qrdtm_core::DtmProtocol
pub trait ChaosTarget: SimHosted {
    /// Which fault classes this protocol may be subjected to.
    fn fault_support(&self) -> FaultSupport;

    /// Crash-stop `node`, repairing whatever membership/quorum view the
    /// protocol keeps. Returns false if the crash cannot be applied (e.g.
    /// no quorum would survive) — the event is then skipped.
    fn crash(&self, _node: NodeId) -> bool {
        false
    }

    /// Recover a crashed node. Returns false if recovery is impossible.
    fn recover_crashed(&self, _node: NodeId) -> bool {
        false
    }

    /// Crash `node` with amnesia (volatile state lost, durable log keeps a
    /// seeded prefix), repairing the membership view. Returns false if
    /// inapplicable.
    fn crash_amnesia(&self, _node: NodeId) -> bool {
        false
    }

    /// Corrupt the tail of `node`'s durable log in place. Returns false if
    /// the target keeps no durable log (or it is empty).
    fn corrupt_tail(&self, _node: NodeId) -> bool {
        false
    }

    /// The node a [`FaultKind::CrashReadQuorum`] event should kill (the
    /// Fig. 10 victim), if the notion applies.
    fn read_quorum_victim(&self) -> Option<NodeId> {
        None
    }

    /// The reconfigurable membership view, if the target keeps one. In
    /// detector mode the nemesis touches the simulator only, through
    /// `qrdtm_core::{crash_sim_only, recover_sim_only,
    /// crash_amnesia_sim_only}` over this view, and the convergence
    /// checker compares it against network aliveness.
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
    fn fault_support(&self) -> FaultSupport {
        FaultSupport {
            // Amnesia needs a disk to restart from.
            amnesia: self.config().durability.is_some(),
            ..FaultSupport::all()
        }
    }

    fn crash(&self, node: NodeId) -> bool {
        self.fail_node(node).is_ok()
    }

    fn recover_crashed(&self, node: NodeId) -> bool {
        self.recover_node(node).is_ok()
    }

    fn crash_amnesia(&self, node: NodeId) -> bool {
        self.config().durability.is_some() && self.crash_node_amnesia(node).is_ok()
    }

    fn corrupt_tail(&self, node: NodeId) -> bool {
        self.corrupt_wal_tail(node, 1)
    }

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
    fn fault_support(&self) -> FaultSupport {
        FaultSupport::gray_only()
    }

    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|val| (None, val))
    }
}

impl ChaosTarget for DecentCluster {
    fn fault_support(&self) -> FaultSupport {
        FaultSupport::gray_only()
    }

    fn committed(&self, oid: ObjectId) -> Option<(Option<Version>, ObjVal)> {
        self.latest(oid).map(|val| (None, val))
    }
}

impl ChaosTarget for QStoreCluster {
    fn fault_support(&self) -> FaultSupport {
        // Crash-stop with planner failover, partitions and lossy links are
        // tolerated by design; amnesia additionally needs the per-replica
        // batch WAL on the simulated disk to restart from.
        FaultSupport {
            amnesia: self.config().durability.is_some(),
            ..FaultSupport::all()
        }
    }

    fn crash(&self, node: NodeId) -> bool {
        self.crash_node(node)
    }

    fn recover_crashed(&self, node: NodeId) -> bool {
        self.recover_crashed_node(node)
    }

    fn crash_amnesia(&self, node: NodeId) -> bool {
        self.config().durability.is_some() && self.crash_node_amnesia(node)
    }

    fn corrupt_tail(&self, node: NodeId) -> bool {
        QStoreCluster::corrupt_tail(self, node, 1)
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_masks_gate_hard_faults_but_never_cures() {
        let gray = FaultSupport::gray_only();
        assert!(!gray.allows(&FaultKind::Crash { node: 1 }));
        assert!(!gray.allows(&FaultKind::CrashReadQuorum));
        assert!(!gray.allows(&FaultKind::Partition { groups: vec![] }));
        assert!(!gray.allows(&FaultKind::DropLink {
            from: 0,
            to: 1,
            permille: 500
        }));
        assert!(gray.allows(&FaultKind::Delay {
            from: 0,
            to: 1,
            extra_us: 1000
        }));
        assert!(gray.allows(&FaultKind::Slow {
            node: 1,
            factor_pct: 300
        }));
        assert!(gray.allows(&FaultKind::Heal));
        assert!(gray.allows(&FaultKind::Recover { node: 1 }));
        assert!(!gray.allows(&FaultKind::CrashAmnesia { node: 1 }));
        assert!(!gray.allows(&FaultKind::CorruptTail { node: 1 }));
        let all = FaultSupport::all();
        assert!(all.allows(&FaultKind::Crash { node: 1 }));
        assert!(all.allows(&FaultKind::CrashReadQuorum));
        assert!(all.allows(&FaultKind::CrashAmnesia { node: 1 }));
        assert!(all.allows(&FaultKind::CorruptTail { node: 1 }));
        // A durability-less QR cluster supports crashes but not amnesia.
        let pause_only = FaultSupport {
            amnesia: false,
            ..FaultSupport::all()
        };
        assert!(pause_only.allows(&FaultKind::Crash { node: 1 }));
        assert!(!pause_only.allows(&FaultKind::CrashAmnesia { node: 1 }));
    }
}
