//! Wire protocol of the Q-Store family: submission between clients and
//! the planner (one answer per `Submit`: a requeue at once, decided on
//! arrival; a commit once its batch is acked), reads of committed slots,
//! and the per-batch replication round.

use qrdtm_core::{ObjVal, ObjectId, Payload, TxId, Version};
use qrdtm_sim::{SimMessage, SimTime};

use crate::wal::QSnapshot;

/// The planner's verdict on one transaction of a sealed batch — validated
/// on arrival, committed in planner order, its writes part of the batch —
/// shipped inside the batch replication record so any replica can answer
/// duplicate submissions (exactly-once across planner failover). A batch
/// holds only commits: a requeue is decided when its `Submit` arrives, and
/// never planned.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Batch (epoch) the transaction committed in.
    pub batch: u64,
    /// Serialization point: seal time plus the in-batch sequence.
    pub at: SimTime,
    /// `(object, version observed)` for reads of unwritten objects.
    pub reads: Vec<(ObjectId, Version)>,
    /// `(object, version observed, version installed)` per write.
    pub writes: Vec<(ObjectId, Version, Version)>,
    /// Newest batch id among the write tags this transaction read — fed to
    /// the batch-atomicity checker.
    pub observed_batch_max: u64,
}

/// The outcome of every transaction in one sealed batch, in planner order.
/// A sealed batch's outcomes never change, so the block is built once at
/// the seal and everything downstream — the replication job, the wire
/// copies, each replica's WAL record, decision log and snapshots, a
/// `FullSync` — holds the same allocation by reference count.
pub type DecisionBlock = Payload<(TxId, Decision)>;

/// A replica's decision log: the [`DecisionBlock`] of every applied batch
/// that still holds a decision some client may ask about, in apply order.
/// A copy (for a snapshot or a `FullSync`) shares every block.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog(Vec<DecisionBlock>);

impl DecisionLog {
    pub(crate) fn push(&mut self, block: DecisionBlock) {
        self.0.push(block);
    }

    /// Every block, in apply order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DecisionBlock> {
        self.0.iter()
    }

    /// Transactions decided across all blocks.
    pub(crate) fn txns(&self) -> usize {
        self.0.iter().map(|block| block.len()).sum()
    }

    /// Drop every block whose transactions all lie below `horizon`: their
    /// clients hold the outcomes, so no `Submit` will name them.
    pub(crate) fn forget(&mut self, horizon: &Horizon) {
        self.0
            .retain(|block| block.iter().any(|(tx, _)| !horizon.covers(tx)));
    }
}

/// One *watermark* per client node: the lowest `TxId.seq` that node still
/// awaits an outcome for. Every lower transaction of that node has its
/// answer, so nothing below the horizon is executed or answered again.
/// Raised, never lowered; a node never heard from stays at 0 and pins all
/// of its own decisions. One word per node on the wire.
#[derive(Clone, Debug, Default)]
pub struct Horizon(Vec<u64>);

impl Horizon {
    /// Raise `node`'s watermark to `watermark` (a stale one changes nothing).
    pub(crate) fn raise(&mut self, node: u32, watermark: u64) {
        let i = node as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = self.0[i].max(watermark);
    }

    /// Raise every watermark to at least `other`'s.
    pub(crate) fn merge(&mut self, other: &Horizon) {
        for (node, &w) in other.0.iter().enumerate() {
            self.raise(node as u32, w);
        }
    }

    /// Whether `tx` lies below its node's watermark.
    pub(crate) fn covers(&self, tx: &TxId) -> bool {
        self.0.get(tx.node as usize).is_some_and(|&w| tx.seq < w)
    }

    fn wire_bytes(&self) -> usize {
        8 * self.0.len()
    }
}

/// Reply status for `Submit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Enqueued in the open epoch, or committed in a batch not yet
    /// quorum-acked: the planner holds the reply. Never sent.
    Pending,
    /// Planner is mid-takeover; retry shortly.
    Busy,
    /// This node is not the planner; re-read the view and retry.
    NotPlanner,
    /// Acknowledged: the whole epoch reached a quorum.
    Committed,
    /// Rejected on arrival, a read overwritten before it was planned, and
    /// answered at once; restart with the fresh reads the answer carries.
    Requeued,
    /// Below its node's watermark: that client already holds the outcome,
    /// and the planner neither executes nor answers it again.
    Settled,
}

/// Q-Store wire messages.
#[derive(Clone, Debug)]
pub enum QMsg {
    /// Client -> planner: enqueue, answered at once when requeued or once
    /// the commit is acknowledged (idempotent — a retransmission of the same
    /// `tx` is answered from the planner's record).
    Submit {
        /// Root transaction id (stable across retransmissions of the same
        /// attempt, fresh per restart).
        tx: TxId,
        /// The sending node's watermark.
        watermark: u64,
        /// `(object, write tag observed)` for every read.
        reads: Payload<(ObjectId, u64)>,
        /// Buffered writes in client program order.
        writes: Payload<(ObjectId, ObjVal)>,
    },
    /// Planner -> client: submission outcome.
    SubmitAck {
        /// Current status of the transaction.
        status: TxStatus,
        /// With `Requeued`: the newest planned `(object, write tag, value)`
        /// — queued in the open epoch, else committed — of every object
        /// the attempt read, so the retry reads them without a message.
        /// Empty otherwise.
        fresh: Vec<(ObjectId, u64, ObjVal)>,
    },
    /// Client -> the object's home replica, or the planner after two failed
    /// reads: read the committed slot.
    Read {
        /// Object requested.
        oid: ObjectId,
    },
    /// Replica -> client: value plus the write tag to validate against.
    /// An object never preloaded or written answers as the implicit
    /// preload: tag 0 and [`ObjVal::Unit`].
    ReadOk {
        /// Tag of the write that produced `val` (0 for the preload).
        tag: u64,
        /// The value.
        val: ObjVal,
    },
    /// Planner -> replicas: install a sealed batch (one WAL record per
    /// replica; group commit).
    ApplyBatch {
        /// Batch id (replicas apply strictly in sequence).
        batch: u64,
        /// Planner view epoch — stale batches from a deposed planner are
        /// fenced here.
        view: u64,
        /// `(object, version, tag, value)` for every committed write.
        writes: Payload<(ObjectId, Version, u64, ObjVal)>,
        /// Outcome of every transaction in the batch.
        decided: DecisionBlock,
        /// The planner's client watermarks at the seal.
        horizon: Horizon,
    },
    /// Replica -> planner: batch installation outcome.
    ApplyAck {
        /// True if applied (or already applied); false on a sequence gap
        /// or a stale view stamp.
        ok: bool,
        /// The replica's applied-batch high-water mark.
        applied: u64,
    },
    /// New planner -> replicas: which batch prefix do you hold?
    SyncPull,
    /// Replica -> new planner: applied-batch high-water mark.
    SyncInfo {
        /// Applied prefix.
        applied: u64,
    },
    /// Planner -> lagging replica: full committed state (charged as one
    /// snapshot-sized transfer).
    FullSync {
        /// Planner view epoch.
        view: u64,
        /// The sender's committed state.
        state: QSnapshot,
    },
}

impl SimMessage for QMsg {
    fn class(&self) -> u8 {
        match self {
            QMsg::Read { .. } => 0,
            QMsg::ReadOk { .. } => 1,
            QMsg::Submit { .. } => 2,
            QMsg::SubmitAck { .. } => 3,
            // Class 4 is free; the replication classes keep their numbers.
            QMsg::ApplyBatch { .. } | QMsg::FullSync { .. } => 5,
            QMsg::ApplyAck { .. } | QMsg::SyncPull | QMsg::SyncInfo { .. } => 6,
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            QMsg::Submit { reads, writes, .. } => 40 + 16 * reads.len() + 24 * writes.len(),
            QMsg::SubmitAck { fresh, .. } => {
                32 + fresh
                    .iter()
                    .map(|(_, _, val)| 16 + val.approx_size())
                    .sum::<usize>()
            }
            QMsg::ApplyBatch {
                writes,
                decided,
                horizon,
                ..
            } => 32 + 40 * writes.len() + 64 * decided.len() + horizon.wire_bytes(),
            QMsg::FullSync { state, .. } => {
                32 + 48 * state.store.len() + 64 * state.decided.txns() + state.horizon.wire_bytes()
            }
            _ => 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_submit_ack_is_sized_by_the_values_it_carries() {
        let ack = |fresh: Vec<(ObjectId, u64, ObjVal)>| {
            let status = TxStatus::Requeued;
            QMsg::SubmitAck { status, fresh }.size_hint()
        };
        let one = vec![(ObjectId(1), 7, ObjVal::Int(5))];
        let two = vec![
            (ObjectId(1), 7, ObjVal::Int(5)),
            (ObjectId(2), 9, ObjVal::IntList([1, 2, 3].into())),
        ];
        assert_eq!(ack(Vec::new()), 32);
        assert_eq!(ack(one), 32 + 16 + 8);
        assert_eq!(ack(two), 32 + 16 + 8 + 16 + 32);
    }
}
