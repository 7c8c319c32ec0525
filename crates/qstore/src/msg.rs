//! Wire protocol of the Q-Store family: submission/poll between clients
//! and the planner, speculative queue forwarding to executors, and the
//! per-batch replication round.

use qrdtm_core::{ObjVal, ObjectId, Payload, TxId, Version};
use qrdtm_sim::{SimMessage, SimTime};

/// The planner's verdict on one transaction, shipped inside the batch
/// replication record so any replica can answer duplicate submissions
/// (exactly-once across planner failover).
#[derive(Clone, Debug)]
pub enum Decision {
    /// Validated in planner order; its writes are part of the batch.
    Committed {
        /// Batch (epoch) the transaction committed in.
        batch: u64,
        /// Serialization point: seal time plus the in-batch sequence.
        at: SimTime,
        /// `(object, version observed)` for reads of unwritten objects.
        reads: Vec<(ObjectId, Version)>,
        /// `(object, version observed, version installed)` per write.
        writes: Vec<(ObjectId, Version, Version)>,
        /// Newest batch id among the write tags this transaction read —
        /// fed to the batch-atomicity checker.
        observed_batch_max: u64,
    },
    /// A read tag went stale before the seal; the client must re-execute.
    Requeued {
        /// Batch that rejected the transaction.
        batch: u64,
    },
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
    /// clients hold the outcomes, so no `Submit` or `Poll` will name them.
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

/// Reply status for `Submit`/`Poll`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Enqueued in the open epoch (or sealed but not yet quorum-acked).
    Pending,
    /// Planner is mid-takeover; retry shortly.
    Busy,
    /// This node is not the planner; re-read the view and retry.
    NotPlanner,
    /// The planner has no trace of this transaction (lost open epoch
    /// after a planner crash); resubmit.
    Unknown,
    /// Acknowledged: the whole epoch reached a quorum.
    Committed,
    /// Deterministically rejected; restart with fresh reads.
    Requeued,
    /// Below its node's watermark: that client already holds the outcome,
    /// and the planner neither executes nor answers it again.
    Settled,
}

/// Q-Store wire messages.
#[derive(Clone, Debug)]
pub enum QMsg {
    /// Client -> planner: enqueue (idempotent — doubles as a poll for the
    /// same `tx`).
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
    /// Client -> planner: outcome query for an already-submitted `tx`.
    Poll {
        /// Transaction being polled.
        tx: TxId,
        /// The sending node's watermark.
        watermark: u64,
    },
    /// Planner -> client: submission/poll outcome.
    SubmitAck {
        /// Current status of the transaction.
        status: TxStatus,
    },
    /// Client -> home executor: speculative read (newest queued write).
    Read {
        /// Object requested.
        oid: ObjectId,
    },
    /// Client -> planner: authoritative read of the committed store
    /// (requeue-escape hatch).
    ReadCommitted {
        /// Object requested.
        oid: ObjectId,
    },
    /// Executor -> client: value plus the write tag to validate against.
    ReadOk {
        /// Tag of the write that produced `val` (0 for the preload).
        tag: u64,
        /// The value.
        val: ObjVal,
    },
    /// Executor -> client: the object is absent from both the
    /// speculative chain and the committed store (never preloaded or
    /// written). The client resolves it as the implicit preload.
    ReadMiss,
    /// Planner -> home executor (fire-and-forget): append a queued write
    /// to the object's speculative chain.
    Speculate {
        /// Object written.
        oid: ObjectId,
        /// Planner-assigned write tag (view epoch in the high bits).
        tag: u64,
        /// Open batch the write belongs to.
        batch: u64,
        /// Speculative value.
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
        /// Batch prefix this state represents.
        applied: u64,
        /// `(object, version, tag, batch, value)` store dump.
        store: Vec<(ObjectId, Version, u64, u64, ObjVal)>,
        /// Decision log, from the sender's horizon up.
        decided: DecisionLog,
        /// The sender's client watermarks.
        horizon: Horizon,
    },
}

impl SimMessage for QMsg {
    fn class(&self) -> u8 {
        match self {
            QMsg::Read { .. } | QMsg::ReadCommitted { .. } => 0,
            QMsg::ReadOk { .. } | QMsg::ReadMiss => 1,
            QMsg::Submit { .. } | QMsg::Poll { .. } => 2,
            QMsg::SubmitAck { .. } => 3,
            QMsg::Speculate { .. } => 4,
            QMsg::ApplyBatch { .. } | QMsg::FullSync { .. } => 5,
            QMsg::ApplyAck { .. } | QMsg::SyncPull | QMsg::SyncInfo { .. } => 6,
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            QMsg::Submit { reads, writes, .. } => 40 + 16 * reads.len() + 24 * writes.len(),
            QMsg::Poll { .. } => 40,
            QMsg::ApplyBatch {
                writes,
                decided,
                horizon,
                ..
            } => 32 + 40 * writes.len() + 64 * decided.len() + horizon.wire_bytes(),
            QMsg::FullSync {
                store,
                decided,
                horizon,
                ..
            } => 32 + 48 * store.len() + 64 * decided.txns() + horizon.wire_bytes(),
            _ => 32,
        }
    }
}
