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

/// A replica's decision log: the [`DecisionBlock`] of every applied batch,
/// in apply order. Append-only; a copy shares every block. Capturing the
/// log (for a snapshot or a `FullSync`) freezes the blocks since the last
/// capture into a chunk that is held by reference count too, so a capture
/// costs one count bump per earlier capture — not one per batch, let alone
/// one per transaction.
#[derive(Clone, Debug, Default)]
pub struct DecisionLog {
    chunks: Vec<Payload<DecisionBlock>>,
    tail: Vec<DecisionBlock>,
}

impl DecisionLog {
    pub(crate) fn push(&mut self, block: DecisionBlock) {
        self.tail.push(block);
    }

    /// Every block, in apply order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DecisionBlock> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(&self.tail)
    }

    /// Transactions decided across all blocks.
    pub(crate) fn txns(&self) -> usize {
        self.iter().map(|block| block.len()).sum()
    }

    /// Freeze the blocks pushed since the last call into one chunk and
    /// hand back a copy of the whole log.
    pub(crate) fn share(&mut self) -> DecisionLog {
        if !self.tail.is_empty() {
            self.chunks.push(std::mem::take(&mut self.tail).into());
        }
        self.clone()
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
        /// `(object, write tag observed)` for every read.
        reads: Vec<(ObjectId, u64)>,
        /// Buffered writes in client program order.
        writes: Vec<(ObjectId, ObjVal)>,
    },
    /// Client -> planner: outcome query for an already-submitted `tx`.
    Poll {
        /// Transaction being polled.
        tx: TxId,
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
        /// Full decision log.
        decided: DecisionLog,
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
            QMsg::Submit { reads, writes, .. } => 32 + 16 * reads.len() + 24 * writes.len(),
            QMsg::ApplyBatch {
                writes, decided, ..
            } => 32 + 40 * writes.len() + 64 * decided.len(),
            QMsg::FullSync { store, decided, .. } => 32 + 48 * store.len() + 64 * decided.txns(),
            _ => 32,
        }
    }
}
