//! What a Q-Store replica logs in its [`Wal`](qrdtm_core::Wal).
//!
//! The durability unit is the *batch* (epoch): each replica appends exactly
//! one [`BatchRecord`] per applied batch and fsyncs it immediately — the
//! group commit the family is built around (fsyncs ≈ batches ≪
//! transactions). One record carries the whole batch, so the disk's
//! torn-tail semantics give batch atomicity for free: a tear truncates at a
//! record boundary, and replay resurrects an epoch completely or not at all.
//!
//! The planner splits the pair: `seal` *appends* the record and the
//! replication task fsyncs it just before driving the quorum round. A
//! planner that crashes with amnesia in between loses the record — the
//! window the takeover protocol and the `ack-before-fsync` mc bug probe.

use qrdtm_core::{IdMap, ObjVal, ObjectId, Payload, Version};

use crate::core::{install_writes, Slot};
use crate::msg::{DecisionBlock, DecisionLog, Horizon};

/// One durable log record: a whole sealed batch (preloads use batch 0).
/// Both lists are the blocks the seal built, held by reference count.
#[derive(Clone, Debug)]
pub(crate) struct BatchRecord {
    pub batch: u64,
    /// `(object, version, tag, value)` for every write in the batch.
    pub writes: Payload<(ObjectId, Version, u64, ObjVal)>,
    /// Outcome of every transaction in the batch (empty for a preload).
    pub decided: DecisionBlock,
    /// The client watermarks the batch carried.
    pub horizon: Horizon,
}

/// A replica's full committed state: a snapshot's payload, [`fold`]'s result.
#[derive(Clone, Debug, Default)]
pub(crate) struct QSnapshot {
    /// Highest batch the state covers.
    pub applied: u64,
    pub store: IdMap<ObjectId, Slot>,
    pub decided: DecisionLog,
    pub horizon: Horizon,
}

/// Snapshot state, then every readable batch record folded in, in append
/// order — whole batches only. The log keeps what the highest watermarks
/// read back still let a client ask about.
pub(crate) fn fold(snapshot: Option<QSnapshot>, records: Vec<BatchRecord>) -> QSnapshot {
    let mut st = snapshot.unwrap_or_default();
    for rec in records {
        install_writes(&mut st.store, rec.batch, &rec.writes);
        if !rec.decided.is_empty() {
            st.decided.push(rec.decided);
        }
        st.horizon.merge(&rec.horizon);
        st.applied = st.applied.max(rec.batch);
    }
    st.decided.forget(&st.horizon);
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Decision;
    use qrdtm_core::{DurabilityConfig, TxId, Wal};
    use std::rc::Rc;

    fn rec(batch: u64, writes: u64) -> BatchRecord {
        BatchRecord {
            batch,
            writes: (0..writes)
                .map(|i| (ObjectId(i), Version(batch), (batch << 24) | i, ObjVal::Unit))
                .collect(),
            decided: [(
                TxId {
                    node: 0,
                    seq: batch,
                },
                Decision::Requeued { batch },
            )]
            .into(),
            horizon: Horizon::default(),
        }
    }

    fn synced(batches: &[(u64, u64)]) -> Wal<BatchRecord, QSnapshot> {
        let mut w = Wal::new(DurabilityConfig::default());
        for &(batch, writes) in batches {
            w.append(rec(batch, writes));
            w.fsync(None);
        }
        w
    }

    #[test]
    fn fsynced_prefix_survives_an_amnesiac_restart() {
        let first = rec(1, 2);
        let mut w = Wal::new(DurabilityConfig::default());
        w.append(first.clone());
        w.fsync(None);
        w.append(rec(2, 2)); // appended, never synced: the planner window
        let img = w.replay();
        assert_eq!(img.records_replayed, 1);
        assert!(!img.torn_tail_detected);
        let st = fold(img.snapshot, img.records);
        assert_eq!(st.applied, 1, "unsynced batch is lost by definition");
        assert_eq!(st.store.len(), 2);
        assert!(st.store.values().all(|s| s.batch == 1));
        let blocks: Vec<_> = st.decided.iter().collect();
        assert_eq!(blocks.len(), 1, "one outcome block per replayed batch");
        assert!(
            Rc::ptr_eq(blocks[0], &first.decided),
            "the disk hands back the logged block, not a copy"
        );
    }

    #[test]
    fn a_torn_record_drops_the_whole_batch_atomically() {
        let mut w = synced(&[(1, 1), (2, 3)]);
        assert!(w.corrupt_tail(1));
        let img = w.replay();
        assert!(img.torn_tail_detected);
        let st = fold(img.snapshot, img.records);
        assert_eq!(st.applied, 1, "batch 2 is gone entirely");
        assert!(st.store.values().all(|s| s.batch <= 1), "no partial epoch");
        assert_eq!(st.decided.txns(), 1, "batch 2's outcomes went with it");
    }

    #[test]
    fn replay_adopts_the_highest_watermarks_and_forgets_below_them() {
        // Batch b decides node 0's seq b; batch 3 ships watermark 3.
        let mut w = synced(&[(1, 1), (2, 1)]);
        let mut third = rec(3, 1);
        third.horizon.raise(0, 3);
        w.append(third);
        w.fsync(None);
        let img = w.replay();
        let st = fold(img.snapshot, img.records);
        assert!(st.horizon.covers(&TxId { node: 0, seq: 2 }));
        let kept: Vec<u64> = st.decided.iter().map(|b| b[0].0.seq).collect();
        assert_eq!(kept, [3], "batches 1 and 2 are below the horizon");
    }
}
