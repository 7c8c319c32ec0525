//! Nesting layer: per-transaction data-set state and the [`NestingPolicy`]
//! strategies.
//!
//! The paper's three protocols differ only in *how a transaction reacts to
//! conflicts and structures its data set*: flat QR retries wholesale, QR-CN
//! keeps per-level frames so a closed-nested scope can abort alone, and
//! QR-CHK marks checkpoints on an undo journal of the root frame's inserts,
//! pops the journal back to the mark on a partial rollback and replays the
//! logged operation prefix. Each variant is a stateless strategy object
//! behind [`NestingPolicy`]; the engine core consults the policy instead of
//! matching on [`NestingMode`] mid-access.

use std::collections::BTreeMap;

use qrdtm_sim::SimTime;

use crate::msg::{ValEntry, ValidationKind};
use crate::object::{ObjVal, ObjectId, Version};
use crate::txid::{Abort, AbortTarget, NestingMode, TxId};

/// A cached object copy inside a transaction's data set.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub(super) struct Cached {
    pub(super) version: Version,
    pub(super) val: ObjVal,
    /// Nesting level whose abort invalidates this entry (the `ownerTxn`).
    pub(super) owner_level: u32,
    /// Checkpoint id current when the object was fetched (`ownerChkpnt`).
    pub(super) owner_chk: u32,
}

/// Read/write sets of one nesting level.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub(super) struct Frame {
    pub(super) reads: BTreeMap<ObjectId, Cached>,
    pub(super) writes: BTreeMap<ObjectId, Cached>,
}

impl Frame {
    pub(super) fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn set_mut(&mut self, is_write: bool) -> &mut BTreeMap<ObjectId, Cached> {
        if is_write {
            &mut self.writes
        } else {
            &mut self.reads
        }
    }
}

/// A checkpoint: a mark on the op log and on the undo journal, plus the
/// data-set size at capture. Nothing is copied — the journal entries past
/// `journal_len` are what [`TxState::rollback_to`] undoes to get the root
/// frame of the capture instant back, and replaying the op-log prefix
/// reconstructs the execution state.
#[derive(Clone, Copy, Debug)]
pub(super) struct ChkRec {
    pub(super) oplog_len: usize,
    pub(super) journal_len: usize,
    pub(super) dataset_size: usize,
}

/// One logged operation: what the body issued and, for a read, what it got.
#[derive(Debug)]
pub(super) struct LoggedOp {
    pub(super) oid: ObjectId,
    /// `Some(result)` for a read, `None` for a write.
    pub(super) result: Option<ObjVal>,
}

/// One undo-journal record: the root-frame slot an insert overwrote.
#[derive(Debug)]
struct Undo {
    oid: ObjectId,
    is_write: bool,
    /// What the slot held before (`None`: the insert created it).
    prev: Option<Cached>,
}

/// The mutable state of one root transaction attempt (all nesting levels).
pub(super) struct TxState {
    pub(super) root: TxId,
    pub(super) frames: Vec<Frame>,
    /// One entry per operation (QR-CHK only, see [`NestingPolicy::log_op`]).
    pub(super) oplog: Vec<LoggedOp>,
    pub(super) op_index: usize,
    pub(super) replay_upto: usize,
    /// Undo records of every root-frame insert since the attempt began
    /// (QR-CHK only, see [`TxState::insert`]): O(data set) per attempt,
    /// however many checkpoints mark it.
    journal: Vec<Undo>,
    pub(super) checkpoints: Vec<ChkRec>,
    pub(super) last_chk_size: usize,
    pub(super) attempt: u32,
    /// Completion instant of the latest remote (validated) read — the
    /// serialization point of a read-only QR-CN commit.
    pub(super) last_remote_read_at: SimTime,
    /// Whether any read this attempt accepted came from a hedged quorum
    /// call whose accepted reply set was not the designated read quorum.
    /// Such a set need not intersect write quorums, so the zero-message
    /// Rqv read-only commit is disabled for the attempt (the vote round
    /// re-validates everything and remains safe).
    pub(super) hedged_reads: bool,
    /// Completion deadline, if the client armed one: quorum rounds past
    /// this instant are abandoned instead of burning retries (deadline-
    /// aware early abort). Survives retries — the deadline belongs to the
    /// *request*, not the attempt.
    pub(super) deadline: Option<SimTime>,
}

impl TxState {
    pub(super) fn new(root: TxId) -> Self {
        TxState {
            root,
            frames: vec![Frame::default()],
            oplog: Vec::new(),
            op_index: 0,
            replay_upto: 0,
            journal: Vec::new(),
            checkpoints: vec![ChkRec {
                oplog_len: 0,
                journal_len: 0,
                dataset_size: 0,
            }],
            last_chk_size: 0,
            attempt: 0,
            last_remote_read_at: SimTime::ZERO,
            hedged_reads: false,
            deadline: None,
        }
    }

    pub(super) fn cur_chk(&self) -> u32 {
        (self.checkpoints.len() - 1) as u32
    }

    pub(super) fn replaying(&self) -> bool {
        self.op_index < self.replay_upto
    }

    /// The merged data set as Rqv validation entries, sorted by object,
    /// one entry per object: the innermost frame shadows, and within a
    /// frame the write shadows the read.
    pub(super) fn entries(&self) -> Vec<ValEntry> {
        let mut out = Vec::with_capacity(self.frames.iter().map(Frame::len).sum());
        // Winners first: the sort is stable, so within one object the
        // order pushed here survives and `dedup` keeps the head of a run.
        for f in self.frames.iter().rev() {
            for (oid, c) in f.writes.iter().chain(f.reads.iter()) {
                out.push(ValEntry {
                    oid: *oid,
                    version: c.version,
                    owner_level: c.owner_level,
                    owner_chk: c.owner_chk,
                });
            }
        }
        out.sort_by_key(|e| e.oid);
        out.dedup_by_key(|e| e.oid);
        out
    }

    /// Put `c` into `level`'s read or write set: the one door every
    /// data-set insert of an access takes. With `journal` set (the
    /// checkpoint policy, whose scopes are all inlined into the root
    /// frame) the slot's previous content is recorded so
    /// [`TxState::rollback_to`] can put it back.
    pub(super) fn insert(
        &mut self,
        level: u32,
        oid: ObjectId,
        is_write: bool,
        c: Cached,
        journal: bool,
    ) {
        let prev = self.frames[level as usize].set_mut(is_write).insert(oid, c);
        if journal {
            debug_assert_eq!(level, 0, "journaled inserts go to the root frame");
            self.journal.push(Undo {
                oid,
                is_write,
                prev,
            });
        }
    }

    /// Locate an object in the data set visible to `level` (own frame and
    /// ancestors; writes shadow reads).
    pub(super) fn lookup(&self, level: u32, oid: ObjectId) -> Option<&Cached> {
        for f in self.frames[..=(level as usize)].iter().rev() {
            if let Some(c) = f.writes.get(&oid) {
                return Some(c);
            }
            if let Some(c) = f.reads.get(&oid) {
                return Some(c);
            }
        }
        None
    }

    /// Restore checkpoint `c` and arm deterministic replay of the logged
    /// prefix (QR-CHK `abortChk`). Returns the index actually restored
    /// (`c` clamped to the live checkpoint stack).
    ///
    /// The root frame is restored by undoing the journal back to the
    /// mark, newest record first. Filtering the frame by `owner_chk > c`
    /// instead would be wrong: a write promoted under checkpoint 3 keeps
    /// the `owner_chk` of the read it shadows (whoever *fetched* the copy
    /// owns it), so a rollback to checkpoint 2 would keep a write the
    /// replayed prefix never issued.
    pub(super) fn rollback_to(&mut self, c: u32) -> u32 {
        let c = (c as usize).min(self.checkpoints.len() - 1);
        let rec = self.checkpoints[c];
        self.frames.truncate(1);
        let root = &mut self.frames[0];
        for u in self.journal.drain(rec.journal_len..).rev() {
            let set = root.set_mut(u.is_write);
            match u.prev {
                Some(prev) => set.insert(u.oid, prev),
                None => set.remove(&u.oid),
            };
        }
        self.oplog.truncate(rec.oplog_len);
        self.replay_upto = rec.oplog_len;
        self.op_index = 0;
        self.checkpoints.truncate(c + 1);
        self.last_chk_size = rec.dataset_size;
        self.attempt += 1;
        c as u32
    }

    /// Full reset for a root retry; the new attempt gets a fresh [`TxId`] so
    /// stale locks/metadata of the old attempt can never alias it.
    pub(super) fn reset_for_retry(&mut self, fresh: TxId) {
        let attempt = self.attempt + 1;
        let deadline = self.deadline;
        *self = TxState::new(fresh);
        self.attempt = attempt;
        self.deadline = deadline;
    }
}

/// Protocol variant as a strategy object: every place the engine used to
/// branch on [`NestingMode`] asks the policy instead.
pub(super) trait NestingPolicy {
    /// The abort value a body at `level` uses to abort voluntarily.
    fn abort_here(&self, level: u32) -> Abort;

    /// Validation kind piggybacked on remote reads (assuming Rqv is on).
    fn validation_kind(&self) -> ValidationKind;

    /// Whether [`Tx::closed`]/[`Tx::open`] create real nested scopes; when
    /// `false`, bodies run inline in the enclosing transaction.
    fn real_nested_scopes(&self) -> bool {
        false
    }

    /// Whether a read-only root commit may complete locally (Rqv already
    /// validated every read) — the QR-CN zero-message commit.
    fn local_read_only_commit(&self) -> bool {
        false
    }

    /// Serve the current operation from the replay log if a rollback armed
    /// one. `Some(result)` consumes the log entry; `None` executes normally.
    /// Panics if the re-executed body issues a different operation than the
    /// one logged at this index.
    fn replay_hit(&self, _st: &mut TxState, _oid: ObjectId, _is_write: bool) -> Option<ObjVal> {
        None
    }

    /// Record a completed operation in the op log (QR-CHK only).
    fn log_op(&self, _st: &mut TxState, _oid: ObjectId, _is_write: bool, _out: &ObjVal) {}

    /// Whether data-set inserts are recorded in the undo journal (QR-CHK
    /// only — the same policy that logs operations).
    fn journals_inserts(&self) -> bool {
        false
    }

    /// Whether the data set grew enough since the last checkpoint that a new
    /// one is due.
    fn checkpoint_due(&self, _st: &TxState, _threshold: usize) -> bool {
        false
    }

    /// Mark the current op-log and journal position as a new checkpoint.
    fn take_checkpoint(&self, _st: &mut TxState) {
        unreachable!("only the checkpoint policy takes checkpoints");
    }

    /// How a root-level abort retries: `Some(c)` rolls back to checkpoint
    /// `c` (partial, replayed); `None` resets the whole transaction.
    fn rollback_checkpoint(&self, _abort: &Abort) -> Option<u32> {
        None
    }
}

/// Flat QR: no partial aborts, no piggybacked validation.
struct FlatPolicy;

impl NestingPolicy for FlatPolicy {
    fn abort_here(&self, level: u32) -> Abort {
        Abort::level(level)
    }

    fn validation_kind(&self) -> ValidationKind {
        ValidationKind::None
    }
}

/// QR-CN: per-level frames, Rqv validation, local read-only commits.
struct ClosedPolicy;

impl NestingPolicy for ClosedPolicy {
    fn abort_here(&self, level: u32) -> Abort {
        Abort::level(level)
    }

    fn validation_kind(&self) -> ValidationKind {
        ValidationKind::Closed
    }

    fn real_nested_scopes(&self) -> bool {
        true
    }

    fn local_read_only_commit(&self) -> bool {
        true
    }
}

/// QR-CHK: op logging, periodic checkpoints, partial rollback with replay.
struct CheckpointPolicy;

impl NestingPolicy for CheckpointPolicy {
    fn abort_here(&self, _level: u32) -> Abort {
        // Roll all the way back: the torn prefix cannot be localized.
        Abort::chk(0)
    }

    fn validation_kind(&self) -> ValidationKind {
        ValidationKind::Checkpoint
    }

    fn replay_hit(&self, st: &mut TxState, oid: ObjectId, is_write: bool) -> Option<ObjVal> {
        if !st.replaying() {
            return None;
        }
        let logged = &st.oplog[st.op_index];
        if logged.oid != oid || logged.result.is_none() != is_write {
            let kind = |w| if w { "write" } else { "read" };
            panic!(
                "replay divergence in {}: op {} was logged as ({}, {}) but the re-executed \
                 body issued ({}, {}); a transaction body must be a pure function of its \
                 Tx results",
                st.root,
                st.op_index,
                logged.oid,
                kind(logged.result.is_none()),
                oid,
                kind(is_write),
            );
        }
        // A logged write needs nothing: the restored frame contains it.
        let out = logged.result.clone().unwrap_or(ObjVal::Unit);
        st.op_index += 1;
        Some(out)
    }

    fn log_op(&self, st: &mut TxState, oid: ObjectId, is_write: bool, out: &ObjVal) {
        st.oplog.push(LoggedOp {
            oid,
            result: if is_write { None } else { Some(out.clone()) },
        });
        st.op_index += 1;
    }

    fn journals_inserts(&self) -> bool {
        true
    }

    fn checkpoint_due(&self, st: &TxState, threshold: usize) -> bool {
        st.frames[0].len() >= st.last_chk_size + threshold
    }

    fn take_checkpoint(&self, st: &mut TxState) {
        let rec = ChkRec {
            oplog_len: st.oplog.len(),
            journal_len: st.journal.len(),
            dataset_size: st.frames[0].len(),
        };
        st.last_chk_size = rec.dataset_size;
        st.checkpoints.push(rec);
    }

    fn rollback_checkpoint(&self, abort: &Abort) -> Option<u32> {
        match abort.target {
            AbortTarget::Chk(c) => Some(c),
            AbortTarget::Level(_) => None,
        }
    }
}

/// The strategy object for a mode (policies are stateless singletons).
pub(super) fn policy(mode: NestingMode) -> &'static dyn NestingPolicy {
    match mode {
        NestingMode::Flat => &FlatPolicy,
        NestingMode::Closed => &ClosedPolicy,
        NestingMode::Checkpoint => &CheckpointPolicy,
    }
}

#[cfg(test)]
mod tests {
    //! The journal and the direct `entries()` fill against the code they
    //! replaced, kept here as references.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const ROOT: TxId = TxId { node: 3, seq: 1 };

    /// The deleted checkpoint representation: a deep clone of the root
    /// frame per checkpoint, cloned again at rollback.
    struct SnapshotChk {
        oplog_len: usize,
        frame: Frame,
        dataset_size: usize,
    }

    /// As much of the deleted `TxState` as checkpoints touched.
    struct SnapshotState {
        frames: Vec<Frame>,
        oplog_len: usize,
        checkpoints: Vec<SnapshotChk>,
        last_chk_size: usize,
    }

    impl SnapshotState {
        fn new() -> Self {
            SnapshotState {
                frames: vec![Frame::default()],
                oplog_len: 0,
                checkpoints: vec![SnapshotChk {
                    oplog_len: 0,
                    frame: Frame::default(),
                    dataset_size: 0,
                }],
                last_chk_size: 0,
            }
        }

        fn insert(&mut self, oid: ObjectId, is_write: bool, c: Cached) {
            self.frames[0].set_mut(is_write).insert(oid, c);
            self.oplog_len += 1;
        }

        fn take_checkpoint(&mut self) {
            let rec = SnapshotChk {
                oplog_len: self.oplog_len,
                frame: self.frames[0].clone(),
                dataset_size: self.frames[0].len(),
            };
            self.last_chk_size = rec.dataset_size;
            self.checkpoints.push(rec);
        }

        fn rollback_to(&mut self, c: usize) {
            let rec = &self.checkpoints[c];
            self.frames = vec![rec.frame.clone()];
            self.oplog_len = rec.oplog_len;
            self.last_chk_size = rec.dataset_size;
            self.checkpoints.truncate(c + 1);
        }
    }

    /// The deleted `entries()`: build a map, collect it, drop it.
    fn entries_via_map(st: &TxState) -> Vec<ValEntry> {
        let mut map: BTreeMap<ObjectId, ValEntry> = BTreeMap::new();
        for f in &st.frames {
            for (oid, c) in f.reads.iter().chain(f.writes.iter()) {
                map.insert(
                    *oid,
                    ValEntry {
                        oid: *oid,
                        version: c.version,
                        owner_level: c.owner_level,
                        owner_chk: c.owner_chk,
                    },
                );
            }
        }
        map.into_values().collect()
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Fetch an object the data set does not hold, for read or write.
        Remote {
            oid: u64,
            is_write: bool,
        },
        /// Write the `pick`-th held object as a local hit.
        Promote {
            pick: usize,
        },
        Checkpoint,
        /// Roll back to the `pick`-th live checkpoint.
        Rollback {
            pick: usize,
        },
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let remote =
            || (0..24u64, any::<bool>()).prop_map(|(oid, is_write)| Step::Remote { oid, is_write });
        vec(
            prop_oneof![
                remote(),
                remote(),
                (0..64usize).prop_map(|pick| Step::Promote { pick }),
                Just(Step::Checkpoint),
                (0..64usize).prop_map(|pick| Step::Rollback { pick }),
            ],
            1..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn journal_rollback_equals_snapshot_rollback(steps in steps()) {
            let pol = policy(NestingMode::Checkpoint);
            let mut st = TxState::new(ROOT);
            let mut reference = SnapshotState::new();
            // Data-set insert plus op log, the way `Tx::access` does both.
            let insert = |st: &mut TxState,
                          reference: &mut SnapshotState,
                          oid: ObjectId,
                          is_write: bool,
                          c: Cached| {
                reference.insert(oid, is_write, c.clone());
                let out = c.val.clone();
                st.insert(0, oid, is_write, c, pol.journals_inserts());
                pol.log_op(st, oid, is_write, &out);
            };
            for (n, step) in steps.into_iter().enumerate() {
                let val = ObjVal::Int(n as i64);
                match step {
                    Step::Remote { oid, is_write } => {
                        let oid = ObjectId(oid);
                        if st.lookup(0, oid).is_some() {
                            continue;
                        }
                        let c = Cached {
                            version: Version(n as u64),
                            val,
                            owner_level: 0,
                            owner_chk: st.cur_chk(),
                        };
                        insert(&mut st, &mut reference, oid, is_write, c);
                    }
                    Step::Promote { pick } => {
                        let held = st.entries();
                        if held.is_empty() {
                            continue;
                        }
                        let oid = held[pick % held.len()].oid;
                        let found = st.lookup(0, oid).expect("held");
                        let c = Cached {
                            version: found.version,
                            val,
                            owner_level: found.owner_level,
                            owner_chk: found.owner_chk,
                        };
                        insert(&mut st, &mut reference, oid, true, c);
                    }
                    Step::Checkpoint => {
                        pol.take_checkpoint(&mut st);
                        reference.take_checkpoint();
                    }
                    Step::Rollback { pick } => {
                        let c = pick % reference.checkpoints.len();
                        prop_assert_eq!(st.rollback_to(c as u32), c as u32);
                        reference.rollback_to(c);
                        // The body re-runs: the kept prefix replays as logged.
                        let prefix: Vec<(ObjectId, bool)> =
                            st.oplog.iter().map(|op| (op.oid, op.result.is_none())).collect();
                        prop_assert_eq!(prefix.len(), st.replay_upto);
                        for (oid, is_write) in prefix {
                            prop_assert!(pol.replay_hit(&mut st, oid, is_write).is_some());
                        }
                        prop_assert!(!st.replaying());
                    }
                }
                prop_assert_eq!(&st.frames, &reference.frames, "after step {} ({:?})", n, step);
                prop_assert_eq!(st.oplog.len(), reference.oplog_len);
                prop_assert_eq!(st.last_chk_size, reference.last_chk_size);
                prop_assert_eq!(st.checkpoints.len(), reference.checkpoints.len());
                for (rec, snap) in st.checkpoints.iter().zip(&reference.checkpoints) {
                    prop_assert_eq!(rec.oplog_len, snap.oplog_len);
                    prop_assert_eq!(rec.dataset_size, snap.dataset_size);
                }
            }
        }

        #[test]
        fn direct_entries_equal_map_built_entries(
            frames in vec(vec((0..16u64, any::<bool>(), 1..9u64, 0..4u32), 0..12), 1..5)
        ) {
            let mut st = TxState::new(ROOT);
            st.frames.clear();
            for (level, slots) in frames.into_iter().enumerate() {
                let mut f = Frame::default();
                for (oid, is_write, version, owner_chk) in slots {
                    f.set_mut(is_write).insert(
                        ObjectId(oid),
                        Cached {
                            version: Version(version),
                            val: ObjVal::Unit,
                            owner_level: level as u32,
                            owner_chk,
                        },
                    );
                }
                st.frames.push(f);
            }
            prop_assert_eq!(st.entries(), entries_via_map(&st));
        }
    }
}
