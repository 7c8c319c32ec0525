//! Nesting layer: per-transaction data-set state, and what each
//! [`NestingMode`] does about a conflict.
//!
//! The paper's three protocols differ only in *how a transaction reacts to
//! conflicts and structures its data set*: flat QR retries wholesale, QR-CN
//! lets a closed-nested scope abort alone, and QR-CHK rolls back to a
//! checkpoint and replays the logged operation prefix. The data set behind
//! all three is one append-only log of cached copies ([`TxState`]): the
//! latest entry for an object is the one the transaction sees, a
//! closed-nested scope and a checkpoint are both marks on the log, and
//! every partial abort is a truncation to a mark — the log is its own undo
//! record. The Rqv payload every remote read piggybacks is kept beside the
//! log under the same marks, copy-on-write: a read sends the payload itself
//! (a reference-count bump), and the next change copies it only if a
//! request still in flight holds it. With one data set for all three, the
//! mode is the whole policy: its few answers are methods on
//! [`NestingMode`] itself, and the rest are [`TxState`] methods that take
//! the mode.

use std::cmp::Reverse;
use std::rc::Rc;

use qrdtm_sim::SimTime;

use crate::msg::{ValEntry, ValidationKind};
use crate::object::{ObjVal, ObjectId, Version};
use crate::pool::Payload;
use crate::txid::{Abort, AbortTarget, NestingMode, TxId};

/// One data-set entry: a cached object copy in the read or the write set.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub(super) struct Entry {
    pub(super) oid: ObjectId,
    pub(super) is_write: bool,
    pub(super) version: Version,
    pub(super) val: ObjVal,
    /// Nesting level whose abort invalidates this entry (the `ownerTxn`).
    pub(super) owner_level: u32,
    /// Checkpoint id current when the object was fetched (`ownerChkpnt`).
    pub(super) owner_chk: u32,
}

impl Entry {
    /// What Rqv validates of this entry.
    fn rqv(&self) -> ValEntry {
        ValEntry {
            oid: self.oid,
            version: self.version,
            owner_level: self.owner_level,
            owner_chk: self.owner_chk,
        }
    }
}

/// A checkpoint: a mark on the op log, on the data-set log and on the Rqv
/// payload, plus the data-set size at capture. Nothing is copied —
/// truncating all three to the mark is the root scope of the capture
/// instant, and replaying the op-log prefix reconstructs the execution
/// state.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct ChkRec {
    pub(super) oplog_len: usize,
    pub(super) log_len: usize,
    pub(super) rqv_len: usize,
    pub(super) dataset_size: usize,
}

/// What a root commit sends: the winning entry of every object, split into
/// read-only and written objects, each sorted by object id.
pub(super) struct CommitSets {
    pub(super) reads: Payload<(ObjectId, Version)>,
    pub(super) writes: Payload<(ObjectId, Version)>,
    /// `(object, new version, new value)` per written object.
    pub(super) payload: Payload<(ObjectId, Version, ObjVal)>,
}

/// One logged operation: what the body issued and, for a read, where what
/// it got sits in the data-set log. The log is append-only and every
/// checkpoint marks both logs at once, so a position below a restored mark
/// still holds the value that was read, whatever later writes shadow it.
#[derive(Debug)]
pub(super) struct LoggedOp {
    pub(super) oid: ObjectId,
    /// `Some(position)` for a read, `None` for a write.
    pub(super) read_at: Option<u32>,
}

/// The mutable state of one root transaction attempt (all nesting levels).
pub(super) struct TxState {
    pub(super) root: TxId,
    /// The data set: every insert of the attempt in order, never edited in
    /// place. The latest entry for an object wins (a write is always later
    /// than the read it promotes, a child scope's entry later than its
    /// ancestors').
    log: Vec<Entry>,
    /// What Rqv validates of the log: one entry per distinct object, in
    /// fetch order (a promoted copy keeps its fetch's version and owner).
    /// Shared with the read requests that carry it; every change goes
    /// through [`Rc::make_mut`], so a request still in flight keeps the
    /// snapshot it was sent with.
    rqv: Rc<Vec<ValEntry>>,
    /// One mark per open closed-nested scope (QR-CN only): the lengths of
    /// `log` and `rqv` when the scope at level `index + 1` began.
    scopes: Vec<(usize, usize)>,
    /// Distinct `(object, read|write)` slots the log holds — what the
    /// checkpoint criterion measures (QR-CHK only, whose scopes are all
    /// inlined): a write shadowing an earlier write adds an entry, not a
    /// slot.
    dataset_size: usize,
    /// Scratch for [`TxState::commit_sets`]: `(object, newest first)` keys
    /// of the log, kept across retries so the per-commit sort allocates
    /// nothing.
    order: Vec<(ObjectId, Reverse<u32>)>,
    /// One entry per operation (QR-CHK only, see [`TxState::log_op`]).
    pub(super) oplog: Vec<LoggedOp>,
    pub(super) op_index: usize,
    pub(super) replay_upto: usize,
    pub(super) checkpoints: Vec<ChkRec>,
    pub(super) attempt: u32,
    /// Completion instant of the latest remote (validated) read — the
    /// serialization point of a read-only QR-CN commit.
    pub(super) last_remote_read_at: SimTime,
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
            log: Vec::new(),
            rqv: Rc::default(),
            scopes: Vec::new(),
            dataset_size: 0,
            order: Vec::new(),
            oplog: Vec::new(),
            op_index: 0,
            replay_upto: 0,
            checkpoints: vec![ChkRec::default()],
            attempt: 0,
            last_remote_read_at: SimTime::ZERO,
            deadline: None,
        }
    }

    pub(super) fn cur_chk(&self) -> u32 {
        (self.checkpoints.len() - 1) as u32
    }

    pub(super) fn replaying(&self) -> bool {
        self.op_index < self.replay_upto
    }

    /// Nesting level of the innermost open scope (0 = only the root).
    pub(super) fn depth(&self) -> u32 {
        self.scopes.len() as u32
    }

    /// The winning (latest) entry of every object, sorted by object id.
    fn winners(&mut self) -> impl Iterator<Item = &Entry> + Clone {
        let keys = self.log.iter().enumerate();
        self.order.clear();
        self.order
            .extend(keys.map(|(i, e)| (e.oid, Reverse(i as u32))));
        // Keys are unique, so the allocation-free unstable sort is exact;
        // within one object the newest entry sorts first and survives.
        self.order.sort_unstable();
        self.order.dedup_by_key(|k| k.0);
        let log = &self.log;
        self.order
            .iter()
            .map(move |&(_, Reverse(i))| &log[i as usize])
    }

    /// The merged data set as the Rqv validation payload: one entry per
    /// object, shared rather than copied. Fetch order, not object order —
    /// the validator folds invalid entries with a `min`. Empty unless reads
    /// piggyback it, so flat reads all share one empty payload.
    pub(super) fn entries(&self) -> Rc<Vec<ValEntry>> {
        Rc::clone(&self.rqv)
    }

    /// Cut the Rqv payload back to `mark`, leaving a payload that is
    /// already that short (and whoever shares it) alone.
    fn truncate_rqv(&mut self, mark: usize) {
        if mark < self.rqv.len() {
            Rc::make_mut(&mut self.rqv).truncate(mark);
        }
    }

    /// The read and write sets of a root commit (all scopes closed).
    pub(super) fn commit_sets(&mut self) -> CommitSets {
        debug_assert_eq!(self.depth(), 0, "all CTs completed before root commit");
        let winners = self.winners();
        let versions = |is_write| {
            let set = winners.clone().filter(move |e| e.is_write == is_write);
            set.map(|e| (e.oid, e.version)).collect()
        };
        let written = winners.clone().filter(|e| e.is_write);
        let payload = written.map(|e| (e.oid, e.version.next(), e.val.clone()));
        CommitSets {
            reads: versions(false),
            writes: versions(true),
            payload: payload.collect(),
        }
    }

    /// Locate the entry for an object in the data set visible to `level`
    /// (own scope and ancestors): the index of the latest one.
    pub(super) fn find(&self, level: u32, oid: ObjectId) -> Option<usize> {
        let visible = self
            .scopes
            .get(level as usize)
            .map_or(&self.log[..], |&(end, _)| &self.log[..end]);
        visible.iter().rposition(|e| e.oid == oid)
    }

    pub(super) fn entry(&self, i: usize) -> &Entry {
        &self.log[i]
    }

    /// Append a copy the innermost scope fetched from the read quorum: a
    /// new slot, since the fetch followed a failed [`TxState::find`].
    /// `piggybacked`: whether reads carry the Rqv payload at all. Returns
    /// the entry's position in the log.
    pub(super) fn fetched(&mut self, e: Entry, piggybacked: bool) -> usize {
        debug_assert_eq!(e.owner_level, self.depth(), "the innermost scope inserts");
        if piggybacked {
            Rc::make_mut(&mut self.rqv).push(e.rqv());
        }
        self.log.push(e);
        self.dataset_size += 1;
        self.log.len() - 1
    }

    /// Write `val` to the object entry `i` holds: promote/shadow into the
    /// innermost scope's write set keeping the fetch-time version and owner
    /// (the owner is whoever READ it — its abort invalidates the copy).
    pub(super) fn promote(&mut self, i: usize, val: ObjVal) {
        let found = &self.log[i];
        // A write over an earlier write reuses its slot.
        self.dataset_size += usize::from(!found.is_write);
        let promoted = Entry {
            is_write: true,
            val,
            ..*found
        };
        self.log.push(promoted);
    }

    /// Begin a closed-nested scope: a mark, nothing else.
    pub(super) fn open_scope(&mut self) {
        self.scopes.push((self.log.len(), self.rqv.len()));
    }

    /// `commitCT` (Alg. 3): the innermost scope's entries become its
    /// parent's. They stay where they are — later than anything the parent
    /// held, so they shadow it — and only their owner moves up.
    pub(super) fn commit_scope(&mut self) {
        let (log_mark, rqv_mark) = self.scopes.pop().expect("child scope present");
        let parent = self.depth();
        for e in &mut self.log[log_mark..] {
            e.owner_level = e.owner_level.min(parent);
        }
        if rqv_mark < self.rqv.len() {
            for e in &mut Rc::make_mut(&mut self.rqv)[rqv_mark..] {
                e.owner_level = e.owner_level.min(parent);
            }
        }
    }

    /// Discard the scope at `level` and everything nested in it.
    pub(super) fn abort_scope(&mut self, level: u32) {
        if let Some(&(log_mark, rqv_mark)) = self.scopes.get(level as usize - 1) {
            self.scopes.truncate(level as usize - 1);
            self.log.truncate(log_mark);
            self.truncate_rqv(rqv_mark);
        }
    }

    /// Serve the current operation from the replay log if a rollback armed
    /// one (only QR-CHK ever does). `Some(result)` consumes the log entry;
    /// `None` executes normally. Panics if the re-executed body issues a
    /// different operation than the one logged at this index.
    pub(super) fn replay_hit(&mut self, oid: ObjectId, is_write: bool) -> Option<ObjVal> {
        if !self.replaying() {
            return None;
        }
        let logged = &self.oplog[self.op_index];
        if logged.oid != oid || logged.read_at.is_none() != is_write {
            let kind = |w| if w { "write" } else { "read" };
            panic!(
                "replay divergence in {}: op {} was logged as ({}, {}) but the re-executed \
                 body issued ({}, {}); a transaction body must be a pure function of its \
                 Tx results",
                self.root,
                self.op_index,
                logged.oid,
                kind(logged.read_at.is_none()),
                oid,
                kind(is_write),
            );
        }
        // A logged write needs nothing: the restored frame contains it.
        let read = logged.read_at.map(|at| self.log[at as usize].val.clone());
        let out = read.unwrap_or(ObjVal::Unit);
        self.op_index += 1;
        Some(out)
    }

    /// Record a completed operation in the op log (QR-CHK only: the log is
    /// what a rollback replays): a read with the log position of the entry
    /// it returned, a write with `None`.
    pub(super) fn log_op(&mut self, mode: NestingMode, oid: ObjectId, read_at: Option<usize>) {
        if mode == NestingMode::Checkpoint {
            let read_at = read_at.map(|at| at as u32);
            self.oplog.push(LoggedOp { oid, read_at });
            self.op_index += 1;
        }
    }

    /// Whether the data set grew enough since the last checkpoint that a
    /// new one is due (QR-CHK only; other modes are never "due").
    pub(super) fn checkpoint_due(&self, mode: NestingMode, threshold: usize) -> bool {
        let last = self
            .checkpoints
            .last()
            .expect("checkpoint 0 is never popped");
        mode == NestingMode::Checkpoint && self.dataset_size >= last.dataset_size + threshold
    }

    /// Mark the current op-log and data-set position as a new checkpoint.
    pub(super) fn take_checkpoint(&mut self) {
        self.checkpoints.push(ChkRec {
            oplog_len: self.oplog.len(),
            log_len: self.log.len(),
            rqv_len: self.rqv.len(),
            dataset_size: self.dataset_size,
        });
    }

    /// Restore checkpoint `c` and arm deterministic replay of the logged
    /// prefix (QR-CHK `abortChk`). Returns the index actually restored
    /// (`c` clamped to the live checkpoint stack).
    ///
    /// Truncating the log to the mark is exact. Filtering it by
    /// `owner_chk > c` instead would be wrong: a write promoted under
    /// checkpoint 3 keeps the `owner_chk` of the read it shadows (whoever
    /// *fetched* the copy owns it), so a rollback to checkpoint 2 would
    /// keep a write the replayed prefix never issued.
    pub(super) fn rollback_to(&mut self, c: u32) -> u32 {
        let c = (c as usize).min(self.checkpoints.len() - 1);
        let rec = self.checkpoints[c];
        self.scopes.clear();
        self.log.truncate(rec.log_len);
        self.truncate_rqv(rec.rqv_len);
        self.dataset_size = rec.dataset_size;
        self.oplog.truncate(rec.oplog_len);
        self.replay_upto = rec.oplog_len;
        self.op_index = 0;
        self.checkpoints.truncate(c + 1);
        self.attempt += 1;
        c as u32
    }

    /// Full reset for a root retry: a rollback to the mark at zero (the
    /// logs are emptied, not freed — the retry refills them) under a fresh
    /// [`TxId`], so stale locks/metadata of the old attempt can never alias
    /// the new one.
    pub(super) fn reset_for_retry(&mut self, fresh: TxId) {
        self.rollback_to(0);
        self.root = fresh;
        self.last_remote_read_at = SimTime::ZERO;
    }
}

/// The three reactions to a conflict, asked of the mode itself.
impl NestingMode {
    /// The abort value a body at `level` uses to abort voluntarily. QR-CHK
    /// rolls all the way back: the torn prefix cannot be localized.
    pub(super) fn abort_here(self, level: u32) -> Abort {
        match self {
            NestingMode::Checkpoint => Abort::chk(0),
            NestingMode::Flat | NestingMode::Closed => Abort::level(level),
        }
    }

    /// Validation kind piggybacked on remote reads (assuming Rqv is on).
    pub(super) fn validation_kind(self) -> ValidationKind {
        match self {
            NestingMode::Flat => ValidationKind::None,
            NestingMode::Closed => ValidationKind::Closed,
            NestingMode::Checkpoint => ValidationKind::Checkpoint,
        }
    }

    /// How a root-level abort retries: `Some(c)` rolls back to checkpoint
    /// `c` (partial, replayed); `None` resets the whole transaction.
    pub(super) fn rollback_checkpoint(self, abort: &Abort) -> Option<u32> {
        match (self, abort.target) {
            (NestingMode::Checkpoint, AbortTarget::Chk(c)) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The log with marks against the representations it replaced, kept
    //! here as references: read/write maps per nesting level, merged by
    //! moving map entries at child commit; a deep copy of the root level
    //! per checkpoint; `entries()` through a map, hence in object order.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const ROOT: TxId = TxId { node: 3, seq: 1 };

    /// The deleted per-level read/write sets.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Frame {
        reads: BTreeMap<ObjectId, Entry>,
        writes: BTreeMap<ObjectId, Entry>,
    }

    impl Frame {
        fn len(&self) -> usize {
            self.reads.len() + self.writes.len()
        }

        fn insert(&mut self, e: Entry) {
            let set = if e.is_write {
                &mut self.writes
            } else {
                &mut self.reads
            };
            set.insert(e.oid, e);
        }
    }

    /// The log's materialised view: every entry inserted, in log order,
    /// into the maps of the level its position falls in.
    fn frames_of(st: &TxState) -> Vec<Frame> {
        let mut frames = vec![Frame::default(); st.scopes.len() + 1];
        for (i, e) in st.log.iter().enumerate() {
            let level = st.scopes.iter().filter(|&&(mark, _)| mark <= i).count();
            frames[level].insert(e.clone());
        }
        frames
    }

    /// The deleted lookup: own frame and ancestors, writes shadow reads.
    fn lookup(frames: &[Frame], oid: ObjectId) -> Option<&Entry> {
        let mut inner_first = frames.iter().rev();
        inner_first.find_map(|f| f.writes.get(&oid).or_else(|| f.reads.get(&oid)))
    }

    /// The deleted `entries()`: build a map, collect it, drop it.
    fn entries_via_map(frames: &[Frame]) -> Vec<ValEntry> {
        let mut map: BTreeMap<ObjectId, ValEntry> = BTreeMap::new();
        for f in frames {
            for (oid, e) in f.reads.iter().chain(f.writes.iter()) {
                map.insert(*oid, e.rqv());
            }
        }
        map.into_values().collect()
    }

    fn fetch(oid: u64, owner_level: u32) -> Entry {
        Entry {
            oid: ObjectId(oid),
            is_write: false,
            version: Version::INITIAL,
            val: ObjVal::Unit,
            owner_level,
            owner_chk: 0,
        }
    }

    /// Make `change` while a request still holds the payload it was sent
    /// with: the request's copy must not move, and the state's must.
    fn in_flight(st: &mut TxState, name: &str, change: impl FnOnce(&mut TxState)) {
        let sent = st.entries();
        let copy = sent.to_vec();
        change(st);
        assert_eq!(*sent, copy, "{name} edited a payload in flight");
        assert!(!Rc::ptr_eq(&sent, &st.entries()), "{name} left no change");
    }

    #[test]
    fn a_taken_payload_is_a_snapshot_and_the_last_alias_writes_in_place() {
        let mut st = TxState::new(ROOT);
        st.fetched(fetch(0, 0), true);
        st.open_scope();
        st.fetched(fetch(1, 1), true);
        in_flight(&mut st, "fetched", |st| {
            st.fetched(fetch(2, 1), true);
        });
        in_flight(&mut st, "commit_scope", TxState::commit_scope);
        st.open_scope();
        st.fetched(fetch(3, 1), true);
        in_flight(&mut st, "abort_scope", |st| st.abort_scope(1));
        in_flight(&mut st, "rollback_to", |st| {
            st.rollback_to(0);
        });
        assert!(st.entries().is_empty());
        // No alias left: the next change happens in place.
        let at = Rc::as_ptr(&st.rqv);
        st.fetched(fetch(4, 0), true);
        assert_eq!(Rc::as_ptr(&st.rqv), at);
        assert_eq!(st.rqv.len(), 1);
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Fetch an object the data set does not hold, for read or write.
        Remote { oid: u64, is_write: bool },
        /// Write the `pick`-th held object as a local hit.
        Promote { pick: usize },
        /// Read the `pick`-th held object as a local hit.
        Hit { pick: usize },
        /// QR-CHK: take a checkpoint. QR-CN: open a closed-nested scope.
        Mark,
        /// QR-CHK: roll back to the `pick`-th live checkpoint. QR-CN: abort
        /// the `pick`-th open scope and everything nested in it.
        Rollback { pick: usize },
        /// QR-CN: commit the innermost scope into its parent.
        CommitScope,
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let remote =
            || (0..24u64, any::<bool>()).prop_map(|(oid, is_write)| Step::Remote { oid, is_write });
        vec(
            prop_oneof![
                remote(),
                remote(),
                (0..64usize).prop_map(|pick| Step::Promote { pick }),
                (0..64usize).prop_map(|pick| Step::Hit { pick }),
                Just(Step::Mark),
                (0..64usize).prop_map(|pick| Step::Rollback { pick }),
                Just(Step::CommitScope),
            ],
            1..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Under QR-CHK the reference is one frame plus a deep copy of it
        /// (and the op-log length) per checkpoint, and an op log of the
        /// values the reads returned; under QR-CN a stack of frames.
        #[test]
        fn marks_on_the_log_equal_frames_and_snapshots(chk in any::<bool>(), steps in steps()) {
            let mode = if chk { NestingMode::Checkpoint } else { NestingMode::Closed };
            let mut st = TxState::new(ROOT);
            let mut frames = vec![Frame::default()];
            let mut snapshots = vec![(0, Frame::default())];
            // `(object, what the read returned)`, `None` for a write.
            let mut ops: Vec<(ObjectId, Option<ObjVal>)> = Vec::new();
            for (n, step) in steps.into_iter().enumerate() {
                let val = ObjVal::Int(n as i64);
                let level = st.depth();
                match step {
                    Step::Remote { oid, is_write } => {
                        let oid = ObjectId(oid);
                        if st.find(level, oid).is_some() {
                            continue;
                        }
                        let e = Entry {
                            oid,
                            is_write,
                            version: Version(n as u64),
                            val: val.clone(),
                            owner_level: level,
                            owner_chk: st.cur_chk(),
                        };
                        frames[level as usize].insert(e.clone());
                        // Data-set insert plus op log, as `Tx::access` does.
                        let at = st.fetched(e, true);
                        st.log_op(mode, oid, (!is_write).then_some(at));
                        ops.push((oid, (!is_write).then_some(val)));
                    }
                    Step::Promote { pick } => {
                        let held = st.entries();
                        if held.is_empty() {
                            continue;
                        }
                        let oid = held[pick % held.len()].oid;
                        let found = lookup(&frames, oid).expect("held").clone();
                        frames[level as usize].insert(Entry { is_write: true, val: val.clone(), ..found });
                        st.promote(st.find(level, oid).expect("held"), val);
                        st.log_op(mode, oid, None);
                        ops.push((oid, None));
                    }
                    Step::Hit { pick } => {
                        let held = st.entries();
                        if held.is_empty() {
                            continue;
                        }
                        let oid = held[pick % held.len()].oid;
                        let found = st.find(level, oid).expect("held");
                        let got = st.entry(found).val.clone();
                        prop_assert_eq!(&got, &lookup(&frames, oid).expect("held").val);
                        st.log_op(mode, oid, Some(found));
                        ops.push((oid, Some(got)));
                    }
                    Step::Mark if chk => {
                        st.take_checkpoint();
                        snapshots.push((st.oplog.len(), frames[0].clone()));
                    }
                    Step::Mark => {
                        st.open_scope();
                        frames.push(Frame::default());
                    }
                    Step::Rollback { pick } if chk => {
                        let c = pick % snapshots.len();
                        prop_assert_eq!(st.rollback_to(c as u32), c as u32);
                        snapshots.truncate(c + 1);
                        frames[0] = snapshots[c].1.clone();
                        // The body re-runs: the kept prefix replays as logged,
                        // every read returning what it returned the first
                        // time, however many later writes shadowed it.
                        prop_assert_eq!(st.oplog.len(), snapshots[c].0);
                        prop_assert_eq!(st.replay_upto, snapshots[c].0);
                        ops.truncate(snapshots[c].0);
                        for (oid, read) in &ops {
                            let want = read.clone().unwrap_or(ObjVal::Unit);
                            prop_assert_eq!(st.replay_hit(*oid, read.is_none()), Some(want));
                        }
                        prop_assert!(!st.replaying());
                    }
                    Step::Rollback { pick } if level > 0 => {
                        let target = 1 + pick % level as usize;
                        st.abort_scope(target as u32);
                        frames.truncate(target);
                    }
                    Step::CommitScope if level > 0 => {
                        st.commit_scope();
                        // The deleted commitCT: move both maps into the parent.
                        let child = frames.pop().expect("child frame");
                        let parent = frames.last_mut().expect("parent frame");
                        for (oid, mut e) in child.reads {
                            e.owner_level = e.owner_level.min(level - 1);
                            parent.reads.entry(oid).or_insert(e);
                        }
                        for (oid, mut e) in child.writes {
                            e.owner_level = e.owner_level.min(level - 1);
                            parent.writes.insert(oid, e);
                        }
                    }
                    Step::Rollback { .. } | Step::CommitScope => continue,
                }
                prop_assert_eq!(&frames_of(&st), &frames, "after step {} ({:?})", n, step);
                for oid in (0..24).map(ObjectId) {
                    // Every ancestor sees what its frames held.
                    for level in 0..=st.depth() {
                        let seen = st.find(level, oid).map(|i| st.entry(i));
                        prop_assert_eq!(seen, lookup(&frames[..=level as usize], oid));
                    }
                }
                let mut payload = st.entries().to_vec();
                payload.sort_by_key(|e| e.oid);
                prop_assert_eq!(&payload, &entries_via_map(&frames));
                let distinct: BTreeSet<ObjectId> = st.log.iter().map(|e| e.oid).collect();
                prop_assert_eq!(payload.len(), distinct.len());
                if chk {
                    prop_assert_eq!(st.dataset_size, frames[0].len());
                    let marks = st.checkpoints.iter().map(|rec| (rec.oplog_len, rec.dataset_size));
                    prop_assert!(marks.eq(snapshots.iter().map(|(oplog, frame)| (*oplog, frame.len()))));
                }
            }
            // Close what is open and compare what a root commit would send.
            st.abort_scope(1);
            let (reads, writes) = (&frames[0].reads, &frames[0].writes);
            let read_only = reads.values().filter(|e| !writes.contains_key(&e.oid));
            let installs = writes.values().map(|e| (e.oid, e.version.next(), e.val.clone()));
            let sets = st.commit_sets();
            prop_assert!(sets.reads.iter().copied().eq(read_only.map(|e| (e.oid, e.version))));
            prop_assert!(sets.writes.iter().copied().eq(writes.values().map(|e| (e.oid, e.version))));
            prop_assert!(sets.payload.iter().cloned().eq(installs));
        }

        /// The payload is the fetches, in fetch order, however many scopes
        /// deep and however often later writes shadow them.
        #[test]
        fn entries_are_the_fetches_whatever_shadows_them(
            levels in vec(vec((0..16u64, any::<bool>(), 1..9u64, 0..4u32), 0..12), 1..5)
        ) {
            let mut st = TxState::new(ROOT);
            let mut fetches = Vec::new();
            for (level, slots) in levels.into_iter().enumerate() {
                if level > 0 {
                    st.open_scope();
                }
                for (oid, is_write, version, owner_chk) in slots {
                    let e = Entry {
                        oid: ObjectId(oid),
                        is_write,
                        version: Version(version),
                        val: ObjVal::Unit,
                        owner_level: level as u32,
                        owner_chk,
                    };
                    match st.find(level as u32, e.oid) {
                        Some(held) if is_write => st.promote(held, ObjVal::Int(1)),
                        Some(_) => {} // a read of a held object inserts nothing
                        None => {
                            fetches.push(e.rqv());
                            st.fetched(e, true);
                        }
                    }
                }
            }
            prop_assert_eq!(&st.entries()[..], &fetches[..]);
        }
    }
}
