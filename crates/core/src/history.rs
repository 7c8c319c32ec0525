//! Committed-history recording and offline serializability verification.
//!
//! The paper proves 1-copy equivalence (Theorem V.1) and claims opacity via
//! its companion technical report. This module lets every run *check* the
//! guarantee instead of trusting it: the runtime records, for each commit,
//! the transaction's serialization point and the exact `(object, version)`
//! pairs it read and wrote; [`verify`] then replays the commits in
//! serialization order against a model store and confirms that
//!
//! 1. every read observed exactly the model's current version — i.e. there
//!    is a serial order (the recorded one) equivalent to the concurrent
//!    execution, and
//! 2. every write produced version `read + 1`, and per-object versions
//!    advance without gaps or duplicates.
//!
//! Serialization points: a writer's point is the instant its two-phase
//! commit held all write-quorum locks (vote-round completion); a read-only
//! QR-CN transaction's point is its last validated remote read (Rqv proves
//! the whole data set current at that instant).
//!
//! Read-only transactions get a weaker, *cut-based* check instead of a
//! strict replay at their recorded timestamp. The recorded instant is when
//! the last read's response reached the client, but the validation it
//! proves happened at the serving quorum nodes up to a response latency
//! earlier — a writer whose vote round completes inside that window is
//! recorded *before* the reader despite the reader's set having been
//! validated (lock-checked) first. No coordinator-side timestamp can
//! strictly order such pairs, so [`verify`] requires instead that each
//! read-only transaction's snapshot is current at *some* position of the
//! serial writer order (a consistent cut — true of every correct Rqv run,
//! since the cut at the last validation instant qualifies). Torn snapshots
//! (reads from incompatible epochs) are still violations.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use qrdtm_sim::{EngineEvent, EngineEventKind, SimTime};

use crate::object::{ObjectId, Version};
use crate::txid::TxId;

/// One committed transaction, as recorded by the runtime.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// Root transaction id of the committing attempt.
    pub tx: TxId,
    /// Serialization point (see module docs).
    pub at: SimTime,
    /// `(object, version observed)` for every read (writes excluded).
    pub reads: Vec<(ObjectId, Version)>,
    /// `(object, version observed, version installed)` for every write.
    pub writes: Vec<(ObjectId, Version, Version)>,
}

/// A detected violation of 1-copy serializability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A committed read did not match the serial order's current version
    /// (update transactions: at the writer's point; read-only
    /// transactions: at every candidate cut — no consistent cut exists).
    StaleRead {
        /// Offending transaction.
        tx: TxId,
        /// Object read.
        oid: ObjectId,
        /// Version the transaction observed.
        observed: Version,
        /// Version the serial replay holds at its serialization point.
        expected: Version,
    },
    /// A committed write did not install `observed + 1`, or skipped over
    /// the serial order's current version.
    BrokenVersionChain {
        /// Offending transaction.
        tx: TxId,
        /// Object written.
        oid: ObjectId,
        /// Version the serial replay holds.
        current: Version,
        /// Version the transaction installed.
        installed: Version,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StaleRead {
                tx,
                oid,
                observed,
                expected,
            } => write!(
                f,
                "{tx} read {oid} at {observed:?} but the serial order holds {expected:?}"
            ),
            Violation::BrokenVersionChain {
                tx,
                oid,
                current,
                installed,
            } => write!(
                f,
                "{tx} installed {installed:?} on {oid} over serial version {current:?}"
            ),
        }
    }
}

/// Recorder owned by the cluster; disabled (and free) by default.
#[derive(Default)]
pub struct HistoryRecorder {
    enabled: bool,
    records: Vec<CommitRecord>,
}

impl HistoryRecorder {
    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one commit, if recording is on.
    pub fn push(&mut self, rec: CommitRecord) {
        if self.enabled {
            self.records.push(rec);
        }
    }

    /// The commits recorded so far.
    pub fn records(&self) -> &[CommitRecord] {
        &self.records
    }

    /// Number of commits recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Verify a recorded history: replay update transactions in serialization
/// order (ties broken by TxId) against a model store, then check each
/// read-only transaction's snapshot for cut consistency against the serial
/// writer order (see module docs for why read-only commits cannot be
/// replayed at their recorded timestamp). Returns every violation found
/// (empty = the execution is 1-copy serializable).
pub fn verify(records: &[CommitRecord]) -> Vec<Violation> {
    let mut ordered: Vec<&CommitRecord> = records.iter().collect();
    ordered.sort_by_key(|r| (r.at, r.tx));
    let mut model: HashMap<ObjectId, Version> = HashMap::new();
    // Cut interval of each (object, version): current at writer positions
    // [start, end), where position p is the state after p writer commits.
    let mut intervals: HashMap<(ObjectId, Version), (usize, usize)> = HashMap::new();
    let mut readonly: Vec<&CommitRecord> = Vec::new();
    let mut out = Vec::new();
    let mut pos = 0usize;
    for rec in ordered {
        if rec.writes.is_empty() {
            readonly.push(rec);
            continue;
        }
        for (oid, observed) in &rec.reads {
            let current = *model.get(oid).unwrap_or(&Version::INITIAL);
            if current != *observed {
                out.push(Violation::StaleRead {
                    tx: rec.tx,
                    oid: *oid,
                    observed: *observed,
                    expected: current,
                });
            }
        }
        for (oid, observed, installed) in &rec.writes {
            let current = *model.get(oid).unwrap_or(&Version::INITIAL);
            if current != *observed || *installed != observed.next() {
                out.push(Violation::BrokenVersionChain {
                    tx: rec.tx,
                    oid: *oid,
                    current,
                    installed: *installed,
                });
            }
            intervals
                .entry((*oid, current))
                .or_insert((0, usize::MAX))
                .1 = pos + 1;
            intervals.insert((*oid, *installed), (pos + 1, usize::MAX));
            model.insert(*oid, *installed);
        }
        pos += 1;
    }
    for rec in readonly {
        // Intersect the reads' cut intervals; an empty intersection means
        // no serial position holds the whole snapshot — it is torn.
        let mut lo = 0usize;
        let mut hi = usize::MAX;
        let mut tightest: Option<(ObjectId, Version)> = None;
        for (oid, observed) in &rec.reads {
            let (s, e) = match intervals.get(&(*oid, *observed)) {
                Some(&iv) => iv,
                // Never superseded (and possibly never written): current
                // from the start, or a phantom version no writer installed.
                None if *observed == Version::INITIAL => (0, usize::MAX),
                None => {
                    out.push(Violation::StaleRead {
                        tx: rec.tx,
                        oid: *oid,
                        observed: *observed,
                        expected: *model.get(oid).unwrap_or(&Version::INITIAL),
                    });
                    continue;
                }
            };
            lo = lo.max(s);
            if e < hi {
                hi = e;
                tightest = Some((*oid, *observed));
            }
        }
        if lo >= hi {
            // Report the earliest-superseded read: by the time the rest of
            // the snapshot was current, this object had moved on. Take the
            // minimum qualifying version so the reported violation is
            // independent of hash-map iteration order (several versions can
            // qualify when `lo` sits inside an open interval).
            let (oid, observed) = tightest.expect("empty intersection implies a bounded read");
            let expected = intervals
                .iter()
                .filter(|((o, _), &(s, e))| *o == oid && s <= lo && lo < e)
                .map(|((_, v), _)| *v)
                .min()
                .unwrap_or(observed.next());
            out.push(Violation::StaleRead {
                tx: rec.tx,
                oid,
                observed,
                expected,
            });
        }
    }
    out
}

/// A structural violation of the nesting/checkpoint discipline, detected
/// from the recorded engine-event stream (see [`check_abort_targets`] and
/// [`check_checkpoint_restores`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructuralViolation {
    /// An abort addressed a nesting level or checkpoint index deeper than
    /// anything live at the emit site — the target was not an ancestor on
    /// the current stack.
    AbortBeyondStack {
        /// Node the abort surfaced on.
        node: u32,
        /// Virtual timestamp of the event (ns).
        at_ns: u64,
        /// Target value (nesting level, or checkpoint index when `chk`).
        target: u32,
        /// Whether the target addressed a checkpoint rather than a level.
        chk: bool,
        /// Deepest valid target live at the emit site.
        bound: u32,
    },
    /// A checkpoint restore resurrected state differing from what was
    /// captured: the op-log length after restore does not match the length
    /// recorded when that checkpoint was taken, so operations logged (and
    /// possibly invalidated) after the checkpoint would survive rollback.
    RestoreMismatch {
        /// Node the restore ran on.
        node: u32,
        /// Virtual timestamp of the event (ns).
        at_ns: u64,
        /// Checkpoint index restored.
        chk: u32,
        /// Op-log length recorded when the checkpoint was taken.
        expected_oplog: u64,
        /// Op-log length the restore actually left behind.
        restored_oplog: u64,
    },
}

impl fmt::Display for StructuralViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructuralViolation::AbortBeyondStack {
                node,
                target,
                chk,
                bound,
                ..
            } => write!(
                f,
                "n{node}: abort targeted {} {target} but the deepest live target was {bound}",
                if *chk { "checkpoint" } else { "level" }
            ),
            StructuralViolation::RestoreMismatch {
                node,
                chk,
                expected_oplog,
                restored_oplog,
                ..
            } => write!(
                f,
                "n{node}: restoring checkpoint {chk} left an op log of {restored_oplog} \
                 entries where the capture recorded {expected_oplog}"
            ),
        }
    }
}

/// Decode an `AbortWithTarget` detail (see `engine::abort_detail`):
/// `(target value, is-checkpoint-target, deepest valid target)`.
fn decode_abort_detail(detail: u64) -> (u32, bool, u32) {
    let target = (detail & 0xFFFF_FFFF) as u32;
    let chk = detail & (1 << 32) != 0;
    let bound = (detail >> 40) as u32;
    (target, chk, bound)
}

/// Check that every abort in the engine-event stream addressed an ancestor
/// actually on the aborting transaction's stack: a level target must not
/// exceed the innermost active nesting level, and a checkpoint target must
/// not exceed the current checkpoint index (both recorded at the emit site
/// in the event's `detail`).
pub fn check_abort_targets(events: &[EngineEvent]) -> Vec<StructuralViolation> {
    events
        .iter()
        .filter(|ev| ev.kind == EngineEventKind::AbortWithTarget)
        .filter_map(|ev| {
            let (target, chk, bound) = decode_abort_detail(ev.detail);
            (target > bound).then_some(StructuralViolation::AbortBeyondStack {
                node: ev.node,
                at_ns: ev.at_ns,
                target,
                chk,
                bound,
            })
        })
        .collect()
}

/// Check that every checkpoint restore reinstated exactly the state its
/// capture recorded — i.e. a restore never resurrects operations (reads)
/// logged after the checkpoint, which a conflicting writer may already have
/// invalidated. `CheckpointTaken` and `CheckpointRestored` events both pack
/// `(checkpoint index << 32) | op-log length`, so matching them validates
/// the rollback truncation end to end. Assumes at most one root transaction
/// runs per node at a time (true of every harness in this repository: one
/// client per node). Checkpoint 0 is the implicit transaction start with an
/// empty op log.
pub fn check_checkpoint_restores(events: &[EngineEvent]) -> Vec<StructuralViolation> {
    // Per node: checkpoint index -> op-log length at capture.
    let mut taken: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events {
        let node = taken.entry(ev.node).or_default();
        let (idx, len) = ((ev.detail >> 32) as u32, ev.detail & 0xFFFF_FFFF);
        match ev.kind {
            EngineEventKind::CheckpointTaken => {
                // A take at `idx` means everything deeper is gone (either
                // restored away or a fresh transaction's stack).
                node.retain(|&id, _| id < idx);
                node.insert(idx, len);
            }
            EngineEventKind::CheckpointRestored => {
                let expected = if idx == 0 {
                    node.get(&0).copied().unwrap_or(0)
                } else {
                    node.get(&idx).copied().unwrap_or(u64::MAX)
                };
                if expected != len {
                    out.push(StructuralViolation::RestoreMismatch {
                        node: ev.node,
                        at_ns: ev.at_ns,
                        chk: idx,
                        expected_oplog: expected,
                        restored_oplog: len,
                    });
                }
                node.retain(|&id, _| id <= idx);
            }
            EngineEventKind::AbortWithTarget => {
                // A level-targeted abort at the root is a full reset: the
                // next attempt starts a fresh checkpoint stack.
                let (_, chk, bound) = decode_abort_detail(ev.detail);
                if !chk && bound == 0 {
                    node.clear();
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(seq: u64) -> TxId {
        TxId { node: 0, seq }
    }

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn clean_history_verifies() {
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![(ObjectId(1), Version(1))],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(2))],
                writes: vec![(ObjectId(2), Version(1), Version(2))],
            },
        ];
        assert!(verify(&records).is_empty());
    }

    #[test]
    fn stale_read_by_an_update_tx_is_flagged() {
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(1))], // should be 2
                writes: vec![(ObjectId(2), Version(1), Version(2))],
            },
        ];
        let v = verify(&records);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::StaleRead { .. }));
        assert!(v[0].to_string().contains("read o1"));
    }

    #[test]
    fn lagging_but_consistent_readonly_snapshot_passes() {
        // The audit's response arrived after the writer's vote round
        // completed, but its snapshot {o1: v1, o2: v1} was current before
        // the write — a consistent cut exists, so this is serializable
        // (and really does happen: Rqv validates up to a response latency
        // before the recorded instant).
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(1)), (ObjectId(2), Version(1))],
                writes: vec![],
            },
        ];
        assert!(verify(&records).is_empty());
    }

    #[test]
    fn torn_readonly_snapshot_is_flagged() {
        // o1 and o2 are updated together (t=10), yet the audit saw the new
        // o2 with the old o1 — no cut of the serial order holds both.
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![
                    (ObjectId(1), Version(1), Version(2)),
                    (ObjectId(2), Version(1), Version(2)),
                ],
            },
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(1)), (ObjectId(2), Version(2))],
                writes: vec![],
            },
        ];
        let v = verify(&records);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::StaleRead {
                oid,
                observed,
                expected,
                ..
            } => {
                assert_eq!(*oid, ObjectId(1));
                assert_eq!(*observed, Version(1));
                assert_eq!(*expected, Version(2));
            }
            other => panic!("wrong violation: {other:?}"),
        }
    }

    #[test]
    fn phantom_readonly_version_is_flagged() {
        // The audit observed a version no writer ever installed.
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(9))],
                writes: vec![],
            },
        ];
        let v = verify(&records);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::StaleRead { .. }));
    }

    #[test]
    fn lost_update_is_flagged() {
        // Two writers both read version 1 and installed version 2 — a
        // classic lost update; the second breaks the chain.
        let records = vec![
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
            CommitRecord {
                tx: tx(2),
                at: t(11),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
        ];
        let v = verify(&records);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::BrokenVersionChain { .. }));
    }

    #[test]
    fn order_is_by_serialization_point_not_record_order() {
        // Records arrive out of order; verification must sort by `at`.
        let records = vec![
            CommitRecord {
                tx: tx(2),
                at: t(20),
                reads: vec![(ObjectId(1), Version(2))],
                writes: vec![],
            },
            CommitRecord {
                tx: tx(1),
                at: t(10),
                reads: vec![],
                writes: vec![(ObjectId(1), Version(1), Version(2))],
            },
        ];
        assert!(verify(&records).is_empty());
    }

    fn ev(kind: EngineEventKind, node: u32, detail: u64) -> EngineEvent {
        EngineEvent {
            at_ns: 0,
            node,
            kind,
            detail,
        }
    }

    /// `(bound << 40) | [chk bit 32] | target` — mirrors `abort_detail`.
    fn abort_ev(node: u32, target: u32, chk: bool, bound: u32) -> EngineEvent {
        let mut d = (u64::from(bound) << 40) | u64::from(target);
        if chk {
            d |= 1 << 32;
        }
        ev(EngineEventKind::AbortWithTarget, node, d)
    }

    fn chk_ev(kind: EngineEventKind, node: u32, idx: u32, oplog: u64) -> EngineEvent {
        ev(kind, node, (u64::from(idx) << 32) | oplog)
    }

    #[test]
    fn abort_targets_on_stack_pass() {
        let events = vec![
            abort_ev(0, 2, false, 2), // innermost scope aborts itself
            abort_ev(0, 0, false, 0), // root abort
            abort_ev(1, 1, true, 3),  // rollback to an earlier checkpoint
        ];
        assert!(check_abort_targets(&events).is_empty());
    }

    #[test]
    fn abort_beyond_stack_is_flagged() {
        let events = vec![abort_ev(2, 3, false, 1)];
        let v = check_abort_targets(&events);
        assert_eq!(v.len(), 1);
        match &v[0] {
            StructuralViolation::AbortBeyondStack {
                node,
                target,
                chk,
                bound,
                ..
            } => {
                assert_eq!((*node, *target, *chk, *bound), (2, 3, false, 1));
            }
            other => panic!("wrong violation: {other:?}"),
        }
        assert!(v[0].to_string().contains("level 3"));
    }

    #[test]
    fn matching_checkpoint_restore_passes() {
        let t = EngineEventKind::CheckpointTaken;
        let r = EngineEventKind::CheckpointRestored;
        let events = vec![
            chk_ev(t, 0, 1, 4),
            chk_ev(t, 0, 2, 8),
            chk_ev(r, 0, 1, 4), // back to checkpoint 1
            chk_ev(t, 0, 2, 9), // retaken after replay diverges in length
            chk_ev(r, 0, 0, 0), // full rollback to the implicit start
        ];
        assert!(check_checkpoint_restores(&events).is_empty());
    }

    #[test]
    fn restore_resurrecting_log_suffix_is_flagged() {
        let t = EngineEventKind::CheckpointTaken;
        let r = EngineEventKind::CheckpointRestored;
        // Captured 4 ops at checkpoint 1 but the restore kept 7 — three
        // post-checkpoint ops (possibly invalidated reads) survived.
        let events = vec![chk_ev(t, 0, 1, 4), chk_ev(r, 0, 1, 7)];
        let v = check_checkpoint_restores(&events);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            StructuralViolation::RestoreMismatch {
                chk: 1,
                expected_oplog: 4,
                restored_oplog: 7,
                ..
            }
        ));
    }

    #[test]
    fn restore_of_never_taken_checkpoint_is_flagged() {
        let events = vec![chk_ev(EngineEventKind::CheckpointRestored, 0, 2, 5)];
        let v = check_checkpoint_restores(&events);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn root_abort_resets_the_checkpoint_stack() {
        let t = EngineEventKind::CheckpointTaken;
        let r = EngineEventKind::CheckpointRestored;
        // Fresh attempt retakes checkpoint 1 with a different log length;
        // without the reset the old capture would falsely mismatch... but
        // takes overwrite anyway, so also verify a restore *before* any
        // retake is judged against the new (empty) stack.
        let events = vec![
            chk_ev(t, 0, 1, 4),
            abort_ev(0, 0, false, 0), // full reset
            chk_ev(r, 0, 1, 4),       // stale reference: checkpoint 1 is gone
        ];
        let v = check_checkpoint_restores(&events);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn recorder_is_off_by_default() {
        let mut r = HistoryRecorder::default();
        r.push(CommitRecord {
            tx: tx(1),
            at: t(1),
            reads: vec![],
            writes: vec![],
        });
        assert!(r.is_empty());
        r.enable();
        r.push(CommitRecord {
            tx: tx(1),
            at: t(1),
            reads: vec![],
            writes: vec![],
        });
        assert_eq!(r.len(), 1);
    }
}
