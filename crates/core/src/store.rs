//! Server-side replica store: the state a QR node keeps and the operations
//! it performs on behalf of remote transactions.
//!
//! This module is the heart of the paper's Algorithms 1, 2 (remote part)
//! and 4:
//!
//! * [`NodeStore::validate`] — *read quorum validation* (Rqv): check every
//!   piggybacked data-set entry against the local copies; an entry is
//!   invalid if its version is behind this node's or the object is locked
//!   by another committing transaction (Alg. 1 line 7). The result is the
//!   most conservative abort target across invalid entries (`abortClosed`
//!   = min owner level, Alg. 1 lines 9-10; `abortChk` = min owner
//!   checkpoint, Alg. 4 lines 9-10).
//! * [`NodeStore::read`] — validate, then serve the local copy (Alg. 2
//!   remote part). Both take `&self`: a read changes nothing at the
//!   replica. The paper also records the root transaction in per-object
//!   PR/PW lists here (Alg. 2 lines 17-18, Alg. 1 line 8) for contention
//!   managers to consult; the one rule implemented — abort the requester
//!   — reads neither list, so they are not kept.
//! * [`NodeStore::vote`] / [`NodeStore::apply`] / [`NodeStore::release`] —
//!   the 2PC participant: validate read+write sets, lock write-set objects
//!   by setting `protected`, then apply new versions or roll the locks
//!   back.

use crate::msg::{Msg, ValEntry, ValidationKind};
use crate::object::{IdMap, ObjVal, ObjectId, Replica, Version};
use crate::txid::{AbortTarget, TxId};

/// One node's object table.
#[derive(Default)]
pub struct NodeStore {
    objects: IdMap<ObjectId, Replica>,
}

/// Outcome of serving a read request.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadOutcome {
    /// Serve this copy.
    Ok(Version, ObjVal),
    /// Rqv validation failed, or the requested object itself is locked by
    /// a committing transaction (the target is then the requester's
    /// innermost scope); unwind to the target.
    Abort(AbortTarget),
}

impl NodeStore {
    /// Create an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Install an object with [`Version::INITIAL`] (bootstrap only).
    pub fn preload(&mut self, oid: ObjectId, val: ObjVal) {
        self.objects.insert(oid, Replica::new(val));
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Direct access to a replica (tests and invariant checks).
    pub fn get(&self, oid: ObjectId) -> Option<&Replica> {
        self.objects.get(&oid)
    }

    /// All object ids this replica holds (every node holds every object).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Export every committed `(oid, version, value)` triple, sorted by
    /// object id so snapshot images are deterministic regardless of hash
    /// iteration order (used by the durable-storage layer).
    pub fn entries(&self) -> Vec<(ObjectId, Version, ObjVal)> {
        let mut out: Vec<_> = self
            .objects
            .iter()
            .map(|(oid, r)| (*oid, r.version, r.val.clone()))
            .collect();
        out.sort_by_key(|(oid, _, _)| *oid);
        out
    }

    /// Recovery state transfer: install `(version, val)` if newer than the
    /// local copy, clearing any leftover lock from before the crash.
    pub fn sync(&mut self, oid: ObjectId, version: Version, val: ObjVal) {
        let obj = self
            .objects
            .entry(oid)
            .or_insert_with(|| Replica::new(val.clone()));
        if version > obj.version {
            obj.version = version;
            obj.val = val;
        }
        obj.protected = false;
        obj.protected_by = None;
    }

    /// View-change state transfer (Cluster Manager side): raise the local
    /// copy to a newer committed version without touching lock state. A
    /// replica holding a live commit lock is never behind (any two write
    /// quorums intersect, so a competing newer commit would have been
    /// denied), and the lock must survive until its owner's phase two
    /// resolves it — so locked replicas are left alone.
    pub fn refresh(&mut self, oid: ObjectId, version: Version, val: ObjVal) {
        let obj = self
            .objects
            .entry(oid)
            .or_insert_with(|| Replica::new(val.clone()));
        if !obj.protected && version > obj.version {
            obj.version = version;
            obj.val = val;
        }
    }

    /// Rqv: validate the piggybacked data set. Returns `None` when every
    /// entry is valid, otherwise the abort target that removes every
    /// invalid object.
    pub fn validate(
        &self,
        root: TxId,
        entries: &[ValEntry],
        kind: ValidationKind,
    ) -> Option<AbortTarget> {
        let owner: fn(&ValEntry) -> AbortTarget = match kind {
            ValidationKind::None => return None,
            ValidationKind::Closed => |e| AbortTarget::Level(e.owner_level),
            ValidationKind::Checkpoint => |e| AbortTarget::Chk(e.owner_chk),
        };
        // A replica that has never seen the object holds nothing newer.
        let invalid = |e: &&ValEntry| {
            let held = self.objects.get(&e.oid);
            held.is_some_and(|obj| e.version < obj.version || obj.locked_by_other(root))
        };
        let invalid_owners = entries.iter().filter(invalid).map(owner);
        invalid_owners.reduce(AbortTarget::merge)
    }

    /// Serve a read/acquire request (Alg. 2 remote part). `cur_level` /
    /// `cur_chk` locate the requesting transaction for the abort target
    /// when the *requested* object itself is locked. `_want_write` is
    /// ignored (it chose between the PR and PW lists); the parameter stays
    /// because `benchmark/src/probes.rs` calls this positionally.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        root: TxId,
        cur_level: u32,
        cur_chk: u32,
        oid: ObjectId,
        _want_write: bool,
        entries: &[ValEntry],
        kind: ValidationKind,
    ) -> ReadOutcome {
        if let Some(target) = self.validate(root, entries, kind) {
            return ReadOutcome::Abort(target);
        }
        let Some(obj) = self.objects.get(&oid) else {
            // Every QR node replicates every object; a miss is a driver bug.
            panic!("read of unknown object {oid}");
        };
        if obj.locked_by_other(root) {
            // The requested object is mid-commit elsewhere: the contention
            // manager aborts the requester at its innermost active scope.
            let target = match kind {
                ValidationKind::Closed => AbortTarget::Level(cur_level),
                ValidationKind::Checkpoint => AbortTarget::Chk(cur_chk),
                ValidationKind::None => AbortTarget::ROOT,
            };
            return ReadOutcome::Abort(target);
        }
        ReadOutcome::Ok(obj.version, obj.val.clone())
    }

    /// 2PC phase one: validate the full data set; on success lock the
    /// write-set objects for `root` and vote commit.
    pub fn vote(
        &mut self,
        root: TxId,
        reads: &[(ObjectId, Version)],
        writes: &[(ObjectId, Version)],
    ) -> bool {
        let valid =
            |obj: &Replica, version: Version| !(version < obj.version || obj.locked_by_other(root));
        for (oid, version) in reads.iter().chain(writes) {
            if let Some(obj) = self.objects.get(oid) {
                if !valid(obj, *version) {
                    return false;
                }
            }
        }
        for (oid, _) in writes {
            if let Some(obj) = self.objects.get_mut(oid) {
                obj.protected = true;
                obj.protected_by = Some(root);
            }
        }
        true
    }

    /// 2PC phase two (commit confirm): install new values/versions and
    /// release the locks.
    pub fn apply(&mut self, root: TxId, writes: &[(ObjectId, Version, ObjVal)]) {
        for (oid, version, val) in writes {
            let Some(obj) = self.objects.get_mut(oid) else {
                continue;
            };
            if *version > obj.version {
                obj.version = *version;
                obj.val = val.clone();
            }
            if obj.protected_by == Some(root) {
                obj.protected = false;
                obj.protected_by = None;
            }
        }
    }

    /// 2PC phase two as the decided message: the one door the replica
    /// handler and the view-change completion of registered decisions
    /// share. Anything but [`Msg::Apply`] / [`Msg::AbortReq`] is no phase
    /// two and changes nothing.
    pub(crate) fn phase_two(&mut self, msg: &Msg) {
        match msg {
            Msg::Apply { root, writes } => self.apply(*root, writes),
            Msg::AbortReq { root, oids } => self.release(*root, oids),
            _ => {}
        }
    }

    /// 2PC phase two after an abort: release any locks `root` holds.
    pub fn release(&mut self, root: TxId, oids: &[ObjectId]) {
        for oid in oids {
            let Some(obj) = self.objects.get_mut(oid) else {
                continue;
            };
            if obj.protected_by == Some(root) {
                obj.protected = false;
                obj.protected_by = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn tx(n: u32, s: u64) -> TxId {
        TxId { node: n, seq: s }
    }

    fn entry(oid: u64, ver: u64, level: u32, chk: u32) -> ValEntry {
        ValEntry {
            oid: ObjectId(oid),
            version: Version(ver),
            owner_level: level,
            owner_chk: chk,
        }
    }

    fn store_with(n: u64) -> NodeStore {
        let mut s = NodeStore::new();
        for i in 0..n {
            s.preload(ObjectId(i), ObjVal::Int(i as i64));
        }
        s
    }

    #[test]
    fn preload_sets_initial_version() {
        let s = store_with(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(ObjectId(0)).unwrap().version, Version::INITIAL);
    }

    #[test]
    fn validation_passes_on_matching_versions() {
        let s = store_with(3);
        let t = s.validate(
            tx(0, 1),
            &[entry(0, 1, 0, 0), entry(1, 1, 1, 0)],
            ValidationKind::Closed,
        );
        assert_eq!(t, None);
    }

    #[test]
    fn validation_allows_reader_ahead_of_stale_node() {
        // A node outside the last write quorum has an older version; the
        // one-directional rule (entry.version < node.version) must not fail
        // a reader holding a NEWER copy.
        let s = store_with(1);
        let t = s.validate(tx(0, 1), &[entry(0, 5, 0, 0)], ValidationKind::Closed);
        assert_eq!(t, None);
    }

    #[test]
    fn abort_closed_is_min_owner_level() {
        // Alg. 1: the target is the invalid owner highest in the hierarchy.
        let mut s = store_with(4);
        // Bump versions of objects 1 (owned by level 2) and 2 (level 1).
        s.apply(
            tx(9, 9),
            &[
                (ObjectId(1), Version(2), ObjVal::Int(10)),
                (ObjectId(2), Version(2), ObjVal::Int(20)),
            ],
        );
        let t = s.validate(
            tx(0, 1),
            &[
                entry(0, 1, 0, 0),
                entry(1, 1, 2, 0),
                entry(2, 1, 1, 0),
                entry(3, 1, 3, 0),
            ],
            ValidationKind::Closed,
        );
        assert_eq!(t, Some(AbortTarget::Level(1)));
    }

    #[test]
    fn abort_chk_is_min_owner_checkpoint() {
        let mut s = store_with(3);
        s.apply(
            tx(9, 9),
            &[
                (ObjectId(1), Version(2), ObjVal::Int(1)),
                (ObjectId(2), Version(2), ObjVal::Int(2)),
            ],
        );
        let t = s.validate(
            tx(0, 1),
            &[entry(0, 1, 0, 0), entry(1, 1, 0, 3), entry(2, 1, 0, 2)],
            ValidationKind::Checkpoint,
        );
        assert_eq!(t, Some(AbortTarget::Chk(2)));
    }

    #[test]
    fn flat_kind_never_validates() {
        let mut s = store_with(1);
        s.apply(tx(9, 9), &[(ObjectId(0), Version(10), ObjVal::Int(0))]);
        let t = s.validate(tx(0, 1), &[entry(0, 1, 0, 0)], ValidationKind::None);
        assert_eq!(t, None);
    }

    #[test]
    fn validation_fails_on_locked_object() {
        let mut s = store_with(2);
        // Another transaction locks object 1 in 2PC: the reader's cached
        // copy, though current, no longer validates.
        assert!(s.vote(tx(1, 1), &[], &[(ObjectId(1), Version(1))]));
        let t = s.validate(tx(0, 1), &[entry(1, 1, 1, 0)], ValidationKind::Closed);
        assert_eq!(t, Some(AbortTarget::Level(1)));
    }

    #[test]
    fn read_of_locked_object_aborts_the_current_scope() {
        let mut s = store_with(1);
        assert!(s.vote(tx(1, 1), &[], &[(ObjectId(0), Version(1))]));
        let out = s.read(
            tx(0, 1),
            2,
            0,
            ObjectId(0),
            false,
            &[],
            ValidationKind::Closed,
        );
        assert_eq!(out, ReadOutcome::Abort(AbortTarget::Level(2)));
        let out = s.read(
            tx(0, 2),
            0,
            4,
            ObjectId(0),
            false,
            &[],
            ValidationKind::Checkpoint,
        );
        assert_eq!(out, ReadOutcome::Abort(AbortTarget::Chk(4)));
        let out = s.read(
            tx(0, 3),
            0,
            0,
            ObjectId(0),
            false,
            &[],
            ValidationKind::None,
        );
        assert_eq!(out, ReadOutcome::Abort(AbortTarget::ROOT));
    }

    #[test]
    fn lock_holder_can_still_read_its_own_object() {
        let mut s = store_with(1);
        let t = tx(0, 1);
        assert!(s.vote(t, &[], &[(ObjectId(0), Version(1))]));
        assert!(matches!(
            s.read(t, 0, 0, ObjectId(0), false, &[], ValidationKind::Closed),
            ReadOutcome::Ok(..)
        ));
    }

    #[test]
    fn vote_rejects_stale_reader() {
        let mut s = store_with(2);
        s.apply(tx(9, 9), &[(ObjectId(0), Version(3), ObjVal::Int(7))]);
        assert!(!s.vote(tx(0, 1), &[(ObjectId(0), Version(1))], &[]));
        assert!(s.vote(tx(0, 2), &[(ObjectId(0), Version(3))], &[]));
    }

    #[test]
    fn vote_locks_write_set_and_blocks_competitor() {
        let mut s = store_with(1);
        let a = tx(0, 1);
        let b = tx(1, 1);
        assert!(s.vote(a, &[], &[(ObjectId(0), Version(1))]));
        assert!(s.get(ObjectId(0)).unwrap().protected);
        assert!(
            !s.vote(b, &[], &[(ObjectId(0), Version(1))]),
            "second locker loses"
        );
        // The loser releases nothing; the winner applies.
        s.apply(a, &[(ObjectId(0), Version(2), ObjVal::Int(42))]);
        let r = s.get(ObjectId(0)).unwrap();
        assert!(!r.protected);
        assert_eq!(r.version, Version(2));
        assert_eq!(r.val, ObjVal::Int(42));
    }

    #[test]
    fn release_unlocks_only_own_locks() {
        let mut s = store_with(2);
        let a = tx(0, 1);
        let b = tx(1, 1);
        assert!(s.vote(a, &[], &[(ObjectId(0), Version(1))]));
        assert!(s.vote(b, &[], &[(ObjectId(1), Version(1))]));
        s.release(a, &[ObjectId(0), ObjectId(1)]);
        assert!(!s.get(ObjectId(0)).unwrap().protected, "a's lock released");
        assert!(s.get(ObjectId(1)).unwrap().protected, "b's lock survives");
    }

    #[test]
    fn apply_is_idempotent_and_monotone() {
        let mut s = store_with(1);
        let t = tx(0, 1);
        s.apply(t, &[(ObjectId(0), Version(5), ObjVal::Int(50))]);
        // A delayed duplicate with an older version must not regress state.
        s.apply(t, &[(ObjectId(0), Version(3), ObjVal::Int(30))]);
        let r = s.get(ObjectId(0)).unwrap();
        assert_eq!(r.version, Version(5));
        assert_eq!(r.val, ObjVal::Int(50));
    }

    proptest! {
        /// A read is invisible at the replica whatever its outcome (served,
        /// aborted by Rqv, aborted by a lock), and its outcome is a function
        /// of the committed state alone. `&self` already says the first
        /// half; the test keeps saying it should the receiver ever change.
        #[test]
        fn reads_and_validations_leave_the_replica_as_it_was(
            calls in vec((0..3u64, 0..3u64, 1..4u64, 0..3u64, any::<bool>()), 1..40)
        ) {
            // Object 1 has moved on to version 3; object 2 is locked by a
            // committing writer, which may itself read.
            let mut s = store_with(3);
            let locker = tx(2, 1);
            s.apply(tx(9, 9), &[(ObjectId(1), Version(3), ObjVal::Int(10))]);
            prop_assert!(s.vote(locker, &[], &[(ObjectId(2), Version(1))]));
            let locks = |s: &NodeStore| -> Vec<Option<TxId>> {
                (0..3).map(|i| s.get(ObjectId(i)).unwrap().protected_by).collect()
            };
            let before = (s.entries(), locks(&s));
            for (seq, held, version, oid, validate_only) in calls {
                let reader = if seq == 0 { locker } else { tx(0, seq) };
                let blocked = |o: u64| o == 2 && reader != locker;
                let stale = (held == 1 && version < 3) || blocked(held);
                let piggyback = [entry(held, version, 1, 0)];
                if validate_only {
                    let t = s.validate(reader, &piggyback, ValidationKind::Closed);
                    prop_assert_eq!(t, stale.then_some(AbortTarget::Level(1)));
                } else {
                    let want = if stale {
                        ReadOutcome::Abort(AbortTarget::Level(1))
                    } else if blocked(oid) {
                        ReadOutcome::Abort(AbortTarget::Level(2))
                    } else {
                        let r = s.get(ObjectId(oid)).unwrap();
                        ReadOutcome::Ok(r.version, r.val.clone())
                    };
                    let kind = ValidationKind::Closed;
                    let got = s.read(reader, 2, 0, ObjectId(oid), seq == 1, &piggyback, kind);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(&(s.entries(), locks(&s)), &before);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn read_of_unknown_object_is_a_bug() {
        let s = NodeStore::new();
        s.read(
            tx(0, 1),
            0,
            0,
            ObjectId(9),
            false,
            &[],
            ValidationKind::None,
        );
    }
}
