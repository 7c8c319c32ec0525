//! The QR-DTM wire protocol.
//!
//! Six request/reply shapes carry the whole protocol:
//!
//! * `ReadReq` → `ReadOk` / `ReadAbort` — object acquisition from the read
//!   quorum. Under QR-CN and QR-CHK the request piggybacks the
//!   transaction's current data set for Rqv incremental validation
//!   (paper Algs. 1, 2, 4); under flat QR the set is empty.
//! * `CommitReq` → `Vote` — phase one of two-phase commit on the write
//!   quorum: validate the read/write sets and lock (`protected_by`) the
//!   write-set objects.
//! * `Apply` / `AbortReq` → `Ack` — phase two: apply the writes and release
//!   the locks, or just release them.
//!
//! Message classes index the simulator's accounting so experiments can
//! report read-request vs commit-request traffic like the paper's Table 8.

use std::rc::Rc;

use qrdtm_sim::SimMessage;

use crate::pool::Payload;

use crate::object::{ObjVal, ObjectId, Version};
use crate::txid::{AbortTarget, TxId};

/// Message-class indices for [`SimMessage::class`].
pub mod class {
    /// Read/acquire request to the read quorum.
    pub const READ_REQ: u8 = 0;
    /// Read reply (object copy or abort).
    pub const READ_RESP: u8 = 1;
    /// Two-phase-commit phase-one request.
    pub const COMMIT_REQ: u8 = 2;
    /// Phase-one vote.
    pub const VOTE: u8 = 3;
    /// Phase-two apply (commit confirm).
    pub const APPLY: u8 = 4;
    /// Phase-two release after a failed vote.
    pub const ABORT_REQ: u8 = 5;
    /// Phase-two acknowledgement.
    pub const ACK: u8 = 6;
}

/// One entry of the piggybacked data set used by Rqv validation.
///
/// `owner_level` and `owner_chk` record which closed-nested level /
/// checkpoint fetched the object (the paper's `ownerTxn` and
/// `ownerChkpnt`); the validator folds them into `abortClosed` /
/// `abortChk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValEntry {
    /// Object to validate.
    pub oid: ObjectId,
    /// Version the transaction holds.
    pub version: Version,
    /// Nesting level that fetched it (0 = root).
    pub owner_level: u32,
    /// Checkpoint id current when it was fetched.
    pub owner_chk: u32,
}

/// Which flavour of abort target the validator should compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationKind {
    /// No read-time validation (flat QR).
    None,
    /// Compute `abortClosed` = min invalid `owner_level`.
    Closed,
    /// Compute `abortChk` = min invalid `owner_chk`.
    Checkpoint,
}

/// A protocol message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Acquire an object copy for reading or writing.
    ReadReq {
        /// Root transaction on whose behalf the request is made.
        root: TxId,
        /// Innermost active nesting level (where the object will live).
        cur_level: u32,
        /// Latest checkpoint id (QR-CHK).
        cur_chk: u32,
        /// Object requested.
        oid: ObjectId,
        /// Rqv data set (empty under flat QR): the transaction's own
        /// copy-on-write payload, shared, not copied, by the request, the
        /// quorum fan-out and every retry attempt.
        entries: Rc<Vec<ValEntry>>,
        /// Validation flavour.
        kind: ValidationKind,
    },
    /// Successful read reply with this node's copy.
    ReadOk {
        /// Requested object.
        oid: ObjectId,
        /// Version of the returned copy.
        version: Version,
        /// The copy.
        val: ObjVal,
    },
    /// Validation failed (or the object is locked); unwind to `target`.
    ReadAbort {
        /// Where the requester must unwind to.
        target: AbortTarget,
    },
    /// 2PC phase one: validate and lock.
    CommitReq {
        /// Committing root transaction.
        root: TxId,
        /// Read-set versions to validate.
        reads: Payload<(ObjectId, Version)>,
        /// Write-set versions to validate and lock.
        writes: Payload<(ObjectId, Version)>,
    },
    /// Phase-one vote.
    Vote {
        /// True to commit, false to abort.
        ok: bool,
    },
    /// 2PC phase two: apply the writes (with their new versions) and unlock.
    Apply {
        /// Committing root transaction.
        root: TxId,
        /// `(object, new version, new value)` triples.
        writes: Payload<(ObjectId, Version, ObjVal)>,
    },
    /// 2PC phase two after an abort: release locks held by `root`.
    AbortReq {
        /// Aborting root transaction.
        root: TxId,
        /// Objects whose locks to release.
        oids: Payload<ObjectId>,
    },
    /// Phase-two acknowledgement.
    Ack,
}

// The simulator's arena keeps every message in flight inline, one event
// slot each. If this fails, a variant outgrew a 40-byte value plus its id
// and version (`ReadOk`): a payload went back to a fat slice pointer or a
// value regrew, and every event slot regrows with it.
const _: () = assert!(std::mem::size_of::<Msg>() <= 56);

impl SimMessage for Msg {
    fn class(&self) -> u8 {
        match self {
            Msg::ReadReq { .. } => class::READ_REQ,
            Msg::ReadOk { .. } | Msg::ReadAbort { .. } => class::READ_RESP,
            Msg::CommitReq { .. } => class::COMMIT_REQ,
            Msg::Vote { .. } => class::VOTE,
            Msg::Apply { .. } => class::APPLY,
            Msg::AbortReq { .. } => class::ABORT_REQ,
            Msg::Ack => class::ACK,
        }
    }

    fn size_hint(&self) -> usize {
        const HDR: usize = 32;
        match self {
            Msg::ReadReq { entries, .. } => HDR + 24 + entries.len() * 24,
            Msg::ReadOk { val, .. } => HDR + 16 + val.approx_size(),
            Msg::ReadAbort { .. } => HDR + 8,
            Msg::CommitReq { reads, writes, .. } => HDR + (reads.len() + writes.len()) * 16,
            Msg::Vote { .. } => HDR + 1,
            Msg::Apply { writes, .. } => {
                HDR + writes
                    .iter()
                    .map(|(_, _, v)| 16 + v.approx_size())
                    .sum::<usize>()
            }
            Msg::AbortReq { oids, .. } => HDR + oids.len() * 8,
            Msg::Ack => HDR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_tx() -> TxId {
        TxId { node: 0, seq: 1 }
    }

    #[test]
    fn classes_are_distinct_per_shape() {
        let read = Msg::ReadReq {
            root: dummy_tx(),
            cur_level: 0,
            cur_chk: 0,
            oid: ObjectId(1),
            entries: Rc::default(),
            kind: ValidationKind::None,
        };
        let commit = Msg::CommitReq {
            root: dummy_tx(),
            reads: [].into(),
            writes: [].into(),
        };
        assert_eq!(read.class(), class::READ_REQ);
        assert_eq!(commit.class(), class::COMMIT_REQ);
        assert_eq!(Msg::Ack.class(), class::ACK);
        assert_eq!(
            Msg::ReadAbort {
                target: AbortTarget::ROOT
            }
            .class(),
            Msg::ReadOk {
                oid: ObjectId(0),
                version: Version::INITIAL,
                val: ObjVal::Unit,
            }
            .class(),
            "both read replies share a class"
        );
    }

    #[test]
    fn size_hints_are_pinned() {
        // Wire accounting reads contents, never representation: a payload
        // by its length, a shared value by what it holds.
        let entry = ValEntry {
            oid: ObjectId(2),
            version: Version(1),
            owner_level: 0,
            owner_chk: 0,
        };
        let read_req = |entries: usize| Msg::ReadReq {
            root: dummy_tx(),
            cur_level: 0,
            cur_chk: 0,
            oid: ObjectId(1),
            entries: vec![entry; entries].into(),
            kind: ValidationKind::Closed,
        };
        assert_eq!(read_req(0).size_hint(), 32 + 24);
        assert_eq!(read_req(8).size_hint(), 32 + 24 + 8 * 24);
        let val = ObjVal::IntList(vec![0; 100].into());
        let read_ok = Msg::ReadOk {
            oid: ObjectId(1),
            version: Version(2),
            val: val.clone(),
        };
        assert_eq!(read_ok.size_hint(), 32 + 16 + 808);
        let writes = vec![
            (ObjectId(1), Version(2), val),
            (ObjectId(2), Version(2), ObjVal::Int(0)),
        ];
        let apply = Msg::Apply {
            root: dummy_tx(),
            writes: writes.into(),
        };
        assert_eq!(apply.size_hint(), 32 + (16 + 808) + (16 + 8));
        assert_eq!(apply.clone().size_hint(), apply.size_hint());
    }
}
