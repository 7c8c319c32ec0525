//! Commit layer: the two-phase quorum commit of a root transaction.
//!
//! Collects the data set's read/write sets, runs the vote round against
//! the write quorum, fences the decision on the view epoch and hands the
//! decided phase two to the transport (paper §II). Read-only transactions
//! take one of two shortcuts: under QR-CN with Rqv-validated reads they
//! commit locally with zero messages, otherwise they still validate their
//! read set at the quorum — through the same vote and fence, with no
//! phase two behind it.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cluster::InjectedBug;
use crate::history::CommitRecord;
use crate::msg::Msg;
use crate::object::{ObjectId, Version};
use crate::txid::{Abort, NestingMode};

use super::nesting::{CommitSets, TxState};
use super::transport::Endpoint;

/// Two-phase commit of the root transaction, or the local read-only commit
/// Rqv enables under QR-CN.
pub(super) async fn commit_root(ep: &Endpoint, st: &RefCell<TxState>) -> Result<(), Abort> {
    let (root, sets, deadline) = {
        let mut st = st.borrow_mut();
        assert!(
            !st.replaying(),
            "replay divergence in {}: the re-executed body finished after {} of the {} logged \
             operations; a transaction body must be a pure function of its Tx results",
            st.root,
            st.op_index,
            st.replay_upto,
        );
        (st.root, st.commit_sets(), st.deadline)
    };
    let CommitSets {
        reads,
        writes,
        payload,
    } = sets;
    // Tell the history auditor, if it listens, that the attempt committed
    // with serialization point `at`.
    let record = |at, writes: &[(ObjectId, Version)]| {
        let mut history = ep.inner.history.borrow_mut();
        if history.is_enabled() {
            history.push(CommitRecord {
                tx: root,
                at,
                reads: reads.to_vec(),
                writes: writes.iter().map(|(o, v)| (*o, *v, v.next())).collect(),
            });
        }
    };
    // Snapshot the view the decision is made under. The vote must go to
    // this exact quorum (locks will live on it), and the decision is only
    // sound if the view is unchanged when the votes are in — quorum
    // intersection holds within a view, not across reconfigurations.
    let (epoch, wq) = {
        let v = ep.inner.quorum.borrow();
        (v.epoch, Rc::clone(&v.write_q))
    };
    let read_only = writes.is_empty();
    if read_only {
        let validated = ep.inner.cfg.mode == NestingMode::Closed && ep.inner.cfg.rqv;
        if validated {
            // QR-CN: Rqv validated every read as of the last remote
            // operation at a whole read quorum, which meets every write
            // quorum; nothing to propagate — commit locally, zero
            // messages. (Without Rqv this would be unsound, hence the
            // guard.)
            ep.inner.stats.borrow_mut().local_commits += 1;
            // Serialization point: the last validated remote read.
            record(st.borrow().last_remote_read_at, &[]);
            return Ok(());
        }
        if reads.is_empty() {
            return Ok(()); // touched nothing
        }
        // Flat QR / QR-CHK: read-only still validates at the quorum.
    }
    // Serialization point of a read-only commit: *before* the fan-out, not
    // at reply collection. A validated read holds no lock, so by the time
    // the replies are back a conflicting writer may have locked, committed
    // and serialized — stamping the read-only commit later than that
    // writer would invert the serial order. Stamping before the send is
    // sound both ways: every writer whose value we read serialized before
    // our read observed it, and every writer that would invalidate a read
    // must serialize after the replica validations, which happen after the
    // send.
    let sent_at = ep.sim.now();
    let mut vote = ep
        .vote_round(&wq, root, reads.clone(), writes.clone(), deadline)
        .await;
    let bug = ep.inner.cfg.injected_bug;
    if bug == Some(InjectedBug::SkipVoteCheck) {
        // Injected bug: trust the round even when a replica voted no.
        vote = Ok(());
    }
    if vote.is_ok()
        && ep.inner.quorum.borrow().epoch != epoch
        && bug != Some(InjectedBug::SkipEpochFence)
    {
        // The view changed while the votes were in flight, and the vote
        // quorum need not intersect the new view's quorums. No replica has
        // seen a write yet, so converting the decision to an abort is safe.
        vote = Err(Abort::root());
    }
    if read_only {
        // No locks are granted for an empty write set, so there is nothing
        // to release on failure and no phase two.
        vote?;
        record(sent_at, &[]);
        return Ok(());
    }
    let phase_two = match vote {
        Ok(()) => {
            // Serialization point: all write-quorum locks held.
            record(ep.sim.now(), &writes);
            // Commit confirm: apply writes, release locks.
            Msg::Apply {
                root,
                writes: payload,
            }
        }
        // Release any locks granted in phase one.
        Err(_) => Msg::AbortReq {
            root,
            oids: writes.iter().map(|(o, _)| *o).collect(),
        },
    };
    ep.phase_two(&wq, root, phase_two).await;
    vote
}
