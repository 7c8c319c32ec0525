//! Commit layer: the two-phase quorum commit of a root transaction.
//!
//! Collects the data set's read/write sets, runs the vote round against
//! the write quorum and, on success, the apply/confirm round (paper §II).
//! Read-only transactions take one of two shortcuts: under a policy with
//! Rqv-validated reads they commit locally with zero messages, otherwise
//! they still validate their read set at the quorum.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cluster::{InjectedBug, PendingPhase2};
use crate::history::CommitRecord;
use crate::object::{ObjectId, Version};
use crate::pool::Payload;
use crate::txid::Abort;

use super::nesting::{CommitSets, NestingPolicy, TxState};
use super::transport::Endpoint;

/// Two-phase commit of the root transaction, or the local read-only commit
/// Rqv enables under QR-CN.
pub(super) async fn commit_root(
    ep: &Endpoint,
    st: &RefCell<TxState>,
    pol: &dyn NestingPolicy,
) -> Result<(), Abort> {
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
    if writes.is_empty() {
        if pol.local_read_only_commit() && ep.inner.cfg.rqv && !st.borrow().hedged_reads {
            // Rqv validated every read as of the last remote operation;
            // nothing to propagate — commit locally, zero messages.
            // (Without Rqv this would be unsound, hence the guard; likewise
            // if any read was accepted from a hedged reply set, which need
            // not intersect write quorums — those attempts fall through to
            // the vote round below.)
            ep.inner.stats.borrow_mut().local_commits += 1;
            // Serialization point: the last validated remote read.
            record(st.borrow().last_remote_read_at, &[]);
            return Ok(());
        }
        if reads.is_empty() {
            return Ok(()); // touched nothing
        }
        // Flat QR / QR-CHK: read-only still validates at the quorum. No
        // locks are granted for an empty write set, so there is nothing
        // to release on failure and no phase two to register.
        //
        // Serialization point: *before* the fan-out, not at reply
        // collection. A validated read holds no lock, so by the time the
        // replies are back a conflicting writer may have locked, committed
        // and serialized — stamping the read-only commit later than that
        // writer would invert the serial order. Stamping before the send
        // is sound both ways: every writer whose value we read serialized
        // before our read observed it, and every writer that would
        // invalidate a read must serialize after the replica validations,
        // which happen after the send.
        let at = ep.sim.now();
        let vote = ep
            .vote_round(&wq, root, reads.clone(), writes, deadline)
            .await;
        if ep.inner.cfg.injected_bug != Some(InjectedBug::SkipVoteCheck) {
            vote?;
        }
        if ep.inner.quorum.borrow().epoch != epoch
            && ep.inner.cfg.injected_bug != Some(InjectedBug::SkipEpochFence)
        {
            // The view changed mid-round: the quorum that validated the
            // reads need not intersect the new view's write quorums.
            return Err(Abort::root());
        }
        record(at, &[]);
        return Ok(());
    }
    let vote = ep
        .vote_round(&wq, root, reads.clone(), writes.clone(), deadline)
        .await;
    let vote = if ep.inner.cfg.injected_bug == Some(InjectedBug::SkipVoteCheck) {
        // Injected bug: trust the round even when a replica voted no.
        Ok(())
    } else {
        vote
    };
    match vote {
        Ok(()) => {
            if ep.inner.quorum.borrow().epoch != epoch
                && ep.inner.cfg.injected_bug != Some(InjectedBug::SkipEpochFence)
            {
                // The view changed while the votes were in flight. No
                // replica has seen the writes yet, so converting the
                // decision to an abort is safe — and necessary, since the
                // vote quorum need not intersect the new view's quorums.
                release_registered(ep, &wq, root, &writes).await;
                return Err(Abort::root());
            }
            // Serialization point: all write-quorum locks held.
            record(ep.sim.now(), &writes);
            // Commit confirm: apply writes, release locks. Registered so a
            // view change mid-fan-out completes it instantly instead of
            // leaving the new view behind the decision.
            ep.inner
                .pending
                .borrow_mut()
                .insert(root, PendingPhase2::Apply(payload.clone()));
            ep.apply(&wq, root, payload).await;
            ep.inner.pending.borrow_mut().remove(&root);
            Ok(())
        }
        Err(e) => {
            // Release any locks granted in phase one.
            release_registered(ep, &wq, root, &writes).await;
            Err(e)
        }
    }
}

/// Release-side phase two: registered with the cluster while in flight so
/// a view change can finish it on every alive replica immediately.
async fn release_registered(
    ep: &Endpoint,
    voted: &[qrdtm_sim::NodeId],
    root: crate::txid::TxId,
    writes: &[(ObjectId, Version)],
) {
    let oids: Payload<ObjectId> = writes.iter().map(|(o, _)| *o).collect();
    ep.inner
        .pending
        .borrow_mut()
        .insert(root, PendingPhase2::Release(oids.clone()));
    ep.release(voted, root, oids).await;
    ep.inner.pending.borrow_mut().remove(&root);
}
