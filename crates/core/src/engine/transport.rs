//! Transport layer: quorum RPC rounds.
//!
//! Everything that puts protocol messages on the wire lives here — the
//! read-quorum fetch and the 2PC vote, both one call through
//! [`Endpoint::round`], and phase two, one decided message fanned out until
//! acknowledged ([`Endpoint::phase_two`]) — together with the round/timeout
//! accounting and the [`EngineEventKind::QuorumRound`] boundary events.
//! Phase one takes the same path whether or not a failure detector watches
//! the cluster: a read waits for its whole read quorum, a vote for its whole
//! write quorum, and a timeout aborts the root.
//! Layers above deal in outcomes — a read round's replies merged, a vote
//! decided — never in call plumbing.

use std::rc::Rc;

use qrdtm_sim::{Counter, EngineEventKind, NodeId, Sim, SimDuration, SimMessage, SimTime};

use crate::cluster::ClusterInner;
use crate::msg::{Msg, ValEntry, ValidationKind};
use crate::object::{ObjVal, ObjectId, Version};
use crate::pool::Payload;
use crate::stats::DtmStats;
use crate::txid::{Abort, AbortTarget, TxId};

/// Decorrelated-jitter step of the capped exponential retry backoff:
/// `next = clamp(prev × mult, base, cap)` with `mult` drawn per step from
/// the seeded simulator RNG in `[1, 3)`. Plain doubling keeps every client
/// that timed out at the same instant in lockstep — they retry together,
/// collide again, and double together (PR 6 measured exactly this livelock
/// at zero backoff); a multiplier drawn per client per step decorrelates
/// the herd while keeping the same `[base, cap]` envelope. Zero stays zero
/// (the zero-cost path must not consume RNG draws — callers skip the draw).
pub(crate) fn decorrelated_backoff(
    prev: SimDuration,
    base: SimDuration,
    cap: SimDuration,
    mult: f64,
) -> SimDuration {
    if prev == SimDuration::ZERO {
        return SimDuration::ZERO;
    }
    prev.mul_f64(mult).max(base).min(cap)
}

/// Merge a read round's replies, one per read-quorum member (paper
/// Alg. 2, quorum part): the max-version copy served, or — if any node's
/// Rqv validation reported a conflict — the abort targets merged toward
/// the outermost scope.
fn merge_reads(replies: Vec<(NodeId, Msg)>) -> Result<(Version, ObjVal), Abort> {
    let mut best: Option<(Version, ObjVal)> = None;
    let mut abort: Option<AbortTarget> = None;
    for (_, m) in replies {
        match m {
            Msg::ReadOk { version, val, .. } if best.as_ref().is_none_or(|(v, _)| version > *v) => {
                best = Some((version, val));
            }
            Msg::ReadAbort { target } => {
                abort = Some(abort.map_or(target, |prev| prev.merge(target)));
            }
            _ => {}
        }
    }
    match abort {
        Some(target) => Err(Abort { target }),
        None => Ok(best.expect("non-empty read quorum")),
    }
}

/// A node-bound handle on the cluster: the shared plumbing every engine
/// layer works through (simulator, cluster state, origin node).
#[derive(Clone)]
pub(crate) struct Endpoint {
    pub(super) sim: Sim<Msg>,
    pub(super) inner: Rc<ClusterInner>,
    pub(super) node: NodeId,
}

impl Endpoint {
    /// Next retry backoff after sleeping `prev`: decorrelated jitter within
    /// `[backoff_base, backoff_max]`. The jitter draw is skipped entirely
    /// for a zero backoff, preserving the zero-cost-path RNG discipline.
    fn next_backoff(&self, prev: SimDuration) -> SimDuration {
        if prev == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        decorrelated_backoff(
            prev,
            self.inner.cfg.backoff_base,
            self.inner.cfg.backoff_max,
            self.sim.jitter(1.0, 3.0),
        )
    }

    /// A transaction past its deadline gets no more quorum rounds: the
    /// driver is about to abandon it, so the round is pure waste.
    fn within_deadline(&self, deadline: Option<SimTime>) -> Result<(), Abort> {
        if deadline.is_some_and(|d| self.sim.now() > d) {
            self.sim.bump(Counter::WastedRetries);
            return Err(Abort::root());
        }
        Ok(())
    }

    /// The one quorum round of phase one (read fetch and vote): `msg` to
    /// every member of `quorum`, awaited until each replied. A timeout is
    /// a root abort (an asynchronous system only learns of failures this
    /// way). `count` names the caller's round counter in the statistics.
    async fn round(
        &self,
        quorum: &[NodeId],
        msg: Msg,
        count: fn(&mut DtmStats) -> &mut u64,
        deadline: Option<SimTime>,
    ) -> Result<Vec<(NodeId, Msg)>, Abort> {
        self.within_deadline(deadline)?;
        *count(&mut self.inner.stats.borrow_mut()) += 1;
        let class = u64::from(msg.class());
        self.sim
            .emit_engine_event(EngineEventKind::QuorumRound, self.node, class);
        let timeout = self.inner.cfg.rpc_timeout;
        let res = self.sim.call(self.node, quorum, msg, timeout).await;
        if res.timed_out {
            self.inner.stats.borrow_mut().timeouts += 1;
            return Err(Abort::root());
        }
        Ok(res.replies)
    }

    /// One read round against the current read quorum: the newest copy
    /// its members hold, or the abort their Rqv validation asked for.
    #[allow(clippy::too_many_arguments)]
    pub(super) async fn read_round(
        &self,
        root: TxId,
        cur_level: u32,
        cur_chk: u32,
        oid: ObjectId,
        entries: Rc<Vec<ValEntry>>,
        kind: ValidationKind,
        deadline: Option<SimTime>,
    ) -> Result<(Version, ObjVal), Abort> {
        let msg = Msg::ReadReq {
            root,
            cur_level,
            cur_chk,
            oid,
            entries,
            kind,
        };
        let rq = Rc::clone(&self.inner.quorum.borrow().read_q);
        let replies = self
            .round(&rq, msg, |s| &mut s.read_rounds, deadline)
            .await?;
        merge_reads(replies)
    }

    /// 2PC phase one against `wq`, the write quorum the caller snapshotted
    /// (together with the view epoch) when it decided to commit: all
    /// members must vote yes. The caller keeps `wq` because that is where
    /// any granted locks live — phase two must go to the same nodes even
    /// if the view has moved on.
    pub(super) async fn vote_round(
        &self,
        wq: &[NodeId],
        root: TxId,
        reads: Payload<(ObjectId, Version)>,
        writes: Payload<(ObjectId, Version)>,
        deadline: Option<SimTime>,
    ) -> Result<(), Abort> {
        let msg = Msg::CommitReq {
            root,
            reads,
            writes,
        };
        let replies = self
            .round(wq, msg, |s| &mut s.commit_rounds, deadline)
            .await?;
        let yes = |(_, m): &(NodeId, Msg)| matches!(m, Msg::Vote { ok: true });
        if replies.iter().all(yes) {
            Ok(())
        } else {
            Err(Abort::root())
        }
    }

    /// 2PC phase two: deliver the decided `msg` ([`Msg::Apply`] or
    /// [`Msg::AbortReq`] of `root`) to `voted`, the quorum that was asked
    /// to vote, retrying with capped exponential backoff until every
    /// member still alive acknowledged one attempt in full. The message is
    /// registered with the cluster for as long as that takes, so a view
    /// change mid-fan-out completes it on every alive replica instantly
    /// instead of leaving the new view behind the decision. Its payloads
    /// are frozen once by the caller: the registry, every retry attempt
    /// and every per-destination copy share the same allocation.
    ///
    /// Phase two is the one place a timeout must not be treated as an
    /// abort: the decision is already taken, and abandoning the fan-out
    /// under a partition or message loss would leak commit locks (blocking
    /// every later writer) or lose installed-vs-released agreement between
    /// replicas. The targets are the nodes that *granted the vote* — that
    /// is where the locks live, even if a reconfiguration has since moved
    /// the write quorum elsewhere. A member is dropped from the retry only
    /// once it is dead *and* the view has ejected it: its readmission's
    /// state transfer then wipes its lock state. A dead member the view
    /// still counts may come back before it is suspected, never to be
    /// readmitted, so it is retried until it answers or is ejected, as is
    /// a member that is merely unreachable. The store-level handlers are
    /// idempotent, so re-sending to members that already processed an
    /// earlier attempt is harmless.
    ///
    /// Unlike [`Endpoint::round`], it retries: no deadline and no retry cap
    /// apply to a decision already taken.
    pub(super) async fn phase_two(&self, voted: &[NodeId], root: TxId, msg: Msg) {
        self.inner.pending.borrow_mut().insert(root, msg.clone());
        let mut backoff = self.inner.cfg.backoff_base;
        loop {
            let view = &self.inner.quorum;
            let targets: Vec<NodeId> = voted
                .iter()
                .copied()
                .filter(|&n| self.sim.is_alive(n) || view.borrow().is_view_alive(n.index()))
                .collect();
            if targets.is_empty() {
                break;
            }
            let timeout = self.inner.cfg.rpc_timeout;
            let call = self.sim.call(self.node, &targets, msg.clone(), timeout);
            if !call.await.timed_out {
                break;
            }
            self.inner.stats.borrow_mut().timeouts += 1;
            self.sim.bump(Counter::RpcRetries);
            self.sim.sleep(backoff).await;
            backoff = self.next_backoff(backoff);
        }
        self.inner.pending.borrow_mut().remove(&root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1;
    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n * MS)
    }

    #[test]
    fn decorrelated_backoff_stays_in_envelope() {
        let base = ms(4);
        let cap = ms(120);
        let mut prev = base;
        for i in 0..32 {
            let mult = 1.0 + (i as f64 % 20.0) / 10.0; // sweeps [1.0, 3.0)
            prev = decorrelated_backoff(prev, base, cap, mult);
            assert!(prev >= base, "never below base");
            assert!(prev <= cap, "never above cap");
        }
        assert_eq!(prev, cap, "repeated growth saturates at the cap");
    }

    #[test]
    fn decorrelated_backoff_zero_stays_zero() {
        // The zero-cost path: zero backoff must stay zero (and callers skip
        // the RNG draw entirely), so zero-backoff configs replay the exact
        // event order of runs that never backed off.
        let z = SimDuration::ZERO;
        assert_eq!(decorrelated_backoff(z, z, ms(120), 2.5), z);
        assert_eq!(decorrelated_backoff(z, ms(4), ms(120), 2.5), z);
    }

    #[test]
    fn decorrelated_backoff_desynchronizes_identical_clients() {
        // Two clients that timed out at the same instant with the same
        // prev: plain doubling keeps them in lockstep forever; distinct
        // jitter draws separate their next sleeps immediately.
        let base = ms(4);
        let cap = ms(120);
        let a = decorrelated_backoff(ms(8), base, cap, 1.3);
        let b = decorrelated_backoff(ms(8), base, cap, 2.7);
        assert_ne!(a, b, "different draws, different sleeps");
    }
}
