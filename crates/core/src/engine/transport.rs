//! Transport layer: quorum RPC rounds.
//!
//! Everything that puts protocol messages on the wire lives here — the
//! read-quorum fetch round, the 2PC vote round, and the commit-confirm /
//! lock-release fan-outs — together with the round/timeout accounting and
//! the [`EngineEventKind::QuorumRound`] boundary events. Layers above deal
//! in outcomes — a read round's replies merged, a vote decided — never in
//! call plumbing.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_sim::{Counter, EngineEventKind, NodeId, Sim, SimDuration, SimTime};

use crate::cluster::ClusterInner;
use crate::engine::detector::RPC_RETRIES;
use crate::msg::{class, Msg, ValEntry, ValidationKind};
use crate::object::{ObjVal, ObjectId, Version};
use crate::pool::Payload;
use crate::txid::{Abort, AbortTarget, TxId};

/// With overload protection armed, hedged read rounds are suppressed while
/// at least this many RPC rounds are concurrently in timeout/retry (the
/// saturation-pressure gauge): hedging helps tail latency at low load and
/// must disappear at high load, where it only amplifies pressure.
const HEDGE_PRESSURE_THRESHOLD: u64 = 3;

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

/// Saturation-pressure bookkeeping for one RPC round: engaged the first
/// time the round times out and retries, released (via `Drop`, so every
/// exit path counts) when the round resolves. The gauge — concurrent
/// rounds in timeout/retry — is what hedge suppression reads.
struct PressureGuard<'a> {
    gauge: &'a Cell<u64>,
    active: bool,
}

impl<'a> PressureGuard<'a> {
    fn new(gauge: &'a Cell<u64>) -> Self {
        PressureGuard {
            gauge,
            active: false,
        }
    }

    fn engage(&mut self) {
        if !self.active {
            self.active = true;
            self.gauge.set(self.gauge.get() + 1);
        }
    }
}

impl Drop for PressureGuard<'_> {
    fn drop(&mut self) {
        if self.active {
            self.gauge.set(self.gauge.get().saturating_sub(1));
        }
    }
}

/// Outcome of a read round; `hedged` flags that the accepted reply set
/// included a node outside the designated read quorum, so the set need not
/// intersect write quorums (the commit layer then skips the zero-message
/// read-only shortcut and re-validates at the vote round).
pub(super) struct ReadRound {
    replies: Vec<(NodeId, Msg)>,
    pub(super) hedged: bool,
}

impl ReadRound {
    /// Merge the replies (paper Alg. 2, quorum part): the max-version copy
    /// served, or — if any node's Rqv validation reported a conflict — the
    /// abort targets merged toward the outermost scope.
    pub(super) fn resolve(self) -> Result<(Version, ObjVal), Abort> {
        let mut best: Option<(Version, ObjVal)> = None;
        let mut abort: Option<AbortTarget> = None;
        for (_, m) in self.replies {
            match m {
                Msg::ReadOk { version, val, .. }
                    if best.as_ref().is_none_or(|(v, _)| version > *v) =>
                {
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
    pub(super) fn new(sim: Sim<Msg>, inner: Rc<ClusterInner>, node: NodeId) -> Self {
        Endpoint { sim, inner, node }
    }

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

    /// Whether `deadline` (if any) has already passed on the simulator
    /// clock — retry loops abandon rather than burn more quorum rounds.
    fn past_deadline(&self, deadline: Option<SimTime>) -> bool {
        deadline.is_some_and(|d| self.sim.now() > d)
    }

    /// One read round against the current read quorum. Returns the raw
    /// replies for [`ReadRound::resolve`] to merge; a timeout is a root
    /// abort (an asynchronous system only learns of failures this way).
    ///
    /// With [`DtmConfig::detector`](crate::DtmConfig::detector) set the
    /// round gets robust: a timed-out attempt is re-issued (capped
    /// exponential backoff, re-reading the quorum view each time — the
    /// detector may have reconfigured around the dead member meanwhile),
    /// and each attempt optionally *hedges* by also addressing `hedge`
    /// extra view-alive nodes, accepting the first `|read_q|` replies.
    #[allow(clippy::too_many_arguments)]
    pub(super) async fn read_round(
        &self,
        root: TxId,
        cur_level: u32,
        cur_chk: u32,
        oid: ObjectId,
        entries: Payload<ValEntry>,
        kind: ValidationKind,
        deadline: Option<SimTime>,
    ) -> Result<ReadRound, Abort> {
        // A transaction past its deadline gets no more quorum rounds: the
        // driver is about to abandon it, so the round (and any hedges or
        // retries it would spawn) is pure waste.
        if self.past_deadline(deadline) {
            self.sim.bump(Counter::WastedRetries);
            return Err(Abort::root());
        }
        let msg = Msg::ReadReq {
            root,
            cur_level,
            cur_chk,
            oid,
            entries,
            kind,
        };
        self.inner.stats.borrow_mut().read_rounds += 1;
        self.sim.emit_engine_event(
            EngineEventKind::QuorumRound,
            self.node,
            u64::from(class::READ_REQ),
        );
        let det = self.inner.cfg.detector;
        let retries = det.map_or(0, |_| RPC_RETRIES);
        let mut backoff = self.inner.cfg.backoff_base;
        let mut pressure = PressureGuard::new(&self.inner.overload.retry_pressure);
        for attempt in 0..=retries {
            // Re-read per attempt: a retry's whole point is that the view
            // may have reconfigured around the member that timed us out.
            let rq = Rc::clone(&self.inner.quorum.borrow().read_q);
            // Built only by a round that actually adds a hedge.
            let mut hedged_dests: Option<Vec<NodeId>> = None;
            if let Some(d) = det {
                if d.hedge > 0 {
                    // Hedge suppression: under saturation (other rounds are
                    // concurrently timing out and retrying) extra hedge
                    // destinations only amplify the pressure, so they are
                    // skipped — counted and event-logged, never silent.
                    let suppress = self.inner.cfg.overload.is_some()
                        && self.inner.overload.retry_pressure.get() >= HEDGE_PRESSURE_THRESHOLD;
                    if suppress {
                        self.sim.bump(Counter::HedgesSuppressed);
                        self.sim.emit_engine_event(
                            EngineEventKind::HedgeSuppressed,
                            self.node,
                            self.inner.overload.retry_pressure.get(),
                        );
                    } else {
                        let view = self.inner.quorum.borrow();
                        let mut spares = (0..self.inner.cfg.nodes)
                            .filter(|&n| view.is_view_alive(n))
                            .map(|n| NodeId(n as u32))
                            .filter(|id| !rq.contains(id))
                            .take(d.hedge)
                            .peekable();
                        if spares.peek().is_some() {
                            self.sim.bump(Counter::HedgedCalls);
                            hedged_dests = Some(rq.iter().copied().chain(spares).collect());
                        }
                    }
                }
            }
            let res = self
                .sim
                .call_first(
                    self.node,
                    hedged_dests.as_deref().unwrap_or(&rq),
                    msg.clone(),
                    rq.len(),
                    self.inner.cfg.rpc_timeout,
                )
                .await;
            if !res.timed_out {
                let hedged = res.replies.iter().any(|(n, _)| !rq.contains(n));
                if hedged {
                    self.sim.bump(Counter::HedgedWins);
                }
                return Ok(ReadRound {
                    replies: res.replies,
                    hedged,
                });
            }
            self.inner.stats.borrow_mut().timeouts += 1;
            if attempt < retries {
                // Cancel the remaining retries once the deadline passed
                // mid-round — the timeout already burned past it.
                if self.past_deadline(deadline) {
                    self.sim.bump(Counter::WastedRetries);
                    return Err(Abort::root());
                }
                pressure.engage();
                self.sim.bump(Counter::RpcRetries);
                self.sim.sleep(backoff).await;
                backoff = self.next_backoff(backoff);
            }
        }
        Err(Abort::root())
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
        if self.past_deadline(deadline) {
            self.sim.bump(Counter::WastedRetries);
            return Err(Abort::root());
        }
        self.inner.stats.borrow_mut().commit_rounds += 1;
        self.sim.emit_engine_event(
            EngineEventKind::QuorumRound,
            self.node,
            u64::from(class::COMMIT_REQ),
        );
        let msg = Msg::CommitReq {
            root,
            reads,
            writes,
        };
        // With a detector configured, a timed-out vote round is retried
        // against the same quorum: the replica-side vote is idempotent for
        // the same root (a re-vote on an object it already locked re-locks
        // and answers yes), so a reply lost to the network costs a retry,
        // not an abort. No hedging here — every member of `wq` must vote.
        let retries = self.inner.cfg.detector.map_or(0, |_| RPC_RETRIES);
        let mut backoff = self.inner.cfg.backoff_base;
        let mut pressure = PressureGuard::new(&self.inner.overload.retry_pressure);
        for attempt in 0..=retries {
            let res = self
                .sim
                .call(self.node, wq, msg.clone(), self.inner.cfg.rpc_timeout)
                .await;
            if !res.timed_out {
                let all_yes = res
                    .replies
                    .iter()
                    .all(|(_, m)| matches!(m, Msg::Vote { ok: true }));
                return if all_yes { Ok(()) } else { Err(Abort::root()) };
            }
            self.inner.stats.borrow_mut().timeouts += 1;
            if attempt < retries {
                if self.past_deadline(deadline) {
                    self.sim.bump(Counter::WastedRetries);
                    return Err(Abort::root());
                }
                pressure.engage();
                self.sim.bump(Counter::RpcRetries);
                self.sim.sleep(backoff).await;
                backoff = self.next_backoff(backoff);
            }
        }
        Err(Abort::root())
    }

    /// 2PC phase two, success: apply writes and release locks on `voted`,
    /// the quorum that granted phase one. See
    /// [`Endpoint::fanout_until_acked`] for why this must not give up on
    /// timeout.
    pub(super) async fn apply(
        &self,
        voted: &[NodeId],
        root: TxId,
        writes: Payload<(ObjectId, Version, ObjVal)>,
    ) {
        // Frozen once by the caller; every retry attempt and
        // per-destination copy of the fan-out shares the same allocation.
        self.fanout_until_acked(voted, || Msg::Apply {
            root,
            writes: writes.clone(),
        })
        .await;
    }

    /// 2PC phase two, failure: release any locks granted in phase one on
    /// `voted`, the quorum the vote round was sent to.
    pub(super) async fn release(&self, voted: &[NodeId], root: TxId, oids: Payload<ObjectId>) {
        self.fanout_until_acked(voted, || Msg::AbortReq {
            root,
            oids: oids.clone(),
        })
        .await;
    }

    /// Deliver a phase-two message to the vote-time write quorum, retrying
    /// with capped exponential backoff until every member still alive
    /// acknowledged one attempt in full.
    ///
    /// Phase two is the one place a timeout must not be treated as an
    /// abort: the decision is already taken, and abandoning the fan-out
    /// under a partition or message loss would leak commit locks (blocking
    /// every later writer) or lose installed-vs-released agreement between
    /// replicas. The targets are the nodes that *granted the vote* — that
    /// is where the locks live, even if a reconfiguration has since moved
    /// the write quorum elsewhere. Members that died are dropped from the
    /// retry (their lock state is wiped by the recovery state transfer,
    /// and the view-change transfer completes registered phase twos on
    /// everyone else); members that are merely unreachable are retried
    /// until the network heals. The store-level `Apply`/`AbortReq`
    /// handlers are idempotent, so re-sending to members that already
    /// processed an earlier attempt is harmless.
    async fn fanout_until_acked(&self, voted: &[NodeId], mk: impl Fn() -> Msg) {
        let mut backoff = self.inner.cfg.backoff_base;
        loop {
            let targets: Vec<NodeId> = voted
                .iter()
                .copied()
                .filter(|&n| self.sim.is_alive(n))
                .collect();
            if targets.is_empty() {
                return;
            }
            let res = self
                .sim
                .call(self.node, &targets, mk(), self.inner.cfg.rpc_timeout)
                .await;
            if !res.timed_out {
                return;
            }
            self.inner.stats.borrow_mut().timeouts += 1;
            self.sim.bump(Counter::RpcRetries);
            self.sim.sleep(backoff).await;
            backoff = self.next_backoff(backoff);
        }
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

    #[test]
    fn pressure_guard_engages_once_and_releases_on_drop() {
        let gauge = Cell::new(0u64);
        {
            let mut g = PressureGuard::new(&gauge);
            g.engage();
            g.engage();
            assert_eq!(gauge.get(), 1, "idempotent engage");
            let mut g2 = PressureGuard::new(&gauge);
            g2.engage();
            assert_eq!(gauge.get(), 2, "two rounds under retry");
        }
        assert_eq!(gauge.get(), 0, "drop released both");
        {
            let _unused = PressureGuard::new(&gauge);
        }
        assert_eq!(gauge.get(), 0, "unengaged guard releases nothing");
    }
}
