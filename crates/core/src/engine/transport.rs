//! Transport layer: quorum RPC rounds.
//!
//! Everything that puts protocol messages on the wire lives here — the
//! read-quorum fetch and the 2PC vote, both through the one retrying
//! [`Endpoint::round`], and phase two, one decided message fanned out until
//! acknowledged ([`Endpoint::phase_two`]) — together with the round/timeout
//! accounting and the [`EngineEventKind::QuorumRound`] boundary events.
//! Layers above deal in outcomes — a read round's replies merged, a vote
//! decided — never in call plumbing.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use qrdtm_sim::{Counter, EngineEventKind, NodeId, Sim, SimDuration, SimTime};

use crate::cluster::ClusterInner;
use crate::engine::detector::RPC_RETRIES;
use crate::msg::{class, Msg, ValEntry, ValidationKind};
use crate::object::{ObjVal, ObjectId, Version};
use crate::pool::Payload;
use crate::stats::DtmStats;
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
    /// driver is about to abandon it, so the round (and any hedges or
    /// retries it would spawn) is pure waste.
    fn within_deadline(&self, deadline: Option<SimTime>) -> Result<(), Abort> {
        if deadline.is_some_and(|d| self.sim.now() > d) {
            self.sim.bump(Counter::WastedRetries);
            return Err(Abort::root());
        }
        Ok(())
    }

    /// The one retrying quorum round of phase one (read fetch and vote):
    /// `attempt` issues one call and yields `None` if it timed out — a
    /// root abort once the attempts are used up (an asynchronous system
    /// only learns of failures this way). `count` names the caller's round
    /// counter in the statistics.
    ///
    /// With [`DtmConfig::detector`](crate::DtmConfig::detector) set the
    /// round gets robust: a timed-out attempt is re-issued after a capped,
    /// decorrelated backoff, unless the deadline passed meanwhile — the
    /// timeout already burned past it. While it retries, the round weighs
    /// on the saturation-pressure gauge.
    async fn round<T, Fut: Future<Output = Option<T>>>(
        &self,
        class: u8,
        count: fn(&mut DtmStats) -> &mut u64,
        deadline: Option<SimTime>,
        mut attempt: impl FnMut() -> Fut,
    ) -> Result<T, Abort> {
        self.within_deadline(deadline)?;
        *count(&mut self.inner.stats.borrow_mut()) += 1;
        self.sim
            .emit_engine_event(EngineEventKind::QuorumRound, self.node, u64::from(class));
        let retries = self.inner.cfg.detector.map_or(0, |_| RPC_RETRIES);
        let mut backoff = self.inner.cfg.backoff_base;
        let mut pressure = PressureGuard::new(&self.inner.overload.retry_pressure);
        for n in 0..=retries {
            if let Some(out) = attempt().await {
                return Ok(out);
            }
            self.inner.stats.borrow_mut().timeouts += 1;
            if n < retries {
                self.within_deadline(deadline)?;
                pressure.engage();
                self.sim.bump(Counter::RpcRetries);
                self.sim.sleep(backoff).await;
                backoff = self.next_backoff(backoff);
            }
        }
        Err(Abort::root())
    }

    /// One read round against the current read quorum. Returns the raw
    /// replies for [`ReadRound::resolve`] to merge.
    ///
    /// Each attempt re-reads the quorum view (a retry's whole point is
    /// that the detector may have reconfigured around the member that
    /// timed us out) and optionally *hedges* by also addressing `hedge`
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
        let msg = &Msg::ReadReq {
            root,
            cur_level,
            cur_chk,
            oid,
            entries,
            kind,
        };
        let attempt = || async move {
            let rq = Rc::clone(&self.inner.quorum.borrow().read_q);
            let hedged_dests = self.hedge_dests(&rq);
            let dests = hedged_dests.as_deref().unwrap_or(&rq);
            let timeout = self.inner.cfg.rpc_timeout;
            let call = self
                .sim
                .call_first(self.node, dests, msg.clone(), rq.len(), timeout);
            let res = call.await;
            if res.timed_out {
                return None;
            }
            let hedged = res.replies.iter().any(|(n, _)| !rq.contains(n));
            if hedged {
                self.sim.bump(Counter::HedgedWins);
            }
            Some(ReadRound {
                replies: res.replies,
                hedged,
            })
        };
        self.round(class::READ_REQ, |s| &mut s.read_rounds, deadline, attempt)
            .await
    }

    /// The read quorum `rq` plus the configured number of view-alive
    /// spares, if this attempt hedges at all (built only then).
    fn hedge_dests(&self, rq: &[NodeId]) -> Option<Vec<NodeId>> {
        let hedge = self.inner.cfg.detector.map_or(0, |d| d.hedge);
        if hedge == 0 {
            return None;
        }
        // Hedge suppression: under saturation (other rounds are
        // concurrently timing out and retrying) extra hedge destinations
        // only amplify the pressure, so they are skipped — counted and
        // event-logged, never silent.
        let pressure = self.inner.overload.retry_pressure.get();
        if self.inner.cfg.overload.is_some() && pressure >= HEDGE_PRESSURE_THRESHOLD {
            self.sim.bump(Counter::HedgesSuppressed);
            self.sim
                .emit_engine_event(EngineEventKind::HedgeSuppressed, self.node, pressure);
            return None;
        }
        let view = self.inner.quorum.borrow();
        let mut spares = (0..self.inner.cfg.nodes)
            .filter(|&n| view.is_view_alive(n))
            .map(|n| NodeId(n as u32))
            .filter(|id| !rq.contains(id))
            .take(hedge)
            .peekable();
        spares.peek()?;
        self.sim.bump(Counter::HedgedCalls);
        Some(rq.iter().copied().chain(spares).collect())
    }

    /// 2PC phase one against `wq`, the write quorum the caller snapshotted
    /// (together with the view epoch) when it decided to commit: all
    /// members must vote yes. The caller keeps `wq` because that is where
    /// any granted locks live — phase two must go to the same nodes even
    /// if the view has moved on.
    ///
    /// A timed-out vote round is retried against the same quorum: the
    /// replica-side vote is idempotent for the same root (a re-vote on an
    /// object it already locked re-locks and answers yes), so a reply lost
    /// to the network costs a retry, not an abort. No hedging here — every
    /// member of `wq` must vote.
    pub(super) async fn vote_round(
        &self,
        wq: &[NodeId],
        root: TxId,
        reads: Payload<(ObjectId, Version)>,
        writes: Payload<(ObjectId, Version)>,
        deadline: Option<SimTime>,
    ) -> Result<(), Abort> {
        let msg = &Msg::CommitReq {
            root,
            reads,
            writes,
        };
        let attempt = || async move {
            let timeout = self.inner.cfg.rpc_timeout;
            let res = self.sim.call(self.node, wq, msg.clone(), timeout).await;
            let yes = |(_, m): &(NodeId, Msg)| matches!(m, Msg::Vote { ok: true });
            let all_yes = res.replies.iter().all(yes);
            (!res.timed_out).then_some(if all_yes { Ok(()) } else { Err(Abort::root()) })
        };
        self.round(
            class::COMMIT_REQ,
            |s| &mut s.commit_rounds,
            deadline,
            attempt,
        )
        .await?
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
    /// the write quorum elsewhere. Members that died are dropped from the
    /// retry (their lock state is wiped by the recovery state transfer);
    /// members that are merely unreachable are retried until the network
    /// heals. The store-level handlers are idempotent, so re-sending to
    /// members that already processed an earlier attempt is harmless.
    ///
    /// Not the loop of [`Endpoint::round`]: no deadline, no pressure gauge
    /// and no retry cap apply to a decision already taken.
    pub(super) async fn phase_two(&self, voted: &[NodeId], root: TxId, msg: Msg) {
        self.inner.pending.borrow_mut().insert(root, msg.clone());
        let mut backoff = self.inner.cfg.backoff_base;
        loop {
            let targets: Vec<NodeId> = voted
                .iter()
                .copied()
                .filter(|&n| self.sim.is_alive(n))
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
