//! The layered protocol engine: the local side of QR, QR-CN and QR-CHK.
//!
//! What used to be a monolithic runtime is split along the protocol's own
//! seams, one module per layer, and each protocol decision has one site:
//!
//! * [`transport`] — the one retrying quorum round behind the read fetch
//!   (plus the merge of its replies) and the 2PC vote, and phase two: one
//!   decided message, registered with the cluster while it fans out,
//! * [`nesting`] — per-transaction state ([`nesting::TxState`]: the data
//!   set as one log with scope and checkpoint marks, and the outbound Rqv
//!   payload built from it) and the flat/closed/checkpoint reactions to a
//!   conflict as methods of [`NestingMode`],
//! * [`commit`] — the two-phase quorum commit of a root transaction: one
//!   "vote, epoch fence" decision for update and read-only commits alike.
//!
//! This module composes them. A [`Client`] is bound to a node and runs root
//! transactions to completion, retrying on aborts. A [`Tx`] handle is what
//! transaction bodies program against:
//!
//! * [`Tx::read`] / [`Tx::write`] first search the transaction's own and
//!   its ancestors' data sets (`checkParent`, Alg. 2 line 2) and otherwise
//!   fetch the object from the read quorum, piggybacking the data set for
//!   Rqv validation (QR-CN/QR-CHK) and taking the max-version copy.
//! * [`Tx::closed`] runs a closed-nested transaction: a mark on the data-set
//!   log, independent retry on aborts addressed to its level (truncate to
//!   the mark), and the paper's Alg. 3 local commit — its entries become the
//!   parent's with **zero** messages and nothing copied.
//! * Under QR-CHK the engine creates a checkpoint each time the data set
//!   grows by `chk_threshold` objects. A read-time conflict rolls back to
//!   `abortChk`: the data-set log is truncated to that checkpoint's mark (a
//!   checkpoint is a mark, not a copy), the operation log is truncated
//!   likewise, and the body is re-executed with logged results replayed
//!   (our deterministic-replay substitute for the paper's Java
//!   continuations — identical message behaviour, see DESIGN.md
//!   "Substitutions").
//!
//! At each layer boundary the engine emits structured
//! [`EngineEventKind`] events into the simulator's metrics sink:
//! quorum rounds in the transport, validated reads and checkpoints in the
//! access path, and aborts (with their encoded target) where the retry
//! decision is made.

mod commit;
mod detector;
mod nesting;
pub mod repair;
mod transport;
pub(crate) mod wal;

pub use detector::{crash, recover, spawn_detector, DetectorHandle, Membership, DETECTION_SLACK};
pub use wal::{DurabilityConfig, Replay, Wal};

#[cfg(test)]
mod tests;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use qrdtm_sim::{Counter, EngineEventKind, NodeId, Sim, SimDuration, SimTime};

use crate::cluster::ClusterInner;
use crate::msg::{Msg, ValidationKind};
use crate::object::{ObjVal, ObjectId};
use crate::txid::{Abort, AbortTarget, NestingMode};

use nesting::{Entry, TxState};
use transport::Endpoint;

/// Encode an abort target into an [`EngineEventKind::AbortWithTarget`]
/// event's `detail` field: levels map to their value, checkpoint targets
/// set bit 32. Bits 40+ carry `bound` — the deepest valid target at the
/// emit site (innermost active nesting level for level targets, current
/// checkpoint index for checkpoint targets) — so trace checkers can assert
/// every abort addressed an ancestor actually on the stack (see
/// `history::check_abort_targets`).
fn abort_detail(target: AbortTarget, bound: u32) -> u64 {
    let base = match target {
        AbortTarget::Level(l) => u64::from(l),
        AbortTarget::Chk(c) => (1u64 << 32) | u64::from(c),
    };
    (u64::from(bound) << 40) | base
}

/// A client bound to a node; runs root transactions originating there.
pub struct Client {
    ep: Endpoint,
}

impl Client {
    pub(crate) fn new(sim: Sim<Msg>, inner: Rc<ClusterInner>, node: NodeId) -> Self {
        Client {
            ep: Endpoint { sim, inner, node },
        }
    }

    /// Run `body` as a root transaction, retrying until it commits, and
    /// return its result.
    ///
    /// The body receives a fresh [`Tx`] per (re-)execution attempt and must
    /// be pure apart from `Tx` operations: on a checkpoint rollback it is
    /// re-run with earlier operation results replayed from the log, so any
    /// non-determinism outside `Tx` would diverge from the logged prefix.
    /// Divergence is a bug in the body and panics, naming the transaction,
    /// the operation index and the logged vs. issued `(object, read|write)`
    /// (or, for a body that returns early, how much of the prefix it ran).
    pub async fn run<T, F, Fut>(&self, body: F) -> T
    where
        F: Fn(Tx) -> Fut,
        Fut: Future<Output = Result<T, Abort>>,
    {
        let tx = self.begin_tx();
        loop {
            match body(tx.clone()).await {
                Ok(v) => match tx.commit_attempt().await {
                    Ok(()) => return v,
                    Err(e) => tx.restart_after(e).await,
                },
                Err(abort) => tx.restart_after(abort).await,
            }
        }
    }

    /// A fresh root transaction handle at nesting level 0 — the attempt-
    /// level API [`crate::protocol::DtmProtocol`] builds on (where
    /// [`crate::protocol::attempts`], not [`Client::run`], drives the retry
    /// loop).
    pub(crate) fn begin_tx(&self) -> Tx {
        Tx {
            st: Rc::new(RefCell::new(TxState::new(
                self.ep.inner.fresh_txid(self.ep.node),
            ))),
            ep: self.ep.clone(),
            level: 0,
            started: self.ep.sim.now(),
        }
    }
}

/// Handle a transaction body uses to access shared objects, and QR's
/// [`DtmProtocol`](crate::DtmProtocol) transaction handle.
///
/// Cloning is cheap (reference-counted); each [`Tx::closed`] scope receives
/// a handle one nesting level deeper.
#[derive(Clone)]
pub struct Tx {
    st: Rc<RefCell<TxState>>,
    ep: Endpoint,
    level: u32,
    /// The root's begin instant: commit latency spans every retry.
    started: SimTime,
}

impl Tx {
    fn mode(&self) -> NestingMode {
        self.ep.inner.cfg.mode
    }

    /// An abort value addressed to this handle's scope: the innermost
    /// closed-nested transaction under QR-CN, the whole transaction
    /// otherwise.
    ///
    /// Transaction bodies use this to abort **voluntarily** — most
    /// importantly as a *zombie guard*: under flat QR, reads are not
    /// validated until commit, so a transaction can observe a torn
    /// snapshot across objects; a pointer-chasing traversal over such a
    /// snapshot may never terminate even though its commit would be
    /// rejected. A traversal that exceeds any structurally possible length
    /// proves the snapshot inconsistent and must `return
    /// Err(tx.abort_here())` to retry with fresh reads.
    pub fn abort_here(&self) -> Abort {
        self.mode().abort_here(self.level)
    }

    /// Read an object (paper Alg. 2, local part). Checks the transaction's
    /// own and ancestors' data sets first; otherwise one read-quorum round.
    pub async fn read(&self, oid: ObjectId) -> Result<ObjVal, Abort> {
        self.access(oid, None).await
    }

    /// Write an object. Promotes a previously read copy for free; fetches
    /// the object (for its version) if the transaction has never seen it.
    pub async fn write(&self, oid: ObjectId, val: ObjVal) -> Result<(), Abort> {
        self.access(oid, Some(val)).await?;
        Ok(())
    }

    async fn access(&self, oid: ObjectId, write_val: Option<ObjVal>) -> Result<ObjVal, Abort> {
        let is_write = write_val.is_some();
        let mode = self.mode();
        // Replay and local-hit fast paths (no communication).
        {
            let mut st = self.st.borrow_mut();
            if let Some(out) = st.replay_hit(oid, is_write) {
                self.ep.inner.stats.borrow_mut().replayed_ops += 1;
                return Ok(out);
            }
            if let Some(found) = st.find(self.level, oid) {
                let (out, read_at) = match write_val {
                    Some(v) => {
                        st.promote(found, v);
                        (ObjVal::Unit, None)
                    }
                    None => (st.entry(found).val.clone(), Some(found)),
                };
                st.log_op(mode, oid, read_at);
                self.ep.inner.stats.borrow_mut().local_hits += 1;
                return Ok(out);
            }
        }
        // Remote acquisition: the validation payload (the merged data set,
        // empty when the mode or a disabled Rqv piggybacks nothing), then
        // read-quorum rounds.
        let (root, cur_chk, entries, kind, deadline) = {
            let st = self.st.borrow();
            let kind = if self.ep.inner.cfg.rqv {
                mode.validation_kind()
            } else {
                ValidationKind::None
            };
            (st.root, st.cur_chk(), st.entries(), kind, st.deadline)
        };
        let (version, fetched) = self
            .ep
            .read_round(root, self.level, cur_chk, oid, entries, kind, deadline)
            .await?;
        if kind != ValidationKind::None {
            self.ep
                .sim
                .emit_engine_event(EngineEventKind::ReadValidated, self.ep.node, oid.0);
        }
        {
            let mut st = self.st.borrow_mut();
            st.last_remote_read_at = self.ep.sim.now();
            let entry = Entry {
                oid,
                is_write,
                version,
                val: write_val.unwrap_or_else(|| fetched.clone()),
                owner_level: self.level,
                owner_chk: cur_chk,
            };
            let at = st.fetched(entry, kind != ValidationKind::None);
            st.log_op(mode, oid, (!is_write).then_some(at));
        }
        self.maybe_checkpoint().await;
        Ok(if is_write { ObjVal::Unit } else { fetched })
    }

    /// Run `body` as a closed-nested transaction (QR-CN). Under flat
    /// nesting the body runs inline in the enclosing transaction; under
    /// checkpointing the structure is likewise flattened (the checkpoint
    /// criterion, not nesting, decides rollback points).
    ///
    /// The CT retries independently on conflicts addressed to its level;
    /// its commit merges its read/write sets into the parent locally with
    /// no communication (paper Alg. 3).
    pub async fn closed<T, F, Fut>(&self, body: F) -> Result<T, Abort>
    where
        F: Fn(Tx) -> Fut,
        Fut: Future<Output = Result<T, Abort>>,
    {
        if self.mode() != NestingMode::Closed {
            return body(self.clone()).await;
        }
        let child_level = self.level + 1;
        loop {
            {
                let mut st = self.st.borrow_mut();
                debug_assert_eq!(
                    st.depth(),
                    self.level,
                    "closed() called from the innermost active scope"
                );
                st.open_scope();
            }
            let mut child = self.clone();
            child.level = child_level;
            match body(child).await {
                Ok(v) => {
                    // commitCT (Alg. 3): merge into the parent, locally.
                    self.st.borrow_mut().commit_scope();
                    self.ep.inner.stats.borrow_mut().ct_commits += 1;
                    return Ok(v);
                }
                Err(Abort {
                    target: AbortTarget::Level(l),
                }) if l == child_level => {
                    let innermost = self.st.borrow().depth();
                    self.ep.sim.emit_engine_event(
                        EngineEventKind::AbortWithTarget,
                        self.ep.node,
                        abort_detail(AbortTarget::Level(l), innermost),
                    );
                    // Partial abort: discard only the child's work and retry
                    // promptly — the whole point of closed nesting is that
                    // the retry is cheap, so it only takes a jittered
                    // de-synchronization delay, not an escalating backoff.
                    self.st.borrow_mut().abort_scope(child_level);
                    self.ep.inner.stats.borrow_mut().ct_aborts += 1;
                    self.backoff(false).await;
                }
                Err(e) => {
                    // Addressed to an ancestor: unwind further.
                    self.st.borrow_mut().abort_scope(child_level);
                    return Err(e);
                }
            }
        }
    }

    /// QR-CHK: create a checkpoint when the data set grew by the threshold
    /// (other modes are never "due").
    async fn maybe_checkpoint(&self) {
        let cfg = &self.ep.inner.cfg;
        if !self.st.borrow().checkpoint_due(cfg.mode, cfg.chk_threshold) {
            return;
        }
        // The measured ~6% creation overhead, as local compute time; a
        // zero-cost config charges nothing and schedules no event.
        self.ep.sim.charge(cfg.chk_cost).await;
        let mut st = self.st.borrow_mut();
        st.take_checkpoint();
        self.ep.inner.stats.borrow_mut().checkpoints += 1;
        self.ep.sim.emit_engine_event(
            EngineEventKind::CheckpointTaken,
            self.ep.node,
            (u64::from(st.cur_chk()) << 32) | st.oplog.len() as u64,
        );
    }

    /// Try to commit this root transaction's current attempt, counting the
    /// commit and its latency on success.
    pub(crate) async fn commit_attempt(&self) -> Result<(), Abort> {
        commit::commit_root(&self.ep, &self.st).await?;
        self.record_commit();
        Ok(())
    }

    /// Arm (or clear) a completion deadline for this transaction. Quorum
    /// rounds observe it: a round entered or retried past the deadline is
    /// abandoned (`wasted_retries` counts the avoided work) so a request
    /// the client already gave up on stops consuming cluster capacity.
    /// The deadline survives retries — it belongs to the request, not the
    /// attempt.
    pub fn set_deadline(&self, deadline: Option<SimTime>) {
        self.st.borrow_mut().deadline = deadline;
    }

    /// Account a successful commit: one commit plus its latency measured
    /// from the root's begin instant.
    fn record_commit(&self) {
        let lat = self.ep.sim.now().saturating_since(self.started).as_nanos();
        self.ep.sim.observe_latency(lat);
        // Successes replenish the shared retry budget: the token-bucket
        // refill that lets retries scale with how fast the cluster is
        // actually completing work (and starves them when it is not).
        if let Some(o) = self.ep.inner.cfg.overload {
            let ov = &self.ep.inner.overload;
            ov.retry_tokens
                .set((ov.retry_tokens.get() + o.retry_refill_per_commit).min(o.retry_budget_cap));
        }
        let mut stats = self.ep.inner.stats.borrow_mut();
        stats.commits += 1;
        stats.latency_sum_ns += lat;
        stats.latency_max_ns = stats.latency_max_ns.max(lat);
    }

    /// Draw one token from the client-side retry budget before a full root
    /// retry proceeds. Tokens are minted by commits
    /// ([`crate::OverloadConfig::retry_refill_per_commit`] each) and by a
    /// slow time drip (one per `retry_drip`), so the cluster-wide retry
    /// rate is bounded under brown-out while liveness is preserved even
    /// when every client is blocked on the budget at once. Denials bump
    /// `retry_budget_exhausted` and wait out a drip period.
    async fn acquire_retry_token(&self) {
        let Some(o) = self.ep.inner.cfg.overload else {
            return;
        };
        let drip = o.retry_drip.max(SimDuration::from_millis(1));
        loop {
            let ov = &self.ep.inner.overload;
            // Lazy drip accounting: credit whole periods elapsed since the
            // last accounting instant, advancing it by exactly what was
            // credited so fractional progress is never lost.
            let drip_ns = drip.as_nanos();
            let last = ov.last_drip_ns.get();
            let earned = self.ep.sim.now().as_nanos().saturating_sub(last) / drip_ns;
            if earned > 0 {
                ov.last_drip_ns.set(last + earned * drip_ns);
                ov.retry_tokens
                    .set((ov.retry_tokens.get() + earned).min(o.retry_budget_cap));
            }
            let tokens = ov.retry_tokens.get();
            if tokens > 0 {
                ov.retry_tokens.set(tokens - 1);
                self.ep.sim.bump(Counter::ClientRetries);
                return;
            }
            self.ep.sim.bump(Counter::RetryBudgetExhausted);
            self.ep.sim.sleep(drip).await;
        }
    }

    /// Prepare the next attempt after an aborted one: emit the abort event,
    /// then either roll back to the targeted checkpoint (QR-CHK partial
    /// abort) or fully reset and take escalating backoff.
    pub(crate) async fn restart_after(&self, abort: Abort) {
        let bound = {
            let st = self.st.borrow();
            match abort.target {
                AbortTarget::Level(_) => st.depth(),
                AbortTarget::Chk(_) => st.cur_chk(),
            }
        };
        self.ep.sim.emit_engine_event(
            EngineEventKind::AbortWithTarget,
            self.ep.node,
            abort_detail(abort.target, bound),
        );
        match self.mode().rollback_checkpoint(&abort) {
            Some(c) => {
                self.ep.inner.stats.borrow_mut().chk_rollbacks += 1;
                // Restore the checkpoint and arm deterministic replay of
                // the logged prefix.
                let (restored, oplog_len) = {
                    let mut st = self.st.borrow_mut();
                    (st.rollback_to(c), st.oplog.len())
                };
                self.ep.sim.emit_engine_event(
                    EngineEventKind::CheckpointRestored,
                    self.ep.node,
                    (u64::from(restored) << 32) | oplog_len as u64,
                );
                // The conflicting writer is still in flight; retrying
                // instantly would just detect the same conflict again (the
                // paper's "unnecessary partial aborts"), so the rollback
                // escalates contention backoff like an abort.
                self.backoff(true).await;
            }
            None => {
                // Root-targeted abort (level 0), or a stray target that
                // nothing below caught: full retry under a fresh TxId, so
                // stale locks/metadata of the old attempt can never alias
                // the new one — which must first draw from the retry
                // budget when overload protection is armed (partial aborts
                // above are cheap and exempt).
                self.ep.inner.stats.borrow_mut().root_aborts += 1;
                let fresh = self.ep.inner.fresh_txid(self.ep.node);
                self.st.borrow_mut().reset_for_retry(fresh);
                self.acquire_retry_token().await;
                self.backoff(true).await;
            }
        }
    }

    /// Randomized backoff. Escalating (exponential in the attempt counter)
    /// after full aborts; a flat jittered delay after partial aborts, which
    /// are cheap to retry.
    pub(crate) async fn backoff(&self, escalate: bool) {
        let base = self.ep.inner.cfg.backoff_base;
        let mut d = if escalate {
            let attempt = self.st.borrow().attempt;
            let cap = self.ep.inner.cfg.backoff_max;
            let exp = attempt.min(5);
            let full = base * (1u64 << exp);
            if full > cap {
                cap
            } else {
                full
            }
        } else {
            base
        };
        // Jitter only a real delay: a zero-backoff config must not consume
        // an RNG draw (that would perturb the seeded event stream), and
        // charge() makes zero cost event-free — one rule for both former
        // `> ZERO` special cases (here and in checkpoint charging).
        if d > SimDuration::ZERO {
            d = d.mul_f64(self.ep.sim.jitter(0.5, 1.5));
        }
        self.ep.sim.charge(d).await;
    }
}
