//! Planner and replica machinery: shared cluster state, message handlers,
//! epoch sealing, batch replication, and planner takeover.
//!
//! Everything here is sim-world shared state (`Rc<RefCell<_>>`); the
//! client-side transaction logic in `lib.rs` talks to it only through
//! messages (and the oracle fault hooks mutate the view directly, like
//! the QR cluster's membership oracle).

use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use qrdtm_core::{
    repair, CommitRecord, HistoryRecorder, IdHasher, IdMap, ObjVal, ObjectId, Payload, TxId,
    Version, Wal,
};
use qrdtm_sim::{CallId, NodeId, Sim, SimDuration, SimTime, Sleep};

use crate::msg::{Decision, DecisionBlock, DecisionLog, Horizon, QMsg, TxStatus};
use crate::wal::{fold, BatchRecord, QSnapshot};
use crate::{QStoreBug, QStoreConfig};

/// Quorum size over the *configured* node count (the planner counts
/// itself when tallying batch acks).
pub(crate) fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// One committed object slot on a replica.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Version the write installed.
    pub version: Version,
    /// Planner-assigned write tag (0 for the preload).
    pub tag: u64,
    /// Batch the write committed in.
    pub batch: u64,
    /// The value.
    pub val: ObjVal,
}

/// A hash set keyed by an integer id through [`IdHasher`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Install a batch's `(object, version, tag, value)` writes into `store`.
pub(crate) fn install_writes(
    store: &mut IdMap<ObjectId, Slot>,
    batch: u64,
    writes: &[(ObjectId, Version, u64, ObjVal)],
) {
    for (oid, version, tag, val) in writes {
        let slot = Slot {
            version: *version,
            tag: *tag,
            batch,
            val: val.clone(),
        };
        store.insert(*oid, slot);
    }
}

/// Per-node replica state: the committed store (batch prefix), the
/// decision log, and the durable batch log. A replica holds nothing of the
/// open epoch: the planner alone knows its planned writes.
#[derive(Default)]
pub(crate) struct ReplicaState {
    pub store: IdMap<ObjectId, Slot>,
    /// Appended per batch, trimmed to [`horizon`](Self::horizon), replaced
    /// wholesale by [`install`](Self::install), and never searched here —
    /// only the planner looks a transaction up by id, in its own
    /// [`PlannerState::outcomes`] index.
    /// Holds every decision of this replica's prefix that `horizon` does
    /// not cover.
    pub decided: DecisionLog,
    /// The highest client watermarks this replica has seen.
    pub horizon: Horizon,
    pub applied: u64,
    pub wal_records: u64,
    pub wal_fsyncs: u64,
    /// The real disk behind the counters above (`None` = cost-modelled
    /// mode: the counters move but nothing is readable back and a crash
    /// cannot be amnesiac).
    pub wal: Option<Wal<BatchRecord, QSnapshot>>,
    /// Set between an amnesiac crash and the replay+repair at readmission.
    pub amnesiac: bool,
    /// View epoch under which this replica last applied state. A
    /// `FullSync` may roll the replica back (shorter `applied`) only when
    /// this is older than the current epoch — i.e. the replica's suffix
    /// was applied under a dead planner and never quorum-acknowledged.
    pub last_apply_epoch: u64,
}

impl ReplicaState {
    /// `oid`'s committed `(tag, value)`; an absent object is the implicit
    /// preload, tag 0 and [`ObjVal::Unit`].
    pub(crate) fn committed(&self, oid: &ObjectId) -> (u64, ObjVal) {
        let slot = self.store.get(oid);
        slot.map_or((0, ObjVal::Unit), |s| (s.tag, s.val.clone()))
    }

    /// Install one sealed batch unconditionally (sequencing checked by
    /// the caller) under view `epoch` and log it durably in one group
    /// commit. Returns the disk occupancy to charge (`fallback` in
    /// cost-modelled mode).
    pub(crate) fn apply_batch(
        &mut self,
        batch: u64,
        writes: &Payload<(ObjectId, Version, u64, ObjVal)>,
        decided: &DecisionBlock,
        horizon: &Horizon,
        epoch: u64,
        fallback: SimDuration,
    ) -> SimDuration {
        install_writes(&mut self.store, batch, writes);
        self.take_batch(batch, writes, decided, horizon, epoch);
        self.group_commit().unwrap_or(fallback)
    }

    /// Take `batch`, whose writes are already in the store, under view
    /// `epoch`: log its outcomes, forget what `horizon` covers, advance
    /// `applied` and append its record to the log buffer (volatile until
    /// the matching [`group_commit`](Self::group_commit)). The planner
    /// takes its own batch at seal and fsyncs from the replication task —
    /// dying in between loses the record, the append-vs-fsync crash window.
    pub(crate) fn take_batch(
        &mut self,
        batch: u64,
        writes: &Payload<(ObjectId, Version, u64, ObjVal)>,
        decided: &DecisionBlock,
        horizon: &Horizon,
        epoch: u64,
    ) {
        self.decided.push(Rc::clone(decided));
        self.horizon.merge(horizon);
        self.decided.forget(&self.horizon);
        self.applied = batch;
        self.last_apply_epoch = epoch;
        self.wal_records += 1;
        match self.wal.as_mut() {
            Some(w) => {
                w.append(BatchRecord {
                    batch,
                    writes: Rc::clone(writes),
                    decided: Rc::clone(decided),
                    horizon: horizon.clone(),
                });
            }
            // Cost-modelled mode has no buffer: the whole group commit is
            // counted at the append site.
            None => self.wal_fsyncs += 1,
        }
    }

    /// The group-commit fsync for the record(s) appended since the last
    /// one, driving the snapshot policy. Returns the occupancy to charge,
    /// or `None` in cost-modelled mode (caller charges `wal_cost`).
    pub(crate) fn group_commit(&mut self) -> Option<SimDuration> {
        let snap = self
            .wal
            .as_ref()?
            .snapshot_due()
            .then(|| self.snapshot_state());
        self.wal_fsyncs += 1;
        self.wal.as_mut().map(|w| w.fsync(snap))
    }

    /// Persist a full-state [`install`](Self::install) (`FullSync`,
    /// takeover adoption, or a post-repair re-baseline): one snapshot
    /// superseding the log. Returns the occupancy to charge (`fallback` in
    /// cost-modelled mode).
    pub(crate) fn log_full_state(&mut self, fallback: SimDuration) -> SimDuration {
        self.wal_records += 1;
        self.wal_fsyncs += 1;
        if self.wal.is_none() {
            return fallback;
        }
        let snap = self.snapshot_state();
        self.wal.as_mut().map_or(fallback, |w| w.snapshot(snap))
    }

    /// The replica's full committed state, as a snapshot payload (the
    /// decision blocks by reference).
    pub(crate) fn snapshot_state(&self) -> QSnapshot {
        QSnapshot {
            applied: self.applied,
            store: self.store.clone(),
            decided: self.decided.clone(),
            horizon: self.horizon.clone(),
        }
    }

    /// Install a full committed `state` under view `epoch` — the one way a
    /// replica takes a whole state (`FullSync`, takeover adoption, an
    /// amnesiac replay and its repair): its store, prefix and decision log,
    /// and the higher of the two horizons.
    pub(crate) fn install(&mut self, state: QSnapshot, epoch: u64) {
        self.store = state.store;
        self.applied = state.applied;
        self.decided = state.decided;
        self.horizon.merge(&state.horizon);
        self.decided.forget(&self.horizon);
        self.last_apply_epoch = epoch;
    }
}

/// Membership view: who is alive, who plans, and the fencing epoch.
/// The planner is sticky — it changes only when the current planner dies
/// (new planner = lowest alive node).
pub(crate) struct QView {
    pub alive: Vec<bool>,
    pub planner: usize,
    pub epoch: u64,
}

impl QView {
    /// The alive replicas, in index order.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.alive.len()).filter(|&i| self.alive[i])
    }

    /// `oid`'s home replica, which serves its reads: the alive replicas in
    /// index order, indexed by `oid` modulo their count.
    pub(crate) fn home(&self, oid: ObjectId) -> usize {
        let k = (oid.0 as usize) % self.members().count();
        self.members().nth(k).expect("k is below the alive count")
    }
}

/// A transaction parked in the open epoch.
pub(crate) struct PendTxn {
    pub tx: TxId,
    pub reads: Payload<(ObjectId, u64)>,
    /// `(object, assigned tag, value)` in program order.
    pub writes: Vec<(ObjectId, u64, ObjVal)>,
}

/// Planner-local state. One shared instance; only the node the view
/// names as planner touches it, and takeover reinitializes it wholesale.
/// The open epoch's batch is the planner replica's `applied + 1`, and a
/// batch is acknowledged once [`Shared::acked`] reaches it.
pub(crate) struct PlannerState {
    /// The open epoch: every accepted transaction not yet sealed.
    pub open: Vec<PendTxn>,
    /// `tx -> Some(committing batch)`, or `None` for a requeue, for every
    /// decision that `horizon` does not cover — all a duplicate `Submit`
    /// needs to be answered exactly once. A requeue is filled in at
    /// `Submit`, a commit by `seal`; `takeover` rebuilds the commits from
    /// the adopted log.
    pub outcomes: IdMap<TxId, Option<u64>>,
    /// The held reply of every planned transaction not yet answered,
    /// `tx -> (client, call)`, answered by `answer_waiters` at its batch's
    /// quorum ack. A takeover's fresh state drops them: those clients time
    /// out and submit again.
    pub waiting: IdMap<TxId, (NodeId, CallId)>,
    /// One watermark per client node, raised by every `Submit` and shipped
    /// with every sealed batch.
    pub horizon: Horizon,
    pub sealing: bool,
    pub next_tag: u64,
    pub ready: bool,
    pub opened_at: SimTime,
}

impl PlannerState {
    pub(crate) fn fresh(horizon: Horizon) -> Self {
        PlannerState {
            open: Vec::new(),
            outcomes: IdMap::default(),
            waiting: IdMap::default(),
            horizon,
            sealing: false,
            next_tag: 0,
            ready: true,
            opened_at: SimTime::ZERO,
        }
    }

    /// Index one batch's outcomes (a later decision of a transaction
    /// supersedes an earlier one), leaving out what the horizon covers.
    pub(crate) fn index_outcomes(&mut self, block: &[(TxId, Decision)]) {
        let horizon = &self.horizon;
        let live = block.iter().filter(|(tx, _)| !horizon.covers(tx));
        self.outcomes
            .extend(live.map(|(tx, d)| (*tx, Some(d.batch))));
    }
}

/// The client side of the horizon: per node, the `TxId.seq` of every
/// attempt begun there and not yet answered. A node's watermark is the
/// lowest of them, or the next `seq` to be handed out when it has none —
/// monotone, because new attempts draw ever larger `seq`s.
#[derive(Default)]
pub(crate) struct Clients {
    open: Vec<Vec<u64>>,
    next_seq: u64,
}

impl Clients {
    /// A fresh attempt id at `node`, outstanding until [`settle`](Self::settle).
    pub(crate) fn begin(&mut self, node: u32) -> TxId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = node as usize;
        if self.open.len() <= i {
            self.open.resize_with(i + 1, Vec::new);
        }
        self.open[i].push(seq);
        TxId { node, seq }
    }

    /// `tx`'s client holds its outcome, or never submitted it.
    pub(crate) fn settle(&mut self, tx: &TxId) {
        if let Some(open) = self.open.get_mut(tx.node as usize) {
            open.retain(|&seq| seq != tx.seq);
        }
    }

    pub(crate) fn watermark(&self, node: u32) -> u64 {
        let open = self.open.get(node as usize).into_iter().flatten();
        open.copied().min().unwrap_or(self.next_seq)
    }

    /// Whether `tx`'s client already holds its outcome — which it learns
    /// only once the decision is accounted.
    fn answered(&self, tx: &TxId) -> bool {
        tx.seq < self.watermark(tx.node)
    }

    /// The oldest attempt outstanding anywhere.
    fn oldest(&self) -> u64 {
        let open = self.open.iter().flatten();
        open.copied().min().unwrap_or(self.next_seq)
    }
}

/// `(object, write tag) -> version installed by that tag`, so the seal can
/// record the version a client *actually observed* through its read tag
/// (not the store's current version) and a stale read that slips past
/// validation corrupts the history visibly. A validated read names the
/// store's current tag, whose version the store itself holds, so only
/// superseded tags are worth keeping — until every attempt begun before
/// the supersession is answered. A later attempt names one only through a
/// replica that has not yet applied the newer write; the seal then falls
/// back to the store's version.
#[derive(Default)]
pub(crate) struct TagVersions {
    map: IdMap<(ObjectId, u64), Version>,
    /// `(next seq at supersession, object, tag)`, oldest first.
    superseded: VecDeque<(u64, ObjectId, u64)>,
}

impl TagVersions {
    fn get(&self, oid: ObjectId, tag: u64) -> Option<Version> {
        self.map.get(&(oid, tag)).copied()
    }

    pub(crate) fn insert(&mut self, oid: ObjectId, tag: u64, version: Version) {
        self.map.insert((oid, tag), version);
    }

    /// `tag` no longer names `oid`'s committed slot.
    fn supersede(&mut self, clients: &Clients, oid: ObjectId, tag: u64) {
        self.superseded.push_back((clients.next_seq, oid, tag));
    }

    /// Forget superseded tags no outstanding attempt can have read.
    fn forget(&mut self, clients: &Clients) {
        let oldest = clients.oldest();
        while let Some(&(seq, oid, tag)) = self.superseded.front() {
            if seq > oldest {
                break;
            }
            self.superseded.pop_front();
            self.map.remove(&(oid, tag));
        }
    }
}

/// Commit/abort/batch counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QStoreStats {
    /// Committed transactions (counted at batch quorum-ack).
    pub commits: u64,
    /// Requeued attempts (the family's abort analogue), each counted once,
    /// at the `Submit` that decides it: a read was overwritten before it
    /// was planned.
    pub aborts: u64,
    /// Quorum-acknowledged batches.
    pub batches: u64,
    /// Transactions carried by those batches.
    pub batch_txns: u64,
}

/// Everything handlers, background tasks and the cluster handle share.
pub(crate) struct Shared {
    pub nodes: Vec<NodeId>,
    pub view: RefCell<QView>,
    pub planner: RefCell<PlannerState>,
    pub replicas: Vec<Rc<RefCell<ReplicaState>>>,
    pub stats: RefCell<QStoreStats>,
    pub history: RefCell<HistoryRecorder>,
    /// Accounted commits whose clients are not yet answered: a takeover
    /// re-walking their batch must not count them twice.
    pub recorded: RefCell<IdSet<TxId>>,
    /// Every batch up to this one is quorum-acknowledged (0 = preload).
    pub acked: Cell<u64>,
    /// Batch-atomicity violations, found as commits are accounted.
    pub atomicity: RefCell<Vec<String>>,
    /// Seal-to-quorum-ack latency per batch, ns.
    pub epoch_lat: RefCell<Vec<u64>>,
    pub tag_vers: RefCell<TagVersions>,
    pub clients: RefCell<Clients>,
    /// The cluster's configuration, `batch_size` clamped to at least 1.
    pub cfg: QStoreConfig,
}

impl Shared {
    /// Whether `me` still holds the planner role: alive, and named planner
    /// by the view. Every planner task stops the moment this goes false.
    pub(crate) fn leads(&self, sim: &Sim<QMsg>, me: usize) -> bool {
        sim.is_alive(self.nodes[me]) && self.view.borrow().planner == me
    }

    /// The jittered pause a retrying loop takes between rounds.
    pub(crate) fn pause(&self, sim: &Sim<QMsg>) -> Sleep {
        sim.sleep(self.cfg.backoff.mul_f64(sim.jitter(0.5, 1.5)))
    }

    /// Push replica `from`'s full committed state, stamped with the current
    /// view, to the replicas `to` in one call. Returns `(replica, applied)`
    /// for every one that acknowledged it. A push to nobody sends nothing.
    pub(crate) async fn push_full_sync(
        &self,
        sim: &Sim<QMsg>,
        from: usize,
        to: &[usize],
    ) -> Vec<(usize, u64)> {
        if to.is_empty() {
            return Vec::new();
        }
        let state = self.replicas[from].borrow().snapshot_state();
        let sync = QMsg::FullSync {
            view: self.view.borrow().epoch,
            state,
        };
        let targets: Vec<NodeId> = to.iter().map(|&i| self.nodes[i]).collect();
        let timeout = Some(self.cfg.rpc_timeout);
        let res = sim.call(self.nodes[from], &targets, sync, timeout).await;
        res.replies
            .into_iter()
            .filter_map(|(node, m)| match m {
                QMsg::ApplyAck { ok: true, applied } => Some((node.index(), applied)),
                _ => None,
            })
            .collect()
    }
}

/// A sealed batch awaiting quorum replication.
pub(crate) struct BatchJob {
    pub batch: u64,
    pub sealed_at: SimTime,
    pub writes: Payload<(ObjectId, Version, u64, ObjVal)>,
    pub decided: DecisionBlock,
    pub horizon: Horizon,
}

/// Install the per-node message handlers.
pub(crate) fn install_handlers(sim: &Sim<QMsg>, shared: &Rc<Shared>) {
    for me in 0..shared.cfg.nodes {
        let sh = Rc::clone(shared);
        let sim2 = sim.clone();
        let node = shared.nodes[me];
        sim.set_handler(node, move |ctx, env| match &env.msg {
            QMsg::Read { oid } => {
                let (tag, val) = sh.replicas[me].borrow().committed(oid);
                ctx.respond(&env, QMsg::ReadOk { tag, val });
            }
            QMsg::Submit {
                tx,
                watermark,
                reads,
                writes,
            } => {
                let status = known_status(&sh, me, tx, *watermark).or_else(|| {
                    // Decided on arrival: requeued, and recorded so a
                    // duplicate gets the same answer.
                    let (r, p) = (&sh.replicas[me], &sh.planner);
                    let stale = stale_read(&sh, &r.borrow(), &p.borrow().open, reads);
                    stale.then(|| {
                        sh.planner.borrow_mut().outcomes.insert(*tx, None);
                        sh.stats.borrow_mut().aborts += 1;
                        TxStatus::Requeued
                    })
                });
                match status {
                    // Held until its batch is acknowledged; a newer call
                    // for the same `tx` replaces an older one.
                    None | Some(TxStatus::Pending) => {
                        if let Some(call) = env.call {
                            let waiter = (env.from, call);
                            sh.planner.borrow_mut().waiting.insert(*tx, waiter);
                        }
                        if status.is_none() {
                            accept(&sh, &sim2, me, tx, reads, writes);
                        }
                    }
                    Some(TxStatus::Requeued) => {
                        let (r, p) = (sh.replicas[me].borrow(), sh.planner.borrow());
                        ctx.respond(&env, requeued(&r, &p.open, reads));
                    }
                    Some(status) => ctx.respond(&env, ack(status)),
                }
            }
            QMsg::ApplyBatch {
                batch,
                view,
                writes,
                decided,
                horizon,
            } => {
                let current = sh.view.borrow().epoch;
                let mut r = sh.replicas[me].borrow_mut();
                // Acked when held or next in sequence; nacked on a stale
                // view or a gap.
                let ok = *view == current && *batch <= r.applied + 1;
                if ok && *batch > r.applied {
                    // One group-committed WAL record per replica per batch.
                    let cost = sh.cfg.wal_cost;
                    ctx.occupy(r.apply_batch(*batch, writes, decided, horizon, current, cost));
                }
                let applied = r.applied;
                drop(r);
                ctx.respond(&env, QMsg::ApplyAck { ok, applied });
            }
            QMsg::SyncPull => {
                let applied = sh.replicas[me].borrow().applied;
                ctx.respond(&env, QMsg::SyncInfo { applied });
            }
            QMsg::FullSync { view, state } => {
                let current = sh.view.borrow().epoch;
                let mut r = sh.replicas[me].borrow_mut();
                // A FullSync from the current view's planner is
                // authoritative in *both* directions: it catches a lagging
                // replica up, and it rolls back a replica whose applied
                // prefix ran ahead of the quorum-acknowledged one (batches
                // applied under a dead planner that were never acked, so
                // the takeover adopted a shorter prefix). Keeping the
                // longer divergent suffix would let the new planner's
                // reuse of the same batch ids silently fork this replica.
                // The rollback direction is gated on `last_apply_epoch` so
                // a stale same-view FullSync that lost a race with normal
                // ApplyBatch progress cannot undo acknowledged batches.
                let ok = *view == current;
                if ok
                    && (state.applied > r.applied
                        || (state.applied < r.applied && r.last_apply_epoch < current))
                {
                    r.install(state.clone(), current);
                    ctx.occupy(r.log_full_state(sh.cfg.wal_cost));
                }
                let applied = r.applied;
                drop(r);
                ctx.respond(&env, QMsg::ApplyAck { ok, applied });
            }
            // Reply payloads are consumed by the call futures.
            QMsg::SubmitAck { .. }
            | QMsg::ReadOk { .. }
            | QMsg::ApplyAck { .. }
            | QMsg::SyncInfo { .. } => {}
        });
    }
}

/// What node `me` can already answer about `tx`, whose node sent
/// `watermark`: `NotPlanner` off the planner role, `Busy` mid-takeover,
/// else the planner's record of it. A requeue, decided when `tx` first
/// arrived, reads `Requeued`; a planned transaction reads `Pending` (hold
/// the reply) until its batch is quorum-acknowledged — nothing is reported
/// committed before the epoch is durable on a majority; one below its
/// node's watermark reads `Settled`. `None`: the planner has never seen
/// `tx`, and decides it now.
fn known_status(sh: &Shared, me: usize, tx: &TxId, watermark: u64) -> Option<TxStatus> {
    let v = sh.view.borrow();
    if v.planner != me || !v.alive[me] {
        return Some(TxStatus::NotPlanner);
    }
    let mut p = sh.planner.borrow_mut();
    if !p.ready {
        return Some(TxStatus::Busy);
    }
    p.horizon.raise(tx.node, watermark);
    match p.outcomes.get(tx) {
        Some(None) => Some(TxStatus::Requeued),
        Some(&Some(batch)) if batch > sh.acked.get() => Some(TxStatus::Pending),
        Some(Some(_)) => Some(TxStatus::Committed),
        None if p.open.iter().any(|t| t.tx == *tx) => Some(TxStatus::Pending),
        None => p.horizon.covers(tx).then_some(TxStatus::Settled),
    }
}

/// `oid`'s newest planned `(tag, value)` on the planner replica `r`: the
/// last write to it queued in the open epoch, else its committed slot.
fn newest_planned(r: &ReplicaState, open: &[PendTxn], oid: &ObjectId) -> (u64, ObjVal) {
    let mut queued = open.iter().rev().flat_map(|t| t.writes.iter().rev());
    match queued.find(|(o, ..)| o == oid) {
        Some((_, tag, val)) => (*tag, val.clone()),
        None => r.committed(oid),
    }
}

/// The stale-read rule, applied to each `Submit` on arrival: a read of an
/// object at write `tag` is stale unless `tag` names the object's newest
/// planned write, so a planned transaction commits at the seal, in queue
/// order, unless a takeover loses its epoch. `SkipTagCheck` turns the rule
/// off;
/// `IgnoreOpenEpoch` reads only the committed slot and lets any read no
/// older than it through.
fn stale_read(sh: &Shared, r: &ReplicaState, open: &[PendTxn], reads: &[(ObjectId, u64)]) -> bool {
    reads.iter().any(|(oid, tag)| match sh.cfg.injected_bug {
        Some(QStoreBug::SkipTagCheck) => false,
        Some(QStoreBug::IgnoreOpenEpoch) => r.committed(oid).0 > *tag,
        _ => newest_planned(r, open, oid).0 != *tag,
    })
}

/// The answer to a `Submit` that carries no values.
fn ack(status: TxStatus) -> QMsg {
    let fresh = Vec::new();
    QMsg::SubmitAck { status, fresh }
}

/// The `Requeued` answer: it carries the newest planned `(object, tag,
/// value)` of every object in `reads` (an absent one as the implicit
/// preload) for the retry to read.
fn requeued(r: &ReplicaState, open: &[PendTxn], reads: &[(ObjectId, u64)]) -> QMsg {
    let fresh = |oid: &ObjectId| {
        let (tag, val) = newest_planned(r, open, oid);
        (*oid, tag, val)
    };
    let fresh = reads.iter().map(|(oid, _)| fresh(oid)).collect();
    QMsg::SubmitAck {
        status: TxStatus::Requeued,
        fresh,
    }
}

/// Accept `tx` into the open epoch: assign queue positions (tags), arm the
/// sealer if the epoch just opened and seal at once if it is full.
fn accept(
    sh: &Rc<Shared>,
    sim: &Sim<QMsg>,
    me: usize,
    tx: &TxId,
    reads: &Payload<(ObjectId, u64)>,
    writes: &[(ObjectId, ObjVal)],
) {
    let epoch = sh.view.borrow().epoch;
    let open_batch = sh.replicas[me].borrow().applied + 1;
    let was_empty = {
        let mut p = sh.planner.borrow_mut();
        let was_empty = p.open.is_empty();
        if was_empty {
            p.opened_at = sim.now();
        }
        let writes = writes
            .iter()
            .map(|(oid, val)| {
                p.next_tag += 1;
                // The view epoch lives in the high bits; a reign that
                // assigns 2^24 tags would silently corrupt uniqueness
                // and ordering, so fail loudly instead.
                assert!(
                    p.next_tag < (1 << 24),
                    "write-tag counter overflowed into the view-epoch bits"
                );
                (*oid, (epoch << 24) | p.next_tag, val.clone())
            })
            .collect();
        p.open.push(PendTxn {
            tx: *tx,
            reads: Rc::clone(reads),
            writes,
        });
        was_empty
    };
    if was_empty {
        // Arm the epoch-timeout sealer exactly once per opened epoch.
        let sh2 = Rc::clone(sh);
        let sim3 = sim.clone();
        sim.spawn(async move {
            sealer(sh2, sim3, me, open_batch).await;
        });
    }
    if sh.planner.borrow().open.len() < sh.cfg.batch_size {
        return;
    }
    if let Some(job) = seal(sh, sim, me) {
        let sh2 = Rc::clone(sh);
        let sim3 = sim.clone();
        sim.spawn(async move {
            run_batches(sh2, sim3, me, job).await;
        });
    }
}

/// Seal the open epoch: commit every transaction in planner-assigned order
/// (each was validated on arrival), install the writes locally, and hand
/// back the replication job. Returns `None` if there is nothing to seal or
/// a replication round is already in flight.
pub(crate) fn seal(sh: &Rc<Shared>, sim: &Sim<QMsg>, me: usize) -> Option<BatchJob> {
    let mut p = sh.planner.borrow_mut();
    if p.sealing || !p.ready || p.open.is_empty() {
        return None;
    }
    let sealed_at = sim.now();
    let open = std::mem::take(&mut p.open);
    p.sealing = true;
    let horizon = p.horizon.clone();
    drop(p);

    let mut r = sh.replicas[me].borrow_mut();
    let batch = r.applied + 1;
    let mut wire_writes: Vec<(ObjectId, Version, u64, ObjVal)> = Vec::new();
    let mut decided: Vec<(TxId, Decision)> = Vec::new();
    for (seq, t) in open.iter().enumerate() {
        let at = sealed_at + SimDuration::from_nanos(seq as u64 + 1);
        let observed_batch_max = t
            .reads
            .iter()
            .filter_map(|(oid, _)| r.store.get(oid).map(|s| s.batch))
            .max()
            .unwrap_or(0);
        // Record the versions the client actually observed (resolved via
        // its read tags): with validation on these equal the store's
        // current versions, but a stale read that skips validation must
        // surface in the history for the auditor to catch.
        let mut tag_vers = sh.tag_vers.borrow_mut();
        let observed_via_tag = |oid: &ObjectId, rt: u64| -> Option<Version> {
            tag_vers
                .get(*oid, rt)
                .or_else(|| r.store.get(oid).map(|s| s.version))
        };
        let reads_res: Vec<(ObjectId, Version)> = t
            .reads
            .iter()
            .filter(|(oid, _)| !t.writes.iter().any(|(o, _, _)| o == oid))
            .filter_map(|(oid, rt)| observed_via_tag(oid, *rt).map(|v| (*oid, v)))
            .collect();
        let mut writes_res: Vec<(ObjectId, Version, Version)> = Vec::new();
        for (oid, tag, val) in &t.writes {
            let read_tag = t.reads.iter().find(|(o, _)| o == oid).map(|(_, rt)| *rt);
            // A read-modify-write observed the version its read tag names;
            // a blind write observes the store's current version. Unknown
            // objects replay as implicitly preloaded at INITIAL, matching
            // the auditor's model default.
            let current = r.store.get(oid).map(|s| s.version);
            let observed = read_tag
                .and_then(|rt| tag_vers.get(*oid, rt))
                .or(current)
                .unwrap_or(Version::INITIAL);
            let installed = current.unwrap_or(Version::INITIAL).next();
            writes_res.push((*oid, observed, installed));
            wire_writes.push((*oid, installed, *tag, val.clone()));
            tag_vers.insert(*oid, *tag, installed);
            let slot = Slot {
                version: installed,
                tag: *tag,
                batch,
                val: val.clone(),
            };
            if let Some(old) = r.store.insert(*oid, slot) {
                tag_vers.supersede(&sh.clients.borrow(), *oid, old.tag);
            }
        }
        decided.push((
            t.tx,
            Decision {
                batch,
                at,
                reads: reads_res,
                writes: writes_res,
                observed_batch_max,
            },
        ));
    }
    // Freeze the batch: from here on the job, every wire copy, every
    // replica's log, WAL record and snapshot share these two blocks.
    let writes: Payload<_> = wire_writes.into();
    let decided: DecisionBlock = decided.into();
    // Self-apply: the planner is replica 1 of the quorum, and its writes
    // are already in its store.
    r.take_batch(batch, &writes, &decided, &horizon, sh.view.borrow().epoch);
    sh.tag_vers.borrow_mut().forget(&sh.clients.borrow());
    let mut p = sh.planner.borrow_mut();
    p.outcomes.retain(|tx, _| !horizon.covers(tx));
    p.index_outcomes(&decided);
    Some(BatchJob {
        batch,
        sealed_at,
        writes,
        decided,
        horizon,
    })
}

/// Account the commits of a quorum-acknowledged batch: stats, commit
/// history, and the batch-atomicity check. Deduplicated by transaction id
/// so a takeover that re-promotes an already-acked batch counts nothing
/// twice: an answered client's commit was accounted before the answer, and
/// the rest are remembered until their clients are answered.
pub(crate) fn account_decisions(sh: &Shared, decided: &[(TxId, Decision)]) {
    let clients = sh.clients.borrow();
    for (tx, d) in decided {
        if clients.answered(tx) || !sh.recorded.borrow_mut().insert(*tx) {
            continue;
        }
        sh.stats.borrow_mut().commits += 1;
        check_atomicity(sh, d.batch, d.observed_batch_max);
        let mut history = sh.history.borrow_mut();
        if history.is_enabled() {
            history.push(CommitRecord {
                tx: *tx,
                at: d.at,
                reads: d.reads.clone(),
                writes: d.writes.clone(),
            });
        }
    }
    sh.recorded.borrow_mut().retain(|tx| !clients.answered(tx));
}

/// Answer every held `Submit` of a commit in the batch `decided` from
/// `me`, once (a requeue was answered at its `Submit`).
fn answer_waiters(sh: &Shared, sim: &Sim<QMsg>, me: usize, decided: &[(TxId, Decision)]) {
    let mut p = sh.planner.borrow_mut();
    for (tx, _) in decided {
        if let Some((client, call)) = p.waiting.remove(tx) {
            sim.reply(sh.nodes[me], client, call, ack(TxStatus::Committed));
        }
    }
}

/// No committed transaction may have observed a write from a batch newer
/// than its own, or from one not yet acknowledged.
fn check_atomicity(sh: &Shared, reader: u64, observed: u64) {
    let broken = if observed > reader {
        format!("commit in batch {reader} observed a write from later batch {observed}")
    } else if observed > sh.acked.get() {
        format!("commit in batch {reader} observed unacknowledged batch {observed}")
    } else {
        return;
    };
    sh.atomicity.borrow_mut().push(broken);
}

/// Drive sealed batches to quorum, ack them, and chain straight into the
/// next seal while demand is high. Terminates when the open epoch is
/// empty or young (the armed sealer picks it up), when deposed, or when
/// the planner node dies.
pub(crate) async fn run_batches(sh: Rc<Shared>, sim: Sim<QMsg>, me: usize, first: BatchJob) {
    let mut job = first;
    loop {
        if sh.cfg.injected_bug == Some(QStoreBug::AckBeforeFsync) {
            // Injected bug: acknowledge the epoch the moment it is sealed
            // — before the planner's own fsync completes and before any
            // replica holds it. Waiting clients hear `Committed` now, and
            // the history records it; a planner crash-with-amnesia inside
            // this window loses the epoch everywhere (the record is still
            // in the volatile disk buffer), a durability regression the
            // model checker must catch. Replication still continues below
            // for liveness.
            sh.acked.set(sh.acked.get().max(job.batch));
            account_decisions(&sh, &job.decided);
            answer_waiters(&sh, &sim, me, &job.decided);
        }
        // The planner's own group-commit fsync for this batch (appended
        // at seal; cost-modelled mode charges the configured wal_cost).
        let sync_cost = sh.replicas[me]
            .borrow_mut()
            .group_commit()
            .unwrap_or(sh.cfg.wal_cost);
        sim.sleep(sync_cost).await;
        let maj = majority(sh.cfg.nodes);
        let mut acked: IdSet<usize> = IdSet::from_iter([me]);
        loop {
            if !sh.leads(&sim, me) {
                return; // deposed mid-replication; takeover owns the rest
            }
            if acked.len() >= maj {
                break;
            }
            let (targets, view_epoch) = {
                let v = sh.view.borrow();
                let targets: Vec<NodeId> = v
                    .members()
                    .filter(|i| !acked.contains(i))
                    .map(|i| sh.nodes[i])
                    .collect();
                (targets, v.epoch)
            };
            if targets.is_empty() {
                sim.sleep(sh.cfg.backoff).await;
                continue;
            }
            let res = sim
                .call(
                    sh.nodes[me],
                    &targets,
                    QMsg::ApplyBatch {
                        batch: job.batch,
                        view: view_epoch,
                        writes: Rc::clone(&job.writes),
                        decided: Rc::clone(&job.decided),
                        horizon: job.horizon.clone(),
                    },
                    Some(sh.cfg.rpc_timeout),
                )
                .await;
            let mut lagging: Vec<usize> = Vec::new();
            for (node, reply) in &res.replies {
                let idx = node.index();
                match reply {
                    QMsg::ApplyAck { ok: true, .. } => {
                        acked.insert(idx);
                    }
                    QMsg::ApplyAck { ok: false, applied } if *applied + 1 < job.batch => {
                        lagging.push(idx);
                    }
                    _ => {}
                }
            }
            // Gap-nacked replicas get the full committed state, one call
            // each.
            for idx in lagging {
                if !sh.push_full_sync(&sim, me, &[idx]).await.is_empty() {
                    acked.insert(idx);
                }
            }
            if acked.len() < maj {
                sh.pause(&sim).await;
            }
        }
        // Quorum reached: acknowledge the whole epoch at once.
        sh.planner.borrow_mut().sealing = false;
        sh.acked.set(sh.acked.get().max(job.batch));
        {
            let mut st = sh.stats.borrow_mut();
            st.batches += 1;
            st.batch_txns += job.decided.len() as u64;
        }
        sh.epoch_lat
            .borrow_mut()
            .push((sim.now() - job.sealed_at).as_nanos());
        account_decisions(&sh, &job.decided);
        answer_waiters(&sh, &sim, me, &job.decided);
        // Chain into the next epoch if it is already ripe.
        let ripe = {
            let p = sh.planner.borrow();
            !p.open.is_empty()
                && (p.open.len() >= sh.cfg.batch_size
                    || sim.now() - p.opened_at >= sh.cfg.epoch_timeout)
        };
        if !ripe {
            return;
        }
        match seal(&sh, &sim, me) {
            Some(next) => job = next,
            None => return,
        }
    }
}

/// One-shot epoch-timeout sealer, armed when an epoch first opens. Waits
/// out `epoch_timeout` once, then seals unless the epoch was already sealed
/// (batch-full trigger or replication chaining). While an earlier batch
/// still replicates `seal` declines, and `run_batches` seals this epoch at
/// that batch's quorum ack: by then it is older than `epoch_timeout`.
pub(crate) async fn sealer(sh: Rc<Shared>, sim: Sim<QMsg>, me: usize, my_batch: u64) {
    sim.sleep(sh.cfg.epoch_timeout).await;
    if !sh.leads(&sim, me) || sh.replicas[me].borrow().applied >= my_batch {
        return;
    }
    if let Some(job) = seal(&sh, &sim, me) {
        run_batches(sh, sim, me, job).await;
    }
}

/// New-planner takeover: pull applied high-water marks from enough
/// replicas to be certain of seeing every quorum-acknowledged batch,
/// adopt the longest prefix (charged as a state transfer), re-replicate
/// it until a majority holds it, and only then promote it to
/// acknowledged, rebuild the planner state, and push catch-up syncs to
/// lagging replicas. The deposed planner's open epoch is lost by design;
/// clients re-submit and are replanned from acknowledged state.
pub(crate) async fn takeover(sh: Rc<Shared>, sim: Sim<QMsg>, me: usize) {
    // A batch applied on a majority has at most `nodes - majority`
    // non-holders; observing self plus `nodes - majority` others
    // guarantees a holder is seen.
    let need_others = sh.cfg.nodes - majority(sh.cfg.nodes);
    let infos: Vec<(u64, usize)> = loop {
        if !sh.leads(&sim, me) {
            return;
        }
        let targets: Vec<NodeId> = sh
            .view
            .borrow()
            .members()
            .filter(|&i| i != me)
            .map(|i| sh.nodes[i])
            .collect();
        let res = sim
            .call(
                sh.nodes[me],
                &targets,
                QMsg::SyncPull,
                Some(sh.cfg.rpc_timeout),
            )
            .await;
        let infos: Vec<(u64, usize)> = res
            .replies
            .iter()
            .filter_map(|(node, m)| match m {
                QMsg::SyncInfo { applied } => Some((*applied, node.index())),
                _ => None,
            })
            .collect();
        if infos.len() >= need_others {
            break infos;
        }
        sh.pause(&sim).await;
    };
    let my_applied = sh.replicas[me].borrow().applied;
    let best = infos.iter().copied().max().unwrap_or((my_applied, me));
    if best.0 > my_applied {
        // Charged state transfer from the most advanced replica.
        sim.sleep(sh.cfg.transfer_cost).await;
        if !sh.leads(&sim, me) {
            return;
        }
        let log_cost = {
            let state = sh.replicas[best.1].borrow().snapshot_state();
            let mut r = sh.replicas[me].borrow_mut();
            r.install(state, sh.view.borrow().epoch);
            // The adopted prefix is durable on the new planner before
            // anything is promoted: one state-sized snapshot. The old
            // planner's unsynced tail (if this node was the planner's
            // successor-by-disk) was already lost at its crash.
            r.log_full_state(SimDuration::ZERO)
        };
        sim.occupy(sh.nodes[me], log_cost);
    }
    let adopted = sh.replicas[me].borrow().applied;
    // The tail of the adopted prefix may have reached fewer than a
    // majority before the old planner died (only quorum-acked batches
    // are guaranteed durable; adopted-but-unacked ones are not).
    // Nothing from it may be acknowledged — not the acked set, not
    // stats/history, not a client-visible `Committed` — until the
    // whole prefix is durable on a majority counting this planner,
    // so push FullSync to lagging replicas until enough hold it.
    let maj = majority(sh.cfg.nodes);
    let mut holders: IdSet<usize> = IdSet::from_iter([me]);
    for (applied, idx) in &infos {
        if *applied >= adopted {
            holders.insert(*idx);
        }
    }
    let lagging = |holders: &IdSet<usize>| -> Vec<usize> {
        let view = sh.view.borrow();
        view.members().filter(|i| !holders.contains(i)).collect()
    };
    while holders.len() < maj {
        if !sh.leads(&sim, me) {
            return;
        }
        for (idx, applied) in sh.push_full_sync(&sim, me, &lagging(&holders)).await {
            if applied >= adopted {
                holders.insert(idx);
            }
        }
        if holders.len() < maj {
            sh.pause(&sim).await;
        }
    }
    sh.acked.set(sh.acked.get().max(adopted));
    // Promote adopted decisions: batches the dead planner replicated
    // but never acknowledged are now majority-durable (re-replicated
    // above), so their commits are counted and recorded exactly once,
    // in apply order. The same walk rebuilds the outcome index above the
    // adopted horizon.
    let horizon = sh.replicas[me].borrow().horizon.clone();
    let mut planner = PlannerState::fresh(horizon);
    for block in sh.replicas[me].borrow().decided.iter() {
        account_decisions(&sh, block);
        planner.index_outcomes(block);
    }
    *sh.planner.borrow_mut() = planner;
    // Best-effort catch-up push to any replica still behind; the
    // per-batch gap repair finishes the job if this races new traffic.
    sh.push_full_sync(&sim, me, &lagging(&holders)).await;
}

/// Push the committed prefix from the planner to a freshly recovered
/// replica (retried a few times; the per-batch gap repair takes over if
/// this loses the race with new traffic).
pub(crate) async fn catch_up(sh: Rc<Shared>, sim: Sim<QMsg>, planner_idx: usize, node_idx: usize) {
    for _ in 0..5 {
        {
            let v = sh.view.borrow();
            if v.planner != planner_idx || !v.alive[planner_idx] || !v.alive[node_idx] {
                return;
            }
        }
        if !sh.planner.borrow().ready {
            sim.sleep(sh.cfg.backoff).await;
            continue;
        }
        if sh.replicas[node_idx].borrow().applied >= sh.replicas[planner_idx].borrow().applied {
            return;
        }
        let synced = sh.push_full_sync(&sim, planner_idx, &[node_idx]).await;
        if !synced.is_empty() {
            return;
        }
        sh.pause(&sim).await;
    }
}

/// Amnesiac crash of `idx`'s replica: wipe the volatile state and crash
/// the disk (a seeded portion of the unsynced buffer survives, possibly
/// with a torn last record). Requires durability.
pub(crate) fn forget_replica(sh: &Shared, sim: &Sim<QMsg>, idx: usize) {
    let mut r = sh.replicas[idx].borrow_mut();
    assert!(
        r.wal.is_some(),
        "crash-amnesia requires QStoreConfig::durability"
    );
    r.store.clear();
    r.decided = DecisionLog::default();
    r.horizon = Horizon::default();
    r.applied = 0;
    r.last_apply_epoch = 0;
    sim.with_rng(|rng| r.wal.as_mut().unwrap().crash(rng));
    r.amnesiac = true;
}

/// Honest recovery of an amnesiac replica — the Q-Store face of the same
/// replay → census → pull → re-baseline shape QR's quorum repair uses
/// (accounted through the shared [`repair`] helpers):
///
/// 1. **Replay**: read snapshot + fsynced batch prefix back, truncating
///    at a torn record — whole batches drop, never part of one — and
///    install what it folds to.
/// 2. **Epoch repair**: census the quorum-acknowledged epoch frontier
///    from the planner's replica (authoritative for the acked prefix;
///    most-advanced alive peer during a takeover gap) and install its
///    state whole: store, decision log and client watermarks. Charged one
///    census round trip plus one nominal link latency per slot the install
///    rewrites — each whose write tag differs from the donor's, since a
///    batch replayed here but never acknowledged can share versions with
///    the one the next reign committed under the same id. A replayed
///    prefix that runs *ahead* of the frontier is charged every object.
/// 3. **Re-baseline**: snapshot the repaired state so the disk is caught
///    up too.
///
/// Returns the total occupancy to charge the restarting node.
pub(crate) fn amnesia_recovery(sh: &Shared, sim: &Sim<QMsg>, idx: usize) -> SimDuration {
    let (records_replayed, torn_tail_detected, mut cost) = {
        let mut r = sh.replicas[idx].borrow_mut();
        let img = r
            .wal
            .as_mut()
            .expect("amnesiac replica implies durability")
            .replay();
        r.install(fold(img.snapshot, img.records), 0);
        (img.records_replayed, img.torn_tail_detected, img.cost)
    };
    repair::account_wal_replay(sim, sh.nodes[idx], records_replayed, torn_tail_detected);
    let donor_idx = {
        let v = sh.view.borrow();
        let usable = |i: usize| i != idx && v.alive[i] && sim.is_alive(sh.nodes[i]);
        if usable(v.planner) {
            Some(v.planner)
        } else {
            (0..sh.cfg.nodes)
                .filter(|&i| usable(i))
                .max_by_key(|&i| (sh.replicas[i].borrow().applied, std::cmp::Reverse(i)))
        }
    };
    let mut repaired = 0u64;
    let mut bytes = 0u64;
    if let Some(d) = donor_idx {
        let donor = sh.replicas[d].borrow();
        let mut r = sh.replicas[idx].borrow_mut();
        let ahead = r.applied > donor.applied;
        let rewritten = donor
            .store
            .iter()
            .filter(|(oid, ds)| ahead || r.store.get(oid).is_none_or(|s| s.tag != ds.tag));
        for (_, ds) in rewritten {
            repaired += 1;
            bytes += ds.val.approx_size() as u64;
        }
        r.install(donor.snapshot_state(), 0);
    }
    cost += repair::charge_quorum_repair(
        sim,
        sh.nodes[idx],
        repaired,
        bytes,
        sh.cfg.latency.nominal(),
    );
    {
        let mut r = sh.replicas[idx].borrow_mut();
        cost += r.log_full_state(SimDuration::ZERO);
        r.amnesiac = false;
    }
    cost
}
