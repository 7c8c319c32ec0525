//! `qrdtm-qstore` — queue-oriented speculative batching, the sixth
//! [`DtmProtocol`] family.
//!
//! Follows *Highly Available Queue-oriented Speculative Transaction
//! Processing* (Qadah & Sadoghi; see PAPERS.md): instead of paying a
//! quorum round-trip per transaction like the QR family, a **planner**
//! assigns incoming transactions to **epochs** (batches) and splits
//! their writes into per-object operation queues with a deterministic
//! intra-queue order (planner-assigned *write tags*). **Executors** —
//! every replica, each the home of a hash slice of the object space —
//! serve reads from the speculative head of their queues, so a
//! transaction that reads a queued-but-uncommitted write is ordered
//! *after* the writer by the planner instead of aborting against it.
//! At the epoch boundary the planner validates the batch in assigned
//! order, replicates it with **one group-committed WAL record per
//! replica per batch**, and acknowledges the whole epoch at once —
//! nothing is reported committed before its batch is durable on a
//! majority.
//!
//! Fault model: crash-stop plus, with [`QStoreConfig::durability`],
//! crash-restart-with-amnesia — each replica keeps a real batch-granular
//! WAL on the simulated disk (one appended+fsynced record per epoch per
//! replica; a torn tail drops whole batches atomically on replay) and an
//! amnesiac restart replays the fsynced prefix, then repairs the rest
//! from the quorum-acknowledged epoch frontier. Membership is driven
//! either by the oracle (tests and the nemesis call
//! [`QStoreCluster::crash_node`] & co. directly) or, with
//! [`QStoreConfig::detector`], by the same heartbeat failure detector
//! the QR family uses — a silent planner is suspected, ejected, and
//! failed over ([`QStoreCluster::start_detector`]). The planner is
//! sticky; when it dies, the lowest alive node pulls applied high-water
//! marks from enough replicas to see every acknowledged batch, adopts
//! the longest prefix (charged state transfer), re-replicates it to a
//! majority, and replans from acknowledged state — the dead planner's
//! open epoch is lost by design and clients resubmit into it.

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use qrdtm_core::history::{verify, Violation};
use qrdtm_core::{
    spawn_detector_on, Abort, DetectorConfig, DetectorHandle, DtmProtocol, DurabilityConfig,
    HistoryRecorder, LatencySpec, Membership, ObjVal, ObjectId, Payload, ProtocolStats, SimHosted,
    TxId, Version, Wal,
};
use qrdtm_sim::{NodeId, Sim, SimConfig, SimDuration};

mod core;
mod msg;
mod wal;

pub use crate::core::QStoreStats;
pub use msg::{Decision, DecisionBlock, DecisionLog, Horizon, QMsg, TxStatus};

use crate::core::{
    amnesia_recovery, catch_up, forget_replica, install_handlers, install_writes, majority,
    takeover, PlannerState, QView, ReplicaState, Shared,
};
use crate::wal::BatchRecord;

/// Protocol bugs that can be injected for model-checker validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QStoreBug {
    /// The planner skips read-tag validation at the epoch seal, so stale
    /// reads commit — classic lost updates the mc battery must catch.
    SkipTagCheck,
    /// The planner acknowledges an epoch the moment it is sealed — before
    /// its own group-commit fsync and before any replica's — so a planner
    /// crash-with-amnesia in that window loses an epoch clients already
    /// saw committed: the durability regression the mc battery must catch.
    AckBeforeFsync,
}

/// Configuration for a Q-Store cluster.
#[derive(Clone, Debug)]
pub struct QStoreConfig {
    /// Replica count (every node is an executor for a hash slice of the
    /// object space; node 0 starts as planner).
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Link latency (same network as the QR comparisons).
    pub latency: LatencySpec,
    /// Base message service time.
    pub service_time: SimDuration,
    /// Seal the open epoch early once it holds this many transactions.
    pub batch_size: usize,
    /// Seal the open epoch at the latest this long after it opens.
    pub epoch_timeout: SimDuration,
    /// Client wait before the first outcome poll after a submission.
    pub poll_initial: SimDuration,
    /// Interval between outcome polls.
    pub poll_interval: SimDuration,
    /// Timeout on every RPC (liveness under crashes and partitions).
    pub rpc_timeout: SimDuration,
    /// Base retry/requeue backoff.
    pub backoff: SimDuration,
    /// Cost of one group-committed WAL record + fsync.
    pub wal_cost: SimDuration,
    /// Charged state-transfer cost for planner takeover adoption.
    pub transfer_cost: SimDuration,
    /// Durable storage: give every replica a real batch-granular WAL on
    /// the simulated disk instead of the cost-modelled `wal_cost` charge,
    /// enabling crash-restart-with-amnesia. `None` = cost-modelled mode
    /// (a crash is a pause; memory survives).
    pub durability: Option<DurabilityConfig>,
    /// Heartbeat failure detection: when set,
    /// [`QStoreCluster::start_detector`] drives the membership view (and
    /// planner failover) from missed heartbeats instead of the oracle.
    pub detector: Option<DetectorConfig>,
    /// Injected protocol bug (mc validation only).
    pub injected_bug: Option<QStoreBug>,
}

impl Default for QStoreConfig {
    fn default() -> Self {
        QStoreConfig {
            nodes: 10,
            seed: 1,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            service_time: SimDuration::from_micros(200),
            batch_size: 16,
            epoch_timeout: SimDuration::from_millis(3),
            poll_initial: SimDuration::from_millis(25),
            poll_interval: SimDuration::from_millis(5),
            rpc_timeout: SimDuration::from_millis(120),
            backoff: SimDuration::from_millis(2),
            wal_cost: SimDuration::from_micros(300),
            transfer_cost: SimDuration::from_millis(3),
            durability: None,
            detector: None,
            injected_bug: None,
        }
    }
}

/// While a client's own node is down it idles at this granularity
/// before re-checking aliveness.
const IDLE: SimDuration = SimDuration::from_millis(20);

/// A Q-Store cluster: one sticky planner, fully replicated executors,
/// batch-atomic group commit.
pub struct QStoreCluster {
    sim: Sim<QMsg>,
    shared: Rc<Shared>,
}

impl QStoreCluster {
    /// Build a cluster and install the planner/executor handlers.
    pub fn new(cfg: QStoreConfig) -> Self {
        assert!(cfg.nodes >= 3, "need a meaningful majority");
        let cfg = QStoreConfig {
            batch_size: cfg.batch_size.max(1),
            ..cfg
        };
        let mut service_by_class = [None; qrdtm_sim::MAX_CLASSES];
        // Batch installation scans the whole record: heavier than a vote.
        service_by_class[5] = Some(cfg.service_time * 2);
        let sim: Sim<QMsg> = Sim::new(SimConfig {
            seed: cfg.seed,
            latency: cfg.latency.build(cfg.nodes, cfg.seed),
            service_time: cfg.service_time,
            service_by_class,
        });
        let nodes = sim.add_nodes(cfg.nodes);
        let shared = Rc::new(Shared {
            nodes,
            view: RefCell::new(QView {
                alive: vec![true; cfg.nodes],
                planner: 0,
                epoch: 0,
            }),
            planner: RefCell::new(PlannerState::fresh(0, Horizon::default())),
            replicas: (0..cfg.nodes)
                .map(|_| {
                    Rc::new(RefCell::new(ReplicaState {
                        wal: cfg.durability.map(Wal::new),
                        ..Default::default()
                    }))
                })
                .collect(),
            stats: RefCell::new(QStoreStats::default()),
            history: RefCell::new(HistoryRecorder::default()),
            recorded: RefCell::default(),
            requeue_seen: RefCell::default(),
            acked: Cell::new(0),
            atomicity: RefCell::new(Vec::new()),
            epoch_lat: RefCell::new(Vec::new()),
            tag_vers: RefCell::default(),
            clients: RefCell::default(),
            cfg,
        });
        install_handlers(&sim, &shared);
        QStoreCluster { sim, shared }
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Sim<QMsg> {
        &self.sim
    }

    /// The configuration the cluster was built with (`batch_size` at
    /// least 1).
    pub fn config(&self) -> &QStoreConfig {
        &self.shared.cfg
    }

    /// Install an object on every replica (bootstrap; tag 0 = preload,
    /// batch 0 is acknowledged by definition).
    pub fn preload(&self, oid: ObjectId, val: ObjVal) {
        self.shared
            .tag_vers
            .borrow_mut()
            .insert(oid, 0, Version::INITIAL);
        let record = BatchRecord {
            batch: 0,
            writes: [(oid, Version::INITIAL, 0, val.clone())].into(),
            decided: DecisionBlock::default(),
            horizon: Horizon::default(),
        };
        for r in &self.shared.replicas {
            let mut r = r.borrow_mut();
            install_writes(&mut r.store, 0, &record.writes);
            if let Some(w) = r.wal.as_mut() {
                w.preload(record.clone());
            }
        }
    }

    /// Newest committed `(version, value)` across all replicas.
    pub fn latest(&self, oid: ObjectId) -> Option<(Version, ObjVal)> {
        self.shared
            .replicas
            .iter()
            .filter_map(|r| {
                r.borrow()
                    .store
                    .get(&oid)
                    .map(|s| (s.version, s.val.clone()))
            })
            .max_by_key(|(v, _)| *v)
    }

    /// Run statistics.
    pub fn stats(&self) -> QStoreStats {
        self.shared.stats.borrow().clone()
    }

    /// Total `(WAL records, WAL fsyncs)` across all replicas — the group
    /// commit claim is `fsyncs ≈ batches ≪ transactions`.
    pub fn wal_totals(&self) -> (u64, u64) {
        self.shared
            .replicas
            .iter()
            .map(|r| {
                let r = r.borrow();
                (r.wal_records, r.wal_fsyncs)
            })
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    }

    /// Seal-to-quorum-acknowledgement latency of every batch, in ns.
    pub fn epoch_latencies(&self) -> Vec<u64> {
        self.shared.epoch_lat.borrow().clone()
    }

    /// Start recording the commit history (call it on a fresh cluster).
    pub fn begin_history(&self) {
        self.shared.history.borrow_mut().enable();
    }

    /// The recorded commit history.
    pub fn history(&self) -> Vec<qrdtm_core::CommitRecord> {
        self.shared.history.borrow().records().to_vec()
    }

    /// Replay the recorded history through the serializability auditor.
    pub fn verify_history(&self) -> Vec<Violation> {
        verify(self.shared.history.borrow().records())
    }

    /// Batch-atomicity check: no committed transaction may have observed
    /// a write from an epoch that is not (transitively) acknowledged —
    /// i.e. every observed write batch must be no newer than the
    /// reader's own batch, and acknowledged. Checked as each commit is
    /// accounted.
    pub fn batch_atomicity_violations(&self) -> Vec<String> {
        self.shared.atomicity.borrow().clone()
    }

    /// Remove `idx` from the view: epoch bump (fencing), planner handoff
    /// plus an epoch-fenced takeover when the planner died. Refused when
    /// the survivors could not form a majority. View-only — the network
    /// is not touched, which is exactly what detector ejection needs.
    fn evict_from_view(&self, idx: usize) -> bool {
        let new_planner = {
            let mut v = self.shared.view.borrow_mut();
            if idx >= v.alive.len() || !v.alive[idx] {
                return false;
            }
            let alive_count = v.alive.iter().filter(|a| **a).count();
            if alive_count - 1 < majority(self.config().nodes) {
                return false;
            }
            v.alive[idx] = false;
            v.epoch += 1;
            if v.planner == idx {
                let np = v.alive.iter().position(|&a| a).expect("majority alive");
                v.planner = np;
                Some(np)
            } else {
                None
            }
        };
        if let Some(np) = new_planner {
            self.shared.planner.borrow_mut().ready = false;
            let sh = Rc::clone(&self.shared);
            let sim = self.sim.clone();
            self.sim.spawn(async move {
                takeover(sh, sim, np).await;
            });
        }
        true
    }

    /// Readmit `idx` to the view. An amnesiac replica first runs the
    /// honest recovery pipeline — replay the fsynced prefix, repair from
    /// the quorum frontier, re-snapshot — and is charged its cost as
    /// occupancy; a memory-intact one only discards speculation. Either
    /// way the planner then pushes the committed suffix it missed.
    /// Returns the charged recovery cost.
    fn readmit(&self, idx: usize) -> SimDuration {
        let amnesiac = self.shared.replicas[idx].borrow().amnesiac;
        let cost = if amnesiac {
            amnesia_recovery(&self.shared, &self.sim, idx)
        } else {
            SimDuration::ZERO
        };
        let planner_idx = {
            let mut v = self.shared.view.borrow_mut();
            v.alive[idx] = true;
            v.epoch += 1;
            v.planner
        };
        self.shared.replicas[idx].borrow_mut().spec.clear();
        if cost > SimDuration::ZERO {
            self.sim.occupy(self.shared.nodes[idx], cost);
        }
        let sh = Rc::clone(&self.shared);
        let sim = self.sim.clone();
        self.sim.spawn(async move {
            catch_up(sh, sim, planner_idx, idx).await;
        });
        cost
    }

    /// Crash-stop `node` through the membership oracle. Refused when the
    /// remaining nodes could not form a majority. If the planner died,
    /// the lowest alive node takes over and replans from acknowledged
    /// state.
    pub fn crash_node(&self, node: NodeId) -> bool {
        if !self.evict_from_view(node.index()) {
            return false;
        }
        self.sim.fail_node(node);
        true
    }

    /// Crash `node` *and wipe its memory*: only the durable disk image
    /// (snapshot + fsynced batch prefix, possibly with a torn tail)
    /// survives into the next
    /// [`recover_crashed_node`](Self::recover_crashed_node). Requires
    /// [`QStoreConfig::durability`]. Refused under the same majority rule
    /// as [`crash_node`](Self::crash_node).
    pub fn crash_node_amnesia(&self, node: NodeId) -> bool {
        if !self.crash_node(node) {
            return false;
        }
        forget_replica(&self.shared, &self.sim, node.index());
        true
    }

    /// Recover a crashed node; an amnesiac one replays its durable disk
    /// image and repairs from the quorum frontier first, then the planner
    /// pushes it the committed suffix it missed.
    pub fn recover_crashed_node(&self, node: NodeId) -> bool {
        let idx = node.index();
        {
            let v = self.shared.view.borrow();
            if idx >= v.alive.len() || v.alive[idx] {
                return false;
            }
        }
        self.sim.recover_node(node);
        self.readmit(idx);
        true
    }

    /// Start the heartbeat failure detector (requires
    /// [`QStoreConfig::detector`]). The QR family's detector, driving this
    /// cluster's view through [`Membership`]: one task reads the
    /// observation matrix, keeps the largest bidirectionally-fresh
    /// component, ejects outsiders (planner ejection triggers the fenced
    /// takeover) and rejoins nodes that are heard again — an amnesiac
    /// joiner's charged replay+repair cost extends its grace window.
    /// Returns a handle whose `stop()` halts detection.
    pub fn start_detector(self: &Rc<Self>) -> DetectorHandle {
        assert!(
            self.config().detector.is_some(),
            "start_detector requires QStoreConfig::detector"
        );
        spawn_detector_on(Rc::clone(self), self.sim.clone())
    }

    /// Every group-commit fsync latency sampled across all replica disks,
    /// in node order, ns — the telemetry behind the benchmark's
    /// `sim.disk.fsync_p50_vus` / `sim.disk.fsync_p99_vus`. Empty in
    /// cost-modelled mode.
    pub fn fsync_latencies(&self) -> Vec<u64> {
        self.shared
            .replicas
            .iter()
            .flat_map(|r| {
                r.borrow()
                    .wal
                    .as_ref()
                    .map(|w| w.sync_latencies().to_vec())
                    .unwrap_or_default()
            })
            .collect()
    }

    fn fresh_handle(&self, node: NodeId, requeues: u32) -> QStoreTxHandle {
        QStoreTxHandle {
            node,
            id: self.shared.clients.borrow_mut().begin(node.0),
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            requeues,
        }
    }

    /// One client request from `node`: idle while `node` itself is down,
    /// then make one call with `rpc_timeout` to the replica `route` picks
    /// from the current view, along with the message. Returns the reply,
    /// if one came back in time.
    async fn request(
        &self,
        node: NodeId,
        route: impl FnOnce(&QView) -> (usize, QMsg),
    ) -> Option<QMsg> {
        while !self.sim.is_alive(node) {
            self.sim.sleep(IDLE).await;
        }
        let (target, msg) = route(&self.shared.view.borrow());
        let to = [self.shared.nodes[target]];
        let timeout = Some(self.config().rpc_timeout);
        let res = self.sim.call(node, &to, msg, timeout).await;
        res.replies.into_iter().next().map(|(_, reply)| reply)
    }

    /// Send `msg` (a `Submit` or `Poll`) to the planner the view names and
    /// return the status it answered, if it answered in time.
    async fn ask_planner(&self, node: NodeId, msg: QMsg) -> Option<TxStatus> {
        match self.request(node, |view| (view.planner, msg)).await {
            Some(QMsg::SubmitAck {
                status: TxStatus::Settled,
            }) => unreachable!("the planner settled a transaction its client still awaits"),
            Some(QMsg::SubmitAck { status }) => Some(status),
            _ => None,
        }
    }

    /// The watermark of `tx`'s node, for the message about to carry it.
    fn watermark(&self, tx: &TxId) -> u64 {
        self.shared.clients.borrow().watermark(tx.node)
    }

    /// Resolve one read: speculative from the object's home executor,
    /// or authoritative from the planner's committed store once an
    /// attempt has been requeued twice (the speculative chain it keeps
    /// reading may be stale on a lagging executor). An object absent
    /// everywhere resolves as the implicit preload — tag 0 and
    /// [`ObjVal::Unit`] — matching the seal's validation default, so
    /// reads of never-written objects terminate instead of retrying
    /// forever.
    async fn read_remote(&self, node: NodeId, oid: ObjectId, authoritative: bool) -> (u64, ObjVal) {
        let mut attempt = 0u32;
        loop {
            let auth = authoritative || attempt >= 2;
            let route = |view: &QView| {
                if auth {
                    (view.planner, QMsg::ReadCommitted { oid })
                } else {
                    (view.home(oid), QMsg::Read { oid })
                }
            };
            match self.request(node, route).await {
                Some(QMsg::ReadOk { tag, val }) => return (tag, val),
                Some(QMsg::ReadMiss) => return (0, ObjVal::Unit),
                _ => {}
            }
            attempt += 1;
            self.shared.pause(&self.sim).await;
        }
    }

    /// Submit the attempt and drive it to an acknowledged outcome.
    /// Submission is idempotent per `TxId`: timeouts retransmit, polls
    /// interrogate, and a planner that lost the transaction (its open
    /// epoch died with it) reports `Unknown`, which re-submits.
    async fn commit_handle(&self, tx: &QStoreTxHandle) -> Result<(), Abort> {
        if tx.reads.is_empty() && tx.writes.is_empty() {
            return Ok(());
        }
        // Built once per attempt: a retransmission shares both payloads.
        let reads: Payload<_> = tx.reads.iter().map(|(o, (t, _))| (*o, *t)).collect();
        let writes: Payload<_> = tx.writes.iter().map(|(o, v)| (*o, v.clone())).collect();
        loop {
            let submit = QMsg::Submit {
                tx: tx.id,
                watermark: self.watermark(&tx.id),
                reads: Rc::clone(&reads),
                writes: Rc::clone(&writes),
            };
            match self.ask_planner(tx.node, submit).await {
                Some(TxStatus::Committed) => return Ok(()),
                Some(TxStatus::Requeued) => return Err(Abort::root()),
                Some(TxStatus::Pending | TxStatus::Busy) => {
                    self.sim.sleep(self.config().poll_initial).await;
                    if self.poll_outcome(tx).await? {
                        return Ok(());
                    }
                    // Unknown: fall through to re-submit.
                }
                _ => self.shared.pause(&self.sim).await,
            }
        }
    }

    /// Poll until the transaction resolves. `Ok(true)` = committed,
    /// `Err` = requeued, `Ok(false)` = the planner lost it (re-submit).
    async fn poll_outcome(&self, tx: &QStoreTxHandle) -> Result<bool, Abort> {
        loop {
            let poll = QMsg::Poll {
                tx: tx.id,
                watermark: self.watermark(&tx.id),
            };
            match self.ask_planner(tx.node, poll).await {
                Some(TxStatus::Committed) => return Ok(true),
                Some(TxStatus::Requeued) => return Err(Abort::root()),
                Some(TxStatus::Unknown) => return Ok(false),
                _ => self.sim.sleep(self.config().poll_interval).await,
            }
        }
    }
}

/// An in-flight Q-Store transaction: tag-stamped reads and buffered
/// writes, driven through the [`DtmProtocol`] methods.
pub struct QStoreTxHandle {
    node: NodeId,
    id: TxId,
    /// `object -> (write tag observed, value)`.
    reads: BTreeMap<ObjectId, (u64, ObjVal)>,
    writes: BTreeMap<ObjectId, ObjVal>,
    /// Consecutive requeues of this logical transaction; after two, reads
    /// switch to the planner's authoritative store.
    requeues: u32,
}

/// The planner view is the cluster's [`Membership`]: the oracle verbs are
/// [`QStoreCluster::crash_node`] / [`QStoreCluster::recover_crashed_node`].
impl Membership for QStoreCluster {
    fn node_count(&self) -> usize {
        self.config().nodes
    }
    fn view_alive(&self, node: NodeId) -> bool {
        self.shared
            .view
            .borrow()
            .alive
            .get(node.index())
            .copied()
            .unwrap_or(false)
    }
    fn view_epoch(&self) -> u64 {
        self.shared.view.borrow().epoch
    }
    fn crash(&self, node: NodeId) -> bool {
        self.crash_node(node)
    }
    fn recover(&self, node: NodeId) -> bool {
        self.recover_crashed_node(node)
    }
    fn eject(&self, node: NodeId) -> bool {
        self.evict_from_view(node.index())
    }
    /// Amnesiacs go through the replay+repair pipeline; the returned grace
    /// is at least the configured transfer cost.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration> {
        if self.view_alive(node) || node.index() >= self.config().nodes {
            return None;
        }
        Some(self.readmit(node.index()).max(self.config().transfer_cost))
    }
    fn survives_without(&self, node: NodeId) -> bool {
        let others = (0..self.config().nodes as u32)
            .map(NodeId)
            .filter(|&n| n != node && self.sim.is_alive(n))
            .count();
        others >= majority(self.config().nodes)
    }
    fn durable(&self) -> bool {
        self.config().durability.is_some()
    }
    fn forget(&self, node: NodeId) {
        forget_replica(&self.shared, &self.sim, node.index());
    }
    /// Each corrupted record drops a whole batch on the next amnesiac
    /// replay.
    fn corrupt_tail(&self, node: NodeId) -> bool {
        let mut r = self.shared.replicas[node.index()].borrow_mut();
        r.wal.as_mut().is_some_and(|w| w.corrupt_tail(1))
    }
}

impl DtmProtocol for QStoreCluster {
    type TxHandle = QStoreTxHandle;

    fn protocol_name(&self) -> &'static str {
        "Q-Store"
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        QStoreCluster::preload(self, oid, val);
    }

    fn begin(&self, node: NodeId) -> QStoreTxHandle {
        self.fresh_handle(node, 0)
    }

    async fn read(&self, tx: &mut QStoreTxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        if let Some(val) = tx.writes.get(&oid) {
            return Ok(val.clone());
        }
        if let Some((_, val)) = tx.reads.get(&oid) {
            return Ok(val.clone());
        }
        let (tag, val) = self.read_remote(tx.node, oid, tx.requeues >= 2).await;
        tx.reads.insert(oid, (tag, val.clone()));
        Ok(val)
    }

    async fn write(
        &self,
        tx: &mut QStoreTxHandle,
        oid: ObjectId,
        val: ObjVal,
    ) -> Result<(), Abort> {
        tx.writes.insert(oid, val);
        Ok(())
    }

    async fn commit(&self, tx: &mut QStoreTxHandle) -> Result<(), Abort> {
        let outcome = self.commit_handle(tx).await;
        self.shared.clients.borrow_mut().settle(&tx.id);
        outcome
    }

    async fn restart(&self, tx: &mut QStoreTxHandle, _abort: Abort) {
        // Requeues are counted as aborts at the planner decision; here the
        // client just backs off and starts a fresh attempt. An attempt that
        // aborted before its commit was never submitted: it settles here.
        self.shared.clients.borrow_mut().settle(&tx.id);
        let d = self.config().backoff.mul_f64(self.sim.jitter(0.5, 2.0));
        self.sim.charge(d).await;
        *tx = self.fresh_handle(tx.node, tx.requeues + 1);
    }

    fn protocol_stats(&self) -> ProtocolStats {
        let s = self.shared.stats.borrow();
        ProtocolStats {
            commits: s.commits,
            aborts: s.aborts,
        }
    }

    fn reset_protocol_stats(&self) {
        *self.shared.stats.borrow_mut() = QStoreStats::default();
        self.shared.epoch_lat.borrow_mut().clear();
    }
}

/// The cluster owns its simulation: dropping it runs [`Sim::shutdown`].
impl Drop for QStoreCluster {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}

impl SimHosted for QStoreCluster {
    type Msg = QMsg;

    fn sim(&self) -> &Sim<QMsg> {
        QStoreCluster::sim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qrdtm_core::{atomically, crash_sim_only, recover_sim_only};

    const ACCOUNTS: u64 = 8;
    const INITIAL: i64 = 100;

    fn cluster_with(cfg: QStoreConfig) -> Rc<QStoreCluster> {
        let c = Rc::new(QStoreCluster::new(cfg));
        for i in 0..ACCOUNTS {
            c.preload(ObjectId(i), ObjVal::Int(INITIAL));
        }
        c
    }

    fn cluster(seed: u64) -> Rc<QStoreCluster> {
        cluster_with(QStoreConfig {
            seed,
            ..Default::default()
        })
    }

    async fn transfer(c: &QStoreCluster, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
        atomically(c, node, async |h| {
            let a = c.read(h, from).await?.expect_int();
            let b = c.read(h, to).await?.expect_int();
            c.write(h, from, ObjVal::Int(a - amount)).await?;
            c.write(h, to, ObjVal::Int(b + amount)).await
        })
        .await
    }

    fn total(c: &QStoreCluster) -> i64 {
        (0..ACCOUNTS)
            .map(|i| c.latest(ObjectId(i)).unwrap().1.expect_int())
            .sum()
    }

    #[test]
    fn transfer_commits_and_replicates() {
        let c = cluster(7);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&c2, NodeId(3), ObjectId(1), ObjectId(2), 40).await;
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(1)).unwrap().1, ObjVal::Int(60));
        assert_eq!(c.latest(ObjectId(2)).unwrap().1, ObjVal::Int(140));
        assert_eq!(c.stats().commits, 1);
        // The batch reached a majority of replicas.
        let on: usize = c
            .shared
            .replicas
            .iter()
            .filter(|r| r.borrow().applied >= 1)
            .count();
        assert!(
            on >= majority(c.config().nodes),
            "batch applied on a quorum"
        );
    }

    /// Six clients on nodes 0..6 run three contending transfers each, to
    /// quiescence: every one commits, money is conserved and both audits
    /// pass.
    fn contending_transfers_conserve_money_serializably_with(cfg: QStoreConfig) {
        let c = cluster_with(cfg);
        c.begin_history();
        for node in 0..6u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..3u64 {
                    let from = ObjectId((u64::from(node) + i) % ACCOUNTS);
                    let to = ObjectId((u64::from(node) + i + 3) % ACCOUNTS);
                    transfer(&c2, NodeId(node), from, to, 5).await;
                }
            });
        }
        c.sim().run();
        assert_eq!(c.stats().commits, 18);
        assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
        assert_eq!(c.verify_history(), vec![]);
        assert_eq!(c.batch_atomicity_violations(), Vec::<String>::new());
    }

    #[test]
    fn contending_transfers_conserve_money_serializably() {
        contending_transfers_conserve_money_serializably_with(QStoreConfig {
            seed: 21,
            ..Default::default()
        });
    }

    /// Each epoch's sealer wakes at the instant the epoch opens; one that
    /// opens while a batch replicates is sealed at that batch's ack.
    #[test]
    fn a_zero_epoch_timeout_runs_contending_transfers_to_quiescence() {
        contending_transfers_conserve_money_serializably_with(QStoreConfig {
            seed: 21,
            epoch_timeout: SimDuration::ZERO,
            ..Default::default()
        });
    }

    #[test]
    fn group_commit_amortizes_wal_fsyncs() {
        let c = cluster(5);
        for node in 0..8u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..4u64 {
                    let from = ObjectId((u64::from(node) + i) % ACCOUNTS);
                    let to = ObjectId((u64::from(node) + i + 1) % ACCOUNTS);
                    transfer(&c2, NodeId(node), from, to, 1).await;
                }
            });
        }
        c.sim().run();
        let st = c.stats();
        assert_eq!(st.commits, 32);
        assert!(
            st.batch_txns > st.batches,
            "batching must group transactions: {} txns over {} batches",
            st.batch_txns,
            st.batches
        );
        let (_, fsyncs) = c.wal_totals();
        // One fsync per replica per batch (plus catch-up syncs), never
        // one per decided transaction per replica.
        assert!(
            fsyncs < st.batch_txns * c.config().nodes as u64,
            "group commit must beat per-transaction fsyncs: {fsyncs}"
        );
        assert!(!c.epoch_latencies().is_empty());
    }

    #[test]
    fn stale_read_is_requeued_not_lost() {
        let c = cluster(9);
        let c2 = Rc::clone(&c);
        c.begin_history();
        c.sim().spawn(async move {
            // Attempt A reads object 0, then B commits a write to it, then
            // A submits: A must be requeued, and its retry must see B's
            // value.
            let mut a = c2.begin(NodeId(4));
            let v0 = c2.read(&mut a, ObjectId(0)).await.unwrap().expect_int();
            assert_eq!(v0, INITIAL);
            transfer(&c2, NodeId(5), ObjectId(0), ObjectId(1), 10).await;
            c2.write(&mut a, ObjectId(0), ObjVal::Int(v0 - 7))
                .await
                .unwrap();
            let first = c2.commit(&mut a).await;
            assert!(first.is_err(), "stale read must requeue");
            c2.restart(&mut a, first.unwrap_err()).await;
            let v1 = c2.read(&mut a, ObjectId(0)).await.unwrap().expect_int();
            assert_eq!(v1, INITIAL - 10, "retry must observe the new value");
            c2.write(&mut a, ObjectId(0), ObjVal::Int(v1 - 7))
                .await
                .unwrap();
            c2.commit(&mut a).await.unwrap();
        });
        c.sim().run();
        assert_eq!(c.stats().aborts, 1);
        assert_eq!(c.latest(ObjectId(0)).unwrap().1, ObjVal::Int(INITIAL - 17));
        assert_eq!(c.verify_history(), vec![]);
    }

    /// Six clients on nodes 1..=6 run `transfers` transfers each while the
    /// planner (node 0) is crashed `crash_ms` into the run; node 1 must
    /// take over and replan. Returns the drained cluster.
    fn failover_run(seed: u64, transfers: u64, crash_ms: u64) -> Rc<QStoreCluster> {
        let c = cluster(seed);
        c.begin_history();
        for node in 1..7u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..transfers {
                    let from = ObjectId((u64::from(node) + i) % ACCOUNTS);
                    let to = ObjectId((u64::from(node) + i + 2) % ACCOUNTS);
                    transfer(&c2, NodeId(node), from, to, 2).await;
                }
            });
        }
        let c3 = Rc::clone(&c);
        c.sim().spawn(async move {
            c3.sim().sleep(SimDuration::from_millis(crash_ms)).await;
            assert!(c3.crash_node(NodeId(0)));
        });
        c.sim().run();
        c
    }

    #[test]
    fn planner_crash_hands_epoch_to_successor() {
        let c = failover_run(31, 3, 60);
        assert_eq!(c.stats().commits, 18, "every transfer eventually commits");
        assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
        assert_eq!(c.verify_history(), vec![]);
        assert_eq!(c.batch_atomicity_violations(), Vec::<String>::new());
        assert!(!c.view_alive(NodeId(0)));
        assert!(c.view_epoch() >= 1);
    }

    #[test]
    fn crashed_replica_recovers_and_catches_up() {
        let c = cluster(13);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            assert!(c2.crash_node(NodeId(7)));
            for i in 0..4u64 {
                transfer(&c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 3).await;
            }
            assert!(c2.recover_crashed_node(NodeId(7)));
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 4);
        // The recovered replica was pushed the committed prefix.
        let lag = c.shared.replicas[7].borrow().applied;
        let top = c.shared.replicas[0].borrow().applied;
        assert_eq!(lag, top, "catch-up sync must close the gap");
    }

    #[test]
    fn read_of_absent_object_resolves_as_implicit_preload() {
        let c = cluster(17);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // ObjectId(100) was never preloaded or written: the read must
            // terminate (no silent retry-forever) with the placeholder,
            // and a commit that creates the object from it must succeed.
            let mut h = c2.begin(NodeId(2));
            let v = c2.read(&mut h, ObjectId(100)).await.unwrap();
            assert_eq!(v, ObjVal::Unit);
            c2.write(&mut h, ObjectId(100), ObjVal::Int(7))
                .await
                .unwrap();
            c2.commit(&mut h).await.unwrap();
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(100)).unwrap().1, ObjVal::Int(7));
        assert_eq!(c.stats().commits, 1);
    }

    #[test]
    fn injected_tag_check_skip_loses_updates() {
        let c = cluster_with(QStoreConfig {
            seed: 3,
            injected_bug: Some(QStoreBug::SkipTagCheck),
            ..Default::default()
        });
        c.begin_history();
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // Two racing increments of object 0: with tag validation
            // skipped, both commit against the same base value.
            let mut a = c2.begin(NodeId(4));
            let va = c2.read(&mut a, ObjectId(0)).await.unwrap().expect_int();
            transfer(&c2, NodeId(5), ObjectId(0), ObjectId(1), 10).await;
            c2.write(&mut a, ObjectId(0), ObjVal::Int(va + 1))
                .await
                .unwrap();
            c2.commit(&mut a)
                .await
                .expect("bug: stale read commits anyway");
        });
        c.sim().run();
        assert!(
            !c.verify_history().is_empty(),
            "the auditor must catch the lost update"
        );
    }

    #[test]
    #[should_panic(expected = "write-tag counter overflowed")]
    fn write_tag_overflow_panics_instead_of_corrupting_epoch_bits() {
        let c = cluster(11);
        // Exhaust the 24-bit tag space: the next assigned tag would bleed
        // into the view-epoch bits and silently break fencing.
        c.shared.planner.borrow_mut().next_tag = (1 << 24) - 1;
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&c2, NodeId(3), ObjectId(0), ObjectId(1), 1).await;
        });
        c.sim().run();
    }

    #[test]
    fn takeover_rereplicates_adopted_prefix_to_a_majority() {
        let c = cluster(43);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            for i in 0..3u64 {
                transfer(&c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 4).await;
            }
            let frontier = c2.shared.replicas[0].borrow().applied;
            assert!(frontier >= 1);
            // Wind four replicas back to empty: the acknowledged prefix now
            // lives on a minority (planner + 4 of 10, majority is 6).
            for idx in 6..10 {
                let mut r = c2.shared.replicas[idx].borrow_mut();
                r.applied = 0;
                r.store.clear();
                r.decided = DecisionLog::default();
            }
            // The takeover must not promote until it has pushed the adopted
            // prefix back onto a majority — otherwise a second crash could
            // lose acknowledged batches.
            assert!(c2.crash_node(NodeId(0)));
        });
        c.sim().run();
        let frontier = c.shared.planner.borrow().decided_through;
        assert!(frontier >= 3);
        let holders = c
            .shared
            .replicas
            .iter()
            .filter(|r| r.borrow().applied >= frontier)
            .count();
        assert!(
            holders >= majority(c.config().nodes),
            "adopted prefix must be re-replicated to a majority, got {holders}"
        );
        assert_eq!(c.stats().commits, 3, "takeover must not double-count");
    }

    #[test]
    fn authoritative_read_of_absent_object_returns_read_miss() {
        let c = cluster(19);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // Two requeues force the authoritative (planner) read path; an
            // object absent from the committed store must resolve as the
            // implicit preload instead of hanging the poll loop.
            let mut h = c2.fresh_handle(NodeId(3), 2);
            let v = c2.read(&mut h, ObjectId(200)).await.unwrap();
            assert_eq!(v, ObjVal::Unit);
            c2.write(&mut h, ObjectId(200), ObjVal::Int(5))
                .await
                .unwrap();
            c2.commit(&mut h).await.unwrap();
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(200)).unwrap().1, ObjVal::Int(5));
        assert_eq!(c.stats().commits, 1);
    }

    #[test]
    fn detector_ejects_silent_planner_and_new_planner_commits() {
        let c = cluster_with(QStoreConfig {
            seed: 57,
            durability: Some(DurabilityConfig::default()),
            detector: Some(DetectorConfig::default()),
            ..Default::default()
        });
        let handle = c.start_detector();
        let bound = DetectorConfig::detection_bound(c.config().transfer_cost);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&c2, NodeId(4), ObjectId(0), ObjectId(1), 10).await;
            // Silence the planner without telling the view: only missed
            // heartbeats can eject it and fail the planner role over.
            assert!(crash_sim_only(&*c2, c2.sim(), NodeId(0)));
            c2.forget(NodeId(0));
            c2.sim().sleep(bound).await;
            assert!(!c2.view_alive(NodeId(0)), "detector must eject planner");
            transfer(&c2, NodeId(4), ObjectId(2), ObjectId(3), 10).await;
            // Heal the network: heartbeats resume and the detector rejoins
            // the amnesiac through the replay+repair pipeline.
            assert!(recover_sim_only(c2.sim(), NodeId(0)));
            c2.sim().sleep(bound).await;
            assert!(c2.view_alive(NodeId(0)), "detector must rejoin planner");
        });
        c.sim().run_for(SimDuration::from_secs(10));
        handle.stop();
        assert_eq!(c.stats().commits, 2);
        let m = c.sim().metrics();
        assert!(m.suspicions >= 1, "planner suspicion must be counted");
        assert!(m.rejoins >= 1, "rejoin must be counted");
        assert!(m.log_replays >= 1, "amnesiac rejoin must replay its log");
        assert_eq!(c.latest(ObjectId(2)).unwrap().1, ObjVal::Int(90));
    }

    /// A takeover promotes the adopted decisions into the commit history.
    /// It walks the log in apply order, so the history — order included —
    /// is a function of the seed (promotion used to iterate a `HashMap`,
    /// whose order is seeded per map instance).
    #[test]
    fn history_order_after_failover_is_deterministic_per_seed() {
        let history = |seed, crash_ms| -> Vec<TxId> {
            let c = failover_run(seed, 6, crash_ms);
            assert_eq!(c.stats().commits, 36);
            c.history().iter().map(|r| r.tx).collect()
        };
        // A crash 70-80 ms in tends to catch a batch replicated but not yet
        // acknowledged: the takeover then has several commits to promote.
        for seed in 1..=13 {
            for crash_ms in [70, 80] {
                assert_eq!(
                    history(seed, crash_ms),
                    history(seed, crash_ms),
                    "seed {seed}, planner crash at {crash_ms} ms"
                );
            }
        }
    }

    /// Exactly-once across every representation a decision passes through:
    /// node 1 replays snapshot + WAL suffix, takes the donor's log, then
    /// becomes planner and must answer for every earlier commit.
    #[test]
    fn commits_stay_committed_across_snapshot_amnesia_and_takeover() {
        let c = cluster_with(QStoreConfig {
            seed: 61,
            durability: Some(DurabilityConfig {
                snapshot_every: 2,
                ..Default::default()
            }),
            ..Default::default()
        });
        c.begin_history();
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // An attempt begun and never finished holds node 3's watermark
            // below every transfer: each stays a transaction a client may
            // still ask about, the case the horizon must never forget.
            let _pin = c2.begin(NodeId(3));
            for i in 0..5u64 {
                transfer(&c2, NodeId(3), ObjectId(i), ObjectId(i + 1), 3).await;
            }
            // Snapshots superseded the log at batches 2 and 4; batch 5 is
            // the log suffix the replay folds on top.
            assert_eq!(c2.shared.replicas[1].borrow().applied, 5);
            assert!(c2.crash_node_amnesia(NodeId(1)));
            // Missed while down: only the donor's log can supply it.
            transfer(&c2, NodeId(3), ObjectId(5), ObjectId(6), 3).await;
            assert!(c2.recover_crashed_node(NodeId(1)));
            assert!(c2.shared.replicas[1].borrow().decided.txns() >= 6);
            let committed: Vec<TxId> = c2.history().iter().map(|r| r.tx).collect();
            assert_eq!(committed.len(), 6);
            assert!(c2.crash_node(NodeId(0)));
            for id in committed {
                // A client that lost its reply polls again. `Ok(false)` is
                // `Unknown`, which would make it re-execute the transfer.
                let mut again = c2.begin(NodeId(4));
                again.id = id;
                assert_eq!(c2.poll_outcome(&again).await, Ok(true), "{id:?}");
            }
            assert_eq!(c2.shared.view.borrow().planner, 1, "node 1 answered");
            transfer(&c2, NodeId(4), ObjectId(0), ObjectId(1), 3).await;
        });
        c.sim().run();
        assert!(c.sim().metrics().log_replays >= 1);
        assert_eq!(c.stats().commits, 7, "takeover must not double-count");
        assert_eq!(total(&c), ACCOUNTS as i64 * INITIAL);
        assert_eq!(c.verify_history(), vec![]);
        assert_eq!(c.batch_atomicity_violations(), Vec::<String>::new());
    }

    /// One allocation per sealed batch: the planner's log, every follower's
    /// log and every snapshot hold the block the seal built.
    #[test]
    fn a_batch_outcome_block_is_shared_by_logs_and_snapshots() {
        let c = cluster_with(QStoreConfig {
            seed: 67,
            durability: Some(DurabilityConfig {
                snapshot_every: 4,
                ..Default::default()
            }),
            ..Default::default()
        });
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // Held below every transfer, node 3's watermark keeps all six
            // blocks in the logs.
            let _pin = c2.begin(NodeId(3));
            for i in 0..6u64 {
                transfer(&c2, NodeId(3), ObjectId(i), ObjectId(i + 1), 3).await;
            }
        });
        c.sim().run();
        let log = |idx: usize| -> Vec<DecisionBlock> {
            let r = c.shared.replicas[idx].borrow();
            r.decided.iter().cloned().collect()
        };
        let (planner, a, b) = (log(0), log(2), log(7));
        assert_eq!(planner.len(), 6, "one block per batch");
        assert_eq!((a.len(), b.len()), (6, 6));
        let snapshot = {
            let mut r = c.shared.replicas[2].borrow_mut();
            r.wal.as_mut().unwrap().replay().snapshot.unwrap()
        };
        let snapped: Vec<&DecisionBlock> = snapshot.decided.iter().collect();
        assert_eq!(snapped.len(), 4, "newest snapshot was taken at batch 4");
        for k in 0..6 {
            assert!(Rc::ptr_eq(&planner[k], &a[k]), "batch {}", k + 1);
            assert!(Rc::ptr_eq(&a[k], &b[k]), "batch {}", k + 1);
            if let Some(block) = snapped.get(k) {
                assert!(Rc::ptr_eq(&a[k], block), "batch {}", k + 1);
            }
        }
    }

    /// Send `msg` from node 9 straight to `to` and return its one reply.
    async fn ask(c: &QStoreCluster, to: u32, msg: QMsg) -> QMsg {
        let timeout = Some(c.config().rpc_timeout);
        let res = c.sim().call(NodeId(9), &[NodeId(to)], msg, timeout).await;
        res.replies.into_iter().next().expect("the node answers").1
    }

    fn ack(reply: QMsg) -> (bool, u64) {
        match reply {
            QMsg::ApplyAck { ok, applied } => (ok, applied),
            other => panic!("expected ApplyAck, got {other:?}"),
        }
    }

    fn status(reply: QMsg) -> TxStatus {
        match reply {
            QMsg::SubmitAck { status } => status,
            other => panic!("expected SubmitAck, got {other:?}"),
        }
    }

    fn batch(batch: u64, view: u64, val: i64) -> QMsg {
        QMsg::ApplyBatch {
            batch,
            view,
            writes: [(ObjectId(0), Version(batch), batch << 24, ObjVal::Int(val))].into(),
            decided: DecisionBlock::default(),
            horizon: Horizon::default(),
        }
    }

    fn sync(view: u64, applied: u64, val: i64) -> QMsg {
        QMsg::FullSync {
            view,
            applied,
            store: vec![(
                ObjectId(0),
                Version(applied),
                applied << 24,
                applied,
                ObjVal::Int(val),
            )],
            decided: DecisionLog::default(),
            horizon: Horizon::default(),
        }
    }

    /// A replica's committed value of object 0.
    fn value(c: &QStoreCluster, idx: usize) -> ObjVal {
        c.shared.replicas[idx].borrow().store[&ObjectId(0)]
            .val
            .clone()
    }

    #[test]
    fn apply_batch_replies_follow_the_sequencing_rules() {
        let c = cluster(71);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            assert_eq!(
                ack(ask(c, 1, batch(1, 4, 1)).await),
                (false, 0),
                "stale view"
            );
            assert_eq!(value(c, 1), ObjVal::Int(INITIAL));
            assert_eq!(
                ack(ask(c, 1, batch(1, 0, 1)).await),
                (true, 1),
                "next batch"
            );
            assert_eq!(value(c, 1), ObjVal::Int(1));
            let records = c.shared.replicas[1].borrow().wal_records;
            assert_eq!(
                ack(ask(c, 1, batch(1, 0, 2)).await),
                (true, 1),
                "held batch"
            );
            assert_eq!(
                value(c, 1),
                ObjVal::Int(1),
                "a held batch is not reinstalled"
            );
            assert_eq!(c.shared.replicas[1].borrow().wal_records, records);
            assert_eq!(ack(ask(c, 1, batch(3, 0, 3)).await), (false, 1), "gap");
            assert_eq!(value(c, 1), ObjVal::Int(1));
        });
        c.sim().run();
    }

    #[test]
    fn full_sync_replies_follow_the_install_rules() {
        let c = cluster(73);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            assert_eq!(ack(ask(c, 2, sync(0, 4, 4)).await), (true, 4), "ahead");
            assert_eq!(value(c, 2), ObjVal::Int(4));
            // Applied under the current epoch: a behind sync lost a race
            // with progress and must not undo it.
            assert_eq!(ack(ask(c, 2, sync(0, 2, 2)).await), (true, 4), "behind");
            assert_eq!(value(c, 2), ObjVal::Int(4));
            assert_eq!(
                ack(ask(c, 2, sync(3, 6, 6)).await),
                (false, 4),
                "stale view"
            );
            assert_eq!(value(c, 2), ObjVal::Int(4));
            // After a view change the same behind sync rolls the replica
            // back: its suffix was applied under a dead reign.
            assert!(c.crash_node(NodeId(8)));
            assert_eq!(ack(ask(c, 2, sync(1, 2, 2)).await), (true, 2), "rollback");
            assert_eq!(value(c, 2), ObjVal::Int(2));
        });
        c.sim().run();
    }

    #[test]
    fn submit_and_poll_replies_name_the_planner_state() {
        let c = cluster(79);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            let tx = TxId { node: 9, seq: 1 };
            let submit = || QMsg::Submit {
                tx,
                watermark: 1,
                reads: [].into(),
                writes: [(ObjectId(0), ObjVal::Int(5))].into(),
            };
            let poll = QMsg::Poll { tx, watermark: 1 };
            assert_eq!(status(ask(c, 0, poll.clone()).await), TxStatus::Unknown);
            assert_eq!(status(ask(c, 1, submit()).await), TxStatus::NotPlanner);
            assert_eq!(status(ask(c, 1, poll.clone()).await), TxStatus::NotPlanner);
            assert_eq!(status(ask(c, 0, submit()).await), TxStatus::Pending);
            // Node 1 takes over; both requests land before its census
            // round trip completes.
            assert!(c.crash_node(NodeId(0)));
            let timeout = Some(c.config().rpc_timeout);
            let sent = submit();
            let a = c.sim().call(NodeId(9), &[NodeId(1)], sent, timeout);
            let b = c.sim().call(NodeId(9), &[NodeId(1)], poll, timeout);
            for res in [a.await, b.await] {
                let reply = res.replies.into_iter().next().expect("node 1 answers").1;
                assert_eq!(status(reply), TxStatus::Busy);
            }
        });
        c.sim().run();
    }

    /// Node `node`'s `Submit` of `seq`, writing `val` to object 0,
    /// carrying `watermark`.
    fn submit(node: u32, seq: u64, watermark: u64, val: i64) -> QMsg {
        QMsg::Submit {
            tx: TxId { node, seq },
            watermark,
            reads: [].into(),
            writes: [(ObjectId(0), ObjVal::Int(val))].into(),
        }
    }

    /// Long enough for a submitted batch to seal and reach its quorum, or
    /// for a takeover to finish.
    const SETTLE: SimDuration = SimDuration::from_millis(300);

    #[test]
    fn a_submit_below_its_nodes_watermark_is_refused_and_never_executed() {
        let c = cluster(83);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            assert_eq!(
                status(ask(c, 0, submit(9, 1, 2, 5)).await),
                TxStatus::Settled
            );
            {
                let p = c.shared.planner.borrow();
                assert!(p.open.is_empty() && p.pending.is_empty(), "nothing queued");
            }
            c.sim().sleep(SETTLE).await;
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 0);
        assert_eq!(value(&c, 0), ObjVal::Int(INITIAL));
    }

    #[test]
    fn a_duplicate_above_the_watermark_is_answered_from_outcomes_exactly_once() {
        let c = cluster(89);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            assert_eq!(
                status(ask(c, 0, submit(9, 1, 1, 5)).await),
                TxStatus::Pending
            );
            c.sim().sleep(SETTLE).await;
            for _ in 0..2 {
                assert_eq!(
                    status(ask(c, 0, submit(9, 1, 1, 6)).await),
                    TxStatus::Committed
                );
            }
            // The client moved past it: the planner forgets it at the next
            // seal, and from now on settles it.
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 7)).await),
                TxStatus::Pending
            );
            assert_eq!(
                status(ask(c, 0, submit(9, 1, 1, 8)).await),
                TxStatus::Settled
            );
            c.sim().sleep(SETTLE).await;
            let tx1 = TxId { node: 9, seq: 1 };
            assert!(!c.shared.planner.borrow().outcomes.contains_key(&tx1));
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 2, "each transaction executed once");
        assert_eq!(value(&c, 0), ObjVal::Int(7));
    }

    #[test]
    fn a_new_planner_and_a_replayed_replica_refuse_what_the_horizon_covers() {
        let c = cluster_with(QStoreConfig {
            seed: 97,
            durability: Some(DurabilityConfig::default()),
            ..Default::default()
        });
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            let tx1 = TxId { node: 9, seq: 1 };
            assert_eq!(
                status(ask(c, 0, submit(9, 1, 1, 5)).await),
                TxStatus::Pending
            );
            c.sim().sleep(SETTLE).await;
            // Batch 2 ships watermark 2 for node 9: every replica forgets
            // batch 1's block, and so does what its WAL replays.
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 6)).await),
                TxStatus::Pending
            );
            c.sim().sleep(SETTLE).await;
            assert!(c.crash_node_amnesia(NodeId(2)));
            assert!(c.recover_crashed_node(NodeId(2)));
            for idx in [1, 2] {
                let r = c.shared.replicas[idx].borrow();
                assert!(r.horizon.covers(&tx1), "replica {idx}");
                assert_eq!(r.decided.txns(), 1, "replica {idx} keeps batch 2 only");
            }
            // Node 1 takes over from its own log, then node 2 from the
            // replayed one; both settle the stale duplicate.
            for planner in [1, 2] {
                assert!(c.crash_node(NodeId(planner - 1)));
                c.sim().sleep(SETTLE).await;
                let reply = ask(c, planner, submit(9, 1, 1, 7)).await;
                assert_eq!(status(reply), TxStatus::Settled, "planner {planner}");
            }
            c.sim().sleep(SETTLE).await;
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 2, "the duplicate never executed");
        assert_eq!(c.latest(ObjectId(0)).unwrap().1, ObjVal::Int(6));
    }

    /// Nodes 8 and 9 each have a decision in one batch; node 8 crashes
    /// before it hears its answer, node 9 moves on. Only node 8's decision
    /// stays pinned: in the planner's outcomes, and in every log, through
    /// the block it shares with node 9's.
    #[test]
    fn a_crashed_client_node_pins_only_its_own_decisions() {
        let c = cluster(101);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            // Sent together, the two land in one batch.
            let timeout = Some(c.config().rpc_timeout);
            let a = c
                .sim()
                .call(NodeId(8), &[NodeId(0)], submit(8, 1, 1, 5), timeout);
            let b = c
                .sim()
                .call(NodeId(9), &[NodeId(0)], submit(9, 1, 1, 6), timeout);
            let _ = (a.await, b.await);
            assert!(c.crash_node(NodeId(8)));
            c.sim().sleep(SETTLE).await;
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 7)).await),
                TxStatus::Pending
            );
            c.sim().sleep(SETTLE).await;
        });
        c.sim().run();
        let (tx8, tx9) = (TxId { node: 8, seq: 1 }, TxId { node: 9, seq: 1 });
        let p = c.shared.planner.borrow();
        assert!(p.outcomes.contains_key(&tx8) && !p.outcomes.contains_key(&tx9));
        for idx in (0..10).filter(|&i| i != 8) {
            let r = c.shared.replicas[idx].borrow();
            let blocks: Vec<Vec<TxId>> = r
                .decided
                .iter()
                .map(|block| block.iter().map(|(tx, _)| *tx).collect())
                .collect();
            let second = TxId { node: 9, seq: 2 };
            assert_eq!(blocks, [vec![tx9, tx8], vec![second]], "replica {idx}");
        }
    }

    /// The sealer rule, with `epoch_timeout` well inside one replication
    /// round (≈ 31 ms). Node 9's `Submit` opens batch 1, which its timer
    /// seals; node 8's lands 10 ms later, while batch 1 replicates, and
    /// its epoch is sealed at batch 1's quorum-ack instant. Each epoch's
    /// sealer fires one timer, so the event count does not depend on the
    /// timeout: a sealer that re-armed until the round acked would fire
    /// about round / timeout of them.
    #[test]
    fn an_epoch_opened_mid_round_is_sealed_at_the_ack_by_one_timer() {
        let run = |timeout_ms| {
            let c = cluster_with(QStoreConfig {
                seed: 103,
                epoch_timeout: SimDuration::from_millis(timeout_ms),
                ..Default::default()
            });
            c.begin_history();
            for (node, delay_ms) in [(9, 0), (8, 10)] {
                let c2 = Rc::clone(&c);
                c.sim().spawn(async move {
                    c2.sim().sleep(SimDuration::from_millis(delay_ms)).await;
                    let timeout = Some(c2.config().rpc_timeout);
                    let msg = submit(node, 1, 1, i64::from(node));
                    let _ = c2
                        .sim()
                        .call(NodeId(node), &[NodeId(0)], msg, timeout)
                        .await;
                });
            }
            c.sim().run();
            assert_eq!((c.stats().batches, c.stats().commits), (2, 2));
            // Alone in its batch, each commit's `at` is its seal instant
            // plus 1 ns.
            let at: Vec<_> = c.history().iter().map(|r| r.at).collect();
            let round = c.epoch_latencies()[0];
            assert_eq!((at[1] - at[0]).as_nanos(), round, "sealed at the ack");
            c.sim().metrics().events
        };
        assert_eq!(run(1), run(4), "one sealer timer per epoch");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `QView::home` is the rule it replaced: the alive indices,
        /// collected, then indexed by `oid` modulo their count.
        #[test]
        fn home_is_the_collected_alive_list_indexed_by_oid(
            mut alive in proptest::collection::vec(any::<bool>(), 1..16),
            keep in 0usize..16,
            oid in 0u64..u64::MAX,
        ) {
            let n = alive.len();
            alive[keep % n] = true;
            let alive_indices: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            let old = alive_indices[(oid as usize) % alive_indices.len()];
            let view = QView { alive, planner: 0, epoch: 0 };
            prop_assert_eq!(view.home(ObjectId(oid)), old);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let run_once = || {
            let c = cluster(99);
            for node in 0..4u32 {
                let c2 = Rc::clone(&c);
                c.sim().spawn(async move {
                    for i in 0..3u64 {
                        let from = ObjectId((u64::from(node) + i) % ACCOUNTS);
                        let to = ObjectId((u64::from(node) + i + 1) % ACCOUNTS);
                        transfer(&c2, NodeId(node), from, to, 3).await;
                    }
                });
            }
            c.sim().run();
            (c.stats(), c.sim().metrics().sent_total)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0.commits, 12);
        assert_eq!(a, b, "same seed must replay the same run");
    }
}
