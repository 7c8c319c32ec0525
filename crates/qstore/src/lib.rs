//! `qrdtm-qstore` — queue-oriented speculative batching, the sixth
//! [`DtmProtocol`] family.
//!
//! Follows *Highly Available Queue-oriented Speculative Transaction
//! Processing* (Qadah & Sadoghi; see PAPERS.md): instead of paying a
//! quorum round-trip per transaction like the QR family, a **planner**
//! assigns incoming transactions to **epochs** (batches) and splits
//! their writes into per-object operation queues with a deterministic
//! intra-queue order (planner-assigned *write tags*). A read is one
//! message to the object's home replica, answered from its committed
//! slot: the open epoch's planned writes live at the planner alone. The
//! planner validates each submission on arrival against the newest
//! planned write of every object it read and requeues a stale one at
//! once, carrying those planned values, so the retry reads the
//! queued-but-uncommitted write and is ordered *after* the writer instead
//! of aborting against it. At the epoch boundary it commits the whole
//! queue in assigned order, replicates it with **one group-committed WAL
//! record per replica per batch**, and acknowledges the whole epoch at
//! once — nothing is reported committed before its batch is durable on a
//! majority.
//!
//! Fault model: crash-stop plus, with [`QStoreConfig::durability`],
//! crash-restart-with-amnesia — each replica keeps a real batch-granular
//! WAL on the simulated disk (one appended+fsynced record per epoch per
//! replica; a torn tail drops whole batches atomically on replay) and an
//! amnesiac restart replays the fsynced prefix, then repairs the rest
//! from the quorum-acknowledged epoch frontier. Membership is driven
//! either by the oracle (tests and the nemesis call [`qrdtm_core::crash`]
//! & co. directly) or by the same heartbeat failure detector the QR family
//! uses ([`qrdtm_core::spawn_detector`] over this cluster's view) — a
//! silent planner is suspected, ejected (which triggers the fenced
//! takeover), and failed over; an amnesiac joiner's charged replay+repair
//! cost extends its grace window. The planner is sticky; when it
//! dies, the lowest alive node pulls applied high-water marks from enough
//! replicas to see every acknowledged batch, adopts the longest prefix
//! (charged state transfer), re-replicates it to a majority, and replans
//! from acknowledged state — the dead planner's open epoch is lost by
//! design and clients resubmit into it.

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use qrdtm_core::history::{verify, Violation};
use qrdtm_core::{
    Abort, DtmProtocol, DurabilityConfig, HistoryRecorder, LatencySpec, Membership, ObjVal,
    ObjectId, Payload, ProtocolStats, SimHosted, TxId, Version, Wal, DETECTION_SLACK,
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
    /// The planner skips read-tag validation on arrival, so stale reads
    /// commit — classic lost updates the mc battery must catch.
    SkipTagCheck,
    /// The planner validates a read on arrival against the committed slot
    /// only, ignoring the writes queued in the open epoch: two readers of
    /// one value in one epoch both commit, a lost update the mc battery
    /// must catch.
    IgnoreOpenEpoch,
    /// The planner acknowledges an epoch the moment it is sealed — before
    /// its own group-commit fsync and before any replica's — so a planner
    /// crash-with-amnesia in that window loses an epoch clients already
    /// saw committed: the durability regression the mc battery must catch.
    AckBeforeFsync,
}

/// Configuration for a Q-Store cluster.
#[derive(Clone, Debug)]
pub struct QStoreConfig {
    /// Replica count (every node serves the reads of a hash slice of the
    /// object space; node 0 starts as planner).
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Link latency (same network as the QR comparisons).
    pub latency: LatencySpec,
    /// Base message service time.
    pub service_time: SimDuration,
    /// Seal the open epoch early once it holds this many planned
    /// transactions.
    pub batch_size: usize,
    /// Seal the open epoch at the latest this long after it opens.
    pub epoch_timeout: SimDuration,
    /// Timeout on every RPC (liveness under crashes and partitions).
    pub rpc_timeout: SimDuration,
    /// Base backoff of the retrying loops (`Shared::pause`); a requeued
    /// attempt retries at once.
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
            rpc_timeout: SimDuration::from_millis(120),
            backoff: SimDuration::from_millis(2),
            wal_cost: SimDuration::from_micros(300),
            transfer_cost: SimDuration::from_millis(3),
            durability: None,
            injected_bug: None,
        }
    }
}

/// While a client's own node is down it idles at this granularity
/// before re-checking aliveness.
const IDLE: SimDuration = SimDuration::from_millis(20);

/// A Q-Store cluster: one sticky planner, fully replicated committed
/// stores, batch-atomic group commit.
pub struct QStoreCluster {
    sim: Sim<QMsg>,
    shared: Rc<Shared>,
}

impl QStoreCluster {
    /// Build a cluster and install the planner and replica handlers.
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
            planner: RefCell::new(PlannerState::fresh(Horizon::default())),
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

    /// Total `(WAL records, WAL fsyncs)` across all replicas: about one
    /// fsync per replica per batch, however few commits the batch carries.
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
    /// occupancy; a memory-intact one is charged nothing. Either way the
    /// planner then pushes the committed suffix it missed.
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

    fn fresh_handle(&self, node: NodeId, fresh: Vec<(ObjectId, u64, ObjVal)>) -> QStoreTxHandle {
        QStoreTxHandle {
            node,
            id: self.shared.clients.borrow_mut().begin(node.0),
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            fresh,
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

    /// Resolve one read: one `Read` of the committed slot at the object's
    /// home replica, or at the planner after two failed reads. Either
    /// answers an object absent everywhere as the implicit preload — tag 0
    /// and [`ObjVal::Unit`] — matching the validation default, so reads of
    /// never-written objects terminate.
    async fn read_remote(&self, node: NodeId, oid: ObjectId) -> (u64, ObjVal) {
        let mut attempt = 0u32;
        loop {
            let route = |view: &QView| match attempt {
                0 | 1 => (view.home(oid), QMsg::Read { oid }),
                _ => (view.planner, QMsg::Read { oid }),
            };
            if let Some(QMsg::ReadOk { tag, val }) = self.request(node, route).await {
                return (tag, val);
            }
            attempt += 1;
            self.shared.pause(&self.sim).await;
        }
    }

    /// Submit the attempt and wait for its outcome: a commit once its batch
    /// is durable on a majority, a requeue as soon as the planner decides
    /// it on arrival, with the newest planned values of the attempt's reads.
    /// Submission is idempotent per `TxId`: a timeout (the planner died, or
    /// lost the open epoch with it), `Busy` or `NotPlanner` pauses and
    /// submits again, and the planner answers a decided one from its
    /// record.
    async fn commit_handle(&self, tx: &QStoreTxHandle) -> Result<(), Vec<(ObjectId, u64, ObjVal)>> {
        if tx.reads.is_empty() && tx.writes.is_empty() {
            return Ok(());
        }
        // Built once per attempt: a retransmission shares both payloads.
        let reads: Payload<_> = tx.reads.iter().map(|(o, (t, _))| (*o, *t)).collect();
        let writes: Payload<_> = tx.writes.iter().map(|(o, v)| (*o, v.clone())).collect();
        loop {
            let submit = QMsg::Submit {
                tx: tx.id,
                watermark: self.shared.clients.borrow().watermark(tx.id.node),
                reads: Rc::clone(&reads),
                writes: Rc::clone(&writes),
            };
            let reply = self.request(tx.node, |view| (view.planner, submit)).await;
            if let Some(QMsg::SubmitAck { status, fresh }) = reply {
                match status {
                    TxStatus::Committed => return Ok(()),
                    TxStatus::Requeued => return Err(fresh),
                    TxStatus::Settled => {
                        unreachable!("the planner settled a transaction its client still awaits")
                    }
                    _ => {}
                }
            }
            self.shared.pause(&self.sim).await;
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
    /// `(object, write tag, value)` the last requeue's answer carried: a
    /// read of one of them takes it without a message.
    fresh: Vec<(ObjectId, u64, ObjVal)>,
}

/// The planner view is the cluster's [`Membership`].
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
    /// Refused when the view's other members could not form a majority.
    /// If the planner left, the lowest view-alive node takes over and
    /// replans from acknowledged state.
    fn eject(&self, node: NodeId) -> bool {
        self.evict_from_view(node.index())
    }
    /// An amnesiac replays its durable disk image and repairs from the
    /// quorum frontier first, then the planner pushes it the committed
    /// suffix it missed; the returned grace is at least the configured
    /// transfer cost.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration> {
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
    fn detection_bound(&self) -> SimDuration {
        DETECTION_SLACK + self.config().transfer_cost
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
        self.fresh_handle(node, Vec::new())
    }

    async fn read(&self, tx: &mut QStoreTxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        if let Some(val) = tx.writes.get(&oid) {
            return Ok(val.clone());
        }
        if let Some((_, val)) = tx.reads.get(&oid) {
            return Ok(val.clone());
        }
        let (tag, val) = match tx.fresh.iter().position(|(o, ..)| *o == oid) {
            Some(i) => {
                let (_, tag, val) = tx.fresh.swap_remove(i);
                (tag, val)
            }
            None => self.read_remote(tx.node, oid).await,
        };
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
        outcome.map_err(|fresh| {
            tx.fresh = fresh;
            Abort::root()
        })
    }

    async fn restart(&self, tx: &mut QStoreTxHandle, _abort: Abort) {
        // Requeues are counted as aborts at the planner decision; here the
        // client starts a fresh attempt at once, handing it the newest
        // planned values the requeue carried — a pause would only give them
        // time to go stale. The retry fails again only if another
        // transaction is planned first, so retrying at once cannot
        // livelock. An attempt that aborted before its commit was never
        // submitted: it settles here.
        self.shared.clients.borrow_mut().settle(&tx.id);
        *tx = self.fresh_handle(tx.node, std::mem::take(&mut tx.fresh));
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
    use crate::core::Slot;
    use crate::wal::QSnapshot;
    use proptest::prelude::*;
    use qrdtm_core::{crash, recover, spawn_detector};
    use qrdtm_workloads::protocol_bank::transfer;

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
            transfer(&*c2, NodeId(3), ObjectId(1), ObjectId(2), 40).await;
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
                    transfer(&*c2, NodeId(node), from, to, 5).await;
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
                    transfer(&*c2, NodeId(node), from, to, 1).await;
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
            transfer(&*c2, NodeId(5), ObjectId(0), ObjectId(1), 10).await;
            c2.write(&mut a, ObjectId(0), ObjVal::Int(v0 - 7))
                .await
                .unwrap();
            let first = c2.commit(&mut a).await;
            assert!(first.is_err(), "stale read must requeue");
            c2.restart(&mut a, first.unwrap_err()).await;
            let sent_reads = c2.sim().metrics().sent_by_class[0];
            let v1 = c2.read(&mut a, ObjectId(0)).await.unwrap().expect_int();
            assert_eq!(v1, INITIAL - 10, "retry must observe the new value");
            assert_eq!(
                c2.sim().metrics().sent_by_class[0],
                sent_reads,
                "the requeue's answer carried object 0: no Read"
            );
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
                    transfer(&*c2, NodeId(node), from, to, 2).await;
                }
            });
        }
        let c3 = Rc::clone(&c);
        c.sim().spawn(async move {
            c3.sim().sleep(SimDuration::from_millis(crash_ms)).await;
            assert!(crash(&*c3, c3.sim(), NodeId(0)));
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
            assert!(crash(&*c2, c2.sim(), NodeId(7)));
            for i in 0..4u64 {
                transfer(&*c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 3).await;
            }
            assert!(recover(&*c2, c2.sim(), NodeId(7)));
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 4);
        // The recovered replica was pushed the committed prefix.
        let lag = c.shared.replicas[7].borrow().applied;
        let top = c.shared.replicas[0].borrow().applied;
        assert_eq!(lag, top, "catch-up sync must close the gap");
    }

    /// The client's commit is one request and one answer: the planner holds
    /// the `Submit`'s reply until the batch is acknowledged.
    #[test]
    fn a_commit_on_an_idle_cluster_is_one_submit_and_one_answer() {
        let c = cluster(7);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&*c2, NodeId(3), ObjectId(1), ObjectId(2), 40).await;
        });
        c.sim().run();
        assert_eq!(c.stats().commits, 1);
        let sent = c.sim().metrics().sent_by_class;
        assert_eq!((sent[2], sent[3]), (1, 1), "Submit, SubmitAck");
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
            transfer(&*c2, NodeId(5), ObjectId(0), ObjectId(1), 10).await;
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
            transfer(&*c2, NodeId(3), ObjectId(0), ObjectId(1), 1).await;
        });
        c.sim().run();
    }

    #[test]
    fn takeover_rereplicates_adopted_prefix_to_a_majority() {
        let c = cluster(43);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            for i in 0..3u64 {
                transfer(&*c2, NodeId(2), ObjectId(i), ObjectId(i + 1), 4).await;
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
            assert!(crash(&*c2, c2.sim(), NodeId(0)));
        });
        c.sim().run();
        let frontier = c.shared.acked.get();
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
    fn authoritative_read_of_absent_object_resolves_as_the_implicit_preload() {
        let c = cluster(19);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // Object 203's home replica, node 3, is silent without leaving
            // the view: two reads time out and the read falls back to the
            // planner's committed store. An object absent from it
            // must resolve as the implicit preload instead of hanging the
            // read loop.
            c2.sim().fail_node(NodeId(3));
            let start = c2.sim().now();
            let mut h = c2.begin(NodeId(2));
            let v = c2.read(&mut h, ObjectId(203)).await.unwrap();
            assert_eq!(v, ObjVal::Unit);
            assert!(c2.sim().now() - start >= c2.config().rpc_timeout * 2);
            c2.write(&mut h, ObjectId(203), ObjVal::Int(5))
                .await
                .unwrap();
            c2.commit(&mut h).await.unwrap();
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(203)).unwrap().1, ObjVal::Int(5));
        assert_eq!(c.stats().commits, 1);
    }

    #[test]
    fn detector_ejects_silent_planner_and_new_planner_commits() {
        let c = cluster_with(QStoreConfig {
            seed: 57,
            durability: Some(DurabilityConfig::default()),
            ..Default::default()
        });
        let handle = spawn_detector(Rc::clone(&c), c.sim().clone());
        let bound = c.detection_bound();
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&*c2, NodeId(4), ObjectId(0), ObjectId(1), 10).await;
            // Silence the planner without telling the view: only missed
            // heartbeats can eject it and fail the planner role over.
            c2.sim().fail_node(NodeId(0));
            c2.forget(NodeId(0));
            c2.sim().sleep(bound).await;
            assert!(!c2.view_alive(NodeId(0)), "detector must eject planner");
            transfer(&*c2, NodeId(4), ObjectId(2), ObjectId(3), 10).await;
            // Heal the network: heartbeats resume and the detector rejoins
            // the amnesiac through the replay+repair pipeline.
            c2.sim().recover_node(NodeId(0));
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
            durability: Some(DurabilityConfig { snapshot_every: 2 }),
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
                transfer(&*c2, NodeId(3), ObjectId(i), ObjectId(i + 1), 3).await;
            }
            // Snapshots superseded the log at batches 2 and 4; batch 5 is
            // the log suffix the replay folds on top.
            assert_eq!(c2.shared.replicas[1].borrow().applied, 5);
            assert!(crash(&*c2, c2.sim(), NodeId(1)));
            c2.forget(NodeId(1));
            // Missed while down: only the donor's log can supply it.
            transfer(&*c2, NodeId(3), ObjectId(5), ObjectId(6), 3).await;
            assert!(recover(&*c2, c2.sim(), NodeId(1)));
            assert!(c2.shared.replicas[1].borrow().decided.txns() >= 6);
            let committed: Vec<TxId> = c2.history().iter().map(|r| r.tx).collect();
            assert_eq!(committed.len(), 6);
            assert!(crash(&*c2, c2.sim(), NodeId(0)));
            for id in committed {
                // A client that lost its reply submits again. A planner
                // that forgot the decision would execute this write.
                let mut again = c2.begin(NodeId(4));
                again.id = id;
                again.writes.insert(ObjectId(0), ObjVal::Int(0));
                assert_eq!(c2.commit_handle(&again).await, Ok(()), "{id:?}");
            }
            assert_eq!(c2.shared.view.borrow().planner, 1, "node 1 answered");
            transfer(&*c2, NodeId(4), ObjectId(0), ObjectId(1), 3).await;
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
            durability: Some(DurabilityConfig { snapshot_every: 4 }),
            ..Default::default()
        });
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            // Held below every transfer, node 3's watermark keeps all six
            // blocks in the logs.
            let _pin = c2.begin(NodeId(3));
            for i in 0..6u64 {
                transfer(&*c2, NodeId(3), ObjectId(i), ObjectId(i + 1), 3).await;
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
            QMsg::SubmitAck { status, .. } => status,
            other => panic!("expected SubmitAck, got {other:?}"),
        }
    }

    /// A `Requeued` answer's carried values.
    fn requeued(reply: QMsg) -> Vec<(ObjectId, u64, ObjVal)> {
        match reply {
            QMsg::SubmitAck {
                status: TxStatus::Requeued,
                fresh,
            } => fresh,
            other => panic!("expected a requeue, got {other:?}"),
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
        let slot = Slot {
            version: Version(applied),
            tag: applied << 24,
            batch: applied,
            val: ObjVal::Int(val),
        };
        let state = QSnapshot {
            applied,
            store: [(ObjectId(0), slot)].into_iter().collect(),
            ..Default::default()
        };
        QMsg::FullSync { view, state }
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
            assert!(crash(c, c.sim(), NodeId(8)));
            assert_eq!(ack(ask(c, 2, sync(1, 2, 2)).await), (true, 2), "rollback");
            assert_eq!(value(c, 2), ObjVal::Int(2));
        });
        c.sim().run();
    }

    #[test]
    fn submit_replies_name_the_planner_state() {
        let c = cluster(79);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            let tx = || submit(9, 1, 1, 5);
            assert_eq!(status(ask(c, 1, tx()).await), TxStatus::NotPlanner);
            // Held until the batch is acknowledged, and accounted first.
            assert_eq!(status(ask(c, 0, tx()).await), TxStatus::Committed);
            assert_eq!(c.stats().commits, 1);
            // Node 1 takes over; the request lands before its census round
            // trip completes.
            assert!(crash(c, c.sim(), NodeId(0)));
            assert_eq!(status(ask(c, 1, tx()).await), TxStatus::Busy);
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

    /// Node `node`'s `Submit` of `seq`, reading object 3 at `tag` and
    /// writing `val` to it, carrying watermark `seq`.
    fn read_write(node: u32, seq: u64, tag: u64, val: i64) -> QMsg {
        QMsg::Submit {
            tx: TxId { node, seq },
            watermark: seq,
            reads: [(ObjectId(3), tag)].into(),
            writes: [(ObjectId(3), ObjVal::Int(val))].into(),
        }
    }

    /// The committed `(tag, value)` of object 3 on the planner.
    fn slot3(c: &QStoreCluster) -> (u64, ObjVal) {
        let s = &c.shared.replicas[0].borrow().store[&ObjectId(3)];
        (s.tag, s.val.clone())
    }

    /// Node 8 reads object 3 at its preload and writes it, and is planned.
    /// Later in the same open epoch, long after a message to object 3's
    /// home replica would have arrived, node 9 reads object 3: a replica
    /// serves only its committed slot, so node 9 sees the preload. Its
    /// `Submit` conflicts with node 8's planned write and hears so at once,
    /// before any seal, carrying that write. The retry reads it and is
    /// planned behind it, so both commit in one batch.
    #[test]
    fn a_conflict_in_the_open_epoch_costs_one_round_trip_and_commits_in_the_same_batch() {
        let c = cluster_with(QStoreConfig {
            seed: 107,
            epoch_timeout: SimDuration::from_millis(200),
            rpc_timeout: SimDuration::from_millis(300),
            ..Default::default()
        });
        let c8 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c8;
            let mut h = c.begin(NodeId(8));
            c.read(&mut h, ObjectId(3)).await.unwrap();
            c.write(&mut h, ObjectId(3), ObjVal::Int(8)).await.unwrap();
            c.commit(&mut h).await.unwrap();
        });
        let c9 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c9;
            c.sim().sleep(SimDuration::from_millis(60)).await;
            let open = c.shared.planner.borrow().open.len();
            assert_eq!(open, 1, "node 8 is planned in the open epoch");
            c.sim().sleep(SimDuration::from_millis(20)).await;
            let mut h = c.begin(NodeId(9));
            let v = c.read(&mut h, ObjectId(3)).await.unwrap();
            assert_eq!(v, ObjVal::Int(INITIAL));
            assert_eq!(h.reads[&ObjectId(3)], (0, v), "the committed slot");
            c.write(&mut h, ObjectId(3), ObjVal::Int(9)).await.unwrap();
            let abort = c.commit(&mut h).await.expect_err("requeued");
            assert_eq!(c.shared.replicas[0].borrow().applied, 0, "before any seal");
            // The epoch's first write tag, 1, holds node 8's value.
            assert_eq!(h.fresh, [(ObjectId(3), 1, ObjVal::Int(8))]);
            c.restart(&mut h, abort).await;
            let v = c.read(&mut h, ObjectId(3)).await.unwrap().expect_int();
            c.write(&mut h, ObjectId(3), ObjVal::Int(v + 101))
                .await
                .unwrap();
            c.commit(&mut h).await.unwrap();
        });
        c.sim().run();
        let st = c.stats();
        assert_eq!((st.commits, st.aborts), (2, 1));
        assert_eq!((st.batches, st.batch_txns), (1, 2));
        assert_eq!(slot3(&c), (2, ObjVal::Int(109)));
    }

    #[test]
    fn a_submit_older_than_the_committed_slot_is_requeued_at_once() {
        let c = cluster(109);
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            let reply = ask(c, 0, read_write(9, 1, 0, 5)).await;
            assert_eq!(status(reply), TxStatus::Committed);
            // Still reading the preload, which the slot has overwritten. A
            // duplicate gets the same answer.
            for _ in 0..2 {
                let fresh = requeued(ask(c, 0, read_write(9, 2, 0, 6)).await);
                assert_eq!(fresh, vec![(ObjectId(3), slot3(c).0, ObjVal::Int(5))]);
                assert!(c.shared.planner.borrow().open.is_empty(), "nothing queued");
                assert_eq!(c.shared.replicas[0].borrow().applied, 1, "no epoch sealed");
            }
            c.sim().sleep(SETTLE).await;
        });
        c.sim().run();
        let st = c.stats();
        assert_eq!((st.commits, st.batches, st.aborts), (1, 1, 1));
        assert_eq!(c.latest(ObjectId(3)).unwrap().1, ObjVal::Int(5));
    }

    /// A duplicate `Submit` that lands while its transaction still waits in
    /// the open epoch is held in place of the first call, and the
    /// transaction is planned once.
    #[test]
    fn a_duplicate_in_the_open_epoch_is_held_and_planned_once() {
        let c = cluster_with(QStoreConfig {
            seed: 127,
            epoch_timeout: SimDuration::from_millis(50),
            ..Default::default()
        });
        let heard = Rc::new(RefCell::new(Vec::new()));
        for delay_ms in [0, 5] {
            let (c2, heard) = (Rc::clone(&c), Rc::clone(&heard));
            c.sim().spawn(async move {
                c2.sim().sleep(SimDuration::from_millis(delay_ms)).await;
                let timeout = Some(c2.config().rpc_timeout);
                let msg = submit(9, 1, 1, 5);
                let res = c2.sim().call(NodeId(9), &[NodeId(0)], msg, timeout);
                let reply = res.await.replies.into_iter().next();
                heard
                    .borrow_mut()
                    .push((delay_ms, reply.map(|(_, m)| status(m))));
            });
        }
        c.sim().run();
        let mut heard = heard.take();
        heard.sort_by_key(|(delay_ms, _)| *delay_ms);
        assert_eq!(heard, [(0, None), (5, Some(TxStatus::Committed))]);
        let st = c.stats();
        assert_eq!((st.batch_txns, st.commits), (1, 1));
        let written_once = (Version::INITIAL.next(), ObjVal::Int(5));
        assert_eq!(c.latest(ObjectId(0)), Some(written_once));
    }

    /// Replica 2 fsyncs a batch 1 that is never acknowledged, and restarts
    /// with amnesia after the next reign committed its own batch 1 at the
    /// same version: the repair takes the acknowledged slot instead of
    /// keeping the replayed one, whose version is no lower.
    #[test]
    fn an_amnesiac_replica_takes_the_acknowledged_slot_over_a_replayed_fork() {
        let c = cluster_with(QStoreConfig {
            seed: 113,
            durability: Some(DurabilityConfig::default()),
            ..Default::default()
        });
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let c = &*c2;
            let fork = QMsg::ApplyBatch {
                batch: 1,
                view: 0,
                writes: [(ObjectId(0), Version(2), 1, ObjVal::Int(111))].into(),
                decided: DecisionBlock::default(),
                horizon: Horizon::default(),
            };
            assert_eq!(ack(ask(c, 2, fork).await), (true, 1));
            assert!(crash(c, c.sim(), NodeId(2)));
            c.forget(NodeId(2));
            let reply = ask(c, 0, submit(9, 1, 1, 5)).await;
            assert_eq!(status(reply), TxStatus::Committed);
            assert!(recover(c, c.sim(), NodeId(2)));
        });
        c.sim().run();
        let slot = |idx: usize| {
            let s = &c.shared.replicas[idx].borrow().store[&ObjectId(0)];
            (s.version, s.tag, s.val.clone())
        };
        assert_eq!(slot(2), slot(0));
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
            assert!(c.shared.planner.borrow().open.is_empty(), "nothing queued");
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
            // Answered once at the quorum ack, then from the outcomes.
            for val in [5, 6, 6] {
                assert_eq!(
                    status(ask(c, 0, submit(9, 1, 1, val)).await),
                    TxStatus::Committed
                );
            }
            // The client moved past it: the planner forgets it at the next
            // seal, and from now on settles it.
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 7)).await),
                TxStatus::Committed
            );
            assert_eq!(
                status(ask(c, 0, submit(9, 1, 1, 8)).await),
                TxStatus::Settled
            );
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
                TxStatus::Committed
            );
            // Batch 2 ships watermark 2 for node 9: every replica forgets
            // batch 1's block, and so does what its WAL replays.
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 6)).await),
                TxStatus::Committed
            );
            c.sim().sleep(SETTLE).await;
            assert!(crash(c, c.sim(), NodeId(2)));
            c.forget(NodeId(2));
            assert!(recover(c, c.sim(), NodeId(2)));
            for idx in [1, 2] {
                let r = c.shared.replicas[idx].borrow();
                assert!(r.horizon.covers(&tx1), "replica {idx}");
                assert_eq!(r.decided.txns(), 1, "replica {idx} keeps batch 2 only");
            }
            // Node 1 takes over from its own log, then node 2 from the
            // replayed one; both settle the stale duplicate.
            for planner in [1, 2] {
                assert!(crash(c, c.sim(), NodeId(planner - 1)));
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
            assert!(crash(c, c.sim(), NodeId(8)));
            drop(a);
            let reply = b.await.replies.into_iter().next().expect("answered");
            assert_eq!(status(reply.1), TxStatus::Committed);
            assert_eq!(
                status(ask(c, 0, submit(9, 2, 2, 7)).await),
                TxStatus::Committed
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
                        transfer(&*c2, NodeId(node), from, to, 3).await;
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
