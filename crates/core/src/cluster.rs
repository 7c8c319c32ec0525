//! Cluster assembly: nodes, replica stores, quorum views, and the message
//! handlers that make each simulated node a QR replica.
//!
//! Mirrors the paper's architecture (Fig. 4): the *Cluster Manager* role —
//! tracking each node's designated read and write quorums — is the shared
//! [`QuorumView`]; the *Transaction Manager* role is split between the node
//! handlers installed here (remote side) and [`crate::Tx`] (local side).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use qrdtm_quorum::{QuorumError, Tree, TreeQuorum};
use qrdtm_sim::{ConstLatency, JitteredLatency, NodeId, Sim, SimConfig, SimDuration};

use crate::engine::repair;
use crate::engine::wal::{install_stream, ReplicaWal, WalRecord};
use crate::engine::Membership;
use crate::history::{CommitRecord, HistoryRecorder, Violation};
use crate::msg::Msg;
use crate::object::{ObjVal, ObjectId, Version};
use crate::stats::DtmStats;
use crate::store::{NodeStore, ReadOutcome};
use crate::txid::{NestingMode, TxId};

/// Link-latency specification (kept plain-data so configs are `Clone`).
#[derive(Clone, Debug)]
pub enum LatencySpec {
    /// Constant one-way latency.
    Const(SimDuration),
    /// Jittered one-way latency (base, jitter fraction).
    Jittered(SimDuration, f64),
    /// Metric-space network (cc-DTM style): nodes placed uniformly in the
    /// unit square by the cluster seed; latency = distance x `per_unit`,
    /// floored. `(per_unit, floor)`.
    Metric(SimDuration, SimDuration),
}

impl LatencySpec {
    /// Nominal one-way latency of the spec (base for Jittered, per-unit
    /// distance cost for Metric) — used to derive default costs such as the
    /// rejoin state-transfer charge.
    pub fn nominal(&self) -> SimDuration {
        match *self {
            LatencySpec::Const(d) => d,
            LatencySpec::Jittered(d, _) => d,
            LatencySpec::Metric(per_unit, floor) => {
                if per_unit > floor {
                    per_unit
                } else {
                    floor
                }
            }
        }
    }

    /// Instantiate the model for a cluster of `nodes`, deriving placement
    /// (for [`LatencySpec::Metric`]) from `seed`.
    pub fn build(&self, nodes: usize, seed: u64) -> Box<dyn qrdtm_sim::LatencyModel> {
        match *self {
            LatencySpec::Const(d) => Box::new(ConstLatency::new(d)),
            LatencySpec::Jittered(d, j) => Box::new(JitteredLatency::new(d, j)),
            LatencySpec::Metric(per_unit, floor) => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d65_7472_6963);
                Box::new(qrdtm_sim::MetricSpace::random(
                    nodes, per_unit, floor, &mut rng,
                ))
            }
        }
    }
}

/// Configuration of a QR-DTM cluster.
#[derive(Clone, Debug)]
pub struct DtmConfig {
    /// Number of replica nodes (the paper's testbed: 40; Fig. 10: 28).
    pub nodes: usize,
    /// Nesting mode the whole cluster runs in.
    pub mode: NestingMode,
    /// Read-quorum level policy (0 = the root alone; 1 = majority of its
    /// children, the paper's Fig. 3 assignment).
    pub read_level: usize,
    /// RNG seed.
    pub seed: u64,
    /// One-way link latency (paper: ~15 ms, i.e. ~30 ms RTT).
    pub latency: LatencySpec,
    /// Per-request server occupancy.
    pub service_time: SimDuration,
    /// QR-CHK: create a checkpoint whenever this many new objects entered
    /// the data set since the previous one.
    pub chk_threshold: usize,
    /// QR-CHK: local cost of creating one checkpoint. The paper measured
    /// ~6 % total overhead for checkpoint creation; at the default
    /// threshold that amortizes to a few milliseconds per checkpoint
    /// (continuation capture + transaction copy).
    pub chk_cost: SimDuration,
    /// Base of the randomized exponential backoff after an abort.
    pub backoff_base: SimDuration,
    /// Backoff cap.
    pub backoff_max: SimDuration,
    /// RPC timeout. Defaults to 500 ms — an order of magnitude above the
    /// paper testbed's ~30 ms RTT, so healthy quorums never trip it, while
    /// injected faults (partitions, drops, unannounced crashes) surface as
    /// timeouts instead of hanging the caller forever. `None` means "trust
    /// the quorum view" and is reachable via [`DtmConfig::no_timeout`].
    pub rpc_timeout: Option<SimDuration>,
    /// Enable Rqv incremental read validation (the paper's §III-B). Turning
    /// it off under QR-CN is the ablation showing why local CT commits need
    /// it: conflicts then surface only at root commit.
    pub rqv: bool,
    /// Run the heartbeat failure detector ([`crate::spawn_detector`])
    /// instead of relying on an oracle to call
    /// [`Cluster::fail_node`]/[`Cluster::recover_node`]. Also arms the
    /// transport's retry/hedging path. `None` (the default) keeps the
    /// classic oracle-driven model byte-for-byte identical.
    pub detector: Option<crate::engine::DetectorConfig>,
    /// Give every replica a simulated disk with a write-ahead log and
    /// periodic snapshots (see [`crate::Wal`]). Arms the
    /// crash-restart-with-amnesia semantics
    /// ([`Cluster::crash_node_amnesia`]): a crashed node loses its volatile
    /// object table and recovers honestly — snapshot+log replay, torn-tail
    /// detection, then quorum repair of the lost suffix. `None` (the
    /// default) keeps replicas memory-only and crashes pause-only,
    /// byte-for-byte identical to the classic model.
    pub durability: Option<crate::engine::DurabilityConfig>,
    /// Deliberately disable one safety mechanism (checker validation only —
    /// see [`InjectedBug`]). `None` (the default) is the correct protocol.
    pub injected_bug: Option<InjectedBug>,
    /// Graceful-degradation machinery for open-loop overload: client-side
    /// retry token budget, deadline-aware early abort and hedge suppression
    /// under saturation pressure (open-loop drivers enforce their own
    /// admission-queue bound). `None` (the default) keeps the engine's behaviour
    /// byte-for-byte identical to the pre-overload model.
    pub overload: Option<OverloadConfig>,
}

/// Knobs of the overload graceful-degradation layer
/// ([`DtmConfig::overload`]). All decisions taken under these knobs are
/// surfaced as engine events and metrics counters — nothing is silently
/// dropped or suppressed.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Capacity of the client-side retry token bucket. Every transaction
    /// retry draws one token; an empty bucket delays the retry until a
    /// token drips or a commit mints one, bounding the cluster-wide retry
    /// rate under brown-out.
    pub retry_budget_cap: u64,
    /// Tokens minted into the bucket per committed transaction (successes
    /// replenish the budget).
    pub retry_refill_per_commit: u64,
    /// Rate floor of the bucket: one token drips per this much elapsed
    /// virtual time, so a drained bucket cannot deadlock a healthy cluster
    /// whose clients are all waiting on tokens.
    pub retry_drip: SimDuration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            retry_budget_cap: 64,
            retry_refill_per_commit: 2,
            retry_drip: SimDuration::from_millis(50),
        }
    }
}

/// Mutable overload bookkeeping shared by every endpoint of a cluster:
/// the retry token bucket and the outstanding-retry pressure gauge.
/// Present unconditionally (cheap cells); consulted only when
/// [`DtmConfig::overload`] is armed.
#[derive(Debug, Default)]
pub(crate) struct OverloadState {
    /// Retry tokens currently available (starts at the bucket capacity).
    pub(crate) retry_tokens: Cell<u64>,
    /// Virtual-time floor (ns) the time-drip refill has been accounted to.
    pub(crate) last_drip_ns: Cell<u64>,
    /// RPC rounds currently in timeout/retry — the saturation gauge hedge
    /// suppression reads.
    pub(crate) retry_pressure: Cell<u64>,
}

/// A deliberately broken protocol variant, used to validate that the
/// checkers (history verification, model-checking invariants) actually
/// catch the class of bug each mechanism exists to prevent. Never enabled
/// by default; only test harnesses set this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Treat a failed vote round as success: commit and apply even when a
    /// write-quorum replica voted no because the object moved under the
    /// transaction. Two concurrent writers can then both install the same
    /// successor version (lost update).
    SkipVoteCheck,
    /// Skip the epoch fence after the vote round: a commit whose votes
    /// straddled a view change is trusted even though its quorum may not
    /// intersect the new view's quorums.
    SkipEpochFence,
}

impl Default for DtmConfig {
    fn default() -> Self {
        DtmConfig {
            nodes: 13,
            mode: NestingMode::Flat,
            read_level: 1,
            seed: 1,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            service_time: SimDuration::from_micros(200),
            chk_threshold: 1,
            chk_cost: SimDuration::from_millis(6),
            backoff_base: SimDuration::from_millis(4),
            backoff_max: SimDuration::from_millis(120),
            rpc_timeout: Some(SimDuration::from_millis(500)),
            rqv: true,
            detector: None,
            durability: None,
            injected_bug: None,
            overload: None,
        }
    }
}

impl DtmConfig {
    /// The paper's main testbed shape: 40 nodes, ~30 ms RTT.
    pub fn paper_testbed(mode: NestingMode, seed: u64) -> Self {
        DtmConfig {
            nodes: 40,
            mode,
            seed,
            ..Default::default()
        }
    }

    /// Explicitly disable RPC timeouts ("trust the quorum view"): a call to
    /// a node the view wrongly believes alive then never resolves, exactly
    /// like a real RPC with no failure detector. Useful for experiments
    /// that want the pure paper model with no timeout machinery.
    pub fn no_timeout(mut self) -> Self {
        self.rpc_timeout = None;
        self
    }
}

/// The quorum view shared by every node (the Cluster Manager of Fig. 4).
pub struct QuorumView {
    tq: TreeQuorum,
    read_level: usize,
    /// Shared, not copied, by every read round and commit that snapshots
    /// the view.
    pub(crate) read_q: Rc<[NodeId]>,
    pub(crate) write_q: Rc<[NodeId]>,
    /// Bumped on every reconfiguration. Quorum intersection is only
    /// guaranteed between quorums derived from the same view, so a commit
    /// decision whose vote round straddled an epoch change must not be
    /// trusted — the commit layer fences on this.
    pub(crate) epoch: u64,
}

impl QuorumView {
    /// Whether the view still considers `node` a member.
    pub(crate) fn is_view_alive(&self, node: usize) -> bool {
        self.tq.is_alive(node)
    }

    fn recompute(&mut self) -> Result<(), QuorumError> {
        let r = self.tq.read_quorum_at_level(self.read_level)?;
        let w = self.tq.write_quorum()?;
        self.read_q = r.into_iter().map(|v| NodeId(v as u32)).collect();
        self.write_q = w.into_iter().map(|v| NodeId(v as u32)).collect();
        Ok(())
    }
}

pub(crate) struct ClusterInner {
    pub(crate) cfg: DtmConfig,
    pub(crate) quorum: RefCell<QuorumView>,
    pub(crate) stats: RefCell<DtmStats>,
    pub(crate) next_seq: Cell<u64>,
    pub(crate) stores: Vec<Rc<RefCell<NodeStore>>>,
    pub(crate) history: RefCell<HistoryRecorder>,
    /// The decided phase-two message ([`Msg::Apply`] or [`Msg::AbortReq`])
    /// of every root whose fan-out is still in flight, registered by the
    /// transport so a view change can complete it instantly (classic 2PC
    /// recovery: an in-doubt transaction *with* a decision is finished
    /// during reconfiguration, never left blocking the new view). A
    /// `BTreeMap` (not `HashMap`): view-change transfer iterates this map
    /// and its effects reach every store, so iteration order must be
    /// deterministic.
    pub(crate) pending: RefCell<std::collections::BTreeMap<TxId, Msg>>,
    /// Per-node write-ahead logs; armed by [`DtmConfig::durability`].
    pub(crate) wals: Option<Vec<Rc<RefCell<ReplicaWal>>>>,
    /// Nodes that crashed with amnesia and have not yet run recovery;
    /// readmission must replay+repair for them instead of the oracle-grade
    /// state transfer.
    pub(crate) amnesiac: RefCell<Vec<bool>>,
    /// Retry token bucket + saturation pressure gauge (see
    /// [`DtmConfig::overload`]).
    pub(crate) overload: OverloadState,
}

impl ClusterInner {
    pub(crate) fn fresh_txid(&self, node: NodeId) -> TxId {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        TxId { node: node.0, seq }
    }
}

/// A simulated QR-DTM cluster: `cfg.nodes` replicas, each holding a copy of
/// every object, plus the shared quorum view and statistics.
pub struct Cluster {
    sim: Sim<Msg>,
    pub(crate) inner: Rc<ClusterInner>,
}

impl Cluster {
    /// Build a cluster and install the replica handler on every node.
    pub fn new(cfg: DtmConfig) -> Self {
        let sim: Sim<Msg> = Sim::new(SimConfig {
            seed: cfg.seed,
            latency: cfg.latency.build(cfg.nodes, cfg.seed),
            service_time: cfg.service_time,
            service_by_class: [None; qrdtm_sim::MAX_CLASSES],
        });
        let nodes = sim.add_nodes(cfg.nodes);
        let mut view = QuorumView {
            tq: TreeQuorum::new(Tree::ternary(cfg.nodes)),
            read_level: cfg.read_level,
            read_q: [].into(),
            write_q: [].into(),
            epoch: 0,
        };
        view.recompute()
            .expect("healthy cluster always has quorums");
        let stores: Vec<Rc<RefCell<NodeStore>>> = (0..cfg.nodes)
            .map(|_| Rc::new(RefCell::new(NodeStore::new())))
            .collect();
        let wals: Option<Vec<Rc<RefCell<ReplicaWal>>>> = cfg.durability.map(|d| {
            (0..cfg.nodes)
                .map(|_| Rc::new(RefCell::new(ReplicaWal::new(d))))
                .collect()
        });
        for (i, (&node, store)) in nodes.iter().zip(&stores).enumerate() {
            let store = Rc::clone(store);
            let wal = wals.as_ref().map(|w| Rc::clone(&w[i]));
            sim.set_handler(node, move |ctx, env| {
                let mut st = store.borrow_mut();
                match &env.msg {
                    Msg::ReadReq {
                        root,
                        cur_level,
                        cur_chk,
                        oid,
                        entries,
                        kind,
                    } => {
                        let out = st.read(*root, *cur_level, *cur_chk, *oid, false, entries, *kind);
                        let reply = match out {
                            ReadOutcome::Ok(version, val) => Msg::ReadOk {
                                oid: *oid,
                                version,
                                val,
                            },
                            ReadOutcome::Abort(target) => Msg::ReadAbort { target },
                        };
                        ctx.respond(&env, reply);
                    }
                    Msg::CommitReq {
                        root,
                        reads,
                        writes,
                    } => {
                        let ok = st.vote(*root, reads, writes);
                        ctx.respond(&env, Msg::Vote { ok });
                    }
                    msg @ (Msg::Apply { .. } | Msg::AbortReq { .. }) => {
                        st.phase_two(msg);
                        if let (Some(w), Msg::Apply { writes, .. }) = (&wal, msg) {
                            // WAL the phase-2 application before acking,
                            // group-committing every `fsync_every` appends
                            // and superseding the log with the post-apply
                            // table every `snapshot_every`; the disk work
                            // occupies the server beyond the request's own
                            // service time.
                            let mut w = w.borrow_mut();
                            let mut cost = w.append(WalRecord {
                                writes: writes.to_vec(),
                            });
                            if w.snapshot_due() {
                                cost += w.snapshot(st.entries());
                            } else if w.fsync_due() {
                                cost += w.fsync(None);
                            }
                            ctx.occupy(cost);
                        }
                        ctx.respond(&env, Msg::Ack);
                    }
                    // Replies are routed to CallFutures by the simulator and
                    // never reach a handler.
                    _ => {}
                }
            });
        }
        let amnesiac = RefCell::new(vec![false; cfg.nodes]);
        let retry_cap = cfg.overload.map_or(0, |o| o.retry_budget_cap);
        Cluster {
            sim,
            inner: Rc::new(ClusterInner {
                cfg,
                quorum: RefCell::new(view),
                stats: RefCell::new(DtmStats::default()),
                next_seq: Cell::new(0),
                stores,
                history: RefCell::new(HistoryRecorder::default()),
                pending: RefCell::new(std::collections::BTreeMap::new()),
                wals,
                amnesiac,
                overload: OverloadState {
                    retry_tokens: Cell::new(retry_cap),
                    last_drip_ns: Cell::new(0),
                    retry_pressure: Cell::new(0),
                },
            }),
        }
    }

    /// The underlying simulator (to spawn drivers, run, read metrics).
    pub fn sim(&self) -> &Sim<Msg> {
        &self.sim
    }

    /// Cluster configuration.
    pub fn config(&self) -> &DtmConfig {
        &self.inner.cfg
    }

    /// Install an object on every replica (bootstrap; version 1). With
    /// durability armed the object is also persisted, so an amnesiac
    /// restart can rebuild the census from its own disk.
    pub fn preload(&self, oid: ObjectId, val: ObjVal) {
        for s in &self.inner.stores {
            s.borrow_mut().preload(oid, val.clone());
        }
        if let Some(wals) = &self.inner.wals {
            for w in wals {
                w.borrow_mut().preload(WalRecord {
                    writes: vec![(oid, Version::INITIAL, val.clone())],
                });
            }
        }
    }

    /// Install many objects on every replica.
    pub fn preload_all(&self, objs: impl IntoIterator<Item = (ObjectId, ObjVal)>) {
        for (oid, val) in objs {
            self.preload(oid, val);
        }
    }

    /// Current read quorum (every node uses the same designated quorums, as
    /// in the paper's experiments).
    pub fn read_quorum(&self) -> Vec<NodeId> {
        self.inner.quorum.borrow().read_q.to_vec()
    }

    /// Current write quorum.
    pub fn write_quorum(&self) -> Vec<NodeId> {
        self.inner.quorum.borrow().write_q.to_vec()
    }

    /// Fail a node and reconfigure the shared quorum view (the Cluster
    /// Manager reacting to a failure). Errors if no quorum survives, in
    /// which case the view is left untouched (and the node alive).
    /// Idempotent: failing a node the view already excludes is a no-op.
    pub fn fail_node(&self, node: NodeId) -> Result<(), QuorumError> {
        self.leave_view(node, true)
    }

    /// The one way out of the view, behind [`Cluster::fail_node`] (oracle:
    /// also kills the network) and [`Membership::eject`] (detector:
    /// view-only), mirroring [`Cluster::readmit_node`]: take the node out
    /// of the quorum system, recompute the quorums — or put it back and
    /// report that none survive — and run the view-change duties.
    fn leave_view(&self, node: NodeId, kill_network: bool) -> Result<(), QuorumError> {
        {
            let mut view = self.inner.quorum.borrow_mut();
            if !view.tq.is_alive(node.index()) {
                return Ok(());
            }
            view.tq.fail(node.index());
            if let Err(e) = view.recompute() {
                view.tq.recover(node.index());
                return Err(e);
            }
        }
        if kill_network {
            self.sim.fail_node(node);
        }
        self.view_change_transfer();
        Ok(())
    }

    /// Crash a node **with amnesia**: besides the view repair and network
    /// kill of [`Cluster::fail_node`], the node's volatile object table is
    /// wiped and its disk loses a seeded portion of the unsynced log buffer
    /// (possibly tearing the last persisted record). The node is marked
    /// amnesiac; its readmission replays snapshot+log and quorum-repairs
    /// the lost suffix instead of receiving the oracle-grade transfer.
    ///
    /// Requires [`DtmConfig::durability`] — without a disk there is nothing
    /// to restart from, and the call panics before it touches view, network
    /// or stores. Errors (like `fail_node`) if no quorum survives.
    pub fn crash_node_amnesia(&self, node: NodeId) -> Result<(), QuorumError> {
        assert!(
            self.inner.wals.is_some(),
            "crash_node_amnesia requires DtmConfig::durability"
        );
        self.fail_node(node)?;
        // fail_node no-ops when the view already excludes the node; the
        // crash must still take the network down and lose the state.
        self.sim.fail_node(node);
        self.forget(node);
        Ok(())
    }

    /// The modelled Cluster Manager's reconfiguration duties, run on every
    /// view change (instantaneous, off the transaction fast path):
    ///
    /// 1. bump the view epoch, fencing commit decisions whose vote round
    ///    straddles the change;
    /// 2. complete every decided-but-in-flight 2PC phase two on every
    ///    alive replica (2PC recovery: in-doubt transactions that already
    ///    have a decision are finished, not left blocking the new view);
    /// 3. state transfer: bring every alive replica up to the newest
    ///    committed copy of every object. Read/write quorum intersection
    ///    is only guaranteed *within* one view, so without this a read
    ///    quorum of the new view could miss commits installed on a write
    ///    quorum of an old one.
    fn view_change_transfer(&self) {
        self.inner.quorum.borrow_mut().epoch += 1;
        let alive = self.alive_except(None);
        for msg in self.inner.pending.borrow().values() {
            for &n in &alive {
                self.inner.stores[n.index()].borrow_mut().phase_two(msg);
            }
        }
        for (oid, version, val) in self.newest_copies(None, &alive) {
            for &n in &alive {
                self.inner.stores[n.index()]
                    .borrow_mut()
                    .refresh(oid, version, val.clone());
            }
        }
    }

    /// Network-alive nodes in id order, leaving out `except` — the peers a
    /// readmitted node may learn from never include the node itself.
    fn alive_except(&self, except: Option<NodeId>) -> Vec<NodeId> {
        let all = (0..self.inner.cfg.nodes as u32).map(NodeId);
        all.filter(|&n| Some(n) != except && self.sim.is_alive(n))
            .collect()
    }

    /// The max-version copy of `oid` among `peers`, if any holds one.
    fn newest_among(&self, peers: &[NodeId], oid: ObjectId) -> Option<(Version, ObjVal)> {
        let copies = peers.iter().filter_map(|&n| self.peek(n, oid));
        copies.max_by_key(|(v, _)| *v)
    }

    /// The one census behind every state transfer: the newest copy among
    /// `peers` of every object. Which objects exist is asked of the first
    /// alive node other than `joiner` — under full replication any replica
    /// that kept its table knows them all, and the node being readmitted
    /// may be an amnesiac the nemesis already revived, holding none.
    fn newest_copies<'a>(
        &'a self,
        joiner: Option<NodeId>,
        peers: &'a [NodeId],
    ) -> impl Iterator<Item = (ObjectId, Version, ObjVal)> + 'a {
        let donor = self.alive_except(joiner).into_iter().next();
        let census = donor.map(|d| self.inner.stores[d.index()].borrow().object_ids());
        census.into_iter().flatten().filter_map(move |oid| {
            let (version, val) = self.newest_among(peers, oid)?;
            Some((oid, version, val))
        })
    }

    /// Recover a failed (or falsely ejected) node.
    ///
    /// The replica state it kept while down is stale, and quorum
    /// intersection says nothing about commits it missed — if it rejoined
    /// as (part of) a read quorum unsynchronized, readers could observe
    /// old versions. So rejoin performs a **state transfer**: every object
    /// is brought up to the max-version copy held by the currently alive
    /// nodes before the node re-enters the quorum view. The transfer's
    /// install is atomic w.r.t. the view change, but its *cost* is charged
    /// to the rejoining node as server occupancy
    /// ([`Cluster::transfer_cost`]), so requests routed to a fresh
    /// joiner queue behind the transfer in fig10-style runs.
    pub fn recover_node(&self, node: NodeId) -> Result<(), QuorumError> {
        // Idempotent: recovering a node that is alive in both the quorum
        // view and the network is a no-op.
        if self.sim.is_alive(node) && self.inner.quorum.borrow().tq.is_alive(node.index()) {
            return Ok(());
        }
        self.readmit_node(node, true).map(|_| ())
    }

    /// The one readmission path behind [`Cluster::recover_node`] (oracle:
    /// also revives the network) and [`Membership::rejoin`] (detector:
    /// view-only): bring the node's replica up to date — honest
    /// replay+repair if it crashed with amnesia, oracle-grade state
    /// transfer otherwise — then recover it in the quorum view, charge the
    /// transfer as occupancy, and run the view-change duties. Returns the
    /// charged duration.
    fn readmit_node(&self, node: NodeId, revive_network: bool) -> Result<SimDuration, QuorumError> {
        let amnesiac = self.inner.amnesiac.borrow()[node.index()];
        let transfer = if amnesiac {
            self.amnesia_recovery(node)
        } else {
            self.state_transfer_to(node)
        };
        {
            let mut view = self.inner.quorum.borrow_mut();
            view.tq.recover(node.index());
            view.recompute()?;
        }
        if revive_network {
            self.sim.recover_node(node);
        }
        // The joiner spends the transfer time busy before serving again;
        // requests the new view routes to it queue behind the transfer.
        self.sim.occupy(node, transfer);
        self.view_change_transfer();
        Ok(transfer)
    }

    /// Honest recovery of an amnesiac replica, the tentpole of the
    /// durable-storage model:
    ///
    /// 1. **Replay**: read the durable snapshot+log back and reinstall it.
    ///    A torn tail (crash mid-append, or a `corrupt-tail` fault) is
    ///    detected and truncated — everything after the tear is treated as
    ///    lost.
    /// 2. **Quorum repair**: reconcile per-object versions against the
    ///    current read quorum (the paper's read rule — the max-version
    ///    quorum copy is the committed one) and pull every object the disk
    ///    image is missing or behind on. Charged one version-census round
    ///    trip plus one nominal link latency per repaired object, on top
    ///    of the disk replay cost.
    /// 3. **Re-baseline**: snapshot the repaired table so the disk is
    ///    caught up too.
    ///
    /// Returns the total occupancy to charge the restarting node.
    fn amnesia_recovery(&self, node: NodeId) -> SimDuration {
        let wals = self
            .inner
            .wals
            .as_ref()
            .expect("amnesiac node implies durability");
        let img = wals[node.index()].borrow_mut().replay();
        let mut store = NodeStore::new();
        for (oid, version, val) in install_stream(img.snapshot, img.records) {
            store.sync(oid, version, val);
        }
        let mut cost = img.cost;
        repair::account_wal_replay(
            &self.sim,
            node,
            img.records_replayed,
            img.torn_tail_detected,
        );
        // The disk image alone cannot know the object census — that is the
        // point of the repair.
        let rq: Vec<NodeId> = self
            .read_quorum()
            .into_iter()
            .filter(|&n| n != node && self.sim.is_alive(n))
            .collect();
        let mut repaired = 0u64;
        let mut bytes = 0u64;
        for (oid, version, val) in self.newest_copies(Some(node), &rq) {
            if store.get(oid).is_none_or(|r| r.version < version) {
                repaired += 1;
                bytes += val.approx_size() as u64;
                store.sync(oid, version, val);
            }
        }
        let nominal = self.inner.cfg.latency.nominal();
        cost += repair::charge_quorum_repair(&self.sim, node, repaired, bytes, nominal);
        cost += wals[node.index()].borrow_mut().snapshot(store.entries());
        *self.inner.stores[node.index()].borrow_mut() = store;
        self.inner.amnesiac.borrow_mut()[node.index()] = false;
        cost
    }

    /// The state-transfer occupancy a rejoining node is charged before it
    /// serves requests again: one nominal link latency per object in the
    /// census (a naive one-object-per-message pull from a donor) — exposed
    /// so detectors and checkers can bound how long a fresh joiner may
    /// stay silent.
    pub fn transfer_cost(&self) -> SimDuration {
        // Full replication: any store knows the census.
        let census = self.inner.stores[0].borrow().len();
        self.inner.cfg.latency.nominal() * census as u64
    }

    /// Bring `node`'s replica up to the max-version copy held by the other
    /// alive nodes and return the occupancy cost to charge for it
    /// ([`Cluster::transfer_cost`]).
    fn state_transfer_to(&self, node: NodeId) -> SimDuration {
        let peers = self.alive_except(Some(node));
        for (oid, version, val) in self.newest_copies(Some(node), &peers) {
            self.inner.stores[node.index()]
                .borrow_mut()
                .sync(oid, version, val);
        }
        self.transfer_cost()
    }

    /// Snapshot of the transaction statistics.
    pub fn stats(&self) -> DtmStats {
        self.inner.stats.borrow().clone()
    }

    /// Zero the transaction statistics (e.g. after warm-up).
    pub fn reset_stats(&self) {
        *self.inner.stats.borrow_mut() = DtmStats::default();
    }

    /// Read an object's replica at a specific node (tests, invariants).
    pub fn peek(&self, node: NodeId, oid: ObjectId) -> Option<(Version, ObjVal)> {
        self.inner.stores[node.index()]
            .borrow()
            .get(oid)
            .map(|r| (r.version, r.val.clone()))
    }

    /// The latest committed value of an object, as a reader would see it:
    /// max-version copy across the current read quorum.
    pub fn latest(&self, oid: ObjectId) -> Option<(Version, ObjVal)> {
        self.newest_among(&self.read_quorum(), oid)
    }

    /// Open a client bound to `node`; transactions it runs originate there.
    pub fn client(&self, node: NodeId) -> crate::engine::Client {
        crate::engine::Client::new(self.sim.clone(), Rc::clone(&self.inner), node)
    }

    /// Start recording the committed history for [`Cluster::verify_history`].
    pub fn enable_history(&self) {
        self.inner.history.borrow_mut().enable();
    }

    /// The commits recorded since [`Cluster::enable_history`].
    pub fn history(&self) -> Vec<CommitRecord> {
        self.inner.history.borrow().records().to_vec()
    }

    /// Check the recorded history for 1-copy-serializability violations
    /// (see [`crate::history`]); empty means the execution is equivalent to
    /// the serial order of its serialization points.
    pub fn verify_history(&self) -> Vec<Violation> {
        crate::history::verify(self.inner.history.borrow().records())
    }
}

/// The QR quorum view is the cluster's [`Membership`]: the oracle verbs
/// are [`Cluster::fail_node`] / [`Cluster::recover_node`], and the
/// detector's eject and rejoin take the same paths without touching the
/// network.
impl Membership for Cluster {
    fn node_count(&self) -> usize {
        self.inner.cfg.nodes
    }

    /// The *view's* notion of aliveness — may lag or contradict the
    /// network's when a failure detector is in charge.
    fn view_alive(&self, node: NodeId) -> bool {
        self.inner.quorum.borrow().is_view_alive(node.index())
    }

    fn view_epoch(&self) -> u64 {
        self.inner.quorum.borrow().epoch
    }

    fn crash(&self, node: NodeId) -> bool {
        self.fail_node(node).is_ok()
    }

    fn recover(&self, node: NodeId) -> bool {
        self.recover_node(node).is_ok()
    }

    /// The node may in fact be alive (false suspicion): it keeps serving
    /// whatever requests still reach it, but no new quorum includes it, so
    /// its replies stop mattering to quorum intersection. Idempotent on
    /// already-ejected nodes.
    fn eject(&self, node: NodeId) -> bool {
        self.leave_view(node, false).is_ok()
    }

    /// Whether the node is *actually* network-alive is the nemesis's or
    /// the oracle's business, never the detector's (a detector that
    /// resurrected nodes would heal the very faults it is supposed to
    /// detect). Same state transfer and occupancy charge as
    /// [`Cluster::recover_node`]; the detector turns the charge into the
    /// joiner's grace period instead of re-suspecting a node whose
    /// heartbeats queue behind its own state transfer.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration> {
        if self.view_alive(node) {
            return None;
        }
        self.readmit_node(node, false).ok()
    }

    /// Probes a scratch quorum system; the live view is untouched.
    fn survives_without(&self, node: NodeId) -> bool {
        let mut probe = TreeQuorum::new(Tree::ternary(self.inner.cfg.nodes));
        for n in 0..self.inner.cfg.nodes {
            if n == node.index() || !self.sim.is_alive(NodeId(n as u32)) {
                probe.fail(n);
            }
        }
        probe
            .read_quorum_at_level(self.inner.cfg.read_level)
            .is_ok()
            && probe.write_quorum().is_ok()
    }

    fn durable(&self) -> bool {
        self.inner.wals.is_some()
    }

    /// Empty object table, seeded partial loss of the unsynced disk
    /// buffer, amnesiac flag set.
    fn forget(&self, node: NodeId) {
        let wals = self
            .inner
            .wals
            .as_ref()
            .expect("an amnesiac crash requires DtmConfig::durability");
        *self.inner.stores[node.index()].borrow_mut() = NodeStore::new();
        self.sim
            .with_rng(|rng| wals[node.index()].borrow_mut().crash(rng));
        self.inner.amnesiac.borrow_mut()[node.index()] = true;
    }

    /// The damage sits undetected until the node's next amnesiac restart,
    /// whose replay finds the torn tail, truncates it, and repairs the
    /// difference from a read quorum.
    fn corrupt_tail(&self, node: NodeId) -> bool {
        match &self.inner.wals {
            Some(w) => w[node.index()].borrow_mut().corrupt_tail(1),
            None => false,
        }
    }
}

/// The cluster owns its simulation: dropping it runs [`Sim::shutdown`].
impl Drop for Cluster {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_builds_quorums() {
        let c = Cluster::new(DtmConfig::default());
        assert_eq!(c.read_quorum(), vec![NodeId(1), NodeId(2)], "Fig. 3's R1");
        assert_eq!(c.write_quorum().len(), 7);
        assert_eq!(c.sim().num_nodes(), 13);
    }

    #[test]
    fn preload_reaches_every_replica() {
        let c = Cluster::new(DtmConfig::default());
        c.preload(ObjectId(5), ObjVal::Int(99));
        for n in 0..13u32 {
            let (v, val) = c.peek(NodeId(n), ObjectId(5)).unwrap();
            assert_eq!(v, Version::INITIAL);
            assert_eq!(val, ObjVal::Int(99));
        }
    }

    #[test]
    fn fail_node_reconfigures_quorums() {
        let c = Cluster::new(DtmConfig {
            read_level: 0,
            ..Default::default()
        });
        assert_eq!(c.read_quorum(), vec![NodeId(0)]);
        c.fail_node(NodeId(0)).unwrap();
        assert_eq!(c.read_quorum(), vec![NodeId(1), NodeId(2)]);
        assert!(!c.sim().is_alive(NodeId(0)));
        c.recover_node(NodeId(0)).unwrap();
        assert_eq!(c.read_quorum(), vec![NodeId(0)]);
    }

    #[test]
    fn latest_picks_max_version_across_read_quorum() {
        let c = Cluster::new(DtmConfig::default());
        c.preload(ObjectId(1), ObjVal::Int(0));
        // Bump the copy at node 2 only (as if a write quorum had touched it).
        c.inner.stores[2].borrow_mut().apply(
            TxId { node: 9, seq: 9 },
            &[(ObjectId(1), Version(4), ObjVal::Int(44))],
        );
        let (v, val) = c.latest(ObjectId(1)).unwrap();
        assert_eq!(v, Version(4));
        assert_eq!(val, ObjVal::Int(44));
    }

    #[test]
    fn txids_are_unique() {
        let c = Cluster::new(DtmConfig::default());
        let a = c.inner.fresh_txid(NodeId(3));
        let b = c.inner.fresh_txid(NodeId(3));
        assert_ne!(a, b);
    }
}
