//! Decent-STM analogue — the paper's replicated comparator (§VI-D).
//!
//! Decent-STM (Bieniusa & Fuhrmann) keeps a *version history* per object on
//! fully decentralized replicas; transactions read possibly-stale snapshot
//! versions and "consistency in hindsight" decides commit order via a
//! randomized per-object consensus among the replicas.
//!
//! The analogue preserves the properties that drive Fig. 9's ordering:
//!
//! * reads assemble a snapshot from a small **fan-out** of replicas (history
//!   reconciliation) rather than one intersection-guaranteed quorum — each
//!   read costs `fanout` messages and a history-scan service time;
//! * writers run **one consensus round per written object** across *all*
//!   replicas (the decentralized commit), then an apply round — strictly
//!   more traffic and more round trips than QR's two-round write-quorum 2PC;
//! * read-only transactions proceed on a possibly-stale snapshot (the
//!   multi-version payoff) but still pay a decentralized *hindsight*
//!   validation round across all replicas before their result is final.
//!
//! Staleness: a snapshot read may return an old version; writers then fail
//! consensus and retry, which is the "higher overhead of the snapshot
//! algorithm" the paper observed. See DESIGN.md for the substitution notes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use qrdtm_core::{
    Abort, DtmProtocol, LatencySpec, ObjVal, ObjectId, ProtocolStats, SimHosted, Version,
};
use qrdtm_sim::{NodeId, Sim, SimConfig, SimDuration, SimMessage};

/// Bounded per-object version history kept by each replica.
const HISTORY: usize = 8;

/// Decent-STM wire protocol.
#[derive(Clone, Debug)]
pub enum DecentMsg {
    /// Fetch the newest version this replica knows.
    Read {
        /// Object requested.
        oid: ObjectId,
    },
    /// Reply with the replica's newest version.
    ReadOk {
        /// Version returned.
        version: Version,
        /// Value at that version.
        val: ObjVal,
    },
    /// Per-object consensus request: may `version + 1` be committed?
    Propose {
        /// Proposer (node, seq).
        tx: (u32, u64),
        /// Object being written.
        oid: ObjectId,
        /// Version the writer read.
        version: Version,
    },
    /// Consensus vote.
    Promise {
        /// True if no newer committed version exists and no other proposal
        /// holds the object.
        ok: bool,
    },
    /// Install the committed version on every replica.
    Apply {
        /// Proposer.
        tx: (u32, u64),
        /// Object written.
        oid: ObjectId,
        /// New version.
        version: Version,
        /// New value.
        val: ObjVal,
    },
    /// "Consistency in hindsight": a read-only transaction validates that
    /// its snapshot versions are (still) part of every replica's history
    /// before committing.
    ConfirmSnapshot {
        /// `(object, version)` pairs of the snapshot.
        entries: Vec<(ObjectId, Version)>,
    },
    /// Drop a proposal after a failed consensus.
    Withdraw {
        /// Proposer.
        tx: (u32, u64),
        /// Object proposed.
        oid: ObjectId,
    },
    /// Acknowledgement.
    Ack,
}

impl SimMessage for DecentMsg {
    fn class(&self) -> u8 {
        match self {
            DecentMsg::Read { .. } => 0,
            DecentMsg::ReadOk { .. } => 1,
            DecentMsg::Propose { .. } | DecentMsg::ConfirmSnapshot { .. } => 2,
            DecentMsg::Promise { .. } => 3,
            DecentMsg::Apply { .. } | DecentMsg::Withdraw { .. } => 4,
            DecentMsg::Ack => 6,
        }
    }
}

struct ReplicaObj {
    history: Vec<(Version, ObjVal)>, // newest last
    proposed_by: Option<(u32, u64)>,
}

impl ReplicaObj {
    fn newest(&self) -> &(Version, ObjVal) {
        self.history.last().expect("non-empty history")
    }
}

#[derive(Default)]
struct ReplicaStore {
    objects: HashMap<ObjectId, ReplicaObj>,
}

/// Link latency (same network as QR-DTM in the paper's comparison).
const LATENCY: LatencySpec = LatencySpec::Jittered(SimDuration::from_millis(15), 0.1);
/// Base service time; reads pay double (history reconciliation).
const SERVICE_TIME: SimDuration = SimDuration::from_micros(200);
/// Replicas consulted per read to assemble a snapshot.
const READ_FANOUT: usize = 3;

/// Configuration for a Decent-STM cluster.
#[derive(Clone, Debug)]
pub struct DecentConfig {
    /// Number of replicas (every node replicates every object).
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Abort backoff base.
    pub backoff_base: SimDuration,
}

impl Default for DecentConfig {
    fn default() -> Self {
        DecentConfig {
            nodes: 13,
            seed: 1,
            backoff_base: SimDuration::from_millis(4),
        }
    }
}

/// A Decent-STM cluster: full replication with version histories.
pub struct DecentCluster {
    sim: Sim<DecentMsg>,
    nodes: Vec<NodeId>,
    stores: Vec<Rc<RefCell<ReplicaStore>>>,
    stats: RefCell<ProtocolStats>,
    next_seq: Rc<std::cell::Cell<u64>>,
    backoff_base: SimDuration,
}

impl DecentCluster {
    /// Build a cluster and install the replica handlers.
    pub fn new(cfg: DecentConfig) -> Self {
        let mut service_by_class = [None; qrdtm_sim::MAX_CLASSES];
        // History scans make reads heavier than votes.
        service_by_class[0] = Some(SERVICE_TIME * 2);
        let sim: Sim<DecentMsg> = Sim::new(SimConfig {
            seed: cfg.seed,
            latency: LATENCY.build(cfg.nodes, cfg.seed),
            service_time: SERVICE_TIME,
            service_by_class,
        });
        let nodes = sim.add_nodes(cfg.nodes);
        let stores: Vec<Rc<RefCell<ReplicaStore>>> = (0..cfg.nodes)
            .map(|_| Rc::new(RefCell::new(ReplicaStore::default())))
            .collect();
        for (&node, store) in nodes.iter().zip(&stores) {
            let store = Rc::clone(store);
            sim.set_handler(node, move |ctx, env| {
                let mut st = store.borrow_mut();
                match &env.msg {
                    DecentMsg::Read { oid } => {
                        let o = st.objects.get(oid).expect("replicated object");
                        let (version, val) = o.newest().clone();
                        ctx.respond(&env, DecentMsg::ReadOk { version, val });
                    }
                    DecentMsg::Propose { tx, oid, version } => {
                        let o = st.objects.get_mut(oid).expect("replicated object");
                        let current = o.newest().0;
                        let ok = current == *version
                            && (o.proposed_by.is_none() || o.proposed_by == Some(*tx));
                        if ok {
                            o.proposed_by = Some(*tx);
                        }
                        ctx.respond(&env, DecentMsg::Promise { ok });
                    }
                    DecentMsg::Apply {
                        tx,
                        oid,
                        version,
                        val,
                    } => {
                        let o = st.objects.get_mut(oid).expect("replicated object");
                        if o.newest().0 < *version {
                            o.history.push((*version, val.clone()));
                            if o.history.len() > HISTORY {
                                o.history.remove(0);
                            }
                        }
                        if o.proposed_by == Some(*tx) {
                            o.proposed_by = None;
                        }
                        ctx.respond(&env, DecentMsg::Ack);
                    }
                    DecentMsg::ConfirmSnapshot { entries } => {
                        let ok = entries.iter().all(|(oid, version)| {
                            st.objects
                                .get(oid)
                                .is_some_and(|o| o.history.iter().any(|(v, _)| v == version))
                        });
                        ctx.respond(&env, DecentMsg::Promise { ok });
                    }
                    DecentMsg::Withdraw { tx, oid } => {
                        let o = st.objects.get_mut(oid).expect("replicated object");
                        if o.proposed_by == Some(*tx) {
                            o.proposed_by = None;
                        }
                        ctx.respond(&env, DecentMsg::Ack);
                    }
                    _ => {}
                }
            });
        }
        DecentCluster {
            sim,
            nodes,
            stores,
            stats: RefCell::default(),
            next_seq: Rc::new(std::cell::Cell::new(0)),
            backoff_base: cfg.backoff_base,
        }
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Sim<DecentMsg> {
        &self.sim
    }

    /// Install an object on every replica (bootstrap).
    pub fn preload(&self, oid: ObjectId, val: ObjVal) {
        for s in &self.stores {
            s.borrow_mut().objects.insert(
                oid,
                ReplicaObj {
                    history: vec![(Version::INITIAL, val.clone())],
                    proposed_by: None,
                },
            );
        }
    }

    /// Newest committed value across all replicas.
    pub fn latest(&self, oid: ObjectId) -> Option<ObjVal> {
        self.stores
            .iter()
            .filter_map(|s| s.borrow().objects.get(&oid).map(|o| o.newest().clone()))
            .max_by_key(|(v, _)| *v)
            .map(|(_, val)| val)
    }

    fn pick_replicas(&self, me: NodeId) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut out = Vec::with_capacity(READ_FANOUT);
        let start = self.sim.rand_below(n as u64) as usize;
        let mut i = start;
        while out.len() < READ_FANOUT.min(n) {
            let cand = self.nodes[i % n];
            if cand != me || n <= READ_FANOUT {
                out.push(cand);
            }
            i += 1;
        }
        out
    }

    /// Snapshot-read `oid` from a fan-out of replicas; newest version wins.
    pub async fn snapshot_read(&self, node: NodeId, oid: ObjectId) -> (Version, ObjVal) {
        let replicas = self.pick_replicas(node);
        let res = self
            .sim
            .call(node, &replicas, DecentMsg::Read { oid }, None)
            .await;
        res.replies
            .into_iter()
            .filter_map(|(_, m)| match m {
                DecentMsg::ReadOk { version, val } => Some((version, val)),
                _ => None,
            })
            .max_by_key(|(v, _)| *v)
            .expect("read fan-out non-empty")
    }

    /// Start a fresh attempt at `node`: new proposer id, empty snapshot.
    fn fresh_handle(&self, node: NodeId) -> DecentTxHandle {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        DecentTxHandle {
            node,
            id: (node.0, seq),
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }

    /// "Consistency in hindsight": confirm the snapshot `entries` against
    /// every replica's version history.
    async fn confirm_snapshot(&self, node: NodeId, entries: Vec<(ObjectId, Version)>) -> bool {
        let all: Vec<NodeId> = self.nodes.clone();
        let res = self
            .sim
            .call(node, &all, DecentMsg::ConfirmSnapshot { entries }, None)
            .await;
        res.replies
            .iter()
            .all(|(_, m)| matches!(m, DecentMsg::Promise { ok: true }))
    }

    /// Commit one attempt. Read-only transactions proceeded on a
    /// possibly-stale snapshot (the multi-version payoff) but still pay a
    /// decentralized hindsight-validation round before their result is
    /// final. Writers run one consensus round per written object across
    /// ALL replicas, then an apply round; failed consensus withdraws every
    /// proposal made so far.
    async fn commit_handle(&self, tx: &DecentTxHandle) -> Result<(), Abort> {
        if tx.writes.is_empty() {
            if tx.reads.is_empty() {
                return Ok(());
            }
            let entries = tx.reads.iter().map(|(o, (v, _))| (*o, *v)).collect();
            return if self.confirm_snapshot(tx.node, entries).await {
                Ok(())
            } else {
                Err(Abort::root())
            };
        }
        let all: Vec<NodeId> = self.nodes.clone();
        let mut agreed = true;
        let mut proposed: Vec<ObjectId> = Vec::new();
        for &oid in tx.writes.keys() {
            let version = tx.reads[&oid].0;
            let res = self
                .sim
                .call(
                    tx.node,
                    &all,
                    DecentMsg::Propose {
                        tx: tx.id,
                        oid,
                        version,
                    },
                    None,
                )
                .await;
            proposed.push(oid);
            let ok = res
                .replies
                .iter()
                .all(|(_, m)| matches!(m, DecentMsg::Promise { ok: true }));
            if !ok {
                agreed = false;
                break;
            }
        }
        // Hindsight-validate reads not shadowed by writes while the
        // proposals hold the written objects.
        if agreed {
            let pure: Vec<(ObjectId, Version)> = tx
                .reads
                .iter()
                .filter(|(o, _)| !tx.writes.contains_key(o))
                .map(|(o, (v, _))| (*o, *v))
                .collect();
            if !pure.is_empty() {
                agreed = self.confirm_snapshot(tx.node, pure).await;
            }
        }
        if !agreed {
            for oid in proposed {
                let _ = self
                    .sim
                    .call(tx.node, &all, DecentMsg::Withdraw { tx: tx.id, oid }, None)
                    .await;
            }
            return Err(Abort::root());
        }
        for (&oid, val) in &tx.writes {
            let version = tx.reads[&oid].0;
            let _ = self
                .sim
                .call(
                    tx.node,
                    &all,
                    DecentMsg::Apply {
                        tx: tx.id,
                        oid,
                        version: version.next(),
                        val: val.clone(),
                    },
                    None,
                )
                .await;
        }
        Ok(())
    }
}

/// An in-flight Decent-STM transaction: the snapshot assembled so far plus
/// buffered writes, driven through the [`DtmProtocol`] methods on
/// [`DecentCluster`].
pub struct DecentTxHandle {
    node: NodeId,
    id: (u32, u64),
    reads: BTreeMap<ObjectId, (Version, ObjVal)>,
    writes: BTreeMap<ObjectId, ObjVal>,
}

/// Decent-STM as a [`DtmProtocol`]: snapshot reads, per-object consensus
/// commit across all replicas.
impl DtmProtocol for DecentCluster {
    type TxHandle = DecentTxHandle;

    fn protocol_name(&self) -> &'static str {
        "Decent-STM"
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        DecentCluster::preload(self, oid, val);
    }

    fn begin(&self, node: NodeId) -> DecentTxHandle {
        self.fresh_handle(node)
    }

    async fn read(&self, tx: &mut DecentTxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        if let Some(val) = tx.writes.get(&oid) {
            return Ok(val.clone());
        }
        if let Some((_, val)) = tx.reads.get(&oid) {
            return Ok(val.clone());
        }
        let (version, val) = self.snapshot_read(tx.node, oid).await;
        tx.reads.insert(oid, (version, val.clone()));
        Ok(val)
    }

    async fn write(
        &self,
        tx: &mut DecentTxHandle,
        oid: ObjectId,
        val: ObjVal,
    ) -> Result<(), Abort> {
        // Consensus proposes against the snapshot version, so a blind write
        // assembles the snapshot entry first.
        if !tx.reads.contains_key(&oid) {
            let snap = self.snapshot_read(tx.node, oid).await;
            tx.reads.insert(oid, snap);
        }
        tx.writes.insert(oid, val);
        Ok(())
    }

    async fn commit(&self, tx: &mut DecentTxHandle) -> Result<(), Abort> {
        self.commit_handle(tx).await?;
        self.stats.borrow_mut().commits += 1;
        Ok(())
    }

    async fn restart(&self, tx: &mut DecentTxHandle, _abort: Abort) {
        self.stats.borrow_mut().aborts += 1;
        let d = self.backoff_base.mul_f64(self.sim.jitter(0.5, 2.0));
        self.sim.charge(d).await;
        *tx = self.fresh_handle(tx.node);
    }

    fn protocol_stats(&self) -> ProtocolStats {
        *self.stats.borrow()
    }

    fn reset_protocol_stats(&self) {
        self.stats.take();
    }
}

/// The cluster owns its simulation: dropping it runs [`Sim::shutdown`].
impl Drop for DecentCluster {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}

impl SimHosted for DecentCluster {
    type Msg = DecentMsg;

    fn sim(&self) -> &Sim<DecentMsg> {
        DecentCluster::sim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::atomically;

    fn cluster() -> DecentCluster {
        let c = DecentCluster::new(DecentConfig::default());
        for i in 0..8u64 {
            c.preload(ObjectId(i), ObjVal::Int(100));
        }
        c
    }

    async fn transfer(c: &DecentCluster, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
        atomically(c, node, async |h| {
            let a = c.read(h, from).await?.expect_int();
            let b = c.read(h, to).await?.expect_int();
            c.write(h, from, ObjVal::Int(a - amount)).await?;
            c.write(h, to, ObjVal::Int(b + amount)).await
        })
        .await
    }

    async fn audit(c: &DecentCluster, node: NodeId, a: ObjectId, b: ObjectId) -> i64 {
        atomically(c, node, async |h| {
            let va = c.read(h, a).await?.expect_int();
            let vb = c.read(h, b).await?.expect_int();
            Ok(va + vb)
        })
        .await
    }

    #[test]
    fn transfer_commits_everywhere() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&c2, NodeId(0), ObjectId(1), ObjectId(2), 40).await;
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(1)), Some(ObjVal::Int(60)));
        assert_eq!(c.latest(ObjectId(2)), Some(ObjVal::Int(140)));
        // Applied on every replica (full replication).
        for s in &c.stores {
            assert_eq!(s.borrow().objects[&ObjectId(1)].newest().0, Version(2));
        }
    }

    #[test]
    fn contending_transfers_conserve_money() {
        let c = Rc::new(cluster());
        for node in 0..6u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..3u64 {
                    let from = ObjectId((u64::from(node) + i) % 8);
                    let to = ObjectId((u64::from(node) + i + 3) % 8);
                    transfer(&c2, NodeId(node), from, to, 5).await;
                }
            });
        }
        c.sim().run();
        assert_eq!(c.protocol_stats().commits, 18);
        let total: i64 = (0..8u64)
            .map(|i| c.latest(ObjectId(i)).unwrap().expect_int())
            .sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn history_is_bounded() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            for _ in 0..HISTORY + 4 {
                transfer(&c2, NodeId(0), ObjectId(0), ObjectId(1), 1).await;
            }
        });
        c.sim().run();
        for s in &c.stores {
            assert!(s.borrow().objects[&ObjectId(0)].history.len() <= HISTORY);
        }
    }

    #[test]
    fn audits_need_a_hindsight_validation_round() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let sum = audit(&c2, NodeId(4), ObjectId(0), ObjectId(1)).await;
            assert_eq!(sum, 200);
        });
        c.sim().run();
        let m = c.sim().metrics();
        // 2 snapshot reads (fan-out 3) + one ConfirmSnapshot to all 13
        // replicas: the multi-version read is cheap but the commit is not.
        assert_eq!(m.sent(0), 6, "two fan-out reads");
        assert_eq!(m.sent(2), 13, "hindsight validation reaches every replica");
        assert_eq!(c.protocol_stats().commits, 1);
        assert_eq!(c.protocol_stats().aborts, 0);
    }

    #[test]
    fn read_fanout_bounds_read_traffic() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            c2.snapshot_read(NodeId(0), ObjectId(3)).await;
        });
        c.sim().run();
        assert_eq!(c.sim().metrics().sent(0), 3, "fan-out of 3 reads");
    }
}
