//! TFA — the Transaction Forwarding Algorithm of HyFlow (Saad &
//! Ravindran), the paper's non-replicated comparator (§VI-D).
//!
//! Single object copy, dataflow model: every object lives at its *home*
//! node; transactions acquire copies by **unicast** RPC. Asynchronous
//! per-node clocks order commits: a transaction records its start clock,
//! and when it acquires an object whose home clock has advanced past it,
//! it *forwards* — revalidating its read-set and advancing its own clock.
//! Commit locks the write-set objects at their homes, validates the
//! read-set, applies, and bumps the home clocks.
//!
//! TFA cannot survive a node failure (losing a home loses its objects);
//! the paper keeps it as the fastest no-failure baseline because unicast
//! round trips (~5 ms) are far cheaper than quorum multicast (~30 ms RTT).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use qrdtm_core::{
    Abort, DtmProtocol, LatencySpec, ObjVal, ObjectId, ProtocolStats, SimHosted, Version,
};
use qrdtm_sim::{NodeId, Sim, SimConfig, SimDuration, SimMessage};

/// TFA wire protocol.
#[derive(Clone, Debug)]
pub enum TfaMsg {
    /// Acquire an object copy from its home.
    Read {
        /// Object requested.
        oid: ObjectId,
    },
    /// Copy + the home's clock (for forwarding decisions).
    ReadOk {
        /// Current value.
        val: ObjVal,
        /// Current version.
        version: Version,
        /// Home node clock.
        clock: u64,
    },
    /// The object is locked by a committing transaction.
    ReadBusy,
    /// Revalidate read-set entries homed at this node.
    Validate {
        /// `(object, version)` pairs to check.
        entries: Vec<(ObjectId, Version)>,
    },
    /// Validation verdict + the home clock.
    ValidateOk {
        /// True if every entry is still current and unlocked.
        ok: bool,
        /// Home node clock.
        clock: u64,
    },
    /// Lock write-set entries homed at this node (commit phase one).
    Lock {
        /// Committing transaction (node, seq) for lock ownership.
        tx: (u32, u64),
        /// `(object, version)` pairs to lock.
        entries: Vec<(ObjectId, Version)>,
    },
    /// Lock verdict.
    LockOk {
        /// True if every entry was current and lockable.
        ok: bool,
    },
    /// Apply writes and unlock (commit phase two).
    Apply {
        /// Lock owner.
        tx: (u32, u64),
        /// `(object, new version, value)` triples homed here.
        writes: Vec<(ObjectId, Version, ObjVal)>,
    },
    /// Release locks after a failed commit.
    Release {
        /// Lock owner.
        tx: (u32, u64),
        /// Objects homed here to unlock.
        oids: Vec<ObjectId>,
    },
    /// Phase-two acknowledgement.
    Ack,
}

impl SimMessage for TfaMsg {
    fn class(&self) -> u8 {
        match self {
            TfaMsg::Read { .. } => 0,
            TfaMsg::ReadOk { .. } | TfaMsg::ReadBusy => 1,
            TfaMsg::Validate { .. } | TfaMsg::Lock { .. } => 2,
            TfaMsg::ValidateOk { .. } | TfaMsg::LockOk { .. } => 3,
            TfaMsg::Apply { .. } | TfaMsg::Release { .. } => 4,
            TfaMsg::Ack => 6,
        }
    }
}

struct HomeObj {
    val: ObjVal,
    version: Version,
    locked_by: Option<(u32, u64)>,
}

/// Per-node state: the objects homed here plus the node clock.
#[derive(Default)]
struct HomeStore {
    objects: HashMap<ObjectId, HomeObj>,
    clock: u64,
}

/// Unicast link latency (paper: ~5 ms RTT ⇒ 2.5 ms one-way).
const LATENCY: LatencySpec = LatencySpec::Jittered(SimDuration::from_micros(2_500), 0.1);
/// Per-request service time.
const SERVICE_TIME: SimDuration = SimDuration::from_micros(200);

/// Configuration for a TFA cluster.
#[derive(Clone, Debug)]
pub struct TfaConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Abort backoff base.
    pub backoff_base: SimDuration,
}

impl Default for TfaConfig {
    fn default() -> Self {
        TfaConfig {
            nodes: 13,
            seed: 1,
            backoff_base: SimDuration::from_millis(2),
        }
    }
}

/// A TFA cluster: single-copy objects hashed across homes.
pub struct TfaCluster {
    sim: Sim<TfaMsg>,
    nodes: usize,
    stores: Vec<Rc<RefCell<HomeStore>>>,
    stats: RefCell<ProtocolStats>,
    next_seq: Rc<std::cell::Cell<u64>>,
    backoff_base: SimDuration,
}

impl TfaCluster {
    /// Build a cluster and install the home handlers.
    pub fn new(cfg: TfaConfig) -> Self {
        let sim: Sim<TfaMsg> = Sim::new(SimConfig {
            seed: cfg.seed,
            latency: LATENCY.build(cfg.nodes, cfg.seed),
            service_time: SERVICE_TIME,
            service_by_class: [None; qrdtm_sim::MAX_CLASSES],
        });
        let node_ids = sim.add_nodes(cfg.nodes);
        let stores: Vec<Rc<RefCell<HomeStore>>> = (0..cfg.nodes)
            .map(|_| Rc::new(RefCell::new(HomeStore::default())))
            .collect();
        for (&node, store) in node_ids.iter().zip(&stores) {
            let store = Rc::clone(store);
            sim.set_handler(node, move |ctx, env| {
                let mut st = store.borrow_mut();
                match &env.msg {
                    TfaMsg::Read { oid } => {
                        let reply = match st.objects.get(oid) {
                            Some(o) if o.locked_by.is_none() => TfaMsg::ReadOk {
                                val: o.val.clone(),
                                version: o.version,
                                clock: st.clock,
                            },
                            Some(_) => TfaMsg::ReadBusy,
                            None => panic!("read of unknown object {oid}"),
                        };
                        ctx.respond(&env, reply);
                    }
                    TfaMsg::Validate { entries } => {
                        let ok = entries.iter().all(|(oid, v)| {
                            st.objects
                                .get(oid)
                                .is_some_and(|o| o.version == *v && o.locked_by.is_none())
                        });
                        let clock = st.clock;
                        ctx.respond(&env, TfaMsg::ValidateOk { ok, clock });
                    }
                    TfaMsg::Lock { tx, entries } => {
                        let ok = entries.iter().all(|(oid, v)| {
                            st.objects.get(oid).is_some_and(|o| {
                                o.version == *v
                                    && (o.locked_by.is_none() || o.locked_by == Some(*tx))
                            })
                        });
                        if ok {
                            for (oid, _) in entries {
                                st.objects.get_mut(oid).unwrap().locked_by = Some(*tx);
                            }
                        }
                        ctx.respond(&env, TfaMsg::LockOk { ok });
                    }
                    TfaMsg::Apply { tx, writes } => {
                        for (oid, version, val) in writes {
                            if let Some(o) = st.objects.get_mut(oid) {
                                o.val = val.clone();
                                o.version = *version;
                                if o.locked_by == Some(*tx) {
                                    o.locked_by = None;
                                }
                            }
                        }
                        st.clock += 1;
                        ctx.respond(&env, TfaMsg::Ack);
                    }
                    TfaMsg::Release { tx, oids } => {
                        for oid in oids {
                            if let Some(o) = st.objects.get_mut(oid) {
                                if o.locked_by == Some(*tx) {
                                    o.locked_by = None;
                                }
                            }
                        }
                        ctx.respond(&env, TfaMsg::Ack);
                    }
                    _ => {}
                }
            });
        }
        TfaCluster {
            sim,
            nodes: cfg.nodes,
            stores,
            stats: RefCell::default(),
            next_seq: Rc::new(std::cell::Cell::new(0)),
            backoff_base: cfg.backoff_base,
        }
    }

    /// The simulator handle.
    pub fn sim(&self) -> &Sim<TfaMsg> {
        &self.sim
    }

    /// The home node of `oid`.
    pub fn home(&self, oid: ObjectId) -> NodeId {
        NodeId((crate::mix(oid.0) % self.nodes as u64) as u32)
    }

    /// Install an object at its home (bootstrap).
    pub fn preload(&self, oid: ObjectId, val: ObjVal) {
        let home = self.home(oid);
        self.stores[home.index()].borrow_mut().objects.insert(
            oid,
            HomeObj {
                val,
                version: Version::INITIAL,
                locked_by: None,
            },
        );
    }

    /// The committed value of `oid` at its home.
    pub fn latest(&self, oid: ObjectId) -> Option<ObjVal> {
        self.stores[self.home(oid).index()]
            .borrow()
            .objects
            .get(&oid)
            .map(|o| o.val.clone())
    }

    /// Start a fresh attempt at `node`: new id, clock snapshot, empty sets.
    fn fresh_handle(&self, node: NodeId) -> TfaTxHandle {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let clock = self.stores[node.index()].borrow().clock;
        TfaTxHandle {
            node,
            id: (node.0, seq),
            clock,
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
        }
    }

    /// Acquire an object copy, transaction-forwarding if the home's clock
    /// ran ahead.
    async fn acquire(&self, tx: &mut TfaTxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        if let Some((_, v)) = tx.writes.get(&oid).or_else(|| tx.reads.get(&oid)) {
            return Ok(v.clone());
        }
        let home = self.home(oid);
        let res = self
            .sim
            .call(tx.node, &[home], TfaMsg::Read { oid }, None)
            .await;
        match res.replies.into_iter().next() {
            Some((
                _,
                TfaMsg::ReadOk {
                    val,
                    version,
                    clock,
                },
            )) => {
                if clock > tx.clock {
                    // Transaction forwarding: prove the read-set still holds,
                    // then advance our clock.
                    if !self.validate_entries(tx.node, &tx.reads).await {
                        return Err(Abort::root());
                    }
                    tx.clock = clock;
                }
                tx.reads.insert(oid, (version, val.clone()));
                Ok(val)
            }
            _ => Err(Abort::root()),
        }
    }

    /// Group entries by home node.
    fn by_home(
        &self,
        set: &BTreeMap<ObjectId, (Version, ObjVal)>,
    ) -> BTreeMap<NodeId, Vec<(ObjectId, Version)>> {
        let mut out: BTreeMap<NodeId, Vec<(ObjectId, Version)>> = BTreeMap::new();
        for (oid, (v, _)) in set {
            out.entry(self.home(*oid)).or_default().push((*oid, *v));
        }
        out
    }

    async fn validate_entries(
        &self,
        node: NodeId,
        set: &BTreeMap<ObjectId, (Version, ObjVal)>,
    ) -> bool {
        for (home, entries) in self.by_home(set) {
            let res = self
                .sim
                .call(node, &[home], TfaMsg::Validate { entries }, None)
                .await;
            let ok = matches!(
                res.replies.first(),
                Some((_, TfaMsg::ValidateOk { ok: true, .. }))
            );
            if !ok {
                return false;
            }
        }
        true
    }

    /// Commit one attempt: read-only transactions revalidate their read set;
    /// writers lock the write homes, validate the remaining reads, and apply
    /// (or release on failure).
    async fn commit_handle(&self, tx: &TfaTxHandle) -> Result<(), Abort> {
        if tx.writes.is_empty() {
            return if self.validate_entries(tx.node, &tx.reads).await {
                Ok(())
            } else {
                Err(Abort::root())
            };
        }
        let write_homes = self.by_home(&tx.writes);
        let mut locked: Vec<(NodeId, Vec<ObjectId>)> = Vec::new();
        let mut ok = true;
        for (home, entries) in &write_homes {
            let res = self
                .sim
                .call(
                    tx.node,
                    &[*home],
                    TfaMsg::Lock {
                        tx: tx.id,
                        entries: entries.clone(),
                    },
                    None,
                )
                .await;
            let got = matches!(res.replies.first(), Some((_, TfaMsg::LockOk { ok: true })));
            locked.push((*home, entries.iter().map(|(o, _)| *o).collect()));
            if !got {
                ok = false;
                break;
            }
        }
        // Validate reads not shadowed by writes.
        if ok {
            let read_only: BTreeMap<ObjectId, (Version, ObjVal)> = tx
                .reads
                .iter()
                .filter(|(o, _)| !tx.writes.contains_key(o))
                .map(|(o, v)| (*o, v.clone()))
                .collect();
            ok = self.validate_entries(tx.node, &read_only).await;
        }
        if !ok {
            for (home, oids) in locked {
                let _ = self
                    .sim
                    .call(tx.node, &[home], TfaMsg::Release { tx: tx.id, oids }, None)
                    .await;
            }
            return Err(Abort::root());
        }
        for (home, entries) in &write_homes {
            let writes: Vec<(ObjectId, Version, ObjVal)> = entries
                .iter()
                .map(|(oid, v)| (*oid, v.next(), tx.writes[oid].1.clone()))
                .collect();
            let _ = self
                .sim
                .call(tx.node, &[*home], TfaMsg::Apply { tx: tx.id, writes }, None)
                .await;
        }
        Ok(())
    }
}

/// An in-flight TFA transaction: owned copy-acquisition state, driven
/// through the [`DtmProtocol`] methods on [`TfaCluster`].
pub struct TfaTxHandle {
    node: NodeId,
    id: (u32, u64),
    clock: u64,
    reads: BTreeMap<ObjectId, (Version, ObjVal)>,
    writes: BTreeMap<ObjectId, (Version, ObjVal)>,
}

/// TFA as a [`DtmProtocol`]: flat transactions over unicast home-node
/// copies. Reported under the suite name "HyFlow", as in Fig. 9.
impl DtmProtocol for TfaCluster {
    type TxHandle = TfaTxHandle;

    fn protocol_name(&self) -> &'static str {
        "HyFlow"
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        TfaCluster::preload(self, oid, val);
    }

    fn begin(&self, node: NodeId) -> TfaTxHandle {
        self.fresh_handle(node)
    }

    async fn read(&self, tx: &mut TfaTxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        self.acquire(tx, oid).await
    }

    async fn write(&self, tx: &mut TfaTxHandle, oid: ObjectId, val: ObjVal) -> Result<(), Abort> {
        // TFA buffers writes against the version it acquired; a blind write
        // acquires the copy first.
        if !tx.writes.contains_key(&oid) && !tx.reads.contains_key(&oid) {
            self.acquire(tx, oid).await?;
        }
        let version = tx
            .writes
            .get(&oid)
            .or_else(|| tx.reads.get(&oid))
            .map(|(v, _)| *v)
            .expect("copy acquired above");
        tx.writes.insert(oid, (version, val));
        Ok(())
    }

    async fn commit(&self, tx: &mut TfaTxHandle) -> Result<(), Abort> {
        self.commit_handle(tx).await?;
        self.stats.borrow_mut().commits += 1;
        Ok(())
    }

    async fn restart(&self, tx: &mut TfaTxHandle, _abort: Abort) {
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
impl Drop for TfaCluster {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}

impl SimHosted for TfaCluster {
    type Msg = TfaMsg;

    fn sim(&self) -> &Sim<TfaMsg> {
        TfaCluster::sim(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::atomically;

    fn cluster() -> TfaCluster {
        let c = TfaCluster::new(TfaConfig::default());
        for i in 0..8u64 {
            c.preload(ObjectId(i), ObjVal::Int(100));
        }
        c
    }

    async fn transfer(c: &TfaCluster, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
        atomically(c, node, async |h| {
            let a = c.read(h, from).await?.expect_int();
            let b = c.read(h, to).await?.expect_int();
            c.write(h, from, ObjVal::Int(a - amount)).await?;
            c.write(h, to, ObjVal::Int(b + amount)).await
        })
        .await
    }

    async fn audit(c: &TfaCluster, node: NodeId, a: ObjectId, b: ObjectId) {
        atomically(c, node, async |h| {
            c.read(h, a).await?;
            c.read(h, b).await?;
            Ok(())
        })
        .await
    }

    #[test]
    fn objects_hash_to_stable_homes() {
        let c = cluster();
        let h = c.home(ObjectId(3));
        assert_eq!(h, c.home(ObjectId(3)));
        let homes: std::collections::HashSet<_> = (0..64).map(|i| c.home(ObjectId(i))).collect();
        assert!(homes.len() > 4, "objects spread across homes");
    }

    #[test]
    fn transfer_commits_and_moves_money() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            transfer(&c2, NodeId(0), ObjectId(1), ObjectId(2), 25).await;
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(1)), Some(ObjVal::Int(75)));
        assert_eq!(c.latest(ObjectId(2)), Some(ObjVal::Int(125)));
        assert_eq!(c.protocol_stats().commits, 1);
    }

    #[test]
    fn contending_transfers_conserve_money() {
        let c = Rc::new(cluster());
        for node in 0..6u32 {
            let c2 = Rc::clone(&c);
            c.sim().spawn(async move {
                for i in 0..4u64 {
                    let from = ObjectId((u64::from(node) + i) % 8);
                    let to = ObjectId((u64::from(node) + i + 1) % 8);
                    transfer(&c2, NodeId(node), from, to, 7).await;
                }
            });
        }
        c.sim().run();
        assert_eq!(c.protocol_stats().commits, 24);
        let total: i64 = (0..8u64)
            .map(|i| c.latest(ObjectId(i)).unwrap().expect_int())
            .sum();
        assert_eq!(total, 800, "no lost updates");
    }

    #[test]
    fn audit_commits_read_only() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            audit(&c2, NodeId(3), ObjectId(0), ObjectId(1)).await;
        });
        c.sim().run();
        assert_eq!(c.protocol_stats().commits, 1);
    }

    #[test]
    fn blind_write_acquires_the_copy_first() {
        let c = Rc::new(cluster());
        let c2 = Rc::clone(&c);
        c.sim().spawn(async move {
            let mut h = c2.begin(NodeId(0));
            c2.write(&mut h, ObjectId(4), ObjVal::Int(1)).await.unwrap();
            c2.commit(&mut h).await.unwrap();
        });
        c.sim().run();
        assert_eq!(c.latest(ObjectId(4)), Some(ObjVal::Int(1)));
        assert_eq!(c.protocol_stats().commits, 1);
    }

    #[test]
    fn forwarding_fires_when_clocks_advance() {
        let c = Rc::new(cluster());
        // One writer bumps clocks, then a reader with an old clock reads two
        // objects with a gap so the second read observes a newer home clock.
        let c2 = Rc::clone(&c);
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            // Reader starts first (clock 0), reads o1.
            let mut tx = c2.begin(NodeId(5));
            c2.read(&mut tx, ObjectId(1)).await.unwrap();
            let start = tx.clock;
            sim.sleep(SimDuration::from_millis(100)).await;
            // By now the writer committed elsewhere; reading o2 sees a newer
            // clock and triggers forwarding (revalidation of o1 — still
            // valid because the writer touched different objects).
            c2.read(&mut tx, ObjectId(2)).await.unwrap();
            assert!(tx.clock > start, "only forwarding advances the clock");
        });
        let c3 = Rc::clone(&c);
        let sim2 = c.sim().clone();
        c.sim().spawn(async move {
            sim2.sleep(SimDuration::from_millis(20)).await;
            // Write o2 (among others) so home(o2)'s clock advances before
            // the reader's second acquisition.
            transfer(&c3, NodeId(0), ObjectId(2), ObjectId(3), 1).await;
        });
        c.sim().run();
    }
}
