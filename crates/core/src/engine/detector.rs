//! Failure detection: heartbeat-driven, suspicion-based membership.
//!
//! Everywhere else in the reproduction the quorum view is reconfigured by
//! an *oracle* — tests and the nemesis call [`Membership::crash`] /
//! [`Membership::recover`] directly, so the cluster is told who died.
//! This module replaces the oracle with honest detection: every node emits
//! periodic heartbeats through the simulated network (latency, partitions,
//! gray slowness and all — see
//! [`Sim::start_heartbeats`](qrdtm_sim::Sim::start_heartbeats)), and a
//! detector task turns *missed* heartbeats into suspicions, suspicions
//! into epoch-fenced view changes ([`Membership::eject`]), and resumed
//! heartbeats from a suspected node into rejoin-with-state-transfer
//! ([`Membership::rejoin`]).
//!
//! ## Semantics
//!
//! The detector models the paper's shared *Cluster Manager* (Fig. 4), so
//! like the quorum view it is a single logical entity: one task reads the
//! full observation matrix `last_hb[observer][sender]` and drives the
//! shared view. Each tick it
//!
//! 1. builds the **freshness graph** over view-alive nodes — an edge means
//!    both endpoints heard each other within the suspicion window
//!    (`interval × suspect_after`);
//! 2. keeps the largest connected component (ties to the one containing
//!    the lowest id) as the *reference partition* — under a network
//!    partition this is the majority side, exactly the side that should
//!    keep the view;
//! 3. ejects every view-alive node outside that component, unless doing so
//!    would destroy the quorums (then the node stays: a stale member is
//!    better than no view at all). A suspicion of a node the network still
//!    considers alive is counted as a **false suspicion** — survivable by
//!    construction, since ejection only changes the view and the vote
//!    round re-validates everything;
//! 4. rejoins every view-dead node some view-alive observer has heard
//!    within the window (crash healed, partition healed, or the suspicion
//!    was false all along) via the state-transferring `recover_node`.
//!
//! Everything is driven by the simulator's seeded clock and RNG, so
//! suspicion timestamps, view epochs and rejoins are exactly reproducible
//! per seed.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_sim::{
    Counter, EngineEventKind, HeartbeatConfig, NodeId, Sim, SimDuration, SimMessage, SimTime,
};

use crate::cluster::Cluster;

/// Arms the failure detector and the transport robustness that rides
/// along with it (see [`DtmConfig::detector`](crate::DtmConfig::detector)).
/// Heartbeat period, jitter and suspicion threshold are
/// [`HeartbeatConfig::default`]'s: every 50 ms ± 20 %, suspected after four
/// silent intervals.
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Transport: send read rounds to `read_q + hedge` destinations and
    /// accept the first `|read_q|` replies, masking slow members at the
    /// cost of wasted replies. 0 disables hedging.
    pub hedge: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { hedge: 1 }
    }
}

/// Transport, with a detector configured: re-issue a timed-out quorum RPC
/// up to this many times (capped exponential backoff between attempts)
/// before aborting.
pub(crate) const RPC_RETRIES: u32 = 2;

impl DetectorConfig {
    /// How long after a crash the detector may take to raise its suspicion
    /// (and, after a heal, to readmit the node) before a checker flags it.
    /// Suspicion fires once silence exceeds the window; twice the window
    /// plus four more intervals is the slack for heartbeat staggering,
    /// in-flight delivery and detector-tick quantization. `transfer_cost`
    /// covers a node that crashes right after rejoining: the detector
    /// deliberately does not suspect a joiner whose heartbeats queue behind
    /// the state transfer it was just charged.
    pub fn detection_bound(transfer_cost: SimDuration) -> SimDuration {
        let hb = HeartbeatConfig::default();
        hb.suspect_window() * 2 + hb.interval * 4 + transfer_cost
    }
}

/// The reconfigurable membership view of a fault-tolerant family — the
/// paper's Cluster Manager (Fig. 4) — and the one door through which the
/// detector, the nemesis and the tests crash, recover, forget and corrupt
/// its nodes. The QR family's quorum view ([`Cluster`]) and the Q-Store
/// planner view both implement it, so one detector serves every family
/// over its own wire type.
pub trait Membership {
    /// Number of nodes the view ranges over (ids `0..node_count`).
    fn node_count(&self) -> usize;
    /// Whether the view currently counts `node` a member.
    fn view_alive(&self, node: NodeId) -> bool;
    /// The current view (fencing) epoch.
    fn view_epoch(&self) -> u64;
    /// Oracle crash-stop: repair the view and kill `node` in the network,
    /// in the family's own order. `false` when refused (the view could not
    /// survive without it), leaving view and network untouched.
    fn crash(&self, node: NodeId) -> bool;
    /// Oracle recovery: revive a crashed `node` in the network and readmit
    /// it to the view (replaying and repairing first if it forgot its
    /// state). `false` when the family refuses.
    fn recover(&self, node: NodeId) -> bool;
    /// Remove a suspected `node` from the view without touching the
    /// network. `false` when refused (the view could not survive without
    /// it), leaving the view untouched.
    fn eject(&self, node: NodeId) -> bool;
    /// Readmit a view-dead `node` that is heard again, view-only. Returns
    /// the charged readmission cost (the joiner's grace period), or `None`
    /// when the node was not readmitted.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration>;
    /// Whether the nodes the network still has alive, minus `node`, could
    /// keep the view going (quorums for QR, a majority for Q-Store) — the
    /// view itself may not have noticed every death yet.
    fn survives_without(&self, node: NodeId) -> bool;
    /// Whether the nodes keep durable storage, which [`Membership::forget`]
    /// and [`Membership::corrupt_tail`] need.
    fn durable(&self) -> bool;
    /// Lose `node`'s volatile state, keeping only what its disk holds
    /// after a seeded crash; its readmission must replay and repair.
    /// Requires durable storage.
    fn forget(&self, node: NodeId);
    /// Corrupt the last record of `node`'s durable log in place; the next
    /// amnesiac replay finds the torn tail. `false` without durable storage
    /// or with an empty log.
    fn corrupt_tail(&self, node: NodeId) -> bool;
}

/// Detector-mode crash: kill `node` in the simulator only — no view
/// repair, no oracle; the failure detector must notice the silence on its
/// own. Refused (`false`) when the node is already dead or is the last
/// one keeping the view alive: the detector could only refuse the
/// ejection and the cluster would stall until heal.
pub fn crash_sim_only<M: SimMessage>(view: &dyn Membership, sim: &Sim<M>, node: NodeId) -> bool {
    if !sim.is_alive(node) || !view.survives_without(node) {
        return false;
    }
    sim.fail_node(node);
    true
}

/// Detector-mode heal: revive `node` in the simulator only; its heartbeats
/// resume and the detector rejoins it to the view (with state transfer).
/// `false` when the node is not dead.
pub fn recover_sim_only<M: SimMessage>(sim: &Sim<M>, node: NodeId) -> bool {
    if sim.is_alive(node) {
        return false;
    }
    sim.recover_node(node);
    true
}

/// Handle on a running detector task (see [`spawn_detector`]).
///
/// The handle is deliberately message-type-agnostic (the teardown is a
/// boxed callback, not a `Sim<Msg>`), so every protocol family hands back
/// the same handle shape through `ChaosTarget::start_detector`.
pub struct DetectorHandle {
    stop: Rc<Cell<bool>>,
    on_stop: Box<dyn Fn()>,
}

impl DetectorHandle {
    /// Stop the detector task (at its next tick) and the heartbeat layer.
    /// The membership view stays as the detector last left it.
    pub fn stop(&self) {
        self.stop.set(true);
        (self.on_stop)();
    }
}

/// Start the heartbeat layer and the detector task for `cluster`, per
/// [`DtmConfig::detector`](crate::DtmConfig::detector) (which must be set).
///
/// From this point on the cluster self-heals: no oracle calls to
/// [`Cluster::fail_node`] / [`Cluster::recover_node`] are needed — kill or
/// heal nodes in the simulator and the view follows within a bounded
/// number of heartbeat intervals.
pub fn spawn_detector(cluster: &Rc<Cluster>) -> DetectorHandle {
    assert!(
        cluster.config().detector.is_some(),
        "spawn_detector requires DtmConfig::detector"
    );
    spawn_detector_on(Rc::clone(cluster), cluster.sim().clone())
}

/// [`spawn_detector`] for any [`Membership`] view hosted on `sim`,
/// whatever its wire type. The task holds the view weakly — it usually
/// owns `sim` — and ends once the view is dropped.
pub fn spawn_detector_on<M: SimMessage, V: Membership + 'static>(
    view: Rc<V>,
    sim: Sim<M>,
) -> DetectorHandle {
    let hb = HeartbeatConfig::default();
    sim.start_heartbeats(hb);
    let stop = Rc::new(Cell::new(false));
    let handle = DetectorHandle {
        stop: Rc::clone(&stop),
        on_stop: Box::new({
            let sim = sim.clone();
            move || sim.stop_heartbeats()
        }),
    };
    let mut st = DetectorState::new(view.node_count());
    let view = Rc::downgrade(&view);
    sim.clone().spawn(async move {
        loop {
            sim.sleep(hb.interval).await;
            match view.upgrade() {
                Some(view) if !stop.get() => tick(&*view, &sim, hb.suspect_window(), &mut st),
                _ => return,
            }
        }
    });
    handle
}

/// Per-node bookkeeping the detector keeps across ticks.
struct DetectorState {
    /// When each node was last ejected by this detector — a rejoin
    /// requires a heartbeat heard strictly *after* that, so a stale
    /// in-flight beat from just before the suspicion can never flap the
    /// node straight back into the view.
    suspected_at: Vec<SimTime>,
    /// Post-rejoin grace: a fresh joiner is busy with its state transfer,
    /// so its own heartbeats queue behind it. The manager charged that
    /// transfer itself, so re-suspecting the node before
    /// `rejoin + transfer + window` has passed would be a self-inflicted
    /// eject/rejoin flap — suspicion is suppressed until then.
    grace_until: Vec<SimTime>,
}

impl DetectorState {
    fn new(nodes: usize) -> Self {
        DetectorState {
            suspected_at: vec![SimTime::ZERO; nodes],
            grace_until: vec![SimTime::ZERO; nodes],
        }
    }
}

/// One detector evaluation over the current observation matrix.
fn tick<M: SimMessage>(
    cluster: &impl Membership,
    sim: &Sim<M>,
    window: SimDuration,
    st: &mut DetectorState,
) {
    let nodes = cluster.node_count();
    let now = sim.now();
    let fresh = |observer: NodeId, sender: NodeId| {
        now.saturating_since(sim.last_heartbeat(observer, sender)) <= window
    };
    let trusted: Vec<NodeId> = (0..nodes as u32)
        .map(NodeId)
        .filter(|&n| cluster.view_alive(n))
        .collect();

    // Reference partition: largest bidirectionally-fresh component.
    let reference = reference_component(&trusted, &fresh);
    for &n in &trusted {
        if reference.contains(&n) {
            continue;
        }
        // A joiner still inside its state-transfer grace window is
        // expected to be silent; give it time before suspecting again.
        if now < st.grace_until[n.index()] {
            continue;
        }
        // Outside the reference component: suspect. Ejection fails only
        // when the view would lose its quorums without the node; then the
        // suspect stays (and is re-examined next tick).
        if !cluster.eject(n) {
            continue;
        }
        st.suspected_at[n.index()] = now;
        sim.bump(Counter::Suspicions);
        if sim.is_alive(n) {
            sim.bump(Counter::FalseSuspicions);
        }
        sim.emit_engine_event(EngineEventKind::NodeSuspected, n, cluster.view_epoch());
    }

    // Rejoin: a view-dead node is back once some view-alive observer has
    // heard it *after* the ejection and within the window (crash healed,
    // partition healed, or the suspicion was false all along). View-only
    // — a rejoin never resurrects the node in the network; that is the
    // oracle's (or nemesis's) business.
    for v in (0..nodes as u32).map(NodeId) {
        if cluster.view_alive(v) {
            continue;
        }
        let heard = (0..nodes as u32)
            .map(NodeId)
            .filter(|&o| o != v && cluster.view_alive(o))
            .map(|o| sim.last_heartbeat(o, v))
            .max()
            .unwrap_or(SimTime::ZERO);
        // Strictly newer than the window also implies newer than the
        // heartbeat start (last_hb seeds at start time), so a node that
        // never beat is not rejoined by the seed value.
        if heard > st.suspected_at[v.index()] && now.saturating_since(heard) <= window {
            if let Some(transfer) = cluster.rejoin(v) {
                st.grace_until[v.index()] = now + transfer + window;
                sim.bump(Counter::Rejoins);
                sim.emit_engine_event(EngineEventKind::NodeRejoined, v, cluster.view_epoch());
            }
        }
    }
}

/// Largest connected component of the bidirectional-freshness graph over
/// `trusted`; ties break to the component containing the lowest node id.
fn reference_component(trusted: &[NodeId], fresh: &dyn Fn(NodeId, NodeId) -> bool) -> Vec<NodeId> {
    let mut best: Vec<NodeId> = Vec::new();
    let mut seen: Vec<NodeId> = Vec::new();
    for &start in trusted {
        if seen.contains(&start) {
            continue;
        }
        // BFS over "a and b heard each other within the window".
        let mut comp = vec![start];
        let mut frontier = vec![start];
        while let Some(a) = frontier.pop() {
            for &b in trusted {
                if !comp.contains(&b) && fresh(a, b) && fresh(b, a) {
                    comp.push(b);
                    frontier.push(b);
                }
            }
        }
        seen.extend(comp.iter().copied());
        // Larger wins; first-found (containing the lowest unseen id, and
        // trusted is id-sorted) wins ties.
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best
}
