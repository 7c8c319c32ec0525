//! Failure detection: heartbeat-driven, suspicion-based membership.
//!
//! Everywhere else in the reproduction the quorum view is reconfigured by
//! an *oracle* — tests and the nemesis call [`crash`] / [`recover`]
//! directly, so the cluster is told who died. The oracle is this detector
//! with zero latency: a network fault followed by the same view verbs,
//! [`Membership::eject`] and [`Membership::rejoin`]. This module replaces
//! the oracle with honest detection: every node emits periodic heartbeats
//! through the simulated network (latency, partitions, gray slowness and
//! all — see [`Sim::start_heartbeats`](qrdtm_sim::Sim::start_heartbeats)),
//! and a detector task turns *missed* heartbeats into suspicions, suspicions
//! into epoch-fenced view changes ([`Membership::eject`]), and resumed
//! heartbeats from a suspected node into rejoin-with-state-transfer
//! ([`Membership::rejoin`]). With a detector in charge a fault is the
//! simulator's alone ([`Sim::fail_node`] / [`Sim::recover_node`]), and
//! the view follows only what the detector observes.
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
//!    ([`SUSPECT_WINDOW`], four heartbeat intervals);
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
//!    was false all along) via the state-transferring
//!    [`Membership::rejoin`].
//!
//! Everything is driven by the simulator's seeded clock and RNG, so
//! suspicion timestamps, view epochs and rejoins are exactly reproducible
//! per seed.
//!
//! The detector moves the view and nothing else: a transaction's quorum
//! calls are the same with or without one — a read waits for its whole
//! read quorum, a vote for its whole write quorum, and a timeout aborts
//! the root, whose retry then meets the view the detector has rebuilt.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_sim::{
    Counter, EngineEventKind, NodeId, Sim, SimDuration, SimMessage, SimTime, HEARTBEAT_INTERVAL,
    SUSPECT_WINDOW,
};

/// The reconfigurable membership view of a fault-tolerant family — the
/// paper's Cluster Manager (Fig. 4) — and the one door through which the
/// detector, the nemesis and the tests eject, readmit, forget and corrupt
/// its nodes ([`crash`] and [`recover`] put a network fault before the
/// first two). The QR family's quorum view
/// ([`Cluster`](crate::Cluster)) and the Q-Store planner view both
/// implement it, so one detector serves every family over its own wire
/// type.
pub trait Membership {
    /// Number of nodes the view ranges over (ids `0..node_count`).
    fn node_count(&self) -> usize;
    /// Whether the view currently counts `node` a member.
    fn view_alive(&self, node: NodeId) -> bool;
    /// The current view (fencing) epoch.
    fn view_epoch(&self) -> u64;
    /// Remove a suspected `node` from the view without touching the
    /// network. `false` when refused (the view could not survive without
    /// it), leaving the view untouched.
    fn eject(&self, node: NodeId) -> bool;
    /// Readmit `node` to the view without touching the network, replaying
    /// and repairing first if it forgot its state. Runs the whole
    /// readmission (state transfer, new epoch) even for a node the view
    /// still lists. Returns the charged readmission cost (the joiner's
    /// grace period), or `None` when the node was not readmitted.
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
    /// The node a Fig. 10 failure step kills: the first member of the
    /// current read quorum. `None` for a family that reads from no
    /// designated quorum.
    fn read_quorum_victim(&self) -> Option<NodeId> {
        None
    }
    /// How long after a crash the detector may take to raise its suspicion
    /// (and, after a heal, to readmit the node) before a checker flags it:
    /// [`DETECTION_SLACK`] plus the state-transfer cost the family charges
    /// a joiner. The detector deliberately does not suspect a joiner whose
    /// heartbeats queue behind that transfer, so a node that crashes right
    /// after rejoining is noticed that much later.
    fn detection_bound(&self) -> SimDuration;
}

/// The part of every [`Membership::detection_bound`] that is the
/// detector's own: suspicion fires once silence exceeds the
/// [`SUSPECT_WINDOW`]; twice the window plus four more intervals is the
/// slack for heartbeat staggering, in-flight delivery and detector-tick
/// quantization.
pub const DETECTION_SLACK: SimDuration =
    SimDuration::from_nanos(SUSPECT_WINDOW.as_nanos() * 2 + HEARTBEAT_INTERVAL.as_nanos() * 4);

/// Oracle crash-stop, the detector with zero latency: kill `node` in the
/// network, then [`Membership::eject`] it if the view still lists it. A
/// node the view already excludes is killed and the call returns `true`.
/// Refused (`false`, view and network untouched) only when the view lists
/// the node, the network has it alive, and the nodes left could not keep
/// the view going ([`Membership::survives_without`]). One corner: when the
/// view has fallen behind the network, the eject itself may still be
/// refused, and the node then stays listed but down, as after a fault
/// of the simulator alone ([`Sim::fail_node`], what the nemesis does in
/// detector mode). An amnesiac crash is `crash`, then
/// [`Membership::forget`].
pub fn crash<M: SimMessage>(view: &dyn Membership, sim: &Sim<M>, node: NodeId) -> bool {
    let listed = view.view_alive(node);
    if listed && sim.is_alive(node) && !view.survives_without(node) {
        return false;
    }
    sim.fail_node(node);
    if listed {
        view.eject(node);
    }
    true
}

/// Oracle recovery: revive `node` in the network and readmit it through
/// [`Membership::rejoin`] (replaying and repairing first if it forgot its
/// state) — also a node the view still lists but that was down. A node
/// alive in both the view and the network is left as it is and the call
/// returns `true`; otherwise `false` when the family refuses the rejoin.
pub fn recover<M: SimMessage>(view: &dyn Membership, sim: &Sim<M>, node: NodeId) -> bool {
    if view.view_alive(node) && sim.is_alive(node) {
        return true;
    }
    sim.recover_node(node);
    view.rejoin(node).is_some()
}

/// Handle on a running detector task (see [`spawn_detector`]).
///
/// The handle is deliberately message-type-agnostic (the teardown is a
/// boxed callback, not a `Sim<Msg>`), so one handle shape serves every
/// protocol family's view.
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

/// Start the heartbeat layer and the detector task for any [`Membership`]
/// view hosted on `sim`, whatever its wire type (a concrete cluster or an
/// `Rc<dyn Membership>`). The task holds the view weakly — it usually owns
/// `sim` — and ends once the view is dropped.
///
/// From this point on the view self-heals: no oracle calls to [`crash`] /
/// [`recover`] are needed — kill or heal nodes in the simulator and the
/// view follows within [`Membership::detection_bound`].
pub fn spawn_detector<M: SimMessage, V: Membership + ?Sized + 'static>(
    view: Rc<V>,
    sim: Sim<M>,
) -> DetectorHandle {
    sim.start_heartbeats();
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
            sim.sleep(HEARTBEAT_INTERVAL).await;
            match view.upgrade() {
                Some(view) if !stop.get() => tick(&*view, &sim, &mut st),
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
fn tick<M: SimMessage, V: Membership + ?Sized>(cluster: &V, sim: &Sim<M>, st: &mut DetectorState) {
    let nodes = cluster.node_count();
    let now = sim.now();
    let fresh = |observer: NodeId, sender: NodeId| {
        now.saturating_since(sim.last_heartbeat(observer, sender)) <= SUSPECT_WINDOW
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
        if heard > st.suspected_at[v.index()] && now.saturating_since(heard) <= SUSPECT_WINDOW {
            if let Some(transfer) = cluster.rejoin(v) {
                st.grace_until[v.index()] = now + transfer + SUSPECT_WINDOW;
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
