//! The simulator-level heartbeat layer: timing constants, start/stop and
//! the observers' last-heard matrix (tick and arrival events are dispatched
//! by the event loop in `sim.rs`).

use rand::RngExt;

use crate::sim::{EventKind, Sim, SimMessage};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Nominal interval between a node's heartbeats.
///
/// Heartbeats are plain simulator events, not protocol messages: they cross
/// the same latency model, partitions and link faults as real traffic, and
/// their *emission* is pushed behind the sender's service backlog (a node
/// drowning in requests — or slowed by a gray failure — heartbeats late),
/// but they never occupy the receiver's service queue, so enabling them
/// does not perturb protocol message timing.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// Per-beat jitter fraction: each gap is `interval * (1 ± jitter)`, drawn
/// from the simulation RNG (keeps nodes de-synchronized while staying fully
/// deterministic per seed).
pub(crate) const HEARTBEAT_JITTER: f64 = 0.2;

/// The suspicion window, four heartbeat intervals: a node is suspectable
/// once no heartbeat from it was observed for this long (also used to
/// resolve timeout-less calls to dead nodes, see [`Sim::call`]).
pub const SUSPECT_WINDOW: SimDuration = SimDuration::from_nanos(HEARTBEAT_INTERVAL.as_nanos() * 4);

impl<M: SimMessage> Sim<M> {
    /// Start the heartbeat layer: every node emits periodic heartbeats to
    /// every other node, with seeded per-beat jitter, delivered through the
    /// regular latency/partition/link-fault path, every
    /// [`HEARTBEAT_INTERVAL`]. Observers' last-heard times become available
    /// via [`Sim::last_heartbeat`]. Calling again re-seeds the last-heard
    /// matrix but does not double the tick streams.
    pub fn start_heartbeats(&self) {
        let mut inner = self.core.inner.borrow_mut();
        let n = inner.nodes.len();
        let already = inner.heartbeat;
        inner.heartbeat = true;
        let now = inner.now;
        inner.last_hb = vec![vec![now; n]; n];
        if already {
            return; // tick streams are still alive
        }
        // Stagger initial phases deterministically so all nodes do not
        // beat in lock-step.
        for i in 0..n {
            let frac = inner.rng.random_range(0.0..1.0);
            let at = now + HEARTBEAT_INTERVAL.mul_f64(frac);
            inner.schedule(at, EventKind::HeartbeatTick(NodeId(i as u32)));
        }
    }

    /// Stop the heartbeat layer: in-flight ticks and heartbeats are
    /// discarded at dispatch and no new ones are scheduled (so `run()` can
    /// reach quiescence again).
    pub fn stop_heartbeats(&self) {
        self.core.inner.borrow_mut().heartbeat = false;
    }

    /// The last virtual time `observer` received a heartbeat from `from`
    /// (the enable instant if none arrived yet). Panics if heartbeats were
    /// never started.
    pub fn last_heartbeat(&self, observer: NodeId, from: NodeId) -> SimTime {
        self.core.inner.borrow().last_hb[observer.index()][from.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{echo, sim, Msg};

    #[test]
    fn heartbeats_flow_and_respect_partitions() {
        let s = sim(5);
        let n = s.add_nodes(3);
        s.start_heartbeats();
        s.run_for(SimDuration::from_millis(200));
        let m = s.metrics();
        assert!(m.heartbeats_sent > 0);
        assert!(m.heartbeats_delivered > 0);
        let t1 = s.last_heartbeat(n[0], n[1]);
        assert!(t1 > SimTime::ZERO, "observer 0 heard node 1");
        // Partition node 2 away: nodes 0/1 stop hearing it, it keeps
        // hearing nothing from them either, but 0 and 1 stay fresh.
        s.set_partition(&[vec![n[0], n[1]], vec![n[2]]]);
        let cut_at = s.now();
        s.run_for(SimDuration::from_millis(200));
        assert!(
            s.last_heartbeat(n[0], n[2]) <= cut_at,
            "no heartbeat crosses the cut"
        );
        assert!(
            s.last_heartbeat(n[0], n[1]) > cut_at,
            "same side stays fresh"
        );
        s.stop_heartbeats();
        let kept = s.last_heartbeat(n[0], n[1]);
        assert!(kept > cut_at, "stopping keeps the record");
        s.run(); // must quiesce: no perpetual tick stream
    }

    #[test]
    fn dead_node_heartbeats_resume_on_recovery() {
        let s = sim(5);
        let n = s.add_nodes(2);
        s.start_heartbeats();
        s.fail_node(n[1]);
        s.run_for(SimDuration::from_millis(100));
        let stale = s.last_heartbeat(n[0], n[1]);
        s.recover_node(n[1]);
        s.run_for(SimDuration::from_millis(100));
        assert!(
            s.last_heartbeat(n[0], n[1]) > stale,
            "recovered node beats again without re-arming"
        );
        s.stop_heartbeats();
        s.run();
    }

    #[test]
    fn heartbeats_off_keep_trace_identical() {
        // The heartbeat layer must be strictly opt-in: a sim that never
        // starts it behaves exactly like one built before the layer
        // existed (same RNG draws, same event count).
        fn trace() -> (u64, u64) {
            let s = sim(7);
            let n = s.add_nodes(3);
            echo(&s, n[1]);
            echo(&s, n[2]);
            let s2 = s.clone();
            s.spawn(async move {
                s2.call(NodeId(0), &[NodeId(1), NodeId(2)], Msg::Ping(1), None)
                    .await;
            });
            s.run();
            (s.metrics().events, s.metrics().sent_total)
        }
        assert_eq!(trace(), trace());
    }
}
