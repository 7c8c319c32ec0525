//! The simulator-level heartbeat layer: configuration, start/stop and the
//! observers' last-heard matrix (tick and arrival events are dispatched by
//! the event loop in `sim.rs`).

use rand::RngExt;

use crate::sim::{EventKind, Sim, SimMessage};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Configuration of the simulator-level heartbeat layer (see
/// [`Sim::start_heartbeats`]).
///
/// Heartbeats are plain simulator events, not protocol messages: they cross
/// the same latency model, partitions and link faults as real traffic, and
/// their *emission* is pushed behind the sender's service backlog (a node
/// drowning in requests — or slowed by a gray failure — heartbeats late),
/// but they never occupy the receiver's service queue, so enabling them
/// does not perturb protocol message timing.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Nominal interval between a node's heartbeats.
    pub interval: SimDuration,
    /// Per-beat jitter fraction: each gap is `interval * (1 ± jitter)`,
    /// drawn from the simulation RNG (keeps nodes de-synchronized while
    /// staying fully deterministic per seed).
    pub jitter: f64,
    /// A node is suspectable once no heartbeat from it was observed for
    /// `interval * suspect_after` (the *suspicion window* — also used to
    /// resolve timeout-less calls to dead nodes, see [`Sim::call`]).
    pub suspect_after: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: SimDuration::from_millis(50),
            jitter: 0.2,
            suspect_after: 4,
        }
    }
}

impl HeartbeatConfig {
    /// The suspicion window: `interval * suspect_after`.
    pub fn suspect_window(&self) -> SimDuration {
        SimDuration::from_nanos(self.interval.as_nanos() * u64::from(self.suspect_after))
    }
}

impl<M: SimMessage> Sim<M> {
    /// Start the heartbeat layer: every node emits periodic heartbeats to
    /// every other node, with seeded per-beat jitter, delivered through the
    /// regular latency/partition/link-fault path. Observers' last-heard
    /// times become available via [`Sim::last_heartbeat`]. Idempotent-ish:
    /// calling again replaces the config but does not double the tick
    /// streams.
    pub fn start_heartbeats(&self, cfg: HeartbeatConfig) {
        assert!(
            cfg.interval > SimDuration::ZERO && cfg.suspect_after > 0,
            "heartbeat interval and suspect_after must be positive"
        );
        let mut inner = self.core.inner.borrow_mut();
        let n = inner.nodes.len();
        let already = inner.heartbeat.is_some();
        inner.heartbeat = Some(cfg);
        let now = inner.now;
        inner.last_hb = vec![vec![now; n]; n];
        if already {
            return; // tick streams are still alive; only the config changed
        }
        // Stagger initial phases deterministically so all nodes do not
        // beat in lock-step.
        for i in 0..n {
            let frac = inner.rng.random_range(0.0..1.0);
            let at = now + cfg.interval.mul_f64(frac);
            inner.schedule(at, EventKind::HeartbeatTick(NodeId(i as u32)));
        }
    }

    /// Stop the heartbeat layer: in-flight ticks and heartbeats are
    /// discarded at dispatch and no new ones are scheduled (so `run()` can
    /// reach quiescence again).
    pub fn stop_heartbeats(&self) {
        self.core.inner.borrow_mut().heartbeat = None;
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
        s.start_heartbeats(HeartbeatConfig {
            interval: SimDuration::from_millis(20),
            jitter: 0.1,
            suspect_after: 3,
        });
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
        s.run(); // must quiesce: no perpetual tick stream
    }

    #[test]
    fn dead_node_heartbeats_resume_on_recovery() {
        let s = sim(5);
        let n = s.add_nodes(2);
        s.start_heartbeats(HeartbeatConfig {
            interval: SimDuration::from_millis(20),
            jitter: 0.0,
            suspect_after: 3,
        });
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
