//! Injected faults: node crashes and gray slowness, partitions, and
//! per-link loss and delay — the verbs that install them and the checks the
//! event loop consults at delivery time.

use rand::RngExt;

use crate::sim::{Sim, SimInner, SimMessage};
use crate::time::SimDuration;
use crate::NodeId;

/// Injected per-link fault state (directional, keyed by `(from, to)`).
#[derive(Clone, Copy, Default)]
pub(crate) struct LinkFault {
    /// Probability of dropping a message on this link, in permille.
    drop_permille: u16,
    /// Extra one-way latency added to every message on this link.
    extra_delay: SimDuration,
}

impl<M: SimMessage> SimInner<M> {
    /// Injected extra latency on the directed link `from -> to`.
    pub(crate) fn link_extra(&self, from: NodeId, to: NodeId) -> SimDuration {
        if self.link_faults.is_empty() {
            return SimDuration::ZERO;
        }
        self.link_faults
            .get(&(from.0, to.0))
            .map_or(SimDuration::ZERO, |lf| lf.extra_delay)
    }

    /// Consult injected network faults at delivery time: a partition between
    /// the endpoints or a probabilistic per-link drop loses the message.
    /// The RNG is touched only when a drop fault is actually installed on
    /// the link, so fault-free runs keep their exact event trace.
    pub(crate) fn delivery_faulted(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.nodes[from.index()].group != self.nodes[to.index()].group {
            self.metrics.dropped_by_partition += 1;
            return true;
        }
        if !self.link_faults.is_empty() {
            if let Some(lf) = self.link_faults.get(&(from.0, to.0)) {
                if lf.drop_permille > 0
                    && self.rng.random_range(0..1000u32) < u32::from(lf.drop_permille)
                {
                    self.metrics.dropped_by_link += 1;
                    return true;
                }
            }
        }
        false
    }
}

impl<M: SimMessage> Sim<M> {
    /// Mark `node` failed: queued and in-flight requests to it are dropped at
    /// dispatch/arrival, it stops issuing replies, and anything it sends is
    /// dropped at the source. Idempotent — failing a dead node is a no-op.
    pub fn fail_node(&self, node: NodeId) {
        self.core.inner.borrow_mut().nodes[node.index()].alive = false;
    }

    /// Bring a failed node back (its handler state is whatever the protocol
    /// left there — recovery semantics belong to the protocol layer).
    /// Idempotent — recovering an alive node is a no-op.
    pub fn recover_node(&self, node: NodeId) {
        self.core.inner.borrow_mut().nodes[node.index()].alive = true;
    }

    /// Partition the network into the given node groups: a message is
    /// delivered only if sender and receiver share a group. Nodes not listed
    /// in any group stay in the default group 0 (reachable from each other,
    /// unreachable from every listed group). Replaces any earlier partition.
    pub fn set_partition(&self, groups: &[Vec<NodeId>]) {
        let mut inner = self.core.inner.borrow_mut();
        for meta in inner.nodes.iter_mut() {
            meta.group = 0;
        }
        for (g, members) in groups.iter().enumerate() {
            for &n in members {
                inner.nodes[n.index()].group = g as u32 + 1;
            }
        }
    }

    /// Remove any partition: all nodes rejoin the default group.
    pub fn heal_partition(&self) {
        let mut inner = self.core.inner.borrow_mut();
        for meta in inner.nodes.iter_mut() {
            meta.group = 0;
        }
    }

    /// Install (or update) a message-loss fault on the directed link
    /// `from -> to`: each delivery on the link is dropped with probability
    /// `permille`/1000. Any extra-delay fault on the link is kept.
    pub fn set_link_drop(&self, from: NodeId, to: NodeId, permille: u16) {
        let mut inner = self.core.inner.borrow_mut();
        inner
            .link_faults
            .entry((from.0, to.0))
            .or_default()
            .drop_permille = permille.min(1000);
    }

    /// Install (or update) a latency-spike fault on the directed link
    /// `from -> to`: every message on the link takes `extra` additional
    /// one-way latency. Any drop fault on the link is kept.
    pub fn set_link_delay(&self, from: NodeId, to: NodeId, extra: SimDuration) {
        let mut inner = self.core.inner.borrow_mut();
        inner
            .link_faults
            .entry((from.0, to.0))
            .or_default()
            .extra_delay = extra;
    }

    /// Remove all injected faults from the directed link `from -> to`.
    pub fn clear_link_fault(&self, from: NodeId, to: NodeId) {
        self.core
            .inner
            .borrow_mut()
            .link_faults
            .remove(&(from.0, to.0));
    }

    /// Remove every injected link fault.
    pub fn clear_all_link_faults(&self) {
        self.core.inner.borrow_mut().link_faults.clear();
    }

    /// Scale `node`'s service time by `factor` (a gray failure: the node is
    /// up but slow). `1.0` restores healthy speed. Panics if `factor` is not
    /// finite and positive.
    pub fn set_service_factor(&self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "service factor must be finite and positive"
        );
        self.core.inner.borrow_mut().nodes[node.index()].service_factor = factor;
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.core.inner.borrow().nodes[node.index()].alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ConstLatency;
    use crate::sim::tests::{echo, sim, Msg};
    use crate::sim::SimConfig;
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn fail_and_recover_are_idempotent() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.fail_node(n[1]);
        s.fail_node(n[1]); // double-fail: no-op, no panic
        assert!(!s.is_alive(n[1]));
        let s2 = s.clone();
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(1),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(r.timed_out);
        });
        s.run();
        assert_eq!(s.metrics().dropped, 1, "one message, one drop");
        s.recover_node(n[1]);
        s.recover_node(n[1]); // recover-of-alive: no-op
        assert!(s.is_alive(n[1]));
        let s3 = s.clone();
        s.spawn(async move {
            let r = s3
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(2),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(!r.timed_out, "recovered node answers again");
        });
        s.run();
        assert_eq!(s.metrics().dropped, 1, "no further drops after recovery");
    }

    #[test]
    fn dead_sender_originates_nothing() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.fail_node(n[0]);
        let s2 = s.clone();
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(1),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(r.timed_out, "a crashed node's requests go nowhere");
        });
        s.run();
        let m = s.metrics();
        assert_eq!(m.dropped, 1);
        assert_eq!(m.sent_total, 0, "dropped at the source, never on the wire");
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_healed() {
        let s = sim(5);
        let n = s.add_nodes(4);
        echo(&s, n[1]);
        echo(&s, n[3]);
        s.set_partition(&[vec![n[0], n[1]], vec![n[2], n[3]]]);
        let s2 = s.clone();
        s.spawn(async move {
            // Same side: works.
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(1),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(!r.timed_out);
            // Across the cut: dropped at delivery.
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(3)],
                    Msg::Ping(2),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(r.timed_out);
        });
        s.run();
        assert_eq!(s.metrics().dropped_by_partition, 1);
        assert_eq!(s.metrics().dropped, 0);
        s.heal_partition();
        let s3 = s.clone();
        s.spawn(async move {
            let r = s3
                .call(
                    NodeId(0),
                    &[NodeId(3)],
                    Msg::Ping(3),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(!r.timed_out, "healed partition delivers again");
        });
        s.run();
    }

    #[test]
    fn certain_link_drop_loses_requests_until_cleared() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.set_link_drop(n[0], n[1], 1000);
        let s2 = s.clone();
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(1),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(r.timed_out);
        });
        s.run();
        assert_eq!(s.metrics().dropped_by_link, 1);
        s.clear_link_fault(n[0], n[1]);
        let s3 = s.clone();
        s.spawn(async move {
            let r = s3
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(2),
                    Some(SimDuration::from_millis(50)),
                )
                .await;
            assert!(!r.timed_out);
        });
        s.run();
        assert_eq!(s.metrics().dropped_by_link, 1, "cleared link is clean");
    }

    #[test]
    fn link_delay_slows_one_direction_only() {
        let s = sim(10);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.set_link_delay(n[0], n[1], SimDuration::from_millis(7));
        let s2 = s.clone();
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(1), None).await;
            done2.set(Some(s2.now()));
        });
        s.run();
        // 10ms + 7ms spike there, 200us service, 10ms back (reply link clean).
        assert_eq!(
            done.get().unwrap(),
            SimTime::ZERO + SimDuration::from_millis(27) + SimDuration::from_micros(200)
        );
    }

    #[test]
    fn service_factor_multiplies_service_time() {
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(10))));
        cfg.service_time = SimDuration::from_millis(5);
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.set_service_factor(n[1], 3.0);
        let s2 = s.clone();
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(1), None).await;
            done2.set(Some(s2.now()));
        });
        s.run();
        // 10ms there + 3x5ms service + 10ms back.
        assert_eq!(
            done.get().unwrap(),
            SimTime::ZERO + SimDuration::from_millis(35)
        );
        s.set_service_factor(n[1], 1.0);
        let s3 = s.clone();
        let t0 = s.now();
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            s3.call(NodeId(0), &[NodeId(1)], Msg::Ping(2), None).await;
            done2.set(Some(s3.now()));
        });
        s.run();
        assert_eq!(
            done.get().unwrap() - t0,
            SimDuration::from_millis(25),
            "restored node serves at healthy speed"
        );
    }
}
