//! Quorum RPC: one request fanned out to several nodes, the replies
//! gathered by a future that resolves on the last needed reply or on timeout.
//!
//! The state of a call in flight lives in the simulator's own table
//! (`SimInner::pending`, keyed by [`CallId`]) from the send until its
//! [`CallFuture`] takes the result or is dropped; the future holds the id,
//! nothing else. The reply vector, which the caller keeps, is the one
//! allocation a call makes.
//!
//! A call's one deadline goes through the wheel's far lane and still pops
//! as an event, answered or not. A hedged call that resolves early leaves a
//! count of stragglers in `SimInner::resolved_extra`; each is retired when
//! its reply arrives (wasted) or is known lost (`SimInner::reply_lost`).

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::sim::{Envelope, Sim, SimCore, SimMessage};
use crate::time::SimDuration;
use crate::NodeId;

/// Correlates a reply with the [`CallFuture`] awaiting it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallId(pub(crate) u64);

pub(crate) struct CallState<M> {
    /// Destinations the call was sent to, less those known unable to answer.
    pub(crate) expected: usize,
    /// Replies that resolve the future: every destination's for a plain
    /// call, fewer for a hedged first-quorum call.
    pub(crate) need: usize,
    pub(crate) replies: Vec<(NodeId, M)>,
    pub(crate) timed_out: bool,
    pub(crate) waker: Option<Waker>,
}

impl<M> CallState<M> {
    /// Whether the future may take its result: enough replies, or timeout.
    /// A resolved call accepts no further reply.
    pub(crate) fn resolved(&self) -> bool {
        self.replies.len() >= self.need || self.timed_out
    }

    pub(crate) fn wake(&mut self) {
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }
}

impl<M: SimMessage> Sim<M> {
    /// Send `msg` to every node in `dests` and await their replies.
    ///
    /// The returned future resolves when all `dests.len()` replies arrived,
    /// or at `timeout` with whatever replies came by then. Without a timeout
    /// the caller must know every destination is alive, or the call never
    /// resolves (like a real RPC with no failure detector) — unless the
    /// heartbeat layer is running, in which case such calls are resolved as
    /// timed-out after one suspicion window (the detector is the failure
    /// oracle now), and either way a `no_timeout_dead_calls` counter
    /// records the footgun.
    pub fn call(
        &self,
        from: NodeId,
        dests: &[NodeId],
        msg: M,
        timeout: Option<SimDuration>,
    ) -> CallFuture<M> {
        self.call_first(from, dests, msg, dests.len(), timeout)
    }

    /// Like [`Sim::call`], but the future resolves as soon as the first
    /// `need` replies arrived (hedged-request support: send to a quorum
    /// plus spares, take the first quorum of replies). Later replies are
    /// counted as wasted. `need` is clamped to `1..=dests.len()`; a call to
    /// nobody resolves at once with no replies, and schedules nothing.
    pub fn call_first(
        &self,
        from: NodeId,
        dests: &[NodeId],
        msg: M,
        need: usize,
        timeout: Option<SimDuration>,
    ) -> CallFuture<M> {
        let mut inner = self.core.inner.borrow_mut();
        let id = CallId(inner.next_call);
        inner.next_call += 1;
        inner.pending.insert(
            id,
            CallState {
                expected: dests.len(),
                need: need.clamp(dests.len().min(1), dests.len()),
                replies: Vec::with_capacity(dests.len()),
                timed_out: false,
                waker: None,
            },
        );
        for &to in dests {
            inner.send_request(Envelope {
                from,
                to,
                call: Some(id),
                msg: msg.clone(),
            });
        }
        if dests.is_empty() {
            // Resolved as it stands (`need` is 0): no timer to wait out.
        } else if let Some(t) = timeout {
            let at = inner.now + t;
            inner.schedule_timeout(at, id);
        } else if dests.iter().any(|&d| !inner.nodes[d.index()].alive) {
            // The documented footgun: a timeout-less call to a dead node
            // hangs forever. Count it always; with the heartbeat layer
            // running, bound it by the suspicion window instead.
            inner.metrics.no_timeout_dead_calls += 1;
            if let Some(hb) = inner.heartbeat {
                let at = inner.now + hb.suspect_window();
                inner.schedule_timeout(at, id);
            }
        }
        CallFuture {
            core: Rc::clone(&self.core),
            id,
        }
    }
}

/// Replies gathered by a [`CallFuture`].
#[derive(Debug)]
pub struct CallResult<M> {
    /// `(responder, reply)` pairs in arrival order.
    pub replies: Vec<(NodeId, M)>,
    /// True if the call timed out before all replies arrived.
    pub timed_out: bool,
}

/// Future returned by [`Sim::call`]; resolves with all replies or on
/// timeout.
pub struct CallFuture<M: SimMessage> {
    core: Rc<SimCore<M>>,
    id: CallId,
}

impl<M: SimMessage> Future for CallFuture<M> {
    type Output = CallResult<M>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<CallResult<M>> {
        let mut inner = self.core.inner.borrow_mut();
        let st = inner
            .pending
            .get_mut(&self.id)
            .expect("CallFuture polled after it resolved");
        if !st.resolved() {
            st.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let st = inner.pending.remove(&self.id).expect("present above");
        Poll::Ready(CallResult {
            replies: st.replies,
            timed_out: st.timed_out,
        })
    }
}

impl<M: SimMessage> Drop for CallFuture<M> {
    /// Retire a call nobody awaits any more; its late replies then count
    /// as "caller gave up". Futures are polled and dropped by tasks, which
    /// run with no borrow of the core outstanding.
    fn drop(&mut self) {
        self.core.inner.borrow_mut().pending.remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeat::HeartbeatConfig;
    use crate::latency::ConstLatency;
    use crate::sim::tests::{echo, sim, Msg};
    use crate::sim::SimConfig;
    use crate::time::SimTime;
    use std::cell::Cell;

    #[test]
    fn rpc_round_trip_takes_two_latencies_plus_service() {
        let s = sim(15);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        let s2 = s.clone();
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            let r = s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(7), None).await;
            assert_eq!(r.replies.len(), 1);
            assert_eq!(r.replies[0].1, Msg::Pong(7));
            done2.set(Some(s2.now()));
        });
        s.run();
        let t = done.get().expect("call resolved");
        // 15ms there + 200us service + 15ms back.
        assert_eq!(
            t,
            SimTime::ZERO + SimDuration::from_millis(30) + SimDuration::from_micros(200)
        );
    }

    #[test]
    fn quorum_call_waits_for_all_replies() {
        let s = sim(10);
        let n = s.add_nodes(4);
        for &id in &n[1..] {
            echo(&s, id);
        }
        let s2 = s.clone();
        let got = Rc::new(Cell::new(0usize));
        let got2 = Rc::clone(&got);
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1), NodeId(2), NodeId(3)],
                    Msg::Ping(1),
                    None,
                )
                .await;
            got2.set(r.replies.len());
            assert!(!r.timed_out);
        });
        s.run();
        assert_eq!(got.get(), 3);
    }

    #[test]
    fn call_to_nobody_resolves_at_once() {
        // No reply can ever arrive: the caller must neither park forever
        // (no timeout) nor wait a timeout out.
        let s = sim(10);
        s.add_nodes(1);
        let s2 = s.clone();
        s.spawn(async move {
            for timeout in [None, Some(SimDuration::from_millis(100))] {
                let r = s2.call(NodeId(0), &[], Msg::Ping(1), timeout).await;
                assert!(r.replies.is_empty() && !r.timed_out);
            }
        });
        s.run();
        assert_eq!(s.live_tasks(), 0, "both calls resolved");
        assert_eq!(s.metrics().events, 0, "nothing was scheduled");
    }

    #[test]
    fn failed_node_causes_timeout_with_partial_replies() {
        let s = sim(10);
        let n = s.add_nodes(3);
        echo(&s, n[1]);
        echo(&s, n[2]);
        s.fail_node(n[2]);
        let s2 = s.clone();
        let out = Rc::new(Cell::new((0usize, false)));
        let out2 = Rc::clone(&out);
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1), NodeId(2)],
                    Msg::Ping(9),
                    Some(SimDuration::from_millis(100)),
                )
                .await;
            out2.set((r.replies.len(), r.timed_out));
        });
        s.run();
        assert_eq!(out.get(), (1, true));
        assert_eq!(s.metrics().dropped, 1);
    }

    #[test]
    fn late_replies_after_timeout_are_ignored() {
        let s = sim(50);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        let s2 = s.clone();
        s.spawn(async move {
            let r = s2
                .call(
                    NodeId(0),
                    &[NodeId(1)],
                    Msg::Ping(3),
                    Some(SimDuration::from_millis(10)),
                )
                .await;
            assert!(r.timed_out);
            assert!(r.replies.is_empty());
        });
        // Must not panic when the pong arrives at t=100ms+service.
        s.run();
    }

    #[test]
    fn call_first_resolves_at_need_and_counts_waste() {
        // Node 1 is healthy, node 2 is slow: a hedged call needing one
        // reply resolves with node 1's answer; node 2's late reply is
        // counted as wasted.
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(10))));
        cfg.service_time = SimDuration::from_millis(1);
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(3);
        echo(&s, n[1]);
        echo(&s, n[2]);
        s.set_service_factor(n[2], 50.0);
        let s2 = s.clone();
        let got = Rc::new(Cell::new(None));
        let got2 = Rc::clone(&got);
        s.spawn(async move {
            let r = s2
                .call_first(NodeId(0), &[NodeId(1), NodeId(2)], Msg::Ping(5), 1, None)
                .await;
            assert!(!r.timed_out);
            got2.set(Some(r.replies.len()));
        });
        s.run();
        assert_eq!(got.get(), Some(1));
        assert_eq!(s.metrics().wasted_replies, 1, "the straggler's reply");
    }

    #[test]
    fn a_lost_straggler_retires_its_early_resolved_call() {
        // Two hedged calls needing one reply of two. The first straggler's
        // request dies in a partition before the call resolves; the second
        // is admitted at a slow node that fails before serving it, after
        // the call resolved. Neither can ever answer, and neither may leave
        // an entry behind waiting for it.
        let s = sim(10);
        let n = s.add_nodes(4);
        for &id in &n[1..] {
            echo(&s, id);
        }
        s.set_partition(&[vec![n[2]]]);
        s.set_service_factor(n[3], 1000.0);
        let s2 = s.clone();
        s.spawn(async move {
            for straggler in [NodeId(2), NodeId(3)] {
                let r = s2
                    .call_first(NodeId(0), &[NodeId(1), straggler], Msg::Ping(1), 1, None)
                    .await;
                assert_eq!((r.replies.len(), r.timed_out), (1, false));
            }
            s2.fail_node(NodeId(3));
        });
        s.run();
        let m = s.metrics();
        assert_eq!((m.dropped_by_partition, m.dropped), (1, 1));
        assert_eq!(m.wasted_replies, 0, "a lost reply was never wasted");
        assert!(s.core.inner.borrow().resolved_extra.is_empty());
    }

    #[test]
    fn far_deadlines_touch_neither_the_overflow_heap_nor_a_mailbox() {
        // 500 ms is past the default wheel's 268 ms horizon: each deadline
        // used to be a heap push, a promotion and a heap pop. 200 answered
        // calls in sequence, then 10 000 outstanding at once to a dead node:
        // every deadline still pops as an event, and the far lane they wait
        // in is not a service lane (`lane_high_water` is node mailboxes).
        let s = sim(15);
        let n = s.add_nodes(3);
        echo(&s, n[1]);
        s.fail_node(n[2]);
        let timeout = Some(SimDuration::from_millis(500));
        let s2 = s.clone();
        s.spawn(async move {
            for i in 0..200 {
                let r = s2
                    .call(NodeId(0), &[NodeId(1)], Msg::Ping(i), timeout)
                    .await;
                assert!(!r.timed_out);
            }
            for i in 0..10_000 {
                let s3 = s2.clone();
                s2.spawn(async move {
                    let r = s3
                        .call(NodeId(0), &[NodeId(2)], Msg::Ping(i), timeout)
                        .await;
                    assert!(r.timed_out);
                });
            }
        });
        s.run();
        let m = s.metrics();
        // Arrive, dispatch, reply, deadline; then arrive (dropped), deadline.
        assert_eq!(m.events, 200 * 4 + 10_000 * 2);
        assert_eq!(s.live_tasks(), 0, "every call resolved");
        let q = m.queue;
        assert_eq!((q.promotions, q.lane_high_water), (0, 0));
    }

    #[test]
    fn no_timeout_call_to_dead_node_is_counted_and_detector_bounded() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.fail_node(n[1]);
        // Without heartbeats: counted, still hangs (documented footgun).
        let s2 = s.clone();
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(1), None).await;
            unreachable!("no detector: the call must hang forever");
        });
        s.run();
        assert_eq!(s.metrics().no_timeout_dead_calls, 1);
        assert_eq!(s.live_tasks(), 1, "caller is stuck");
        // With heartbeats running, the same call resolves as timed-out
        // after one suspicion window.
        s.start_heartbeats(HeartbeatConfig::default());
        let s3 = s.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            let r = s3.call(NodeId(0), &[NodeId(1)], Msg::Ping(2), None).await;
            assert!(r.timed_out);
            done2.set(true);
            s3.stop_heartbeats();
        });
        s.run();
        assert!(done.get(), "detector-bounded call resolved");
        assert_eq!(s.metrics().no_timeout_dead_calls, 2);
    }
}
