//! Quorum RPC: one request fanned out to several nodes, the replies
//! gathered by a future that resolves on the last reply or on timeout.
//!
//! The state of a call in flight lives in a row of the simulator's call
//! slab (`SimInner::calls`, addressed by [`CallId`]) from the send until
//! its [`CallFuture`] takes the result or is dropped; the future holds the
//! id, nothing else. The reply vector, which the caller keeps, is the one
//! allocation a call makes.
//!
//! A call's one deadline goes through the wheel's far lane, and a call
//! answered or dropped while it waits there retires it
//! ([`TimingWheel::cancel_far`](crate::TimingWheel::cancel_far)); one within
//! the horizon pops and finds its call gone. A reply after its call
//! resolved misses the row on its generation and is ignored.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{current_task, SlabId, TaskId};
use crate::heartbeat::SUSPECT_WINDOW;
use crate::sim::{Envelope, Sim, SimCore, SimMessage};
use crate::time::SimDuration;
use crate::wheel::FarTicket;
use crate::NodeId;

/// Correlates a reply with the [`CallFuture`] awaiting it: the call's row
/// in the simulator's call slab, under the row's generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallId(pub(crate) SlabId);

pub(crate) struct CallState<M> {
    /// Destinations the call was sent to: their replies resolve it.
    pub(crate) dests: usize,
    pub(crate) replies: Vec<(NodeId, M)>,
    pub(crate) timed_out: bool,
    /// The task parked on the call.
    pub(crate) waiter: Option<TaskId>,
    /// Where the deadline waits in the far lane, if it went there.
    pub(crate) deadline: Option<FarTicket>,
}

impl<M> CallState<M> {
    /// Whether the future may take its result: every reply, or timeout.
    /// A resolved call accepts no further reply.
    pub(crate) fn resolved(&self) -> bool {
        self.replies.len() == self.dests || self.timed_out
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
    /// records the footgun. A call to nobody resolves at once with no
    /// replies, and schedules nothing.
    pub fn call(
        &self,
        from: NodeId,
        dests: &[NodeId],
        msg: M,
        timeout: Option<SimDuration>,
    ) -> CallFuture<M> {
        let mut inner = self.core.inner.borrow_mut();
        let id = CallId(inner.calls.insert(CallState {
            dests: dests.len(),
            replies: Vec::with_capacity(dests.len()),
            timed_out: false,
            waiter: None,
            deadline: None,
        }));
        for &to in dests {
            inner.send_request(Envelope {
                from,
                to,
                call: Some(id),
                msg: msg.clone(),
            });
        }
        if dests.is_empty() {
            // Resolved as it stands: no timer to wait out.
        } else if let Some(t) = timeout {
            let at = inner.now + t;
            inner.schedule_timeout(at, id);
        } else if dests.iter().any(|&d| !inner.nodes[d.index()].alive) {
            // The documented footgun: a timeout-less call to a dead node
            // hangs forever. Count it always; with the heartbeat layer
            // running, bound it by the suspicion window instead.
            inner.metrics.no_timeout_dead_calls += 1;
            if inner.heartbeat {
                let at = inner.now + SUSPECT_WINDOW;
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
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<CallResult<M>> {
        let mut inner = self.core.inner.borrow_mut();
        let st = inner
            .calls
            .get_mut(self.id.0)
            .expect("CallFuture polled after it resolved");
        if !st.resolved() {
            st.waiter = Some(current_task());
            return Poll::Pending;
        }
        let st = inner.calls.remove(self.id.0).expect("present above");
        Poll::Ready(CallResult {
            replies: st.replies,
            timed_out: st.timed_out,
        })
    }
}

impl<M: SimMessage> Drop for CallFuture<M> {
    /// Retire a call nobody awaits any more, and its deadline if that still
    /// waits in the far lane; its late replies then count as "caller gave
    /// up". Futures are polled and dropped by tasks, which run with no
    /// borrow of the core outstanding.
    fn drop(&mut self) {
        let inner = &mut *self.core.inner.borrow_mut();
        if let Some(t) = inner.calls.remove(self.id.0).and_then(|st| st.deadline) {
            inner.queue.cancel_far(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{echo, sim, Msg};
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

    /// Install a handler on `node` that keeps each `Ping(x)`'s call and
    /// answers `Pong(x)` from a task `delay` later.
    fn deferred(s: &Sim<Msg>, node: NodeId, delay: SimDuration) {
        let s2 = s.clone();
        s.set_handler(node, move |ctx, env| {
            let (Msg::Ping(x), Some(call)) = (env.msg, env.call) else {
                return;
            };
            let (by, to, s3) = (ctx.node(), env.from, s2.clone());
            s2.spawn(async move {
                s3.sleep(delay).await;
                s3.reply(by, to, call, Msg::Pong(x));
            });
        });
    }

    /// Call node 1 from node 0; once the call resolves, the cell holds the
    /// instant, the reply count and whether it timed out.
    fn timed_call(
        s: &Sim<Msg>,
        timeout: Option<SimDuration>,
    ) -> Rc<Cell<Option<(SimTime, usize, bool)>>> {
        let out = Rc::new(Cell::new(None));
        let (s2, out2) = (s.clone(), Rc::clone(&out));
        s.spawn(async move {
            let r = s2
                .call(NodeId(0), &[NodeId(1)], Msg::Ping(4), timeout)
                .await;
            out2.set(Some((s2.now(), r.replies.len(), r.timed_out)));
        });
        out
    }

    #[test]
    fn a_deferred_reply_resolves_the_call_when_it_is_sent() {
        let s = sim(15);
        let n = s.add_nodes(2);
        deferred(&s, n[1], SimDuration::from_millis(50));
        let out = timed_call(&s, None);
        s.run();
        // 15 ms there + 200 µs service + 50 ms held + 15 ms back.
        let at = SimTime::ZERO + SimDuration::from_millis(80) + SimDuration::from_micros(200);
        assert_eq!(out.get(), Some((at, 1, false)));
    }

    #[test]
    fn a_deferred_reply_after_the_timeout_is_ignored() {
        let s = sim(15);
        let n = s.add_nodes(2);
        deferred(&s, n[1], SimDuration::from_millis(50));
        let out = timed_call(&s, Some(SimDuration::from_millis(40)));
        s.run();
        let at = SimTime::ZERO + SimDuration::from_millis(40);
        assert_eq!(out.get(), Some((at, 0, true)));
        assert!(s.now() > at, "the late reply was still delivered");
        assert_eq!(s.core.inner.borrow().calls.live(), 0);
    }

    #[test]
    fn a_dropped_call_retires_its_deadline_and_its_row_serves_the_next_call() {
        // Node 1 answers each ping 50 ms late. Call a is dropped unanswered
        // and call b, sent next, takes a's row: a's late reply must miss b
        // on the row's generation, and neither 500 ms deadline pops.
        let s = sim(15);
        let n = s.add_nodes(2);
        deferred(&s, n[1], SimDuration::from_millis(50));
        let timeout = Some(SimDuration::from_millis(500));
        let out = Rc::new(std::cell::RefCell::new(None));
        let (s2, out2) = (s.clone(), Rc::clone(&out));
        s.spawn(async move {
            let a = s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(1), timeout);
            let a_id = a.id;
            drop(a);
            let b = s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(2), timeout);
            let b_id = b.id;
            let r = b.await;
            *out2.borrow_mut() = Some((a_id, b_id, r.replies, r.timed_out));
        });
        s.run();
        let (a, b, replies, timed_out) = out.take().expect("b resolved");
        assert_eq!(a.0.bits() as u32, b.0.bits() as u32, "b took a's row");
        assert_ne!(a, b, "under a new generation");
        assert_eq!(
            (replies, timed_out),
            (vec![(NodeId(1), Msg::Pong(2))], false)
        );
        // 15 ms there + two services (b queues behind a) + 50 ms held + 15
        // ms back.
        let at = SimTime::ZERO + SimDuration::from_millis(80) + SimDuration::from_micros(400);
        assert_eq!(s.now(), at, "no deadline popped after the replies");
        let m = s.metrics();
        // Per call: arrive, dispatch, the held reply's timer, reply.
        assert_eq!((m.events, m.queue.cancelled), (2 * 4, 2));
        assert_eq!(s.core.inner.borrow().calls.live(), 0);
    }

    #[test]
    fn a_deferred_reply_from_a_node_that_died_is_lost() {
        let s = sim(15);
        let n = s.add_nodes(2);
        deferred(&s, n[1], SimDuration::from_millis(50));
        let out = timed_call(&s, Some(SimDuration::from_millis(100)));
        let s2 = s.clone();
        s.spawn(async move {
            s2.sleep(SimDuration::from_millis(30)).await;
            s2.fail_node(NodeId(1));
        });
        s.run();
        let at = SimTime::ZERO + SimDuration::from_millis(100);
        assert_eq!(out.get(), Some((at, 0, true)));
        assert_eq!(s.metrics().sent_total, 1, "the dead node sent nothing");
    }

    #[test]
    fn far_deadlines_touch_neither_the_overflow_heap_nor_a_mailbox() {
        // 500 ms is past the default wheel's 268 ms horizon: each deadline
        // used to be a heap push, a promotion and a heap pop. 200 answered
        // calls in sequence, then 10 000 outstanding at once to a dead node:
        // an answered call's deadline leaves the far lane unpopped, an
        // unanswered one pops as its timeout, and the far lane they wait
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
        // Arrive, dispatch, reply; then arrive (dropped), deadline.
        assert_eq!(m.events, 200 * 3 + 10_000 * 2);
        assert_eq!(s.live_tasks(), 0, "every call resolved");
        let q = m.queue;
        assert_eq!((q.promotions, q.lane_high_water, q.cancelled), (0, 0, 200));
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
        s.start_heartbeats();
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
