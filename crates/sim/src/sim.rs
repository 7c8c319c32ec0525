//! The discrete-event simulation core.
//!
//! A [`Sim`] owns a set of *nodes* (message endpoints with a registered
//! handler, a FIFO service queue, and an alive flag), an event queue ordered
//! by `(virtual time, sequence)`, and a single-threaded async executor for
//! *tasks* (transaction drivers and experiment orchestration).
//!
//! # Execution model
//!
//! * **Requests** (`call` / `send`) incur a one-way link latency sampled from
//!   the configured [`LatencyModel`], then queue at the destination node,
//!   which processes them FIFO with a per-class *service time* (modelling
//!   server occupancy — this is what makes a single-node read quorum a
//!   bottleneck, as in the paper's Fig. 10). The handler runs when service
//!   completes and may reply.
//! * **Replies** travel back with link latency and resolve the originating
//!   [`CallFuture`] without queueing (client-side processing is negligible).
//! * **Failures**: a failed node silently drops everything addressed to it;
//!   callers discover this only through call timeouts, as in a real
//!   asynchronous system.
//!
//! Everything is deterministic: one seed fixes the RNG, and all ties in the
//! event queue break on a monotonically increasing sequence number.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::mem::take;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::executor::{current_task, poll_as, LocalFuture, Slab, TaskId};
use crate::heartbeat::{HEARTBEAT_INTERVAL, HEARTBEAT_JITTER};
use crate::latency::LatencyModel;
use crate::metrics::{Counter, Metrics, MAX_CLASSES};
use crate::net::LinkFault;
use crate::rpc::{CallId, CallState};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;
use crate::NodeId;

/// Messages carried by the simulated network.
///
/// `class` buckets the message for accounting and per-class service times
/// (e.g. "read request" vs "commit request"); `size_hint` feeds the byte
/// counter.
pub trait SimMessage: Clone + 'static {
    /// Accounting class in `0..MAX_CLASSES`.
    fn class(&self) -> u8 {
        0
    }
    /// Approximate wire size in bytes.
    fn size_hint(&self) -> usize {
        64
    }
}

/// A message in flight or being dispatched to a node handler.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Present when the sender awaits a reply ([`HandlerCtx::respond`] or
    /// [`Sim::reply`]).
    pub call: Option<CallId>,
    /// Protocol payload.
    pub msg: M,
}

/// Configuration for a [`Sim`].
pub struct SimConfig {
    /// RNG seed; two sims with equal seeds and equal inputs behave
    /// identically.
    pub seed: u64,
    /// Link latency model.
    pub latency: Box<dyn LatencyModel>,
    /// Default per-request service time at the destination node.
    pub service_time: SimDuration,
    /// Per-class service-time overrides.
    pub service_by_class: [Option<SimDuration>; MAX_CLASSES],
}

impl SimConfig {
    /// A configuration with the given seed and latency model, a 200 µs
    /// default service time, and no per-class overrides.
    pub fn new(seed: u64, latency: Box<dyn LatencyModel>) -> Self {
        SimConfig {
            seed,
            latency,
            service_time: SimDuration::from_micros(200),
            service_by_class: [None; MAX_CLASSES],
        }
    }
}

type Handler<M> = Box<dyn FnMut(&mut HandlerCtx<'_, M>, Envelope<M>)>;

#[derive(Default)]
pub(crate) struct TimerState {
    fired: bool,
    waiter: Option<TaskId>,
}

pub(crate) enum EventKind<M> {
    /// A request on its way (due when it reaches its destination) or, once
    /// `admitted` to the node's service queue, in it (due when service
    /// completes and the handler runs); both in one slot, moved out once.
    Request {
        env: Envelope<M>,
        admitted: bool,
    },
    /// A reply reached the calling node.
    ReplyArrive {
        call: CallId,
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Timer(Rc<RefCell<TimerState>>),
    CallTimeout(CallId),
    /// A node is due to emit its next heartbeat (self-rescheduling while
    /// heartbeats are enabled).
    HeartbeatTick(NodeId),
    /// A heartbeat from `from` reached observer `to`.
    HeartbeatArrive {
        from: NodeId,
        to: NodeId,
    },
}

/// Coarse classification of a scheduled event, exposed to a [`Scheduler`]
/// so exploration strategies can reason about what they are ordering
/// without seeing protocol payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventTag {
    /// A request message reaching its destination's service queue.
    Arrive,
    /// Service completed; the destination handler is about to run.
    Dispatch,
    /// A reply reaching the calling node.
    ReplyArrive,
    /// A local timer (sleep) firing.
    Timer,
    /// An RPC deadline expiring.
    CallTimeout,
    /// A node emitting its next heartbeat.
    HeartbeatTick,
    /// A heartbeat reaching an observer.
    HeartbeatArrive,
}

/// Metadata describing one runnable event offered to a [`Scheduler`] at a
/// choice point. All fields are payload-free so traces built from them are
/// stable across protocol changes that keep the same event structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventInfo {
    /// Virtual due time of the event (identical across one choice group).
    pub time: SimTime,
    /// Global scheduling sequence number (creation order; unique).
    pub seq: u64,
    /// What kind of event this is.
    pub tag: EventTag,
    /// Originating node, when the event has one.
    pub from: Option<NodeId>,
    /// Target node, when the event has one.
    pub to: Option<NodeId>,
    /// Message class for `Arrive`/`Dispatch` events.
    pub class: Option<u8>,
    /// RPC call id for reply/timeout events.
    pub call: Option<u64>,
}

impl EventInfo {
    /// Whether two events commute: swapping their execution order cannot
    /// change any node-visible state. Conservative: only node-targeted
    /// events on *different* nodes with no shared RPC call commute; any
    /// event without a target node (timers, heartbeat ticks) is treated
    /// as dependent with everything.
    pub fn commutes_with(&self, other: &EventInfo) -> bool {
        match (self.to, other.to) {
            (Some(a), Some(b)) => {
                a != b
                    && (self.call.is_none() || self.call != other.call)
                    && self.from != Some(b)
                    && other.from != Some(a)
            }
            _ => false,
        }
    }
}

/// Pluggable tie-break hook: when several events are due at the same
/// virtual instant, the installed scheduler picks which one runs next.
///
/// The simulator calls [`Scheduler::pick`] with the runnable group in
/// creation (`seq`) order and dispatches the chosen event; the rest stay
/// queued and are offered again (possibly joined by newly scheduled
/// same-instant events). Without a scheduler the simulator always picks
/// index 0, which is byte-identical to the historical behaviour.
///
/// A scheduler must not call back into the [`Sim`] that invoked it — the
/// simulator's internal state is borrowed for the duration of the call.
pub trait Scheduler {
    /// Choose the index (into `ready`) of the next event to dispatch.
    /// `ready` always has at least 2 entries, all due at `now`. Returned
    /// indices are clamped into range by the simulator.
    fn pick(&mut self, now: SimTime, ready: &[EventInfo]) -> usize;
}

impl<M: SimMessage> EventKind<M> {
    fn info(&self, time: SimTime, seq: u64) -> EventInfo {
        use EventTag::{Arrive, Dispatch};
        let (tag, from, to, class, call) = match self {
            EventKind::Request { env, admitted } => (
                if *admitted { Dispatch } else { Arrive },
                Some(env.from),
                Some(env.to),
                Some(env.msg.class()),
                env.call,
            ),
            EventKind::ReplyArrive { call, from, to, .. } => (
                EventTag::ReplyArrive,
                Some(*from),
                Some(*to),
                None,
                Some(*call),
            ),
            EventKind::Timer(_) => (EventTag::Timer, None, None, None, None),
            EventKind::CallTimeout(c) => (EventTag::CallTimeout, None, None, None, Some(*c)),
            EventKind::HeartbeatTick(n) => (EventTag::HeartbeatTick, Some(*n), None, None, None),
            EventKind::HeartbeatArrive { from, to } => (
                EventTag::HeartbeatArrive,
                Some(*from),
                Some(*to),
                None,
                None,
            ),
        };
        EventInfo {
            time,
            seq,
            tag,
            from,
            to,
            class,
            call: call.map(|c| c.0.bits()),
        }
    }
}

pub(crate) struct NodeMeta {
    pub(crate) alive: bool,
    busy_until: SimTime,
    /// Partition group; messages only flow between equal groups. 0 = the
    /// default (un-partitioned) group.
    pub(crate) group: u32,
    /// Service-time multiplier for gray failures (1.0 = healthy).
    pub(crate) service_factor: f64,
}

impl NodeMeta {
    /// When work handed to the node at `now` starts: behind its backlog,
    /// or at once if it is idle.
    fn service_start(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }
}

pub(crate) struct SimInner<M: SimMessage> {
    pub(crate) now: SimTime,
    seq: u64,
    pub(crate) queue: TimingWheel<EventKind<M>>,
    pub(crate) nodes: Vec<NodeMeta>,
    latency: Box<dyn LatencyModel>,
    service_time: SimDuration,
    service_by_class: [Option<SimDuration>; MAX_CLASSES],
    pub(crate) rng: StdRng,
    pub(crate) link_faults: std::collections::HashMap<(u32, u32), LinkFault>,
    /// Every call between its send and its future taking the result (or
    /// being dropped).
    pub(crate) calls: Slab<CallState<M>>,
    pub(crate) metrics: Metrics,
    /// Whether the heartbeat layer runs; off (the default) means no
    /// heartbeat events exist and the RNG is never touched for them, keeping
    /// detector-less runs byte-identical to earlier versions.
    pub(crate) heartbeat: bool,
    /// `last_hb[observer][sender]`: virtual time the observer last received
    /// a heartbeat from the sender (seeded with the enable instant).
    pub(crate) last_hb: Vec<Vec<SimTime>>,
}

impl<M: SimMessage> SimInner<M> {
    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    /// Schedule a call's deadline through the wheel's far lane: deadlines
    /// are `now + d` for a per-cluster `d`, so they arrive in order and, at
    /// the 500 ms default, beyond the horizon. `seq` is drawn as
    /// [`SimInner::schedule`] draws it (pop order is a plain push's), and
    /// the call keeps the ticket to retire the deadline if it resolves first.
    pub(crate) fn schedule_timeout(&mut self, at: SimTime, call: CallId) {
        let seq = self.seq;
        self.seq += 1;
        let ticket = self.queue.push_far(at, seq, EventKind::CallTimeout(call));
        self.calls.get_mut(call.0).expect("call just sent").deadline = ticket;
    }

    /// Keep `node` busy for `d` more, queued behind its backlog; returns
    /// when that work completes, the node's new `busy_until`.
    fn occupy(&mut self, node: NodeId, d: SimDuration) -> SimTime {
        let now = self.now;
        let meta = &mut self.nodes[node.index()];
        meta.busy_until = meta.service_start(now) + d;
        meta.busy_until
    }

    fn service_for(&self, class: u8) -> SimDuration {
        self.service_by_class[(class as usize).min(MAX_CLASSES - 1)].unwrap_or(self.service_time)
    }

    /// Send `msg` from `by` as the reply to `to`'s `call`, accounting for
    /// it. A dead `by` answers nothing: the reply is lost at once.
    #[inline]
    fn reply(&mut self, by: NodeId, to: NodeId, call: CallId, msg: M) {
        if !self.nodes[by.index()].alive {
            return;
        }
        self.metrics.on_send(msg.class(), msg.size_hint());
        let lat = self.latency.sample(by, to, &mut self.rng) + self.link_extra(by, to);
        let at = self.now + lat;
        self.schedule(
            at,
            EventKind::ReplyArrive {
                call,
                from: by,
                to,
                msg,
            },
        );
    }

    /// Route a request toward `env.to`, accounting for it; drops silently if
    /// the destination already failed (in-flight loss is modelled at arrival
    /// instead). A dead *sender* originates nothing: its sends are dropped
    /// here, so crashed nodes stop talking the instant they fail.
    pub(crate) fn send_request(&mut self, env: Envelope<M>) {
        if !self.nodes[env.from.index()].alive {
            self.metrics.dropped += 1;
            return;
        }
        self.metrics.on_send(env.msg.class(), env.msg.size_hint());
        let lat = self.latency.sample(env.from, env.to, &mut self.rng)
            + self.link_extra(env.from, env.to);
        let at = self.now + lat;
        self.schedule(
            at,
            EventKind::Request {
                env,
                admitted: false,
            },
        );
    }

    /// The event in `slot` is due now. A request reaching its destination
    /// is lost there or joins the node's service queue where it lies: its
    /// slot is keyed into the node's lane at the instant service completes,
    /// `seq` drawn as [`SimInner::schedule`] draws it. A node's completion
    /// instants never decrease (`busy_until` moves forward only), as a lane
    /// needs. Any other event is taken out of its slot and returned.
    fn admit_or_take(&mut self, slot: u32) -> Option<EventKind<M>> {
        let Some(EventKind::Request {
            env,
            admitted: admitted @ false,
        }) = self.queue.arena_mut().get_mut(slot)
        else {
            return self.queue.arena_mut().take(slot);
        };
        *admitted = true;
        let (from, to, class) = (env.from, env.to, env.msg.class());
        let faulted = self.delivery_faulted(from, to);
        let dead = !faulted && !self.nodes[to.index()].alive;
        if faulted || dead {
            self.metrics.dropped += u64::from(dead);
            self.queue.arena_mut().take(slot);
            return None;
        }
        let mut svc = self.service_for(class);
        let factor = self.nodes[to.index()].service_factor;
        if factor != 1.0 {
            svc = svc.mul_f64(factor);
        }
        let done = self.occupy(to, svc);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push_lane(to.0, done, seq, slot);
        None
    }
}

pub(crate) struct SimCore<M: SimMessage> {
    pub(crate) inner: RefCell<SimInner<M>>,
    /// Every live task; taken out of its row while it is polled.
    tasks: RefCell<Slab<LocalFuture>>,
    /// Set by [`Sim::shutdown`]: the slab stays empty and takes no task.
    closed: Cell<bool>,
    /// Ids of the tasks made runnable, in wake order.
    ready: RefCell<Vec<TaskId>>,
    handlers: RefCell<Vec<Option<Handler<M>>>>,
    /// Installed schedule-exploration hook (see [`Scheduler`]). Kept
    /// outside `inner` so the pick callback never observes a borrowed
    /// simulator core.
    scheduler: RefCell<Option<Box<dyn Scheduler>>>,
}

/// Handle to a simulation. Cheaply cloneable; all clones refer to the same
/// simulation state. `Sim` is single-threaded (`!Send`).
///
/// Tasks and handlers hold clones, so dropping handles never frees a
/// simulation: its owner — a family's cluster — calls [`Sim::shutdown`]
/// when it is dropped, and a task that needs the owner holds it weakly.
pub struct Sim<M: SimMessage> {
    pub(crate) core: Rc<SimCore<M>>,
}

impl<M: SimMessage> Clone for Sim<M> {
    fn clone(&self) -> Self {
        Sim {
            core: Rc::clone(&self.core),
        }
    }
}

impl<M: SimMessage> Sim<M> {
    /// Create an empty simulation; add nodes before sending anything.
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            core: Rc::new(SimCore {
                inner: RefCell::new(SimInner {
                    now: SimTime::ZERO,
                    seq: 0,
                    queue: TimingWheel::new(),
                    nodes: Vec::new(),
                    latency: cfg.latency,
                    service_time: cfg.service_time,
                    service_by_class: cfg.service_by_class,
                    rng: StdRng::seed_from_u64(cfg.seed),
                    link_faults: std::collections::HashMap::new(),
                    calls: Slab::default(),
                    metrics: Metrics::new(0),
                    heartbeat: false,
                    last_hb: Vec::new(),
                }),
                tasks: RefCell::default(),
                closed: Cell::new(false),
                ready: RefCell::default(),
                handlers: RefCell::new(Vec::new()),
                scheduler: RefCell::new(None),
            }),
        }
    }

    /// Add `n` nodes, returning their ids (assigned densely from the current
    /// count).
    pub fn add_nodes(&self, n: usize) -> Vec<NodeId> {
        let mut inner = self.core.inner.borrow_mut();
        let start = inner.nodes.len();
        for _ in 0..n {
            inner.nodes.push(NodeMeta {
                alive: true,
                busy_until: SimTime::ZERO,
                group: 0,
                service_factor: 1.0,
            });
        }
        inner.metrics.processed_by_node.resize(start + n, 0);
        let mut handlers = self.core.handlers.borrow_mut();
        handlers.resize_with(start + n, || None);
        (start..start + n).map(|i| NodeId(i as u32)).collect()
    }

    /// Number of nodes ever added.
    pub fn num_nodes(&self) -> usize {
        self.core.inner.borrow().nodes.len()
    }

    /// Install the message handler for `node`, replacing any previous one.
    ///
    /// The handler must not call `set_handler` for its own node while
    /// running, and must not re-enter [`Sim::run_until`].
    pub fn set_handler(
        &self,
        node: NodeId,
        h: impl FnMut(&mut HandlerCtx<'_, M>, Envelope<M>) + 'static,
    ) {
        self.core.handlers.borrow_mut()[node.index()] = Some(Box::new(h));
    }

    /// Spawn an async task; it starts running inside the next `run_*` call
    /// (never, after [`Sim::shutdown`]).
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        if !self.core.closed.get() {
            let id = self.core.tasks.borrow_mut().insert(Box::pin(fut));
            self.core.ready.borrow_mut().push(id);
        }
    }

    /// Tear the simulation down: drop every task, handler, queued event,
    /// call in flight and the installed scheduler — the clones of `Sim`
    /// they hold are what keeps a simulation alive. What is left is inert:
    /// nothing is live or will be polled, `run()` returns at once, `now()`
    /// and `metrics()` read the final state. Idempotent, and safe from
    /// inside a task or handler the loop is running.
    pub fn shutdown(&self) {
        let core = &self.core;
        core.closed.set(true);
        let tasks = core.tasks.take();
        let (handlers, scheduler) = (core.handlers.take(), core.scheduler.take());
        let mut inner = core.inner.borrow_mut();
        let events = inner.queue.take_events();
        let calls = take(&mut inner.calls);
        drop(inner);
        // Dropped with no borrow outstanding: a `CallFuture` in a task
        // re-borrows the core to retire its call.
        drop((tasks, handlers, scheduler, events, calls));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.inner.borrow().now
    }

    /// Keep `node` busy for an extra `d` of service time, queued behind its
    /// current backlog. Models out-of-band work that occupies the server —
    /// e.g. the rejoin state transfer a recovering replica performs before
    /// it can serve requests at full speed again.
    pub fn occupy(&self, node: NodeId, d: SimDuration) {
        self.core.inner.borrow_mut().occupy(node, d);
    }

    /// Bump a detector/transport counter in the metrics sink (failure
    /// detectors and retrying transports live outside this crate).
    pub fn bump(&self, c: Counter) {
        self.core.inner.borrow_mut().metrics.bump(c);
    }

    /// Add `n` to a counter in the metrics sink (for counters that grow by
    /// amounts, e.g. repaired objects or transferred bytes).
    pub fn add(&self, c: Counter, n: u64) {
        self.core.inner.borrow_mut().metrics.add(c, n);
    }

    /// Record one end-to-end latency observation (nanoseconds of virtual
    /// time) in the sampled reservoir ([`Metrics::latency`]).
    pub fn observe_latency(&self, ns: u64) {
        self.core.inner.borrow_mut().metrics.latency.record(ns);
    }

    /// Snapshot of the accounting counters.
    pub fn metrics(&self) -> Metrics {
        let inner = self.core.inner.borrow();
        let mut m = inner.metrics.clone();
        m.queue = inner.queue.stats();
        m
    }

    /// Zero the accounting counters (e.g. after warm-up).
    pub fn reset_metrics(&self) {
        self.core.inner.borrow_mut().metrics.reset();
    }

    /// Emit a structured engine event into the metrics sink (counted
    /// always; recorded in full only after [`Sim::record_engine_events`]).
    pub fn emit_engine_event(
        &self,
        kind: crate::metrics::EngineEventKind,
        node: NodeId,
        detail: u64,
    ) {
        let mut inner = self.core.inner.borrow_mut();
        let at_ns = inner.now.as_nanos();
        inner.metrics.on_engine_event(crate::metrics::EngineEvent {
            at_ns,
            node: node.0,
            kind,
            detail,
        });
    }

    /// Enable or disable recording of the full engine-event stream in
    /// [`Metrics::engine_event_log`]. Counters are always maintained.
    pub fn record_engine_events(&self, on: bool) {
        self.core.inner.borrow_mut().metrics.record_engine_events = on;
    }

    /// Draw from the simulation RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.core.inner.borrow_mut().rng)
    }

    /// Uniform draw in `[0, n)`.
    pub fn rand_below(&self, n: u64) -> u64 {
        self.with_rng(|r| r.random_range(0..n))
    }

    /// One uniform draw in `[lo, hi)` (backoff jitter).
    pub fn jitter(&self, lo: f64, hi: f64) -> f64 {
        self.with_rng(|r| r.random_range(lo..hi))
    }

    /// A future that completes `d` of virtual time from now.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        let state: Rc<RefCell<TimerState>> = Rc::default();
        let mut inner = self.core.inner.borrow_mut();
        let at = inner.now + d;
        inner.schedule(at, EventKind::Timer(Rc::clone(&state)));
        Sleep { state }
    }

    /// Charge `cost` of local compute or backoff time.
    ///
    /// The one place zero-cost charging is decided: a zero cost is free —
    /// no event is scheduled, no RNG is drawn, the future completes
    /// immediately — so zero-latency configs replay the exact event order
    /// of a run that never charged at all.
    pub async fn charge(&self, cost: SimDuration) {
        if cost > SimDuration::ZERO {
            self.sleep(cost).await;
        }
    }

    /// Fire-and-forget message (no reply expected).
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) {
        let mut inner = self.core.inner.borrow_mut();
        inner.send_request(Envelope {
            from,
            to,
            call: None,
            msg,
        });
    }

    /// Answer `to`'s `call` from `by` after the handler that received the
    /// request returned: a handler keeps `(env.from, call)` and a task
    /// replies later, exactly as [`HandlerCtx::respond`] would have. A
    /// reply reaching a call that already resolved is ignored.
    pub fn reply(&self, by: NodeId, to: NodeId, call: CallId, msg: M) {
        self.core.inner.borrow_mut().reply(by, to, call, msg);
    }

    /// Install a schedule-exploration hook consulted whenever several
    /// events are due at the same virtual instant. Replaces any previous
    /// scheduler. See [`Scheduler`] for the contract.
    pub fn set_scheduler(&self, s: Box<dyn Scheduler>) {
        *self.core.scheduler.borrow_mut() = Some(s);
    }

    /// Remove the installed [`Scheduler`], restoring the default
    /// creation-order tie-break.
    pub fn clear_scheduler(&self) {
        *self.core.scheduler.borrow_mut() = None;
    }

    /// Run until the event queue empties or virtual time would exceed
    /// `until`. The clock finishes at `min(until, last event time)`.
    pub fn run_until(&self, until: SimTime) {
        // Run tasks spawned before the first event.
        self.drain_ready();
        loop {
            let ev = {
                let mut inner = self.core.inner.borrow_mut();
                match inner.queue.peek_key() {
                    None => return,
                    Some((t, _)) if t > until => {
                        inner.now = until;
                        return;
                    }
                    Some(_) => {}
                }
                let head = inner.queue.pop_key().expect("peeked");
                debug_assert!(head.0 >= inner.now, "event queue went backwards");
                inner.now = head.0;
                let slot = self.apply_scheduler(&mut inner, head);
                inner.metrics.events += 1;
                inner.admit_or_take(slot)
            };
            if let Some(ev) = ev {
                self.dispatch(ev);
            }
            self.drain_ready();
        }
    }

    /// Offer the popped minimum key plus every other key due at the same
    /// instant to the installed [`Scheduler`], if any, and return the
    /// chosen one's slot; the rest go back on the queue under their original
    /// `(time, seq)`, payloads untouched. Without a scheduler this returns
    /// `head`'s slot, keeping the historical single-pop path byte-identical.
    fn apply_scheduler(&self, inner: &mut SimInner<M>, head: (SimTime, u64, u32)) -> u32 {
        let mut sched = self.core.scheduler.borrow_mut();
        let Some(sched) = sched.as_mut() else {
            return head.2;
        };
        let now = head.0;
        // Queue pops come out in (time, seq) order, so the group is
        // already sorted by creation order — a deterministic candidate
        // ordering.
        let mut group = vec![head];
        while matches!(inner.queue.peek_key(), Some((t, _)) if t == now) {
            group.push(inner.queue.pop_key().expect("peeked"));
        }
        if group.len() == 1 {
            return head.2;
        }
        let arena = inner.queue.arena_mut();
        let info = |&(time, seq, slot)| arena.get_mut(slot).expect("popped").info(time, seq);
        let infos: Vec<EventInfo> = group.iter().map(info).collect();
        let pick = sched.pick(now, &infos).min(group.len() - 1);
        let (_, _, chosen) = group.swap_remove(pick);
        for (time, seq, slot) in group {
            inner.queue.push_slot(time, seq, slot);
        }
        chosen
    }

    /// Run until the event queue is empty.
    pub fn run(&self) {
        self.run_until(SimTime::MAX);
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&self, d: SimDuration) {
        let until = self.now() + d;
        self.run_until(until);
    }

    fn dispatch(&self, ev: EventKind<M>) {
        match ev {
            EventKind::Request { env, admitted } => {
                debug_assert!(admitted, "a request is dispatched once admitted");
                {
                    let mut inner = self.core.inner.borrow_mut();
                    if !inner.nodes[env.to.index()].alive {
                        inner.metrics.dropped += 1;
                        return;
                    }
                    inner.metrics.on_processed(env.to.index());
                }
                let idx = env.to.index();
                let handler = self.core.handlers.borrow_mut().get_mut(idx).and_then(take);
                if let Some(mut h) = handler {
                    let mut ctx = HandlerCtx {
                        core: &self.core,
                        node: env.to,
                    };
                    h(&mut ctx, env);
                    // The table is empty if the handler shut the sim down.
                    if let Some(slot) = self.core.handlers.borrow_mut().get_mut(idx) {
                        slot.get_or_insert(h);
                    }
                }
            }
            EventKind::ReplyArrive {
                call,
                from,
                to,
                msg,
            } => {
                let inner = &mut *self.core.inner.borrow_mut();
                // Replies cross the same faulty network as requests.
                if inner.delivery_faulted(from, to) {
                    return;
                }
                // A caller that gave up (timeout, or dropped the future)
                // takes no more replies.
                if let Some(st) = inner.calls.get_mut(call.0).filter(|st| !st.resolved()) {
                    st.replies.push((from, msg));
                    if st.resolved() {
                        self.core.ready.borrow_mut().extend(st.waiter.take());
                        if let Some(t) = st.deadline.take() {
                            inner.queue.cancel_far(t);
                        }
                    }
                }
            }
            EventKind::Timer(state) => {
                let mut st = state.borrow_mut();
                st.fired = true;
                self.core.ready.borrow_mut().extend(st.waiter.take());
            }
            EventKind::CallTimeout(call) => {
                let mut inner = self.core.inner.borrow_mut();
                if let Some(st) = inner.calls.get_mut(call.0).filter(|st| !st.resolved()) {
                    st.timed_out = true;
                    self.core.ready.borrow_mut().extend(st.waiter.take());
                }
            }
            EventKind::HeartbeatTick(node) => {
                let mut inner = self.core.inner.borrow_mut();
                let inner = &mut *inner;
                if !inner.heartbeat {
                    return; // layer stopped: the tick stream dies here
                }
                let n = inner.nodes.len();
                let meta = &inner.nodes[node.index()];
                // A dead node beats nothing but keeps ticking, so its
                // stream resumes the moment it is recovered. Emission
                // queues behind the service backlog: an overloaded or
                // gray-slow node heartbeats late, which is exactly the
                // signal an accrual detector feeds on.
                if meta.alive {
                    let emit_at = meta.service_start(inner.now);
                    for i in 0..n {
                        let to = NodeId(i as u32);
                        if to == node {
                            continue;
                        }
                        let lat = inner.latency.sample(node, to, &mut inner.rng)
                            + inner.link_extra(node, to);
                        inner.metrics.heartbeats_sent += 1;
                        inner
                            .schedule(emit_at + lat, EventKind::HeartbeatArrive { from: node, to });
                    }
                }
                let jitter = 1.0 + HEARTBEAT_JITTER * inner.rng.random_range(-1.0..1.0);
                let next = inner.now + HEARTBEAT_INTERVAL.mul_f64(jitter);
                inner.schedule(next, EventKind::HeartbeatTick(node));
            }
            EventKind::HeartbeatArrive { from, to } => {
                let mut inner = self.core.inner.borrow_mut();
                if !inner.heartbeat {
                    return;
                }
                // Heartbeats cross the same faulty network as requests,
                // but never touch the receiver's service queue.
                if inner.delivery_faulted(from, to) {
                    return;
                }
                if !inner.nodes[to.index()].alive {
                    return;
                }
                let now = inner.now;
                inner.last_hb[to.index()][from.index()] = now;
                inner.metrics.heartbeats_delivered += 1;
            }
        }
    }

    /// Poll every task made runnable, in wake order, including those woken
    /// by these polls: they join the queue's tail. An id whose task
    /// finished since misses on its generation and polls nothing.
    fn drain_ready(&self) {
        let core = &*self.core;
        // No borrow is held across a poll: it may spawn, send or reply.
        for next in 0.. {
            let Some(id) = core.ready.borrow().get(next).copied() else {
                break;
            };
            let Some(mut fut) = core.tasks.borrow_mut().take(id) else {
                continue;
            };
            let ready = poll_as(id, &mut fut);
            if core.closed.get() {
                continue; // shut down by this poll: the task drops here
            }
            let mut tasks = core.tasks.borrow_mut();
            if ready {
                tasks.free(id);
            } else {
                tasks.put_back(id, fut);
            }
        }
        core.ready.borrow_mut().clear();
    }

    /// Number of tasks that have been spawned but not completed.
    pub fn live_tasks(&self) -> usize {
        self.core.tasks.borrow().live()
    }
}

/// Context passed to node handlers.
pub struct HandlerCtx<'a, M: SimMessage> {
    core: &'a SimCore<M>,
    node: NodeId,
}

impl<'a, M: SimMessage> HandlerCtx<'a, M> {
    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.inner.borrow().now
    }

    /// Reply to a request that carried a call id. Panics if `env` was
    /// fire-and-forget.
    pub fn respond(&mut self, env: &Envelope<M>, msg: M) {
        let call = env.call.expect("respond() to a fire-and-forget message");
        let mut inner = self.core.inner.borrow_mut();
        inner.reply(self.node, env.from, call, msg);
    }

    /// Fire-and-forget send from this node.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.inner.borrow_mut().send_request(Envelope {
            from: self.node,
            to,
            call: None,
            msg,
        });
    }

    /// Draw from the simulation RNG.
    pub fn with_rng<T>(&mut self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.core.inner.borrow_mut().rng)
    }

    /// Keep this handler's node busy for `d` beyond its current service
    /// backlog — out-of-band work the request triggered on the server, e.g.
    /// a durable-log append+fsync done while applying a commit.
    pub fn occupy(&mut self, d: SimDuration) {
        self.core.inner.borrow_mut().occupy(self.node, d);
    }
}

/// Future returned by [`Sim::sleep`].
pub struct Sleep {
    state: Rc<RefCell<TimerState>>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let mut st = self.state.borrow_mut();
        if st.fired {
            Poll::Ready(())
        } else {
            st.waiter = Some(current_task());
            Poll::Pending
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::latency::ConstLatency;
    use std::cell::Cell;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Msg {
        Ping(u64),
        Pong(u64),
    }

    impl SimMessage for Msg {
        fn class(&self) -> u8 {
            match self {
                Msg::Ping(_) => 0,
                Msg::Pong(_) => 1,
            }
        }
    }

    pub(crate) fn sim(ms: u64) -> Sim<Msg> {
        Sim::new(SimConfig::new(
            1,
            Box::new(ConstLatency::new(SimDuration::from_millis(ms))),
        ))
    }

    /// Install an echo handler: Ping(x) -> Pong(x).
    pub(crate) fn echo(s: &Sim<Msg>, node: NodeId) {
        s.set_handler(node, |ctx, env| {
            if let Msg::Ping(x) = env.msg {
                ctx.respond(&env, Msg::Pong(x));
            }
        });
    }

    #[test]
    fn service_time_serializes_a_hot_node() {
        // Two pings arrive at the same instant; the second is served after
        // the first (FIFO), so its reply comes one service time later.
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(10))));
        cfg.service_time = SimDuration::from_millis(5);
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(3);
        echo(&s, n[2]);
        let s2 = s.clone();
        let t1 = Rc::new(Cell::new(None));
        let t1c = Rc::clone(&t1);
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(2)], Msg::Ping(0), None).await;
            t1c.set(Some(s2.now()));
        });
        let s3 = s.clone();
        let t2 = Rc::new(Cell::new(None));
        let t2c = Rc::clone(&t2);
        s.spawn(async move {
            s3.call(NodeId(1), &[NodeId(2)], Msg::Ping(1), None).await;
            t2c.set(Some(s3.now()));
        });
        s.run();
        let (a, b) = (t1.get().unwrap(), t2.get().unwrap());
        let (first, second) = if a < b { (a, b) } else { (b, a) };
        assert_eq!(second - first, SimDuration::from_millis(5));
    }

    #[test]
    fn sleep_orders_by_deadline_not_spawn_order() {
        let s = sim(1);
        s.add_nodes(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (tag, ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let s2 = s.clone();
            let ord = Rc::clone(&order);
            s.spawn(async move {
                s2.sleep(SimDuration::from_millis(ms)).await;
                ord.borrow_mut().push(tag);
            });
        }
        s.run();
        assert_eq!(*order.borrow(), vec![2, 3, 1]);
    }

    #[test]
    fn run_until_stops_the_clock_exactly() {
        let s = sim(1);
        s.add_nodes(1);
        let s2 = s.clone();
        s.spawn(async move {
            s2.sleep(SimDuration::from_secs(10)).await;
        });
        s.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(s.now(), SimTime::ZERO + SimDuration::from_secs(2));
        assert_eq!(s.live_tasks(), 1, "sleeper still pending");
        s.run();
        assert_eq!(s.live_tasks(), 0);
    }

    #[test]
    fn metrics_count_requests_and_replies_by_class() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        let s2 = s.clone();
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(0), None).await;
        });
        s.run();
        let m = s.metrics();
        assert_eq!(m.sent(0), 1, "one ping");
        assert_eq!(m.sent(1), 1, "one pong");
        assert_eq!(m.sent_total, 2);
        assert_eq!(m.processed_by_node[1], 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace(seed: u64) -> (u64, u64) {
            let s: Sim<Msg> = Sim::new(SimConfig::new(
                seed,
                Box::new(crate::latency::JitteredLatency::new(
                    SimDuration::from_millis(10),
                    0.3,
                )),
            ));
            let n = s.add_nodes(4);
            for &id in &n[1..] {
                s.set_handler(id, |ctx, env| {
                    if let Msg::Ping(x) = env.msg {
                        ctx.respond(&env, Msg::Pong(x));
                    }
                });
            }
            let done = Rc::new(Cell::new(0u64));
            for i in 0..20u64 {
                let s2 = s.clone();
                let d = Rc::clone(&done);
                s.spawn(async move {
                    let dest = NodeId(1 + (s2.rand_below(3)) as u32);
                    s2.call(NodeId(0), &[dest], Msg::Ping(i), None).await;
                    d.set(d.get() + 1);
                });
            }
            s.run();
            (s.now().as_nanos(), s.metrics().sent_total)
        }
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43), "different seed perturbs the trace");
    }

    #[test]
    fn occupy_delays_subsequent_service() {
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(10))));
        cfg.service_time = SimDuration::from_millis(1);
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        s.occupy(n[1], SimDuration::from_millis(40));
        let s2 = s.clone();
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        s.spawn(async move {
            s2.call(NodeId(0), &[NodeId(1)], Msg::Ping(1), None).await;
            done2.set(Some(s2.now()));
        });
        s.run();
        // 10ms there, queued until the 40ms occupancy drains, 1ms service,
        // 10ms back.
        assert_eq!(
            done.get().unwrap(),
            SimTime::ZERO + SimDuration::from_millis(51)
        );
    }

    #[test]
    fn send_fire_and_forget_reaches_handler() {
        let s = sim(5);
        let n = s.add_nodes(2);
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        s.set_handler(n[1], move |_ctx, env| {
            assert!(env.call.is_none());
            h.set(h.get() + 1);
        });
        s.send(n[0], n[1], Msg::Ping(1));
        s.send(n[0], n[1], Msg::Ping(2));
        s.run();
        assert_eq!(hits.get(), 2);
    }

    /// Tag and target of each event of one offered tie group.
    type TieGroup = Vec<(EventTag, Option<NodeId>)>;

    /// Scheduler that always picks a fixed index (clamped by the sim; 0 is
    /// the default order) and records every group it was offered.
    struct FixedPick {
        idx: usize,
        seen: Rc<RefCell<Vec<TieGroup>>>,
    }

    impl Scheduler for FixedPick {
        fn pick(&mut self, _now: SimTime, ready: &[EventInfo]) -> usize {
            self.seen
                .borrow_mut()
                .push(ready.iter().map(|e| (e.tag, e.to)).collect());
            self.idx
        }
    }

    /// Scheduler that consistently prefers events targeting the
    /// highest-numbered node, reversing the default node order at every
    /// level of the exchange.
    struct PreferHighNode {
        seen: Rc<RefCell<Vec<Vec<u64>>>>,
    }

    impl Scheduler for PreferHighNode {
        fn pick(&mut self, _now: SimTime, ready: &[EventInfo]) -> usize {
            self.seen
                .borrow_mut()
                .push(ready.iter().map(|e| e.seq).collect());
            ready
                .iter()
                .enumerate()
                .max_by_key(|(i, e)| (e.to.map_or(0, |n| n.0), std::cmp::Reverse(*i)))
                .map_or(0, |(i, _)| i)
        }
    }

    /// Per-node `(node, payload)` delivery order shared with handlers.
    type DeliveryLog = Rc<RefCell<Vec<(u32, u64)>>>;

    /// Two sends to distinct nodes at the same instant with constant
    /// latency: both `Arrive` events are due together, so an installed
    /// scheduler must be offered the tie.
    fn tie_sim() -> (Sim<Msg>, DeliveryLog) {
        let s = sim(5);
        let n = s.add_nodes(3);
        let order = Rc::new(RefCell::new(Vec::new()));
        for &id in &n[1..] {
            let o = Rc::clone(&order);
            s.set_handler(id, move |ctx, env| {
                if let Msg::Ping(x) = env.msg {
                    o.borrow_mut().push((ctx.node().0, x));
                }
            });
        }
        s.send(n[0], n[1], Msg::Ping(1));
        s.send(n[0], n[2], Msg::Ping(2));
        (s, order)
    }

    #[test]
    fn scheduler_sees_same_instant_ties_and_reorders_them() {
        // Default: creation order (node 1 first).
        let (s, order) = tie_sim();
        s.run();
        assert_eq!(*order.borrow(), vec![(1, 1), (2, 2)]);

        // Consistently preferring the higher node flips the handler order.
        let (s, order) = tie_sim();
        let seen = Rc::new(RefCell::new(Vec::new()));
        s.set_scheduler(Box::new(PreferHighNode {
            seen: Rc::clone(&seen),
        }));
        s.run();
        assert_eq!(*order.borrow(), vec![(2, 2), (1, 1)]);
        assert!(
            seen.borrow().iter().any(|g| g.len() >= 2),
            "scheduler was never offered a tie"
        );

        // Picking index 0 everywhere reproduces the default order, and
        // clearing the scheduler mid-stream is allowed.
        let (s, order) = tie_sim();
        s.set_scheduler(pick_first(&Rc::default()));
        s.run();
        s.clear_scheduler();
        assert_eq!(*order.borrow(), vec![(1, 1), (2, 2)]);

        // Out-of-range picks are clamped, not a panic; both handlers
        // still run exactly once.
        let (s, order) = tie_sim();
        s.set_scheduler(Box::new(FixedPick {
            idx: usize::MAX,
            seen: Rc::default(),
        }));
        s.run();
        assert_eq!(order.borrow().len(), 2);
    }

    /// Install a handler on `node` that logs `(payload, handler time)`.
    fn recording(s: &Sim<Msg>, node: NodeId) -> Rc<RefCell<Vec<(u64, SimTime)>>> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        s.set_handler(node, move |ctx, env| {
            if let Msg::Ping(x) = env.msg {
                l.borrow_mut().push((x, ctx.now()));
            }
        });
        log
    }

    /// `ms` milliseconds plus `us` microseconds after time zero.
    fn at(ms: u64, us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms) + SimDuration::from_micros(us)
    }

    #[test]
    fn backlog_dispatches_in_admission_order_at_admission_time_instants() {
        // 50 requests reach node 1 together (5 ms links, 200 us service):
        // request i completes at the instant fixed when it was admitted,
        // however deep behind the head of the node's lane it waited.
        let s = sim(5);
        let n = s.add_nodes(2);
        let log = recording(&s, n[1]);
        for i in 0..50 {
            s.send(n[0], n[1], Msg::Ping(i));
        }
        s.run();
        let want: Vec<(u64, SimTime)> = (0..50).map(|i| (i, at(5, 200 * (i + 1)))).collect();
        assert_eq!(*log.borrow(), want);
        let m = s.metrics();
        assert_eq!(m.events, 100, "one Arrive and one Dispatch per message");
        assert_eq!(m.queue.lane_high_water, 49, "all but the head waited");
    }

    /// A scheduler picking index 0 everywhere, recording into `seen`.
    fn pick_first(seen: &Rc<RefCell<Vec<TieGroup>>>) -> Box<FixedPick> {
        Box::new(FixedPick {
            idx: 0,
            seen: Rc::clone(seen),
        })
    }

    /// A 4-node ring (1 ms links, 100 us service) carrying `chains` pings
    /// of `hops` hops each, all sent at once: every lane backs up
    /// `chains / 4` deep, and as link and service times are commensurate,
    /// a forwarded ping arrives at an instant where its next node also
    /// completes one. Ping `c * hops + h` is chain `c` on hop `h`.
    fn ring(chains: u64, hops: u64) -> (Sim<Msg>, DeliveryLog) {
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(1))));
        cfg.service_time = SimDuration::from_micros(100);
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(4);
        let log = DeliveryLog::default();
        for &id in &n {
            let (l, next) = (Rc::clone(&log), n[(id.index() + 1) % 4]);
            s.set_handler(id, move |ctx, env| {
                let Msg::Ping(x) = env.msg else { return };
                l.borrow_mut().push((ctx.node().0, x));
                if x % hops + 1 < hops {
                    ctx.send(next, Msg::Ping(x + 1));
                }
            });
        }
        for c in 0..chains {
            let from = c as usize % 4;
            s.send(n[from], n[(from + 1) % 4], Msg::Ping(c * hops));
        }
        (s, log)
    }

    #[test]
    fn picking_first_over_deep_lanes_is_the_default_order() {
        // Every tie group re-pushes the lane heads it did not pick through
        // plain `push`, after their lanes already handed off to the next
        // key: the run must still be the one with no scheduler at all.
        let (plain, want) = ring(480, 8);
        plain.run();
        let (s, got) = ring(480, 8);
        let seen = Rc::default();
        s.set_scheduler(pick_first(&seen));
        s.run();
        assert_eq!(want.borrow().len(), 480 * 8);
        assert_eq!(*got.borrow(), *want.borrow());
        let (m, pm) = (s.metrics(), plain.metrics());
        assert_eq!((m.events, s.now()), (pm.events, plain.now()));
        assert!(pm.queue.lane_high_water >= 100, "{:?}", pm.queue);
        let has = |g: &TieGroup, tag| g.iter().any(|e| e.0 == tag);
        let mixed = |g: &TieGroup| has(g, EventTag::Arrive) && has(g, EventTag::Dispatch);
        assert!(
            seen.borrow().iter().any(mixed),
            "no mixed Arrive/Dispatch tie"
        );
    }

    #[test]
    fn zero_service_time_offers_every_same_instant_dispatch_to_the_scheduler() {
        // Three requests reach node 1 at one instant and complete at that
        // same instant: once all are admitted, the tie group must hold all
        // three `Dispatch` events, although they share one service lane.
        let mut cfg = SimConfig::new(1, Box::new(ConstLatency::new(SimDuration::from_millis(5))));
        cfg.service_time = SimDuration::ZERO;
        let s: Sim<Msg> = Sim::new(cfg);
        let n = s.add_nodes(2);
        let log = recording(&s, n[1]);
        let groups = Rc::new(RefCell::new(Vec::new()));
        s.set_scheduler(pick_first(&groups));
        for i in 0..3 {
            s.send(n[0], n[1], Msg::Ping(i));
        }
        s.run();
        let dispatch = (EventTag::Dispatch, Some(n[1]));
        let arrive = (EventTag::Arrive, Some(n[1]));
        assert_eq!(
            *groups.borrow(),
            vec![
                vec![arrive, arrive, arrive],
                vec![arrive, arrive, dispatch],
                vec![arrive, dispatch, dispatch],
                vec![dispatch, dispatch, dispatch],
                vec![dispatch, dispatch],
            ]
        );
        assert_eq!(*log.borrow(), [0, 1, 2].map(|i| (i, at(5, 0))));
    }

    #[test]
    fn deadlines_issued_out_of_order_fire_in_time_then_seq_order() {
        // Four calls at one instant to a node that never answers, with
        // deadlines of 600, 400, 100 and 600 ms against a 268 ms horizon:
        // the first and last queue in the far lane, the second is behind
        // the lane's tail and falls back to the overflow heap, the third is
        // a plain in-horizon push. The two due at 600 ms are one tie group.
        let s = sim(5);
        let n = s.add_nodes(2);
        let groups = Rc::new(RefCell::new(Vec::new()));
        s.set_scheduler(pick_first(&groups));
        let fired = Rc::new(RefCell::new(Vec::new()));
        for (i, ms) in [600, 400, 100, 600].into_iter().enumerate() {
            let (s2, fired, callee) = (s.clone(), Rc::clone(&fired), n[1]);
            s.spawn(async move {
                let timeout = Some(SimDuration::from_millis(ms));
                let r = s2.call(NodeId(0), &[callee], Msg::Ping(0), timeout).await;
                assert!(r.timed_out);
                fired.borrow_mut().push((i, s2.now()));
            });
        }
        s.run();
        let want = [
            (2, at(100, 0)),
            (1, at(400, 0)),
            (0, at(600, 0)),
            (3, at(600, 0)),
        ];
        assert_eq!(*fired.borrow(), want);
        let deadline = (EventTag::CallTimeout, None);
        let ties = groups.borrow();
        let deadline_ties: Vec<_> = ties.iter().filter(|g| g.contains(&deadline)).collect();
        assert_eq!(deadline_ties, [&vec![deadline, deadline]]);
        assert_eq!(s.metrics().queue.promotions, 1, "the 400 ms one");
    }

    #[test]
    fn fail_mid_backlog_drops_queued_requests_one_by_one_until_recovery() {
        // Ten requests queue at node 1, completing at 5.2, 5.4, ... 7.0 ms.
        let s = sim(5);
        let n = s.add_nodes(2);
        let log = recording(&s, n[1]);
        for i in 0..10 {
            s.send(n[0], n[1], Msg::Ping(i));
        }
        s.run_until(at(5, 500));
        assert_eq!(log.borrow().len(), 2);
        s.fail_node(n[1]);
        // Each queued request is lost at its own completion instant, not
        // in bulk when the node fails.
        for (until, dropped) in [(at(5, 700), 1), (at(5, 900), 2), (at(6, 100), 3)] {
            s.run_until(until);
            assert_eq!(s.metrics().dropped, dropped);
        }
        s.recover_node(n[1]);
        s.run();
        let served: Vec<u64> = log.borrow().iter().map(|&(x, _)| x).collect();
        assert_eq!(served, vec![0, 1, 5, 6, 7, 8, 9]);
        assert_eq!(log.borrow().last(), Some(&(9, at(7, 0))));
        let m = s.metrics();
        assert_eq!((m.dropped, m.processed_by_node[1]), (3, 7));
    }

    #[test]
    fn occupy_mid_backlog_delays_only_later_admissions() {
        // Three requests queue at node 1 (done at 5.2, 5.4, 5.6 ms). A
        // 10 ms occupancy charged at 5.3 ms goes behind them — busy until
        // 15.6 ms — and only a request admitted afterwards waits for it.
        let s = sim(5);
        let n = s.add_nodes(2);
        let log = recording(&s, n[1]);
        for i in 0..3 {
            s.send(n[0], n[1], Msg::Ping(i));
        }
        s.run_until(at(5, 300));
        s.occupy(n[1], SimDuration::from_millis(10));
        s.send(n[0], n[1], Msg::Ping(3));
        s.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, at(5, 200)),
                (1, at(5, 400)),
                (2, at(5, 600)),
                (3, at(15, 800)),
            ]
        );
    }

    #[test]
    fn charge_zero_schedules_no_event() {
        let s = sim(1);
        s.add_nodes(2);
        let before = s.metrics().events;
        let s2 = s.clone();
        s.spawn(async move {
            s2.charge(SimDuration::ZERO).await;
        });
        s.run();
        // Only the spawn-task event itself ran; charging zero added none.
        let after = s.metrics().events;
        assert!(after - before <= 1, "zero charge must not schedule timers");
        assert_eq!(s.now(), SimTime::ZERO, "virtual time did not advance");
    }

    #[test]
    fn charge_nonzero_advances_time() {
        let s = sim(1);
        s.add_nodes(2);
        let s2 = s.clone();
        s.spawn(async move {
            s2.charge(SimDuration::from_millis(5)).await;
        });
        s.run();
        assert_eq!(s.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn jitter_is_seeded_and_in_range() {
        let a = sim(1).jitter(0.5, 1.5);
        let b = sim(1).jitter(0.5, 1.5);
        assert!((0.5..1.5).contains(&a));
        assert_eq!(a, b, "same seed, same draw");
    }

    #[test]
    fn event_info_commutativity_is_conservative() {
        let info = |to: Option<u32>, from: Option<u32>, call: Option<u64>| EventInfo {
            time: SimTime::ZERO,
            seq: 0,
            tag: EventTag::Arrive,
            from: from.map(NodeId),
            to: to.map(NodeId),
            class: None,
            call,
        };
        // Different target nodes, no shared call: commute.
        assert!(info(Some(1), Some(0), None).commutes_with(&info(Some(2), Some(0), None)));
        // Same target node: dependent.
        assert!(!info(Some(1), Some(0), None).commutes_with(&info(Some(1), Some(2), None)));
        // Same RPC call: dependent even across nodes.
        assert!(!info(Some(1), Some(0), Some(7)).commutes_with(&info(Some(2), Some(0), Some(7))));
        // One event targets the other's source: dependent.
        assert!(!info(Some(1), Some(2), None).commutes_with(&info(Some(2), Some(0), None)));
        // Timer (no target): dependent with everything.
        let timer = EventInfo {
            time: SimTime::ZERO,
            seq: 0,
            tag: EventTag::Timer,
            from: None,
            to: None,
            class: None,
            call: None,
        };
        assert!(!timer.commutes_with(&info(Some(1), Some(0), None)));
    }

    /// What a family's cluster is to its simulation: the owner whose drop
    /// tears it down.
    struct Owner(Sim<Msg>);

    impl Drop for Owner {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    #[test]
    fn a_task_that_drops_the_owner_tears_the_sim_down_under_its_own_poll() {
        // `silent` never answers: the caller parks on a call whose future,
        // dropped by the teardown, re-borrows the core to retire the call.
        let s = sim(5);
        let n = s.add_nodes(3);
        let (from, silent, served) = (n[0], n[1], n[2]);
        echo(&s, served);
        let token = Rc::new(());
        let (s2, t) = (s.clone(), Rc::clone(&token));
        s.spawn(async move {
            s2.call(from, &[silent], Msg::Ping(0), None).await;
            unreachable!("{t:?}: nobody answers");
        });
        let (s3, t) = (s.clone(), Rc::clone(&token));
        s.spawn(async move {
            s3.sleep(SimDuration::from_secs(10)).await;
            unreachable!("{t:?}: torn down before it wakes");
        });
        let (s4, owner, t) = (s.clone(), Owner(s.clone()), Rc::clone(&token));
        s.spawn(async move {
            s4.sleep(SimDuration::from_millis(1)).await;
            drop(owner);
            // Still running: what it sends finds an empty handler table,
            // and it parks on an empty store, dropped when the poll returns.
            s4.send(from, served, Msg::Ping(1));
            std::future::pending::<()>().await;
            drop(t);
        });
        s.run();
        assert_eq!(s.live_tasks(), 0);
        assert_eq!(Rc::strong_count(&token), 1, "every task was dropped");
        assert_eq!(s.core.inner.borrow().calls.live(), 0);
    }

    #[test]
    fn a_shut_down_sim_is_inert_and_still_readable() {
        let s = sim(5);
        let n = s.add_nodes(2);
        echo(&s, n[1]);
        let s2 = s.clone();
        s.spawn(async move {
            for i in 0.. {
                s2.call(n[0], &[n[1]], Msg::Ping(i), None).await;
            }
        });
        // Self-rescheduling ticks: `run()` would never return on its own.
        s.start_heartbeats();
        s.run_for(SimDuration::from_millis(100));
        let (now, m) = (s.now(), s.metrics());
        assert!(m.events > 0 && s.live_tasks() == 1);
        assert!(m.queue.arena.high_water > 0);
        s.shutdown();
        s.shutdown();
        let polled = Rc::new(Cell::new(false));
        let p = Rc::clone(&polled);
        s.spawn(async move { p.set(true) });
        assert_eq!(s.live_tasks(), 0);
        s.run();
        assert!(!polled.get(), "a task spawned after shutdown never runs");
        assert_eq!(s.now(), now);
        let after = s.metrics();
        assert_eq!((after.events, after.queue), (m.events, m.queue));
        // What `DetectorHandle::stop` does once its cluster is gone.
        s.stop_heartbeats();
    }
}
