//! Message and load accounting.
//!
//! The paper's evaluation reports *messages exchanged* (read requests and
//! commit requests) alongside throughput and abort rates, so the simulator
//! counts every message it delivers, broken down by a small protocol-defined
//! class index (see [`SimMessage::class`](crate::SimMessage::class)).
//! Per-node processed-request counters additionally expose load balance,
//! which drives the failure experiment (Fig. 10): a one-node read quorum is a
//! hot spot, a grown quorum spreads the load.

/// Upper bound on distinct message classes a protocol may use.
pub const MAX_CLASSES: usize = 16;

/// Number of [`EngineEventKind`] variants (size of the counter array):
/// one past the last variant's index.
pub(crate) const ENGINE_EVENT_KINDS: usize = EngineEventKind::HedgeSuppressed as usize + 1;

/// Structured events a protocol engine emits at its layer boundaries.
///
/// The simulator is protocol-agnostic, but every engine built on it shares
/// the same observable milestones, so the sink lives here: one stream that
/// every figure and future profiling hook reads, instead of per-protocol
/// ad-hoc counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineEventKind {
    /// A remote read completed with piggybacked data-set validation.
    ReadValidated = 0,
    /// A quorum RPC round was issued (read round or commit/vote round);
    /// `detail` carries the message class.
    QuorumRound = 1,
    /// An abort surfaced to the transaction body; `detail` encodes the
    /// abort target (protocol-defined).
    AbortWithTarget = 2,
    /// A checkpoint was taken; `detail` packs `(checkpoint index << 32) |
    /// oplog length at capture`.
    CheckpointTaken = 3,
    /// A fault was injected into (or cleared from) the simulated network by
    /// a nemesis; `detail` encodes the fault vocabulary entry
    /// (nemesis-defined). Makes fault timing visible in every trace.
    FaultInjected = 4,
    /// A failure detector suspected `node` and ejected it from the
    /// membership view; `detail` is the view epoch after the ejection.
    NodeSuspected = 5,
    /// A failure detector observed heartbeats from a previously suspected
    /// node and rejoined it (with state transfer); `detail` is the view
    /// epoch after the rejoin.
    NodeRejoined = 6,
    /// An amnesiac replica replayed its durable snapshot+log on restart;
    /// `detail` is the number of log records replayed.
    WalReplayed = 7,
    /// A restarting replica reconciled per-object versions against a read
    /// quorum and caught up its lost suffix; `detail` is the number of
    /// objects repaired.
    QuorumRepaired = 8,
    /// A checkpoint was restored (partial rollback); `detail` packs
    /// `(checkpoint index << 32) | oplog length after restore`, mirroring
    /// the [`EngineEventKind::CheckpointTaken`] encoding so checkers can
    /// match restores against captures.
    CheckpointRestored = 9,
    /// Admission control shed an arriving transaction because the node's
    /// admission queue was at its bound; `detail` is the queue depth at
    /// the shed decision. Shedding happens *before* acknowledgment — a
    /// shed arrival was never accepted, so nothing is silently dropped.
    OverloadShed = 10,
    /// A transaction was abandoned because it blew its deadline; `detail`
    /// is how far past the deadline it was, in nanoseconds.
    DeadlineAbort = 11,
    /// A read round skipped its hedge destinations because outstanding
    /// RPC-retry pressure indicated saturation; `detail` is the pressure
    /// reading at the decision.
    HedgeSuppressed = 12,
}

/// One recorded engine event (see [`Metrics::engine_event_log`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineEvent {
    /// Virtual timestamp, nanoseconds since simulation start.
    pub at_ns: u64,
    /// Node the event happened on.
    pub node: u32,
    /// What happened.
    pub kind: EngineEventKind,
    /// Kind-specific payload (object id, message class, abort target, …).
    pub detail: u64,
}

/// The one edit site per bumpable counter: a row is the [`Counter`]
/// variant external subsystems pass to [`Sim::bump`](crate::Sim::bump) /
/// [`Sim::add`](crate::Sim::add), the [`Metrics`] field it lands in, and
/// the doc line both carry. The counters the simulator maintains itself
/// (heartbeats, wasted replies) have no variant and are plain fields.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $field:ident,)*) => {
        /// Detector/transport counters external subsystems may bump.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Counters accumulated by the simulator while it runs.
        ///
        /// Obtain a snapshot via [`Sim::metrics`](crate::Sim::metrics). Counters are
        /// cumulative from simulation start (or the last
        /// [`Sim::reset_metrics`](crate::Sim::reset_metrics), which experiment
        /// drivers use to discard warm-up).
        #[derive(Clone, Debug, Default)]
        pub struct Metrics {
            /// Messages sent, by message class.
            pub sent_by_class: [u64; MAX_CLASSES],
            /// Total messages sent (requests + replies).
            pub sent_total: u64,
            /// Total payload bytes sent, per [`SimMessage::size_hint`](crate::SimMessage::size_hint).
            pub bytes_total: u64,
            /// Messages dropped because the destination node had failed (or the
            /// sender was dead at send time).
            pub dropped: u64,
            /// Messages dropped at delivery because sender and receiver sat in
            /// different partition groups (see [`Sim::set_partition`](crate::Sim::set_partition)).
            pub dropped_by_partition: u64,
            /// Messages dropped at delivery by a per-link loss fault (see
            /// [`Sim::set_link_drop`](crate::Sim::set_link_drop)).
            pub dropped_by_link: u64,
            /// Requests processed, per node (index = node id).
            pub processed_by_node: Vec<u64>,
            /// Total events executed by the simulator loop.
            pub events: u64,
            /// Engine events emitted, by [`EngineEventKind`].
            pub engine_events_by_kind: [u64; ENGINE_EVENT_KINDS],
            /// Full engine-event stream; populated only while recording is enabled
            /// (see [`Sim::record_engine_events`](crate::Sim::record_engine_events)),
            /// since counters are enough for the figures.
            pub engine_event_log: Vec<EngineEvent>,
            pub(crate) record_engine_events: bool,
            /// Heartbeats put on the wire (see [`Sim::start_heartbeats`](crate::Sim::start_heartbeats)).
            pub heartbeats_sent: u64,
            /// Heartbeats that reached an alive observer.
            pub heartbeats_delivered: u64,
            /// Replies that arrived after their call had already resolved early
            /// (the wasted work hedging pays for its latency wins).
            pub wasted_replies: u64,
            /// Calls issued without a timeout while at least one destination was
            /// already dead — the caller will hang unless a detector resolves it.
            pub no_timeout_dead_calls: u64,
            $($(#[$doc])* pub $field: u64,)*
            /// Sampled end-to-end commit latencies (engines report through
            /// [`Sim::observe_latency`](crate::Sim::observe_latency)).
            pub latency: LatencyReservoir,
            /// Timing-wheel internals (promotions, bucket sorts, arena
            /// high-water).
            /// Lifetime counters: snapshot-merged, unaffected by [`Metrics::reset`].
            pub queue: crate::wheel::WheelStats,
        }

        impl Metrics {
            pub(crate) fn add(&mut self, c: Counter, n: u64) {
                match c {
                    $(Counter::$variant => self.$field += n,)*
                }
            }
        }
    };
}

counters! {
    /// Suspicions raised by a failure detector.
    Suspicions => suspicions,
    /// Suspicions of nodes that were in fact alive at suspicion time.
    FalseSuspicions => false_suspicions,
    /// Suspected nodes rejoined after heartbeats resumed.
    Rejoins => rejoins,
    /// RPC attempts re-issued after a timeout by a retrying transport.
    RpcRetries => rpc_retries,
    /// Quorum calls issued with extra (hedge) destinations.
    HedgedCalls => hedged_calls,
    /// Hedged calls whose accepted reply set included a hedge destination.
    HedgedWins => hedged_wins,
    /// Amnesiac restarts that replayed a durable snapshot+log.
    LogReplays => log_replays,
    /// Torn (corrupt) log tails detected and truncated during replay.
    TornTails => torn_tails,
    /// Quorum-repair reconciliation rounds run by recovering replicas.
    RepairRounds => repair_rounds,
    /// Objects caught up from quorum peers during repair (add by count).
    RepairedObjects => repaired_objects,
    /// Payload bytes transferred by quorum repair (add by amount).
    RepairBytes => repair_bytes,
    /// Arrivals shed by admission control at a full admission queue.
    AdmissionShed => admission_shed,
    /// Transactions abandoned past their deadline instead of burning more
    /// quorum rounds.
    DeadlineAborts => deadline_aborts,
    /// Retry attempts denied because the client-side retry token bucket
    /// was empty.
    RetryBudgetExhausted => retry_budget_exhausted,
    /// RPC retries / hedge rounds cancelled because their transaction was
    /// already past its deadline — work that would have been wasted.
    WastedRetries => wasted_retries,
    /// Read rounds that skipped hedging under saturation pressure.
    HedgesSuppressed => hedges_suppressed,
    /// Transaction-level retry attempts that drew a retry-budget token —
    /// the no-retry-storm checker compares this against the minted token
    /// supply.
    ClientRetries => client_retries,
}

/// Default sample capacity of a [`LatencyReservoir`].
pub(crate) const RESERVOIR_CAP: usize = 4096;

/// Fixed-size reservoir sample of latency observations (nanoseconds),
/// for p50/p99/p999 reporting without unbounded memory.
///
/// Uses Vitter's Algorithm R with an *internal* xorshift generator, never
/// the simulator RNG: sampling decisions must not perturb the seeded
/// event stream, or identical configs would stop replaying identically.
#[derive(Clone, Debug)]
pub struct LatencyReservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Default for LatencyReservoir {
    fn default() -> Self {
        LatencyReservoir::new(RESERVOIR_CAP)
    }
}

impl LatencyReservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        LatencyReservoir {
            samples: Vec::new(),
            cap: cap.max(1),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic, self-contained.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Record one observation (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(ns);
            return;
        }
        let j = self.next_rand() % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = ns;
        }
    }

    /// Observations recorded (including ones that fell out of the sample).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// The `p`-th percentile (0.0..=100.0) of the sampled observations in
    /// nanoseconds, by nearest-rank on the sample; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// Drop every sample and observation count (capacity kept).
    pub fn reset(&mut self) {
        *self = LatencyReservoir::new(self.cap);
    }
}

impl Metrics {
    pub(crate) fn new(nodes: usize) -> Self {
        Metrics {
            processed_by_node: vec![0; nodes],
            ..Default::default()
        }
    }

    pub(crate) fn on_send(&mut self, class: u8, bytes: usize) {
        let class = (class as usize).min(MAX_CLASSES - 1);
        self.sent_by_class[class] += 1;
        self.sent_total += 1;
        self.bytes_total += bytes as u64;
    }

    pub(crate) fn on_processed(&mut self, node: usize) {
        if node >= self.processed_by_node.len() {
            self.processed_by_node.resize(node + 1, 0);
        }
        self.processed_by_node[node] += 1;
    }

    pub(crate) fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    pub(crate) fn on_engine_event(&mut self, ev: EngineEvent) {
        self.engine_events_by_kind[ev.kind as usize] += 1;
        if self.record_engine_events {
            self.engine_event_log.push(ev);
        }
    }

    /// Zero every counter, keeping the per-node vector length and whether
    /// engine-event recording is enabled.
    pub fn reset(&mut self) {
        let nodes = self.processed_by_node.len();
        let record = self.record_engine_events;
        *self = Metrics::new(nodes);
        self.record_engine_events = record;
    }

    /// Engine events emitted for one kind.
    pub fn engine_events(&self, kind: EngineEventKind) -> u64 {
        self.engine_events_by_kind[kind as usize]
    }

    /// Messages sent for a given class index.
    pub fn sent(&self, class: u8) -> u64 {
        self.sent_by_class[(class as usize).min(MAX_CLASSES - 1)]
    }

    /// Coefficient of variation of per-node processed counts over the given
    /// node set — 0 means perfectly balanced load.
    pub fn load_cv(&self, nodes: &[usize]) -> f64 {
        let vals: Vec<f64> = nodes
            .iter()
            .map(|&n| *self.processed_by_node.get(n).unwrap_or(&0) as f64)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting() {
        let mut m = Metrics::new(4);
        m.on_send(0, 100);
        m.on_send(0, 50);
        m.on_send(3, 10);
        assert_eq!(m.sent(0), 2);
        assert_eq!(m.sent(3), 1);
        assert_eq!(m.sent_total, 3);
        assert_eq!(m.bytes_total, 160);
    }

    #[test]
    fn class_overflow_clamps_to_last_bucket() {
        let mut m = Metrics::new(1);
        m.on_send(200, 1);
        assert_eq!(m.sent_by_class[MAX_CLASSES - 1], 1);
        assert_eq!(m.sent(200), 1);
    }

    #[test]
    fn processed_grows_on_demand() {
        let mut m = Metrics::new(2);
        m.on_processed(5);
        assert_eq!(m.processed_by_node.len(), 6);
        assert_eq!(m.processed_by_node[5], 1);
    }

    #[test]
    fn reset_clears_but_keeps_width() {
        let mut m = Metrics::new(3);
        m.on_send(1, 8);
        m.on_processed(2);
        m.reset();
        assert_eq!(m.sent_total, 0);
        assert_eq!(m.processed_by_node, vec![0, 0, 0]);
    }

    #[test]
    fn load_cv_balanced_vs_skewed() {
        let mut m = Metrics::new(3);
        for n in 0..3 {
            m.processed_by_node[n] = 100;
        }
        assert!(m.load_cv(&[0, 1, 2]) < 1e-12);
        m.processed_by_node[0] = 300;
        m.processed_by_node[1] = 0;
        m.processed_by_node[2] = 0;
        assert!(m.load_cv(&[0, 1, 2]) > 1.0, "hot spot has high CV");
    }

    #[test]
    fn load_cv_empty_and_zero_mean() {
        let m = Metrics::new(2);
        assert_eq!(m.load_cv(&[]), 0.0);
        assert_eq!(m.load_cv(&[0, 1]), 0.0);
    }

    #[test]
    fn engine_events_count_without_recording() {
        let mut m = Metrics::new(2);
        m.on_engine_event(EngineEvent {
            at_ns: 10,
            node: 0,
            kind: EngineEventKind::QuorumRound,
            detail: 1,
        });
        m.on_engine_event(EngineEvent {
            at_ns: 20,
            node: 1,
            kind: EngineEventKind::CheckpointTaken,
            detail: 2,
        });
        assert_eq!(m.engine_events(EngineEventKind::QuorumRound), 1);
        assert_eq!(m.engine_events(EngineEventKind::CheckpointTaken), 1);
        assert_eq!(m.engine_events(EngineEventKind::ReadValidated), 0);
        assert!(m.engine_event_log.is_empty(), "off by default");
    }

    #[test]
    fn every_engine_event_kind_indexes_inside_the_counter_array() {
        use EngineEventKind::*;
        let mut m = Metrics::new(1);
        let (mut walk, mut seen) = (Some(ReadValidated), 0);
        while let Some(kind) = walk {
            // Indexes the array: out of bounds would panic here.
            m.on_engine_event(EngineEvent {
                at_ns: 0,
                node: 0,
                kind,
                detail: 0,
            });
            assert_eq!(m.engine_events(kind), 1, "{kind:?} has its own slot");
            seen += 1;
            // Exhaustive, so a new variant must join the walk to compile.
            walk = match kind {
                ReadValidated => Some(QuorumRound),
                QuorumRound => Some(AbortWithTarget),
                AbortWithTarget => Some(CheckpointTaken),
                CheckpointTaken => Some(FaultInjected),
                FaultInjected => Some(NodeSuspected),
                NodeSuspected => Some(NodeRejoined),
                NodeRejoined => Some(WalReplayed),
                WalReplayed => Some(QuorumRepaired),
                QuorumRepaired => Some(CheckpointRestored),
                CheckpointRestored => Some(OverloadShed),
                OverloadShed => Some(DeadlineAbort),
                DeadlineAbort => Some(HedgeSuppressed),
                HedgeSuppressed => None,
            };
        }
        assert_eq!(seen, ENGINE_EVENT_KINDS);
    }

    #[test]
    fn recovery_counters_add_by_amount() {
        let mut m = Metrics::new(1);
        m.bump(Counter::LogReplays);
        m.bump(Counter::TornTails);
        m.add(Counter::RepairRounds, 1);
        m.add(Counter::RepairedObjects, 12);
        m.add(Counter::RepairBytes, 4096);
        assert_eq!(m.log_replays, 1);
        assert_eq!(m.torn_tails, 1);
        assert_eq!(m.repair_rounds, 1);
        assert_eq!(m.repaired_objects, 12);
        assert_eq!(m.repair_bytes, 4096);
        m.reset();
        assert_eq!(m.repaired_objects, 0);
    }

    #[test]
    fn overload_counters_accumulate_and_reset() {
        let mut m = Metrics::new(1);
        m.bump(Counter::AdmissionShed);
        m.add(Counter::AdmissionShed, 2);
        m.bump(Counter::DeadlineAborts);
        m.bump(Counter::RetryBudgetExhausted);
        m.bump(Counter::WastedRetries);
        m.bump(Counter::HedgesSuppressed);
        m.add(Counter::ClientRetries, 5);
        assert_eq!(m.admission_shed, 3);
        assert_eq!(m.deadline_aborts, 1);
        assert_eq!(m.retry_budget_exhausted, 1);
        assert_eq!(m.wasted_retries, 1);
        assert_eq!(m.hedges_suppressed, 1);
        assert_eq!(m.client_retries, 5);
        m.on_engine_event(EngineEvent {
            at_ns: 1,
            node: 0,
            kind: EngineEventKind::OverloadShed,
            detail: 64,
        });
        m.on_engine_event(EngineEvent {
            at_ns: 2,
            node: 0,
            kind: EngineEventKind::DeadlineAbort,
            detail: 1000,
        });
        m.on_engine_event(EngineEvent {
            at_ns: 3,
            node: 0,
            kind: EngineEventKind::HedgeSuppressed,
            detail: 9,
        });
        assert_eq!(m.engine_events(EngineEventKind::OverloadShed), 1);
        assert_eq!(m.engine_events(EngineEventKind::DeadlineAbort), 1);
        assert_eq!(m.engine_events(EngineEventKind::HedgeSuppressed), 1);
        m.reset();
        assert_eq!(m.admission_shed, 0);
        assert_eq!(m.client_retries, 0);
    }

    #[test]
    fn reservoir_percentiles_exact_below_capacity() {
        let mut r = LatencyReservoir::new(1000);
        for ns in 1..=100u64 {
            r.record(ns * 10);
        }
        assert_eq!(r.count(), 100);
        assert_eq!(r.percentile(50.0), Some(500));
        assert_eq!(r.percentile(99.0), Some(990));
        assert_eq!(r.percentile(99.9), Some(1000));
        assert_eq!(r.percentile(0.0), Some(10));
    }

    #[test]
    fn reservoir_caps_memory_and_stays_deterministic() {
        let run = || {
            let mut r = LatencyReservoir::new(64);
            for ns in 0..10_000u64 {
                r.record(ns);
            }
            (r.count(), r.samples.clone())
        };
        let (n, s) = run();
        assert_eq!(n, 10_000);
        assert_eq!(s.len(), 64);
        assert_eq!(run().1, s, "internal RNG replays identically");
    }

    #[test]
    fn reservoir_empty_and_reset() {
        let mut r = LatencyReservoir::new(8);
        assert!(r.is_empty());
        assert_eq!(r.percentile(50.0), None);
        r.record(7);
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.percentile(99.0), None);
    }

    #[test]
    fn engine_event_recording_survives_reset() {
        let mut m = Metrics::new(1);
        m.record_engine_events = true;
        let ev = EngineEvent {
            at_ns: 5,
            node: 0,
            kind: EngineEventKind::AbortWithTarget,
            detail: 0,
        };
        m.on_engine_event(ev);
        assert_eq!(m.engine_event_log, vec![ev]);
        m.reset();
        assert!(m.engine_event_log.is_empty());
        assert_eq!(m.engine_events(EngineEventKind::AbortWithTarget), 0);
        m.on_engine_event(ev);
        assert_eq!(m.engine_event_log.len(), 1, "recording stayed on");
    }
}
