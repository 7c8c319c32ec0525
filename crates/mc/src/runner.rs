//! One schedule = one deterministic simulation run under a pick policy.
//!
//! The runner builds a small contended cluster (the exploration [`Scope`]),
//! installs a recording [`qrdtm_sim::Scheduler`] that delegates tie-breaks
//! to a [`ChoicePolicy`](crate::ChoicePolicy), drives the workload to
//! completion, and then runs the full invariant battery: history
//! serializability, balance conservation, durability no-regress, and the
//! structural nesting/checkpoint assertions from
//! [`qrdtm_core::check_abort_targets`] /
//! [`qrdtm_core::check_checkpoint_restores`].

use std::cell::RefCell;
use std::rc::Rc;

use qrdtm_chaos::{check_balances, check_durability, ChaosTarget};
use qrdtm_core::{
    check_abort_targets, check_checkpoint_restores, Cluster, DtmConfig, InjectedBug, LatencySpec,
    NestingMode, ObjVal, ObjectId,
};
use qrdtm_qstore::{QStoreBug, QStoreCluster, QStoreConfig};
use qrdtm_sim::{EventInfo, Metrics, NodeId, Scheduler, SimDuration, SimTime};
use qrdtm_workloads::protocol_bank::transfer;

use crate::strategies::ChoicePolicy;

/// Balance preloaded into every account object at the start of a run.
pub const INITIAL_BALANCE: i64 = 1000;

/// Virtual-time horizon for one schedule run. The workload finishes in a
/// few hundred simulated milliseconds when healthy; a task still live at
/// the horizon is reported as a stuck-run violation.
const HORIZON: SimDuration = SimDuration::from_secs(300);

/// Protocol family a scope explores: a QR nesting variant or the Q-Store
/// speculative-batching protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McProto {
    /// The quorum-replication family (QR / QR-CN / QR-CHK by nesting mode).
    Qr(NestingMode),
    /// Q-Store: planner-ordered epochs, speculative executors, batch-atomic
    /// group commit.
    QStore,
}

impl McProto {
    /// Every protocol with its `repro mc --proto` label and its trace-file
    /// spelling — the one table both parsers and both printers read.
    pub const ALL: [(McProto, &'static str, &'static str); 4] = [
        (McProto::Qr(NestingMode::Flat), "qr", "QR"),
        (McProto::Qr(NestingMode::Closed), "qr-cn", "QR-CN"),
        (McProto::Qr(NestingMode::Checkpoint), "qr-chk", "QR-CHK"),
        (McProto::QStore, "qstore", "QSTORE"),
    ];

    fn row(self) -> (McProto, &'static str, &'static str) {
        *Self::ALL
            .iter()
            .find(|(p, ..)| *p == self)
            .expect("every McProto is in ALL")
    }

    /// The command-line label (`qr-cn`).
    pub fn label(self) -> &'static str {
        self.row().1
    }

    /// The protocol a command-line label names.
    pub fn from_label(s: &str) -> Option<McProto> {
        Self::ALL.iter().find(|(_, l, _)| *l == s).map(|r| r.0)
    }

    /// The trace-file spelling (`QR-CN`).
    pub(crate) fn trace_label(self) -> &'static str {
        self.row().2
    }

    /// The protocol a trace-file spelling names.
    pub(crate) fn from_trace_label(s: &str) -> Option<McProto> {
        Self::ALL.iter().find(|(_, _, t)| *t == s).map(|r| r.0)
    }
}

/// A deliberately broken protocol variant, used to validate that the
/// checkers can actually catch protocol bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McBug {
    /// A QR-family bug (`skip-vote-check` / `skip-epoch-fence`).
    Qr(InjectedBug),
    /// A Q-Store bug (`skip-tag-check` / `ack-before-fsync`).
    QStore(QStoreBug),
}

impl McBug {
    /// Every injectable bug with its label — the spelling
    /// `repro mc --inject-bug` and a trace file's `bug` line share.
    pub const ALL: [(McBug, &'static str); 4] = [
        (McBug::Qr(InjectedBug::SkipVoteCheck), "skip-vote-check"),
        (McBug::Qr(InjectedBug::SkipEpochFence), "skip-epoch-fence"),
        (McBug::QStore(QStoreBug::SkipTagCheck), "skip-tag-check"),
        (McBug::QStore(QStoreBug::AckBeforeFsync), "ack-before-fsync"),
    ];

    /// This bug's label.
    pub fn label(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(b, _)| *b == self)
            .expect("every McBug is in ALL")
            .1
    }

    /// The bug a label names.
    pub fn parse_bug(s: &str) -> Option<McBug> {
        Self::ALL.iter().find(|(_, l)| *l == s).map(|r| r.0)
    }
}

/// The bounded exploration scope: protocol, cluster size, and workload
/// shape shared by every schedule the checker runs. A recorded schedule is
/// only replayable under the exact scope it was recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scope {
    /// Protocol variant under test.
    pub proto: McProto,
    /// Replica count.
    pub nodes: usize,
    /// Account objects (ids `0..objects`, each preloaded with
    /// [`INITIAL_BALANCE`]).
    pub objects: u64,
    /// Concurrent transfer transactions (client `i` runs on node
    /// `i % nodes`, debiting object `i % objects`).
    pub txns: usize,
    /// Cluster RNG seed (retry backoff jitter); part of the scope because
    /// choices only reproduce a run under the same seed.
    pub seed: u64,
    /// Deliberately broken protocol variant, used to validate that the
    /// checkers can actually catch protocol bugs.
    pub injected_bug: Option<McBug>,
}

impl Scope {
    /// The issue's smoke scope: 3 nodes, 2 objects, 2 transactions.
    pub fn smoke(proto: McProto) -> Self {
        Scope {
            proto,
            nodes: 3,
            objects: 2,
            txns: 2,
            seed: 1,
            injected_bug: None,
        }
    }

    /// Refuse a scope with nothing to schedule or one its protocol cannot
    /// build: at least one node (three for Q-Store, whose majority needs
    /// them), one object and one transaction. The error names the field.
    pub fn check(&self) -> Result<(), String> {
        let min_nodes = if self.proto == McProto::QStore { 3 } else { 1 };
        let fields = [
            ("nodes", self.nodes as u64, min_nodes),
            ("objects", self.objects, 1),
            ("txns", self.txns as u64, 1),
        ];
        match fields.into_iter().find(|&(_, value, min)| value < min) {
            Some((name, _, min)) => Err(format!(
                "{name} must be at least {min} for {}",
                self.proto.label()
            )),
            None => Ok(()),
        }
    }
}

/// Everything one schedule run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The choice taken at each scheduler decision point (a decision point
    /// is a same-instant tie group of two or more events).
    pub choices: Vec<usize>,
    /// The tie group offered at each decision point (parallel to
    /// `choices`); used by the DFS explorer for commutativity pruning.
    pub groups: Vec<Vec<EventInfo>>,
    /// Root transactions committed.
    pub commits: u64,
    /// Root aborts plus partial (closed-nested / checkpoint) aborts.
    pub aborts: u64,
    /// Invariant violations, human-readable. Empty means the run passed.
    pub violations: Vec<String>,
    /// Order-sensitive digest of the run's observable outcome (counters,
    /// balances, acknowledged versions) — equal fingerprints for equal
    /// choices is the replay-determinism contract.
    pub fingerprint: u64,
}

/// Minimal FNV-1a, used for outcome fingerprints and schedule dedup keys
/// (stable across runs, unlike `DefaultHasher`).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-run recording shared between the scheduler and the runner.
#[derive(Default)]
struct Recording {
    choices: Vec<usize>,
    groups: Vec<Vec<EventInfo>>,
}

/// Adapts a [`ChoicePolicy`] to the sim's [`Scheduler`] hook, recording
/// every decision point (the offered group and the clamped pick) so the
/// run is replayable and the explorer can backtrack.
struct RecordingScheduler {
    policy: Box<dyn ChoicePolicy>,
    rec: Rc<RefCell<Recording>>,
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, now: SimTime, ready: &[EventInfo]) -> usize {
        let pick = self.policy.choose(now, ready).min(ready.len() - 1);
        let mut rec = self.rec.borrow_mut();
        rec.choices.push(pick);
        rec.groups.push(ready.to_vec());
        pick
    }
}

/// The scope's workload: client `i` runs on node `i % nodes` and moves
/// `1 + i` from object `i % objects` to the next one.
fn transfers(scope: &Scope) -> impl Iterator<Item = (NodeId, ObjectId, ObjectId, i64)> + '_ {
    (0..scope.txns).map(|i| {
        let from = ObjectId(i as u64 % scope.objects);
        let to = ObjectId((i as u64 + 1) % scope.objects);
        (NodeId((i % scope.nodes) as u32), from, to, 1 + i as i64)
    })
}

/// Spawn one transfer client. Under QR-CN the debit and credit run in
/// separate closed-nested scopes so conflicts produce real partial aborts;
/// the other modes run the accesses flat (QR-CHK still checkpoints them,
/// `chk_threshold` is 1 in this scope).
fn spawn_transfer(cluster: &Rc<Cluster>, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
    let nested = cluster.config().mode == NestingMode::Closed;
    let client = cluster.client(node);
    cluster.sim().spawn(async move {
        client
            .run(|tx| async move {
                if nested {
                    tx.closed(|tx| async move {
                        let v = tx.read(from).await?.expect_int();
                        tx.write(from, ObjVal::Int(v - amount)).await
                    })
                    .await?;
                    tx.closed(|tx| async move {
                        let v = tx.read(to).await?.expect_int();
                        tx.write(to, ObjVal::Int(v + amount)).await
                    })
                    .await?;
                } else {
                    let a = tx.read(from).await?.expect_int();
                    let b = tx.read(to).await?.expect_int();
                    tx.write(from, ObjVal::Int(a - amount)).await?;
                    tx.write(to, ObjVal::Int(b + amount)).await?;
                }
                Ok(())
            })
            .await;
    });
}

/// Run one schedule of the scope's workload under `policy` and check every
/// invariant. Deterministic: the same scope and the same effective choices
/// always produce the same [`RunOutcome`].
pub fn run_schedule(scope: &Scope, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    match scope.proto {
        McProto::Qr(mode) => run_qr_schedule(scope, mode, policy),
        McProto::QStore => run_qstore_schedule(scope, policy),
    }
}

/// What one protocol family adds to [`drive`], read off the cluster after
/// the run.
struct Family {
    commits: u64,
    aborts: u64,
    /// The family's own counters: the leading fingerprint words.
    fingerprint: Vec<u64>,
    /// Violations from checks only this family has; reported last.
    violations: Vec<String>,
}

/// The one schedule runner: preload, record history and choices, `spawn`
/// the workload, run to the horizon, then the battery every family shares
/// (batch atomicity is empty for per-transaction protocols) and the
/// fingerprint — the family's words, then message and event totals, final
/// balances and acknowledged versions.
fn drive<P: ChaosTarget>(
    scope: &Scope,
    policy: Box<dyn ChoicePolicy>,
    cluster: Rc<P>,
    spawn: impl FnOnce(&Rc<P>),
    family: impl FnOnce(&P, &Metrics) -> Family,
) -> RunOutcome {
    for o in 0..scope.objects {
        cluster.preload(ObjectId(o), ObjVal::Int(INITIAL_BALANCE));
    }
    cluster.begin_history();
    let sim = cluster.sim();
    // The recording fills in as the run executes.
    let rec = Rc::new(RefCell::new(Recording::default()));
    sim.set_scheduler(Box::new(RecordingScheduler {
        policy,
        rec: Rc::clone(&rec),
    }));
    spawn(&cluster);
    sim.run_until(SimTime::ZERO + HORIZON);
    sim.clear_scheduler();

    let stuck = sim.live_tasks();
    let metrics = sim.metrics();
    let family = family(&cluster, &metrics);

    let mut violations: Vec<String> = Vec::new();
    if stuck > 0 {
        violations.push(format!("stuck: {stuck} task(s) still live at the horizon"));
    }
    violations.extend(cluster.history_violations());
    let balances: Vec<(u64, Option<i64>)> = (0..scope.objects)
        .map(|o| (o, cluster.committed_int(ObjectId(o))))
        .collect();
    violations.extend(
        check_balances(&balances, INITIAL_BALANCE * scope.objects as i64)
            .iter()
            .map(ToString::to_string),
    );
    violations.extend(
        cluster
            .batch_atomicity_violations()
            .into_iter()
            .map(|v| format!("batch atomicity broken: {v}")),
    );
    // Durability no-regress: every write version acked to a client must
    // still be committed state after any crash and takeover.
    let acked = cluster.acked_write_versions();
    violations.extend(
        check_durability(&acked, |oid| cluster.committed_version(ObjectId(oid)))
            .iter()
            .map(ToString::to_string),
    );
    violations.extend(family.violations);

    let mut fp = Fnv::new();
    for word in family.fingerprint {
        fp.write(word);
    }
    fp.write(metrics.sent_total);
    fp.write(metrics.events);
    for (o, b) in &balances {
        fp.write(*o);
        fp.write(b.map_or(u64::MAX, |b| b as u64));
    }
    for (o, v) in &acked {
        fp.write(*o);
        fp.write(*v);
    }

    let rec = rec.borrow();
    RunOutcome {
        choices: rec.choices.clone(),
        groups: rec.groups.clone(),
        commits: family.commits,
        aborts: family.aborts,
        violations,
        fingerprint: fp.finish(),
    }
}

/// QR-family schedule: the shared battery plus the structural
/// nesting/checkpoint assertions over the engine-event stream.
fn run_qr_schedule(scope: &Scope, mode: NestingMode, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    let cfg = DtmConfig {
        nodes: scope.nodes,
        mode,
        seed: scope.seed,
        // Constant latency maximizes same-instant ties — every fan-out's
        // arrivals land together, so the scheduler actually gets choices.
        latency: LatencySpec::Const(SimDuration::from_millis(1)),
        backoff_base: SimDuration::from_millis(1),
        backoff_max: SimDuration::from_millis(8),
        // Checkpoint on every data-set growth step so QR-CHK runs exercise
        // the checkpoint/restore assertions even at this tiny scale.
        chk_threshold: 1,
        injected_bug: match scope.injected_bug {
            Some(McBug::Qr(b)) => Some(b),
            _ => None,
        },
        ..DtmConfig::default()
    };
    let cluster = Rc::new(Cluster::new(cfg));
    cluster.sim().record_engine_events(true);
    drive(
        scope,
        policy,
        cluster,
        |cluster| {
            for (node, from, to, amount) in transfers(scope) {
                spawn_transfer(cluster, node, from, to, amount);
            }
        },
        |cluster, metrics| {
            let stats = cluster.stats();
            let partial_aborts = stats.ct_aborts + stats.chk_rollbacks;
            let mut structural = check_abort_targets(&metrics.engine_event_log);
            structural.extend(check_checkpoint_restores(&metrics.engine_event_log));
            Family {
                commits: stats.commits,
                aborts: stats.root_aborts + partial_aborts,
                fingerprint: vec![stats.commits, stats.root_aborts, partial_aborts],
                violations: structural.iter().map(ToString::to_string).collect(),
            }
        },
    )
}

/// Q-Store schedule: same workload as flat read-modify-write transfers
/// retrying on requeue, where the battery's batch-atomicity check bites (no
/// commit may observe state from an unacknowledged or later epoch). Tight
/// timeouts and constant latency keep every fan-out a real tie group for
/// the scheduler.
fn run_qstore_schedule(scope: &Scope, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    let cfg = QStoreConfig {
        nodes: scope.nodes,
        seed: scope.seed,
        // Constant latency maximizes same-instant ties, exactly as in the
        // QR scope.
        latency: LatencySpec::Const(SimDuration::from_millis(1)),
        service_time: SimDuration::from_micros(50),
        // A small batch plus a short epoch timeout puts batch boundaries
        // inside the contended window, so seals race with reads.
        batch_size: 4,
        epoch_timeout: SimDuration::from_millis(2),
        poll_initial: SimDuration::from_millis(2),
        poll_interval: SimDuration::from_millis(1),
        rpc_timeout: SimDuration::from_millis(30),
        backoff: SimDuration::from_millis(1),
        wal_cost: SimDuration::from_micros(100),
        transfer_cost: SimDuration::from_millis(1),
        // Real per-replica batch WALs, so the planner-crash step below is
        // an honest amnesiac restart and the durability checker bites.
        durability: Some(qrdtm_core::DurabilityConfig::default()),
        detector: None,
        injected_bug: match scope.injected_bug {
            Some(McBug::QStore(b)) => Some(b),
            _ => None,
        },
    };
    let spawn = |cluster: &Rc<QStoreCluster>| {
        let sim = cluster.sim();
        for (node, from, to, amount) in transfers(scope) {
            let c = Rc::clone(cluster);
            sim.spawn(async move { transfer(&*c, node, from, to, amount).await });
        }
        // The ack-before-fsync bug is only observable through a crash: the
        // buggy planner reports an epoch committed the moment it is sealed,
        // so killing it with amnesia as soon as the first commit is visible
        // lands inside the ack-vs-fsync window — the epoch clients already
        // saw acknowledged dies with the planner's volatile log, and the
        // durability/balance checkers catch the regression. A fixed planner
        // never acks before the quorum's fsyncs, so the same crash loses
        // nothing.
        if scope.injected_bug == Some(McBug::QStore(QStoreBug::AckBeforeFsync)) {
            let c = Rc::clone(cluster);
            let s = sim.clone();
            sim.spawn(async move {
                while c.stats().commits == 0 {
                    s.sleep(SimDuration::from_micros(200)).await;
                }
                if c.crash_node_amnesia(NodeId(0)) {
                    s.sleep(SimDuration::from_millis(20)).await;
                    c.recover_crashed_node(NodeId(0));
                }
            });
        }
    };
    drive(
        scope,
        policy,
        Rc::new(QStoreCluster::new(cfg)),
        spawn,
        |cluster, _| {
            let stats = cluster.stats();
            let (wal_records, wal_fsyncs) = cluster.wal_totals();
            Family {
                commits: stats.commits,
                aborts: stats.aborts,
                fingerprint: vec![
                    stats.commits,
                    stats.aborts,
                    stats.batches,
                    stats.batch_txns,
                    wal_records,
                    wal_fsyncs,
                ],
                violations: Vec::new(),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_label_round_trips_through_its_table() {
        for (proto, label, trace_label) in McProto::ALL {
            assert_eq!(McProto::from_label(label), Some(proto));
            assert_eq!(proto.label(), label);
            assert_eq!(McProto::from_trace_label(trace_label), Some(proto));
            assert_eq!(proto.trace_label(), trace_label);
        }
        for (bug, label) in McBug::ALL {
            assert_eq!(McBug::parse_bug(label), Some(bug));
            assert_eq!(bug.label(), label);
        }
        // Every variant has a row (`label()` panics on one left out).
        for mode in NestingMode::ALL {
            McProto::Qr(mode).label();
        }
        McProto::QStore.label();
        for bug in [InjectedBug::SkipVoteCheck, InjectedBug::SkipEpochFence] {
            McBug::Qr(bug).label();
        }
        for bug in [QStoreBug::SkipTagCheck, QStoreBug::AckBeforeFsync] {
            McBug::QStore(bug).label();
        }
        assert_eq!(McProto::from_label("QR-CN"), None, "spellings stay apart");
        assert_eq!(McProto::from_trace_label("qr-cn"), None);
    }
}
