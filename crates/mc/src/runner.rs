//! One schedule = one deterministic simulation run under a pick policy.
//!
//! The runner builds a small contended cluster (the exploration [`Scope`]),
//! installs a recording [`qrdtm_sim::Scheduler`] that delegates tie-breaks
//! to a [`ChoicePolicy`](crate::ChoicePolicy), drives the workload to
//! completion, and then runs the full invariant battery: the nemesis's
//! [`qrdtm_chaos::audit`] (history serializability, balance conservation,
//! durability no-regress) and the structural nesting/checkpoint assertions
//! from [`qrdtm_core::check_abort_targets`] /
//! [`qrdtm_core::check_checkpoint_restores`].

use std::cell::RefCell;
use std::rc::Rc;

use qrdtm_chaos::{audit, ChaosTarget, Proto};
use qrdtm_core::{
    check_abort_targets, check_checkpoint_restores, crash, recover, Cluster, DtmConfig,
    InjectedBug, LatencySpec, Membership, NestingMode, ObjVal, ObjectId,
};
use qrdtm_qstore::{QStoreBug, QStoreCluster, QStoreConfig};
use qrdtm_sim::{fnv, EventInfo, Metrics, NodeId, Scheduler, SimDuration, SimTime};
use qrdtm_workloads::protocol_bank::transfer;

use crate::strategies::ChoicePolicy;

/// Balance preloaded into every account object at the start of a run.
pub const INITIAL_BALANCE: i64 = 1000;

/// Virtual-time horizon for one schedule run. The workload finishes in a
/// few hundred simulated milliseconds when healthy; a task still live at
/// the horizon is reported as a stuck-run violation.
const HORIZON: SimDuration = SimDuration::from_secs(300);

/// A deliberately broken protocol variant, used to validate that the
/// checkers can actually catch protocol bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McBug {
    /// A QR-family bug (`skip-vote-check` / `skip-epoch-fence`).
    Qr(InjectedBug),
    /// A Q-Store bug (`skip-tag-check` / `ignore-open-epoch` /
    /// `ack-before-fsync`).
    QStore(QStoreBug),
}

impl McBug {
    /// Every injectable bug with its label — the spelling
    /// `repro mc --inject-bug` and a trace file's `bug` line share.
    pub const ALL: [(McBug, &'static str); 5] = [
        (McBug::Qr(InjectedBug::SkipVoteCheck), "skip-vote-check"),
        (McBug::Qr(InjectedBug::SkipEpochFence), "skip-epoch-fence"),
        (McBug::QStore(QStoreBug::SkipTagCheck), "skip-tag-check"),
        (
            McBug::QStore(QStoreBug::IgnoreOpenEpoch),
            "ignore-open-epoch",
        ),
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
    /// Protocol family under test; one with a membership view.
    pub proto: Proto,
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
    pub fn smoke(proto: Proto) -> Self {
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
    /// build: a family with a membership view, at least one node (three
    /// for Q-Store, whose majority needs them), two objects (a transfer
    /// needs distinct accounts) and one transaction. The error names the
    /// field.
    pub fn check(&self) -> Result<(), String> {
        let label = self.proto.label();
        if !self.proto.has_view() {
            return Err(format!("proto {label} keeps no membership view to explore"));
        }
        let min_nodes = if self.proto == Proto::QStore { 3 } else { 1 };
        let fields = [
            ("nodes", self.nodes as u64, min_nodes),
            ("objects", self.objects, 2),
            ("txns", self.txns as u64, 1),
        ];
        match fields.into_iter().find(|&(_, value, min)| value < min) {
            Some((name, _, min)) => Err(format!("{name} must be at least {min} for {label}")),
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
/// the other modes run the bank's own [`transfer`] (QR-CHK still
/// checkpoints its accesses, `chk_threshold` is 1 in this scope).
fn spawn_transfer(cluster: &Rc<Cluster>, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
    if cluster.config().mode != NestingMode::Closed {
        let c = Rc::clone(cluster);
        cluster
            .sim()
            .spawn(async move { transfer(&*c, node, from, to, amount).await });
        return;
    }
    let client = cluster.client(node);
    cluster.sim().spawn(async move {
        client
            .run(|tx| async move {
                tx.closed(|tx| async move {
                    let v = tx.read(from).await?.expect_int();
                    tx.write(from, ObjVal::Int(v - amount)).await
                })
                .await?;
                tx.closed(|tx| async move {
                    let v = tx.read(to).await?.expect_int();
                    tx.write(to, ObjVal::Int(v + amount)).await
                })
                .await
            })
            .await;
    });
}

/// Run one schedule of the scope's workload under `policy` and check every
/// invariant. Deterministic: the same scope and the same effective choices
/// always produce the same [`RunOutcome`].
pub fn run_schedule(scope: &Scope, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    match scope.proto {
        Proto::Qr(mode) => run_qr_schedule(scope, mode, policy),
        Proto::QStore => run_qstore_schedule(scope, policy),
        Proto::Tfa | Proto::Decent => panic!("{}", scope.check().unwrap_err()),
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
/// the workload, run to the horizon, then the [`audit`] every family
/// shares and the fingerprint — the family's words, then message and event
/// totals, final balances and acknowledged versions.
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

    let metrics = sim.metrics();
    let family = family(&cluster, &metrics);
    let audit = audit(&*cluster, scope.objects, INITIAL_BALANCE);
    let mut violations: Vec<String> = audit.violations.iter().map(ToString::to_string).collect();
    violations.extend(family.violations);

    let fingerprint = fnv(family
        .fingerprint
        .into_iter()
        .chain([metrics.sent_total, metrics.events])
        .chain(
            audit
                .balances
                .iter()
                .flat_map(|&(o, b)| [o, b.map_or(u64::MAX, |b| b as u64)]),
        )
        .chain(audit.acked.iter().flat_map(|&(o, v)| [o, v])));

    let rec = rec.borrow();
    RunOutcome {
        choices: rec.choices.clone(),
        groups: rec.groups.clone(),
        commits: family.commits,
        aborts: family.aborts,
        violations,
        fingerprint,
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
        rpc_timeout: SimDuration::from_millis(30),
        backoff: SimDuration::from_millis(1),
        wal_cost: SimDuration::from_micros(100),
        transfer_cost: SimDuration::from_millis(1),
        // Real per-replica batch WALs, so the planner-crash step below is
        // an honest amnesiac restart and the durability checker bites.
        durability: Some(qrdtm_core::DurabilityConfig::default()),
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
                if crash(&*c, &s, NodeId(0)) {
                    c.forget(NodeId(0));
                    s.sleep(SimDuration::from_millis(20)).await;
                    recover(&*c, &s, NodeId(0));
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
    fn every_bug_label_round_trips_through_its_table() {
        for (bug, label) in McBug::ALL {
            assert_eq!(McBug::parse_bug(label), Some(bug));
            assert_eq!(bug.label(), label);
        }
        // Every variant has a row (`label()` panics on one left out).
        for bug in [InjectedBug::SkipVoteCheck, InjectedBug::SkipEpochFence] {
            McBug::Qr(bug).label();
        }
        for bug in [
            QStoreBug::SkipTagCheck,
            QStoreBug::IgnoreOpenEpoch,
            QStoreBug::AckBeforeFsync,
        ] {
            McBug::QStore(bug).label();
        }
    }

    #[test]
    fn scopes_without_a_view_are_refused() {
        for proto in [Proto::Tfa, Proto::Decent] {
            let err = Scope::smoke(proto).check().unwrap_err();
            assert!(err.contains("no membership view"), "{err}");
        }
    }
}
