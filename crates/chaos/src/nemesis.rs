//! The nemesis: drives a bank workload on any [`ChaosTarget`] while
//! injecting a [`FaultPlan`] at virtual-time offsets, then runs the
//! checkers.
//!
//! A run has four phases, all in virtual time:
//!
//! 1. **Plan window** (`spec.horizon`): closed-loop bank clients run on
//!    every node while the nemesis applies plan events at their offsets.
//! 2. **Heal-all**: at the horizon every remaining fault is cured
//!    (crashed nodes recovered, partition healed, link faults cleared,
//!    slow nodes restored) — generated plans cure their own faults, but
//!    hand-written or shrunken plans need the backstop.
//! 3. **Recovery tail** (`spec.recovery`): clients keep running on the
//!    healed cluster, so the liveness checker can observe re-convergence.
//! 4. **Drain**: clients are told to stop after their current
//!    transaction and the simulator runs to quiescence (bounded by
//!    `DRAIN`, 60 s); only then is committed state snapshotted, so the
//!    safety checkers never see a mid-2PC cut.
//!
//! Everything derives from the target's simulator seed plus the plan, so
//! a `(config, seed, plan)` triple replays bit-identically —
//! [`ChaosReport::fingerprint`] makes that checkable.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use qrdtm_core::{crash_sim_only, recover_sim_only, Membership, ObjVal, ObjectId};
use qrdtm_sim::{EngineEventKind, NodeId, Sim, SimDuration};
use qrdtm_workloads::open_loop::{spawn_open_loop, LoadControl, LoadTallies, OpenLoopSpec};
use qrdtm_workloads::protocol_bank::random_op;

use crate::checkers::{
    check_balances, check_detection_latency, check_durability, check_goodput_reconvergence,
    check_liveness, check_retry_storm, ChaosViolation, Sample,
};
use crate::plan::{FaultKind, FaultPlan};
use crate::target::ChaosTarget;

/// Percentage of read-only audits in the closed-loop mix (one client per
/// node).
const READ_PCT: u32 = 40;
/// Initial balance per account (conservation invariant base).
const INITIAL_BALANCE: i64 = 1_000;
/// Upper bound on the post-stop drain to quiescence.
const DRAIN: SimDuration = SimDuration::from_secs(60);
/// Monitor sampling interval.
const PROBE: SimDuration = SimDuration::from_millis(200);
/// Grace after a fault clears before liveness is judged.
const QUIET_GRACE: SimDuration = SimDuration::from_millis(700);
/// Minimum quiet span that must contain a commit.
const PROGRESS_WINDOW: SimDuration = SimDuration::from_millis(1_200);

/// Shape of a nemesis run (workload size and phase lengths).
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Number of bank accounts.
    pub accounts: u64,
    /// Plan window: fault offsets beyond this are clamped to heal-all time.
    pub horizon: SimDuration,
    /// Healthy tail after heal-all, for re-convergence checking.
    pub recovery: SimDuration,
    /// Detector mode: no oracle — crashes and recoveries touch the
    /// simulator only, the target's failure detector must notice on its
    /// own, and extra checkers assert bounded detection latency and
    /// post-heal membership convergence. Requires a detector-capable
    /// target (a QR cluster built with `DtmConfig::detector` set).
    pub detector: bool,
    /// Overload mode: replace the closed-loop clients with the open-loop
    /// traffic generator (arrivals independent of completion), making the
    /// `surge`/`flash-crowd`/`calm` plan verbs applicable and arming the
    /// goodput re-convergence checker. The generator's `accounts` is
    /// overridden by this spec's, so the balance checkers stay exact.
    pub overload: Option<OpenLoopSpec>,
    /// Metastability tolerance: post-surge goodput must recover to at
    /// least `100 / reconverge_factor_pct` of the pre-surge baseline.
    pub reconverge_factor_pct: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            accounts: 16,
            horizon: SimDuration::from_secs(4),
            recovery: SimDuration::from_secs(3),
            detector: false,
            overload: None,
            reconverge_factor_pct: 300,
        }
    }
}

impl ChaosSpec {
    /// A short configuration for smoke tests: same mix, ~2s of faults.
    pub fn smoke() -> Self {
        ChaosSpec {
            accounts: 12,
            horizon: SimDuration::from_secs(2),
            recovery: SimDuration::from_secs(2),
            ..ChaosSpec::default()
        }
    }
}

/// Deterministic digest of a run; equal inputs must produce equal
/// fingerprints (the nemesis determinism property).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Messages sent.
    pub sent_total: u64,
    /// Simulator events executed.
    pub events: u64,
    /// Virtual end time, nanoseconds.
    pub end_ns: u64,
}

/// Outcome of one nemesis run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Committed transactions over the whole run.
    pub commits: u64,
    /// Aborted attempts over the whole run.
    pub aborts: u64,
    /// Events in the plan the run was given.
    pub plan_events: usize,
    /// Plan events actually applied.
    pub applied: usize,
    /// Plan events skipped (unsupported by the target, out of range, or
    /// inapplicable — e.g. crashing the last quorum member).
    pub skipped: usize,
    /// Human-readable nemesis actions, in order.
    pub fault_log: Vec<String>,
    /// Messages dropped at dead nodes.
    pub dropped: u64,
    /// Messages dropped by the partition.
    pub dropped_by_partition: u64,
    /// Messages dropped by per-link loss faults.
    pub dropped_by_link: u64,
    /// Whether the run quiesced within the drain bound.
    pub drained: bool,
    /// Invariant violations found (empty = verdict OK).
    pub violations: Vec<ChaosViolation>,
    /// Determinism digest.
    pub fingerprint: Fingerprint,
    /// Final view epoch (0 for targets without a reconfigurable view).
    pub view_epoch: u64,
    /// Full simulator metrics at the end of the run — detector/transport
    /// counters (heartbeats, suspicions, retries, hedges) and, since
    /// engine-event recording is on, the complete engine-event log with
    /// suspicion/rejoin timestamps.
    pub metrics: qrdtm_sim::Metrics,
}

impl ChaosReport {
    /// Whether every checked invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line summary `repro chaos` prints per run (minus the
    /// CLI-level `[proto seed nodes]` prefix): plan/application counts,
    /// workload counters, drop tallies, recovery counters (WAL replays,
    /// torn tails dropped, repair rounds and repaired objects — nonzero
    /// only under amnesia faults), drain status and the verdict. Shared
    /// by the CLI and the plan round-trip snapshot test, so "replaying a
    /// saved plan reproduces the identical line" is a stable, testable
    /// contract.
    pub fn summary_line(&self) -> String {
        format!(
            "plan={:>2}ev applied={:>2} skipped={} commits={:>5} aborts={:>4} \
             dropped dead:{} part:{} link:{} \
             recovery replay:{} torn:{} rounds:{} repaired:{} \
             overload shed:{} deadline:{} budget:{} retries:{} wasted:{} drained={} => {}",
            self.plan_events,
            self.applied,
            self.skipped,
            self.commits,
            self.aborts,
            self.dropped,
            self.dropped_by_partition,
            self.dropped_by_link,
            self.metrics.log_replays,
            self.metrics.torn_tails,
            self.metrics.repair_rounds,
            self.metrics.repaired_objects,
            self.metrics.admission_shed,
            self.metrics.deadline_aborts,
            self.metrics.retry_budget_exhausted,
            self.metrics.client_retries,
            self.metrics.wasted_retries,
            if self.drained { "yes" } else { "NO" },
            if self.ok() { "OK" } else { "VIOLATION" },
        )
    }
}

#[derive(Default)]
struct NemesisState {
    crashed: BTreeSet<u32>,
    partitioned: bool,
    links: BTreeSet<(u32, u32)>,
    slowed: BTreeSet<u32>,
    surged: bool,
    flashed: bool,
    applied: usize,
    skipped: usize,
    log: Vec<String>,
}

impl NemesisState {
    fn quiet(&self) -> bool {
        self.crashed.is_empty()
            && !self.partitioned
            && self.links.is_empty()
            && self.slowed.is_empty()
            && !self.surged
            && !self.flashed
    }
}

/// Run `plan` against a freshly constructed protocol cluster under the
/// bank workload and return the checked report. The cluster must be
/// new — preloading and history recording happen here.
pub fn run_plan<P: ChaosTarget + 'static>(
    proto: Rc<P>,
    nodes: usize,
    spec: &ChaosSpec,
    plan: &FaultPlan,
) -> ChaosReport {
    assert!(nodes >= 2, "chaos needs at least two nodes");
    let sim = proto.sim().clone();
    sim.record_engine_events(true);
    for i in 0..spec.accounts {
        proto.preload(ObjectId(i), ObjVal::Int(INITIAL_BALANCE));
    }
    proto.begin_history();

    // Detector mode: start the target's failure detector — the nemesis
    // will then touch the SIMULATOR only and never call the view oracle.
    let detector = spec.detector.then(|| {
        Rc::clone(&proto)
            .start_detector()
            .expect("detector mode requires a detector-capable target (set DtmConfig::detector)")
    });

    let stop = Rc::new(Cell::new(false));
    let state = Rc::new(RefCell::new(NemesisState::default()));

    // Workload: either the open-loop traffic generator (overload mode —
    // arrivals keep coming whether or not the cluster keeps up, and the
    // surge/flash-crowd verbs steer them) or closed-loop bank clients.
    let load: Option<(Rc<LoadControl>, Rc<LoadTallies>)> = if let Some(ospec) = spec.overload {
        let control = Rc::new(LoadControl::default());
        let tallies = Rc::new(LoadTallies::default());
        spawn_open_loop(
            &proto,
            nodes,
            OpenLoopSpec {
                accounts: spec.accounts,
                ..ospec
            },
            Rc::clone(&control),
            Rc::clone(&tallies),
            Rc::clone(&stop),
        );
        Some((control, tallies))
    } else {
        // One client per node; a client whose node is down idles until it
        // comes back (a crashed node runs no workload).
        for node in 0..nodes as u32 {
            let p = Rc::clone(&proto);
            let stop = Rc::clone(&stop);
            let s = sim.clone();
            let accounts = spec.accounts;
            sim.spawn(async move {
                while !stop.get() {
                    if !s.is_alive(NodeId(node)) {
                        s.sleep(PROBE).await;
                        continue;
                    }
                    random_op(&*p, NodeId(node), accounts, READ_PCT, |n| s.rand_below(n)).await;
                }
            });
        }
        None
    };

    // Progress monitor for the liveness and re-convergence checkers.
    let samples: Rc<RefCell<Vec<Sample>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let p = Rc::clone(&proto);
        let stop = Rc::clone(&stop);
        let st = Rc::clone(&state);
        let out = Rc::clone(&samples);
        let tallies = load.as_ref().map(|(_, t)| Rc::clone(t));
        let s = sim.clone();
        sim.spawn(async move {
            while !stop.get() {
                let commits = p.protocol_stats().commits;
                out.borrow_mut().push(Sample {
                    at_ns: s.now().as_nanos(),
                    commits,
                    // Closed-loop runs have no deadlines: every commit is
                    // good by definition.
                    goodput: tallies.as_ref().map_or(commits, |t| t.goodput.get()),
                    quiet: st.borrow().quiet(),
                });
                s.sleep(PROBE).await;
            }
        });
    }

    // The nemesis itself: apply events at their offsets, heal everything
    // at the horizon.
    {
        let p = Rc::clone(&proto);
        let st = Rc::clone(&state);
        let s = sim.clone();
        let plan = plan.clone();
        let horizon = spec.horizon;
        let n = nodes as u32;
        let det_mode = spec.detector;
        let control = load.as_ref().map(|(c, _)| Rc::clone(c));
        sim.spawn(async move {
            let t0 = s.now();
            for ev in plan.events {
                let due = t0 + ev.at.min(horizon);
                if due > s.now() {
                    s.sleep(due - s.now()).await;
                }
                apply_event(
                    &*p,
                    &s,
                    &mut st.borrow_mut(),
                    ev.kind,
                    n,
                    det_mode,
                    control.as_deref(),
                );
            }
            let heal_at = t0 + horizon;
            if heal_at > s.now() {
                s.sleep(heal_at - s.now()).await;
            }
            heal_all(&*p, &s, &mut st.borrow_mut(), det_mode, control.as_deref());
        });
    }

    sim.run_for(spec.horizon + spec.recovery);
    // Detector-mode convergence is judged while the detector still runs —
    // by the end of the recovery tail the view must agree with the network
    // about every node. Then stop the detector so the drain can quiesce.
    let mut violations = Vec::new();
    if let Some(view) = proto.membership().filter(|_| spec.detector) {
        for node in (0..nodes as u32).map(NodeId) {
            let net_alive = sim.is_alive(node);
            if net_alive != view.view_alive(node) {
                violations.push(ChaosViolation::MembershipDiverged {
                    node: node.0,
                    net_alive,
                });
            }
        }
    }
    if let Some(h) = &detector {
        h.stop();
    }
    stop.set(true);
    sim.run_for(DRAIN);
    let drained = sim.live_tasks() == 0;

    // Post-hoc checks, only on quiescent state — a cut through an
    // in-flight 2PC is not a committed snapshot.
    if drained {
        let balances: Vec<(u64, Option<i64>)> = (0..spec.accounts)
            .map(|i| (i, proto.committed_int(ObjectId(i))))
            .collect();
        violations.extend(check_balances(
            &balances,
            INITIAL_BALANCE * spec.accounts as i64,
        ));
        // Durability: no write acknowledged to a client may be missing
        // from committed state, no matter how many amnesiac restarts or
        // torn tails the plan inflicted.
        violations.extend(check_durability(&proto.acked_write_versions(), |oid| {
            proto.committed_version(ObjectId(oid))
        }));
    } else {
        violations.push(ChaosViolation::Stuck {
            live_tasks: sim.live_tasks(),
        });
    }
    violations.extend(
        proto
            .history_violations()
            .into_iter()
            .map(ChaosViolation::History),
    );
    violations.extend(
        proto
            .batch_atomicity_violations()
            .into_iter()
            .map(ChaosViolation::BatchAtomicity),
    );
    violations.extend(check_liveness(
        &samples.borrow(),
        QUIET_GRACE,
        PROGRESS_WINDOW,
    ));
    if spec.overload.is_some() {
        // Metastability: after the surge ends, within-deadline goodput
        // must re-converge toward its pre-surge baseline.
        violations.extend(check_goodput_reconvergence(
            &samples.borrow(),
            QUIET_GRACE,
            spec.reconverge_factor_pct,
        ));
    }

    let m = sim.metrics();
    if let Some((cap, refill, drip)) = proto.retry_budget() {
        // No retry storm: clients cannot have drawn more retry tokens
        // than the budget could supply over the run.
        violations.extend(check_retry_storm(
            m.client_retries,
            cap,
            refill,
            proto.protocol_stats().commits,
            sim.now().saturating_since(qrdtm_sim::SimTime::ZERO),
            drip,
        ));
    }
    if spec.detector {
        if let Some(bound) = proto.detection_bound() {
            violations.extend(check_detection_latency(&m.engine_event_log, bound));
        }
    }
    let stats = proto.protocol_stats();
    let st = state.borrow();
    ChaosReport {
        commits: stats.commits,
        aborts: stats.aborts,
        plan_events: plan.len(),
        applied: st.applied,
        skipped: st.skipped,
        fault_log: st.log.clone(),
        dropped: m.dropped,
        dropped_by_partition: m.dropped_by_partition,
        dropped_by_link: m.dropped_by_link,
        drained,
        violations,
        fingerprint: Fingerprint {
            commits: stats.commits,
            aborts: stats.aborts,
            sent_total: m.sent_total,
            events: m.events,
            end_ns: sim.now().as_nanos(),
        },
        view_epoch: proto.membership().map_or(0, |m| m.view_epoch()),
        metrics: m,
    }
}

/// Whether a target with this membership view may be subjected to `kind`.
///
/// Cures and gray faults (slow nodes, latency spikes) violate no
/// assumption of any protocol, so they are always allowed. Crashes,
/// partitions and lossy links need a view to reconfigure: the paper is
/// explicit that the baselines keep none (TFA has single-copy home nodes;
/// Decent-STM as modelled has no recovery protocol), so subjecting them
/// would only reconfirm their stated assumptions. Amnesia and log
/// corruption need a durable view, with a disk to restart from.
fn supports(kind: &FaultKind, view: Option<&dyn Membership>) -> bool {
    match kind {
        FaultKind::Crash { .. }
        | FaultKind::CrashReadQuorum
        | FaultKind::Partition { .. }
        | FaultKind::DropLink { .. } => view.is_some(),
        FaultKind::CrashAmnesia { .. } | FaultKind::CorruptTail { .. } => {
            view.is_some_and(|v| v.durable())
        }
        _ => true,
    }
}

fn apply_event<P: ChaosTarget>(
    p: &P,
    s: &Sim<P::Msg>,
    st: &mut NemesisState,
    kind: FaultKind,
    nodes: u32,
    detector: bool,
    load: Option<&LoadControl>,
) {
    let view = p.membership();
    let now_us = s.now().as_nanos() / 1_000;
    if !supports(&kind, view) {
        st.skipped += 1;
        st.log
            .push(format!("@{now_us}us skip (unsupported): {kind}"));
        return;
    }
    // Detector mode swaps the view's oracle verbs (which repair the view at
    // the instant of the fault) for sim-only ones: the target's own failure
    // detector must notice the silence and react. `supports` admits node
    // faults only for a target with a view, and only a crashed node is
    // recovered.
    let v = || view.expect("node faults need a membership view");
    let crash = |n: NodeId| {
        if detector {
            crash_sim_only(v(), s, n)
        } else {
            v().crash(n)
        }
    };
    let recover = |n: NodeId| {
        if detector {
            recover_sim_only(s, n)
        } else {
            v().recover(n)
        }
    };
    let mut applied_on: Option<NodeId> = None;
    match &kind {
        FaultKind::Crash { node } => {
            if *node < nodes && !st.crashed.contains(node) && crash(NodeId(*node)) {
                st.crashed.insert(*node);
                applied_on = Some(NodeId(*node));
            }
        }
        FaultKind::CrashReadQuorum => {
            if let Some(victim) = p.read_quorum_victim() {
                if crash(victim) {
                    st.crashed.insert(victim.0);
                    applied_on = Some(victim);
                }
            }
        }
        FaultKind::Recover { node } => {
            if st.crashed.contains(node) && recover(NodeId(*node)) {
                st.crashed.remove(node);
                applied_on = Some(NodeId(*node));
            }
        }
        FaultKind::Partition { groups } => {
            let mapped: Vec<Vec<NodeId>> = groups
                .iter()
                .map(|g| {
                    g.iter()
                        .filter(|&&n| n < nodes)
                        .map(|&n| NodeId(n))
                        .collect::<Vec<_>>()
                })
                .filter(|g: &Vec<NodeId>| !g.is_empty())
                .collect();
            if mapped.len() >= 2 || (mapped.len() == 1 && (mapped[0].len() as u32) < nodes) {
                s.set_partition(&mapped);
                st.partitioned = true;
                applied_on = Some(NodeId(0));
            }
        }
        FaultKind::Heal => {
            s.heal_partition();
            st.partitioned = false;
            applied_on = Some(NodeId(0));
        }
        FaultKind::DropLink { from, to, permille } => {
            if *from < nodes && *to < nodes && from != to && *permille > 0 {
                s.set_link_drop(NodeId(*from), NodeId(*to), *permille);
                st.links.insert((*from, *to));
                applied_on = Some(NodeId(*from));
            }
        }
        FaultKind::Delay { from, to, extra_us } => {
            if *from < nodes && *to < nodes && from != to && *extra_us > 0 {
                s.set_link_delay(
                    NodeId(*from),
                    NodeId(*to),
                    SimDuration::from_micros(*extra_us),
                );
                st.links.insert((*from, *to));
                applied_on = Some(NodeId(*from));
            }
        }
        FaultKind::HealLink { from, to } => {
            if *from < nodes && *to < nodes {
                s.clear_link_fault(NodeId(*from), NodeId(*to));
                st.links.remove(&(*from, *to));
                applied_on = Some(NodeId(*from));
            }
        }
        FaultKind::Slow { node, factor_pct } => {
            if *node < nodes && *factor_pct > 0 {
                s.set_service_factor(NodeId(*node), f64::from(*factor_pct) / 100.0);
                st.slowed.insert(*node);
                applied_on = Some(NodeId(*node));
            }
        }
        FaultKind::Restore { node } => {
            if *node < nodes {
                s.set_service_factor(NodeId(*node), 1.0);
                st.slowed.remove(node);
                applied_on = Some(NodeId(*node));
            }
        }
        FaultKind::CrashAmnesia { node } => {
            // The mode's crash, then the loss of volatile state. Joins
            // st.crashed like a plain crash, so Recover (and the heal-all
            // backstop) cures it the same way; the amnesiac readmission
            // path runs the honest replay+repair.
            if *node < nodes && !st.crashed.contains(node) && crash(NodeId(*node)) {
                v().forget(NodeId(*node));
                st.crashed.insert(*node);
                applied_on = Some(NodeId(*node));
            }
        }
        FaultKind::CorruptTail { node } => {
            if *node < nodes && !st.crashed.contains(node) && v().corrupt_tail(NodeId(*node)) {
                applied_on = Some(NodeId(*node));
            }
        }
        // The overload verbs act on the open-loop traffic generator, not
        // the protocol — without one (closed-loop run) they are
        // inapplicable and skipped.
        FaultKind::Surge { factor_pct } => {
            if let Some(l) = load {
                if *factor_pct > 0 {
                    l.surge_pct.set(*factor_pct);
                    st.surged = *factor_pct != 100;
                    applied_on = Some(NodeId(0));
                }
            }
        }
        FaultKind::FlashCrowd { node } => {
            if *node < nodes {
                if let Some(l) = load {
                    l.flash_node.set(Some(*node));
                    st.flashed = true;
                    applied_on = Some(NodeId(*node));
                }
            }
        }
        FaultKind::Calm => {
            if let Some(l) = load {
                l.calm();
                st.surged = false;
                st.flashed = false;
                applied_on = Some(NodeId(0));
            }
        }
    }
    match applied_on {
        Some(n) => {
            st.applied += 1;
            st.log.push(format!("@{now_us}us {kind}"));
            s.emit_engine_event(EngineEventKind::FaultInjected, n, kind.code());
        }
        None => {
            st.skipped += 1;
            st.log
                .push(format!("@{now_us}us skip (inapplicable): {kind}"));
        }
    }
}

/// Cure everything still active: the backstop that guarantees the
/// recovery tail and the final snapshot run on a healthy cluster.
fn heal_all<P: ChaosTarget>(
    p: &P,
    s: &Sim<P::Msg>,
    st: &mut NemesisState,
    detector: bool,
    load: Option<&LoadControl>,
) {
    for node in std::mem::take(&mut st.crashed).into_iter().map(NodeId) {
        if detector {
            recover_sim_only(s, node);
        } else {
            p.membership()
                .expect("only a target with a view has crashed nodes")
                .recover(node);
        }
    }
    s.heal_partition();
    st.partitioned = false;
    s.clear_all_link_faults();
    st.links.clear();
    let slowed: Vec<u32> = st.slowed.iter().copied().collect();
    for node in slowed {
        s.set_service_factor(NodeId(node), 1.0);
    }
    st.slowed.clear();
    if let Some(l) = load {
        l.calm();
    }
    st.surged = false;
    st.flashed = false;
    let now_us = s.now().as_nanos() / 1_000;
    st.log.push(format!("@{now_us}us heal-all"));
    s.emit_engine_event(EngineEventKind::FaultInjected, NodeId(0), 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, FaultBudget};
    use qrdtm_baselines::{TfaCluster, TfaConfig};
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("test plan parses")
    }

    fn quick_spec() -> ChaosSpec {
        ChaosSpec {
            accounts: 8,
            horizon: SimDuration::from_millis(1_500),
            recovery: SimDuration::from_millis(1_500),
            ..ChaosSpec::default()
        }
    }

    fn qr(seed: u64) -> Rc<Cluster> {
        Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Closed,
            seed,
            ..Default::default()
        }))
    }

    #[test]
    fn support_follows_from_the_view_and_never_gates_cures() {
        let (memory, durable) = (qr(1), qr_durable(1));
        // No view (the baselines), a memory-only view, a durable view.
        let views: [Option<&dyn Membership>; 3] = [None, Some(&*memory), Some(&*durable)];
        let cases = [
            (FaultKind::Crash { node: 1 }, [false, true, true]),
            (FaultKind::CrashReadQuorum, [false, true, true]),
            (FaultKind::Partition { groups: vec![] }, [false, true, true]),
            (
                FaultKind::DropLink {
                    from: 0,
                    to: 1,
                    permille: 500,
                },
                [false, true, true],
            ),
            (FaultKind::CrashAmnesia { node: 1 }, [false, false, true]),
            (FaultKind::CorruptTail { node: 1 }, [false, false, true]),
            (
                FaultKind::Delay {
                    from: 0,
                    to: 1,
                    extra_us: 1000,
                },
                [true; 3],
            ),
            (
                FaultKind::Slow {
                    node: 1,
                    factor_pct: 300,
                },
                [true; 3],
            ),
            (FaultKind::Heal, [true; 3]),
            (FaultKind::Recover { node: 1 }, [true; 3]),
        ];
        for (kind, want) in cases {
            for (view, want) in views.into_iter().zip(want) {
                assert_eq!(supports(&kind, view), want, "{kind}");
            }
        }
    }

    #[test]
    fn empty_plan_is_a_healthy_run() {
        let r = run_plan(qr(1), 10, &quick_spec(), &FaultPlan::default());
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.drained);
        assert!(r.commits > 0);
        assert_eq!(r.applied, 0);
        assert_eq!(r.dropped_by_partition + r.dropped_by_link, 0);
    }

    #[test]
    fn partitions_and_drops_are_demonstrably_exercised() {
        let plan = plan(
            "@200000us partition 0,1,2,3,4|5,6,7,8,9\n@700000us heal\n\
             @800000us drop 9->0 500\n@1300000us heal-link 9->0",
        );
        let r = run_plan(qr(2), 10, &quick_spec(), &plan);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.applied, 4);
        assert!(r.dropped_by_partition > 0, "partition saw no traffic");
        assert!(r.dropped_by_link > 0, "lossy link saw no traffic");
        // One FaultInjected engine event per applied fault + heal-all.
        assert_eq!(r.metrics.engine_events(EngineEventKind::FaultInjected), 5);
    }

    #[test]
    fn fig10_crash_schedule_runs_and_commits() {
        let plan = FaultPlan::fig10(
            3,
            SimDuration::from_millis(300),
            SimDuration::from_millis(300),
        );
        let r = run_plan(qr(3), 10, &quick_spec(), &plan);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.applied, 3, "all three read-quorum crashes landed");
        assert!(r.commits > 0);
        assert!(r.dropped > 0, "traffic toward the dead quorum was dropped");
    }

    #[test]
    fn unsupported_faults_are_skipped_on_baselines() {
        let plan = plan("@200000us crash 1\n@400000us slow 2 400");
        let tfa = Rc::new(TfaCluster::new(TfaConfig {
            nodes: 10,
            seed: 4,
            ..Default::default()
        }));
        let r = run_plan(tfa, 10, &quick_spec(), &plan);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.skipped, 1, "crash skipped on a non-fault-tolerant target");
        assert_eq!(r.applied, 1, "the gray slow-node fault applied");
    }

    fn qr_detector(seed: u64) -> Rc<Cluster> {
        Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Closed,
            seed,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            detector: Some(qrdtm_core::DetectorConfig::default()),
            ..Default::default()
        }))
    }

    #[test]
    fn detector_mode_self_heals_without_oracle() {
        // Crash and recover touch the simulator only; the detector must
        // eject the victim, the cluster keep committing, and the rejoin
        // happen on its own — all checked by the detector-mode checkers
        // (detection latency, membership convergence) inside run_plan.
        let plan = plan("@300000us crash 1\n@1000000us recover 1");
        let spec = ChaosSpec {
            detector: true,
            ..quick_spec()
        };
        let r = run_plan(qr_detector(5), 10, &spec, &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 2);
        assert!(r.commits > 0);
        assert!(r.metrics.heartbeats_sent > 0, "heartbeat layer ran");
        assert!(r.metrics.suspicions >= 1, "the crash was detected");
        assert!(r.metrics.rejoins >= 1, "the recovery was detected");
        assert!(r.view_epoch >= 2, "eject and rejoin each bumped the epoch");
    }

    #[test]
    fn detector_mode_survives_false_suspicion() {
        // Isolate one node: alive the whole time, but silent across the
        // cut — the detector must (falsely) suspect it, and the run must
        // still conserve balances and serialize.
        let plan = plan("@300000us partition 1|0,2,3,4,5,6,7,8,9\n@1000000us heal");
        let spec = ChaosSpec {
            detector: true,
            ..quick_spec()
        };
        let r = run_plan(qr_detector(6), 10, &spec, &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert!(r.metrics.false_suspicions >= 1, "isolation read as a crash");
        assert!(r.metrics.rejoins >= 1, "heal brought the node back");
        assert!(r.commits > 0);
    }

    fn qr_durable(seed: u64) -> Rc<Cluster> {
        Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Closed,
            seed,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            durability: Some(qrdtm_core::DurabilityConfig::default()),
            ..Default::default()
        }))
    }

    #[test]
    fn amnesia_crash_recovers_durably() {
        let plan =
            plan("@400000us corrupt-tail 2\n@400000us crash-amnesia 2\n@1100000us recover 2");
        let r = run_plan(qr_durable(9), 10, &quick_spec(), &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 3);
        assert!(r.metrics.log_replays >= 1, "restart replayed the WAL");
        assert!(r.metrics.torn_tails >= 1, "the corrupted tail was detected");
        assert!(r.metrics.repair_rounds >= 1, "quorum repair ran");
        assert!(r.commits > 0);
    }

    #[test]
    fn amnesia_is_skipped_without_durable_storage() {
        let plan = plan("@300000us crash-amnesia 1");
        let r = run_plan(qr(10), 10, &quick_spec(), &plan);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.skipped, 1, "memory-only replicas cannot restart");
        assert_eq!(r.applied, 0);
    }

    #[test]
    fn qstore_survives_crashes_and_partitions() {
        use qrdtm_qstore::{QStoreCluster, QStoreConfig};
        // Crash a replica, then the planner (node 0) — the successor must
        // replan from acknowledged state; then cut the cluster in half and
        // heal. Every checker, including batch atomicity, must stay clean.
        let plan = plan(
            "@200000us crash 6\n@400000us crash 0\n@800000us recover 6\n\
             @900000us partition 1,2,3,4,5|0,6,7,8,9\n@1300000us heal",
        );
        let c = Rc::new(QStoreCluster::new(QStoreConfig {
            nodes: 10,
            seed: 11,
            ..Default::default()
        }));
        let r = run_plan(c, 10, &quick_spec(), &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 5);
        assert!(r.commits > 0);
        assert!(r.view_epoch >= 3, "each crash/recovery bumped the epoch");
        assert!(r.dropped_by_partition > 0, "partition saw no traffic");
    }

    #[test]
    fn qstore_amnesia_crash_recovers_durably() {
        use qrdtm_qstore::{QStoreCluster, QStoreConfig};
        // Torn-tail + amnesiac restart of a replica, then an amnesiac
        // planner crash: replay + epoch repair must restore everything the
        // clients were acked, and the durability checker must stay clean.
        let plan = plan(
            "@400000us corrupt-tail 3\n@400000us crash-amnesia 3\n@700000us crash-amnesia 0\n\
             @1000000us recover 3\n@1200000us recover 0",
        );
        let c = Rc::new(QStoreCluster::new(QStoreConfig {
            nodes: 10,
            seed: 12,
            durability: Some(qrdtm_core::DurabilityConfig::default()),
            ..Default::default()
        }));
        let r = run_plan(c, 10, &quick_spec(), &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 5);
        assert!(r.metrics.log_replays >= 2, "both restarts replayed the WAL");
        assert!(r.metrics.torn_tails >= 1, "the corrupted tail was detected");
        assert!(r.metrics.repair_rounds >= 1, "epoch repair ran");
        assert!(r.commits > 0);
        let line = r.summary_line();
        assert!(
            line.contains("recovery replay:") && line.contains("torn:"),
            "recovery counters must surface in the summary: {line}"
        );
    }

    #[test]
    fn qstore_amnesia_is_skipped_without_durable_storage() {
        use qrdtm_qstore::{QStoreCluster, QStoreConfig};
        let plan = plan("@300000us crash-amnesia 1");
        let c = Rc::new(QStoreCluster::new(QStoreConfig {
            nodes: 10,
            seed: 13,
            ..Default::default()
        }));
        let r = run_plan(c, 10, &quick_spec(), &plan);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.skipped, 1, "cost-modelled replicas cannot restart");
        assert_eq!(r.applied, 0);
    }

    fn surge_plan() -> FaultPlan {
        plan("@600000us surge 600\n@1400000us calm")
    }

    fn overload_spec(protect: bool) -> ChaosSpec {
        ChaosSpec {
            accounts: 16,
            horizon: SimDuration::from_secs(2),
            recovery: SimDuration::from_secs(2),
            overload: Some(OpenLoopSpec {
                rate_tps: 150,
                deadline: SimDuration::from_millis(300),
                queue_bound: 32,
                protect,
                ..OpenLoopSpec::default()
            }),
            ..ChaosSpec::default()
        }
    }

    fn qr_overload(seed: u64) -> Rc<Cluster> {
        Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Closed,
            seed,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            overload: Some(qrdtm_core::OverloadConfig::default()),
            ..Default::default()
        }))
    }

    #[test]
    fn protected_surge_degrades_gracefully_and_reconverges() {
        let r = run_plan(qr_overload(20), 10, &overload_spec(true), &surge_plan());
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 2, "surge and calm both landed");
        assert!(r.commits > 0);
        assert!(
            r.metrics.admission_shed > 0,
            "the surge must hit the admission bound: {}",
            r.summary_line()
        );
        let line = r.summary_line();
        assert!(
            line.contains("overload shed:") && line.contains("budget:"),
            "overload counters must surface in the summary: {line}"
        );
    }

    #[test]
    fn unprotected_surge_goes_metastable() {
        // Protection off on both sides: no engine budget/deadline (overload
        // config None) and no driver shed/abandon (protect false). The
        // surge builds an unbounded backlog of already-expired work, so
        // post-surge within-deadline goodput never recovers — exactly what
        // the metastability checker exists to catch. This validates the
        // checker the same way the model checker validates injected bugs.
        let proto = Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Closed,
            seed: 21,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            ..Default::default()
        }));
        let r = run_plan(proto, 10, &overload_spec(false), &surge_plan());
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, ChaosViolation::Metastable { .. })),
            "expected a Metastable violation, got: {:?}\n{}",
            r.violations,
            r.summary_line()
        );
        assert_eq!(r.metrics.admission_shed, 0, "nothing sheds unprotected");
    }

    #[test]
    fn overload_verbs_are_skipped_on_closed_loop_runs() {
        // Without the open-loop generator there is no load to surge.
        let r = run_plan(qr(22), 10, &quick_spec(), &surge_plan());
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.applied, 0);
        assert_eq!(r.skipped, 2);
    }

    #[test]
    fn overload_composes_with_gray_failures() {
        // Flash crowd onto a node that is simultaneously running slow —
        // overload and gray failure at once, the scenario the paper's
        // fault model never priced in. All checkers must still pass.
        let plan = plan(
            "@400000us slow 3 300\n@600000us flash-crowd 3\n@1300000us calm\n@1500000us restore 3",
        );
        let r = run_plan(qr_overload(23), 10, &overload_spec(true), &plan);
        assert!(
            r.ok(),
            "violations: {:?}\nfaults: {:?}",
            r.violations,
            r.fault_log
        );
        assert_eq!(r.applied, 4);
        assert!(r.commits > 0);
    }

    #[test]
    fn overload_runs_are_deterministic() {
        let spec = overload_spec(true);
        let plan = surge_plan();
        let a = run_plan(qr_overload(24), 10, &spec, &plan);
        let b = run_plan(qr_overload(24), 10, &spec, &plan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.summary_line(), b.summary_line());
    }

    #[test]
    fn same_seed_same_plan_same_fingerprint() {
        let spec = quick_spec();
        let plan = generate(7, 10, spec.horizon, &FaultBudget::full(4));
        let a = run_plan(qr(7), 10, &spec, &plan);
        let b = run_plan(qr(7), 10, &spec, &plan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fault_log, b.fault_log);
        let c = run_plan(qr(8), 10, &spec, &plan);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "different cluster seed perturbs the run"
        );
    }
}
