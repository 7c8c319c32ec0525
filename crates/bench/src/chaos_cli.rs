//! `repro chaos` — randomized fault injection with invariant checking.
//!
//! Drives the [`qrdtm_chaos`] nemesis against any of the six protocol
//! configurations (QR, QR-CN, QR-CHK, TFA/HyFlow, Decent-STM, Q-Store)
//! under the
//! bank workload: generates seeded [`FaultPlan`]s (budget masked to what
//! each protocol can honestly tolerate), runs them, checks balance
//! conservation, serializability, liveness and re-convergence, and — on a
//! violation — shrinks the plan to a minimal deterministic reproducer.

use std::path::PathBuf;
use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_chaos::{
    drop_at, generate, run_plan, ChaosReport, ChaosSpec, ChaosViolation, FaultBudget, FaultEvent,
    FaultPlan, Proto,
};
use qrdtm_core::{Cluster, DtmConfig, DurabilityConfig, NestingMode, OverloadConfig};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{Metrics, SimDuration};
use qrdtm_workloads::OpenLoopSpec;

use crate::cli::{
    family, in_range, load, num, report_counterexample, Modes, Out, FIG10, ONE_RUN, REPLAY, RUN,
    SELECTS, SMOKE,
};

/// One chaos run's fixed coordinates: which protocol, on how many nodes,
/// from which seed, on which disks.
#[derive(Clone, Copy)]
struct Scenario {
    proto: Proto,
    seed: u64,
    nodes: usize,
    /// Replicas log to the simulated disk (crash-amnesia and corrupt-tail
    /// faults become applicable).
    durable: bool,
}

impl Scenario {
    /// The smoke suites' scenario: 10 nodes, memory-only replicas.
    fn smoke(proto: Proto, seed: u64) -> Self {
        Scenario {
            proto,
            seed,
            nodes: 10,
            durable: false,
        }
    }

    /// Build a fresh cluster and run `plan` against it. A new cluster per
    /// run is what makes replays (and the shrinker's re-runs) exact.
    fn run(&self, spec: &ChaosSpec, plan: &FaultPlan) -> ChaosReport {
        let Scenario { seed, nodes, .. } = *self;
        match self.proto {
            Proto::Qr(mode) => run_plan(self.qr(mode, spec), spec, plan),
            Proto::Tfa => {
                let cl = Rc::new(TfaCluster::new(TfaConfig {
                    nodes,
                    seed,
                    ..Default::default()
                }));
                run_plan(cl, spec, plan)
            }
            Proto::Decent => {
                let cl = Rc::new(DecentCluster::new(DecentConfig {
                    nodes,
                    seed,
                    ..Default::default()
                }));
                run_plan(cl, spec, plan)
            }
            Proto::QStore => {
                // Durable replicas append+fsync one batch record per epoch
                // to the simulated disk; crash-amnesia and corrupt-tail
                // faults become applicable.
                let cfg = QStoreConfig {
                    nodes,
                    seed,
                    durability: self.durable.then(DurabilityConfig::default),
                    ..Default::default()
                };
                run_plan(Rc::new(QStoreCluster::new(cfg)), spec, plan)
            }
        }
    }

    /// The QR-family cluster for this scenario. Only detector mode tightens
    /// the RPC timeout; durable and protected runs keep
    /// `DtmConfig::default()`'s 500 ms (the nemesis unit-test builders
    /// `qr_durable`/`qr_overload` set 100 ms, so they exercise a different
    /// configuration — ROADMAP item 5(d)).
    fn qr(&self, mode: NestingMode, spec: &ChaosSpec) -> Rc<Cluster> {
        let mut cfg = DtmConfig {
            nodes: self.nodes,
            mode,
            seed: self.seed,
            ..Default::default()
        };
        if spec.detector {
            // Oracle off: the cluster self-heals via heartbeats. A tight RPC
            // timeout keeps calls into not-yet-ejected dead nodes short
            // relative to the suspicion window.
            cfg.rpc_timeout = Some(SimDuration::from_millis(100));
        }
        if self.durable {
            cfg.durability = Some(DurabilityConfig::default());
        }
        if spec.overload.is_some_and(|o| o.protect) {
            // Protected open-loop traffic also arms the engine side:
            // per-node admission queues, deadline-aware early abort and retry
            // budgets. The baselines and Q-Store have no
            // engine knobs; they rely on the driver-side queue bound and
            // deadline abandon alone.
            cfg.overload = Some(OverloadConfig::default());
        }
        Rc::new(Cluster::new(cfg))
    }

    /// Run `plan`, print the report line and, on a violation, shrink the
    /// plan to a minimal deterministic reproducer (reported through
    /// `out`). The caller judges the returned report with
    /// [`ChaosReport::ok`].
    fn check(&self, spec: &ChaosSpec, plan: &FaultPlan, out: &Out) -> ChaosReport {
        let Scenario {
            proto, seed, nodes, ..
        } = *self;
        let r = self.run(spec, plan);
        println!(
            "[{:<7} seed={seed} nodes={nodes}] {}",
            proto.label(),
            r.summary_line(),
        );
        let m = &r.metrics;
        if spec.detector {
            println!(
                "    detector: hb={} suspicions={} (false {}) rejoins={} epoch={} retries={}",
                m.heartbeats_sent,
                m.suspicions,
                m.false_suspicions,
                m.rejoins,
                r.view_epoch,
                m.rpc_retries,
            );
        }
        // Recovery counters are zero unless an amnesiac restart actually
        // replayed a log and/or ran quorum repair — print only then.
        if m.log_replays + m.torn_tails + m.repair_rounds + m.repaired_objects + m.repair_bytes > 0
        {
            println!(
                "    recovery: log_replays={} torn_tails={} repair_rounds={} \
                 repaired_objects={} repair_bytes={}",
                m.log_replays, m.torn_tails, m.repair_rounds, m.repaired_objects, m.repair_bytes,
            );
        }
        if !r.ok() {
            let events = |evs: &[FaultEvent]| FaultPlan::new(evs.to_vec());
            report_counterexample(
                ["plan", "event"],
                &r.violations,
                &plan.events,
                drop_at,
                |evs| !self.run(spec, &events(evs)).ok(),
                |evs| events(evs).to_text(),
                out,
            );
        }
        r
    }
}

/// Largest accepted `--horizon-ms`: the plan generator and the fig10
/// schedule scale the horizon in nanoseconds by up to 6x, which must not
/// overflow `u64`.
const MAX_HORIZON_MS: u64 = u64::MAX / 1_000_000 / 8;

/// Every mode but the smoke suite's.
const RUNS: Modes = RUN | REPLAY | FIG10;

// `repro chaos`'s flags. The rows a replay reads and prints back are the
// ones that shape a run: its modes, family, seed, size and horizon.
// `proto: None` runs every family (those with a view, under `detector`).
crate::flags! {
    ChaosArgs, CHAOS, "chaos", check: check_args,
    runs: |a| (a.protos().len() as u64).saturating_mul(a.seeds);
    smoke: bool = false, "--smoke", SMOKE | SELECTS, |_v| true;
    detector: bool = false, "--detector", RUNS | SMOKE, |_v| true,
        |a| a.detector.then(String::new);
    amnesia: bool = false, "--amnesia", RUNS | SMOKE, |_v| true,
        |a| a.amnesia.then(String::new);
    overload: bool = false, "--overload", RUNS | SMOKE, |_v| true,
        |a| a.overload.then(String::new);
    proto: Option<Proto> = None, "--proto PROTO", RUNS, |v| family(v)?,
        |a| a.proto.map(|p| p.label().into());
    seed: u64 = 1, "--seed S", RUNS, |v| num(v)?,
        |a| Some(a.seed.to_string());
    seeds: u64 = 1, "--seeds N", RUNS, |v| in_range(v, 1, u64::MAX)?;
    events: usize = 6, "--events N", RUN, |v| num(v)?;
    nodes: usize = 10, "--nodes N", RUNS, |v| in_range(v, 2, usize::MAX)?,
        |a| Some(a.nodes.to_string());
    horizon_ms: Option<u64> = None, "--horizon-ms H", RUNS,
        |v| Some(in_range(v, 1, MAX_HORIZON_MS)?), |a| a.horizon_ms.map(|ms| ms.to_string());
    fig10: Option<usize> = None, "--fig10 K", FIG10 | SELECTS, |v| Some(num(v)?);
    plan: Option<PathBuf> = None, "--plan FILE", REPLAY | SELECTS, |v| Some(v.into());
    save_plan: Option<PathBuf> = None, "--save-plan FILE", RUNS | ONE_RUN, |v| Some(v.into());
}

/// `repro chaos`'s usage line.
pub fn usage() -> String {
    CHAOS.usage()
}

/// The checks across flags; zero runs would report "all invariants held"
/// over nothing, and the plan generator and cluster constructors assert
/// on degenerate shapes.
fn check_args(a: &ChaosArgs) -> Result<(), String> {
    if a.seed.checked_add(a.seeds).is_none() {
        return Err("seeds must keep seed + seeds within u64".into());
    }
    if let Some(p) = a.protos().into_iter().find(|p| a.nodes < p.min_nodes()) {
        let (min, label) = (p.min_nodes(), p.label());
        return Err(format!(
            "nodes must be at least {min} when {label} is selected"
        ));
    }
    // Two nodes cannot tell a crash from an isolation: the lower id keeps
    // the reference component, so a crashed node 0 is never suspected.
    if a.detector && a.nodes < 3 {
        return Err("nodes must be at least 3 with --detector".into());
    }
    if a.protos().is_empty() {
        return Err("detector needs a family with a reconfigurable view".into());
    }
    let suites = [a.detector, a.amnesia, a.overload];
    if a.smoke && suites.into_iter().filter(|&s| s).count() > 1 {
        return Err("smoke runs one suite, so it takes at most one of its switches".into());
    }
    Ok(())
}

impl ChaosArgs {
    /// The families a run covers: only one with a reconfigurable view can
    /// have a detector drive it, so `--detector` drops the baselines from
    /// `all` and refuses one named alone.
    fn protos(&self) -> Vec<Proto> {
        let all = Proto::ALL.map(|r| r.0);
        let chosen = self.proto.as_ref().map_or(&all[..], std::slice::from_ref);
        let has_view = |p: &&Proto| !self.detector || p.has_view();
        chosen.iter().filter(has_view).copied().collect()
    }
}

/// Entry point for `repro chaos ...`. Returns the process exit code:
/// 0 when every run's invariants held, 1 on any violation.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let a = CHAOS.parse(args);
    if a.smoke {
        // A smoke suite's spec (12 accounts, a 2 s horizon) is no flag's:
        // its counterexamples replay through the suite's own command.
        let out = Out {
            save_to: None,
            replay: CHAOS.command(&a, SMOKE, None),
        };
        return match (a.detector, a.amnesia, a.overload) {
            (true, ..) => detector_smoke(&out),
            (_, true, _) => amnesia_smoke(&out),
            (.., true) => overload_smoke(&out),
            _ => smoke(&out),
        };
    }
    let mut spec = ChaosSpec {
        detector: a.detector,
        ..Default::default()
    };
    if a.overload {
        // Replace the closed-loop clients with open-loop traffic: the
        // surge/flash-crowd plan verbs become applicable and the goodput
        // re-convergence (metastability) checker is armed.
        spec.overload = Some(overload_traffic());
    }
    if let Some(ms) = a.horizon_ms {
        spec.horizon = SimDuration::from_millis(ms);
    }
    // A plan fixed on the command line (replay or Fig. 10 schedule)
    // overrides seeded generation; the seed still varies the workload.
    let fixed_plan = match (&a.plan, a.fig10) {
        (Some(path), _) => match load(path, FaultPlan::parse) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("chaos: {e}");
                return 2;
            }
        },
        (None, k) => k.map(|k| fig10_plan(k, spec.horizon)),
    };
    println!("## chaos — randomized fault injection + invariant checking\n");
    if a.detector && a.proto.is_none() {
        println!("(detector mode: baselines skipped — no reconfigurable view)\n");
    }
    let mut failures = 0usize;
    for seed in a.seed..a.seed + a.seeds {
        for proto in a.protos() {
            let budget = if a.overload {
                // Surges, flash crowds and gray failures — the overload
                // verbs act on the traffic generator, so every protocol
                // family can take this budget.
                FaultBudget::overload(a.events)
            } else {
                proto.budget(a.events, a.amnesia)
            };
            let plan = match &fixed_plan {
                Some(p) => p.clone(),
                None => generate(seed, a.nodes as u32, spec.horizon, &budget),
            };
            let sc = Scenario {
                proto,
                seed,
                nodes: a.nodes,
                durable: a.amnesia,
            };
            let this_run = ChaosArgs {
                proto: Some(proto),
                seed,
                seeds: 1,
                ..a.clone()
            };
            let out = Out {
                save_to: a.save_plan.as_deref(),
                replay: CHAOS.command(&this_run, REPLAY, a.save_plan.as_deref()),
            };
            if let Err(e) = out.save(&plan.to_text()) {
                eprintln!("chaos: {e}");
                return 1;
            }
            if !sc.check(&spec, &plan, &out).ok() {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\nchaos: {failures} run(s) violated invariants");
        1
    } else {
        println!("\nchaos: all invariants held");
        0
    }
}

/// The paper's Fig. 10 crash schedule as a plan: `k` successive crashes of
/// the current first read-quorum member, spread over the fault window.
fn fig10_plan(k: usize, horizon: SimDuration) -> FaultPlan {
    let start = SimDuration::from_nanos(horizon.as_nanos() / 5);
    let span = horizon.as_nanos() * 3 / 5;
    let spacing = SimDuration::from_nanos(span / k.max(1) as u64);
    FaultPlan::fig10(k, start, spacing)
}

/// A crafted smoke plan, written in the text `--plan FILE` takes.
fn plan(text: &str) -> FaultPlan {
    FaultPlan::parse(text).unwrap_or_else(|e| panic!("crafted plan {text:?}: {e}"))
}

/// Fold one smoke run into its suite's tally: its verdict into `ok`, and
/// the counter readings `read` takes off its metrics into `sums`.
fn tally<const N: usize>(
    r: &ChaosReport,
    read: fn(&Metrics) -> [u64; N],
    ok: &mut bool,
    sums: &mut [u64; N],
) {
    *ok &= r.ok();
    for (sum, v) in sums.iter_mut().zip(read(&r.metrics)) {
        *sum += v;
    }
}

/// A smoke suite's verdict: the aggregate line of its counters' `names`
/// and `sums`, a complaint for each that never fired, then `pass` (exit 0)
/// or a failure (exit 1).
fn verdict(suite: &str, mut ok: bool, names: &[&str], sums: &[u64], pass: &str) -> i32 {
    if !names.is_empty() {
        let named = names
            .iter()
            .zip(sums)
            .map(|(name, v)| format!("{name}={v}"));
        println!("\naggregate: {}", named.collect::<Vec<_>>().join(" "));
    }
    for (name, v) in names.iter().zip(sums) {
        if *v == 0 {
            eprintln!("{suite}: counter {name} never fired");
            ok = false;
        }
    }
    if ok {
        println!("\nchaos {suite}: {pass}");
        0
    } else {
        eprintln!("\nchaos {suite}: FAILED");
        1
    }
}

/// The fixed smoke suite (golden `chaos_smoke.txt`): two seeds across all
/// six protocols with the short spec, plus one Fig. 10 crash schedule and
/// a crafted planner-failover plan for the batching family (crash node 0,
/// the initial planner — the successor must replan, and the batch
/// atomicity checker must stay clean).
fn smoke(out: &Out) -> i32 {
    let spec = ChaosSpec::smoke();
    println!("## chaos --smoke — 2 seeds x 6 protocols + fig10 + planner-failover\n");
    let mut ok = true;
    let mut qstore_runs = 0u32;
    for seed in 1..=2u64 {
        for (proto, _) in Proto::ALL {
            let plan = generate(seed, 10, spec.horizon, &proto.budget(5, false));
            ok &= Scenario::smoke(proto, seed).check(&spec, &plan, out).ok();
            qstore_runs += u32::from(proto == Proto::QStore);
        }
    }
    let fig10 = fig10_plan(3, spec.horizon);
    ok &= Scenario::smoke(Proto::Qr(NestingMode::Closed), 3)
        .check(&spec, &fig10, out)
        .ok();
    let planner_failover = plan("@400000us crash 0\n@1200000us recover 0");
    ok &= Scenario::smoke(Proto::QStore, 3)
        .check(&spec, &planner_failover, out)
        .ok();
    if qstore_runs == 0 {
        eprintln!("chaos smoke: the generated-plan grid never ran the qstore arm");
        ok = false;
    }
    verdict("smoke", ok, &[], &[], "all invariants held")
}

/// The detector-mode smoke suite (golden `chaos_smoke_detector.txt`): the oracle
/// is off, crashes and heals touch the simulator only, and the failure
/// detector must notice both — crafted plans exercise true suspicion,
/// false suspicion (an isolated-but-alive node) and gray slowness, and
/// the aggregated counters prove each mechanism actually fired.
fn detector_smoke(out: &Out) -> i32 {
    let spec = ChaosSpec {
        detector: true,
        ..ChaosSpec::smoke()
    };
    let crash_heal = plan("@300000us crash 1\n@1100000us recover 1");
    let isolate = plan("@300000us partition 2|0,1,3,4,5,6,7,8,9\n@1100000us heal");
    let slow = plan("@300000us slow 3 2000\n@1400000us restore 3");
    let plans: [(&str, &FaultPlan); 3] = [
        ("crash+heal", &crash_heal),
        ("isolate-alive", &isolate),
        ("slow-node", &slow),
    ];
    println!("## chaos --smoke --detector — oracle off, detector in charge\n");
    let names = [
        "heartbeats",
        "suspicions",
        "false_suspicions",
        "rpc_retries",
    ];
    let read = |m: &Metrics| {
        [
            m.heartbeats_sent,
            m.suspicions,
            m.false_suspicions,
            m.rpc_retries,
        ]
    };
    let (mut ok, mut sums) = (true, [0; 4]);
    let mut run = |proto, seed, plan: &FaultPlan| {
        let r = Scenario::smoke(proto, seed).check(&spec, plan, out);
        tally(&r, read, &mut ok, &mut sums);
    };
    for seed in 1..=2u64 {
        for (name, plan) in plans {
            println!("plan: {name}");
            for mode in [NestingMode::Closed, NestingMode::Flat] {
                run(Proto::Qr(mode), seed, plan);
            }
        }
    }
    // Random full-vocabulary plans on top, so generated crash/partition
    // schedules also go through the detector path.
    let chk = Proto::Qr(NestingMode::Checkpoint);
    for seed in 1..=2u64 {
        let plan = generate(seed, 10, spec.horizon, &chk.budget(5, false));
        run(chk, seed, &plan);
    }
    // Q-Store keeps a reconfigurable planner view: a silently crashed
    // planner (node 0) must be suspected and ejected by the heartbeat
    // detector, the successor takes over behind a view-epoch fence, and
    // the old planner rejoins as an ordinary replica once it heals.
    let planner_crash = plan("@300000us crash 0\n@1100000us recover 0");
    for seed in 1..=2u64 {
        println!("plan: planner-crash (batching family)");
        run(Proto::QStore, seed, &planner_crash);
    }
    let pass = "all invariants held, all mechanisms fired";
    verdict("detector smoke", ok, &names, &sums, pass)
}

/// The durability smoke suite (golden `chaos_smoke_amnesia.txt`): durable QR
/// replicas under amnesiac restarts and torn WAL tails. Crafted plans pin
/// the interesting sequences (a tail corruption followed immediately by an
/// amnesiac crash, and back-to-back restarts), generated durable-budget
/// plans add breadth, and every run goes through the full checker set —
/// including the durability checker, which proves no acknowledged write
/// was lost. The aggregated recovery counters then prove the log replay,
/// torn-tail detection and quorum repair each actually fired.
///
/// The Q-Store arms then put the batch WAL through the same grinder
/// across twenty seeds: each plan tears a replica's batch-log tail,
/// amnesia-crashes that replica *and* the planner, and the restarted
/// nodes must replay their fsynced batch prefix (dropping the torn batch
/// whole), census the quorum-acked epoch frontier and pull what they
/// lost — with the batch-atomicity and durability checkers watching.
fn amnesia_smoke(out: &Out) -> i32 {
    let spec = ChaosSpec::smoke();
    let torn_restart =
        plan("@400000us corrupt-tail 2\n@400000us crash-amnesia 2\n@1100000us recover 2");
    let double_amnesia = plan(
        "@300000us crash-amnesia 1\n@800000us recover 1\n@1000000us corrupt-tail 4\n\
         @1000000us crash-amnesia 4\n@1400000us recover 4",
    );
    let plans: [(&str, &FaultPlan); 2] = [
        ("torn-restart", &torn_restart),
        ("double-amnesia", &double_amnesia),
    ];
    println!("## chaos --smoke --amnesia — durable replicas, amnesiac restarts\n");
    let names = [
        "log_replays",
        "torn_tails",
        "repair_rounds",
        "repaired_objects",
    ];
    let read = |m: &Metrics| {
        [
            m.log_replays,
            m.torn_tails,
            m.repair_rounds,
            m.repaired_objects,
        ]
    };
    let (mut ok, mut sums) = (true, [0; 4]);
    let mut run = |proto, seed, plan: &FaultPlan| {
        let sc = Scenario {
            durable: true,
            ..Scenario::smoke(proto, seed)
        };
        tally(&sc.check(&spec, plan, out), read, &mut ok, &mut sums);
    };
    for seed in 1..=3u64 {
        for (name, plan) in plans {
            println!("plan: {name}");
            for mode in [NestingMode::Closed, NestingMode::Flat] {
                run(Proto::Qr(mode), seed, plan);
            }
        }
    }
    // Random durable-budget plans on top, so generated amnesia schedules
    // (mixed with partitions, drops and slowdowns) also get coverage.
    let chk = Proto::Qr(NestingMode::Checkpoint);
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, spec.horizon, &chk.budget(5, true));
        run(chk, seed, &plan);
    }
    // Q-Store: twenty seeds of torn batch tails + amnesiac restarts. The
    // victim replica rotates with the seed so the tear lands on different
    // batch boundaries, and the planner (node 0) is amnesia-crashed in
    // every plan so failover must adopt only the quorum-acked durable
    // prefix before the old planner rejoins from its own batch log.
    println!("\nbatch WAL (qstore): torn tails + planner amnesia across 20 seeds");
    let mut qstore_runs = 0u32;
    for seed in 1..=20u64 {
        let victim = 1 + (seed % 9) as u32;
        let torn_planner = plan(&format!(
            "@400000us corrupt-tail {victim}\n@400000us crash-amnesia {victim}\n\
             @700000us crash-amnesia 0\n@1000000us recover {victim}\n@1200000us recover 0"
        ));
        run(Proto::QStore, seed, &torn_planner);
        qstore_runs += 1;
    }
    // And generated durable-budget plans for breadth on the batching
    // family too.
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, spec.horizon, &Proto::QStore.budget(5, true));
        run(Proto::QStore, seed, &plan);
        qstore_runs += 1;
    }
    if qstore_runs < 20 {
        eprintln!("amnesia smoke: only {qstore_runs} qstore batch-WAL run(s) (< 20)");
        ok = false;
    }
    let pass = "all invariants held, recovery machinery fired";
    verdict("amnesia smoke", ok, &names, &sums, pass)
}

/// The open-loop traffic shape for overload runs: arrivals keep coming at
/// 150 tps whether or not earlier transactions finished, each with a
/// 300 ms deadline; with protection on, the driver sheds arrivals past a
/// 32-deep per-node admission queue and abandons work already past its
/// deadline instead of executing it.
fn overload_traffic() -> OpenLoopSpec {
    OpenLoopSpec {
        rate_tps: 150,
        deadline: SimDuration::from_millis(300),
        queue_bound: 32,
        protect: true,
        ..OpenLoopSpec::default()
    }
}

/// The overload smoke suite (golden `chaos_smoke_overload.txt`): open-loop
/// traffic with generated surge/flash-crowd/gray plans across all six
/// protocol families and twenty seeds — the retry-storm and goodput
/// re-convergence (metastability) checkers are armed on every run. A
/// budget-pressure arm then proves the retry budget actually bounds token
/// draws under a slow node, and a checker-validation arm turns every
/// protection off and asserts the same surge drives the run metastable —
/// the checker has to be able to catch the failure mode it guards against.
fn overload_smoke(out: &Out) -> i32 {
    let ms = SimDuration::from_millis;
    let spec = ChaosSpec {
        overload: Some(overload_traffic()),
        // Families without engine-side admission control (the baselines
        // and Q-Store run driver-side protection only) recover more
        // slowly from a surge; a quarter of the pre-fault goodput is the
        // graceful-degradation bar here, still an order of magnitude
        // above the unprotected collapse the validation arm below shows.
        reconverge_factor_pct: 400,
        ..ChaosSpec::smoke()
    };
    println!("## chaos --smoke --overload — open-loop traffic, surges + gray faults\n");
    let names = [
        "admission_shed",
        "deadline_aborts",
        "retry_budget_exhausted",
        "client_retries",
    ];
    let read = |m: &Metrics| {
        [
            m.admission_shed,
            m.deadline_aborts,
            m.retry_budget_exhausted,
            m.client_retries,
        ]
    };
    let (mut ok, mut sums) = (true, [0; 4]);
    let mut runs = 0u32;
    // Twenty seeds across all six families under generated overload plans
    // (a surge, a flash crowd, a slow node and a latency spike, each
    // paired with its cure). The spec's protected traffic arms the QR
    // family's engine-side protections; the baselines and Q-Store have no
    // engine knobs and rely on the driver-side queue bound and deadline
    // abandon alone.
    for seed in 1..=20u64 {
        for (proto, _) in Proto::ALL {
            let plan = generate(seed, 10, spec.horizon, &FaultBudget::overload(4));
            let r = Scenario::smoke(proto, seed).check(&spec, &plan, out);
            tally(&r, read, &mut ok, &mut sums);
            runs += 1;
        }
    }
    // Budget pressure: a cap-4 retry budget with no per-commit refill —
    // only a 100 ms drip — under a 20x slow node plus a surge. The engine
    // must stop retrying when the budget runs dry (the retry-storm
    // checker proves the bound holds), the exhaustion counter must fire,
    // and the drip must be enough for the run to work itself back to
    // health once the faults clear.
    println!("\nbudget pressure: cap-4 retry budget, drip-only refill, 20x slow node + surge");
    let slow_surge =
        plan("@300000us slow 3 2000\n@500000us surge 400\n@1200000us calm\n@1400000us restore 3");
    for seed in 1..=3u64 {
        let cl = Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Flat,
            seed,
            rpc_timeout: Some(ms(100)),
            overload: Some(OverloadConfig {
                retry_budget_cap: 4,
                retry_refill_per_commit: 0,
                retry_drip: ms(100),
            }),
            ..Default::default()
        }));
        let r = run_plan(cl, &spec, &slow_surge);
        println!("[qr-budget seed={seed} nodes=10] {}", r.summary_line());
        for v in &r.violations {
            println!("    ! {v}");
        }
        tally(&r, read, &mut ok, &mut sums);
    }
    // Checker validation: the same surge with every protection off — no
    // admission control, no shedding, no deadline abandon — builds a
    // backlog the run never works off, so post-surge goodput stays near
    // zero. The metastability checker must flag it; if it cannot catch
    // the failure mode it guards against, the green runs above prove
    // nothing.
    let unprotected = ChaosSpec {
        overload: Some(OpenLoopSpec {
            protect: false,
            ..overload_traffic()
        }),
        ..ChaosSpec::smoke()
    };
    let surge_only = plan("@600000us surge 600\n@1400000us calm");
    println!("\nchecker validation: unprotected surge must go metastable");
    for seed in 1..=3u64 {
        let r = Scenario::smoke(Proto::Qr(NestingMode::Flat), seed).run(&unprotected, &surge_only);
        let meta = r
            .violations
            .iter()
            .any(|v| matches!(v, ChaosViolation::Metastable { .. }));
        println!(
            "[qr-unprotected seed={seed} nodes=10] {} metastable={}",
            r.summary_line(),
            if meta { "yes (expected)" } else { "NO" },
        );
        if !meta {
            eprintln!("overload smoke: metastability checker missed an unprotected surge");
            ok = false;
        }
    }
    if runs < 120 {
        eprintln!("overload smoke: only {runs} protected run(s) (< 120)");
        ok = false;
    }
    let pass = "all invariants held, no retry storms, goodput reconverged";
    verdict("overload smoke", ok, &names, &sums, pass)
}
