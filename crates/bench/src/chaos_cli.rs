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
    generate, run_plan, shrink, ChaosReport, ChaosSpec, ChaosViolation, FaultBudget, FaultPlan,
};
use qrdtm_core::{
    Cluster, DetectorConfig, DtmConfig, DurabilityConfig, NestingMode, OverloadConfig,
};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::SimDuration;
use qrdtm_workloads::OpenLoopSpec;

/// One of the six protocol configurations the nemesis can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proto {
    Qr,
    QrCn,
    QrChk,
    Tfa,
    Decent,
    QStore,
}

const ALL_PROTOS: [Proto; 6] = [
    Proto::Qr,
    Proto::QrCn,
    Proto::QrChk,
    Proto::Tfa,
    Proto::Decent,
    Proto::QStore,
];

impl Proto {
    fn label(self) -> &'static str {
        match self {
            Proto::Qr => "qr",
            Proto::QrCn => "qr-cn",
            Proto::QrChk => "qr-chk",
            Proto::Tfa => "tfa",
            Proto::Decent => "decent",
            Proto::QStore => "qstore",
        }
    }

    fn parse(s: &str) -> Option<Vec<Proto>> {
        if s == "all" {
            return Some(ALL_PROTOS.to_vec());
        }
        ALL_PROTOS.iter().find(|p| p.label() == s).map(|p| vec![*p])
    }

    /// The fault budget this protocol can honestly be subjected to: the QR
    /// configurations take the full vocabulary (plus amnesiac restarts
    /// when durability is armed), the baselines (which the paper states
    /// are not fault-tolerant) only gray failures.
    fn budget(self, events: usize, durable: bool) -> FaultBudget {
        match self {
            Proto::Qr | Proto::QrCn | Proto::QrChk if durable => FaultBudget::durable(events),
            Proto::Qr | Proto::QrCn | Proto::QrChk => FaultBudget::full(events),
            // Q-Store keeps a per-replica batch WAL when durability is
            // armed, so amnesiac restarts and torn tails are honest faults
            // for it too; without the disk model it takes the full
            // vocabulary minus durability.
            Proto::QStore if durable => FaultBudget::durable(events),
            Proto::QStore => FaultBudget::full(events),
            Proto::Tfa | Proto::Decent => FaultBudget::gray(events),
        }
    }

    /// Whether this protocol can run with the failure detector in charge
    /// (the QR family keeps a reconfigurable quorum view; Q-Store keeps a
    /// reconfigurable planner view with heartbeat-driven failover).
    fn supports_detector(self) -> bool {
        matches!(self, Proto::Qr | Proto::QrCn | Proto::QrChk | Proto::QStore)
    }
}

/// One chaos run's fixed coordinates: which protocol, on how many nodes,
/// from which seed, with which engine arms.
#[derive(Clone, Copy)]
struct Scenario {
    proto: Proto,
    seed: u64,
    nodes: usize,
    /// Replicas log to the simulated disk (crash-amnesia and corrupt-tail
    /// faults become applicable).
    durable: bool,
    /// Arm the engine-side overload protections (admission control,
    /// deadline-aware abort, retry budget) on the QR family; the baselines
    /// and Q-Store have no engine knobs, so under overload they rely on
    /// the driver-side queue bound and deadline abandon alone.
    protect: bool,
}

impl Scenario {
    /// The smoke suites' scenario: 10 nodes, neither engine arm set.
    fn smoke(proto: Proto, seed: u64) -> Self {
        Scenario {
            proto,
            seed,
            nodes: 10,
            durable: false,
            protect: false,
        }
    }

    /// Build a fresh cluster and run `plan` against it. A new cluster per
    /// run is what makes replays (and the shrinker's re-runs) exact.
    fn run(&self, spec: &ChaosSpec, plan: &FaultPlan) -> ChaosReport {
        let Scenario { seed, nodes, .. } = *self;
        match self.proto {
            Proto::Qr => run_plan(self.qr(NestingMode::Flat, spec), nodes, spec, plan),
            Proto::QrCn => run_plan(self.qr(NestingMode::Closed, spec), nodes, spec, plan),
            Proto::QrChk => run_plan(self.qr(NestingMode::Checkpoint, spec), nodes, spec, plan),
            Proto::Tfa => {
                let cl = Rc::new(TfaCluster::new(TfaConfig {
                    nodes,
                    seed,
                    ..Default::default()
                }));
                run_plan(cl, nodes, spec, plan)
            }
            Proto::Decent => {
                let cl = Rc::new(DecentCluster::new(DecentConfig {
                    nodes,
                    seed,
                    ..Default::default()
                }));
                run_plan(cl, nodes, spec, plan)
            }
            Proto::QStore => {
                let mut cfg = QStoreConfig {
                    nodes,
                    seed,
                    ..Default::default()
                };
                if spec.detector {
                    // Oracle off: the heartbeat detector ejects a silent
                    // planner and drives the successor's fenced takeover.
                    cfg.detector = Some(DetectorConfig::default());
                }
                if self.durable {
                    // Replicas append+fsync one batch record per epoch to
                    // the simulated disk; crash-amnesia and corrupt-tail
                    // faults become applicable.
                    cfg.durability = Some(DurabilityConfig::default());
                }
                let cl = Rc::new(QStoreCluster::new(cfg));
                run_plan(cl, nodes, spec, plan)
            }
        }
    }

    /// The QR-family cluster for this scenario. Only detector mode tightens
    /// the RPC timeout; durable and protected runs keep
    /// `DtmConfig::default()`'s 500 ms (the nemesis unit-test builders
    /// `qr_durable`/`qr_overload` set 100 ms, so they exercise a different
    /// configuration — ROADMAP item 4(d)).
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
            // relative to the suspicion window, so retries/hedging matter.
            cfg.detector = Some(DetectorConfig::default());
            cfg.rpc_timeout = Some(SimDuration::from_millis(100));
        }
        if self.durable {
            cfg.durability = Some(DurabilityConfig::default());
        }
        if self.protect {
            // Per-node admission queues, deadline-aware early abort, retry
            // budgets, hedge suppression.
            cfg.overload = Some(OverloadConfig::default());
        }
        Rc::new(Cluster::new(cfg))
    }

    /// Run `plan`, print the report line and, on a violation, shrink the
    /// plan to a minimal deterministic reproducer (written to `save_to` if
    /// given). The caller judges the returned report with
    /// [`ChaosReport::ok`].
    fn check(
        &self,
        spec: &ChaosSpec,
        plan: &FaultPlan,
        save_to: Option<&std::path::Path>,
    ) -> ChaosReport {
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
                "    detector: hb={} suspicions={} (false {}) rejoins={} epoch={} \
                 retries={} hedged {}/{} wasted={}",
                m.heartbeats_sent,
                m.suspicions,
                m.false_suspicions,
                m.rejoins,
                r.view_epoch,
                m.rpc_retries,
                m.hedged_wins,
                m.hedged_calls,
                m.wasted_replies,
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
        if r.ok() {
            return r;
        }
        for v in &r.violations {
            println!("    ! {v}");
        }
        println!(
            "    shrinking the {}-event plan to a minimal reproducer...",
            plan.len()
        );
        let min = shrink(plan, |cand| !self.run(spec, cand).ok());
        println!("    minimized plan ({} event(s)):", min.len());
        for line in min.to_text().lines() {
            println!("      {line}");
        }
        if let Some(path) = save_to {
            match self.save_plan(path, &min) {
                Ok(()) => println!("    minimized plan written to {}", path.display()),
                Err(e) => eprintln!("chaos: cannot write {}: {e}", path.display()),
            }
        }
        println!(
            "    repro: save the plan to FILE and run `repro chaos --proto {} --seed {seed} \
             --nodes {nodes} --plan FILE` (fully deterministic)",
            proto.label()
        );
        r
    }

    fn save_plan(&self, path: &std::path::Path, plan: &FaultPlan) -> std::io::Result<()> {
        let text = format!(
            "# generated for --proto {} --seed {} --nodes {}\n{}",
            self.proto.label(),
            self.seed,
            self.nodes,
            plan.to_text()
        );
        std::fs::write(path, text)
    }
}

struct ChaosArgs {
    smoke: bool,
    detector: bool,
    amnesia: bool,
    overload: bool,
    seed: u64,
    seeds: u64,
    protos: Vec<Proto>,
    events: usize,
    horizon_ms: Option<u64>,
    nodes: usize,
    plan: Option<PathBuf>,
    save_plan: Option<PathBuf>,
    fig10: Option<usize>,
}

/// Largest accepted `--horizon-ms`: the plan generator and the fig10
/// schedule scale the horizon in nanoseconds by up to 6x, which must not
/// overflow `u64`.
const MAX_HORIZON_MS: u64 = u64::MAX / 1_000_000 / 8;

fn chaos_usage() -> ! {
    eprintln!(
        "usage: repro chaos [--smoke] [--detector] [--amnesia] [--overload] \
         [--proto qr|qr-cn|qr-chk|tfa|decent|qstore|all] \
         [--seed S] [--seeds N] [--events N] [--nodes N] [--horizon-ms H] \
         [--fig10 K] [--plan FILE] [--save-plan FILE]"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> ChaosArgs {
    let mut a = ChaosArgs {
        smoke: false,
        detector: false,
        amnesia: false,
        overload: false,
        seed: 1,
        seeds: 1,
        protos: ALL_PROTOS.to_vec(),
        events: 6,
        horizon_ms: None,
        nodes: 10,
        plan: None,
        save_plan: None,
        fig10: None,
    };
    let val = |args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| chaos_usage())
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--detector" => a.detector = true,
            "--amnesia" => a.amnesia = true,
            "--overload" => a.overload = true,
            "--proto" => {
                a.protos = Proto::parse(&val(&mut args)).unwrap_or_else(|| chaos_usage());
            }
            "--seed" => a.seed = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--seeds" => a.seeds = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--events" => a.events = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--nodes" => a.nodes = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--horizon-ms" => {
                a.horizon_ms = Some(val(&mut args).parse().unwrap_or_else(|_| chaos_usage()));
            }
            "--fig10" => a.fig10 = Some(val(&mut args).parse().unwrap_or_else(|_| chaos_usage())),
            "--plan" => a.plan = Some(PathBuf::from(val(&mut args))),
            "--save-plan" => a.save_plan = Some(PathBuf::from(val(&mut args))),
            _ => chaos_usage(),
        }
    }
    // Zero runs would report "all invariants held" over nothing, and the
    // plan generator / cluster constructors assert on degenerate shapes.
    let bad = [
        (
            a.seeds == 0 || a.seed.checked_add(a.seeds).is_none(),
            "--seeds must be at least 1 and --seed + --seeds must not overflow",
        ),
        (a.nodes < 2, "--nodes must be at least 2"),
        (
            a.nodes < 3 && a.protos.contains(&Proto::QStore),
            "--nodes must be at least 3 when qstore is selected",
        ),
        (
            a.horizon_ms
                .is_some_and(|ms| !(1..=MAX_HORIZON_MS).contains(&ms)),
            "--horizon-ms must be at least 1 and at most u64::MAX / 8 nanoseconds",
        ),
    ];
    if let Some((_, msg)) = bad.iter().find(|(hit, _)| *hit) {
        eprintln!("chaos: {msg}");
        chaos_usage();
    }
    a
}

/// Entry point for `repro chaos ...`. Returns the process exit code:
/// 0 when every run's invariants held, 1 on any violation.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let mut a = parse_args(args);
    if a.smoke {
        return if a.amnesia {
            amnesia_smoke()
        } else if a.detector {
            detector_smoke()
        } else if a.overload {
            overload_smoke()
        } else {
            smoke()
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
    if a.detector {
        // Only the QR family keeps the reconfigurable view a detector can
        // drive; baselines are silently dropped from an "all" selection.
        let before = a.protos.len();
        a.protos.retain(|p| p.supports_detector());
        if a.protos.is_empty() {
            eprintln!("chaos: --detector requires a reconfigurable-view protocol (qr, qr-cn, qr-chk, qstore)");
            return 2;
        }
        if a.protos.len() < before {
            println!("(detector mode: baselines skipped — no reconfigurable view)\n");
        }
    }
    if let Some(ms) = a.horizon_ms {
        spec.horizon = SimDuration::from_millis(ms);
    }
    // A plan fixed on the command line (replay or Fig. 10 schedule)
    // overrides seeded generation; the seed still varies the workload.
    let fixed_plan: Option<FaultPlan> = if let Some(path) = &a.plan {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("chaos: cannot read {}: {e}", path.display());
                return 2;
            }
        };
        match FaultPlan::parse(&text) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("chaos: bad plan {}: {e}", path.display());
                return 2;
            }
        }
    } else {
        a.fig10.map(|k| fig10_plan(k, spec.horizon))
    };
    println!("## chaos — randomized fault injection + invariant checking\n");
    let mut failures = 0usize;
    for seed in a.seed..a.seed + a.seeds {
        for &proto in &a.protos {
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
                protect: a.overload,
            };
            if let Some(path) = &a.save_plan {
                if let Err(e) = sc.save_plan(path, &plan) {
                    eprintln!("chaos: cannot write {}: {e}", path.display());
                    return 1;
                }
            }
            if !sc.check(&spec, &plan, a.save_plan.as_deref()).ok() {
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

/// The fixed smoke suite `scripts/check.sh` runs: two seeds across all
/// six protocols with the short spec, plus one Fig. 10 crash schedule and
/// a crafted planner-failover plan for the batching family (crash node 0,
/// the initial planner — the successor must replan, and the batch
/// atomicity checker must stay clean).
fn smoke() -> i32 {
    let spec = ChaosSpec::smoke();
    println!("## chaos --smoke — 2 seeds x 6 protocols + fig10 + planner-failover\n");
    let mut ok = true;
    let mut qstore_runs = 0u32;
    for seed in 1..=2u64 {
        for proto in ALL_PROTOS {
            let plan = generate(seed, 10, spec.horizon, &proto.budget(5, false));
            ok &= Scenario::smoke(proto, seed).check(&spec, &plan, None).ok();
            qstore_runs += u32::from(proto == Proto::QStore);
        }
    }
    let fig10 = fig10_plan(3, spec.horizon);
    ok &= Scenario::smoke(Proto::QrCn, 3)
        .check(&spec, &fig10, None)
        .ok();
    let planner_failover = plan("@400000us crash 0\n@1200000us recover 0");
    ok &= Scenario::smoke(Proto::QStore, 3)
        .check(&spec, &planner_failover, None)
        .ok();
    if qstore_runs == 0 {
        eprintln!("chaos smoke: the generated-plan grid never ran the qstore arm");
        ok = false;
    }
    if ok {
        println!("\nchaos smoke: all invariants held");
        0
    } else {
        eprintln!("\nchaos smoke: invariant violations found");
        1
    }
}

/// The detector-mode smoke suite (`scripts/check.sh` stage 2): the oracle
/// is off, crashes and heals touch the simulator only, and the failure
/// detector must notice both — crafted plans exercise true suspicion,
/// false suspicion (an isolated-but-alive node) and gray slowness, and
/// the aggregated counters prove each mechanism actually fired.
fn detector_smoke() -> i32 {
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
    let mut ok = true;
    let (mut hb, mut susp, mut false_susp, mut retries, mut hedged) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for seed in 1..=2u64 {
        for (name, plan) in plans {
            println!("plan: {name}");
            for proto in [Proto::QrCn, Proto::Qr] {
                let r = Scenario::smoke(proto, seed).check(&spec, plan, None);
                ok &= r.ok();
                hb += r.metrics.heartbeats_sent;
                susp += r.metrics.suspicions;
                false_susp += r.metrics.false_suspicions;
                retries += r.metrics.rpc_retries;
                hedged += r.metrics.hedged_wins;
            }
        }
    }
    // Random full-vocabulary plans on top, so generated crash/partition
    // schedules also go through the detector path.
    for seed in 1..=2u64 {
        let plan = generate(seed, 10, spec.horizon, &FaultBudget::full(5));
        let r = Scenario::smoke(Proto::QrChk, seed).check(&spec, &plan, None);
        ok &= r.ok();
        hb += r.metrics.heartbeats_sent;
        susp += r.metrics.suspicions;
        false_susp += r.metrics.false_suspicions;
        retries += r.metrics.rpc_retries;
        hedged += r.metrics.hedged_wins;
    }
    // Q-Store keeps a reconfigurable planner view: a silently crashed
    // planner (node 0) must be suspected and ejected by the heartbeat
    // detector, the successor takes over behind a view-epoch fence, and
    // the old planner rejoins as an ordinary replica once it heals.
    let planner_crash = plan("@300000us crash 0\n@1100000us recover 0");
    for seed in 1..=2u64 {
        println!("plan: planner-crash (batching family)");
        let r = Scenario::smoke(Proto::QStore, seed).check(&spec, &planner_crash, None);
        ok &= r.ok();
        hb += r.metrics.heartbeats_sent;
        susp += r.metrics.suspicions;
        false_susp += r.metrics.false_suspicions;
        retries += r.metrics.rpc_retries;
        hedged += r.metrics.hedged_wins;
    }
    println!(
        "\naggregate: heartbeats={hb} suspicions={susp} false_suspicions={false_susp} \
         rpc_retries={retries} hedged_wins={hedged}"
    );
    for (counter, v) in [
        ("heartbeats_sent", hb),
        ("suspicions", susp),
        ("false_suspicions", false_susp),
        ("rpc_retries", retries),
        ("hedged_wins", hedged),
    ] {
        if v == 0 {
            eprintln!("detector smoke: counter {counter} never fired");
            ok = false;
        }
    }
    if ok {
        println!("\nchaos detector smoke: all invariants held, all mechanisms fired");
        0
    } else {
        eprintln!("\nchaos detector smoke: FAILED");
        1
    }
}

/// The durability smoke suite (`scripts/check.sh` stage 3): durable QR
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
fn amnesia_smoke() -> i32 {
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
    let durable = |proto, seed| Scenario {
        durable: true,
        ..Scenario::smoke(proto, seed)
    };
    let mut ok = true;
    let (mut replays, mut torn, mut rounds, mut repaired) = (0u64, 0u64, 0u64, 0u64);
    let mut tally = |r: &ChaosReport| {
        replays += r.metrics.log_replays;
        torn += r.metrics.torn_tails;
        rounds += r.metrics.repair_rounds;
        repaired += r.metrics.repaired_objects;
    };
    for seed in 1..=3u64 {
        for (name, plan) in plans {
            println!("plan: {name}");
            for proto in [Proto::QrCn, Proto::Qr] {
                let r = durable(proto, seed).check(&spec, plan, None);
                ok &= r.ok();
                tally(&r);
            }
        }
    }
    // Random durable-budget plans on top, so generated amnesia schedules
    // (mixed with partitions, drops and slowdowns) also get coverage.
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, spec.horizon, &FaultBudget::durable(5));
        let r = durable(Proto::QrChk, seed).check(&spec, &plan, None);
        ok &= r.ok();
        tally(&r);
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
        let r = durable(Proto::QStore, seed).check(&spec, &torn_planner, None);
        ok &= r.ok();
        tally(&r);
        qstore_runs += 1;
    }
    // And generated durable-budget plans for breadth on the batching
    // family too.
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, spec.horizon, &FaultBudget::durable(5));
        let r = durable(Proto::QStore, seed).check(&spec, &plan, None);
        ok &= r.ok();
        tally(&r);
        qstore_runs += 1;
    }
    println!(
        "\naggregate: log_replays={replays} torn_tails={torn} repair_rounds={rounds} \
         repaired_objects={repaired}"
    );
    for (counter, v) in [
        ("log_replays", replays),
        ("torn_tails", torn),
        ("repair_rounds", rounds),
        ("repaired_objects", repaired),
    ] {
        if v == 0 {
            eprintln!("amnesia smoke: counter {counter} never fired");
            ok = false;
        }
    }
    if qstore_runs < 20 {
        eprintln!("amnesia smoke: only {qstore_runs} qstore batch-WAL run(s) (< 20)");
        ok = false;
    }
    if ok {
        println!("\nchaos amnesia smoke: all invariants held, recovery machinery fired");
        0
    } else {
        eprintln!("\nchaos amnesia smoke: FAILED");
        1
    }
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

/// The overload smoke suite (`scripts/check.sh` stage 4): open-loop
/// traffic with generated surge/flash-crowd/gray plans across all six
/// protocol families and twenty seeds — the retry-storm and goodput
/// re-convergence (metastability) checkers are armed on every run. A
/// budget-pressure arm then proves the retry budget actually bounds token
/// draws under a slow node, and a checker-validation arm turns every
/// protection off and asserts the same surge drives the run metastable —
/// the checker has to be able to catch the failure mode it guards against.
fn overload_smoke() -> i32 {
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
    let mut ok = true;
    let (mut shed, mut deadlines, mut exhausted, mut retries) = (0u64, 0u64, 0u64, 0u64);
    let mut runs = 0u32;
    let mut tally = |r: &ChaosReport| {
        runs += 1;
        shed += r.metrics.admission_shed;
        deadlines += r.metrics.deadline_aborts;
        exhausted += r.metrics.retry_budget_exhausted;
        retries += r.metrics.client_retries;
    };
    // Twenty seeds across all six families under generated overload plans
    // (a surge, a flash crowd, a slow node and a latency spike, each
    // paired with its cure). The QR family runs with the engine-side
    // protections armed; the baselines and Q-Store have no engine knobs
    // and rely on the driver-side queue bound and deadline abandon alone.
    for seed in 1..=20u64 {
        for proto in ALL_PROTOS {
            let plan = generate(seed, 10, spec.horizon, &FaultBudget::overload(4));
            let protected = Scenario {
                protect: true,
                ..Scenario::smoke(proto, seed)
            };
            let r = protected.check(&spec, &plan, None);
            ok &= r.ok();
            tally(&r);
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
        let r = run_plan(cl, 10, &spec, &slow_surge);
        println!("[qr-budget seed={seed} nodes=10] {}", r.summary_line());
        for v in &r.violations {
            println!("    ! {v}");
            ok = false;
        }
        tally(&r);
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
        let r = Scenario::smoke(Proto::Qr, seed).run(&unprotected, &surge_only);
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
    println!(
        "\naggregate: admission_shed={shed} deadline_aborts={deadlines} \
         retry_budget_exhausted={exhausted} client_retries={retries}"
    );
    for (counter, v) in [
        ("admission_shed", shed),
        ("deadline_aborts", deadlines),
        ("retry_budget_exhausted", exhausted),
        ("client_retries", retries),
    ] {
        if v == 0 {
            eprintln!("overload smoke: counter {counter} never fired");
            ok = false;
        }
    }
    if runs < 120 {
        eprintln!("overload smoke: only {runs} protected run(s) (< 120)");
        ok = false;
    }
    if ok {
        println!(
            "\nchaos overload smoke: all invariants held, no retry storms, goodput reconverged"
        );
        0
    } else {
        eprintln!("\nchaos overload smoke: FAILED");
        1
    }
}
