//! Generator of the golden behaviour digests (`digests.txt`, next to this
//! file). Shared by `examples/golden_digests.rs`, which prints the text,
//! and `tests/golden_digests.rs`, which regenerates it and fails on drift.
//!
//! The simulator is deterministic, so what a fixed set of seeded runs
//! *does* can be written down: one line per leg holding workload tallies,
//! a hash of the full engine-event stream, a hash of the final store, and
//! every simulator counter by name. A change that is supposed to preserve
//! behaviour (a queue swap, a refactor) must leave the file
//! byte-identical; a change that is supposed to alter behaviour
//! regenerates it and the diff shows reviewers exactly which legs moved.
//!
//! Legs: closed-loop bank on all six protocol families, QR-CN through the
//! open-loop admission path, QR-CN under a chaos-smoke fault plan, durable
//! QR-CN and Q-Store through amnesiac restarts with torn WAL tails, QR and
//! Q-Store healed by the failure detector alone, the five non-bank
//! benchmarks through `workloads::run`, and for the model checker the
//! DFS+PCT distinct-schedule sets, forced-prefix tie groups and the four
//! injected-bug counterexamples.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_chaos::{generate, run_plan, ChaosSpec, ChaosTarget, FaultBudget, FaultPlan};
use qrdtm_core::{
    Cluster, DetectorConfig, DtmConfig, DurabilityConfig, InjectedBug, NestingMode, ObjectId,
};
use qrdtm_mc::{
    dfs_explore, pct_explore, replay, run_schedule, ForcedPolicy, McBug, McProto, Scope, Trace,
};
use qrdtm_qstore::{QStoreBug, QStoreCluster, QStoreConfig};
use qrdtm_sim::{EngineEvent, Metrics, SimDuration};
use qrdtm_workloads::{
    run, run_bank, run_open_loop, BankSpec, Benchmark, OpenLoopSpec, RunSpec, WorkloadParams,
};

const NODES: usize = 6;
const ACCOUNTS: u64 = 8;
const SEED: u64 = 7;

/// FNV-1a over 64-bit words (stable across runs and toolchains, unlike
/// `DefaultHasher`).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fnv_text(s: &str) -> u64 {
    fnv(s.bytes().map(u64::from))
}

/// Every named counter in [`Metrics`] as `(name, value)` pairs, so a drift
/// names the counter. `Metrics::queue` (event-queue internals) is left
/// out: it describes the implementation, not the behaviour.
fn counters(m: &Metrics) -> Vec<(String, u64)> {
    let mut d: Vec<(String, u64)> = [
        ("sent_total", m.sent_total),
        ("bytes_total", m.bytes_total),
        ("dropped", m.dropped),
        ("dropped_by_partition", m.dropped_by_partition),
        ("dropped_by_link", m.dropped_by_link),
        ("events", m.events),
        ("heartbeats_sent", m.heartbeats_sent),
        ("heartbeats_delivered", m.heartbeats_delivered),
        ("suspicions", m.suspicions),
        ("false_suspicions", m.false_suspicions),
        ("rejoins", m.rejoins),
        ("rpc_retries", m.rpc_retries),
        ("hedged_calls", m.hedged_calls),
        ("hedged_wins", m.hedged_wins),
        ("wasted_replies", m.wasted_replies),
        ("no_timeout_dead_calls", m.no_timeout_dead_calls),
        ("log_replays", m.log_replays),
        ("torn_tails", m.torn_tails),
        ("repair_rounds", m.repair_rounds),
        ("repaired_objects", m.repaired_objects),
        ("repair_bytes", m.repair_bytes),
        ("admission_shed", m.admission_shed),
        ("deadline_aborts", m.deadline_aborts),
        ("retry_budget_exhausted", m.retry_budget_exhausted),
        ("wasted_retries", m.wasted_retries),
        ("hedges_suppressed", m.hedges_suppressed),
        ("client_retries", m.client_retries),
        ("latency_count", m.latency.count()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let indexed = |d: &mut Vec<(String, u64)>, name: &str, vals: &[u64], keep_zero: bool| {
        for (i, &v) in vals.iter().enumerate() {
            if v != 0 || keep_zero {
                d.push((format!("{name}[{i}]"), v));
            }
        }
    };
    indexed(&mut d, "sent_by_class", &m.sent_by_class, false);
    indexed(&mut d, "processed_by_node", &m.processed_by_node, true);
    indexed(
        &mut d,
        "engine_events_by_kind",
        &m.engine_events_by_kind,
        false,
    );
    d
}

/// One observed simulator execution: everything a behaviour-preserving
/// change must leave untouched, in comparable form.
pub(crate) struct Observation {
    /// Leg name (first token of the golden line).
    pub leg: String,
    /// Workload tallies (commits / aborts / messages, or the open-loop
    /// and chaos equivalents).
    pub tallies: Vec<(&'static str, u64)>,
    /// The full recorded engine-event stream (hashed into one field).
    pub engine_log: Vec<EngineEvent>,
    /// Free-form text hashed into one field each: the final store, the
    /// chaos summary line, the fault log.
    pub texts: Vec<(&'static str, String)>,
    /// Every simulator counter by name.
    pub counters: Vec<(String, u64)>,
}

impl Observation {
    fn new(leg: &str, tallies: Vec<(&'static str, u64)>, m: &Metrics, store: Vec<String>) -> Self {
        Observation {
            leg: leg.to_string(),
            tallies,
            engine_log: m.engine_event_log.clone(),
            texts: vec![("store", store.join(";"))],
            counters: counters(m),
        }
    }

    /// The golden line: `leg key=value key=value …`.
    pub(crate) fn line(&self) -> String {
        let mut s = self.leg.clone();
        for (k, v) in &self.tallies {
            write!(s, " {k}={v}").expect("write to String");
        }
        let stream = self
            .engine_log
            .iter()
            .flat_map(|e| [e.at_ns, u64::from(e.node), e.kind as u64, e.detail]);
        write!(
            s,
            " engine_events={} engine_hash={:016x}",
            self.engine_log.len(),
            fnv(stream)
        )
        .expect("write to String");
        for (k, t) in &self.texts {
            write!(s, " {k}={:016x}", fnv_text(t)).expect("write to String");
        }
        for (k, v) in &self.counters {
            write!(s, " {k}={v}").expect("write to String");
        }
        s
    }
}

/// Every account's committed value and version, read back through the
/// family's own committed-state accessors.
fn store<P: ChaosTarget>(proto: &P) -> Vec<String> {
    (0..ACCOUNTS)
        .map(ObjectId)
        .map(|o| {
            format!(
                "{:?}@{:?}",
                proto.committed_int(o),
                proto.committed_version(o)
            )
        })
        .collect()
}

/// Closed-loop bank on `proto`.
fn observe_bank<P: ChaosTarget + 'static>(leg: &str, proto: Rc<P>) -> Observation {
    proto.sim().record_engine_events(true);
    let spec = BankSpec {
        accounts: ACCOUNTS,
        read_pct: 50,
        warmup: SimDuration::from_millis(500),
        duration: SimDuration::from_secs(2),
        clients_per_node: 1,
    };
    let r = run_bank(Rc::clone(&proto), NODES, &spec);
    Observation::new(
        leg,
        vec![
            ("commits", r.commits),
            ("aborts", r.aborts),
            ("messages", r.messages),
        ],
        &proto.sim().metrics(),
        store(&*proto),
    )
}

fn qr(mode: NestingMode) -> Rc<Cluster> {
    Rc::new(Cluster::new(DtmConfig {
        nodes: NODES,
        mode,
        seed: SEED,
        ..Default::default()
    }))
}

/// Open-loop leg: the admission-control path (shedding, deadlines, retry
/// budgets) is timer-heavy and exercises cancel/lazy-skip in the queue.
fn observe_open_loop() -> Observation {
    let proto = qr(NestingMode::Closed);
    proto.sim().record_engine_events(true);
    let spec = OpenLoopSpec {
        accounts: ACCOUNTS,
        rate_tps: 400,
        ..Default::default()
    };
    let r = run_open_loop(
        Rc::clone(&proto),
        NODES,
        &spec,
        SimDuration::from_millis(500),
        SimDuration::from_secs(2),
    );
    Observation::new(
        "open-loop/QR-CN",
        vec![
            ("offered", r.offered),
            ("admitted", r.admitted),
            ("shed", r.shed),
            ("goodput", r.goodput),
            ("late", r.late),
            ("abandoned", r.abandoned),
        ],
        &proto.sim().metrics(),
        store(&*proto),
    )
}

/// One nemesis run of `plan` on a fresh `proto`: the report's fingerprint,
/// summary and fault log next to the usual engine-event, store and counter
/// digests.
fn observe_plan<P: ChaosTarget + 'static>(
    leg: &str,
    proto: &Rc<P>,
    nodes: usize,
    spec: &ChaosSpec,
    plan: &FaultPlan,
) -> Observation {
    let report = run_plan(Rc::clone(proto), nodes, spec, plan);
    let fp = &report.fingerprint;
    let mut obs = Observation::new(
        leg,
        vec![
            ("commits", fp.commits),
            ("aborts", fp.aborts),
            ("messages", fp.sent_total),
            ("end_ns", fp.end_ns),
            ("violations", report.violations.len() as u64),
        ],
        &report.metrics,
        store(&**proto),
    );
    obs.texts.push(("summary", report.summary_line()));
    obs.texts.push(("fault_log", report.fault_log.join(";")));
    obs
}

/// Chaos-smoke leg: crashes, partitions and recovery drive the
/// failure-detector timer plane (heartbeats, suspicions, call timeouts)
/// far harder than the healthy bank does.
fn observe_chaos() -> Observation {
    let spec = ChaosSpec::smoke();
    let plan = generate(11, NODES as u32, spec.horizon, &FaultBudget::full(5));
    observe_plan(
        "chaos-smoke/QR-CN",
        &qr(NestingMode::Closed),
        NODES,
        &spec,
        &plan,
    )
}

/// Cluster size and seed of the amnesia and detector legs (the shape
/// `repro chaos --smoke --amnesia` / `--detector` runs first).
const CHAOS_NODES: usize = 10;
const CHAOS_SEED: u64 = 1;

fn chaos_qr(mode: NestingMode, durable: bool, detector: bool) -> Rc<Cluster> {
    let mut cfg = DtmConfig {
        nodes: CHAOS_NODES,
        mode,
        seed: CHAOS_SEED,
        durability: durable.then(DurabilityConfig::default),
        ..Default::default()
    };
    if detector {
        cfg.detector = Some(DetectorConfig::default());
        cfg.rpc_timeout = Some(SimDuration::from_millis(100));
    }
    Rc::new(Cluster::new(cfg))
}

fn chaos_qstore(durable: bool, detector: bool) -> Rc<QStoreCluster> {
    Rc::new(QStoreCluster::new(QStoreConfig {
        nodes: CHAOS_NODES,
        seed: CHAOS_SEED,
        durability: durable.then(DurabilityConfig::default),
        detector: detector.then(DetectorConfig::default),
        ..Default::default()
    }))
}

/// A Q-Store nemesis leg, plus what only that family keeps: the per-replica
/// batch-WAL record/fsync totals and every sampled group-commit latency.
fn observe_qstore_plan(
    leg: &str,
    proto: &Rc<QStoreCluster>,
    spec: &ChaosSpec,
    plan: &str,
) -> Observation {
    let plan = FaultPlan::parse(plan).expect("golden plan parses");
    let mut obs = observe_plan(leg, proto, CHAOS_NODES, spec, &plan);
    let (records, fsyncs) = proto.wal_totals();
    let lat = proto.fsync_latencies();
    obs.tallies.extend([
        ("wal_records", records),
        ("wal_fsyncs", fsyncs),
        ("fsync_samples", lat.len() as u64),
        ("fsync_hash", fnv(lat)),
    ]);
    obs
}

/// Amnesia legs: durable replicas, a torn WAL tail, an amnesiac restart
/// (replay, torn-tail truncation, quorum repair, re-baseline). The Q-Store
/// plan also amnesia-crashes the planner, so failover adopts only the
/// quorum-acknowledged durable prefix. Detector legs: the oracle is off,
/// crash and heal touch the simulator only, and the heartbeat detector
/// must eject and rejoin on its own (for Q-Store the victim is the
/// planner, so ejection is also a failover).
fn observe_amnesia_and_detector() -> Vec<Observation> {
    let oracle = ChaosSpec::smoke();
    let detector = ChaosSpec {
        detector: true,
        ..ChaosSpec::smoke()
    };
    let torn_restart = "@400000us corrupt-tail 2\n@400000us crash-amnesia 2\n@1100000us recover 2";
    let crash_heal = FaultPlan::parse("@300000us crash 1\n@1100000us recover 1");
    vec![
        observe_plan(
            "chaos-amnesia/QR-CN",
            &chaos_qr(NestingMode::Closed, true, false),
            CHAOS_NODES,
            &oracle,
            &FaultPlan::parse(torn_restart).expect("golden plan parses"),
        ),
        observe_qstore_plan(
            "chaos-amnesia/Q-Store",
            &chaos_qstore(true, false),
            &oracle,
            "@400000us corrupt-tail 2\n@400000us crash-amnesia 2\n@700000us crash-amnesia 0\n\
             @1000000us recover 2\n@1200000us recover 0",
        ),
        observe_plan(
            "chaos-detector/QR",
            &chaos_qr(NestingMode::Flat, false, true),
            CHAOS_NODES,
            &detector,
            &crash_heal.expect("golden plan parses"),
        ),
        observe_qstore_plan(
            "chaos-detector/Q-Store",
            &chaos_qstore(false, true),
            &detector,
            "@300000us crash 0\n@1100000us recover 0",
        ),
    ]
}

/// Every simulator-level leg, in file order.
pub(crate) fn sim_legs() -> Vec<Observation> {
    vec![
        observe_bank("bank/QR", qr(NestingMode::Flat)),
        observe_bank("bank/QR-CN", qr(NestingMode::Closed)),
        observe_bank("bank/QR-CHK", qr(NestingMode::Checkpoint)),
        observe_bank(
            "bank/TFA",
            Rc::new(TfaCluster::new(TfaConfig {
                nodes: NODES,
                seed: SEED,
                ..Default::default()
            })),
        ),
        observe_bank(
            "bank/Decent-STM",
            Rc::new(DecentCluster::new(DecentConfig {
                nodes: NODES,
                seed: SEED,
                ..Default::default()
            })),
        ),
        observe_bank(
            "bank/Q-Store",
            Rc::new(QStoreCluster::new(QStoreConfig {
                nodes: NODES,
                seed: SEED,
                ..Default::default()
            })),
        ),
        observe_open_loop(),
        observe_chaos(),
    ]
    .into_iter()
    .chain(observe_amnesia_and_detector())
    .collect()
}

/// One benchmark through `workloads::run` (setup, warm-up, 3 s window) on
/// 13 QR-CN nodes. `run` owns its cluster, so the leg holds what it hands
/// back: the `RunResult` message tallies and every `DtmStats` counter.
fn closed_loop_line(bench: Benchmark) -> String {
    let r = run(
        DtmConfig {
            nodes: 13,
            mode: NestingMode::Closed,
            seed: SEED,
            ..Default::default()
        },
        &RunSpec {
            bench,
            params: WorkloadParams {
                read_pct: 50,
                calls: 2,
                objects: 16,
            },
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            clients_per_node: 1,
            failures: 0,
        },
    );
    // `DtmStats`'s derived `Debug` names every counter; reshape it into the
    // file's ` key=value` tokens so a drift names the counter that moved.
    let stats = format!("{:?}", r.stats)
        .replace("DtmStats { ", "")
        .replace(" }", "")
        .replace(": ", "=")
        .replace(", ", " ");
    format!(
        "closed-loop/{bench:?}/QR-CN messages={} read_msgs={} commit_msgs={} {stats}",
        r.messages, r.read_msgs, r.commit_msgs
    )
}

/// The non-bank benchmarks, in file order.
pub(crate) fn closed_loop_lines() -> Vec<String> {
    [
        Benchmark::Hashmap,
        Benchmark::SList,
        Benchmark::RBTree,
        Benchmark::Bst,
        Benchmark::Vacation,
    ]
    .into_iter()
    .map(closed_loop_line)
    .collect()
}

fn dotted(v: impl IntoIterator<Item = usize>) -> String {
    let s: Vec<String> = v.into_iter().map(|c| c.to_string()).collect();
    if s.is_empty() {
        "-".to_string()
    } else {
        s.join(".")
    }
}

/// DFS then PCT at the smoke scope: the report shape, the full sorted
/// distinct-schedule key set (hashed) and the counterexample, if any —
/// its choice vector, its violation text, and the fingerprint it replays
/// to after a round trip through the trace text format.
fn mc_explore_line(leg: &str, scope: &Scope, budget: u64) -> String {
    let mut seen = HashSet::new();
    let dfs = dfs_explore(scope, budget, &mut seen);
    let pct = pct_explore(scope, budget, 1, &mut seen);
    let mut keys: Vec<u64> = seen.into_iter().collect();
    keys.sort_unstable();
    let mut s = format!(
        "{leg} runs={} distinct={} exhausted={} max_depth={} keys={} keys_hash={:016x}",
        dfs.runs + pct.runs,
        dfs.distinct + pct.distinct,
        u8::from(dfs.exhausted),
        dfs.max_depth.max(pct.max_depth),
        keys.len(),
        fnv(keys.iter().copied()),
    );
    match dfs.counterexample.or(pct.counterexample) {
        None => s.push_str(" cex=none"),
        Some(cex) => {
            let text = Trace {
                scope: *scope,
                choices: cex.choices.clone(),
            }
            .to_string();
            let parsed = Trace::parse(&text).expect("trace round-trips");
            let out = replay(&parsed.scope, &parsed.choices);
            write!(
                s,
                " cex={} violations={:016x} replay_fingerprint={:016x}",
                dotted(cex.choices),
                fnv_text(&cex.violations.join(";")),
                out.fingerprint
            )
            .expect("write to String");
        }
    }
    s
}

/// One forced-prefix run on QR-CN: the per-decision tie-group structure
/// (how many same-instant events each choice point saw, and which) is the
/// surface the mc scheduler hooks into.
fn mc_forced_line(prefix: Vec<usize>) -> String {
    let scope = Scope::smoke(McProto::Qr(NestingMode::Closed));
    let leg = format!("mc/forced/qr-cn/{}", dotted(prefix.iter().copied()));
    let out = run_schedule(&scope, Box::new(ForcedPolicy::new(prefix)));
    format!(
        "{leg} choices={} groups={} groups_hash={:016x} fingerprint={:016x} commits={} aborts={} \
         violations={}",
        dotted(out.choices.iter().copied()),
        dotted(out.groups.iter().map(Vec::len)),
        fnv_text(&format!("{:?}", out.groups)),
        out.fingerprint,
        out.commits,
        out.aborts,
        out.violations.len()
    )
}

/// Every model-checker leg, in file order.
pub(crate) fn mc_lines() -> Vec<String> {
    let flat = McProto::Qr(NestingMode::Flat);
    let mut lines = Vec::new();
    for (label, proto) in [
        ("qr", flat),
        ("qr-cn", McProto::Qr(NestingMode::Closed)),
        ("qr-chk", McProto::Qr(NestingMode::Checkpoint)),
        ("qstore", McProto::QStore),
    ] {
        let leg = format!("mc/explore/{label}");
        lines.push(mc_explore_line(&leg, &Scope::smoke(proto), 40));
    }
    for (label, bug, proto) in [
        (
            "skip-vote-check",
            McBug::Qr(InjectedBug::SkipVoteCheck),
            flat,
        ),
        (
            "skip-epoch-fence",
            McBug::Qr(InjectedBug::SkipEpochFence),
            flat,
        ),
        (
            "skip-tag-check",
            McBug::QStore(QStoreBug::SkipTagCheck),
            McProto::QStore,
        ),
        (
            "ack-before-fsync",
            McBug::QStore(QStoreBug::AckBeforeFsync),
            McProto::QStore,
        ),
    ] {
        let scope = Scope {
            injected_bug: Some(bug),
            ..Scope::smoke(proto)
        };
        lines.push(mc_explore_line(&format!("mc/bug/{label}"), &scope, 120));
    }
    for prefix in [vec![], vec![1], vec![2, 1], vec![1, 0, 2], vec![3, 1, 4, 1]] {
        lines.push(mc_forced_line(prefix));
    }
    lines
}

/// The full golden text, exactly as committed.
pub(crate) fn golden() -> String {
    let mut s = String::from(
        "# Golden behaviour digests, one leg per line. Regenerate with\n\
         #   cargo run --release --example golden_digests > tests/golden/digests.txt\n\
         # tests/golden_digests.rs regenerates this text and fails on drift.\n",
    );
    let sim = sim_legs();
    for line in sim
        .iter()
        .map(Observation::line)
        .chain(closed_loop_lines())
        .chain(mc_lines())
    {
        s.push_str(&line);
        s.push('\n');
    }
    s
}
