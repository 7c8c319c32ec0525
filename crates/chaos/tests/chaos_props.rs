//! Property tests for the chaos subsystem: random bounded fault plans
//! never break balance conservation or serializability on any of the five
//! protocol configurations, and the nemesis is deterministic per seed.
//!
//! Each case is a complete simulated run (workload + nemesis + drain +
//! checkers), so the case counts are deliberately small — the value is in
//! the breadth of random plans, not the raw count.

use std::rc::Rc;

use proptest::prelude::*;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_chaos::{generate, run_plan, ChaosReport, ChaosSpec, FaultBudget, FaultPlan};
use qrdtm_core::{Cluster, DtmConfig, DurabilityConfig, NestingMode};
use qrdtm_sim::{fnv, EngineEventKind, SimDuration};

const NODES: usize = 10;

fn spec() -> ChaosSpec {
    ChaosSpec {
        accounts: 8,
        horizon: SimDuration::from_millis(1_500),
        recovery: SimDuration::from_millis(1_500),
        ..ChaosSpec::default()
    }
}

fn qr(mode: NestingMode, seed: u64) -> Rc<Cluster> {
    Rc::new(Cluster::new(DtmConfig {
        nodes: NODES,
        mode,
        seed,
        ..Default::default()
    }))
}

/// Run a generated plan on configuration `proto` (0..5), with the fault
/// budget masked to what the protocol supports.
fn run_config(proto: usize, seed: u64, events: usize) -> ChaosReport {
    let spec = spec();
    let budget = if proto < 3 {
        FaultBudget::full(events)
    } else {
        FaultBudget::gray(events)
    };
    let plan = generate(seed, NODES as u32, spec.horizon, &budget);
    match proto {
        0 => run_plan(qr(NestingMode::Flat, seed), &spec, &plan),
        1 => run_plan(qr(NestingMode::Closed, seed), &spec, &plan),
        2 => run_plan(qr(NestingMode::Checkpoint, seed), &spec, &plan),
        3 => {
            let cl = Rc::new(TfaCluster::new(TfaConfig {
                nodes: NODES,
                seed,
                ..Default::default()
            }));
            run_plan(cl, &spec, &plan)
        }
        _ => {
            let cl = Rc::new(DecentCluster::new(DecentConfig {
                nodes: NODES,
                seed,
                ..Default::default()
            }));
            run_plan(cl, &spec, &plan)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random bounded plans never violate balance conservation (or any
    /// other checked invariant) on any of the five protocol configs.
    #[test]
    fn random_plans_preserve_invariants_on_all_configs(
        seed in 0u64..1_000,
        events in 1usize..8,
    ) {
        for proto in 0..5 {
            let r = run_config(proto, seed, events);
            prop_assert!(
                r.ok(),
                "config {proto} seed={seed} events={events}: {:?}\nfaults: {:?}",
                r.violations, r.fault_log
            );
            prop_assert!(r.drained, "config {proto} seed={seed}: did not quiesce");
        }
    }

    /// The nemesis is deterministic: the same seed and plan produce the
    /// same fingerprint (commits, aborts, messages, events, end time).
    #[test]
    fn nemesis_runs_are_deterministic_per_seed(seed in 0u64..1_000) {
        // One fault-tolerant config and one baseline is enough per case;
        // the unit tests already pin determinism on QR-CN.
        for proto in [0usize, 4] {
            let a = run_config(proto, seed, 5);
            let b = run_config(proto, seed, 5);
            prop_assert_eq!(a.fingerprint, b.fingerprint, "proto {} diverged", proto);
            prop_assert_eq!(a.fault_log, b.fault_log);
        }
    }

    /// Plan text is a lossless format: any generator-produced plan —
    /// including durable budgets with the crash-amnesia and corrupt-tail
    /// verbs — parses back to exactly itself.
    #[test]
    fn plan_text_round_trips_losslessly(seed in 0u64..100_000, events in 0usize..14) {
        for budget in [
            FaultBudget::full(events),
            FaultBudget::gray(events),
            FaultBudget::durable(events),
        ] {
            let plan = generate(seed, NODES as u32, spec().horizon, &budget);
            let text = plan.to_text();
            let parsed = FaultPlan::parse(&text).unwrap();
            prop_assert_eq!(&parsed, &plan, "seed={} text:\n{}", seed, text);
        }
    }

    /// Exhaustive-exploration prerequisite: two identical runs emit the
    /// identical full engine-event stream — every kind, node, detail and
    /// timestamp, hashed in order, not just a counter digest. This is what
    /// rules out map-iteration-order nondeterminism anywhere on the wire
    /// path (the model checker's replay guarantee depends on it).
    #[test]
    fn identical_runs_emit_identical_engine_event_streams(seed in 0u64..1_000) {
        for proto in [1usize, 2] {
            let a = run_config(proto, seed, 5);
            let b = run_config(proto, seed, 5);
            prop_assert_eq!(
                a.metrics.engine_event_log.len(),
                b.metrics.engine_event_log.len(),
                "proto {} event counts diverged", proto
            );
            prop_assert_eq!(
                event_stream_hash(&a),
                event_stream_hash(&b),
                "proto {} event streams diverged", proto
            );
        }
    }

    /// A `--save-plan` file (header comment + plan text) reparsed and
    /// rerun on a fresh cluster reproduces the identical report summary
    /// line, fingerprint and violations — the snapshot contract behind
    /// `repro chaos --plan FILE`.
    #[test]
    fn saved_plan_replay_reproduces_identical_report_line(
        seed in 0u64..1_000,
        events in 1usize..8,
    ) {
        let spec = spec();
        let plan = generate(seed, NODES as u32, spec.horizon, &FaultBudget::full(events));
        // Byte-identical to what `repro chaos --save-plan` writes.
        let saved = format!(
            "# generated for --proto qr-cn --seed {seed} --nodes {NODES}\n{}",
            plan.to_text()
        );
        let parsed = FaultPlan::parse(&saved).unwrap();
        prop_assert_eq!(&parsed, &plan);
        let a = run_plan(qr(NestingMode::Closed, seed), &spec, &plan);
        let b = run_plan(qr(NestingMode::Closed, seed), &spec, &parsed);
        prop_assert_eq!(a.summary_line(), b.summary_line());
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        let av: Vec<String> = a.violations.iter().map(ToString::to_string).collect();
        let bv: Vec<String> = b.violations.iter().map(ToString::to_string).collect();
        prop_assert_eq!(av, bv);
    }

    /// Durable QR clusters survive random plans that include amnesiac
    /// restarts and torn tails: every checked invariant (including the
    /// durability checker) holds, and the runs are deterministic per seed.
    #[test]
    fn amnesia_plans_preserve_invariants_and_determinism(
        seed in 0u64..1_000,
        events in 2usize..8,
    ) {
        let a = run_durable(seed, events);
        prop_assert!(
            a.ok(),
            "seed={seed} events={events}: {:?}\nfaults: {:?}",
            a.violations, a.fault_log
        );
        prop_assert!(a.drained, "seed={seed}: did not quiesce");
        let b = run_durable(seed, events);
        prop_assert_eq!(&a.fingerprint, &b.fingerprint);
        prop_assert_eq!(&a.fault_log, &b.fault_log);
        prop_assert_eq!(
            (a.metrics.log_replays, a.metrics.torn_tails, a.metrics.repair_rounds,
             a.metrics.repaired_objects, a.metrics.repair_bytes),
            (b.metrics.log_replays, b.metrics.torn_tails, b.metrics.repair_rounds,
             b.metrics.repaired_objects, b.metrics.repair_bytes)
        );
    }

    /// Durable Q-Store clusters survive the same amnesia budgets: replay
    /// of the fsynced batch prefix plus epoch repair keep every checked
    /// invariant (balance conservation, serializability, batch atomicity,
    /// durability of acked writes), and the runs — including the recovery
    /// counters — are deterministic per seed.
    #[test]
    fn qstore_amnesia_plans_preserve_invariants_and_determinism(
        seed in 0u64..1_000,
        events in 2usize..8,
    ) {
        let a = run_qstore_durable(seed, events);
        prop_assert!(
            a.ok(),
            "seed={seed} events={events}: {:?}\nfaults: {:?}",
            a.violations, a.fault_log
        );
        prop_assert!(a.drained, "seed={seed}: did not quiesce");
        let b = run_qstore_durable(seed, events);
        prop_assert_eq!(&a.fingerprint, &b.fingerprint);
        prop_assert_eq!(&a.fault_log, &b.fault_log);
        prop_assert_eq!(a.summary_line(), b.summary_line());
        prop_assert_eq!(
            (a.metrics.log_replays, a.metrics.torn_tails, a.metrics.repair_rounds,
             a.metrics.repaired_objects, a.metrics.repair_bytes),
            (b.metrics.log_replays, b.metrics.torn_tails, b.metrics.repair_rounds,
             b.metrics.repaired_objects, b.metrics.repair_bytes)
        );
    }

    /// The detector path is deterministic too: with the oracle disabled,
    /// identical seeds reproduce the identical suspicion/view-change trace
    /// (event-by-event, with timestamps), the same view epoch and the same
    /// detector/transport counters — and every invariant still holds.
    #[test]
    fn detector_runs_are_deterministic_per_seed(seed in 0u64..1_000, events in 1usize..6) {
        let a = run_detector(seed, events);
        let b = run_detector(seed, events);
        prop_assert!(
            a.ok(),
            "seed={seed} events={events}: {:?}\nfaults: {:?}",
            a.violations, a.fault_log
        );
        prop_assert_eq!(&a.fingerprint, &b.fingerprint);
        prop_assert_eq!(&a.fault_log, &b.fault_log);
        prop_assert_eq!(a.view_epoch, b.view_epoch);
        prop_assert_eq!(suspicion_trace(&a), suspicion_trace(&b));
        prop_assert_eq!(
            (a.metrics.heartbeats_sent, a.metrics.suspicions,
             a.metrics.false_suspicions, a.metrics.rejoins,
             a.metrics.rpc_retries, a.metrics.hedged_wins),
            (b.metrics.heartbeats_sent, b.metrics.suspicions,
             b.metrics.false_suspicions, b.metrics.rejoins,
             b.metrics.rpc_retries, b.metrics.hedged_wins)
        );
    }
}

/// A durable QR-CN run under a budget that includes amnesiac restarts.
fn run_durable(seed: u64, events: usize) -> ChaosReport {
    let spec = spec();
    let plan = generate(
        seed,
        NODES as u32,
        spec.horizon,
        &FaultBudget::durable(events),
    );
    let cl = Rc::new(Cluster::new(DtmConfig {
        nodes: NODES,
        mode: NestingMode::Closed,
        seed,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    }));
    run_plan(cl, &spec, &plan)
}

/// A durable Q-Store run under a budget that includes amnesiac restarts
/// and torn tails (batch-WAL replay + epoch repair on every recovery).
fn run_qstore_durable(seed: u64, events: usize) -> ChaosReport {
    let spec = spec();
    let plan = generate(
        seed,
        NODES as u32,
        spec.horizon,
        &FaultBudget::durable(events),
    );
    let cl = Rc::new(qrdtm_qstore::QStoreCluster::new(
        qrdtm_qstore::QStoreConfig {
            nodes: NODES,
            seed,
            durability: Some(DurabilityConfig::default()),
            ..Default::default()
        },
    ));
    run_plan(cl, &spec, &plan)
}

/// A QR-CN run with the failure detector on and the oracle off.
fn run_detector(seed: u64, events: usize) -> ChaosReport {
    let spec = ChaosSpec {
        detector: true,
        ..spec()
    };
    let plan = generate(seed, NODES as u32, spec.horizon, &FaultBudget::full(events));
    let cl = Rc::new(Cluster::new(DtmConfig {
        nodes: NODES,
        mode: NestingMode::Closed,
        seed,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        detector: true,
        ..Default::default()
    }));
    run_plan(cl, &spec, &plan)
}

/// FNV-1a over the complete engine-event stream, order-sensitive.
fn event_stream_hash(r: &ChaosReport) -> u64 {
    fnv(r
        .metrics
        .engine_event_log
        .iter()
        .flat_map(|e| [e.kind as u64, u64::from(e.node), e.detail, e.at_ns]))
}

/// The membership trace: every suspicion/rejoin with node, epoch and time.
fn suspicion_trace(r: &ChaosReport) -> Vec<(u8, u32, u64, u64)> {
    r.metrics
        .engine_event_log
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EngineEventKind::NodeSuspected | EngineEventKind::NodeRejoined
            )
        })
        .map(|e| (e.kind as u8, e.node, e.detail, e.at_ns))
        .collect()
}
