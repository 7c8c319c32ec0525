//! Safety and liveness checkers run over a finished (or sampled) nemesis
//! run.
//!
//! Safety is checked post-hoc by [`audit`], the one battery the nemesis and
//! the model checker share: bank-balance conservation (transfers move
//! money, never create or destroy it) and durability at quiescence, and,
//! for targets with a history recorder, 1-copy serializability of the
//! committed history (which subsumes read-your-writes and lost-update
//! detection — see `qrdtm_core::history`). Liveness is checked from
//! progress samples taken during the run: in every sufficiently long
//! *quiet* window (no fault active, after a grace period for
//! timeout/backoff recovery) the commit counter must advance — this covers
//! both "progress between faults" and "re-convergence after heal", since
//! the post-heal tail is itself a quiet window.

use std::fmt;

use qrdtm_core::history::verify;
use qrdtm_core::ObjectId;
use qrdtm_sim::{EngineEvent, EngineEventKind, SimDuration};

use crate::{ChaosTarget, FaultKind};

/// One invariant violation found by the checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosViolation {
    /// The summed committed balances differ from the preloaded total.
    BalanceLeak {
        /// What the accounts were seeded with, summed.
        expected: i64,
        /// What they summed to at quiescence.
        actual: i64,
    },
    /// An account object disappeared from committed state.
    MissingAccount {
        /// The vanished object id.
        oid: u64,
    },
    /// The committed history is not 1-copy serializable (stale read, lost
    /// update, broken version chain — stringified from `core::history`,
    /// and rendered as that text alone).
    History(
        /// The underlying violation, rendered.
        String,
    ),
    /// Batch-oriented protocols only: a committed transaction observed a
    /// write from an epoch that was never acknowledged as a whole — batch
    /// atomicity broken.
    BatchAtomicity(
        /// The underlying violation, rendered.
        String,
    ),
    /// A quiet window saw no commits.
    NoProgress {
        /// Window start (virtual time, ms).
        from_ms: u64,
        /// Window end (virtual time, ms).
        to_ms: u64,
    },
    /// The run never quiesced: tasks were still live when it ended (after
    /// heal-all and the drain for the nemesis, at the horizon for mc).
    Stuck {
        /// Tasks still live at the end of the run.
        live_tasks: usize,
    },
    /// Detector mode: a node crashed (and stayed crashed) but no suspicion
    /// for it was raised within the detection-latency bound.
    DetectionTooSlow {
        /// The crashed node.
        node: u32,
        /// When it crashed (virtual time, ms).
        crashed_at_ms: u64,
        /// The bound it should have been suspected within (ms).
        bound_ms: u64,
    },
    /// Detector mode: after heal-all and the recovery tail, a
    /// network-alive node was still missing from the membership view (or a
    /// dead one still in it).
    MembershipDiverged {
        /// The node whose view-aliveness disagrees with the network.
        node: u32,
        /// Whether the network considers it alive.
        net_alive: bool,
    },
    /// A write acknowledged to a client by a successful commit is gone
    /// from committed state at quiescence — amnesiac restarts lost data
    /// the durability layer had promised.
    DurabilityLost {
        /// The object whose acknowledged write vanished.
        oid: u64,
        /// The highest version a commit acknowledged for it.
        acked_version: u64,
        /// The version committed state holds now (`None` = object gone).
        committed_version: Option<u64>,
    },
    /// Overload: clients drew more retry tokens than the budget could
    /// mathematically have supplied — the token bucket (or its refill
    /// accounting) regressed and a retry storm slipped through.
    RetryStorm {
        /// Retry tokens actually drawn.
        retries: u64,
        /// The maximum the budget could have supplied.
        budget: u64,
    },
    /// Overload: after the surge ended and the grace period passed,
    /// within-deadline goodput never re-converged toward its pre-surge
    /// baseline — the system went metastable (a backlog of already-dead
    /// work keeps starving fresh arrivals).
    Metastable {
        /// Goodput rate before the surge, milli-transactions per second.
        baseline_milli_tps: u64,
        /// Goodput rate in the post-surge quiet tail, milli-tps.
        recovered_milli_tps: u64,
        /// Required recovery: `recovered * factor_pct >= baseline * 100`.
        factor_pct: u32,
    },
}

impl fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosViolation::BalanceLeak { expected, actual } => write!(
                f,
                "balance conservation violated: expected total {expected}, found {actual}"
            ),
            ChaosViolation::MissingAccount { oid } => {
                write!(f, "account object {oid} has no committed copy")
            }
            ChaosViolation::History(v) => f.write_str(v),
            ChaosViolation::BatchAtomicity(v) => write!(f, "batch atomicity broken: {v}"),
            ChaosViolation::NoProgress { from_ms, to_ms } => write!(
                f,
                "no commits in the fault-free window {from_ms}ms..{to_ms}ms"
            ),
            ChaosViolation::Stuck { live_tasks } => {
                write!(f, "stuck: {live_tasks} task(s) still live at the end of the run")
            }
            ChaosViolation::DetectionTooSlow {
                node,
                crashed_at_ms,
                bound_ms,
            } => write!(
                f,
                "node {node} crashed at {crashed_at_ms}ms but was not suspected within {bound_ms}ms"
            ),
            ChaosViolation::MembershipDiverged { node, net_alive } => write!(
                f,
                "membership diverged after heal: node {node} is {} in the network but {} in the view",
                if *net_alive { "alive" } else { "dead" },
                if *net_alive { "missing" } else { "present" },
            ),
            ChaosViolation::DurabilityLost {
                oid,
                acked_version,
                committed_version,
            } => match committed_version {
                Some(v) => write!(
                    f,
                    "durability lost: object {oid} was acknowledged at version {acked_version} but committed state regressed to {v}"
                ),
                None => write!(
                    f,
                    "durability lost: object {oid} was acknowledged at version {acked_version} but has no committed copy"
                ),
            },
            ChaosViolation::RetryStorm { retries, budget } => write!(
                f,
                "retry storm: {retries} retry tokens drawn but the budget could supply at most {budget}"
            ),
            ChaosViolation::Metastable {
                baseline_milli_tps,
                recovered_milli_tps,
                factor_pct,
            } => write!(
                f,
                "metastable after surge: goodput recovered to {recovered_milli_tps} milli-tps, \
                 needed at least 100/{factor_pct} of the {baseline_milli_tps} milli-tps baseline"
            ),
        }
    }
}

/// One progress probe taken by the nemesis monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Virtual time of the probe, nanoseconds.
    pub at_ns: u64,
    /// Cumulative committed transactions at the probe.
    pub commits: u64,
    /// Cumulative within-deadline commits at the probe (open-loop runs;
    /// equals `commits` for closed-loop runs, which have no deadlines).
    pub goodput: u64,
    /// Whether no fault was active at the probe.
    pub quiet: bool,
}

/// Check liveness over the monitor samples: within every maximal quiet run
/// of samples, once `grace` has passed since the run began (timeouts and
/// backoffs from the preceding fault need time to unwind), any span of at
/// least `window` must contain a commit.
pub fn check_liveness(
    samples: &[Sample],
    grace: SimDuration,
    window: SimDuration,
) -> Vec<ChaosViolation> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < samples.len() {
        if !samples[i].quiet {
            i += 1;
            continue;
        }
        // Maximal quiet run [i, j).
        let mut j = i;
        while j < samples.len() && samples[j].quiet {
            j += 1;
        }
        let run = &samples[i..j];
        let start_ns = run[0].at_ns + grace.as_nanos();
        if let Some(first) = run.iter().position(|s| s.at_ns >= start_ns) {
            let checked = &run[first..];
            if let (Some(a), Some(b)) = (checked.first(), checked.last()) {
                if b.at_ns - a.at_ns >= window.as_nanos() && b.commits == a.commits {
                    out.push(ChaosViolation::NoProgress {
                        from_ms: a.at_ns / 1_000_000,
                        to_ms: b.at_ns / 1_000_000,
                    });
                }
            }
        }
        i = j;
    }
    out
}

/// Detector mode: every crash that *stayed* in effect for at least `bound`
/// must have produced a [`EngineEventKind::NodeSuspected`] for its victim
/// within `bound` of the crash. Crashes cured earlier (an explicit recover
/// of the victim or the heal-all backstop, both of which emit
/// `FaultInjected` cure events) are excused — the detector cannot be
/// required to notice a fault that was gone before its window elapsed.
///
/// `events` is the recorded engine-event log; fault codes follow
/// [`FaultKind::code`], plus [`FaultKind::HEAL_ALL`].
pub fn check_detection_latency(events: &[EngineEvent], bound: SimDuration) -> Vec<ChaosViolation> {
    use FaultKind as F;
    // Partition intervals confound the bound: while the network is split
    // the detector may be *unable* to eject the crash victim (ejection
    // refuses to destroy the quorums once the partition has cost other
    // members), so crashes whose window overlaps a partition are excused.
    let mut partitions: Vec<(u64, u64)> = Vec::new();
    let mut open: Option<u64> = None;
    for ev in events {
        if ev.kind != EngineEventKind::FaultInjected {
            continue;
        }
        match ev.detail {
            F::PARTITION => open = open.or(Some(ev.at_ns)),
            F::HEAL | F::HEAL_ALL => {
                if let Some(s) = open.take() {
                    partitions.push((s, ev.at_ns));
                }
            }
            _ => {}
        }
    }
    if let Some(s) = open {
        partitions.push((s, u64::MAX));
    }
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.kind != EngineEventKind::FaultInjected
            || (ev.detail != F::CRASH && ev.detail != F::CRASH_READ_QUORUM)
        {
            continue;
        }
        let deadline = ev.at_ns.saturating_add(bound.as_nanos());
        if partitions
            .iter()
            .any(|&(s, e)| s <= deadline && e >= ev.at_ns)
        {
            continue;
        }
        // Already out of the view when it crashed (suspected earlier, e.g.
        // by a preceding partition, and not rejoined since): no further
        // suspicion can or need fire.
        let already_out = events[..i]
            .iter()
            .rev()
            .filter(|e| e.node == ev.node)
            .find_map(|e| match e.kind {
                EngineEventKind::NodeSuspected => Some(true),
                EngineEventKind::NodeRejoined => Some(false),
                _ => None,
            })
            .unwrap_or(false);
        if already_out {
            continue;
        }
        let mut cured = false;
        let mut suspected = false;
        for later in &events[i + 1..] {
            if later.at_ns > deadline {
                break;
            }
            match later.kind {
                EngineEventKind::FaultInjected
                    if (later.detail == F::RECOVER && later.node == ev.node)
                        || later.detail == F::HEAL_ALL =>
                {
                    cured = true;
                    break;
                }
                EngineEventKind::NodeSuspected if later.node == ev.node => {
                    suspected = true;
                    break;
                }
                _ => {}
            }
        }
        if !cured && !suspected {
            out.push(ChaosViolation::DetectionTooSlow {
                node: ev.node,
                crashed_at_ms: ev.at_ns / 1_000_000,
                bound_ms: bound.as_nanos() / 1_000_000,
            });
        }
    }
    out
}

/// What [`audit`] read back and found.
#[derive(Clone, Debug)]
pub struct Audit {
    /// Each account's committed balance (`None` = no committed copy).
    pub balances: Vec<(u64, Option<i64>)>,
    /// Every `(object id, installed version)` a successful commit
    /// acknowledged to a client, in history order.
    pub acked: Vec<(u64, u64)>,
    /// In order: stuck, history, balances, batch atomicity, durability.
    pub violations: Vec<ChaosViolation>,
}

/// The post-run safety battery over a bank of `accounts` accounts, each
/// preloaded with `initial`. Balances and durability are judged only at
/// quiescence (no live task): a stuck run is a cut through an in-flight
/// 2PC, not a committed snapshot, so it reports [`ChaosViolation::Stuck`]
/// instead.
pub fn audit<P: ChaosTarget>(p: &P, accounts: u64, initial: i64) -> Audit {
    let live_tasks = p.sim().live_tasks();
    let history = p.history();
    let balances: Vec<(u64, Option<i64>)> = (0..accounts)
        .map(|o| (o, p.committed(ObjectId(o)).map(|(_, v)| v.expect_int())))
        .collect();
    let acked: Vec<(u64, u64)> = history
        .iter()
        .flat_map(|rec| rec.writes.iter().map(|(oid, _, v)| (oid.0, v.0)))
        .collect();
    let mut violations = Vec::new();
    if live_tasks > 0 {
        violations.push(ChaosViolation::Stuck { live_tasks });
    }
    violations.extend(
        verify(&history)
            .iter()
            .map(|v| ChaosViolation::History(v.to_string())),
    );
    if live_tasks == 0 {
        violations.extend(check_balances(&balances, initial * accounts as i64));
    }
    violations.extend(
        p.batch_atomicity_violations()
            .into_iter()
            .map(ChaosViolation::BatchAtomicity),
    );
    if live_tasks == 0 {
        // No write acknowledged to a client may be missing from committed
        // state, however many amnesiac restarts or torn tails came first.
        violations.extend(check_durability(&acked, |oid| {
            p.committed(ObjectId(oid))?.0.map(|v| v.0)
        }));
    }
    Audit {
        balances,
        acked,
        violations,
    }
}

/// Check bank-balance conservation over committed account state.
/// `balances[i]` is the committed value of account `i` (or `None` if the
/// object has no committed copy).
pub fn check_balances(balances: &[(u64, Option<i64>)], expected_total: i64) -> Vec<ChaosViolation> {
    let mut out = Vec::new();
    let mut total = 0i64;
    for &(oid, bal) in balances {
        match bal {
            Some(b) => total += b,
            None => out.push(ChaosViolation::MissingAccount { oid }),
        }
    }
    if out.is_empty() && total != expected_total {
        out.push(ChaosViolation::BalanceLeak {
            expected: expected_total,
            actual: total,
        });
    }
    out
}

/// Check durability over acknowledged writes: for every `(oid, version)`
/// a successful commit acknowledged to a client, committed state at
/// quiescence must hold that object at that version *or newer*. `acked`
/// is the flattened install stream from the history recorder;
/// `committed` maps an object id to the version a quorum reader sees now.
pub fn check_durability(
    acked: &[(u64, u64)],
    committed: impl Fn(u64) -> Option<u64>,
) -> Vec<ChaosViolation> {
    use std::collections::BTreeMap;
    // Only the max acknowledged version per object binds: later commits
    // legitimately supersede earlier ones.
    let mut max_acked: BTreeMap<u64, u64> = BTreeMap::new();
    for &(oid, v) in acked {
        let e = max_acked.entry(oid).or_insert(v);
        *e = (*e).max(v);
    }
    let mut out = Vec::new();
    for (oid, acked_version) in max_acked {
        let now = committed(oid);
        if now.is_none_or(|v| v < acked_version) {
            out.push(ChaosViolation::DurabilityLost {
                oid,
                acked_version,
                committed_version: now,
            });
        }
    }
    out
}

/// Check that the client retry budget held: `retries` tokens drawn must
/// not exceed what the bucket could have supplied — the initial `cap`,
/// plus `refill_per_commit` per commit, plus one time-drip token per
/// `drip` of `elapsed` (plus one cap of slack for in-flight accounting at
/// the measurement edges). More than that means budget enforcement
/// regressed and a retry storm got through.
pub fn check_retry_storm(
    retries: u64,
    cap: u64,
    refill_per_commit: u64,
    commits: u64,
    elapsed: SimDuration,
    drip: SimDuration,
) -> Vec<ChaosViolation> {
    let drip_tokens = elapsed.as_nanos() / drip.as_nanos().max(1);
    let budget = cap
        .saturating_add(commits.saturating_mul(refill_per_commit))
        .saturating_add(drip_tokens)
        .saturating_add(cap);
    if retries > budget {
        vec![ChaosViolation::RetryStorm { retries, budget }]
    } else {
        Vec::new()
    }
}

/// Check post-surge re-convergence of within-deadline goodput: the rate
/// over the final quiet tail (skipping `grace` after it begins) must be
/// at least `100 / factor_pct` of the rate over the initial quiet prefix.
/// A protected system sheds the surge and snaps back; a metastable one
/// keeps servicing a backlog of already-expired work and never does.
///
/// Runs with no quiet prefix, a zero baseline, or tails too short to
/// measure are not judged (empty result) — there is no baseline to hold
/// the tail against.
pub fn check_goodput_reconvergence(
    samples: &[Sample],
    grace: SimDuration,
    factor_pct: u32,
) -> Vec<ChaosViolation> {
    // Milli-tps over a span of samples, `None` if the span is degenerate.
    fn rate_milli_tps(run: &[Sample]) -> Option<u64> {
        let (a, b) = (run.first()?, run.last()?);
        let span = b.at_ns.checked_sub(a.at_ns)?;
        if span == 0 {
            return None;
        }
        let delta = b.goodput.saturating_sub(a.goodput) as u128;
        Some((delta * 1_000_000_000_000 / span as u128) as u64)
    }
    // Initial maximal quiet prefix.
    let prefix_len = samples.iter().take_while(|s| s.quiet).count();
    // Final maximal quiet tail.
    let tail_start = samples.len() - samples.iter().rev().take_while(|s| s.quiet).count();
    if prefix_len == 0 || tail_start == 0 || tail_start <= prefix_len {
        return Vec::new(); // no surge between two quiet spans to judge
    }
    let Some(baseline) = rate_milli_tps(&samples[..prefix_len]) else {
        return Vec::new();
    };
    if baseline == 0 {
        return Vec::new();
    }
    // Skip the grace period at the head of the tail: timeouts and
    // backoffs from the surge need time to unwind.
    let tail = &samples[tail_start..];
    let judged_from = tail[0].at_ns + grace.as_nanos();
    let Some(first) = tail.iter().position(|s| s.at_ns >= judged_from) else {
        return Vec::new();
    };
    let Some(recovered) = rate_milli_tps(&tail[first..]) else {
        return Vec::new();
    };
    if (recovered as u128) * u128::from(factor_pct) < (baseline as u128) * 100 {
        vec![ChaosViolation::Metastable {
            baseline_milli_tps: baseline,
            recovered_milli_tps: recovered,
            factor_pct,
        }]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(at_ms: u64, commits: u64) -> Sample {
        Sample {
            at_ns: at_ms * 1_000_000,
            commits,
            goodput: commits,
            quiet: true,
        }
    }

    fn noisy(at_ms: u64, commits: u64) -> Sample {
        Sample {
            quiet: false,
            ..q(at_ms, commits)
        }
    }

    const GRACE: SimDuration = SimDuration::from_millis(100);
    const WINDOW: SimDuration = SimDuration::from_millis(500);

    #[test]
    fn progress_in_quiet_windows_passes() {
        let samples: Vec<Sample> = (0..20).map(|i| q(i * 100, i)).collect();
        assert!(check_liveness(&samples, GRACE, WINDOW).is_empty());
    }

    #[test]
    fn stalled_quiet_window_is_flagged() {
        let samples: Vec<Sample> = (0..20).map(|i| q(i * 100, 7)).collect();
        let v = check_liveness(&samples, GRACE, WINDOW);
        assert_eq!(
            v,
            vec![ChaosViolation::NoProgress {
                from_ms: 100,
                to_ms: 1900
            }]
        );
    }

    #[test]
    fn stall_during_faults_is_not_a_violation() {
        // Commits frozen while the fault is active, resume after.
        let mut samples: Vec<Sample> = (0..5).map(|i| q(i * 100, i)).collect();
        samples.extend((5..15).map(|i| noisy(i * 100, 4)));
        samples.extend((15..25).map(|i| q(i * 100, i - 10)));
        assert!(check_liveness(&samples, GRACE, WINDOW).is_empty());
    }

    #[test]
    fn grace_period_excuses_the_post_fault_hiccup() {
        // Quiet resumes at t=1000ms but commits only restart at 1200ms —
        // inside the 100ms grace the checker must not look, and the
        // checked span does make progress.
        let mut samples: Vec<Sample> = (0..10).map(|i| noisy(i * 100, 3)).collect();
        samples.push(q(1000, 3));
        samples.push(q(1100, 3));
        samples.extend((12..25).map(|i| q(i * 100, i)));
        assert!(check_liveness(&samples, GRACE, WINDOW).is_empty());
    }

    #[test]
    fn short_quiet_runs_are_not_judged() {
        let samples = vec![noisy(0, 0), q(100, 0), q(200, 0), noisy(300, 0)];
        assert!(check_liveness(&samples, GRACE, WINDOW).is_empty());
    }

    #[test]
    fn durability_checker_flags_regressions_only() {
        let acked = [(1u64, 3u64), (1, 5), (2, 2), (3, 1)];
        // Object 1 advanced past its ack, 2 holds exactly, 3 regressed to
        // nothing.
        let committed = |oid: u64| match oid {
            1 => Some(7),
            2 => Some(2),
            _ => None,
        };
        assert_eq!(
            check_durability(&acked, committed),
            vec![ChaosViolation::DurabilityLost {
                oid: 3,
                acked_version: 1,
                committed_version: None
            }]
        );
        // A stale committed copy is also a loss.
        let stale = |_: u64| Some(1);
        let v = check_durability(&[(9, 4)], stale);
        assert_eq!(
            v,
            vec![ChaosViolation::DurabilityLost {
                oid: 9,
                acked_version: 4,
                committed_version: Some(1)
            }]
        );
        assert!(check_durability(&[], |_| None).is_empty());
    }

    #[test]
    fn audit_judges_balances_only_at_quiescence() {
        use qrdtm_core::{Cluster, DtmConfig, ObjVal};
        let c = Cluster::new(DtmConfig::default());
        for o in 0..2 {
            c.preload(ObjectId(o), ObjVal::Int(1_000));
        }
        let leak = ChaosViolation::BalanceLeak {
            expected: 1_998,
            actual: 2_000,
        };
        assert_eq!(audit(&c, 2, 999).violations, vec![leak]);
        // A parked task: the same committed state is now a cut through a
        // run that never finished, so only the stuck verdict is given.
        c.sim().spawn(std::future::pending::<()>());
        let stuck = audit(&c, 2, 999);
        assert_eq!(
            stuck.violations,
            vec![ChaosViolation::Stuck { live_tasks: 1 }]
        );
        assert_eq!(stuck.balances, vec![(0, Some(1_000)), (1, Some(1_000))]);
    }

    #[test]
    fn balance_conservation() {
        let ok = [(0u64, Some(900i64)), (1, Some(1100)), (2, Some(1000))];
        assert!(check_balances(&ok, 3000).is_empty());
        let leak = [(0u64, Some(900i64)), (1, Some(1099))];
        assert_eq!(
            check_balances(&leak, 2000),
            vec![ChaosViolation::BalanceLeak {
                expected: 2000,
                actual: 1999
            }]
        );
        let missing = [(0u64, Some(1000i64)), (1, None)];
        assert_eq!(
            check_balances(&missing, 2000),
            vec![ChaosViolation::MissingAccount { oid: 1 }]
        );
    }

    #[test]
    fn retry_storm_checker_bounds_token_draws() {
        let elapsed = SimDuration::from_secs(4);
        let drip = SimDuration::from_millis(50);
        // cap 64 + 100 commits * 2 + 4s/50ms = 80 drips + 64 slack = 408.
        assert!(check_retry_storm(408, 64, 2, 100, elapsed, drip).is_empty());
        assert_eq!(
            check_retry_storm(409, 64, 2, 100, elapsed, drip),
            vec![ChaosViolation::RetryStorm {
                retries: 409,
                budget: 408
            }]
        );
        // Protection off: zero draws always pass.
        assert!(check_retry_storm(0, 0, 0, 0, elapsed, drip).is_empty());
    }

    #[test]
    fn goodput_reconvergence_passes_a_recovering_run() {
        // 10/s baseline, surge stall, then full 10/s recovery.
        let mut s: Vec<Sample> = (0..10).map(|i| q(i * 100, i)).collect();
        s.extend((10..20).map(|i| noisy(i * 100, 9)));
        s.extend((20..40).map(|i| q(i * 100, 9 + (i - 20))));
        assert!(check_goodput_reconvergence(&s, GRACE, 150).is_empty());
    }

    #[test]
    fn metastable_run_is_flagged() {
        // 10/s baseline; after the surge the goodput rate stays near zero
        // (the backlog starves fresh arrivals).
        let mut s: Vec<Sample> = (0..10).map(|i| q(i * 100, i)).collect();
        s.extend((10..20).map(|i| noisy(i * 100, 9)));
        s.extend((20..40).map(|i| q(i * 100, 9 + (i - 20) / 10)));
        let v = check_goodput_reconvergence(&s, GRACE, 300);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0], ChaosViolation::Metastable { .. }));
    }

    #[test]
    fn reconvergence_needs_a_baseline_and_a_tail() {
        // No quiet prefix: not judged.
        let mut s: Vec<Sample> = (0..5).map(|i| noisy(i * 100, 0)).collect();
        s.extend((5..20).map(|i| q(i * 100, 0)));
        assert!(check_goodput_reconvergence(&s, GRACE, 300).is_empty());
        // Zero baseline: not judged.
        let mut s: Vec<Sample> = (0..10).map(|i| q(i * 100, 0)).collect();
        s.extend((10..15).map(|i| noisy(i * 100, 0)));
        s.extend((15..30).map(|i| q(i * 100, 0)));
        assert!(check_goodput_reconvergence(&s, GRACE, 300).is_empty());
        // All-quiet run (no surge in the middle): not judged.
        let s: Vec<Sample> = (0..30).map(|i| q(i * 100, i)).collect();
        assert!(check_goodput_reconvergence(&s, GRACE, 300).is_empty());
    }
}
