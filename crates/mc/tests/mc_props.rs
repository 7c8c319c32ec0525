//! End-to-end properties of the model checker: exploration finds distinct
//! schedules with no violations on the healthy protocols, replay is
//! deterministic, and a deliberately broken protocol variant is caught
//! with a minimized, replayable trace.

use std::collections::HashSet;

use qrdtm_chaos::Proto;
use qrdtm_core::{InjectedBug, NestingMode};
use qrdtm_mc::{
    dfs_explore, minimize, pct_explore, replay, run_schedule, ForcedPolicy, McBug, PctPolicy,
    Scope, Trace,
};
use qrdtm_qstore::QStoreBug;

#[test]
fn dfs_explores_distinct_schedules_without_violations() {
    for mode in [
        Proto::Qr(NestingMode::Flat),
        Proto::Qr(NestingMode::Closed),
        Proto::Qr(NestingMode::Checkpoint),
        Proto::QStore,
    ] {
        let scope = Scope::smoke(mode);
        let mut seen = HashSet::new();
        let rep = dfs_explore(&scope, 40, &mut seen);
        assert!(
            rep.counterexample.is_none(),
            "{mode:?}: unexpected violation: {:?}",
            rep.counterexample
        );
        assert!(rep.runs >= 40 || rep.exhausted, "{mode:?}: stopped early");
        assert!(
            rep.distinct >= 10,
            "{mode:?}: only {} distinct schedules in {} runs",
            rep.distinct,
            rep.runs
        );
        assert!(rep.max_depth > 0, "{mode:?}: no decision points at all");
    }
}

#[test]
fn pct_sampling_is_clean_and_dedups_against_dfs() {
    let scope = Scope::smoke(Proto::Qr(NestingMode::Closed));
    let mut seen = HashSet::new();
    let dfs = dfs_explore(&scope, 15, &mut seen);
    assert!(dfs.counterexample.is_none());
    let pct = pct_explore(&scope, 15, 42, &mut seen);
    assert!(pct.counterexample.is_none(), "{:?}", pct.counterexample);
    assert_eq!(pct.runs, 15);
    // The shared `seen` set means pct.distinct counts only schedules DFS
    // did not already visit.
    assert!(pct.distinct <= pct.runs);
}

#[test]
fn replay_of_equal_choices_is_deterministic() {
    let scope = Scope::smoke(Proto::Qr(NestingMode::Checkpoint));
    let first = run_schedule(&scope, Box::new(ForcedPolicy::new(vec![1, 0, 2])));
    let second = replay(&scope, &first.choices);
    assert_eq!(first.choices, second.choices);
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(first.violations, second.violations);

    // Same PCT seed twice → same schedule and outcome.
    let a = run_schedule(&scope, Box::new(PctPolicy::new(7)));
    let b = run_schedule(&scope, Box::new(PctPolicy::new(7)));
    assert_eq!(a.choices, b.choices);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn injected_bug_is_caught_minimized_and_replayable() {
    // A protocol that trusts a failed vote round must eventually violate
    // an invariant under contention. The explorer has to find it, shrink
    // it, and hand back a trace that still reproduces it after a text
    // round-trip — the full `repro mc` pipeline in miniature.
    let scope = Scope {
        injected_bug: Some(McBug::Qr(InjectedBug::SkipVoteCheck)),
        ..Scope::smoke(Proto::Qr(NestingMode::Flat))
    };
    let mut seen = HashSet::new();
    let mut cex = dfs_explore(&scope, 300, &mut seen).counterexample;
    if cex.is_none() {
        cex = pct_explore(&scope, 300, 1, &mut seen).counterexample;
    }
    let cex = cex.expect("SkipVoteCheck survived 600 schedules — checkers are blind to it");

    let min = minimize(&scope, &cex.choices);
    assert!(min.len() <= cex.choices.len());
    let rerun = replay(&scope, &min);
    assert!(
        !rerun.violations.is_empty(),
        "minimized schedule no longer violates"
    );

    let trace = Trace {
        scope,
        choices: min,
    };
    let parsed = Trace::parse(&trace.to_string()).expect("trace round-trips");
    assert_eq!(parsed, trace);
    let replayed = replay(&parsed.scope, &parsed.choices);
    assert_eq!(replayed.violations, rerun.violations);
    assert_eq!(replayed.fingerprint, rerun.fingerprint);
}

#[test]
fn qstore_replay_is_deterministic() {
    let scope = Scope::smoke(Proto::QStore);
    let first = run_schedule(&scope, Box::new(ForcedPolicy::new(vec![2, 1, 0, 3])));
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    let second = replay(&scope, &first.choices);
    assert_eq!(first.choices, second.choices);
    assert_eq!(first.fingerprint, second.fingerprint);
}

#[test]
fn qstore_injected_tag_skip_is_caught_minimized_and_replayable() {
    // A planner that seals epochs without validating read tags commits
    // stale speculative reads — the auditor must see the lost update in
    // some explored schedule, and the shrunk trace must still reproduce
    // it after a text round-trip.
    let scope = Scope {
        injected_bug: Some(McBug::QStore(QStoreBug::SkipTagCheck)),
        ..Scope::smoke(Proto::QStore)
    };
    let mut seen = HashSet::new();
    let mut cex = dfs_explore(&scope, 300, &mut seen).counterexample;
    if cex.is_none() {
        cex = pct_explore(&scope, 300, 1, &mut seen).counterexample;
    }
    let cex = cex.expect("SkipTagCheck survived 600 schedules — checkers are blind to it");

    let min = minimize(&scope, &cex.choices);
    let rerun = replay(&scope, &min);
    assert!(
        !rerun.violations.is_empty(),
        "minimized schedule no longer violates"
    );

    let trace = Trace {
        scope,
        choices: min,
    };
    let parsed = Trace::parse(&trace.to_string()).expect("trace round-trips");
    assert_eq!(parsed, trace);
    let replayed = replay(&parsed.scope, &parsed.choices);
    assert_eq!(replayed.violations, rerun.violations);
}

#[test]
fn qstore_ack_before_fsync_is_caught_minimized_and_replayable() {
    // A planner that acknowledges an epoch before its quorum's fsyncs is
    // only wrong when it dies in that window: the runner injects an
    // amnesiac planner crash right after the first visible commit, so the
    // early-acked epoch evaporates with the planner's volatile log and
    // the durability / conservation checkers must catch the regression in
    // some explored schedule.
    let scope = Scope {
        injected_bug: Some(McBug::QStore(QStoreBug::AckBeforeFsync)),
        ..Scope::smoke(Proto::QStore)
    };
    let mut seen = HashSet::new();
    let mut cex = dfs_explore(&scope, 300, &mut seen).counterexample;
    if cex.is_none() {
        cex = pct_explore(&scope, 300, 1, &mut seen).counterexample;
    }
    let cex = cex.expect("AckBeforeFsync survived 600 schedules — checkers are blind to it");

    let min = minimize(&scope, &cex.choices);
    let rerun = replay(&scope, &min);
    assert!(
        !rerun.violations.is_empty(),
        "minimized schedule no longer violates"
    );

    let trace = Trace {
        scope,
        choices: min,
    };
    let parsed = Trace::parse(&trace.to_string()).expect("trace round-trips");
    assert_eq!(parsed, trace);
    let replayed = replay(&parsed.scope, &parsed.choices);
    assert_eq!(replayed.violations, rerun.violations);
    assert_eq!(replayed.fingerprint, rerun.fingerprint);
}
