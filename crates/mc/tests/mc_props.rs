//! End-to-end properties of the model checker: exploration finds distinct
//! schedules with no violations on the healthy protocols, replay is
//! deterministic, and a deliberately broken protocol variant is caught
//! with a minimized, replayable trace.

use std::collections::HashSet;

use qrdtm_chaos::{shrink, Proto};
use qrdtm_core::{InjectedBug, NestingMode};
use qrdtm_mc::{
    dfs_explore, parse_picks, pct_explore, replay, run_schedule, zero_pick, ForcedPolicy, McBug,
    PctPolicy, Scope,
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

/// `bug` injected into `proto`'s smoke scope must violate an invariant in
/// some explored schedule. The explorer has to find it, shrink it, and hand
/// back picks that still reproduce it after a round-trip through the text
/// a saved trace holds — the full `repro mc` pipeline in miniature.
fn caught_minimized_and_replayable(bug: McBug, proto: Proto) {
    let scope = Scope {
        injected_bug: Some(bug),
        ..Scope::smoke(proto)
    };
    let mut seen = HashSet::new();
    let mut cex = dfs_explore(&scope, 300, &mut seen).counterexample;
    if cex.is_none() {
        cex = pct_explore(&scope, 300, 1, &mut seen).counterexample;
    }
    let cex = cex.unwrap_or_else(|| panic!("{bug:?} survived 600 schedules — checkers are blind"));

    let min = shrink(&cex.choices, zero_pick, |c| {
        !replay(&scope, c).violations.is_empty()
    });
    assert!(min.len() <= cex.choices.len());
    let rerun = replay(&scope, &min);
    assert!(
        !rerun.violations.is_empty(),
        "minimized schedule no longer violates"
    );

    let words: Vec<String> = min.iter().map(ToString::to_string).collect();
    let text = format!("# repro mc --replay F\n{}\n", words.join(" "));
    let parsed = parse_picks(&text).expect("picks round-trip");
    assert_eq!(parsed, min);
    let replayed = replay(&scope, &parsed);
    assert_eq!(replayed.violations, rerun.violations);
    assert_eq!(replayed.fingerprint, rerun.fingerprint);
}

/// A protocol that trusts a failed vote round must eventually violate an
/// invariant under contention.
#[test]
fn injected_bug_is_caught_minimized_and_replayable() {
    let bug = McBug::Qr(InjectedBug::SkipVoteCheck);
    caught_minimized_and_replayable(bug, Proto::Qr(NestingMode::Flat));
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

/// A planner that plans transactions without validating read tags commits
/// stale reads: the auditor must see the lost update.
#[test]
fn qstore_injected_tag_skip_is_caught_minimized_and_replayable() {
    caught_minimized_and_replayable(McBug::QStore(QStoreBug::SkipTagCheck), Proto::QStore);
}

/// A planner that validates a read against the committed slot alone
/// ignores the open epoch's queued writes: two readers of one value plan
/// into one epoch and both commit, a lost update the auditor must see.
#[test]
fn qstore_ignore_open_epoch_is_caught_minimized_and_replayable() {
    caught_minimized_and_replayable(McBug::QStore(QStoreBug::IgnoreOpenEpoch), Proto::QStore);
}

/// A planner that acknowledges an epoch before its quorum's fsyncs is only
/// wrong when it dies in that window: the runner injects an amnesiac
/// planner crash right after the first visible commit, so the early-acked
/// epoch evaporates with the planner's volatile log and the durability /
/// conservation checkers must catch the regression.
#[test]
fn qstore_ack_before_fsync_is_caught_minimized_and_replayable() {
    caught_minimized_and_replayable(McBug::QStore(QStoreBug::AckBeforeFsync), Proto::QStore);
}
