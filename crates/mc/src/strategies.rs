//! Exploration strategies over the schedule tree.
//!
//! A schedule is the vector of choices taken at the sim's same-instant tie
//! groups. Three strategies cover the issue's matrix:
//!
//! * [`dfs_explore`] — exhaustive depth-first enumeration in lexicographic
//!   order, with sleep-set-style pruning of alternatives that provably
//!   commute with everything the default order runs before them.
//! * [`pct_explore`] — PCT-style randomized priority schedules, for
//!   sampling far-apart interleavings the bounded DFS would reach late.
//! * [`replay`] — re-run one recorded schedule (counterexample replay).

use std::collections::{HashMap, HashSet};

use qrdtm_sim::{fnv, EventInfo, EventTag, Scheduler, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::runner::{run_schedule, RunOutcome, Scope};

/// Follows a forced choice prefix, then always picks index 0 — the queue
/// head, i.e. the sim's historical deterministic order.
pub struct ForcedPolicy {
    forced: Vec<usize>,
    pos: usize,
}

impl ForcedPolicy {
    /// Policy replaying `forced`, then picking 0 at every later point.
    pub fn new(forced: Vec<usize>) -> Self {
        ForcedPolicy { forced, pos: 0 }
    }
}

impl Scheduler for ForcedPolicy {
    fn pick(&mut self, _now: SimTime, _ready: &[EventInfo]) -> usize {
        let i = self.pos;
        self.pos += 1;
        self.forced.get(i).copied().unwrap_or(0)
    }
}

/// PCT-style randomized priorities: each `(event tag, node)` class draws a
/// random priority on first sight; every decision picks the
/// highest-priority candidate, and occasionally the winner's class is
/// demoted afterwards (the "priority change points" that let PCT cross
/// ordering bugs of depth > 1).
pub struct PctPolicy {
    rng: StdRng,
    prio: HashMap<(EventTag, u32), u64>,
}

impl PctPolicy {
    /// A fresh priority assignment drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        PctPolicy {
            rng: StdRng::seed_from_u64(seed),
            prio: HashMap::new(),
        }
    }

    fn class(e: &EventInfo) -> (EventTag, u32) {
        (e.tag, e.to.or(e.from).map_or(u32::MAX, |n| n.0))
    }
}

impl Scheduler for PctPolicy {
    fn pick(&mut self, _now: SimTime, ready: &[EventInfo]) -> usize {
        let mut best = 0usize;
        let mut best_p = 0u64;
        for (i, e) in ready.iter().enumerate() {
            let key = Self::class(e);
            let p = *self
                .prio
                .entry(key)
                .or_insert_with(|| self.rng.random_range(1024..u64::MAX));
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        // Occasional demotion so one hot class cannot freeze the order for
        // the whole run.
        if self.rng.random_range(0u32..16) == 0 {
            let key = Self::class(&ready[best]);
            let low = self.rng.random_range(1..1024u64);
            self.prio.insert(key, low);
        }
        best
    }
}

/// A schedule that violated an invariant, with everything needed to
/// replay it (under the same [`Scope`]).
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Scheduler choices reproducing the violation — feed to [`replay`].
    pub choices: Vec<usize>,
    /// The violations the run reported.
    pub violations: Vec<String>,
}

/// Summary of one exploration call (DFS or PCT).
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedule runs executed.
    pub runs: u64,
    /// Runs whose (trimmed) choice vector was new to the shared `seen` set.
    pub distinct: u64,
    /// DFS only: the pruned choice tree was fully enumerated within budget.
    pub exhausted: bool,
    /// First invariant violation found; exploration stops at it.
    pub counterexample: Option<Counterexample>,
    /// Deepest decision-point count seen in any run.
    pub max_depth: usize,
}

/// Canonical dedup key of a schedule: FNV over the choice vector with
/// trailing zeros dropped (a run that ends in default picks is the same
/// schedule as its trimmed prefix).
pub fn schedule_key(choices: &[usize]) -> u64 {
    let end = choices.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    fnv(choices[..end].iter().map(|&c| c as u64))
}

fn trim(choices: &[usize]) -> Vec<usize> {
    let end = choices.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    choices[..end].to_vec()
}

fn account(rep: &mut ExploreReport, seen: &mut HashSet<u64>, out: &RunOutcome) -> bool {
    rep.runs += 1;
    if seen.insert(schedule_key(&out.choices)) {
        rep.distinct += 1;
    }
    rep.max_depth = rep.max_depth.max(out.choices.len());
    if out.violations.is_empty() {
        return false;
    }
    rep.counterexample = Some(Counterexample {
        choices: trim(&out.choices),
        violations: out.violations.clone(),
    });
    true
}

/// `cand` is a redundant alternative at a decision point if it commutes
/// with every event the taken order runs before it (positions
/// `cur..cand`): hoisting it past events it commutes with cannot expose a
/// new behavior. This is a heuristic partial-order reduction in the
/// sleep-set/DPOR spirit — [`EventInfo::commutes_with`] is conservative,
/// so pruning errs toward exploring, never toward missing a dependent
/// reordering of the pruned pair itself.
fn redundant_alternative(group: &[EventInfo], cur: usize, cand: usize) -> bool {
    group[cur..cand]
        .iter()
        .all(|e| e.commutes_with(&group[cand]))
}

/// The next DFS prefix after `out`: increment the rightmost decision point
/// that still has an unpruned alternative. `None` when the (pruned) tree
/// is exhausted.
fn next_prefix(out: &RunOutcome) -> Option<Vec<usize>> {
    for i in (0..out.choices.len()).rev() {
        let cur = out.choices[i];
        let group = &out.groups[i];
        for cand in cur + 1..group.len() {
            if redundant_alternative(group, cur, cand) {
                continue;
            }
            let mut p = out.choices[..i].to_vec();
            p.push(cand);
            return Some(p);
        }
    }
    None
}

/// Exhaustive bounded DFS over the schedule tree, lexicographic order,
/// with commutativity pruning. Runs at most `budget` schedules; stops
/// early at the first invariant violation.
pub fn dfs_explore(scope: &Scope, budget: u64, seen: &mut HashSet<u64>) -> ExploreReport {
    let mut rep = ExploreReport::default();
    let mut prefix: Vec<usize> = Vec::new();
    loop {
        let out = run_schedule(scope, Box::new(ForcedPolicy::new(prefix.clone())));
        if account(&mut rep, seen, &out) || rep.runs >= budget {
            return rep;
        }
        match next_prefix(&out) {
            Some(p) => prefix = p,
            None => {
                rep.exhausted = true;
                return rep;
            }
        }
    }
}

/// Randomized PCT exploration: `runs` schedules seeded from `base_seed`.
/// Distinct-schedule accounting shares the `seen` set with DFS so the two
/// strategies' coverage adds up without double counting.
pub fn pct_explore(
    scope: &Scope,
    runs: u64,
    base_seed: u64,
    seen: &mut HashSet<u64>,
) -> ExploreReport {
    let mut rep = ExploreReport::default();
    for j in 0..runs {
        let seed = base_seed ^ (j.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let out = run_schedule(scope, Box::new(PctPolicy::new(seed)));
        if account(&mut rep, seen, &out) {
            return rep;
        }
    }
    rep
}

/// Re-run one recorded schedule. Deterministic: equal scope and choices
/// give an equal [`RunOutcome::fingerprint`].
pub fn replay(scope: &Scope, choices: &[usize]) -> RunOutcome {
    run_schedule(scope, Box::new(ForcedPolicy::new(choices.to_vec())))
}

/// [`shrink`](qrdtm_chaos::shrink)'s cut for a schedule: `choices` picking
/// 0 at decision `i`, trailing zeros trimmed; `None` when it already does.
pub fn zero_pick(choices: &[usize], i: usize) -> Option<Vec<usize>> {
    (choices[i] != 0).then(|| {
        let mut cand = choices.to_vec();
        cand[i] = 0;
        trim(&cand)
    })
}
