//! `repro mc` — bounded schedule exploration (model checking).
//!
//! Drives the [`qrdtm_mc`] explorer over the QR / QR-CN / QR-CHK protocols
//! and the Q-Store speculative-batching protocol at a small contended
//! scope: exhaustive DFS with commutativity pruning first, PCT-style
//! random priority schedules for breadth after. Every schedule runs the
//! full invariant battery (serializability, balance conservation,
//! durability no-regress, nesting/checkpoint structure — batch atomicity
//! on the Q-Store arm); a violation is shrunk to a minimal schedule, its
//! picks saved under the command that replays them deterministically:
//! the scope is the flags, the file holds only the picks.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use qrdtm_chaos::{shrink, Proto};
use qrdtm_core::InjectedBug;
use qrdtm_mc::{
    dfs_explore, parse_picks, pct_explore, replay, zero_pick, Counterexample, ExploreReport, McBug,
    Scope,
};

use crate::cli::{
    family, in_range, label, load, num, report_counterexample, Modes, Out, ONE_RUN, REPLAY, RUN,
    SELECTS, SMOKE,
};
use crate::harness;

/// The families `all` explores: every row of the table with a view.
fn all_protos() -> impl Iterator<Item = Proto> {
    Proto::ALL.map(|r| r.0).into_iter().filter(|p| p.has_view())
}

/// Every mode that runs schedules at the scope the flags give.
const SCOPED: Modes = RUN | REPLAY;

// `repro mc`'s flags. The rows a replay reads and prints back are the
// scope: family, seed, size and injected bug; range checks are
// [`Scope::check`]'s. `proto: None` explores every family with a view (of
// the injected bug's own family, if any), so a replay must name one.
crate::flags! {
    McArgs, MC, "mc", check: |a| a.protos().iter().try_for_each(|&p| a.scope(p).check()),
    runs: |a| a.protos().len() as u64;
    smoke: bool = false, "--smoke", SMOKE | SELECTS, |_v| true;
    proto: Option<Proto> = None, "--proto PROTO", SCOPED, |v| family(v)?,
        |a| a.proto.map(|p| p.label().into());
    seed: u64 = 1, "--seed S", SCOPED, |v| num(v)?, |a| Some(a.seed.to_string());
    nodes: usize = 3, "--nodes N", SCOPED, |v| num(v)?, |a| Some(a.nodes.to_string());
    objects: u64 = 2, "--objects K", SCOPED, |v| num(v)?, |a| Some(a.objects.to_string());
    txns: usize = 2, "--txns T", SCOPED, |v| num(v)?, |a| Some(a.txns.to_string());
    dfs: u64 = 500, "--dfs N", RUN, |v| in_range(v, 1, u64::MAX)?;
    pct: u64 = 500, "--pct N", RUN, |v| num(v)?;
    bug: Option<McBug> = None, "--inject-bug BUG", SCOPED, |v| Some(label(v, &McBug::ALL)?),
        |a| a.bug.map(|b| b.label().into());
    replay: Option<PathBuf> = None, "--replay FILE", REPLAY | SELECTS | ONE_RUN,
        |v| Some(v.into());
    save_trace: Option<PathBuf> = None, "--save-trace FILE", RUN | ONE_RUN, |v| Some(v.into());
}

/// `repro mc`'s usage line.
pub fn usage() -> String {
    MC.usage()
}

impl McArgs {
    /// The families a run explores.
    fn protos(&self) -> Vec<Proto> {
        match self.proto {
            Some(p) => vec![p],
            None => all_protos()
                .filter(|&p| self.bug.is_none_or(|b| b.applies_to(p)))
                .collect(),
        }
    }

    /// The smoke suite's run of `proto`: the default scope, `bug`
    /// injected.
    fn smoke_run(proto: Proto, bug: Option<McBug>) -> Self {
        McArgs {
            proto: Some(proto),
            bug,
            ..McArgs::default()
        }
    }

    /// The scope the command line asks `proto` to be explored at.
    fn scope(&self, proto: Proto) -> Scope {
        Scope {
            proto,
            nodes: self.nodes,
            objects: self.objects,
            txns: self.txns,
            seed: self.seed,
            injected_bug: self.bug,
        }
    }
}

/// Entry point for `repro mc ...`. Returns the process exit code: 0 when
/// every explored schedule's invariants held (and, for `--smoke`, the
/// injected-bug validation caught its bug), 1 on any violation, 2 on
/// usage/IO errors.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let a = MC.parse(args);
    match &a.replay {
        Some(path) => replay_file(&a, path),
        None if a.smoke => smoke(),
        None => explore(&a),
    }
}

/// A saved trace's body: one line of space-separated picks, or none.
fn picks_text(picks: &[usize]) -> String {
    let words: Vec<String> = picks.iter().map(ToString::to_string).collect();
    if words.is_empty() {
        String::new()
    } else {
        words.join(" ") + "\n"
    }
}

/// Print `cex`, found by the one-family run `a`, shrunk to a minimal
/// schedule; its picks are written to `save_to` if given, under the
/// command that replays them.
fn report(a: &McArgs, cex: &Counterexample, save_to: Option<&Path>) {
    let scope = a.scope(a.protos()[0]);
    report_counterexample(
        ["trace", "choice"],
        &cex.violations,
        &cex.choices,
        zero_pick,
        |c| !replay(&scope, c).violations.is_empty(),
        picks_text,
        &Out {
            save_to,
            replay: MC.command(a, REPLAY, save_to),
        },
    );
}

/// Freeform exploration at the scope given on the command line.
fn explore(a: &McArgs) -> i32 {
    println!("## mc — bounded schedule exploration + invariant checking\n");
    let mut worst = 0;
    for proto in a.protos() {
        let scope = a.scope(proto);
        let mut seen = HashSet::new();
        let dfs = dfs_explore(&scope, a.dfs, &mut seen);
        let mut cex = dfs.counterexample.clone();
        let pct = if cex.is_none() && a.pct > 0 {
            pct_explore(&scope, a.pct, a.seed ^ 0x9e37_79b9, &mut seen)
        } else {
            ExploreReport::default()
        };
        if cex.is_none() {
            cex = pct.counterexample.clone();
        }
        println!(
            "[{:<6}] dfs={:>5} (exhausted={}) pct={:>5} distinct={:>5} max_depth={:>3} => {}",
            proto.label(),
            dfs.runs,
            if dfs.exhausted { "yes" } else { "no" },
            pct.runs,
            dfs.distinct + pct.distinct,
            dfs.max_depth.max(pct.max_depth),
            if cex.is_none() { "OK" } else { "VIOLATION" },
        );
        if let Some(cex) = cex {
            let this_run = McArgs {
                proto: Some(proto),
                ..a.clone()
            };
            report(&this_run, &cex, a.save_trace.as_deref());
            worst = 1;
        }
    }
    if worst == 0 {
        println!("\nmc: all explored schedules passed every invariant");
    } else {
        eprintln!("\nmc: invariant violations found");
    }
    worst
}

/// Read a saved trace's picks and re-run them at the scope `a` gives.
/// Exit 0 when the replay passes every invariant, 1 when it (re)produces
/// violations.
fn replay_file(a: &McArgs, path: &Path) -> i32 {
    let picks = match load(path, parse_picks) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mc: {e}");
            return 2;
        }
    };
    let scope = a.scope(a.protos()[0]);
    let out = replay(&scope, &picks);
    println!(
        "replayed {} choice(s) [{} nodes={} objects={} txns={} seed={}]: \
         commits={} aborts={} fingerprint={:016x}",
        picks.len(),
        scope.proto.label(),
        scope.nodes,
        scope.objects,
        scope.txns,
        scope.seed,
        out.commits,
        out.aborts,
        out.fingerprint,
    );
    if out.violations.is_empty() {
        println!("no violations");
        0
    } else {
        for v in &out.violations {
            println!("! {v}");
        }
        1
    }
}

/// The fixed smoke suite (golden `mc_smoke.txt`): ≥10k distinct schedules
/// across the four protocols at the 3-node/2-object/2-txn scope with zero
/// violations, plus a checker-validation stage where deliberately broken
/// protocol variants (one QR, two Q-Store — including a planner that acks
/// before its batch fsyncs are durable) must be caught with minimized,
/// replayable traces.
fn smoke() -> i32 {
    let t0 = std::time::Instant::now();
    println!("## mc --smoke — schedule exploration at 3 nodes / 2 objects / 2 txns\n");
    const TARGET_PER_MODE: u64 = 3_500;
    let results = harness::parallel_map(all_protos().collect(), |proto| {
        let run = McArgs::smoke_run(proto, None);
        let scope = run.scope(proto);
        let mut seen = HashSet::new();
        let dfs = dfs_explore(&scope, 2_500, &mut seen);
        let mut runs = dfs.runs;
        let mut distinct = dfs.distinct;
        let mut depth = dfs.max_depth;
        let mut cex = dfs.counterexample.clone();
        let mut round = 0u64;
        while cex.is_none() && distinct < TARGET_PER_MODE && runs < 25_000 {
            let pct = pct_explore(
                &scope,
                500,
                0xc0ffee ^ round.wrapping_mul(0x1_0000),
                &mut seen,
            );
            runs += pct.runs;
            distinct += pct.distinct;
            depth = depth.max(pct.max_depth);
            cex = pct.counterexample;
            round += 1;
        }
        (run, runs, distinct, depth, dfs.exhausted, cex)
    });

    let mut ok = true;
    let mut total_distinct = 0u64;
    let mut total_runs = 0u64;
    // What actually ran, by label: the Q-Store arm must be among them or
    // the run is not a pass.
    let mut exercised: Vec<&str> = Vec::new();
    for (run, runs, distinct, depth, exhausted, cex) in results {
        let label = run.protos()[0].label();
        exercised.push(label);
        total_distinct += distinct;
        total_runs += runs;
        println!(
            "[{:<6}] runs={:>5} distinct={:>5} max_depth={:>3} exhausted={} => {}",
            label,
            runs,
            distinct,
            depth,
            if exhausted { "yes" } else { "no" },
            if cex.is_none() { "OK" } else { "VIOLATION" },
        );
        if let Some(cex) = cex {
            report(&run, &cex, None);
            ok = false;
        }
    }

    // Checker validation: every injectable bug but `skip-epoch-fence`,
    // which finds no counterexample at this scope — a protocol that trusts
    // a failed vote round (QR), plans transactions without read-tag
    // validation or against the committed slot alone (Q-Store), or
    // acknowledges an epoch before its quorum's fsyncs (Q-Store + amnesiac
    // planner crash) — must be caught, and the minimized counterexample
    // must still reproduce after a round-trip through its picks' text;
    // otherwise the zero violations above prove nothing.
    let fence = McBug::Qr(InjectedBug::SkipEpochFence);
    for (bug, bug_name) in McBug::ALL.into_iter().filter(|(bug, _)| *bug != fence) {
        let proto = all_protos().find(|&p| bug.applies_to(p)).expect("a family");
        let bug_scope = McArgs::smoke_run(proto, Some(bug)).scope(proto);
        println!(
            "\nchecker validation: injected bug {bug_name} on {}",
            proto.label()
        );
        let mut seen = HashSet::new();
        let mut cex = dfs_explore(&bug_scope, 600, &mut seen).counterexample;
        if cex.is_none() {
            cex = pct_explore(&bug_scope, 600, 77, &mut seen).counterexample;
        }
        match cex {
            None => {
                eprintln!("    injected bug was NOT caught in 1200 schedules");
                ok = false;
            }
            Some(cex) => {
                let min = shrink(&cex.choices, zero_pick, |c| {
                    !replay(&bug_scope, c).violations.is_empty()
                });
                let replayed = parse_picks(&picks_text(&min))
                    .map(|picks| replay(&bug_scope, &picks))
                    .ok();
                match replayed {
                    Some(out) if !out.violations.is_empty() => {
                        println!(
                            "    caught, minimized to {} choice(s), replays from text:",
                            min.len()
                        );
                        for v in &out.violations {
                            println!("      ! {v}");
                        }
                    }
                    _ => {
                        eprintln!("    minimized trace did NOT replay the violation");
                        ok = false;
                    }
                }
            }
        }
    }

    if !exercised.contains(&"qstore") {
        eprintln!("\nmc smoke: qstore was never exercised");
        ok = false;
    }
    if total_distinct < 10_000 {
        eprintln!("\nmc smoke: only {total_distinct} distinct schedules (< 10000)");
        ok = false;
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if ok {
        println!(
            "\nmc smoke: {total_distinct} distinct schedules ({total_runs} runs) across 4 \
             protocols, zero violations, injected bugs caught"
        );
        0
    } else {
        eprintln!("\nmc smoke: FAILED");
        1
    }
}
