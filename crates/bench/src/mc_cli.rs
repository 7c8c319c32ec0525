//! `repro mc` — bounded schedule exploration (model checking).
//!
//! Drives the [`qrdtm_mc`] explorer over the QR / QR-CN / QR-CHK protocols
//! and the Q-Store speculative-batching protocol at a small contended
//! scope: exhaustive DFS with commutativity pruning first, PCT-style
//! random priority schedules for breadth after. Every schedule runs the
//! full invariant battery (serializability, balance conservation,
//! durability no-regress, nesting/checkpoint structure — batch atomicity
//! on the Q-Store arm); a violation is shrunk to a minimal schedule and
//! serialized as a lossless text trace that `--replay` re-runs
//! deterministically.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use qrdtm_chaos::Proto;
use qrdtm_core::{InjectedBug, NestingMode};
use qrdtm_mc::{dfs_explore, minimize, pct_explore, replay, ExploreReport, McBug, Scope, Trace};

use crate::harness;

/// The families `all` explores: every row of the table with a view.
fn all_protos() -> Vec<Proto> {
    Proto::ALL
        .map(|r| r.0)
        .into_iter()
        .filter(|p| p.has_view())
        .collect()
}

fn parse_protos(s: &str) -> Option<Vec<Proto>> {
    if s == "all" {
        return Some(all_protos());
    }
    Proto::parse(s).map(|p| vec![p])
}

struct McArgs {
    smoke: bool,
    replay: Option<PathBuf>,
    protos: Vec<Proto>,
    seed: u64,
    nodes: usize,
    objects: u64,
    txns: usize,
    dfs: u64,
    pct: u64,
    bug: Option<McBug>,
    save_trace: Option<PathBuf>,
}

fn mc_usage() -> ! {
    eprintln!(
        "usage: repro mc --smoke\n\
         \x20      repro mc --replay FILE\n\
         \x20      repro mc [--proto qr|qr-cn|qr-chk|qstore|all] [--seed S] [--nodes N] \
         [--objects K] [--txns T]\n\
         \x20               [--dfs N] [--pct N] \
         [--inject-bug skip-vote-check|skip-epoch-fence|skip-tag-check|\
         ignore-open-epoch|ack-before-fsync] [--save-trace FILE]"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> McArgs {
    let mut a = McArgs {
        smoke: false,
        replay: None,
        protos: all_protos(),
        seed: 1,
        nodes: 3,
        objects: 2,
        txns: 2,
        dfs: 500,
        pct: 500,
        bug: None,
        save_trace: None,
    };
    let val = |args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| mc_usage())
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--replay" => a.replay = Some(PathBuf::from(val(&mut args))),
            "--proto" => {
                a.protos = parse_protos(&val(&mut args)).unwrap_or_else(|| mc_usage());
            }
            "--seed" => a.seed = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--nodes" => a.nodes = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--objects" => a.objects = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--txns" => a.txns = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--dfs" => a.dfs = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--pct" => a.pct = val(&mut args).parse().unwrap_or_else(|_| mc_usage()),
            "--inject-bug" => {
                a.bug = Some(McBug::parse_bug(&val(&mut args)).unwrap_or_else(|| mc_usage()));
            }
            "--save-trace" => a.save_trace = Some(PathBuf::from(val(&mut args))),
            _ => mc_usage(),
        }
    }
    for &proto in &a.protos {
        if let Err(e) = a.scope(proto).check() {
            eprintln!("mc: --{e}");
            mc_usage();
        }
    }
    a
}

impl McArgs {
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
    let a = parse_args(args);
    if let Some(path) = &a.replay {
        return replay_file(path);
    }
    if a.smoke {
        return smoke();
    }
    explore(&a)
}

/// Print a counterexample: the violations, then the minimized trace (and
/// optionally write it to `save_to`).
fn report_counterexample(
    scope: Scope,
    choices: &[usize],
    violations: &[String],
    save_to: Option<&Path>,
) {
    for v in violations {
        println!("    ! {v}");
    }
    println!("    shrinking the {}-choice schedule...", choices.len());
    let min = minimize(&scope, choices);
    let trace = Trace {
        scope,
        choices: min,
    };
    println!("    minimized trace ({} choice(s)):", trace.choices.len());
    for line in trace.to_string().lines() {
        println!("      {line}");
    }
    if let Some(path) = save_to {
        if let Err(e) = std::fs::write(path, trace.to_string()) {
            eprintln!("mc: cannot write {}: {e}", path.display());
        } else {
            println!("    trace written to {}", path.display());
            println!(
                "    repro: `repro mc --replay {}` (fully deterministic)",
                path.display()
            );
        }
    }
}

/// Freeform exploration at the scope given on the command line.
fn explore(a: &McArgs) -> i32 {
    println!("## mc — bounded schedule exploration + invariant checking\n");
    let mut worst = 0;
    for &proto in &a.protos {
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
            report_counterexample(
                scope,
                &cex.choices,
                &cex.violations,
                a.save_trace.as_deref(),
            );
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

/// Parse a saved trace and re-run it. Exit 0 when the replay passes every
/// invariant, 1 when it (re)produces violations.
fn replay_file(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mc: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let trace = match Trace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mc: bad trace {}: {e}", path.display());
            return 2;
        }
    };
    let out = replay(&trace.scope, &trace.choices);
    println!(
        "replayed {} choice(s) [{} nodes={} objects={} txns={} seed={}]: \
         commits={} aborts={} fingerprint={:016x}",
        trace.choices.len(),
        trace.scope.proto.label(),
        trace.scope.nodes,
        trace.scope.objects,
        trace.scope.txns,
        trace.scope.seed,
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
    let results = harness::parallel_map(all_protos(), |proto| {
        let scope = Scope::smoke(proto);
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
        (scope, runs, distinct, depth, dfs.exhausted, cex)
    });

    let mut ok = true;
    let mut total_distinct = 0u64;
    let mut total_runs = 0u64;
    // What actually ran, by label: the Q-Store arm must be among them or
    // the run is not a pass.
    let mut exercised: Vec<&str> = Vec::new();
    for (scope, runs, distinct, depth, exhausted, cex) in results {
        exercised.push(scope.proto.label());
        total_distinct += distinct;
        total_runs += runs;
        println!(
            "[{:<6}] runs={:>5} distinct={:>5} max_depth={:>3} exhausted={} => {}",
            scope.proto.label(),
            runs,
            distinct,
            depth,
            if exhausted { "yes" } else { "no" },
            if cex.is_none() { "OK" } else { "VIOLATION" },
        );
        if let Some(cex) = cex {
            report_counterexample(scope, &cex.choices, &cex.violations, None);
            ok = false;
        }
    }

    // Checker validation: every injectable bug but `skip-epoch-fence`,
    // which finds no counterexample at this scope — a protocol that trusts
    // a failed vote round (QR), plans transactions without read-tag
    // validation or against the committed slot alone (Q-Store), or
    // acknowledges an epoch before its quorum's fsyncs (Q-Store + amnesiac
    // planner crash) — must be caught, and the minimized counterexample
    // must still reproduce after a trace text round-trip; otherwise the
    // zero violations above prove nothing.
    let fence = McBug::Qr(InjectedBug::SkipEpochFence);
    for (bug, bug_name) in McBug::ALL.into_iter().filter(|(bug, _)| *bug != fence) {
        let proto = match bug {
            McBug::Qr(_) => Proto::Qr(NestingMode::Flat),
            McBug::QStore(_) => Proto::QStore,
        };
        let bug_scope = Scope {
            injected_bug: Some(bug),
            ..Scope::smoke(proto)
        };
        println!(
            "\nchecker validation: injected bug {bug_name} on {}",
            bug_scope.proto.label()
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
                let min = minimize(&bug_scope, &cex.choices);
                let trace = Trace {
                    scope: bug_scope,
                    choices: min,
                };
                let replayed = Trace::parse(&trace.to_string())
                    .map(|t| replay(&t.scope, &t.choices))
                    .ok();
                match replayed {
                    Some(out) if !out.violations.is_empty() => {
                        println!(
                            "    caught, minimized to {} choice(s), replays from text:",
                            trace.choices.len()
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
