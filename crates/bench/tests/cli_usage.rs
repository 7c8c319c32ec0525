//! Degenerate `repro chaos` / `repro mc` arguments and traces are usage
//! errors (exit 2, the offending flag or field named on stderr) — not a
//! panic, and not a run over zero plans or transactions that reports every
//! invariant held. A failed `--out` or `--save-plan` write is a run error
//! (exit 1, the path named on stderr).

use std::process::Command;

#[test]
fn degenerate_arguments_are_usage_errors() {
    // A trace the CLI would refuse to record: two Q-Store nodes.
    let trace = format!("{}/two_node_qstore.trace", env!("CARGO_TARGET_TMPDIR"));
    let text = "proto QSTORE\nseed 1\nnodes 2\nobjects 2\ntxns 2\nchoices 0\n";
    std::fs::write(&trace, text).expect("write trace");
    let cases: [(&[&str], &str); 14] = [
        (&["chaos", "--seeds", "0"], "chaos: --seeds"),
        (
            &["chaos", "--seed", "18446744073709551615", "--seeds", "2"],
            "chaos: --seeds",
        ),
        (&["chaos", "--nodes", "0"], "chaos: --nodes"),
        (&["chaos", "--nodes", "1"], "chaos: --nodes"),
        // Q-Store needs three nodes for a meaningful majority.
        (
            &["chaos", "--nodes", "2", "--proto", "qstore"],
            "chaos: --nodes",
        ),
        (&["chaos", "--horizon-ms", "0"], "chaos: --horizon-ms"),
        // One past the largest millisecond count that fits in u64 ns: used
        // to wrap to a 0.448 ms horizon (release) or panic (debug).
        (
            &["chaos", "--horizon-ms", "18446744073710"],
            "chaos: --horizon-ms",
        ),
        (&["mc", "--nodes", "0"], "mc: --nodes"),
        (&["mc", "--nodes", "2", "--proto", "qstore"], "mc: --nodes"),
        (&["mc", "--objects", "0"], "mc: --objects"),
        // No transaction to schedule: used to pass vacuously.
        (&["mc", "--txns", "0"], "mc: --txns"),
        (&["mc", "--replay", &trace], "nodes must be at least 3"),
        (&["perf"], "usage: repro"),
        (&["debug"], "usage: repro"),
    ];
    for (args, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains(names), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}

/// Run `repro <args> PATH` with a PATH that cannot be written and expect
/// exit 1 with the path named. A path "inside" a regular file can never be
/// created, whoever runs the test (root ignores permission bits).
fn unwritable_path_fails_the_run(args: &[&str]) {
    let path = format!("{}/out", env!("CARGO_BIN_EXE_repro"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg(&path)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "repro {args:?}: {stderr}");
    assert!(stderr.contains(&path), "failed path is named: {stderr}");
}

#[test]
fn unwritable_out_dir_fails_the_run() {
    unwritable_path_fails_the_run(&["fig9", "--quick", "--out"]);
}

/// Used to print `chaos: cannot write …`, run the plan anyway and exit 0
/// with "all invariants held".
#[test]
fn unwritable_save_plan_fails_the_run() {
    unwritable_path_fails_the_run(&[
        "chaos",
        "--proto",
        "tfa",
        "--seeds",
        "1",
        "--events",
        "2",
        "--horizon-ms",
        "300",
        "--save-plan",
    ]);
}

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// What a violation report tells the user to do next — save the plan or
/// trace, then re-run it with `--plan` / `--replay` — works from the
/// command line, and the replay says what the first run said.
#[test]
fn saved_plans_and_traces_replay_from_the_command_line() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let report_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("[tfa"))
            .expect("one report line")
            .to_string()
    };
    let plan = format!("{dir}/cli_usage.plan");
    let shape = ["chaos", "--proto", "tfa", "--horizon-ms", "300"];
    let generate = [&shape[..], &["--events", "2", "--save-plan", &plan]].concat();
    let (code, first) = repro(&generate);
    assert_eq!(code, Some(0), "{first}");
    let (code, again) = repro(&[&shape[..], &["--plan", &plan]].concat());
    assert_eq!(code, Some(0), "{again}");
    assert_eq!(report_line(&first), report_line(&again));

    let (code, out) = repro(&[
        "chaos",
        "--proto",
        "qr-cn",
        "--horizon-ms",
        "400",
        "--fig10",
        "2",
    ]);
    assert_eq!(code, Some(0), "{out}");
    assert!(
        out.contains("applied= 2"),
        "both fig10 crashes applied: {out}"
    );

    let trace = format!("{dir}/cli_usage.trace");
    let (code, found) = repro(&[
        "mc",
        "--proto",
        "qr",
        "--txns",
        "2",
        "--seed",
        "1",
        "--inject-bug",
        "skip-vote-check",
        "--dfs",
        "50",
        "--pct",
        "0",
        "--save-trace",
        &trace,
    ]);
    assert_eq!(code, Some(1), "the injected bug is caught: {found}");
    let (code, replayed) = repro(&["mc", "--replay", &trace]);
    assert_eq!(code, Some(1), "{replayed}");
    let violation = |s: &str| {
        s.lines()
            .find(|l| l.contains("! T"))
            .map(str::trim)
            .map(String::from)
    };
    assert!(violation(&found).is_some(), "{found}");
    assert_eq!(violation(&found), violation(&replayed));
}
