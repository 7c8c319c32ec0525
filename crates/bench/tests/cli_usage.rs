//! Degenerate `repro chaos` / `repro mc` arguments are usage errors
//! (exit 2, the offending flag named on stderr) — not a
//! panic, and not a run over zero plans or transactions that reports every
//! invariant held. A failed `--out` or `--save-plan` write is a run error
//! (exit 1, the path named on stderr).

use std::process::Command;

#[test]
fn degenerate_arguments_are_usage_errors() {
    // A plan and a trace that replay: a flag refused next to them is
    // refused for itself, not for a bad file.
    let plan = format!("{}/one_crash.plan", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&plan, "@100000us crash 1\n").expect("write plan");
    let trace = format!("{}/one_pick.trace", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&trace, "0\n").expect("write trace");
    let unsaved = format!("{}/unsaved.plan", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&unsaved);
    let cases: [(&[&str], &str); 32] = [
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
        // A second run's plan used to overwrite the first one's minimized
        // reproducer: `--proto all` is six runs.
        (&["chaos", "--save-plan", &unsaved], "chaos: --save-plan"),
        (
            &[
                "chaos",
                "--proto",
                "tfa",
                "--seeds",
                "2",
                "--save-plan",
                &unsaved,
            ],
            "chaos: --save-plan",
        ),
        (
            &[
                "chaos",
                "--smoke",
                "--proto",
                "tfa",
                "--save-plan",
                &unsaved,
            ],
            "chaos: --save-plan",
        ),
        // Two nodes cannot tell a crash of node 0 from its isolation, so
        // the detector never suspects it: used to run and violate.
        (
            &["chaos", "--proto", "qr-cn", "--detector", "--nodes", "2"],
            "chaos: --nodes",
        ),
        // Used to run the amnesia suite alone and exit 0.
        (
            &["chaos", "--smoke", "--detector", "--amnesia"],
            "chaos: --smoke",
        ),
        (&["mc", "--nodes", "0"], "mc: --nodes"),
        (&["mc", "--nodes", "2", "--proto", "qstore"], "mc: --nodes"),
        (&["mc", "--objects", "0"], "mc: --objects"),
        // A transfer from o0 to o0 reads it twice and the second write
        // wins: used to report a balance leak on a correct protocol.
        (&["mc", "--objects", "1"], "mc: --objects"),
        // No transaction to schedule: used to pass vacuously.
        (&["mc", "--txns", "0"], "mc: --txns"),
        // No DFS budget: used to run one schedule anyway.
        (
            &["mc", "--proto", "qr", "--dfs", "0", "--pct", "0"],
            "mc: --dfs",
        ),
        // A replay runs one family: the flags are the trace's scope.
        (&["mc", "--replay", &trace], "mc: --replay"),
        (
            &[
                "mc", "--proto", "qstore", "--nodes", "2", "--replay", &trace,
            ],
            "mc: --nodes",
        ),
        // Each flag below used to be dropped without a word: the smoke ran
        // whole, the saved record ran alone, or the correct protocol ran
        // green. A flag the selected mode does not read is refused.
        (&["chaos", "--smoke", "--proto", "tfa"], "chaos: --proto"),
        (&["chaos", "--smoke", "--seed", "3"], "chaos: --seed"),
        (
            &["chaos", "--plan", &plan, "--fig10", "2"],
            "chaos: --fig10",
        ),
        (
            &["chaos", "--plan", &plan, "--events", "9"],
            "chaos: --events",
        ),
        (
            &["chaos", "--fig10", "2", "--events", "9"],
            "chaos: --events",
        ),
        (&["mc", "--smoke", "--proto", "qr"], "mc: --proto"),
        (
            &["mc", "--proto", "qr", "--dfs", "9", "--replay", &trace],
            "mc: --dfs",
        ),
        (
            &[
                "mc",
                "--proto",
                "qr",
                "--replay",
                &trace,
                "--save-trace",
                &unsaved,
            ],
            "mc: --save-trace",
        ),
        // `--proto all` explores the bug's family: three QR variants.
        (
            &[
                "mc",
                "--inject-bug",
                "skip-vote-check",
                "--save-trace",
                &unsaved,
            ],
            "mc: --save-trace",
        ),
        (
            &["mc", "--proto", "qstore", "--inject-bug", "skip-vote-check"],
            "mc: --inject-bug",
        ),
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
    assert!(!std::path::Path::new(&unsaved).exists(), "no plan written");
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

    // A run's modes shape it as much as its family and seed: the header
    // of the saved plan is the command that replays it, mode flags and
    // horizon included.
    for (mode, proto) in [("--amnesia", "qr-cn"), ("--detector", "qr")] {
        let plan = format!("{dir}/cli_usage_{proto}.plan");
        let (code, first) = repro(&[
            "chaos",
            mode,
            "--proto",
            proto,
            "--seed",
            "3",
            "--horizon-ms",
            "400",
            "--save-plan",
            &plan,
        ]);
        assert_eq!(code, Some(0), "{first}");
        let text = std::fs::read_to_string(&plan).expect("saved plan");
        let header = text.lines().next().expect("a header line");
        let command: Vec<&str> = header
            .strip_prefix("# repro ")
            .expect("the header is a repro command")
            .split(' ')
            .collect();
        assert!(command.contains(&mode), "{header}");
        assert!(command.contains(&"400"), "{header}");
        let (code, again) = repro(&command);
        assert_eq!(code, Some(0), "{again}");
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with('['))
                .expect("one report line")
                .to_string()
        };
        assert_eq!(line(&first), line(&again), "{header}");
    }

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

    // A trace holds only its picks; its scope is the command in its
    // header, which replays it as written — here a scope no default gives,
    // so a replay at the defaults reports other violations.
    let trace = format!("{dir}/cli_usage.trace");
    let scope = [
        "--proto",
        "qr",
        "--seed",
        "3",
        "--nodes",
        "4",
        "--objects",
        "2",
        "--txns",
        "3",
        "--inject-bug",
        "skip-vote-check",
    ];
    let search = ["--dfs", "50", "--pct", "0", "--save-trace", &trace];
    let (code, found) = repro(&[&["mc"][..], &scope, &search].concat());
    assert_eq!(code, Some(1), "the injected bug is caught: {found}");
    let text = std::fs::read_to_string(&trace).expect("saved trace");
    let mut lines = text.lines();
    let header = lines.next().expect("a header line");
    let command: Vec<&str> = header
        .strip_prefix("# repro ")
        .expect("the header is a repro command")
        .split(' ')
        .collect();
    let expected = [&["mc"][..], &scope, &["--replay", &trace]].concat();
    assert_eq!(command, expected, "{header}");
    for line in lines {
        let pick = |t: &str| t.parse::<usize>().is_ok();
        assert!(line.split_whitespace().all(pick), "only picks: {text}");
    }
    let (code, replayed) = repro(&command);
    assert_eq!(code, Some(1), "{replayed}");
    let violations = |s: &str| -> Vec<String> {
        let lines = s.lines().filter(|l| l.contains("! T"));
        lines.map(|l| l.trim().to_string()).collect()
    };
    assert!(!violations(&found).is_empty(), "{found}");
    assert_eq!(violations(&found), violations(&replayed));
    let (_, at_defaults) = repro(&["mc", "--proto", "qr", "--replay", &trace]);
    assert_ne!(violations(&found), violations(&at_defaults));
}
