//! Degenerate `repro chaos` / `repro mc` arguments are usage errors (exit
//! 2, the offending flag named on stderr) — not a panic, and not a run
//! over zero plans that reports every invariant held. A failed `--out`
//! write is a run error (exit 1, the path named on stderr).

use std::process::Command;

#[test]
fn degenerate_arguments_are_usage_errors() {
    let cases: [(&[&str], &str); 11] = [
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
        (&["mc", "--objects", "0"], "--objects at least 1"),
        (&["perf"], "usage: repro"),
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

#[test]
fn unwritable_out_dir_fails_the_run() {
    // A directory "inside" a regular file can never be created, whoever
    // runs the test (root ignores permission bits).
    let dir = format!("{}/out", env!("CARGO_BIN_EXE_repro"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig9", "--quick", "--out", &dir])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&dir), "failed path is named: {stderr}");
}
