//! Every deterministic `repro` surface against its committed golden under
//! `tests/golden/repro/`: the four chaos smokes, `mc --smoke`, and
//! `all --quick` with each CSV it writes. A surface must exit 0 and match
//! its golden byte for byte; a drift names the surface, the file and the
//! first line that differs. There is no "bless" switch: a change meant to
//! alter an output runs `scripts/regen_goldens.sh` and the diff is reviewed.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/repro");

/// `None` when `got` equals the golden `file` byte for byte (a missing
/// golden reads as empty); otherwise the surface, file and first differing line.
fn drift(surface: &str, file: &str, got: &str) -> Option<String> {
    let golden = fs::read_to_string(format!("{GOLDEN}/{file}")).unwrap_or_default();
    let (mut want, mut have) = (golden.split_inclusive('\n'), got.split_inclusive('\n'));
    let mut line = 1;
    loop {
        match (want.next(), have.next()) {
            (None, None) => return None,
            (w, h) if w == h => line += 1,
            (w, h) => {
                return Some(format!(
                    "`repro {surface}` drifted from tests/golden/repro/{file} at line {line}\n  \
                     golden: {w:?}\n  now:    {h:?}\nif meant: `scripts/regen_goldens.sh`"
                ))
            }
        }
    }
}

/// Run `repro <surface> <extra>`, insist on exit 0, and return its stdout.
fn repro(surface: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(surface.split(' '))
        .args(extra)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "`repro {surface}` exited {}:\n{stderr}",
        out.status
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// A smoke's golden is named after its arguments, as the regeneration
/// script writes it: `chaos --smoke --amnesia` → `chaos_smoke_amnesia.txt`.
fn check(surface: &str) {
    let file = format!("{}.txt", surface.replace(" --", "_"));
    if let Some(msg) = drift(surface, &file, &repro(surface, &[])) {
        panic!("{msg}");
    }
}

#[test]
fn chaos_smoke() {
    check("chaos --smoke");
}

#[test]
fn chaos_smoke_detector() {
    check("chaos --smoke --detector");
}

#[test]
fn chaos_smoke_amnesia() {
    check("chaos --smoke --amnesia");
}

#[test]
fn chaos_smoke_overload() {
    check("chaos --smoke --overload");
}

#[test]
fn mc_smoke() {
    check("mc --smoke");
}

/// A CSV on one side only is a drift too: the missing side reads as empty.
#[test]
fn all_quick() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("all_quick");
    let _ = fs::remove_dir_all(&out);
    let stdout = repro("all --quick", &["--out", out.to_str().expect("UTF-8 path")]);
    let mut drifts = Vec::from_iter(drift("all --quick", "all_quick.txt", &stdout));
    let mut csvs = BTreeSet::new();
    for dir in [Path::new(GOLDEN).join("all_quick"), out.clone()] {
        for entry in fs::read_dir(dir).expect("CSV dir") {
            csvs.insert(entry.expect("dir entry").file_name());
        }
    }
    for csv in csvs {
        let got = fs::read_to_string(out.join(&csv)).unwrap_or_default();
        let file = format!("all_quick/{}", csv.to_string_lossy());
        drifts.extend(drift("all --quick", &file, &got));
    }
    assert!(drifts.is_empty(), "{}", drifts.join("\n"));
}

/// The comparison bites: a flipped chaos-smoke line and a flipped CSV cell
/// each fail with the surface, the file and the line named.
#[test]
fn a_flipped_line_or_cell_is_reported_by_surface_file_and_line() {
    flip("chaos --smoke", "chaos_smoke.txt", "=> OK", 3);
    flip("all --quick", "all_quick/table8.csv", "+15%", 2);
}

/// Flip the first `from` in a golden: the drift must name the surface, the
/// file, the line and the flipped text.
fn flip(surface: &str, file: &str, from: &str, line: usize) {
    let golden = fs::read_to_string(format!("{GOLDEN}/{file}")).expect("golden");
    assert_eq!(drift(surface, file, &golden), None);
    let msg = drift(surface, file, &golden.replacen(from, "FLIPPED", 1)).expect("drift");
    let at = format!("`repro {surface}` drifted from tests/golden/repro/{file} at line {line}");
    assert!(msg.starts_with(&at) && msg.contains("FLIPPED"), "{msg}");
}
