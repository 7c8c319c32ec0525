//! Behaviour preservation as a one-line check: regenerate the golden
//! digests (`tests/golden/generator.rs`) and compare them with the
//! committed `tests/golden/digests.txt`. A drift names the leg and the
//! field that moved. There is no "bless" switch: a change that means to
//! alter behaviour regenerates the file and the diff goes through review.

#[path = "golden/generator.rs"]
mod generator;

use generator::{golden, sim_legs};

const COMMITTED: &str = include_str!("golden/digests.txt");

/// Compare a regenerated digest text against the committed one. `None`
/// when identical; otherwise a message naming the first leg that moved
/// and the first field of it whose value changed.
fn first_drift(committed: &str, regenerated: &str) -> Option<String> {
    let legs = |text| str::lines(text).filter(|l: &&str| !l.starts_with('#'));
    let (mut want, mut got) = (legs(committed), legs(regenerated));
    loop {
        let (w, g) = match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w == g => continue,
            (w, g) => (w.unwrap_or("<none>"), g.unwrap_or("<none>")),
        };
        let (wf, gf): (Vec<&str>, Vec<&str>) = (w.split(' ').collect(), g.split(' ').collect());
        if wf[0] != gf[0] {
            return Some(format!(
                "golden file has leg `{}` where the generator produced `{}`",
                wf[0], gf[0]
            ));
        }
        let i = (0..wf.len().max(gf.len()))
            .find(|&i| wf.get(i) != gf.get(i))
            .expect("unequal lines differ in some token");
        let (a, b) = (wf.get(i).copied(), gf.get(i).copied());
        let field = a.or(b).and_then(|t| t.split('=').next()).unwrap_or("");
        return Some(format!(
            "leg `{}` drifted at `{field}`: golden {}, regenerated {}",
            wf[0],
            a.unwrap_or("<absent>"),
            b.unwrap_or("<absent>")
        ));
    }
}

#[test]
fn regenerated_digests_match_the_committed_golden_file() {
    if let Some(drift) = first_drift(COMMITTED, &golden()) {
        panic!(
            "{drift}\nif the change is meant to alter behaviour: \
             `cargo run --release --example golden_digests > tests/golden/digests.txt`"
        );
    }
}

/// The comparison must bite: one counter off by one, or one engine event
/// altered, fails with a message naming the leg and the field.
#[test]
fn a_perturbed_observation_is_reported_by_leg_and_field() {
    let mut obs = sim_legs().swap_remove(1);
    let honest = obs.line();
    assert_eq!(first_drift(&honest, &honest), None);

    let at = obs
        .counters
        .iter()
        .position(|(k, _)| k == "rpc_retries")
        .expect("rpc_retries is a named counter");
    obs.counters[at].1 += 1;
    let msg = first_drift(&honest, &obs.line()).expect("counter drift detected");
    assert!(
        msg.contains("`bank/QR-CN`") && msg.contains("`rpc_retries`"),
        "{msg}"
    );
    obs.counters[at].1 -= 1;

    obs.engine_log[17].detail ^= 1;
    let msg = first_drift(&honest, &obs.line()).expect("event drift detected");
    assert!(
        msg.contains("`bank/QR-CN`") && msg.contains("`engine_hash`"),
        "{msg}"
    );

    // Whole legs appearing or vanishing are drifts too.
    let msg = first_drift(COMMITTED, &format!("{COMMITTED}extra/leg a=1\n")).expect("extra leg");
    assert!(msg.contains("`extra/leg`"), "{msg}");
    let msg = first_drift(COMMITTED, "").expect("missing legs");
    assert!(msg.contains("`bank/QR` where"), "{msg}");
}
