//! Behaviour preservation as a one-line check: regenerate the golden
//! digests (`tests/golden/generator.rs`) and compare them with the
//! committed `tests/golden/digests.txt`. A drift names every leg that
//! moved and every field of it that moved. There is no "bless" switch: a
//! change that means to alter behaviour regenerates the file and the diff
//! goes through review.

#[path = "golden/generator.rs"]
mod generator;

use generator::{golden, sim_legs};

const COMMITTED: &str = include_str!("golden/digests.txt");

/// Compare a regenerated digest text against the committed one, line by
/// line in file order: one message per pair of lines that differ, naming
/// the leg and each of its fields whose value changed, or the legs that
/// stand where another was expected (a reordered, duplicated, new or
/// vanished leg). Empty when identical.
fn drifts(committed: &str, regenerated: &str) -> Vec<String> {
    let legs = |text| str::lines(text).filter(|l: &&str| !l.starts_with('#'));
    let (mut want, mut got) = (legs(committed), legs(regenerated));
    fn name(line: &str) -> &str {
        line.split(' ').next().unwrap_or("")
    }
    let mut out = Vec::new();
    loop {
        let msg = match (want.next(), got.next()) {
            (None, None) => return out,
            (w, g) if w == g => continue,
            (Some(w), None) => format!(
                "golden file has leg `{}` where the generator produced none",
                name(w)
            ),
            (None, Some(g)) => format!(
                "generator produced leg `{}` where the golden file has none",
                name(g)
            ),
            (Some(w), Some(g)) if name(w) != name(g) => format!(
                "golden file has leg `{}` where the generator produced `{}`",
                name(w),
                name(g)
            ),
            (Some(w), Some(g)) => {
                format!("leg `{}` drifted at {}", name(w), moved_fields(w, g))
            }
        };
        out.push(msg);
    }
}

/// The `(key, value)` fields of a leg's line, after the leg's name.
fn fields(line: &str) -> Vec<(&str, &str)> {
    line.split(' ')
        .skip(1)
        .map(|t| t.split_once('=').unwrap_or((t, "")))
        .collect()
}

/// The value of `key` among `fields`.
fn value<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Every `key=value` field that differs between two lines of one leg, as
/// "`key`: golden A, regenerated B", joined by "; " (or the order of its
/// fields, when every key holds the same value in both).
fn moved_fields(golden: &str, regenerated: &str) -> String {
    let (w, g) = (fields(golden), fields(regenerated));
    let added = g.iter().filter(|(k, _)| value(&w, k).is_none());
    let moved = w.iter().chain(added).filter_map(|&(k, _)| {
        let (a, b) = (value(&w, k), value(&g, k));
        (a != b).then(|| {
            let show = |v: Option<&str>| v.unwrap_or("<absent>").to_string();
            format!("`{k}`: golden {}, regenerated {}", show(a), show(b))
        })
    });
    let moved = moved.collect::<Vec<_>>();
    if moved.is_empty() {
        return "the order of its fields".to_string();
    }
    moved.join("; ")
}

#[test]
fn regenerated_digests_match_the_committed_golden_file() {
    let drifts = drifts(COMMITTED, &golden());
    if !drifts.is_empty() {
        panic!(
            "{}\nif the change is meant to alter behaviour: \
             `cargo run --release --example golden_digests > tests/golden/digests.txt`",
            drifts.join("\n")
        );
    }
}

/// The comparison must bite: one counter off by one, or one engine event
/// altered, fails with a message naming the leg and the field — and two
/// legs perturbed at once are both named, with every field that moved.
#[test]
fn a_perturbed_observation_is_reported_by_leg_and_field() {
    let mut sim = sim_legs().into_iter();
    let (mut qr, mut cn) = (
        sim.next().expect("bank/QR"),
        sim.next().expect("bank/QR-CN"),
    );
    let honest = format!("{}\n{}\n", qr.line(), cn.line());
    assert_eq!(drifts(&honest, &honest), Vec::<String>::new());

    let bump = |obs: &mut generator::Observation, name: &str| {
        let at = obs.counters.iter().position(|(k, _)| k == name);
        obs.counters[at.expect("a named counter")].1 += 1;
    };
    bump(&mut cn, "rpc_retries");
    cn.engine_log[17].detail ^= 1;
    bump(&mut qr, "dropped");
    let perturbed = format!("{}\n{}\n", qr.line(), cn.line());
    let msgs = drifts(&honest, &perturbed);
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(
        msgs[0].contains("`bank/QR`") && msgs[0].contains("`dropped`"),
        "{msgs:?}"
    );
    let cn_msg = &msgs[1];
    assert!(
        cn_msg.contains("`bank/QR-CN`")
            && cn_msg.contains("`rpc_retries`")
            && cn_msg.contains("`engine_hash`"),
        "{msgs:?}"
    );

    // Whole legs appearing or vanishing are drifts too.
    let msgs = drifts(COMMITTED, &format!("{COMMITTED}extra/leg a=1\n"));
    assert!(
        msgs.len() == 1 && msgs[0].contains("`extra/leg`"),
        "{msgs:?}"
    );
    let msgs = drifts(COMMITTED, "");
    let count = COMMITTED.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(msgs.len(), count, "every leg vanished");
    assert!(msgs[0].contains("`bank/QR` where"), "{msgs:?}");

    // So are legs that swap places and a leg emitted twice, though every
    // line in them is equal to a committed one.
    let swapped = format!("{}\n{}\n", cn.line(), qr.line());
    let msgs = drifts(&perturbed, &swapped);
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(
        msgs[0].contains("`bank/QR` where the generator produced `bank/QR-CN`"),
        "{msgs:?}"
    );
    let twice = format!("{perturbed}{}\n", qr.line());
    let msgs = drifts(&perturbed, &twice);
    assert!(
        msgs.len() == 1 && msgs[0].contains("produced leg `bank/QR` where"),
        "{msgs:?}"
    );
}
