//! `FaultPlan::parse` and `mc::parse_picks` read text from outside the
//! program (`repro chaos --plan FILE`, `repro mc --replay FILE`). Whatever
//! the bytes, the answer is `Ok` or `Err` — never a panic.

use proptest::prelude::*;
use qrdtm_chaos::FaultPlan;
use qrdtm_mc::parse_picks;

/// The verbs a plan is built from, plus the comment mark and the empty
/// word; a trace is numerals alone.
const WORDS: [&str; 17] = [
    "crash",
    "recover",
    "crash-rq",
    "partition",
    "heal",
    "drop",
    "delay",
    "heal-link",
    "slow",
    "restore",
    "crash-amnesia",
    "corrupt-tail",
    "surge",
    "flash-crowd",
    "calm",
    "#",
    "",
];

/// Numerals at, inside and past the edges of the integer types the parsers
/// read (`u32` indices, `u64` microseconds, `usize` picks).
const NUMERALS: [&str; 8] = [
    "0",
    "3",
    "1000",
    "4294967295",
    "4294967296",
    "18446744073709552",
    "18446744073709551615",
    "18446744073709551616",
];

/// One token: a word, a numeral, or a numeral dressed as an offset, a
/// duration, a link or a partition group list.
fn token() -> impl Strategy<Value = String> {
    (0..7u8, 0..WORDS.len(), 0..NUMERALS.len(), 0..NUMERALS.len()).prop_map(|(shape, w, a, b)| {
        let (a, b) = (NUMERALS[a], NUMERALS[b]);
        match shape {
            0 | 1 => WORDS[w].to_string(),
            2 => a.to_string(),
            3 => format!("@{a}us"),
            4 => format!("{a}us"),
            5 => format!("{a}->{b}"),
            _ => format!("{a},{b}|{a}"),
        }
    })
}

/// Lines of one to four tokens: `@3us drop 0->3 1000`, `0 3`,
/// `@18446744073709551616us heal`, `3 3 crash` all come up.
fn token_soup() -> impl Strategy<Value = String> {
    let line = proptest::collection::vec(token(), 1..5).prop_map(|toks| toks.join(" "));
    proptest::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n"))
}

fn lossy_bytes() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u16..256, 0..200).prop_map(|bytes| {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parsers_survive_arbitrary_bytes(text in lossy_bytes()) {
        let _ = FaultPlan::parse(&text);
        let _ = parse_picks(&text);
    }

    #[test]
    fn parsers_survive_token_soup(text in token_soup()) {
        let _ = FaultPlan::parse(&text);
        let _ = parse_picks(&text);
    }
}
