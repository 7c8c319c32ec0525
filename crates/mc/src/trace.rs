//! A saved schedule is its picks alone: the scheduler choice taken at each
//! decision point, whitespace-separated. The scope they were recorded
//! under is `repro mc`'s flags, which `--save-trace` writes as the file's
//! `#` header — the command that replays it — as a chaos plan's header is
//! the `repro chaos` command that replays the plan.
//!
//! ```text
//! # repro mc --proto qr --seed 1 --nodes 3 --objects 2 --txns 2 --replay t.trace
//! 0 2 1
//! ```

/// Read the picks of `text`: every token of every line that is neither
/// blank nor a `#` comment, in order. A token that is not a `usize` is an
/// error naming its line.
pub fn parse_picks(text: &str) -> Result<Vec<usize>, String> {
    let mut picks = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with('#') {
            continue;
        }
        for t in line.split_whitespace() {
            let pick = t
                .parse()
                .map_err(|_| format!("line {}: bad pick `{t}`", n + 1));
            picks.push(pick?);
        }
    }
    Ok(picks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_round_trip_under_comments_and_blank_lines() {
        let picks = vec![0, 2, 1, 0, 3];
        let body: Vec<String> = picks.iter().map(ToString::to_string).collect();
        let text = format!("# repro mc --proto qr --replay F\n\n{}\n", body.join(" "));
        assert_eq!(parse_picks(&text).unwrap(), picks);
        assert_eq!(parse_picks("0 1\n2\n").unwrap(), vec![0, 1, 2]);
        assert_eq!(
            parse_picks("# only a header\n").unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn a_token_that_is_not_a_pick_is_an_error() {
        let err = parse_picks("# header\n0 1\n2 x\n").unwrap_err();
        assert!(err.contains("line 3: bad pick `x`"), "{err}");
        for bad in ["-1", "choices 0", "18446744073709551616", "1.5"] {
            assert!(parse_picks(bad).is_err(), "{bad}");
        }
    }
}
