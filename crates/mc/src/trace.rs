//! Replayable schedule traces — lossless text, same philosophy as the
//! chaos crate's `FaultPlan`: what the explorer writes on a violation,
//! `repro mc --replay` parses back byte-for-byte equivalently.
//!
//! Format (one `key value…` pair per line; `#` and blank lines ignored):
//!
//! ```text
//! # qrdtm-mc trace v1
//! proto QR-CN
//! seed 1
//! nodes 3
//! objects 2
//! txns 2
//! choices 0 2 1
//! ```
//!
//! An optional `bug skip-vote-check` / `bug skip-epoch-fence` /
//! `bug skip-tag-check` line records an injected protocol bug (checker
//! validation runs). `proto QSTORE` selects the Q-Store arm.

use std::fmt;

use crate::runner::{McBug, McProto, Scope};

/// A replayable schedule: the exploration [`Scope`] plus the scheduler
/// choice taken at each decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Scope the choices were recorded under.
    pub scope: Scope,
    /// Scheduler choices (trailing zeros may be trimmed; replay pads with
    /// default picks).
    pub choices: Vec<usize>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# qrdtm-mc trace v1")?;
        writeln!(f, "proto {}", self.scope.proto.trace_label())?;
        writeln!(f, "seed {}", self.scope.seed)?;
        writeln!(f, "nodes {}", self.scope.nodes)?;
        writeln!(f, "objects {}", self.scope.objects)?;
        writeln!(f, "txns {}", self.scope.txns)?;
        if let Some(b) = self.scope.injected_bug {
            writeln!(f, "bug {}", b.label())?;
        }
        write!(f, "choices")?;
        for c in &self.choices {
            write!(f, " {c}")?;
        }
        writeln!(f)
    }
}

impl Trace {
    /// Parse the text form. `#` and blank lines are ignored; unknown or
    /// repeated keys, missing required fields, tokens after a value and a
    /// scope [`Scope::check`] refuses are errors (a trace must be lossless:
    /// silently dropping or overriding a field would change the replayed
    /// schedule, and an empty scope has nothing to schedule).
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut proto = None;
        let mut seed = None;
        let mut nodes = None;
        let mut objects = None;
        let mut txns = None;
        let mut bug = None;
        let mut choices: Option<Vec<usize>> = None;
        let mut seen = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", n + 1);
            let mut it = line.split_whitespace();
            let key = it.next().expect("non-empty line");
            if seen.contains(&key) {
                return Err(at(format!("duplicate `{key}` line")));
            }
            seen.push(key);
            let vals: Vec<&str> = it.collect();
            let one = || match vals[..] {
                [v] => Ok(v),
                [] => Err(at(format!("`{key}` needs a value"))),
                [_, extra, ..] => Err(at(format!("unexpected `{extra}` after `{key}` value"))),
            };
            let num = || parse_num(one()?).map_err(&at);
            match key {
                "proto" => {
                    let v = one()?;
                    proto = Some(
                        McProto::from_trace_label(v)
                            .ok_or_else(|| at(format!("unknown proto `{v}`")))?,
                    );
                }
                "seed" => seed = Some(num()?),
                "nodes" => nodes = Some(num()? as usize),
                "objects" => objects = Some(num()?),
                "txns" => txns = Some(num()? as usize),
                "bug" => {
                    let v = one()?;
                    bug =
                        Some(McBug::parse_bug(v).ok_or_else(|| at(format!("unknown bug `{v}`")))?);
                }
                "choices" => {
                    choices = Some(
                        vals.iter()
                            .map(|t| {
                                t.parse::<usize>()
                                    .map_err(|_| at(format!("bad choice `{t}`")))
                            })
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }
        let require = |name: &str| format!("missing required `{name}` line");
        let scope = Scope {
            proto: proto.ok_or_else(|| require("proto"))?,
            nodes: nodes.ok_or_else(|| require("nodes"))?,
            objects: objects.ok_or_else(|| require("objects"))?,
            txns: txns.ok_or_else(|| require("txns"))?,
            seed: seed.ok_or_else(|| require("seed"))?,
            injected_bug: bug,
        };
        scope.check()?;
        Ok(Trace {
            scope,
            choices: choices.ok_or_else(|| require("choices"))?,
        })
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad number `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{InjectedBug, NestingMode};
    use qrdtm_qstore::QStoreBug;

    fn sample() -> Trace {
        Trace {
            scope: Scope {
                proto: McProto::Qr(NestingMode::Closed),
                nodes: 3,
                objects: 2,
                txns: 2,
                seed: 7,
                injected_bug: Some(McBug::Qr(InjectedBug::SkipVoteCheck)),
            },
            choices: vec![0, 2, 1, 0, 3],
        }
    }

    #[test]
    fn display_parse_round_trips() {
        let t = sample();
        let text = t.to_string();
        assert_eq!(Trace::parse(&text).unwrap(), t);
        // And without the optional bug line / with empty choices.
        let mut t2 = sample();
        t2.scope.injected_bug = None;
        t2.choices = vec![];
        assert_eq!(Trace::parse(&t2.to_string()).unwrap(), t2);
        // The Q-Store arm round-trips its own proto and bug labels.
        let mut t3 = sample();
        t3.scope.proto = McProto::QStore;
        t3.scope.injected_bug = Some(McBug::QStore(QStoreBug::SkipTagCheck));
        let text = t3.to_string();
        assert!(text.contains("proto QSTORE"));
        assert!(text.contains("bug skip-tag-check"));
        assert_eq!(Trace::parse(&text).unwrap(), t3);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# hello\nproto QR\nseed 1\n\nnodes 3\nobjects 2\ntxns 2\nchoices 1 2\n";
        let t = Trace::parse(text).unwrap();
        assert_eq!(t.scope.proto, McProto::Qr(NestingMode::Flat));
        assert_eq!(t.choices, vec![1, 2]);
    }

    #[test]
    fn unknown_keys_and_missing_fields_are_errors() {
        assert!(Trace::parse("proto QR\nbogus 1\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(Trace::parse("proto QR-XX\n")
            .unwrap_err()
            .contains("unknown proto"));
        let missing = Trace::parse("proto QR\nseed 1\nnodes 3\nobjects 2\ntxns 2\n");
        assert!(missing.unwrap_err().contains("choices"));
        assert!(Trace::parse("proto QR\nseed x\n")
            .unwrap_err()
            .contains("bad number"));
        // Zero-sized scopes, trailing tokens and repeated keys would each
        // replay a different schedule than the text describes (or none).
        let with = |line: &str| {
            let text = format!("proto QR\nseed 1\n{line}\ntxns 2\nchoices 1\n");
            Trace::parse(&text).unwrap_err()
        };
        assert!(with("nodes 0\nobjects 2").contains("nodes must be at least 1"));
        assert!(with("nodes 3\nobjects 0").contains("objects must be at least 1"));
        assert!(with("nodes 3 4\nobjects 2").contains("unexpected `4` after `nodes`"));
        assert!(Trace::parse("proto QR\nseed 5 6\n")
            .unwrap_err()
            .contains("unexpected `6` after `seed`"));
        assert!(with("nodes 3\nobjects 2\nnodes 5").contains("duplicate `nodes`"));
        assert!(with("nodes 3\nobjects 2\nchoices 0").contains("duplicate `choices`"));
        assert!(with("nodes\nobjects 2").contains("`nodes` needs a value"));
    }

    #[test]
    fn scopes_the_cli_refuses_are_refused_in_a_trace_too() {
        let parse = |proto: &str, nodes: u32, txns: u32| {
            let text = format!(
                "proto {proto}\nseed 1\nnodes {nodes}\nobjects 2\ntxns {txns}\nchoices 1\n"
            );
            Trace::parse(&text)
        };
        // No transaction: one empty schedule would pass vacuously.
        assert!(parse("QR", 3, 0)
            .unwrap_err()
            .contains("txns must be at least 1"));
        // Two Q-Store nodes have no meaningful majority to build.
        assert!(parse("QSTORE", 2, 2)
            .unwrap_err()
            .contains("nodes must be at least 3 for qstore"));
        assert!(parse("QR", 2, 2).is_ok(), "QR runs on two nodes");
    }
}
