//! Declarative fault plans: the vocabulary of things a nemesis can do to a
//! running cluster, with virtual-time offsets.
//!
//! A [`FaultPlan`] is data, not code — it can be generated from a seed,
//! printed, parsed back, shrunk to a minimal reproducer, and replayed
//! deterministically (see [`mod@crate::generate`] and [`crate::nemesis`]).
//! Every quantity is integral (permille, percent, microseconds) so plans
//! compare exactly and round-trip through text losslessly.

use qrdtm_sim::SimDuration;
use std::fmt;

use crate::generate::FaultClass;

/// One thing the nemesis can do to the cluster.
///
/// Node indices refer to simulator [`NodeId`](qrdtm_sim::NodeId)s;
/// out-of-range indices make the event a no-op (counted as skipped), so a
/// plan written for a big cluster degrades gracefully on a small one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash-stop a node (quorum view repaired, as the paper's Cluster
    /// Manager would).
    Crash {
        /// Victim node index.
        node: u32,
    },
    /// Recover a crashed node (state transfer + view repair).
    Recover {
        /// Node index to bring back.
        node: u32,
    },
    /// Crash the first member of the current read quorum — the paper's
    /// Fig. 10 failure schedule, one event per victim.
    CrashReadQuorum,
    /// Partition the cluster into the given groups; unlisted nodes form
    /// their own side. Replaces any earlier partition.
    Partition {
        /// Node-index groups that can still talk among themselves.
        groups: Vec<Vec<u32>>,
    },
    /// Remove any partition.
    Heal,
    /// Drop each message on the directed link with probability
    /// `permille`/1000.
    DropLink {
        /// Sending side of the link.
        from: u32,
        /// Receiving side of the link.
        to: u32,
        /// Loss probability in permille (0..=1000).
        permille: u16,
    },
    /// Add `extra_us` microseconds of one-way latency to the directed link.
    Delay {
        /// Sending side of the link.
        from: u32,
        /// Receiving side of the link.
        to: u32,
        /// Extra one-way latency in microseconds.
        extra_us: u64,
    },
    /// Clear all injected faults from the directed link.
    HealLink {
        /// Sending side of the link.
        from: u32,
        /// Receiving side of the link.
        to: u32,
    },
    /// Gray failure: multiply a node's service time by `factor_pct`/100.
    Slow {
        /// Victim node index.
        node: u32,
        /// Service-time multiplier in percent (e.g. 300 = 3x slower).
        factor_pct: u32,
    },
    /// Restore a slowed node to healthy speed.
    Restore {
        /// Node index to restore.
        node: u32,
    },
    /// Crash a node **with amnesia**: its volatile replica state is lost
    /// and it keeps only its durable snapshot+log (possibly with a torn
    /// tail), so the later `recover` must replay and quorum-repair instead
    /// of receiving an oracle state transfer. Only applicable to targets
    /// with durable storage armed.
    CrashAmnesia {
        /// Victim node index.
        node: u32,
    },
    /// Corrupt the tail of a node's durable log in place — the damage
    /// stays latent until the node's next amnesiac restart detects and
    /// truncates it.
    CorruptTail {
        /// Victim node index.
        node: u32,
    },
    /// Overload: multiply the open-loop offered rate by `factor_pct`/100.
    /// Only applicable when the run drives open-loop traffic; skipped
    /// (counted) otherwise.
    Surge {
        /// Rate multiplier in percent (e.g. 300 = 3x the nominal rate).
        factor_pct: u32,
    },
    /// Overload: funnel most open-loop arrivals to one node — a flash
    /// crowd hammering a single entry point. Only applicable to open-loop
    /// runs.
    FlashCrowd {
        /// The node the crowd converges on.
        node: u32,
    },
    /// Return the offered load to nominal: clear any surge and flash
    /// crowd.
    Calm,
}

impl FaultKind {
    /// Code of the nemesis's end-of-run heal-all backstop, which is no plan
    /// verb but emits a `FaultInjected` event like one.
    pub const HEAL_ALL: u64 = 0;
    /// [`FaultKind::code`] of `crash`.
    pub const CRASH: u64 = 1;
    /// [`FaultKind::code`] of `recover`.
    pub const RECOVER: u64 = 2;
    /// [`FaultKind::code`] of `crash-rq`.
    pub const CRASH_READ_QUORUM: u64 = 3;
    /// [`FaultKind::code`] of `partition`.
    pub const PARTITION: u64 = 4;
    /// [`FaultKind::code`] of `heal`.
    pub const HEAL: u64 = 5;

    /// The generated-fault class whose admission rule
    /// ([`FaultClass::admitted`]) this verb follows; `None` for a cure,
    /// which every target may take.
    pub(crate) fn class(&self) -> Option<FaultClass> {
        Some(match self {
            FaultKind::Crash { .. } | FaultKind::CrashReadQuorum => FaultClass::Crash,
            FaultKind::Partition { .. } => FaultClass::Partition,
            FaultKind::DropLink { .. } => FaultClass::Drop,
            FaultKind::Delay { .. } => FaultClass::Delay,
            FaultKind::Slow { .. } => FaultClass::Slow,
            FaultKind::CrashAmnesia { .. } | FaultKind::CorruptTail { .. } => FaultClass::Amnesia,
            FaultKind::Surge { .. } => FaultClass::Surge,
            FaultKind::FlashCrowd { .. } => FaultClass::FlashCrowd,
            FaultKind::Recover { .. }
            | FaultKind::Heal
            | FaultKind::HealLink { .. }
            | FaultKind::Restore { .. }
            | FaultKind::Calm => return None,
        })
    }

    /// Stable numeric code for this fault kind, carried as the `detail` of
    /// the `FaultInjected` engine event so fault timing is greppable in
    /// any recorded trace.
    pub fn code(&self) -> u64 {
        match self {
            FaultKind::Crash { .. } => Self::CRASH,
            FaultKind::Recover { .. } => Self::RECOVER,
            FaultKind::CrashReadQuorum => Self::CRASH_READ_QUORUM,
            FaultKind::Partition { .. } => Self::PARTITION,
            FaultKind::Heal => Self::HEAL,
            FaultKind::DropLink { .. } => 6,
            FaultKind::Delay { .. } => 7,
            FaultKind::HealLink { .. } => 8,
            FaultKind::Slow { .. } => 9,
            FaultKind::Restore { .. } => 10,
            FaultKind::CrashAmnesia { .. } => 11,
            FaultKind::CorruptTail { .. } => 12,
            FaultKind::Surge { .. } => 13,
            FaultKind::FlashCrowd { .. } => 14,
            FaultKind::Calm => 15,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash { node } => write!(f, "crash {node}"),
            FaultKind::Recover { node } => write!(f, "recover {node}"),
            FaultKind::CrashReadQuorum => write!(f, "crash-rq"),
            FaultKind::Partition { groups } => {
                write!(f, "partition ")?;
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    for (j, n) in g.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{n}")?;
                    }
                }
                Ok(())
            }
            FaultKind::Heal => write!(f, "heal"),
            FaultKind::DropLink { from, to, permille } => {
                write!(f, "drop {from}->{to} {permille}")
            }
            FaultKind::Delay { from, to, extra_us } => {
                write!(f, "delay {from}->{to} {extra_us}us")
            }
            FaultKind::HealLink { from, to } => write!(f, "heal-link {from}->{to}"),
            FaultKind::Slow { node, factor_pct } => write!(f, "slow {node} {factor_pct}"),
            FaultKind::Restore { node } => write!(f, "restore {node}"),
            FaultKind::CrashAmnesia { node } => write!(f, "crash-amnesia {node}"),
            FaultKind::CorruptTail { node } => write!(f, "corrupt-tail {node}"),
            FaultKind::Surge { factor_pct } => write!(f, "surge {factor_pct}"),
            FaultKind::FlashCrowd { node } => write!(f, "flash-crowd {node}"),
            FaultKind::Calm => write!(f, "calm"),
        }
    }
}

/// A fault at a virtual-time offset from the start of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When to inject, relative to nemesis start.
    pub at: SimDuration,
    /// What to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}us {}", self.at.as_nanos() / 1_000, self.kind)
    }
}

/// A timed list of fault events, kept sorted by offset (ties keep
/// insertion order, so replays are exact).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The events, ordered by `at`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Build a plan from events (sorted by offset, stable).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The paper's Fig. 10 crash schedule as a plan: starting at `start`,
    /// crash the current first read-quorum member every `spacing`, for
    /// `failures` victims, with no recovery. Each crash collapses the
    /// quorum view onto the victims' replacements, exactly as the
    /// experiment harness does it.
    pub fn fig10(failures: usize, start: SimDuration, spacing: SimDuration) -> Self {
        FaultPlan::new(
            (0..failures)
                .map(|i| FaultEvent {
                    at: start + SimDuration::from_nanos(spacing.as_nanos() * i as u64),
                    kind: FaultKind::CrashReadQuorum,
                })
                .collect(),
        )
    }

    /// Serialize to the line-oriented text format (see [`FaultPlan::parse`]).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# qrdtm-chaos fault plan v1\n");
        for ev in &self.events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse the text format produced by [`FaultPlan::to_text`]:
    /// one `@<offset>us <fault>` per line, `#` comments and blank lines
    /// ignored. Returns a message naming the offending line on error.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            events.push(
                parse_event(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?,
            );
        }
        Ok(FaultPlan::new(events))
    }
}

fn parse_micros(tok: &str) -> Result<u64, String> {
    let digits = tok
        .strip_suffix("us")
        .ok_or_else(|| format!("expected microseconds like '500us', got {tok:?}"))?;
    digits
        .parse::<u64>()
        .map_err(|e| format!("bad duration {tok:?}: {e}"))
}

fn parse_u32(tok: &str) -> Result<u32, String> {
    tok.parse::<u32>()
        .map_err(|e| format!("bad index {tok:?}: {e}"))
}

fn parse_link(tok: &str) -> Result<(u32, u32), String> {
    let (a, b) = tok
        .split_once("->")
        .ok_or_else(|| format!("expected link like '3->7', got {tok:?}"))?;
    Ok((parse_u32(a)?, parse_u32(b)?))
}

fn parse_event(line: &str) -> Result<FaultEvent, String> {
    let mut toks = line.split_whitespace();
    let at_tok = toks.next().ok_or("empty event")?;
    let at_tok = at_tok
        .strip_prefix('@')
        .ok_or_else(|| format!("event must start with '@<offset>us', got {at_tok:?}"))?;
    let at = SimDuration::from_micros(parse_micros(at_tok)?);
    let verb = toks.next().ok_or("missing fault verb")?;
    let mut arg = || {
        toks.next()
            .ok_or_else(|| format!("{verb}: missing argument"))
    };
    let kind = match verb {
        "crash" => FaultKind::Crash {
            node: parse_u32(arg()?)?,
        },
        "recover" => FaultKind::Recover {
            node: parse_u32(arg()?)?,
        },
        "crash-rq" => FaultKind::CrashReadQuorum,
        "partition" => {
            let groups = arg()?
                .split('|')
                .map(|g| g.split(',').map(parse_u32).collect::<Result<Vec<_>, _>>())
                .collect::<Result<Vec<_>, _>>()?;
            FaultKind::Partition { groups }
        }
        "heal" => FaultKind::Heal,
        "drop" => {
            let (from, to) = parse_link(arg()?)?;
            let permille = match parse_u32(arg()?)? {
                p @ 0..=1000 => p as u16,
                p => return Err(format!("drop permille {p} is above 1000")),
            };
            FaultKind::DropLink { from, to, permille }
        }
        "delay" => {
            let (from, to) = parse_link(arg()?)?;
            let extra_us = parse_micros(arg()?)?;
            FaultKind::Delay { from, to, extra_us }
        }
        "heal-link" => {
            let (from, to) = parse_link(arg()?)?;
            FaultKind::HealLink { from, to }
        }
        "slow" => FaultKind::Slow {
            node: parse_u32(arg()?)?,
            factor_pct: parse_u32(arg()?)?,
        },
        "restore" => FaultKind::Restore {
            node: parse_u32(arg()?)?,
        },
        "crash-amnesia" => FaultKind::CrashAmnesia {
            node: parse_u32(arg()?)?,
        },
        "corrupt-tail" => FaultKind::CorruptTail {
            node: parse_u32(arg()?)?,
        },
        "surge" => FaultKind::Surge {
            factor_pct: parse_u32(arg()?)?,
        },
        "flash-crowd" => FaultKind::FlashCrowd {
            node: parse_u32(arg()?)?,
        },
        "calm" => FaultKind::Calm,
        other => return Err(format!("unknown fault verb {other:?}")),
    };
    if let Some(extra) = toks.next() {
        return Err(format!("trailing token {extra:?}"));
    }
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at: SimDuration::from_millis(100),
                kind: FaultKind::Crash { node: 3 },
            },
            FaultEvent {
                at: SimDuration::from_millis(900),
                kind: FaultKind::Recover { node: 3 },
            },
            FaultEvent {
                at: SimDuration::from_millis(200),
                kind: FaultKind::Partition {
                    groups: vec![vec![0, 1, 2], vec![3, 4]],
                },
            },
            FaultEvent {
                at: SimDuration::from_millis(600),
                kind: FaultKind::Heal,
            },
            FaultEvent {
                at: SimDuration::from_millis(300),
                kind: FaultKind::DropLink {
                    from: 1,
                    to: 2,
                    permille: 400,
                },
            },
            FaultEvent {
                at: SimDuration::from_millis(350),
                kind: FaultKind::Delay {
                    from: 2,
                    to: 1,
                    extra_us: 15_000,
                },
            },
            FaultEvent {
                at: SimDuration::from_millis(700),
                kind: FaultKind::HealLink { from: 1, to: 2 },
            },
            FaultEvent {
                at: SimDuration::from_millis(400),
                kind: FaultKind::Slow {
                    node: 5,
                    factor_pct: 300,
                },
            },
            FaultEvent {
                at: SimDuration::from_millis(800),
                kind: FaultKind::Restore { node: 5 },
            },
            FaultEvent {
                at: SimDuration::from_millis(500),
                kind: FaultKind::CrashReadQuorum,
            },
            FaultEvent {
                at: SimDuration::from_millis(440),
                kind: FaultKind::CorruptTail { node: 6 },
            },
            FaultEvent {
                at: SimDuration::from_millis(450),
                kind: FaultKind::CrashAmnesia { node: 6 },
            },
            FaultEvent {
                at: SimDuration::from_millis(950),
                kind: FaultKind::Recover { node: 6 },
            },
            FaultEvent {
                at: SimDuration::from_millis(150),
                kind: FaultKind::Surge { factor_pct: 400 },
            },
            FaultEvent {
                at: SimDuration::from_millis(250),
                kind: FaultKind::FlashCrowd { node: 2 },
            },
            FaultEvent {
                at: SimDuration::from_millis(850),
                kind: FaultKind::Calm,
            },
        ])
    }

    #[test]
    fn events_are_sorted_by_offset() {
        let p = sample_plan();
        for w in p.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn text_round_trip_is_lossless() {
        let p = sample_plan();
        let text = p.to_text();
        let back = FaultPlan::parse(&text).expect("parses");
        assert_eq!(p, back);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        for bad in [
            "@100us explode 3",
            "crash 3",
            "@100 crash 3",
            "@100us crash",
            "@100us crash 3 junk",
            "@100us drop 1-2 400",
            "@100us drop 1->2 1001",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.starts_with("line 1:"), "{err}");
        }
        assert!(FaultPlan::parse("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn huge_offset_saturates_instead_of_wrapping() {
        // u64::MAX ns is 18446744073709551.615 us; one microsecond more
        // used to overflow the us -> ns multiply (debug panic, release
        // wrap to 384 ns — the fault would fire at the wrong instant).
        let p = FaultPlan::parse("@18446744073709552us heal").expect("parses");
        assert_eq!(p.events[0].at, SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn fig10_schedule_is_expressible() {
        let p = FaultPlan::fig10(
            8,
            SimDuration::from_millis(500),
            SimDuration::from_millis(250),
        );
        assert_eq!(p.len(), 8);
        assert!(p
            .events
            .iter()
            .all(|e| e.kind == FaultKind::CrashReadQuorum));
        assert_eq!(p.events[0].at, SimDuration::from_millis(500));
        assert_eq!(p.events[7].at, SimDuration::from_millis(2250));
    }

    #[test]
    fn amnesia_verbs_round_trip() {
        let p = FaultPlan::parse("@100us corrupt-tail 4\n@200us crash-amnesia 4\n").unwrap();
        assert_eq!(
            p.events,
            vec![
                FaultEvent {
                    at: SimDuration::from_micros(100),
                    kind: FaultKind::CorruptTail { node: 4 },
                },
                FaultEvent {
                    at: SimDuration::from_micros(200),
                    kind: FaultKind::CrashAmnesia { node: 4 },
                },
            ]
        );
        assert_eq!(FaultPlan::parse(&p.to_text()).unwrap(), p);
    }

    #[test]
    fn overload_verbs_round_trip() {
        let p = FaultPlan::parse("@100us surge 500\n@200us flash-crowd 3\n@900us calm\n").unwrap();
        assert_eq!(
            p.events,
            vec![
                FaultEvent {
                    at: SimDuration::from_micros(100),
                    kind: FaultKind::Surge { factor_pct: 500 },
                },
                FaultEvent {
                    at: SimDuration::from_micros(200),
                    kind: FaultKind::FlashCrowd { node: 3 },
                },
                FaultEvent {
                    at: SimDuration::from_micros(900),
                    kind: FaultKind::Calm,
                },
            ]
        );
        assert_eq!(FaultPlan::parse(&p.to_text()).unwrap(), p);
    }
}
