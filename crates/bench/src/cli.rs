//! What every `repro` command shares: one flag table per command, read by
//! one reader, and one counterexample report.
//!
//! A row of a table ([`Flag`]) is a flag's spelling, the modes that read
//! it and how its value is read and range-checked. [`Command`] derives the
//! rest from the rows: parsing, the usage line, a usage error for a flag
//! the selected mode does not read, the one-run rule for a flag that saves
//! the run's record, and the command line that replays a run. A command
//! runs in one mode: a plain run ([`RUN`]), or the mode its one
//! [`SELECTS`] flag picks — a smoke suite, a replay, a fixed schedule.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use qrdtm_chaos::Proto;

/// A set of modes, with the two row markers [`SELECTS`] and [`ONE_RUN`].
pub type Modes = u8;
/// A plain run: the mode when no selecting flag is given.
pub const RUN: Modes = 1;
/// The command's fixed smoke suite.
pub const SMOKE: Modes = 2;
/// A replay of a saved plan or trace.
pub const REPLAY: Modes = 4;
/// `repro chaos`'s Fig. 10 crash schedule.
pub const FIG10: Modes = 8;
/// Marker: giving the flag selects the mode that reads it.
pub const SELECTS: Modes = 16;
/// Marker: the flag saves the run's record, so it takes exactly one run.
pub const ONE_RUN: Modes = 32;

/// One row of a command's flag table; [`flags!`](crate::flags) builds
/// the rows with the arguments struct they fill.
pub struct Flag<A> {
    /// The spelling, then the placeholder of its value if it takes one:
    /// `--seed S`, or `--smoke` alone for a switch.
    pub spec: &'static str,
    /// The modes that read the flag, with its markers.
    pub modes: Modes,
    /// Read and range-check the value into the arguments (`""` for a
    /// switch); an error is the rest of a sentence that starts with the
    /// flag.
    pub read: fn(&mut A, &str) -> Result<(), String>,
    /// The value a replayed command line gives the flag; `None` leaves it
    /// out (`Some("")` gives a switch).
    pub show: fn(&A) -> Option<String>,
}

/// Declares a command's arguments struct and its [`Command`] table from
/// one row per flag, so a flag is written once: the field it sets, with
/// its type and default; its spelling; the modes that read it; how the
/// value `v` becomes the field (`?` refuses it); and, for a flag a replay
/// prints back, how the field is shown.
#[macro_export]
macro_rules! flags {
    ($args:ident, $table:ident, $name:literal, check: $check:expr, runs: $runs:expr;
     $($field:ident: $ty:ty = $default:expr, $spec:literal, $modes:expr,
       |$v:ident| $read:expr $(, |$a:ident| $show:expr)?;)*) => {
        #[derive(Clone)]
        struct $args {
            $($field: $ty,)*
        }

        impl Default for $args {
            fn default() -> Self {
                $args { $($field: $default,)* }
            }
        }

        const $table: $crate::cli::Command<$args> = $crate::cli::Command {
            name: $name,
            flags: &[$($crate::cli::Flag {
                spec: $spec,
                modes: $modes,
                read: |args, $v| {
                    args.$field = $read;
                    Ok(())
                },
                show: $crate::flags!(@show $(|$a| $show)?),
            },)*],
            check: $check,
            runs: $runs,
        };
    };
    (@show) => { |_| None };
    (@show |$a:ident| $show:expr) => { |$a| $show };
}

impl<A> Flag<A> {
    fn name(&self) -> &'static str {
        self.spec
            .split_once(' ')
            .map_or(self.spec, |(name, _)| name)
    }

    /// The value's placeholder, `""` for a switch.
    fn placeholder(&self) -> &'static str {
        self.spec.split_once(' ').map_or("", |(_, v)| v)
    }
}

/// A `repro` command: its word and its flag table, plus the two facts
/// that span flags.
pub struct Command<A: 'static> {
    /// The word after `repro`.
    pub name: &'static str,
    /// The flag table, in usage order.
    pub flags: &'static [Flag<A>],
    /// Checks across flags. An error starts with the word its flag's
    /// spelling ends in (`nodes must …` blames `--nodes`).
    pub check: fn(&A) -> Result<(), String>,
    /// How many runs the arguments make.
    pub runs: fn(&A) -> u64,
}

impl<A: Default> Command<A> {
    /// `[--flag V] …`, one bracket per row.
    pub fn synopsis(&self) -> String {
        let rows: Vec<String> = self.flags.iter().map(|f| format!("[{}]", f.spec)).collect();
        rows.join(" ")
    }

    /// The command's usage line, without the `usage:` label.
    pub fn usage(&self) -> String {
        format!("repro {} {}", self.name, self.synopsis())
    }

    /// Parse `args` over the defaults: the arguments, or the usage error,
    /// one line per offending flag.
    pub fn read(&self, mut args: impl Iterator<Item = String>) -> Result<A, String> {
        let mut a = A::default();
        let mut given: Vec<&Flag<A>> = Vec::new();
        while let Some(word) = args.next() {
            let Some(flag) = self.flags.iter().find(|f| f.name() == word) else {
                return Err(format!("unknown flag `{word}`"));
            };
            let value = match flag.placeholder() {
                "" => String::new(),
                _ => args.next().ok_or_else(|| format!("{word} needs a value"))?,
            };
            (flag.read)(&mut a, &value).map_err(|e| format!("{word} {e}"))?;
            given.push(flag);
        }
        let selector = given.iter().find(|f| f.modes & SELECTS != 0);
        let mode = selector.map_or(RUN, |f| f.modes & !(SELECTS | ONE_RUN));
        let within = selector.map_or("a plain run", |f| f.name());
        let unread: Vec<String> = given
            .iter()
            .filter(|f| f.modes & mode == 0)
            .map(|f| format!("{} is not read with {within}", f.name()))
            .collect();
        if !unread.is_empty() {
            return Err(unread.join("\n"));
        }
        (self.check)(&a).map_err(|e| self.blame(&e))?;
        let runs = (self.runs)(&a);
        match given.iter().find(|f| f.modes & ONE_RUN != 0) {
            Some(f) if runs != 1 => Err(format!(
                "{} takes one run; these flags make {runs}",
                f.name()
            )),
            _ => Ok(a),
        }
    }

    /// [`Command::read`], exiting 2 on a usage error with each of its
    /// lines and the usage line on stderr.
    pub fn parse(&self, args: impl Iterator<Item = String>) -> A {
        self.read(args).unwrap_or_else(|e| {
            for line in e.lines() {
                eprintln!("{}: {line}", self.name);
            }
            eprintln!("usage: {}", self.usage());
            std::process::exit(2)
        })
    }

    /// The command line that runs `a` in `mode`: every row the mode reads
    /// that gives `a` a value, in table order, and the mode's selecting
    /// flag, given `file` (or its placeholder) if it takes a value.
    pub fn command(&self, a: &A, mode: Modes, file: Option<&Path>) -> String {
        let mut words = vec!["repro".to_string(), self.name.into()];
        for f in self.flags.iter().filter(|f| f.modes & mode != 0) {
            let value = match f.modes & SELECTS {
                0 => (f.show)(a),
                _ => Some(file.map_or(f.placeholder().into(), |p| p.display().to_string())),
            };
            if let Some(v) = value {
                words.push(f.name().into());
                words.extend((!v.is_empty()).then_some(v));
            }
        }
        words.join(" ")
    }

    /// `e` with its first word replaced by the spelling of the row that
    /// ends in it.
    fn blame(&self, e: &str) -> String {
        let field = e.split(' ').next().unwrap_or(e);
        match self
            .flags
            .iter()
            .find(|f| f.name().rsplit('-').next() == Some(field))
        {
            Some(f) => format!("{}{}", f.name(), &e[field.len()..]),
            None => e.into(),
        }
    }
}

/// `v` as a number.
pub fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("takes a number, not `{v}`"))
}

/// `v` as a number in `min..=max`.
pub fn in_range<T: FromStr + PartialOrd + Display>(v: &str, min: T, max: T) -> Result<T, String> {
    match num(v)? {
        n if n < min => Err(format!("must be at least {min}")),
        n if n > max => Err(format!("must be at most {max}")),
        n => Ok(n),
    }
}

/// The label `v` of a row of `table`, or an error listing the labels.
pub fn label<T: Copy>(v: &str, table: &[(T, &'static str)]) -> Result<T, String> {
    match table.iter().find(|(_, l)| *l == v) {
        Some(&(t, _)) => Ok(t),
        None => {
            let labels: Vec<&str> = table.iter().map(|r| r.1).collect();
            Err(format!("takes one of {}, not `{v}`", labels.join("|")))
        }
    }
}

/// A `--proto` value: one family, or `None` for `all`.
pub fn family(v: &str) -> Result<Option<Proto>, String> {
    match v {
        "all" => Ok(None),
        _ => label(v, &Proto::ALL).map(Some),
    }
}

/// Where a run's counterexample goes.
pub struct Out<'a> {
    /// The file the run's record is written to, if any.
    pub save_to: Option<&'a Path>,
    /// The command that replays the record: [`Command::command`] given
    /// `save_to`, or a smoke suite's own command.
    pub replay: String,
}

impl Out<'_> {
    /// Write `body` to the save file, if any, under a `#` line holding the
    /// command that replays it.
    pub fn save(&self, body: &str) -> Result<(), String> {
        let Some(path) = self.save_to else {
            return Ok(());
        };
        let text = format!("# {}\n{body}", self.replay);
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// A saved plan or trace: `path`'s text through `parse`, or why not.
pub fn load<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path);
    let text = text.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("bad record {}: {e}", path.display()))
}

/// Report a counterexample: its violations; the sequence `seq` (a plan's
/// events, a schedule's picks) shrunk by [`qrdtm_chaos::shrink`] with `cut`
/// to a shorter one that still `fails`; the minimized record (`text` of the
/// shrunk sequence), saved through `out`; and the command that replays it.
/// `names` are the record's and its items' (`["plan", "event"]`).
pub fn report_counterexample<T: Clone, V: Display>(
    names: [&str; 2],
    violations: &[V],
    seq: &[T],
    cut: impl Fn(&[T], usize) -> Option<Vec<T>>,
    fails: impl FnMut(&[T]) -> bool,
    text: impl Fn(&[T]) -> String,
    out: &Out,
) {
    let [what, item] = names;
    for v in violations {
        println!("    ! {v}");
    }
    println!("    shrinking the {}-{item} {what}...", seq.len());
    let min = qrdtm_chaos::shrink(seq, cut, fails);
    let body = text(&min);
    println!("    minimized {what} ({} {item}(s)):", min.len());
    for line in body.lines() {
        println!("      {line}");
    }
    match (out.save(&body), out.save_to) {
        (Err(e), _) => eprintln!("{e}"),
        (Ok(()), Some(path)) => println!("    {what} written to {}", path.display()),
        (Ok(()), None) => {}
    }
    println!("    repro: `{}` (fully deterministic)", out.replay);
}
