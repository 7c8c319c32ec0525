//! The repository's benchmark. One invocation runs one workload in its own
//! process (so set-up time and peak memory are attributable), checks its
//! outputs, prints every metric by name with its unit, and ends with the
//! one-line JSON result the benchmark contract asks for.
//!
//! ```text
//! qrdtm-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--out <file>]
//! qrdtm-benchmark --smoke [--seed <u64>]     all seven workloads, tiny, both modes
//! qrdtm-benchmark contract                   print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and how to read the
//! trace file.

mod harness;
mod host;
mod layers;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use host::Host;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{Outcome, Workload};

/// Seconds a `--smoke` run gives each workload: about 1/50 of a full run.
const SMOKE_SECONDS: f64 = 0.16;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => a.out = Some(value("--out")?),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.smoke && a.workload.is_none() {
        return Err("--workload <name> or --smoke is required".to_string());
    }
    Ok(a)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `"name": {"value": v, "unit": "u"}` pairs, comma-joined.
fn metrics_json(values: impl Iterator<Item = (&'static str, f64)>) -> String {
    values
        .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Print the human-readable table and return the contract's result line.
fn report(o: &Outcome, host: &Host) -> String {
    println!(
        "# workload={} seed={} trace={} cores={} cpu=\"{}\" rustc=\"{}\" commit={}{}",
        o.workload.name(),
        o.seed,
        u8::from(o.spans.is_some()),
        host.cores,
        host.cpu_model,
        host.rustc,
        host.git_commit,
        if o.oversubscribed {
            " oversubscribed=true"
        } else {
            ""
        }
    );
    for (name, value, n) in &o.e2e {
        println!("{name:<44} {value:>18.6} {:<6} n={n}", unit_of(name));
    }
    for (name, value) in &o.layers {
        println!("{name:<44} {value:>18.6} {}", unit_of(name));
    }
    if let Some(log) = &o.spans {
        println!("# span                  count        total_ms         self_ms");
        for (name, t) in log.borrow().totals() {
            println!(
                "# {name:<16} {:>10} {:>15.3} {:>15.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for v in &o.violations {
        eprintln!("VIOLATION: {v}");
    }
    let metrics = if o.spans.is_some() {
        metrics_json(o.layers.iter().copied())
    } else {
        metrics_json(o.e2e.iter().map(|&(n, v, _)| (n, v)))
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.violations.is_empty(),
        o.attempted,
        o.violations.len()
    )
}

/// Write the `--out` file and, for a traced run, `<out>.trace.json`.
fn write_out(path: &str, o: &Outcome, host: &Host) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let e2e = o
        .e2e
        .iter()
        .map(|(n, v, k)| {
            format!(
                "\"{n}\": {{\"value\": {v}, \"unit\": \"{}\", \"n\": {k}}}",
                unit_of(n)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(w, "{{")?;
    writeln!(w, "  \"workload\": \"{}\",", o.workload.name())?;
    writeln!(w, "  \"seed\": {},", o.seed)?;
    writeln!(
        w,
        "  \"host\": {{\"cores\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"oversubscribed\": {}}},",
        host.cores, host.cpu_model, host.rustc, host.git_commit, o.oversubscribed
    )?;
    writeln!(w, "  \"correct\": {},", o.violations.is_empty())?;
    writeln!(w, "  \"e2e\": {{{e2e}}},")?;
    writeln!(
        w,
        "  \"layers\": {{{}}}",
        metrics_json(o.layers.iter().copied())
    )?;
    writeln!(w, "}}")?;
    w.flush()?;
    if let Some(log) = &o.spans {
        let mut t = BufWriter::new(File::create(format!("{path}.trace.json"))?);
        log.borrow().write_json(&mut t)?;
        t.flush()?;
    }
    Ok(())
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        run::run_traced(w, seed, seconds)
    } else {
        run::run_untraced(w, seed, seconds)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("contract") {
        print!("{}", metrics::contract());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    if args.smoke {
        let mut ok = true;
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = run_one(w, args.seed, SMOKE_SECONDS, trace);
                let line = report(&o, &host);
                println!("{line}");
                ok &= o.violations.is_empty();
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let w = args.workload.expect("checked by parse_args");
    let o = run_one(w, args.seed, args.seconds, args.trace);
    let line = report(&o, &host);
    if let Some(path) = &args.out {
        if let Err(e) = write_out(path, &o, &host) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The result line goes last, and only a correct run exits 0.
    println!("{line}");
    if o.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
