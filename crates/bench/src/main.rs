//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <fig5|fig6|fig7|table8|fig9|fig10|ablation|all> [--quick] [--out DIR]
//! ```
//!
//! Prints each figure as aligned text tables (one per sub-figure) and, with
//! `--out`, also writes CSVs. `--quick` shrinks the sweeps and the
//! measurement window for a fast smoke pass; the default grid matches the
//! paper's. Everything is deterministic for a fixed harness seed.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use qrdtm_bench::cli::RUN;
use qrdtm_bench::{chaos_cli, emit_figure, harness, mc_cli, table};

/// Emits one artifact: `(quick, out_dir)`.
type Emit = fn(bool, Option<&PathBuf>) -> std::io::Result<()>;

/// Every paper artifact, in the order `all` regenerates them; the usage
/// line and the dispatch read the same table.
const ARTIFACTS: [(&str, Emit); 7] = [
    ("fig5", |quick, out| emit_figure(&harness::fig5(quick), out)),
    ("fig6", |quick, out| emit_figure(&harness::fig6(quick), out)),
    ("fig7", |quick, out| emit_figure(&harness::fig7(quick), out)),
    ("table8", emit_table8),
    ("fig9", |quick, out| emit_figure(&harness::fig9(quick), out)),
    ("fig10", |quick, out| {
        emit_figure(&harness::fig10(quick), out)
    }),
    ("ablation", |quick, out| {
        harness::ablations(quick)
            .iter()
            .try_for_each(|fig| emit_figure(fig, out))
    }),
];

// The flags every figure takes.
qrdtm_bench::flags! {
    FigureArgs, FIGURE, "FIGURE", check: |_| Ok(()), runs: |_| 1;
    quick: bool = false, "--quick", RUN, |_v| true;
    out: Option<PathBuf> = None, "--out DIR", RUN, |v| Some(v.into());
}

fn usage() -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}|all> {}",
        names.join("|"),
        FIGURE.synopsis()
    );
    eprintln!("       {}", chaos_cli::usage());
    eprintln!("       {}", mc_cli::usage());
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    match cmd.as_str() {
        "chaos" => std::process::exit(chaos_cli::run(args)),
        "mc" => std::process::exit(mc_cli::run(args)),
        _ => {}
    }
    let a = FIGURE.read(args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        usage()
    });
    let t0 = std::time::Instant::now();
    if let Err(e) = emit(&cmd, a.quick, a.out.as_ref()) {
        eprintln!("error: CSV write failed: {e}");
        std::process::exit(1);
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn emit(cmd: &str, quick: bool, out_dir: Option<&PathBuf>) -> std::io::Result<()> {
    match cmd {
        "all" => ARTIFACTS.iter().try_for_each(|(_, f)| f(quick, out_dir)),
        _ => match ARTIFACTS.iter().find(|(name, _)| *name == cmd) {
            Some((_, f)) => f(quick, out_dir),
            None => usage(),
        },
    }
}

fn emit_table8(quick: bool, out_dir: Option<&PathBuf>) -> std::io::Result<()> {
    let rows = harness::table8(quick);
    let headers: Vec<String> = [
        "Bench.",
        "QR-CN Abort %",
        "QR-CHK Abort %",
        "QR-CN Msg %",
        "QR-CHK Msg %",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.clone(),
                table::pct(r.cn_abort_pct),
                table::pct(r.chk_abort_pct),
                table::pct(r.cn_msg_pct),
                table::pct(r.chk_msg_pct),
            ]
        })
        .collect();
    println!("## table8 — abort rate and messages vs flat nesting\n");
    println!("{}", table::render(&headers, &body));
    // Supplementary: raw throughput per mode, for EXPERIMENTS.md.
    let headers2: Vec<String> = ["Bench.", "flat txn/s", "closed txn/s", "chk txn/s"]
        .into_iter()
        .map(String::from)
        .collect();
    let body2: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.bench.clone()];
            row.extend(r.raw.iter().map(|x| table::f(x.throughput)));
            row
        })
        .collect();
    println!("{}", table::render(&headers2, &body2));
    if let Some(dir) = out_dir {
        table::write_csv(&dir.join("table8.csv"), &headers, &body)?;
        table::write_csv(&dir.join("table8_throughput.csv"), &headers2, &body2)?;
    }
    Ok(())
}
