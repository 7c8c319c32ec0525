//! # qrdtm-bench — harness regenerating every table and figure
//!
//! [`harness`] holds one function per experiment (Figs. 5, 6, 7, 9, 10,
//! Table 8, plus the ablations DESIGN.md calls out); [`table`] renders
//! results as aligned text and CSV. The `repro` binary is the command-line
//! front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos_cli;
pub mod harness;
pub mod mc_cli;
pub mod table;

use std::path::PathBuf;

/// Print a [`harness::Figure`] as text tables and write one CSV per group;
/// stops at the first CSV that cannot be written.
pub fn emit_figure(fig: &harness::Figure, out_dir: Option<&PathBuf>) -> std::io::Result<()> {
    for group in &fig.groups {
        let mut headers = vec![fig.x_label.clone()];
        headers.extend(fig.series.iter().cloned());
        let rows: Vec<Vec<String>> = group
            .rows
            .iter()
            .map(|(x, ys)| {
                let mut row = vec![table::f(*x)];
                row.extend(ys.iter().map(|y| table::f(*y)));
                row
            })
            .collect();
        println!("## {} — {} (throughput, txn/s)\n", fig.name, group.title);
        println!("{}", table::render(&headers, &rows));
        if let Some(dir) = out_dir {
            let fname = format!(
                "{}_{}.csv",
                fig.name,
                group.title.to_lowercase().replace([' ', '%'], "_")
            );
            table::write_csv(&dir.join(fname), &headers, &rows)?;
        }
    }
    Ok(())
}
