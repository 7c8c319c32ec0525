//! Paper-shape regression tests on the `--quick` grids.
//!
//! EXPERIMENTS.md records the reproduced headline shapes as prose; these
//! tests make them executable so a performance PR cannot silently invert
//! a figure. Everything runs the deterministic quick grid (seed 42), so a
//! failure is a real shape change, not noise.

use std::sync::OnceLock;

use qrdtm_bench::harness;

/// Both Table-8 tests read the same deterministic grid; compute it once.
fn table8_rows() -> &'static [harness::Table8Row] {
    static ROWS: OnceLock<Vec<harness::Table8Row>> = OnceLock::new();
    ROWS.get_or_init(|| harness::table8(true))
}

fn throughputs(r: &harness::Table8Row) -> (f64, f64, f64) {
    (
        r.raw[0].throughput, // flat
        r.raw[1].throughput, // closed
        r.raw[2].throughput, // checkpoint
    )
}

/// Table-8 defaults: closed nesting beats flat on all five benchmarks,
/// and cuts per-commit messages on all five (the mechanism the paper
/// credits for the win).
#[test]
fn table8_closed_nesting_beats_flat_on_every_benchmark() {
    let rows = table8_rows();
    assert_eq!(rows.len(), 5, "expected the five FIGURE_SET benchmarks");
    for r in rows {
        let (flat, cn, _) = throughputs(r);
        assert!(
            cn >= flat,
            "{}: QR-CN throughput {cn:.1} fell below flat {flat:.1}",
            r.bench
        );
        assert!(
            r.cn_msg_pct < 0.0,
            "{}: QR-CN no longer reduces per-commit messages ({:+.0}%)",
            r.bench,
            r.cn_msg_pct
        );
    }
}

/// Table-8 defaults: checkpointing trails closed nesting. On the quick
/// grid one cell (Vacation) sits a few percent above CN — the full grid
/// has CHK ≤ CN everywhere — so the per-benchmark guard allows a 20 %
/// excursion while the aggregate must stay strictly below.
#[test]
fn table8_checkpointing_trails_closed_nesting() {
    let rows = table8_rows();
    let mut cn_total = 0.0;
    let mut chk_total = 0.0;
    for r in rows {
        let (_, cn, chk) = throughputs(r);
        cn_total += cn;
        chk_total += chk;
        assert!(
            chk <= cn * 1.2,
            "{}: QR-CHK throughput {chk:.1} exceeds QR-CN {cn:.1} by more than 20%",
            r.bench
        );
    }
    assert!(
        chk_total < cn_total,
        "aggregate QR-CHK throughput {chk_total:.1} caught up with QR-CN {cn_total:.1}"
    );
}

/// Fig. 5 on Bank and Hashmap: throughput rises monotonically with the
/// read share for every mode (reads cost one quorum round, writes add two
/// commit rounds plus conflicts).
#[test]
fn fig5_throughput_rises_with_read_share_on_bank_and_hashmap() {
    let fig = harness::fig5(true);
    for bench in ["Bank", "Hashmap"] {
        let group = fig
            .groups
            .iter()
            .find(|g| g.title == bench)
            .unwrap_or_else(|| panic!("fig5 has no {bench} group"));
        assert!(group.rows.len() >= 3, "{bench}: quick grid too small");
        for (s, series) in fig.series.iter().enumerate() {
            for pair in group.rows.windows(2) {
                let (x0, y0) = (pair[0].0, pair[0].1[s]);
                let (x1, y1) = (pair[1].0, pair[1].1[s]);
                assert!(
                    y1 >= y0,
                    "{bench}/{series}: throughput fell from {y0:.1} (read%={x0}) \
                     to {y1:.1} (read%={x1})"
                );
            }
        }
    }
}

/// Fig. 9: the paper's ordering HyFlow > QR-DTM > Decent-STM holds at every
/// `(read mix, nodes)` point of the quick grid.
#[test]
fn fig9_orders_hyflow_above_qr_above_decent_at_every_point() {
    let fig = harness::fig9(true);
    let col = |name: &str| {
        fig.series
            .iter()
            .position(|s| s == name)
            .unwrap_or_else(|| panic!("fig9 has no {name} series"))
    };
    let (qr, hyflow, decent) = (col("QR-DTM"), col("HyFlow"), col("Decent-STM"));
    let points: Vec<_> = fig
        .groups
        .iter()
        .flat_map(|g| g.rows.iter().map(move |(nodes, ys)| (&g.title, nodes, ys)))
        .collect();
    assert_eq!(points.len(), 6, "two read mixes x three cluster sizes");
    for (mix, nodes, ys) in points {
        assert!(
            ys[hyflow] > ys[qr] && ys[qr] > ys[decent],
            "{mix}, {nodes} nodes: HyFlow {:.1} > QR-DTM {:.1} > Decent-STM {:.1} broken",
            ys[hyflow],
            ys[qr],
            ys[decent]
        );
    }
}

/// Fig. 10: node failures do not collapse throughput — with 8 of the 28
/// nodes failed it is no lower than with none, on all three benchmarks.
#[test]
fn fig10_throughput_survives_eight_failures() {
    let fig = harness::fig10(true);
    assert_eq!(fig.groups.len(), 3, "Hashmap, BST and Vacation");
    for g in &fig.groups {
        let (first, last) = (&g.rows[0], &g.rows[g.rows.len() - 1]);
        assert_eq!((first.0, last.0), (0.0, 8.0), "{}: sweep ends", g.title);
        assert!(
            last.1[0] >= first.1[0],
            "{}: throughput fell from {:.1} (no failures) to {:.1} (8 failed)",
            g.title,
            first.1[0],
            last.1[0]
        );
    }
}
