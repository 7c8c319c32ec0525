//! Experiment harness: one function per table/figure of the paper.
//!
//! Each function sweeps the paper's parameter grid, runs every
//! configuration (in parallel across OS threads — each simulation is
//! single-threaded and deterministic), and returns structured rows that
//! the `repro` binary prints.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qrdtm_baselines::{DecentConfig, TfaConfig};
use qrdtm_core::{DtmConfig, LatencySpec, NestingMode};
use qrdtm_qstore::QStoreConfig;
use qrdtm_sim::SimDuration;
use qrdtm_workloads::{
    run, run_decent_bank, run_qr_bank, run_qstore_bank, run_tfa_bank, BankRunResult, BankSpec,
    Benchmark, RunResult, RunSpec, WorkloadParams,
};

/// Base RNG seed for every experiment (results are deterministic given it).
pub const SEED: u64 = 42;

/// Run every input through `f` on a pool of OS threads, preserving order.
///
/// If `f` panics, the panic is re-raised on the caller's thread with the
/// **index of the offending input** in the message, so a single diverging
/// sweep cell names its configuration instead of dying as an anonymous
/// worker. When several inputs panic, the lowest index wins.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = inputs[i]
                    .lock()
                    .expect("input lock")
                    .take()
                    .expect("each input taken once");
                match catch_unwind(AssertUnwindSafe(|| f(input))) {
                    Ok(out) => slots.lock().expect("slot lock")[i] = Some(out),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|m| (*m).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        let mut fail = failure.lock().expect("failure lock");
                        match &mut *fail {
                            Some((first, _)) if *first <= i => {}
                            other => *other = Some((i, msg)),
                        }
                        // Stop handing out further work; the sweep is dead.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some((i, msg)) = failure.into_inner().expect("failure lock") {
        panic!("parallel_map: worker panicked on input #{i}: {msg}");
    }
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
}

/// The paper-testbed cluster configuration for a mode (40 nodes, ~30 ms
/// RTT).
pub fn paper_cfg(mode: NestingMode) -> DtmConfig {
    DtmConfig {
        nodes: 40,
        mode,
        read_level: 1,
        seed: SEED,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    }
}

/// Default workload shape for a benchmark (the fixed axes of each sweep).
pub fn default_params(bench: Benchmark) -> WorkloadParams {
    let objects = match bench {
        Benchmark::Vacation => 64,
        Benchmark::SList => 512,
        _ => 256,
    };
    WorkloadParams {
        read_pct: 50,
        calls: 3,
        objects,
    }
}

fn windows(quick: bool) -> (SimDuration, SimDuration) {
    if quick {
        (SimDuration::from_secs(1), SimDuration::from_secs(5))
    } else {
        (SimDuration::from_secs(2), SimDuration::from_secs(20))
    }
}

/// A figure: one group per benchmark, one series per protocol/mode.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id, e.g. "fig5".
    pub name: String,
    /// X-axis label.
    pub x_label: String,
    /// Series names in column order.
    pub series: Vec<String>,
    /// One group per sub-figure (benchmark).
    pub groups: Vec<FigureGroup>,
}

/// One sub-figure: rows of `(x, one throughput per series)`.
#[derive(Clone, Debug)]
pub struct FigureGroup {
    /// Sub-figure title (benchmark name).
    pub title: String,
    /// `(x, throughput per series)` rows.
    pub rows: Vec<(f64, Vec<f64>)>,
}

const MODES: [NestingMode; 3] = NestingMode::ALL;

/// Run `cell` on every point of the `groups × xs × series` product (the
/// file's one trip through the worker pool) and hand the results back
/// nested in axis order: `out[g][x][s]`. A panicking cell is reported by
/// its index in that order, series fastest.
fn grid<G: Sync, X: Sync, S: Sync, O: Send>(
    groups: &[G],
    xs: &[X],
    series: &[S],
    cell: impl Fn(&G, &X, &S) -> O + Sync,
) -> Vec<Vec<Vec<O>>> {
    let mut jobs = Vec::with_capacity(groups.len() * xs.len() * series.len());
    for g in groups {
        for x in xs {
            for s in series {
                jobs.push((g, x, s));
            }
        }
    }
    let mut flat = parallel_map(jobs, |(g, x, s)| cell(g, x, s)).into_iter();
    groups
        .iter()
        .map(|_| {
            xs.iter()
                .map(|_| flat.by_ref().take(series.len()).collect())
                .collect()
        })
        .collect()
}

/// A throughput [`grid`] as a [`Figure`]: every axis entry pairs its label
/// (group title, x value, series name) with the value `cell` receives.
fn figure<G: Sync, X: Sync, S: Sync>(
    name: &str,
    x_label: &str,
    groups: &[(impl ToString + Sync, G)],
    xs: &[(f64, X)],
    series: &[(impl ToString + Sync, S)],
    cell: impl Fn(&G, &X, &S) -> f64 + Sync,
) -> Figure {
    let cells = grid(groups, xs, series, |g, x, s| cell(&g.1, &x.1, &s.1));
    Figure {
        name: name.to_string(),
        x_label: x_label.to_string(),
        series: series.iter().map(|s| s.0.to_string()).collect(),
        groups: groups
            .iter()
            .zip(cells)
            .map(|(g, rows)| FigureGroup {
                title: g.0.to_string(),
                rows: xs.iter().map(|x| x.0).zip(rows).collect(),
            })
            .collect(),
    }
}

/// An integer sweep axis for [`figure`].
fn axis(values: &[u32]) -> Vec<(f64, u32)> {
    values.iter().map(|&v| (f64::from(v), v)).collect()
}

/// The closed-loop run every sweep starts from: `bench` at its default
/// shape, one client per node, no failures.
fn base_spec(bench: Benchmark, quick: bool) -> RunSpec {
    let (warmup, duration) = windows(quick);
    RunSpec {
        bench,
        params: default_params(bench),
        warmup,
        duration,
        clients_per_node: 1,
        failures: 0,
    }
}

/// Figs. 5–7: the five benchmarks × `xs` × the three nesting modes, where
/// `set` moves the swept workload parameter off its default to `x`.
fn mode_sweep(
    name: &str,
    x_label: &str,
    quick: bool,
    xs: &[u32],
    set: impl Fn(&mut WorkloadParams, u32) + Sync,
) -> Figure {
    figure(
        name,
        x_label,
        &Benchmark::FIGURE_SET.map(|b| (b.name(), b)),
        &axis(xs),
        &MODES.map(|m| (m, m)),
        |&bench, &x, &mode| {
            let mut spec = base_spec(bench, quick);
            set(&mut spec.params, x);
            run(paper_cfg(mode), &spec).throughput
        },
    )
}

/// Fig. 5: throughput vs read-workload percentage (0–100).
pub fn fig5(quick: bool) -> Figure {
    let pcts: Vec<u32> = if quick {
        vec![0, 25, 50, 75, 100]
    } else {
        (0..=10).map(|i| i * 10).collect()
    };
    mode_sweep("fig5", "read %", quick, &pcts, |p, pct| p.read_pct = pct)
}

/// Fig. 6: throughput vs number of nested calls (1–5).
pub fn fig6(quick: bool) -> Figure {
    let calls: &[u32] = if quick { &[1, 3, 5] } else { &[1, 2, 3, 4, 5] };
    mode_sweep("fig6", "nested calls", quick, calls, |p, c| {
        p.calls = c as usize;
    })
}

/// Fig. 7: throughput vs number of objects.
pub fn fig7(quick: bool) -> Figure {
    let objects: &[u32] = if quick {
        &[12, 48, 192]
    } else {
        &[12, 24, 48, 96, 192]
    };
    mode_sweep("fig7", "objects", quick, objects, |p, o| {
        p.objects = u64::from(o);
    })
}

/// One row of Table 8: percentage change of QR-CN and QR-CHK vs flat in
/// abort rate and per-commit messages.
#[derive(Clone, Debug)]
pub struct Table8Row {
    /// Benchmark name.
    pub bench: String,
    /// Δ abort rate of QR-CN vs flat, percent.
    pub cn_abort_pct: f64,
    /// Δ abort rate of QR-CHK vs flat, percent.
    pub chk_abort_pct: f64,
    /// Δ per-commit messages of QR-CN vs flat, percent.
    pub cn_msg_pct: f64,
    /// Δ per-commit messages of QR-CHK vs flat, percent.
    pub chk_msg_pct: f64,
    /// Raw results per mode for EXPERIMENTS.md (flat, closed, chk).
    pub raw: Vec<RunResult>,
}

/// Table 8: abort-rate and message deltas at the default workload shape.
pub fn table8(quick: bool) -> Vec<Table8Row> {
    let benches = Benchmark::FIGURE_SET;
    let cells = grid(&benches, &[()], &MODES, |&bench, (), &mode| {
        run(paper_cfg(mode), &base_spec(bench, quick))
    });
    let msgs_per_commit = |r: &RunResult| r.messages as f64 / r.commits.max(1) as f64;
    let abort_rate = |r: &RunResult| r.stats.abort_rate();
    let delta = |a: f64, b: f64| {
        if b.abs() < 1e-9 {
            0.0
        } else {
            (a - b) / b * 100.0
        }
    };
    benches
        .iter()
        .zip(cells)
        .map(|(bench, mut by_x)| {
            // One x point; its series are in `MODES` order.
            let raw = by_x.pop().expect("one x point");
            let (flat, cn, chk) = (&raw[0], &raw[1], &raw[2]);
            Table8Row {
                bench: bench.name().to_string(),
                cn_abort_pct: delta(abort_rate(cn), abort_rate(flat)),
                chk_abort_pct: delta(abort_rate(chk), abort_rate(flat)),
                cn_msg_pct: delta(msgs_per_commit(cn), msgs_per_commit(flat)),
                chk_msg_pct: delta(msgs_per_commit(chk), msgs_per_commit(flat)),
                raw,
            }
        })
        .collect()
}

/// Fig. 9: QR-DTM vs HyFlow (TFA) vs Decent-STM vs Q-Store on Bank,
/// sweeping cluster size at 50 % and 90 % read mixes. Q-Store is the
/// batching outlier: planner-ordered epochs trade commit latency for
/// abort-free throughput under contention.
pub fn fig9(quick: bool) -> Figure {
    let nodes: &[u32] = if quick {
        &[8, 20, 40]
    } else {
        &[4, 8, 13, 20, 28, 40]
    };
    let (warmup, duration) = windows(quick);
    type BankRunner = fn(usize, &BankSpec) -> BankRunResult;
    let protos: [(&str, BankRunner); 4] = [
        ("QR-DTM", |nodes, spec| {
            let cfg = DtmConfig {
                nodes,
                ..paper_cfg(NestingMode::Flat)
            };
            run_qr_bank(cfg, spec)
        }),
        ("HyFlow", |nodes, spec| {
            let cfg = TfaConfig {
                nodes,
                seed: SEED,
                ..Default::default()
            };
            run_tfa_bank(cfg, spec)
        }),
        ("Decent-STM", |nodes, spec| {
            let cfg = DecentConfig {
                nodes,
                seed: SEED,
                ..Default::default()
            };
            run_decent_bank(cfg, spec)
        }),
        ("Q-Store", |nodes, spec| {
            let cfg = QStoreConfig {
                nodes,
                seed: SEED,
                ..Default::default()
            };
            run_qstore_bank(cfg, spec)
        }),
    ];
    figure(
        "fig9",
        "nodes",
        &[50u32, 90].map(|mix| (format!("Bank {mix}% read"), mix)),
        &axis(nodes),
        &protos,
        |&read_pct, &nodes, run_bank| {
            let spec = BankSpec {
                accounts: 48,
                read_pct,
                warmup,
                duration,
                clients_per_node: 1,
            };
            run_bank(nodes as usize, &spec).throughput
        },
    )
}

/// Fig. 10: throughput under increasing node failures (28 nodes, read
/// quorum starts as the root alone and grows by one per failure).
pub fn fig10(quick: bool) -> Figure {
    let failures: Vec<u32> = if quick {
        vec![0, 2, 4, 6, 8]
    } else {
        (0..=8).collect()
    };
    let (warmup, duration) = windows(quick);
    figure(
        "fig10",
        "failed nodes",
        &[Benchmark::Hashmap, Benchmark::Bst, Benchmark::Vacation].map(|b| (b.name(), b)),
        &axis(&failures),
        &[("QR-DTM", ())],
        |&bench, &failures, ()| {
            let cfg = DtmConfig {
                nodes: 28,
                // Single-node read quorum initially.
                read_level: 0,
                // Server occupancy high enough that the singleton read
                // quorum is a genuine hot spot; spreading it is what
                // produces the initial throughput rise of Fig. 10.
                service_time: SimDuration::from_millis(2),
                ..paper_cfg(NestingMode::Closed)
            };
            let spec = RunSpec {
                bench,
                params: WorkloadParams {
                    read_pct: 50,
                    calls: 2,
                    // Plentiful objects: Fig. 10 isolates the quorum
                    // bottleneck, not data contention.
                    objects: 192,
                },
                warmup,
                duration,
                clients_per_node: 2,
                failures: failures as usize,
            };
            run(cfg, &spec).throughput
        },
    )
}

/// One ablation: `bench` at its default shape under each configuration of
/// `xs` (all of one nesting mode), as a one-group, one-series figure.
fn ablation(
    name: &str,
    x_label: &str,
    title: &str,
    bench: Benchmark,
    quick: bool,
    xs: &[(f64, DtmConfig)],
) -> Figure {
    let series = format!("{} {}", bench.name(), xs[0].1.mode);
    figure(
        name,
        x_label,
        &[(title, bench)],
        xs,
        &[(series, ())],
        |&bench, cfg, ()| run(cfg.clone(), &base_spec(bench, quick)).throughput,
    )
}

/// Ablation results (one figure per design knob DESIGN.md calls out).
pub fn ablations(quick: bool) -> Vec<Figure> {
    let ms = SimDuration::from_millis;
    vec![
        // (a) Rqv on/off under QR-CN.
        ablation(
            "ablation-rqv",
            "rqv",
            "Rqv incremental validation",
            Benchmark::SList,
            quick,
            &[(1.0, true), (0.0, false)].map(|(x, rqv)| {
                let cfg = DtmConfig {
                    rqv,
                    ..paper_cfg(NestingMode::Closed)
                };
                (x, cfg)
            }),
        ),
        // (b) Checkpoint threshold granularity under QR-CHK.
        ablation(
            "ablation-chk-threshold",
            "objects per checkpoint",
            "Checkpoint granularity",
            Benchmark::Hashmap,
            quick,
            &[1usize, 2, 4, 8].map(|chk_threshold| {
                let cfg = DtmConfig {
                    chk_threshold,
                    ..paper_cfg(NestingMode::Checkpoint)
                };
                (chk_threshold as f64, cfg)
            }),
        ),
        // (c) Read-quorum level policy.
        ablation(
            "ablation-read-level",
            "read quorum level",
            "Read quorum selection",
            Benchmark::Bank,
            quick,
            &[0usize, 1, 2].map(|read_level| {
                let cfg = DtmConfig {
                    read_level,
                    ..paper_cfg(NestingMode::Closed)
                };
                (read_level as f64, cfg)
            }),
        ),
        // (d) Backoff policy under flat nesting (where retries are hottest).
        ablation(
            "ablation-backoff",
            "backoff base (ms)",
            "Abort backoff",
            Benchmark::SList,
            quick,
            &[0u32, 1, 4, 16].map(|base| {
                let cfg = DtmConfig {
                    backoff_base: ms(u64::from(base)),
                    ..paper_cfg(NestingMode::Flat)
                };
                (f64::from(base), cfg)
            }),
        ),
        // (e) Network model: uniform vs jittered vs metric-space (cc-DTM) at
        // the same mean budget.
        ablation(
            "ablation-network-model",
            "model (0=const 1=jittered 2=metric)",
            "Latency model",
            Benchmark::Bank,
            quick,
            &[
                (0.0, LatencySpec::Const(ms(15))),
                (1.0, LatencySpec::Jittered(ms(15), 0.1)),
                // Unit-square placement with ~0.52 mean distance: per-unit
                // chosen so the mean one-way latency is ~15 ms.
                (2.0, LatencySpec::Metric(ms(29), ms(2))),
            ]
            .map(|(x, latency)| {
                let cfg = DtmConfig {
                    latency,
                    ..paper_cfg(NestingMode::Closed)
                };
                (x, cfg)
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn grid_nests_results_in_axis_order() {
        let out = grid(&[0, 1], &[0, 1, 2], &[0, 1, 2, 3], |&g, &x, &s| (g, x, s));
        assert_eq!(out.len(), 2);
        for (g, rows) in out.iter().enumerate() {
            assert_eq!(rows.len(), 3);
            for (x, cells) in rows.iter().enumerate() {
                let want: Vec<_> = (0..4).map(|s| (g, x, s)).collect();
                assert_eq!(cells, &want, "out[{g}][{x}]");
            }
        }
    }

    #[test]
    fn grid_with_an_empty_axis_runs_no_cell() {
        let never = |_: &u8, _: &u8, _: &u8| -> u8 { unreachable!("no cell to run") };
        assert!(grid(&[], &[1], &[1], never).is_empty());
        let no_xs: Vec<Vec<u8>> = Vec::new();
        assert_eq!(grid(&[1, 2], &[], &[1], never), vec![no_xs; 2]);
        let no_series: Vec<u8> = Vec::new();
        assert_eq!(grid(&[1], &[1, 2], &[], never), vec![vec![no_series; 2]]);
    }

    #[test]
    fn paper_cfg_matches_testbed() {
        let cfg = paper_cfg(NestingMode::Closed);
        assert_eq!(cfg.nodes, 40);
        assert_eq!(cfg.read_level, 1);
    }
}
