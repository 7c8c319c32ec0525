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
    run, run_decent_bank, run_qr_bank, run_qstore_bank, run_tfa_bank, BankSpec, Benchmark,
    RunResult, RunSpec, WorkloadParams,
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

fn mode_sweep(
    name: &str,
    x_label: &str,
    benches: &[Benchmark],
    xs: &[(f64, WorkloadParams)],
    quick: bool,
    tweak: impl Fn(&mut DtmConfig, &mut RunSpec) + Sync,
) -> Figure {
    let (warmup, duration) = windows(quick);
    let mut jobs = Vec::new();
    for &bench in benches {
        for (x, params) in xs {
            for mode in MODES {
                jobs.push((bench, *x, *params, mode));
            }
        }
    }
    let results = parallel_map(jobs.clone(), |(bench, _x, params, mode)| {
        let mut cfg = paper_cfg(mode);
        let mut spec = RunSpec {
            bench,
            params,
            warmup,
            duration,
            clients_per_node: 1,
            failures: 0,
        };
        tweak(&mut cfg, &mut spec);
        run(cfg, &spec)
    });
    let mut groups = Vec::new();
    for &bench in benches {
        let mut rows = Vec::new();
        for (x, _) in xs {
            let mut series = Vec::new();
            for mode in MODES {
                let idx = jobs
                    .iter()
                    .position(|&(b, jx, _, m)| b == bench && jx == *x && m == mode)
                    .expect("job present");
                series.push(results[idx].throughput);
            }
            rows.push((*x, series));
        }
        groups.push(FigureGroup {
            title: bench.name().to_string(),
            rows,
        });
    }
    Figure {
        name: name.to_string(),
        x_label: x_label.to_string(),
        series: MODES.iter().map(|m| m.to_string()).collect(),
        groups,
    }
}

/// Fig. 5: throughput vs read-workload percentage (0–100).
pub fn fig5(quick: bool) -> Figure {
    let pcts: Vec<u32> = if quick {
        vec![0, 25, 50, 75, 100]
    } else {
        (0..=10).map(|i| i * 10).collect()
    };
    // Params vary per benchmark (objects) and per point (read %), so this
    // sweep builds its own job list instead of using `mode_sweep`.
    let benches = Benchmark::FIGURE_SET;
    let mut groups = Vec::new();
    let (warmup, duration) = windows(quick);
    let mut jobs = Vec::new();
    for &bench in &benches {
        for &pct in &pcts {
            for mode in MODES {
                let mut params = default_params(bench);
                params.read_pct = pct;
                jobs.push((bench, pct, params, mode));
            }
        }
    }
    let results = parallel_map(jobs.clone(), |(bench, _pct, params, mode)| {
        let cfg = paper_cfg(mode);
        run(
            cfg,
            &RunSpec {
                bench,
                params,
                warmup,
                duration,
                clients_per_node: 1,
                failures: 0,
            },
        )
    });
    for &bench in &benches {
        let mut rows = Vec::new();
        for &pct in &pcts {
            let mut series = Vec::new();
            for mode in MODES {
                let idx = jobs
                    .iter()
                    .position(|&(b, p, _, m)| b == bench && p == pct && m == mode)
                    .unwrap();
                series.push(results[idx].throughput);
            }
            rows.push((f64::from(pct), series));
        }
        groups.push(FigureGroup {
            title: bench.name().to_string(),
            rows,
        });
    }
    Figure {
        name: "fig5".into(),
        x_label: "read %".into(),
        series: MODES.iter().map(|m| m.to_string()).collect(),
        groups,
    }
}

/// Fig. 6: throughput vs number of nested calls (1–5).
pub fn fig6(quick: bool) -> Figure {
    let calls: Vec<usize> = if quick {
        vec![1, 3, 5]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let benches = Benchmark::FIGURE_SET;
    let xs: Vec<(f64, usize)> = calls.iter().map(|&c| (c as f64, c)).collect();
    let xps: Vec<(f64, WorkloadParams)> = xs
        .iter()
        .map(|&(x, c)| {
            (
                x,
                WorkloadParams {
                    calls: c,
                    ..default_params(Benchmark::Bank)
                },
            )
        })
        .collect();
    let mut fig = mode_sweep(
        "fig6",
        "nested calls",
        &benches,
        &xps,
        quick,
        |cfg, spec| {
            // Objects follow the benchmark default, not Bank's.
            spec.params.objects = default_params(spec.bench).objects;
            cfg.seed = SEED;
        },
    );
    fig.name = "fig6".into();
    fig
}

/// Fig. 7: throughput vs number of objects.
pub fn fig7(quick: bool) -> Figure {
    let objects: Vec<u64> = if quick {
        vec![12, 48, 192]
    } else {
        vec![12, 24, 48, 96, 192]
    };
    let benches = Benchmark::FIGURE_SET;
    let xps: Vec<(f64, WorkloadParams)> = objects
        .iter()
        .map(|&o| {
            (
                o as f64,
                WorkloadParams {
                    objects: o,
                    ..default_params(Benchmark::Bank)
                },
            )
        })
        .collect();
    mode_sweep("fig7", "objects", &benches, &xps, quick, |_cfg, _spec| {})
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
    let (warmup, duration) = windows(quick);
    let mut jobs = Vec::new();
    for &bench in &Benchmark::FIGURE_SET {
        for mode in MODES {
            jobs.push((bench, mode));
        }
    }
    let results = parallel_map(jobs.clone(), |(bench, mode)| {
        run(
            paper_cfg(mode),
            &RunSpec {
                bench,
                params: default_params(bench),
                warmup,
                duration,
                clients_per_node: 1,
                failures: 0,
            },
        )
    });
    let get = |bench: Benchmark, mode: NestingMode| -> &RunResult {
        let idx = jobs
            .iter()
            .position(|&(b, m)| b == bench && m == mode)
            .unwrap();
        &results[idx]
    };
    Benchmark::FIGURE_SET
        .iter()
        .map(|&bench| {
            let flat = get(bench, NestingMode::Flat);
            let cn = get(bench, NestingMode::Closed);
            let chk = get(bench, NestingMode::Checkpoint);
            let msgs_per_commit = |r: &RunResult| r.messages as f64 / r.commits.max(1) as f64;
            let abort_rate = |r: &RunResult| r.stats.abort_rate();
            let delta = |a: f64, b: f64| {
                if b.abs() < 1e-9 {
                    0.0
                } else {
                    (a - b) / b * 100.0
                }
            };
            Table8Row {
                bench: bench.name().to_string(),
                cn_abort_pct: delta(abort_rate(cn), abort_rate(flat)),
                chk_abort_pct: delta(abort_rate(chk), abort_rate(flat)),
                cn_msg_pct: delta(msgs_per_commit(cn), msgs_per_commit(flat)),
                chk_msg_pct: delta(msgs_per_commit(chk), msgs_per_commit(flat)),
                raw: vec![flat.clone(), cn.clone(), chk.clone()],
            }
        })
        .collect()
}

/// Fig. 9: QR-DTM vs HyFlow (TFA) vs Decent-STM vs Q-Store on Bank,
/// sweeping cluster size at 50 % and 90 % read mixes. Q-Store is the
/// batching outlier: planner-ordered epochs trade commit latency for
/// abort-free throughput under contention.
pub fn fig9(quick: bool) -> Figure {
    let nodes: Vec<usize> = if quick {
        vec![8, 20, 40]
    } else {
        vec![4, 8, 13, 20, 28, 40]
    };
    let (warmup, duration) = windows(quick);
    let mixes = [50u32, 90u32];
    let mut jobs = Vec::new();
    for &mix in &mixes {
        for &n in &nodes {
            for proto in 0..4usize {
                jobs.push((mix, n, proto));
            }
        }
    }
    let accounts = 48u64;
    let results = parallel_map(jobs.clone(), |(mix, n, proto)| match proto {
        0 => {
            let mut cfg = paper_cfg(NestingMode::Flat);
            cfg.nodes = n;
            let r = run_qr_bank(
                cfg,
                &BankSpec {
                    accounts,
                    read_pct: mix,
                    warmup,
                    duration,
                    clients_per_node: 1,
                },
            );
            r.throughput
        }
        1 => {
            let r = run_tfa_bank(
                TfaConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                },
                &BankSpec {
                    accounts,
                    read_pct: mix,
                    warmup,
                    duration,
                    clients_per_node: 1,
                },
            );
            r.throughput
        }
        2 => {
            let r = run_decent_bank(
                DecentConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                },
                &BankSpec {
                    accounts,
                    read_pct: mix,
                    warmup,
                    duration,
                    clients_per_node: 1,
                },
            );
            r.throughput
        }
        _ => {
            let r = run_qstore_bank(
                QStoreConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                },
                &BankSpec {
                    accounts,
                    read_pct: mix,
                    warmup,
                    duration,
                    clients_per_node: 1,
                },
            );
            r.throughput
        }
    });
    let groups = mixes
        .iter()
        .map(|&mix| {
            let rows = nodes
                .iter()
                .map(|&n| {
                    let series = (0..4usize)
                        .map(|proto| {
                            let idx = jobs
                                .iter()
                                .position(|&(m, jn, p)| m == mix && jn == n && p == proto)
                                .unwrap();
                            results[idx]
                        })
                        .collect();
                    (n as f64, series)
                })
                .collect();
            FigureGroup {
                title: format!("Bank {mix}% read"),
                rows,
            }
        })
        .collect();
    Figure {
        name: "fig9".into(),
        x_label: "nodes".into(),
        series: vec![
            "QR-DTM".into(),
            "HyFlow".into(),
            "Decent-STM".into(),
            "Q-Store".into(),
        ],
        groups,
    }
}

/// Fig. 10: throughput under increasing node failures (28 nodes, read
/// quorum starts as the root alone and grows by one per failure).
pub fn fig10(quick: bool) -> Figure {
    let failures: Vec<usize> = if quick {
        vec![0, 2, 4, 6, 8]
    } else {
        (0..=8).collect()
    };
    let benches = [Benchmark::Hashmap, Benchmark::Bst, Benchmark::Vacation];
    let (warmup, duration) = windows(quick);
    let mut jobs = Vec::new();
    for &bench in &benches {
        for &f in &failures {
            jobs.push((bench, f));
        }
    }
    let results = parallel_map(jobs.clone(), |(bench, f)| {
        let mut cfg = paper_cfg(NestingMode::Closed);
        cfg.nodes = 28;
        cfg.read_level = 0; // single-node read quorum initially
                            // Server occupancy high enough that the singleton read quorum is a
                            // genuine hot spot; spreading it is what produces the initial
                            // throughput rise of Fig. 10.
        cfg.service_time = SimDuration::from_millis(2);
        run(
            cfg,
            &RunSpec {
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
                failures: f,
            },
        )
        .throughput
    });
    let groups = benches
        .iter()
        .map(|&bench| {
            let rows = failures
                .iter()
                .map(|&f| {
                    let idx = jobs
                        .iter()
                        .position(|&(b, jf)| b == bench && jf == f)
                        .unwrap();
                    (f as f64, vec![results[idx]])
                })
                .collect();
            FigureGroup {
                title: bench.name().to_string(),
                rows,
            }
        })
        .collect();
    Figure {
        name: "fig10".into(),
        x_label: "failed nodes".into(),
        series: vec!["QR-DTM".into()],
        groups,
    }
}

/// Ablation results (one figure per design knob DESIGN.md calls out).
pub fn ablations(quick: bool) -> Vec<Figure> {
    let (warmup, duration) = windows(quick);
    let base_spec = |bench| RunSpec {
        bench,
        params: default_params(bench),
        warmup,
        duration,
        clients_per_node: 1,
        failures: 0,
    };

    // (a) Rqv on/off under QR-CN.
    let rqv = {
        let jobs: Vec<bool> = vec![true, false];
        let results = parallel_map(jobs.clone(), |rqv| {
            let mut cfg = paper_cfg(NestingMode::Closed);
            cfg.rqv = rqv;
            run(cfg, &base_spec(Benchmark::SList)).throughput
        });
        Figure {
            name: "ablation-rqv".into(),
            x_label: "rqv".into(),
            series: vec!["SList closed".into()],
            groups: vec![FigureGroup {
                title: "Rqv incremental validation".into(),
                rows: jobs
                    .iter()
                    .zip(&results)
                    .map(|(&on, &t)| (if on { 1.0 } else { 0.0 }, vec![t]))
                    .collect(),
            }],
        }
    };

    // (b) Checkpoint threshold granularity under QR-CHK.
    let thresh = {
        let jobs: Vec<usize> = vec![1, 2, 4, 8];
        let results = parallel_map(jobs.clone(), |t| {
            let mut cfg = paper_cfg(NestingMode::Checkpoint);
            cfg.chk_threshold = t;
            run(cfg, &base_spec(Benchmark::Hashmap)).throughput
        });
        Figure {
            name: "ablation-chk-threshold".into(),
            x_label: "objects per checkpoint".into(),
            series: vec!["Hashmap chk".into()],
            groups: vec![FigureGroup {
                title: "Checkpoint granularity".into(),
                rows: jobs
                    .iter()
                    .zip(&results)
                    .map(|(&t, &x)| (t as f64, vec![x]))
                    .collect(),
            }],
        }
    };

    // (c) Read-quorum level policy.
    let level = {
        let jobs: Vec<usize> = vec![0, 1, 2];
        let results = parallel_map(jobs.clone(), |l| {
            let mut cfg = paper_cfg(NestingMode::Closed);
            cfg.read_level = l;
            run(cfg, &base_spec(Benchmark::Bank)).throughput
        });
        Figure {
            name: "ablation-read-level".into(),
            x_label: "read quorum level".into(),
            series: vec!["Bank closed".into()],
            groups: vec![FigureGroup {
                title: "Read quorum selection".into(),
                rows: jobs
                    .iter()
                    .zip(&results)
                    .map(|(&l, &x)| (l as f64, vec![x]))
                    .collect(),
            }],
        }
    };

    // (d) Backoff policy under flat nesting (where retries are hottest).
    let backoff = {
        let jobs: Vec<u64> = vec![0, 1, 4, 16];
        let results = parallel_map(jobs.clone(), |ms| {
            let mut cfg = paper_cfg(NestingMode::Flat);
            cfg.backoff_base = SimDuration::from_millis(ms);
            run(cfg, &base_spec(Benchmark::SList)).throughput
        });
        Figure {
            name: "ablation-backoff".into(),
            x_label: "backoff base (ms)".into(),
            series: vec!["SList flat".into()],
            groups: vec![FigureGroup {
                title: "Abort backoff".into(),
                rows: jobs
                    .iter()
                    .zip(&results)
                    .map(|(&b, &x)| (b as f64, vec![x]))
                    .collect(),
            }],
        }
    };

    // (e) Network model: uniform vs jittered vs metric-space (cc-DTM) at
    // the same mean budget.
    let netmodel = {
        let jobs: Vec<(&'static str, LatencySpec)> = vec![
            ("const", LatencySpec::Const(SimDuration::from_millis(15))),
            (
                "jittered",
                LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            ),
            (
                "metric",
                // Unit-square placement with ~0.52 mean distance: per-unit
                // chosen so the mean one-way latency is ~15 ms.
                LatencySpec::Metric(SimDuration::from_millis(29), SimDuration::from_millis(2)),
            ),
        ];
        let results = parallel_map(jobs.clone(), |(_, latency)| {
            let mut cfg = paper_cfg(NestingMode::Closed);
            cfg.latency = latency;
            run(cfg, &base_spec(Benchmark::Bank)).throughput
        });
        Figure {
            name: "ablation-network-model".into(),
            x_label: "model (0=const 1=jittered 2=metric)".into(),
            series: vec!["Bank closed".into()],
            groups: vec![FigureGroup {
                title: "Latency model".into(),
                rows: jobs
                    .iter()
                    .enumerate()
                    .zip(&results)
                    .map(|((i, _), &x)| (i as f64, vec![x]))
                    .collect(),
            }],
        }
    };

    vec![rqv, thresh, level, backoff, netmodel]
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
    fn paper_cfg_matches_testbed() {
        let cfg = paper_cfg(NestingMode::Closed);
        assert_eq!(cfg.nodes, 40);
        assert_eq!(cfg.read_level, 1);
    }
}
