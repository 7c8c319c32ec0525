//! One benchmark run: size the workload from `--seconds`, run its reps on
//! fresh clusters, hold them to bit-identical virtual results, and reduce
//! them to the end-to-end metrics (untraced) or the per-layer ledger
//! (traced).

use std::cell::RefCell;
use std::rc::Rc;

use qrdtm_sim::SimDuration;

use crate::harness::{self, Layers, Log, Rep};
use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, ratio};
use crate::workloads::bank::{self, BankParams};
use crate::workloads::open::{self, OpenParams};
use crate::workloads::par::{self, ParParams};
use crate::workloads::qr::{self, QrKind, QrParams};
use crate::workloads::ring::{self, RingParams};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CnVacation,
    ChkSlist,
    QstoreHot,
    Fig9Bank,
    OpenOverload,
    ParBank,
    HotRing,
}

impl Workload {
    /// In the order of `metrics::WORKLOADS`.
    pub const ALL: [Workload; 7] = [
        Workload::CnVacation,
        Workload::ChkSlist,
        Workload::QstoreHot,
        Workload::Fig9Bank,
        Workload::OpenOverload,
        Workload::ParBank,
        Workload::HotRing,
    ];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the deterministic simulator, so that
    /// every rep of a seed must produce the same virtual results.
    fn deterministic(self) -> bool {
        self != Workload::ParBank
    }

    /// Whether this host has fewer cores than the workload has worker
    /// threads, so that its numbers measure the scheduler.
    fn oversubscribed(self) -> bool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self == Workload::ParBank && cores < par::THREADS
    }
}

/// Thread scheduling on a shared host is the noisiest thing measured here:
/// more, shorter reps give `par_bank`'s medians more to work with.
const PAR_REPS: usize = 9;

/// `par_bank`'s per-rep size (also the size of the single-thread baseline
/// of a traced run: same operation count per thread).
fn par_params(seconds: f64) -> ParParams {
    ParParams {
        accounts: 32,
        read_pct: 50,
        ops_per_thread: ((220_000.0 * seconds / PAR_REPS as f64) as usize).max(1_000),
    }
}

/// One rep of a sized workload: `(seed, span log) -> result`.
type RepFn = Box<dyn Fn(u64, &Log) -> Rep>;

/// How one run of a workload is sized: how many reps, and what one rep is.
struct Sizing {
    reps: usize,
    rep: RepFn,
}

/// Size `w` so that the measured phases of all its reps together take
/// about `seconds` of wall time on the reference host (2 cores, 2.1 GHz).
/// The shapes — nodes, clients, objects, mixes, rates — never change; only
/// windows and operation counts scale. Each constant below is the virtual
/// seconds (or operations) the workload gets through per wall second
/// there, so a window is a pure function of `seconds` and virtual results
/// stay exact for a seed.
fn sizing(w: Workload, seconds: f64) -> Sizing {
    let reps = match w {
        Workload::ParBank => PAR_REPS,
        _ => 3,
    };
    let budget = seconds / reps as f64;
    let window =
        |vsecs_per_wall_s: f64| SimDuration::from_secs_f64((vsecs_per_wall_s * budget).max(1.0));
    // 10 virtual seconds of warm-up, less when the window itself is tiny.
    let warmup =
        |window: SimDuration| SimDuration::from_nanos((window.as_nanos() / 4).min(10_000_000_000));
    let rep: RepFn = match w {
        Workload::CnVacation | Workload::ChkSlist => {
            let (kind, rate) = match w {
                Workload::CnVacation => (QrKind::CnVacation, 200.0),
                _ => (QrKind::ChkSlist, 130.0),
            };
            let p = QrParams {
                nodes: 40,
                warmup: warmup(window(rate)),
                window: window(rate),
            };
            Box::new(move |seed, log| qr::run(kind, seed, &p, log))
        }
        Workload::QstoreHot => {
            // Wall time grows faster than the window here (the finding in
            // the README), so this rate holds only near the default size.
            let p = BankParams {
                nodes: 10,
                clients_per_node: 2,
                accounts: 8,
                read_pct: 10,
                warmup: warmup(window(120.0)),
                window: window(120.0),
            };
            Box::new(move |seed, log| bank::qstore_hot(seed, &p, log))
        }
        Workload::Fig9Bank => {
            let p = BankParams {
                nodes: 20,
                clients_per_node: 1,
                accounts: 48,
                read_pct: 90,
                warmup: warmup(window(120.0)),
                window: window(120.0),
            };
            Box::new(move |seed, log| bank::fig9_bank(seed, &p, log))
        }
        Workload::OpenOverload => {
            let window = window(28.0);
            let p = OpenParams {
                nodes: 10,
                warmup: SimDuration::from_nanos((window.as_nanos() / 4).min(2_000_000_000)),
                window,
            };
            Box::new(move |seed, log| open::run(seed, &p, log))
        }
        Workload::ParBank => {
            let p = par_params(seconds);
            Box::new(move |seed, log| par::run(seed, par::THREADS, &p, log))
        }
        Workload::HotRing => {
            let window = window(80.0);
            let p = RingParams {
                // 300k chains at full size; fewer only on sub-second budgets
                // (smoke runs), where seeding them would dominate.
                chains: (300_000.0 * budget.min(1.0)) as u64 + 1_000,
                // One full trip through a node's queue, so the initial
                // burst has spread before the window opens.
                warmup: SimDuration::from_nanos((window.as_nanos() / 4).min(20_000_000_000)),
                window,
            };
            Box::new(move |seed, log| ring::run(seed, &p, log))
        }
    };
    Sizing { reps, rep }
}

/// The reduced result of one run.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    /// `(name, value, samples behind it)` in contract order: the
    /// end-to-end metrics of an untraced run, empty on a traced one.
    pub e2e: Vec<(&'static str, f64, usize)>,
    /// `(name, value)` in contract order: the per-layer ledger of a traced
    /// run, empty on an untraced one.
    pub layers: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub violations: Vec<String>,
    /// `par_bank` on a host with fewer cores than worker threads.
    pub oversubscribed: bool,
    pub spans: Option<Rc<RefCell<SpanLog>>>,
}

/// Hold every rep to the first one's virtual results.
fn check_determinism(w: Workload, reps: &[&Rep], violations: &mut Vec<String>) {
    if !w.deterministic() {
        return;
    }
    let first = reps[0].fingerprint();
    for (i, r) in reps.iter().enumerate().skip(1) {
        let fp = r.fingerprint();
        if fp != first {
            violations.push(format!(
                "virtual results differ between rep 0 and rep {i}:\n  {first}\n  {fp}"
            ));
        }
    }
}

fn attempted(reps: &[&Rep]) -> u64 {
    reps.iter()
        .map(|r| r.host_commits + r.checks)
        .sum::<u64>()
        .max(1)
}

/// An untraced run: `reps` identical reps, end-to-end metrics out.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let sizing = sizing(w, seconds);
    let reps: Vec<Rep> = (0..sizing.reps)
        .map(|_| (sizing.rep)(seed, &None))
        .collect();
    let refs: Vec<&Rep> = reps.iter().collect();
    let mut violations: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
    check_determinism(w, &refs, &mut violations);

    let over = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    // Latency percentiles are the same in every rep on the simulator. On
    // real threads interference only ever adds to a tail (a preempted
    // commit), so the least disturbed rep is the estimate.
    let least = |p: f64| {
        reps.iter()
            .map(|r| percentile(&r.lat_ns, p) as f64 / 1e6)
            .fold(f64::INFINITY, f64::min)
    };
    let lat_n = reps[0].lat_ns.len();
    let values = [
        ("setup_s", over(&|r| r.ref_setup_s), reps.len()),
        (
            "commits_per_vsec",
            over(&|r| ratio(r.commits as f64, r.vsecs)),
            reps.len(),
        ),
        (
            "goodput_per_vsec",
            over(&|r| ratio(r.goodput as f64, r.vsecs)),
            reps.len(),
        ),
        ("commit_p50_vms", least(50.0), lat_n),
        ("commit_p99_vms", least(99.0), lat_n),
        (
            "commits_per_cpu_s",
            over(&|r| ratio(r.host_commits as f64, r.ref_cpu_s)),
            reps.len(),
        ),
        (
            "events_per_cpu_s",
            over(&|r| ratio(r.events as f64, r.ref_cpu_s)),
            reps.len(),
        ),
        (
            "ok_share",
            over(&|r| ratio(r.ok as f64, r.offered as f64)),
            reps.len(),
        ),
        ("peak_rss_mb", host::peak_rss_mb(), 1),
    ];
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            *values
                .iter()
                .find(|v| v.0 == m.name)
                .expect("every end-to-end metric is computed")
        })
        .collect();
    Outcome {
        workload: w,
        seed,
        e2e,
        layers: Vec::new(),
        attempted: attempted(&refs),
        violations,
        oversubscribed: w.oversubscribed(),
        spans: None,
    }
}

/// A traced run: one untraced rep, the same rep with spans, history and
/// engine-event recording on, then the layer probes. The two reps must
/// agree on every virtual result; their wall times give the overhead.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let sizing = sizing(w, seconds);
    let plain = (sizing.rep)(seed, &None);
    let log = Rc::new(RefCell::new(SpanLog::new()));
    let traced = (sizing.rep)(seed, &Some(Rc::clone(&log)));
    let mut violations = plain.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    check_determinism(w, &[&plain, &traced], &mut violations);

    let mut l: Layers = plain.layers.clone();
    l.extend(traced.wall_layers.clone());
    l.extend(plain.wall_layers.clone());
    if w.deterministic() {
        l.insert(
            "sim.events_per_cpu_s",
            ratio(plain.events as f64, plain.ref_cpu_s),
        );
        l.insert(
            "bench.slice_wall_growth",
            harness::slice_growth(&plain.slices),
        );
    }
    l.insert(
        "bench.trace_overhead",
        ratio(traced.ref_cpu_s, plain.ref_cpu_s) - 1.0,
    );
    l.insert("bench.host_speed", plain.host_speed());
    l.insert(
        "bench.failed_share",
        1.0 - ratio(plain.ok as f64, plain.offered as f64),
    );

    let mut attempted = attempted(&[&plain, &traced]);
    if w == Workload::ParBank {
        // The single-thread baseline: same operation count per thread.
        let x1 = par::run(seed, 1, &par_params(seconds), &None);
        attempted += x1.host_commits + x1.checks;
        violations.extend(x1.violations);
        let x1 = ratio(x1.commits as f64, x1.measure_s);
        l.insert("par.x1_commits_per_wall_s", x1);
        // Two threads on one core measure the scheduler, not the backend:
        // no speed-up is reported there.
        if !w.oversubscribed() {
            l.insert(
                "par.speedup_x2",
                ratio(ratio(plain.host_commits as f64, plain.measure_s), x1),
            );
        }
    }

    // Phase values from the virtual spans of the traced rep.
    {
        let log = log.borrow();
        let p50_vms = |name: &str| {
            let mut d = log.durations(name);
            d.sort_unstable();
            percentile(&d, 50.0) as f64 / 1e6
        };
        let totals = log.totals();
        let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
        l.insert("bench.phase.ct_vms_p50", p50_vms("closed"));
        l.insert("bench.phase.read_vms_p50", p50_vms("read"));
        l.insert("bench.phase.commit_vms_p50", p50_vms("commit"));
        l.insert("bench.phase.restart_vms_p50", p50_vms("restart"));
        l.insert(
            "bench.phase.attempts_per_commit",
            ratio(count("attempt"), count("txn")),
        );
        let mut tails = log.commit_tails();
        tails.sort_unstable();
        l.insert(
            "bench.phase.commit_tail_vms_p50",
            percentile(&tails, 50.0) as f64 / 1e6,
        );
    }
    crate::harness::wall_span(&Some(Rc::clone(&log)), 0, "probes", |_| {
        probes::run(seed, seconds, &mut l)
    });

    let layers = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let v = l.remove(name).unwrap_or(0.0);
            (*name, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    assert!(l.is_empty(), "layer values without a contract entry: {l:?}");
    Outcome {
        workload: w,
        seed,
        e2e: Vec::new(),
        layers,
        attempted,
        violations,
        oversubscribed: w.oversubscribed(),
        spans: Some(log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// About 1/400 of a full run: windows of a virtual second or two.
    const TINY: f64 = 0.02;

    fn layer(o: &Outcome, name: &str) -> f64 {
        o.layers
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no layer metric {name}"))
            .1
    }

    #[test]
    fn untraced_runs_repeat_exactly_and_report_every_metric() {
        for w in Workload::ALL {
            let o = run_untraced(w, 3, TINY);
            assert!(o.violations.is_empty(), "{w:?}: {:?}", o.violations);
            assert!(o.layers.is_empty() && o.spans.is_none());
            let names: Vec<_> = o.e2e.iter().map(|m| m.0).collect();
            let expected: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (name, value, _) in &o.e2e {
                assert!(value.is_finite() && *value > 0.0, "{w:?} {name} = {value}");
            }
        }
    }

    #[test]
    fn traced_runs_match_untraced_ones_and_bypasses_hold() {
        for w in Workload::ALL {
            let o = run_traced(w, 3, TINY);
            // Any difference between the traced and the untraced rep's
            // virtual results would be listed here.
            assert!(o.violations.is_empty(), "{w:?}: {:?}", o.violations);
            assert!(o.e2e.is_empty());
            assert_eq!(o.layers.len(), PER_LAYER.len());
            assert!(o
                .spans
                .as_ref()
                .is_some_and(|l| !l.borrow().totals().is_empty()));

            let disk = layer(&o, "sim.disk.fsync_p50_vus") + layer(&o, "qstore.fsyncs_per_commit");
            assert_eq!(disk > 0.0, w == Workload::QstoreHot, "{w:?} disk {disk}");
            let overload = layer(&o, "open_loop.shed_share")
                + layer(&o, "core.overload.deadline_aborts_per_offered")
                + layer(&o, "open_loop.max_queue_depth");
            assert_eq!(
                overload > 0.0,
                w == Workload::OpenOverload,
                "{w:?} overload {overload}"
            );
            match w {
                Workload::CnVacation => {
                    assert!(layer(&o, "core.nesting.ct_commits_per_commit") > 0.0);
                    assert_eq!(layer(&o, "core.chk.checkpoints_per_commit"), 0.0);
                    assert_eq!(layer(&o, "core.chk.rollbacks_per_commit"), 0.0);
                }
                Workload::ChkSlist => {
                    assert!(layer(&o, "core.chk.checkpoints_per_commit") > 0.0);
                    assert_eq!(layer(&o, "core.nesting.ct_abort_share"), 0.0);
                    assert_eq!(layer(&o, "core.nesting.ct_commits_per_commit"), 0.0);
                }
                Workload::ParBank => {
                    assert_eq!(layer(&o, "sim.events_per_cpu_s"), 0.0);
                    assert_eq!(layer(&o, "sim.events_per_commit"), 0.0);
                    assert!(layer(&o, "par.x1_commits_per_wall_s") > 0.0);
                }
                Workload::HotRing => {
                    assert!(layer(&o, "sim.events_per_cpu_s") > 0.0);
                    assert_eq!(layer(&o, "core.transport.msgs_per_commit"), 0.0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn another_seed_gives_other_virtual_results() {
        let p50 = |seed| {
            let o = run_untraced(Workload::QstoreHot, seed, TINY);
            o.e2e.iter().find(|m| m.0 == "commit_p50_vms").unwrap().1
        };
        assert_eq!(p50(5), p50(5));
        assert_ne!(p50(5), p50(6));
    }
}
