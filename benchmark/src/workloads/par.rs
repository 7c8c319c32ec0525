//! `par_bank`: the bank mix on real OS threads against the TL2 backend.
//! No simulator code runs here; system time is wall time.
//!
//! The worker loop is the benchmark's own (the library's `run_par_bank`
//! keeps only a 4096-sample latency reservoir and folds its history audit
//! into the same call): each thread runs its pre-generated plan through
//! `protocol_bank::{transfer, audit}` and times every transaction, so the
//! percentiles come from every sample and the audit is timed on its own.

use std::time::Instant;

use qrdtm_core::{history, DtmProtocol, ObjVal, ObjectId};
use qrdtm_par::{block_on, ParBackend};
use qrdtm_sim::NodeId;
use qrdtm_workloads::protocol_bank::{audit, transfer};

use crate::harness::{self, wall_span, Log, Rep};
use crate::host::{self, Stopwatch};
use crate::stats::{percentile, ratio};
use crate::workloads::bank::{bank_ops, BankOp};

/// Worker threads of the measured run. Fixed: the workload is "two threads
/// contending", and a host with fewer cores is marked oversubscribed
/// rather than given a different workload.
pub const THREADS: usize = 2;
const INITIAL_BALANCE: i64 = 1_000;
const TRANSFER: i64 = 5;

/// Size of one rep.
#[derive(Clone, Copy, Debug)]
pub struct ParParams {
    pub accounts: u64,
    pub read_pct: u64,
    pub ops_per_thread: usize,
}

/// One rep on `threads` worker threads: plans and a fresh backend (set-up),
/// the workers (measured phase), then the history audit.
pub fn run(seed: u64, threads: usize, p: &ParParams, log: &Log) -> Rep {
    let t_setup = Stopwatch::thread();
    let (plans, backend) = wall_span(log, 0, "setup", |setup| {
        let plans: Vec<Vec<BankOp>> = wall_span(log, setup, "plan", |_| {
            (0..threads as u64)
                .map(|t| bank_ops(seed, t, p.accounts, p.read_pct, p.ops_per_thread))
                .collect()
        });
        let backend = wall_span(log, setup, "cluster_new", |_| ParBackend::new());
        wall_span(log, setup, "preload", |_| {
            let stm = backend.stm();
            for i in 0..p.accounts {
                stm.preload(ObjectId(i), ObjVal::Int(INITIAL_BALANCE));
            }
        });
        (plans, backend)
    });
    let mut rep = Rep {
        setup_s: t_setup.cpu_s(),
        ..Rep::default()
    };

    // Real threads cannot be sampled as they run: three samples before the
    // workers start and three after they have joined.
    let sample = || (0..3).map(|_| host::speed()).sum::<f64>() / 3.0;
    let before = sample();
    rep.ref_setup_s = rep.setup_s * before;
    let watch = Stopwatch::process();
    let lat_ns: Vec<Vec<u64>> = wall_span(log, 0, "measure", |_| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(t, plan)| {
                    let stm = backend.stm();
                    scope.spawn(move || {
                        let node = NodeId(t as u32);
                        let mut lat = Vec::with_capacity(plan.len());
                        for &op in plan {
                            let t0 = Instant::now();
                            match op {
                                BankOp::Audit(a, b) => {
                                    block_on(audit(&stm, node, ObjectId(a), ObjectId(b)));
                                }
                                BankOp::Transfer(a, b) => block_on(transfer(
                                    &stm,
                                    node,
                                    ObjectId(a),
                                    ObjectId(b),
                                    TRANSFER,
                                )),
                            }
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        lat
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker thread panicked"))
                .collect()
        })
    });
    rep.measure_s = watch.wall_s();
    rep.cpu_s = watch.cpu_s();
    rep.ref_cpu_s = rep.cpu_s * (before + sample()) / 2.0;
    let stats = backend.stats();
    let ops = (threads * p.ops_per_thread) as u64;

    rep.vsecs = rep.measure_s;
    rep.commits = stats.commits;
    rep.host_commits = stats.commits;
    rep.goodput = stats.commits;
    rep.events = stats.commits + stats.aborts;
    rep.offered = ops;
    rep.ok = stats.commits;
    rep.lat_ns = lat_ns.concat();
    rep.lat_ns.sort_unstable();
    rep.check(
        (stats.commits != ops).then(|| format!("{ops} operations but {} commits", stats.commits)),
    );
    harness::check_balance(&mut rep, p.accounts, INITIAL_BALANCE, |oid| {
        backend.latest(oid).map(|(_, v)| v.expect_int())
    });
    // The threaded history is audited in every rep, traced or not: it is
    // this backend's only correctness oracle.
    let (records, _reservoir) = backend.finish();
    let t0 = Instant::now();
    let violations = wall_span(log, 0, "audit", |_| history::verify(&records));
    let audit_s = t0.elapsed().as_secs_f64();
    rep.check(violations.first().map(|v| {
        format!(
            "{} serializability violations, first: {v}",
            violations.len()
        )
    }));

    let w = &mut rep.wall_layers;
    w.insert(
        "par.aborts_per_commit",
        ratio(stats.aborts as f64, stats.commits as f64),
    );
    w.insert("par.commit_p50_ns", percentile(&rep.lat_ns, 50.0) as f64);
    w.insert("par.commit_p99_ns", percentile(&rep.lat_ns, 99.0) as f64);
    w.insert(
        "par.audit_records_per_s",
        ratio(records.len() as f64, audit_s),
    );
    rep
}
