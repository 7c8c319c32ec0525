//! `cn_vacation` and `chk_slist`: closed-loop clients on the QR engine,
//! driven through `Client::run` and `Tx::closed` on the paper testbed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use qrdtm_core::{Abort, Cluster, DtmConfig, NestingMode, Tx};
use qrdtm_sim::{NodeId, SimDuration};
use qrdtm_workloads::skiplist::{self, SkiplistLayout};
use qrdtm_workloads::vacation::{self, VacationLayout};
use rand::RngExt;

use crate::harness::{self, wall_span, Log, Rep};
use crate::host::Stopwatch;
use crate::layers;
use crate::spans::Recorder;

/// Which of the two QR-engine workloads to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QrKind {
    /// QR-CN, Vacation 64 rows / 64 customers, 4 reservation calls per
    /// root, 50 % read-only.
    CnVacation,
    /// QR-CHK, SList 512 keys half-populated, 3 ops per root, 50 % reads.
    ChkSlist,
}

/// Sizes of one rep. The shape (nodes, objects, mix) is fixed by the
/// workload; only the windows scale with `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct QrParams {
    pub nodes: usize,
    pub warmup: SimDuration,
    pub window: SimDuration,
}

const VACATION: VacationLayout = VacationLayout {
    base: 0,
    rows: 64,
    customers: 64,
    // Large capacity: contention comes from row conflicts, not exhaustion.
    capacity: 1 << 40,
};
const VACATION_CALLS: usize = 4;
const SLIST_KEYS: i64 = 512;
const SLIST_OPS: usize = 3;
const READ_PCT: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq)]
enum SlOp {
    Contains,
    Insert,
    Remove,
}

/// One pre-generated root transaction.
#[derive(Clone, Debug, PartialEq)]
enum Txn {
    Vacation {
        read: bool,
        customer: u64,
        rounds: [[u64; 3]; VACATION_CALLS],
    },
    SList([(i64, SlOp); SLIST_OPS]),
}

/// The operation plan of one client: `len` root transactions drawn from
/// the client's own stream of `seed`.
fn plan(kind: QrKind, seed: u64, client: u64, len: usize) -> Vec<Txn> {
    let mut r = harness::stream(seed, client);
    (0..len)
        .map(|_| match kind {
            QrKind::CnVacation => Txn::Vacation {
                read: r.random_range(0..100u64) < READ_PCT,
                customer: r.random_range(0..VACATION.customers),
                rounds: std::array::from_fn(|_| {
                    std::array::from_fn(|_| r.random_range(0..VACATION.rows))
                }),
            },
            QrKind::ChkSlist => Txn::SList(std::array::from_fn(|_| {
                let key = r.random_range(0..SLIST_KEYS);
                let op = if r.random_range(0..100u64) < READ_PCT {
                    SlOp::Contains
                } else if r.random_range(0..2u64) == 0 {
                    SlOp::Insert
                } else {
                    SlOp::Remove
                };
                (key, op)
            })),
        })
        .collect()
}

/// Run one pre-generated transaction body on `tx`, with a `closed` span
/// around each closed-nested call the body makes.
async fn body(
    tx: &Tx,
    t: &Txn,
    sl: SkiplistLayout,
    rec: &Recorder,
    txn: u64,
    attempt: u32,
) -> Result<(), Abort> {
    match t {
        Txn::Vacation {
            read,
            customer,
            rounds,
        } => {
            for &picks in rounds {
                let ct = rec.open(attempt, txn, "closed");
                let r = if *read {
                    vacation::query(tx, &VACATION, picks).await.map(drop)
                } else {
                    vacation::make_reservation(tx, &VACATION, *customer, picks)
                        .await
                        .map(drop)
                };
                rec.close(ct);
                r?;
            }
        }
        Txn::SList(ops) => {
            for &(key, op) in ops {
                let ct = rec.open(attempt, txn, "closed");
                let r = tx
                    .closed(move |t2| async move {
                        match op {
                            SlOp::Contains => skiplist::contains(&t2, &sl, key).await,
                            SlOp::Insert => skiplist::insert(&t2, &sl, key, key).await,
                            SlOp::Remove => skiplist::remove(&t2, &sl, key).await,
                        }
                    })
                    .await;
                rec.close(ct);
                r?;
            }
        }
    }
    Ok(())
}

/// How many transactions to pre-generate per client: well above what one
/// closed-loop client can commit in the window (each needs several 30 ms
/// round trips); the loop wraps around rather than run dry.
fn plan_len(p: &QrParams) -> usize {
    ((p.warmup + p.window).as_secs_f64() * 4.0) as usize + 16
}

/// One rep of `kind`: fresh cluster, set-up, sliced measured window,
/// drain, output checks.
pub fn run(kind: QrKind, seed: u64, p: &QrParams, log: &Log) -> Rep {
    let mode = match kind {
        QrKind::CnVacation => NestingMode::Closed,
        QrKind::ChkSlist => NestingMode::Checkpoint,
    };
    let sl = SkiplistLayout::new(0, SLIST_KEYS);
    let t_setup = Stopwatch::thread();
    let (cluster, rec, stop, exited) = wall_span(log, 0, "setup", |setup| {
        let plans: Vec<Rc<Vec<Txn>>> = wall_span(log, setup, "plan", |_| {
            (0..p.nodes as u64)
                .map(|c| Rc::new(plan(kind, seed, c, plan_len(p))))
                .collect()
        });
        let cluster = wall_span(log, setup, "cluster_new", |_| {
            Rc::new(Cluster::new(DtmConfig {
                nodes: p.nodes,
                ..DtmConfig::paper_testbed(mode, harness::sim_seed(seed, 0))
            }))
        });
        let sim = cluster.sim().clone();
        harness::record_qr(&cluster, log);
        wall_span(log, setup, "preload", |_| match kind {
            QrKind::CnVacation => cluster.preload_all(VACATION.setup()),
            QrKind::ChkSlist => cluster.preload_all(sl.setup()),
        });
        if kind == QrKind::ChkSlist {
            wall_span(log, setup, "populate", |_| {
                let client = cluster.client(NodeId(0));
                sim.spawn(async move {
                    for k in (0..SLIST_KEYS).step_by(2) {
                        client
                            .run(|tx| async move { skiplist::insert(&tx, &sl, k, k).await })
                            .await;
                    }
                });
                sim.run();
            });
        }
        let rec = Recorder::on_sim(&sim, p.nodes, log.clone(), 0);
        let stop = Rc::new(Cell::new(false));
        let exited = Rc::new(Cell::new(0usize));
        for (c, plan) in plans.into_iter().enumerate() {
            let client = cluster.client(NodeId(c as u32));
            let (rec, stop, exited) = (Rc::clone(&rec), Rc::clone(&stop), Rc::clone(&exited));
            sim.spawn(async move {
                for t in plan.iter().cycle() {
                    if stop.get() {
                        break;
                    }
                    let txn = rec.next_txn();
                    let start = rec.now();
                    let span = rec.open_txn(txn);
                    client
                        .run(|tx| {
                            let rec = Rc::clone(&rec);
                            async move {
                                let attempt = rec.open(span, txn, "attempt");
                                let r = body(&tx, t, sl, &rec, txn, attempt).await;
                                rec.close(attempt);
                                r
                            }
                        })
                        .await;
                    rec.close(span);
                    rec.committed(Some(c), start);
                }
                exited.set(exited.get() + 1);
            });
        }
        wall_span(log, setup, "warmup", |_| sim.run_for(p.warmup));
        cluster.reset_stats();
        sim.reset_metrics();
        (cluster, rec, stop, exited)
    });
    let sim = cluster.sim().clone();
    let mut rep = Rep {
        setup_s: t_setup.cpu_s(),
        ..Rep::default()
    };

    let q0 = sim.metrics().queue;
    let window_start = sim.now();
    rec.start_measuring();
    harness::pump(&mut rep, log, p.window, |d| sim.run_for(d));
    rec.stop_measuring();
    let stats = cluster.stats();
    let m = sim.metrics();
    let window_end = sim.now();

    rep.commits = stats.commits;
    rep.goodput = stats.commits;
    rep.host_commits = stats.commits;
    rep.events = m.events;
    rep.lat_ns = rec.take_latencies();
    rep.lat_ns.sort_unstable();
    layers::sim(&mut rep.layers, &m, &q0, stats.commits);
    layers::transport(&mut rep.layers, &m, stats.commits);
    layers::engine(&mut rep.layers, &stats);
    layers::quorum_sizes(&mut rep.layers, &cluster);

    // Output checks. A starved client's operation never completed: it
    // counts against `ok_share`, but it is not a wrong output.
    rep.check((rep.lat_ns.len() as u64 != stats.commits).then(|| {
        format!(
            "benchmark timed {} commits, the engine counted {}",
            rep.lat_ns.len(),
            stats.commits
        )
    }));
    let starved = rec.starved_clients(harness::starved_before(window_start, window_end));
    rep.layers.insert("bench.starved_clients", starved as f64);
    rep.offered = stats.commits + starved;
    rep.ok = stats.commits;

    stop.set(true);
    harness::drain(&mut rep, &exited, p.nodes, |d| sim.run_for(d));
    let problem = wall_span(log, 0, "invariant", |_| invariant(kind, &cluster, sl));
    rep.check(problem);
    harness::audit_qr(&mut rep, log, &cluster);
    rep
}

/// The workload's own consistency invariant, read by one final
/// transaction after every client has stopped.
fn invariant(kind: QrKind, cluster: &Rc<Cluster>, sl: SkiplistLayout) -> Option<String> {
    let client = cluster.client(NodeId(0));
    let out: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    cluster.sim().spawn(async move {
        let problem = match kind {
            QrKind::CnVacation => {
                let (used, reserved) = client
                    .run(|tx| async move {
                        Ok((
                            vacation::total_used(&tx, &VACATION).await?,
                            vacation::total_reserved(&tx, &VACATION).await?,
                        ))
                    })
                    .await;
                (used != reserved)
                    .then(|| format!("vacation: {used} units used but {reserved} reserved"))
            }
            QrKind::ChkSlist => {
                let keys = client
                    .run(|tx| async move { skiplist::collect_keys(&tx, &sl).await })
                    .await;
                let sorted = keys.windows(2).all(|w| w[0] < w[1]);
                let in_range = keys.iter().all(|k| (0..SLIST_KEYS).contains(k));
                (!sorted || !in_range).then(|| "slist: keys out of order or range".to_string())
            }
        };
        *out2.borrow_mut() = problem;
    });
    cluster.sim().run();
    let problem = out.borrow_mut().take();
    problem
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_follow_the_seed() {
        for kind in [QrKind::CnVacation, QrKind::ChkSlist] {
            assert_eq!(plan(kind, 7, 3, 50), plan(kind, 7, 3, 50));
            assert_ne!(plan(kind, 7, 3, 50), plan(kind, 8, 3, 50));
            assert_ne!(plan(kind, 7, 3, 50), plan(kind, 7, 4, 50));
        }
    }
}
