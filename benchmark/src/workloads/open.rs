//! `open_overload`: the open-loop generator (`spawn_open_loop`) pushing
//! QR-CN through and past saturation — a grid of steady Poisson rates,
//! one far-overload point, and a flash crowd at the SLO rate.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_core::{
    Cluster, DtmConfig, DtmProtocol, DtmStats, NestingMode, ObjVal, ObjectId, OverloadConfig,
};
use qrdtm_sim::{Metrics, SimDuration, WheelStats};
use qrdtm_workloads::{spawn_open_loop, LoadControl, LoadTallies, OpenLoopSpec, RateSchedule};

use crate::harness::{self, wall_span, Layers, Log, Rep};
use crate::host::Stopwatch;
use crate::layers;
use crate::spans::Recorder;
use crate::stats::ratio;
use crate::workloads::proto::Spanned;

/// Steady offered rates of the SLO grid, transactions per virtual second.
pub const GRID_TPS: [u64; 7] = [40, 60, 80, 100, 120, 160, 200];
/// Layer metric per grid rate: the share of arrivals that committed within
/// the deadline there (what the SLO rate is read off).
const GRID_SHARE_NAMES: [&str; 7] = [
    "open_loop.goodput_share_at_40",
    "open_loop.goodput_share_at_60",
    "open_loop.goodput_share_at_80",
    "open_loop.goodput_share_at_100",
    "open_loop.goodput_share_at_120",
    "open_loop.goodput_share_at_160",
    "open_loop.goodput_share_at_200",
];
/// The grid rate whose latency and `ok_share` are the end-to-end values:
/// below the knee on every seed, so it compares like with like.
pub const REFERENCE_TPS: u64 = 80;
/// The far-overload point: about thirteen times the goodput plateau.
pub const OVERLOAD_TPS: u64 = 1600;
const DEADLINE: SimDuration = SimDuration::from_millis(500);
const QUEUE_BOUND: usize = 4;
const WORKERS_PER_NODE: usize = 2;
const ACCOUNTS: u64 = 64;
const INITIAL_BALANCE: i64 = 1_000;
/// Share of arrivals that must commit within the deadline at the SLO rate.
const SLO_SHARE: f64 = 0.99;

/// Sizes of one rep: every leg runs `warmup + window` on a fresh cluster.
#[derive(Clone, Copy, Debug)]
pub struct OpenParams {
    pub nodes: usize,
    pub warmup: SimDuration,
    pub window: SimDuration,
}

/// What one leg measured.
struct Leg {
    rep: Rep,
    offered: u64,
    shed: u64,
    goodput: u64,
    late: u64,
    abandoned: u64,
    in_flight: u64,
    max_queue_depth: u64,
    metrics: Metrics,
    q0: WheelStats,
    stats: DtmStats,
    quorums: Layers,
}

impl Leg {
    fn meets_slo(&self, p: &OpenParams) -> bool {
        let backlog_cap = (p.nodes * (QUEUE_BOUND + WORKERS_PER_NODE)) as u64;
        self.offered > 0
            && self.goodput as f64 >= SLO_SHARE * self.offered as f64
            && self.in_flight <= backlog_cap
    }
}

fn leg(
    seed: u64,
    id: u64,
    rate_tps: u64,
    schedule: RateSchedule,
    p: &OpenParams,
    log: &Log,
) -> Leg {
    let t_setup = Stopwatch::thread();
    let (spanned, rec, tallies, stop) = wall_span(log, 0, "setup", |setup| {
        let cluster = wall_span(log, setup, "cluster_new", |_| {
            Rc::new(Cluster::new(DtmConfig {
                nodes: p.nodes,
                mode: NestingMode::Closed,
                seed: harness::sim_seed(seed, id),
                rpc_timeout: Some(SimDuration::from_millis(100)),
                overload: Some(OverloadConfig::default()),
                ..DtmConfig::default()
            }))
        });
        let sim = cluster.sim().clone();
        harness::record_qr(&cluster, log);
        wall_span(log, setup, "preload", |_| {
            for i in 0..ACCOUNTS {
                cluster.preload(ObjectId(i), ObjVal::Int(INITIAL_BALANCE));
            }
        });
        let rec = Recorder::on_sim(&sim, 0, log.clone(), id << 40);
        let spanned = Rc::new(Spanned::new(cluster, Rc::clone(&rec), DEADLINE));
        let tallies = Rc::new(LoadTallies::default());
        let stop = Rc::new(Cell::new(false));
        let spec = OpenLoopSpec {
            accounts: ACCOUNTS,
            zipf_milli: 0,
            rate_tps,
            deadline: DEADLINE,
            queue_bound: QUEUE_BOUND,
            workers_per_node: WORKERS_PER_NODE,
            schedule,
            ..OpenLoopSpec::default()
        };
        spawn_open_loop(
            &spanned,
            p.nodes,
            spec,
            Rc::new(LoadControl::default()),
            Rc::clone(&tallies),
            Rc::clone(&stop),
        );
        wall_span(log, setup, "warmup", |_| sim.run_for(p.warmup));
        tallies.reset();
        spanned.reset_protocol_stats();
        sim.reset_metrics();
        (spanned, rec, tallies, stop)
    });
    let cluster = Rc::clone(spanned.inner());
    let sim = cluster.sim().clone();
    let mut rep = Rep {
        setup_s: t_setup.cpu_s(),
        ..Rep::default()
    };

    let q0 = sim.metrics().queue;
    rec.start_measuring();
    harness::pump(&mut rep, log, p.window, |d| sim.run_for(d));
    rec.stop_measuring();
    let metrics = sim.metrics();
    let stats = cluster.stats();
    let t = &tallies;
    let (offered, admitted, shed) = (t.offered.get(), t.admitted.get(), t.shed.get());
    let (goodput, late, abandoned) = (t.goodput.get(), t.late.get(), t.abandoned.get());

    rep.lat_ns = rec.take_latencies();
    rep.lat_ns.sort_unstable();
    rep.commits = goodput + late;
    rep.host_commits = rep.commits;
    rep.goodput = goodput;
    rep.events = metrics.events;
    rep.offered = offered;
    rep.ok = goodput;
    rep.check(
        (offered != admitted + shed)
            .then(|| format!("{offered} arrivals but {admitted} admitted + {shed} shed")),
    );
    rep.check((rep.lat_ns.len() as u64 != rep.commits).then(|| {
        format!(
            "benchmark timed {} commits, the driver counted {}",
            rep.lat_ns.len(),
            rep.commits
        )
    }));

    // Wind down: workers finish the transaction they are in, then the
    // money must still add up.
    stop.set(true);
    sim.run_for(SimDuration::from_secs(3));
    harness::check_balance(&mut rep, ACCOUNTS, INITIAL_BALANCE, |oid| {
        cluster.latest(oid).map(|(_, v)| v.expect_int())
    });
    harness::audit_qr(&mut rep, log, &cluster);
    let mut quorums = Layers::new();
    layers::quorum_sizes(&mut quorums, &cluster);
    Leg {
        rep,
        offered,
        shed,
        goodput,
        late,
        abandoned,
        // Requests admitted before the window but finished inside it make
        // the difference slightly negative at low load; that is no backlog.
        in_flight: admitted.saturating_sub(goodput + late + abandoned),
        max_queue_depth: t.max_queue_depth.get(),
        metrics,
        q0,
        stats,
        quorums,
    }
}

/// One rep: the grid, the overload point and the flash crowd, each on a
/// fresh cluster with its own simulator seed.
pub fn run(seed: u64, p: &OpenParams, log: &Log) -> Rep {
    let grid: Vec<Leg> = GRID_TPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| leg(seed, i as u64, rate, RateSchedule::Steady, p, log))
        .collect();
    let overload = leg(seed, 7, OVERLOAD_TPS, RateSchedule::Steady, p, log);
    // Highest grid rate that meets the SLO with every lower rate meeting
    // it too; the flash crowd then quadruples that rate for the middle
    // quarter of the window.
    let slo_rate = GRID_TPS
        .iter()
        .zip(&grid)
        .take_while(|(_, l)| l.meets_slo(p))
        .map(|(&r, _)| r)
        .last()
        .unwrap_or(0);
    let quarter = SimDuration::from_nanos(p.window.as_nanos() / 4);
    let flash = leg(
        seed,
        8,
        slo_rate.max(GRID_TPS[0]),
        RateSchedule::FlashCrowd {
            at: p.warmup + quarter,
            lasting: quarter,
            factor_pct: 400,
        },
        p,
        log,
    );

    let mut rep = Rep::default();
    let l = &mut rep.layers;
    l.insert("open_loop.slo_rate_per_vsec", slo_rate as f64);
    for (name, g) in GRID_SHARE_NAMES.iter().zip(&grid) {
        l.insert(name, ratio(g.goodput as f64, g.offered as f64));
    }
    l.insert(
        "open_loop.shed_share",
        ratio(overload.shed as f64, overload.offered as f64),
    );
    l.insert(
        "open_loop.late_share",
        ratio(overload.late as f64, overload.offered as f64),
    );
    l.insert(
        "open_loop.abandoned_share",
        ratio(overload.abandoned as f64, overload.offered as f64),
    );
    l.insert("open_loop.max_queue_depth", overload.max_queue_depth as f64);
    l.insert(
        "open_loop.flash_goodput_share",
        ratio(flash.goodput as f64, flash.offered as f64),
    );
    // Generator lateness: arrivals produced over arrivals scheduled, on
    // the steady legs (1 = the generator kept its schedule).
    let scheduled: f64 =
        GRID_TPS.iter().map(|&r| r as f64).sum::<f64>() * harness::pumped_secs(p.window);
    let produced: u64 = grid.iter().map(|g| g.offered).sum();
    l.insert(
        "open_loop.offered_vs_target",
        ratio(produced as f64, scheduled),
    );

    // Engine, transport and queue values describe the overload point,
    // where retries, timeouts and shedding do their work.
    layers::sim(l, &overload.metrics, &overload.q0, overload.rep.commits);
    layers::transport(l, &overload.metrics, overload.rep.commits);
    layers::engine(l, &overload.stats);
    let m = &overload.metrics;
    l.insert(
        "core.overload.deadline_aborts_per_offered",
        ratio(m.deadline_aborts as f64, overload.offered as f64),
    );
    l.insert(
        "core.overload.retry_budget_exhausted",
        m.retry_budget_exhausted as f64,
    );
    l.insert(
        "core.overload.hedges_suppressed",
        m.hedges_suppressed as f64,
    );
    l.extend(overload.quorums.clone());

    // End to end: latency and ok_share at the reference rate, throughput
    // and goodput at the overload point, wall-clock speed over all legs.
    let reference = GRID_TPS
        .iter()
        .position(|&r| r == REFERENCE_TPS)
        .expect("reference rate is on the grid");
    let r = &grid[reference].rep;
    (rep.offered, rep.ok, rep.lat_ns) = (r.offered, r.ok, r.lat_ns.clone());
    let o = &overload.rep;
    (rep.commits, rep.goodput, rep.vsecs) = (o.commits, o.goodput, o.vsecs);
    for g in grid.iter().chain([&overload, &flash]) {
        rep.absorb_host(&g.rep);
    }
    rep
}
