//! Open-loop traffic: a seeded arrival process that enqueues transactions
//! at virtual-time instants **independent of completion**.
//!
//! Every other driver in this crate is closed-loop — each client politely
//! waits for its commit before issuing the next transaction, so offered
//! load can never exceed capacity and the system is never pushed past
//! saturation. Real front-ends are not so polite: arrivals keep coming
//! whether or not the cluster keeps up. This module models that world:
//!
//! * a Poisson **arrival process** at a configurable rate, with Zipfian
//!   key popularity and a flash-crowd rate schedule,
//! * a bounded per-node **admission queue** — arrivals past the bound are
//!   shed *before* acknowledgment (counted, never silently dropped after),
//! * a per-transaction **deadline** — work the client has already given
//!   up on is abandoned instead of burning quorum rounds,
//! * live **surge controls** ([`LoadControl`]) the chaos nemesis pokes to
//!   compose overload with gray failures,
//! * goodput / offered-load / queue-depth / timeout tallies
//!   ([`LoadTallies`]), sampled while the run is in flight.
//!
//! Setting [`OpenLoopSpec::protect`] to `false` disables the admission
//! bound and deadline abandonment (every arrival is queued and retried to
//! completion) — the *unprotected* arm that makes metastable collapse
//! observable, used to validate the overload checkers the same way the
//! model checker validates its injected bugs.
//!
//! Everything draws from the protocol's own simulator RNG, so runs stay
//! deterministic per seed.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use qrdtm_core::{attempts, ObjVal, ObjectId, SimHosted};
use qrdtm_sim::{Counter, EngineEventKind, NodeId, SimDuration, SimTime};
use rand::RngExt;

use crate::protocol_bank::{audit_in, transfer_in};

/// How the offered arrival rate evolves over the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateSchedule {
    /// Constant rate for the whole run.
    Steady,
    /// A flash crowd: `factor_pct`/100 times the base rate between `at`
    /// and `at + lasting`, base rate elsewhere.
    FlashCrowd {
        /// Offset of the spike from the start of the arrival process.
        at: SimDuration,
        /// How long the spike lasts.
        lasting: SimDuration,
        /// Rate multiplier during the spike, percent (e.g. 500 = 5x).
        factor_pct: u32,
    },
}

/// Percentage of read-only audits in the mix.
const READ_PCT: u64 = 40;

/// Shape of an open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSpec {
    /// Number of account objects.
    pub accounts: u64,
    /// Base offered load, transactions per virtual second (cluster-wide).
    pub rate_tps: u64,
    /// Zipfian skew exponent ×1000 (0 = uniform; 900 ≈ web-like skew).
    pub zipf_milli: u32,
    /// Per-transaction completion deadline, measured from arrival.
    pub deadline: SimDuration,
    /// Admission-queue bound per node; arrivals past it are shed.
    pub queue_bound: usize,
    /// Concurrent executors per node draining the admission queue.
    pub workers_per_node: usize,
    /// Rate schedule over the run.
    pub schedule: RateSchedule,
    /// Overload protection: `true` enforces the admission bound and
    /// abandons past-deadline work; `false` is the unprotected validation
    /// arm (unbounded queue, retry to completion, no deadline set on the
    /// engine) that demonstrably goes metastable under surge.
    pub protect: bool,
}

impl Default for OpenLoopSpec {
    fn default() -> Self {
        OpenLoopSpec {
            accounts: 32,
            rate_tps: 200,
            zipf_milli: 900,
            deadline: SimDuration::from_millis(400),
            queue_bound: 64,
            workers_per_node: 2,
            schedule: RateSchedule::Steady,
            protect: true,
        }
    }
}

/// Live load controls the chaos nemesis pokes while the run is in flight
/// (`surge`, `flash-crowd` and `calm` plan verbs).
#[derive(Debug)]
pub struct LoadControl {
    /// Multiplier on the offered rate, percent (100 = nominal).
    pub surge_pct: Cell<u32>,
    /// When set, most arrivals are funneled to this node (a flash crowd
    /// hammering one entry point); `None` spreads them uniformly.
    pub flash_node: Cell<Option<u32>>,
}

impl Default for LoadControl {
    fn default() -> Self {
        LoadControl {
            surge_pct: Cell::new(100),
            flash_node: Cell::new(None),
        }
    }
}

impl LoadControl {
    /// Back to nominal: no surge, no flash focus.
    pub fn calm(&self) {
        self.surge_pct.set(100);
        self.flash_node.set(None);
    }

    /// Whether the load is nominal, as [`LoadControl::calm`] leaves it.
    pub fn is_calm(&self) -> bool {
        self.surge_pct.get() == 100 && self.flash_node.get().is_none()
    }
}

/// Running tallies of the arrival process, readable while in flight (the
/// nemesis monitor samples `goodput` for the re-convergence checker).
#[derive(Debug, Default)]
pub struct LoadTallies {
    /// Arrivals generated.
    pub offered: Cell<u64>,
    /// Arrivals accepted into an admission queue.
    pub admitted: Cell<u64>,
    /// Arrivals shed at the admission bound (before acknowledgment).
    pub shed: Cell<u64>,
    /// Transactions committed within their deadline.
    pub goodput: Cell<u64>,
    /// Transactions committed, but past their deadline.
    pub late: Cell<u64>,
    /// Admitted transactions abandoned because their deadline passed.
    pub abandoned: Cell<u64>,
    /// Deepest admission queue observed on any node.
    pub max_queue_depth: Cell<u64>,
}

impl LoadTallies {
    /// Zero every tally (measurement-window start).
    pub fn reset(&self) {
        self.offered.set(0);
        self.admitted.set(0);
        self.shed.set(0);
        self.goodput.set(0);
        self.late.set(0);
        self.abandoned.set(0);
        self.max_queue_depth.set(0);
    }
}

/// Zipfian cumulative distribution over `n` keys with exponent
/// `s_milli`/1000: weight of key `i` is `1/(i+1)^s`, normalized. A zero
/// exponent degenerates to uniform.
pub fn zipf_cdf(n: u64, s_milli: u32) -> Vec<f64> {
    let s = f64::from(s_milli) / 1_000.0;
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draw a key from the Zipfian CDF given a uniform `u` in `[0, 1)`.
pub fn zipf_draw(cdf: &[f64], u: f64) -> u64 {
    cdf.partition_point(|&c| c <= u) as u64
}

/// One admitted request waiting in a node's admission queue.
#[derive(Clone, Copy, Debug)]
struct Job {
    deadline: SimTime,
    a: u64,
    b: u64,
    read: bool,
}

/// Sleeps longer than this are chopped so the arrival loop re-samples the
/// schedule and surge controls promptly (a nemesis `surge` verb must take
/// effect within one chunk, not one full low-rate inter-arrival gap).
const SCHEDULE_RESOLUTION: SimDuration = SimDuration::from_millis(25);

/// Poll interval of a worker waiting for its down node to recover.
const DOWN_POLL: SimDuration = SimDuration::from_millis(1);

/// What the arrival process shares with the workers it starts.
struct Pool<P> {
    proto: Rc<P>,
    spec: OpenLoopSpec,
    /// Per-node admission queues.
    queues: Vec<RefCell<VecDeque<Job>>>,
    /// Workers alive per node, at most `spec.workers_per_node`.
    running: Vec<Cell<usize>>,
    tallies: Rc<LoadTallies>,
    stop: Rc<Cell<bool>>,
}

/// Spawn the arrival process on the protocol's simulator; it starts a
/// worker whenever it admits a job to a node running fewer than
/// `workers_per_node`. The caller pumps virtual time and flips `stop` to
/// wind the tasks down (workers finish their in-flight transaction first).
pub fn spawn_open_loop<P: SimHosted + 'static>(
    proto: &Rc<P>,
    nodes: usize,
    spec: OpenLoopSpec,
    control: Rc<LoadControl>,
    tallies: Rc<LoadTallies>,
    stop: Rc<Cell<bool>>,
) {
    assert!(nodes >= 1 && spec.workers_per_node >= 1 && spec.accounts >= 2);
    let pool = Rc::new(Pool {
        proto: Rc::clone(proto),
        spec,
        queues: (0..nodes).map(|_| RefCell::default()).collect(),
        running: (0..nodes).map(|_| Cell::new(0)).collect(),
        tallies,
        stop,
    });

    // The arrival process: Poisson gaps at the scheduled rate, Zipfian
    // keys, admission (or shedding) into the per-node queues.
    let s = proto.sim().clone();
    let cdf = zipf_cdf(spec.accounts, spec.zipf_milli);
    proto.sim().spawn(async move {
        let tallies = &pool.tallies;
        let t0 = s.now();
        loop {
            if pool.stop.get() {
                return;
            }
            let elapsed = s.now().saturating_since(t0);
            let rate = spec.rate_tps as f64
                * schedule_factor(spec.schedule, elapsed)
                * f64::from(control.surge_pct.get())
                / 100.0;
            if rate < 1e-6 {
                s.sleep(SCHEDULE_RESOLUTION).await;
                continue;
            }
            // Exponential inter-arrival gap, chopped to the schedule
            // resolution. Chopping truncates the tail of the exponential
            // (slightly inflating low offered rates), but keeps surge
            // response latency bounded by one chunk.
            let u = s.with_rng(|r| r.random_range(0.0f64..1.0));
            let gap_ns = (-(1.0 - u).ln() / rate * 1e9) as u64;
            let gap = SimDuration::from_nanos(gap_ns.max(1));
            s.sleep(gap.min(SCHEDULE_RESOLUTION)).await;
            if gap > SCHEDULE_RESOLUTION {
                continue; // gap not yet elapsed; re-sample the schedule
            }
            // One arrival: pick the entry node (flash crowds funnel 80% of
            // traffic to the hot node), keys and mix.
            let node = match control.flash_node.get() {
                Some(hot) if (hot as usize) < nodes && s.rand_below(100) < 80 => hot,
                _ => s.rand_below(nodes as u64) as u32,
            };
            let u1 = s.with_rng(|r| r.random_range(0.0f64..1.0));
            let a = zipf_draw(&cdf, u1);
            let u2 = s.with_rng(|r| r.random_range(0.0f64..1.0));
            let mut b = zipf_draw(&cdf, u2);
            if b == a {
                b = (b + 1) % spec.accounts;
            }
            let read = s.rand_below(100) < READ_PCT;
            tallies.offered.set(tallies.offered.get() + 1);
            let mut q = pool.queues[node as usize].borrow_mut();
            if spec.protect && q.len() >= spec.queue_bound {
                // Shed before acknowledgment: the request never enters the
                // system, and the rejection is counted + surfaced.
                tallies.shed.set(tallies.shed.get() + 1);
                s.add(Counter::AdmissionShed, 1);
                s.emit_engine_event(EngineEventKind::OverloadShed, NodeId(node), q.len() as u64);
                continue;
            }
            q.push_back(Job {
                deadline: s.now() + spec.deadline,
                a,
                b,
                read,
            });
            tallies.admitted.set(tallies.admitted.get() + 1);
            let depth = q.len() as u64;
            if depth > tallies.max_queue_depth.get() {
                tallies.max_queue_depth.set(depth);
            }
            // Below quota, start a worker; otherwise a running one reaches it.
            let running = &pool.running[node as usize];
            if running.get() < spec.workers_per_node {
                running.set(running.get() + 1);
                s.spawn(work(Rc::clone(&pool), node));
            }
        }
    });
}

/// One worker on `node`: drain its admission queue, abandoning work whose
/// deadline already passed (protected arm only), and exit once the queue
/// is empty or the run stops. While the node is down, its work waits.
async fn work<P: SimHosted>(pool: Rc<Pool<P>>, node: u32) {
    let (p, spec, tallies) = (&*pool.proto, pool.spec, &*pool.tallies);
    let s = p.sim();
    while !pool.stop.get() {
        if !s.is_alive(NodeId(node)) {
            s.sleep(DOWN_POLL).await;
            continue;
        }
        let Some(job) = pool.queues[node as usize].borrow_mut().pop_front() else {
            break;
        };
        if spec.protect && s.now() > job.deadline {
            abandon(s, tallies, node, job.deadline);
            continue;
        }
        let mut h = p.begin(NodeId(node));
        if spec.protect {
            // Deadline-aware early abort: the engine stops burning quorum
            // rounds once this instant passes.
            p.set_deadline(&mut h, Some(job.deadline));
        }
        let (a, b) = (ObjectId(job.a), ObjectId(job.b));
        let give_up = || spec.protect && s.now() > job.deadline;
        let r = attempts(p, &mut h, give_up, async |h| {
            if job.read {
                audit_in(p, h, a, b).await.map(drop)
            } else {
                transfer_in(p, h, a, b, 5).await
            }
        })
        .await;
        match r {
            Ok(()) if s.now() <= job.deadline => {
                tallies.goodput.set(tallies.goodput.get() + 1);
            }
            Ok(()) => tallies.late.set(tallies.late.get() + 1),
            Err(_) => abandon(s, tallies, node, job.deadline),
        }
    }
    let running = &pool.running[node as usize];
    running.set(running.get() - 1);
}

/// Account one abandoned transaction: the deadline passed, so the client
/// has already given up — count it and stop spending capacity on it.
fn abandon<M: qrdtm_sim::SimMessage>(
    s: &qrdtm_sim::Sim<M>,
    tallies: &LoadTallies,
    node: u32,
    deadline: SimTime,
) {
    tallies.abandoned.set(tallies.abandoned.get() + 1);
    s.add(Counter::DeadlineAborts, 1);
    s.emit_engine_event(
        EngineEventKind::DeadlineAbort,
        NodeId(node),
        s.now().saturating_since(deadline).as_nanos(),
    );
}

/// The schedule's rate multiplier at `elapsed` since the run began.
fn schedule_factor(schedule: RateSchedule, elapsed: SimDuration) -> f64 {
    match schedule {
        RateSchedule::Steady => 1.0,
        RateSchedule::FlashCrowd {
            at,
            lasting,
            factor_pct,
        } => {
            if elapsed >= at && elapsed < at + lasting {
                f64::from(factor_pct) / 100.0
            } else {
                1.0
            }
        }
    }
}

/// Run the open-loop mix standalone on any simulator-hosted protocol, with
/// an entry point on every node of its simulator: preload, warm up,
/// measure for `duration`, then shut the simulation down and return the
/// window's tallies (what else is left stays readable). Sweeping
/// `spec.rate_tps` through the saturation knee gives the
/// graceful-degradation curve.
pub fn run_open_loop<P: SimHosted + 'static>(
    proto: Rc<P>,
    spec: &OpenLoopSpec,
    warmup: SimDuration,
    duration: SimDuration,
) -> LoadTallies {
    for i in 0..spec.accounts {
        proto.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    let sim = proto.sim().clone();
    let control = Rc::new(LoadControl::default());
    let tallies = Rc::new(LoadTallies::default());
    spawn_open_loop(
        &proto,
        sim.num_nodes(),
        *spec,
        control,
        Rc::clone(&tallies),
        Rc::default(),
    );
    sim.run_for(warmup);
    tallies.reset();
    proto.reset_protocol_stats();
    sim.reset_metrics();
    sim.run_for(duration);
    // The workers hold the protocol and the tallies: end them, or both
    // outlive every handle.
    sim.shutdown();
    Rc::try_unwrap(tallies).expect("shutdown dropped every worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{crash, recover, Cluster, DtmConfig, NestingMode, OverloadConfig};

    fn overload_cluster(seed: u64) -> Rc<Cluster> {
        Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            seed,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            overload: Some(OverloadConfig::default()),
            ..Default::default()
        }))
    }

    fn quick(rate_tps: u64, protect: bool) -> OpenLoopSpec {
        OpenLoopSpec {
            accounts: 16,
            rate_tps,
            queue_bound: 16,
            protect,
            ..OpenLoopSpec::default()
        }
    }

    const WARM: SimDuration = SimDuration::from_millis(500);
    const RUN: SimDuration = SimDuration::from_secs(4);

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(100, 900);
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        for w in cdf.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(cdf[9] > 0.5, "top 10 of 100 keys carry most of the mass");
        let uniform = zipf_cdf(100, 0);
        assert!((uniform[9] - 0.1).abs() < 1e-9);
        assert_eq!(zipf_draw(&cdf, 0.0), 0);
        assert_eq!(zipf_draw(&cdf, 0.999_999_999), 99);
    }

    #[test]
    fn under_capacity_goodput_tracks_offered_load() {
        // Uniform keys over a wide key space and a roomy deadline: light
        // load, negligible contention.
        let spec = OpenLoopSpec {
            accounts: 64,
            zipf_milli: 0,
            deadline: SimDuration::from_secs(2),
            ..quick(30, true)
        };
        let r = run_open_loop(overload_cluster(1), &spec, WARM, RUN);
        assert!(r.offered.get() > 0);
        assert_eq!(r.shed.get(), 0, "no shedding under light load: {r:?}");
        assert!(
            r.goodput.get() * 10 >= r.offered.get() * 8,
            "goodput within 80% of offered under light load: {r:?}"
        );
    }

    #[test]
    fn saturation_sheds_and_degrades_gracefully() {
        let r = run_open_loop(overload_cluster(2), &quick(3_000, true), WARM, RUN);
        assert!(
            r.shed.get() > 0,
            "overload must hit the admission bound: {r:?}"
        );
        assert!(
            r.goodput.get() > 0,
            "graceful degradation keeps committing: {r:?}"
        );
        assert!(
            r.max_queue_depth.get() <= 16,
            "admission bound holds: {r:?}"
        );
        assert_eq!(
            r.offered.get(),
            r.admitted.get() + r.shed.get(),
            "every arrival accounted"
        );
    }

    #[test]
    fn unprotected_arm_backs_up_instead_of_shedding() {
        let r = run_open_loop(overload_cluster(3), &quick(3_000, false), WARM, RUN);
        assert_eq!(
            r.shed.get(),
            0,
            "no admission control in the unprotected arm"
        );
        assert!(
            r.max_queue_depth.get() > 16,
            "queues grow past the bound: {r:?}"
        );
    }

    #[test]
    fn open_loop_runs_are_deterministic() {
        let run = || {
            let r = run_open_loop(overload_cluster(4), &quick(800, true), WARM, RUN);
            (
                r.offered.get(),
                r.shed.get(),
                r.goodput.get(),
                r.abandoned.get(),
                r.max_queue_depth.get(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_open_loop_schedules_only_arrival_ticks() {
        // No arrivals: the arrival loop's 25 ms re-sampling ticks are the
        // only events, and no worker exists to poll an empty queue.
        let cluster = overload_cluster(6);
        let sim = cluster.sim().clone();
        let control = Rc::new(LoadControl::default());
        control.surge_pct.set(0);
        spawn_open_loop(
            &cluster,
            10,
            quick(100, true),
            control,
            Rc::default(),
            Rc::default(),
        );
        sim.run_for(SimDuration::from_secs(10));
        let events = sim.metrics().events;
        assert!((395..=405).contains(&events), "{events} events");
        assert_eq!(sim.live_tasks(), 1, "only the arrival loop is live");
    }

    #[test]
    fn job_admitted_to_a_down_node_commits_after_recovery() {
        let cluster = overload_cluster(7);
        let sim = cluster.sim().clone();
        for i in 0..16 {
            cluster.preload(ObjectId(i), ObjVal::Int(1_000));
        }
        assert!(crash(&*cluster, &sim, NodeId(0)));
        let control = Rc::new(LoadControl::default());
        let tallies = Rc::new(LoadTallies::default());
        let spec = OpenLoopSpec {
            deadline: SimDuration::from_secs(10),
            ..quick(100, true)
        };
        // One entry node, so every arrival lands on the downed node 0.
        spawn_open_loop(
            &cluster,
            1,
            spec,
            Rc::clone(&control),
            Rc::clone(&tallies),
            Rc::default(),
        );
        sim.run_for(SimDuration::from_millis(200));
        control.surge_pct.set(0);
        assert!(tallies.admitted.get() > 0, "arrivals queue on a down node");
        assert_eq!(tallies.goodput.get() + tallies.late.get(), 0);
        assert_eq!(sim.live_tasks(), 3, "arrival loop + two waiting workers");

        assert!(recover(&*cluster, &sim, NodeId(0)));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(tallies.goodput.get(), tallies.admitted.get(), "{tallies:?}");
        assert_eq!(sim.live_tasks(), 1, "workers exit once the queue drains");
    }

    #[test]
    fn flash_crowd_schedule_spikes_offered_load() {
        let steady = run_open_loop(overload_cluster(5), &quick(100, true), WARM, RUN);
        let flash = run_open_loop(
            overload_cluster(5),
            &OpenLoopSpec {
                schedule: RateSchedule::FlashCrowd {
                    at: SimDuration::from_millis(500),
                    lasting: SimDuration::from_secs(2),
                    factor_pct: 800,
                },
                ..quick(100, true)
            },
            WARM,
            RUN,
        );
        assert!(
            flash.offered.get() > steady.offered.get() * 2,
            "flash window multiplies arrivals: {} vs {}",
            flash.offered.get(),
            steady.offered.get()
        );
    }

    /// The six-rate sweep through and past saturation on a fresh QR-CN
    /// cluster per point: uniform keys over 64 accounts so the knee
    /// measures capacity rather than lock contention, and a queue bound
    /// that holds less than a deadline's worth of service time. Returns
    /// `(offered tps, goodput)` per point, goodput over the same window.
    fn saturation_sweep(protect: bool) -> Vec<(u64, f64)> {
        [100, 200, 400, 800, 1_600, 3_200]
            .into_iter()
            .map(|rate_tps| {
                let cluster = Rc::new(Cluster::new(DtmConfig {
                    nodes: 10,
                    mode: NestingMode::Closed,
                    seed: 42,
                    rpc_timeout: Some(SimDuration::from_millis(100)),
                    overload: Some(OverloadConfig::default()),
                    ..Default::default()
                }));
                let spec = OpenLoopSpec {
                    accounts: 64,
                    zipf_milli: 0,
                    rate_tps,
                    deadline: SimDuration::from_millis(500),
                    queue_bound: 4,
                    protect,
                    ..OpenLoopSpec::default()
                };
                let r = run_open_loop(
                    cluster,
                    &spec,
                    SimDuration::from_millis(300),
                    SimDuration::from_secs(2),
                );
                (rate_tps, r.goodput.get() as f64)
            })
            .collect()
    }

    /// Graceful degradation: with the knee at the first rate delivering
    /// 95% of peak goodput, every point at twice the knee or beyond must
    /// keep goodput within 1.5x of the peak.
    fn degrades_gracefully(sweep: &[(u64, f64)]) -> bool {
        let peak = sweep.iter().map(|p| p.1).fold(0.0, f64::max);
        let knee = sweep.iter().find(|p| p.1 >= peak * 0.95).unwrap().0;
        let mut past = sweep.iter().filter(|p| p.0 >= 2 * knee).peekable();
        assert!(
            past.peek().is_some(),
            "sweep never reaches 2x knee: {sweep:?}"
        );
        past.all(|p| p.1 * 1.5 >= peak)
    }

    #[test]
    fn goodput_past_twice_the_knee_stays_within_1_5x_of_peak() {
        let protected = saturation_sweep(true);
        assert!(degrades_gracefully(&protected), "{protected:?}");
        // The same sweep without admission control or deadline abandon
        // collapses, so the condition above can fail.
        let unprotected = saturation_sweep(false);
        assert!(!degrades_gracefully(&unprotected), "{unprotected:?}");
    }
}
