//! `hot_ring`: a 4-node ring of perpetual fire-and-forget ping chains. The
//! simulator's wheel, arena and dispatch loop do all the work and no
//! protocol crate runs — the event core's own regime.

use std::cell::RefCell;
use std::rc::Rc;

use qrdtm_sim::{JitteredLatency, NodeId, Sim, SimConfig, SimDuration, SimMessage};
use rand::RngExt;

use crate::harness::{self, wall_span, Log, Rep};
use crate::host::Stopwatch;
use crate::layers;

const NODES: usize = 4;
/// One hop in this many is timed: enough samples for a p99, cheap enough
/// to leave the event loop's speed alone.
const SAMPLE_EVERY: u64 = 64;

/// Size of one rep.
#[derive(Clone, Copy, Debug)]
pub struct RingParams {
    /// Ping chains in flight: the number of events the queue always holds.
    pub chains: u64,
    pub warmup: SimDuration,
    pub window: SimDuration,
}

/// A ping carrying the instant it was sent.
#[derive(Clone, Copy)]
struct Ping {
    sent_ns: u64,
}
impl SimMessage for Ping {}

#[derive(Default)]
struct Hops {
    measuring: bool,
    delivered: u64,
    lat_ns: Vec<u64>,
}

pub fn run(seed: u64, p: &RingParams, log: &Log) -> Rep {
    let t_setup = Stopwatch::thread();
    let hops = Rc::new(RefCell::new(Hops::default()));
    let sim = wall_span(log, 0, "setup", |setup| {
        let sim: Sim<Ping> = wall_span(log, setup, "cluster_new", |_| {
            // Jittered links spread arrivals over wheel pages; a constant
            // latency would collapse them into one bucket.
            let sim: Sim<Ping> = Sim::new(SimConfig::new(
                harness::sim_seed(seed, 0),
                Box::new(JitteredLatency::new(SimDuration::from_millis(5), 0.4)),
            ));
            let nodes = sim.add_nodes(NODES);
            for (i, &id) in nodes.iter().enumerate() {
                let next = nodes[(i + 1) % NODES];
                let hops = Rc::clone(&hops);
                sim.set_handler(id, move |ctx, env| {
                    let now = ctx.now().as_nanos();
                    let mut h = hops.borrow_mut();
                    if h.measuring {
                        h.delivered += 1;
                        if h.delivered % SAMPLE_EVERY == 0 {
                            h.lat_ns.push(now - env.msg.sent_ns);
                        }
                    }
                    drop(h);
                    ctx.send(next, Ping { sent_ns: now });
                });
            }
            sim
        });
        wall_span(log, setup, "populate", |_| {
            // The plan: which node each chain starts from.
            let mut r = harness::stream(seed, 0);
            for _ in 0..p.chains {
                let from = r.random_range(0..NODES as u32);
                sim.send(
                    NodeId(from),
                    NodeId((from + 1) % NODES as u32),
                    Ping { sent_ns: 0 },
                );
            }
        });
        wall_span(log, setup, "warmup", |_| sim.run_for(p.warmup));
        sim.reset_metrics();
        sim
    });
    let mut rep = Rep {
        setup_s: t_setup.cpu_s(),
        ..Rep::default()
    };

    let q0 = sim.metrics().queue;
    hops.borrow_mut().measuring = true;
    harness::pump(&mut rep, log, p.window, |d| sim.run_for(d));
    let mut h = hops.borrow_mut();
    h.measuring = false;
    let m = sim.metrics();

    rep.commits = h.delivered;
    rep.host_commits = h.delivered;
    rep.goodput = h.delivered;
    rep.events = m.events;
    rep.offered = h.delivered;
    rep.ok = h.delivered;
    rep.lat_ns = std::mem::take(&mut h.lat_ns);
    rep.lat_ns.sort_unstable();
    layers::sim(&mut rep.layers, &m, &q0, h.delivered);
    // Every delivery is one handler run, so the simulator's own count of
    // processed requests must agree with the benchmark's.
    let processed: u64 = m.processed_by_node.iter().sum();
    rep.check((processed != h.delivered).then(|| {
        format!(
            "benchmark saw {} deliveries, the simulator processed {processed}",
            h.delivered
        )
    }));
    rep.check((m.dropped != 0).then(|| format!("{} messages dropped", m.dropped)));
    rep
}
