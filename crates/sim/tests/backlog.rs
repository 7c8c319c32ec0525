//! Gate: a deep per-node service backlog stays out of the timing wheel.
//!
//! A 4-node fire-and-forget ring with 20 000 perpetual chains and the
//! default 200 µs service time keeps every node about one virtual second
//! behind — four times the wheel's 268 ms horizon. Before service lanes,
//! every admitted request's `Dispatch` went into the overflow heap and was
//! promoted back out once (`promotions` ≈ one per dispatch: the
//! `hot_ring` finding of `benchmark/README.md`); with lanes only each
//! node's head is in the wheel, and it is never further away than one
//! service time.

use qrdtm_sim::{JitteredLatency, Sim, SimConfig, SimDuration, SimMessage};
use std::cell::Cell;
use std::rc::Rc;

const NODES: usize = 4;
const CHAINS: usize = 20_000;

#[derive(Clone, Copy)]
struct Ping;
impl SimMessage for Ping {}

#[test]
fn a_deep_backlog_never_reaches_the_overflow_level() {
    let sim: Sim<Ping> = Sim::new(SimConfig::new(
        7,
        Box::new(JitteredLatency::new(SimDuration::from_millis(5), 0.4)),
    ));
    let nodes = sim.add_nodes(NODES);
    let handled = Rc::new(Cell::new(0u64));
    for (i, &id) in nodes.iter().enumerate() {
        let next = nodes[(i + 1) % NODES];
        let handled = Rc::clone(&handled);
        sim.set_handler(id, move |ctx, _env| {
            handled.set(handled.get() + 1);
            ctx.send(next, Ping);
        });
    }
    for c in 0..CHAINS {
        sim.send(nodes[c % NODES], nodes[(c + 1) % NODES], Ping);
    }
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    let processed: u64 = m.processed_by_node.iter().sum();
    // 4 nodes x 2 s / 200 us, less the 3–7 ms the first arrivals took.
    assert!(processed > 39_000, "ring stalled: {processed} handler runs");
    assert_eq!(handled.get(), processed);
    assert_eq!(m.dropped, 0);
    assert!(
        m.queue.promotions <= NODES as u64,
        "{} overflow promotions for {processed} dispatches: the backlog is in the wheel",
        m.queue.promotions
    );
    assert!(
        m.queue.lane_high_water >= 4_000,
        "deepest lane held {} keys; each node should be ~5 000 deep",
        m.queue.lane_high_water
    );
}
