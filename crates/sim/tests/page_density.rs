//! Gate: at the paper testbed's traffic a wheel page holds several events.
//!
//! Since service lanes hold every node backlog (`backlog.rs`), what reaches
//! the wheel's buckets is sparse: link arrivals, service completions and
//! replies, about eight per virtual millisecond here. A page far narrower
//! than that spacing drains one bucket per event and pays a cold bucket
//! line, a move into the run and a sort for each; 65.5 µs pages came to
//! about 0.7 drains per event on this scenario. Counts only: seeded, and
//! no clock is read.

use qrdtm_sim::{JitteredLatency, NodeId, Sim, SimConfig, SimDuration, SimMessage};

const NODES: u32 = 10;
const CLIENTS: u32 = 40;

#[derive(Clone, Copy)]
struct Echo;
impl SimMessage for Echo {}

#[test]
fn paper_testbed_traffic_shares_each_page_drain() {
    // 15 ms ± 10 % links and the default 200 µs service time.
    let sim: Sim<Echo> = Sim::new(SimConfig::new(
        11,
        Box::new(JitteredLatency::new(SimDuration::from_millis(15), 0.1)),
    ));
    let nodes = sim.add_nodes(NODES as usize);
    for &id in &nodes {
        sim.set_handler(id, |ctx, env| ctx.respond(&env, Echo));
    }
    // Back-to-back quorum calls of two, each with a 500 ms deadline that
    // the answered call retires from the far lane before it is due.
    for c in 0..CLIENTS {
        let s = sim.clone();
        sim.spawn(async move {
            let from = NodeId(c % NODES);
            loop {
                let a = s.rand_below(u64::from(NODES)) as u32;
                let b = (a + 1 + s.rand_below(u64::from(NODES) - 1) as u32) % NODES;
                let dests = [NodeId(a), NodeId(b)];
                let timeout = Some(SimDuration::from_millis(500));
                let r = s.call(from, &dests, Echo, timeout).await;
                assert!(!r.timed_out, "no node is slow enough to miss 500 ms");
            }
        });
    }
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    // Per call: two arrivals, two service completions and two replies;
    // ≈ 30 ms per round trip, so ≈ 8 events per virtual ms.
    assert!(m.events > 15_000, "traffic stalled: {} events", m.events);
    assert!(
        m.queue.bucket_sorts * 4 <= m.events,
        "{} bucket drains for {} events: the wheel's pages are too narrow for the traffic",
        m.queue.bucket_sorts,
        m.events
    );
}
