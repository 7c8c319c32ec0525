//! # qrdtm-sim — deterministic discrete-event network simulation
//!
//! The substrate under the QR-DTM reproduction: a virtual-time,
//! single-threaded, seed-deterministic simulator of a message-passing
//! distributed system, with
//!
//! * an async executor so protocol code (transactions) reads like straight
//!   blocking RPC code (`sim.call(me, &quorum, msg, None).await`),
//! * pluggable link-latency models ([`ConstLatency`], [`JitteredLatency`],
//!   [`MetricSpace`]) — the paper's testbed showed ~30 ms RTT multicast and
//!   ~5 ms unicast, and latency dominates every result,
//! * per-node FIFO service queues with configurable per-class service times
//!   (server occupancy, which produces the Fig. 10 hot-spot behaviour),
//! * failure injection (failed nodes silently drop traffic; clients find
//!   out via call timeouts), and
//! * exact message accounting by protocol-defined class.
//!
//! Because all randomness flows from one seed and ties break on sequence
//! numbers, every simulation — and therefore every figure in the
//! reproduction — is exactly repeatable.
//!
//! ## Example
//!
//! ```
//! use qrdtm_sim::{Sim, SimConfig, SimMessage, SimDuration, ConstLatency, NodeId};
//!
//! #[derive(Clone)]
//! struct Echo(u32);
//! impl SimMessage for Echo {}
//!
//! let sim: Sim<Echo> = Sim::new(SimConfig::new(
//!     1,
//!     Box::new(ConstLatency::new(SimDuration::from_millis(15))),
//! ));
//! let nodes = sim.add_nodes(2);
//! sim.set_handler(nodes[1], |ctx, env| {
//!     let x = env.msg.0;
//!     ctx.respond(&env, Echo(x + 1));
//! });
//! let s = sim.clone();
//! sim.spawn(async move {
//!     let r = s.call(NodeId(0), &[NodeId(1)], Echo(41), None).await;
//!     assert_eq!(r.replies[0].1 .0, 42);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod disk;
mod executor;
mod heartbeat;
mod idhash;
mod latency;
mod metrics;
mod net;
mod rpc;
mod sim;
mod time;
pub mod wheel;

pub use disk::{Disk, DiskConfig, DiskImage};
pub use heartbeat::HeartbeatConfig;
pub use idhash::{IdHasher, IdMap};
pub use latency::{ConstLatency, JitteredLatency, LatencyModel, MetricSpace};
pub use metrics::{Counter, EngineEvent, EngineEventKind, LatencyReservoir, Metrics, MAX_CLASSES};
pub use rpc::{CallFuture, CallId, CallResult};
pub use sim::{
    Envelope, EventInfo, EventTag, HandlerCtx, Scheduler, Sim, SimConfig, SimMessage, Sleep,
};
pub use time::{SimDuration, SimTime};
pub use wheel::{ArenaStats, EventArena, TimingWheel, WheelStats};

use std::fmt;

/// Identifier of a simulated node; dense indices starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
        assert!(NodeId(1) < NodeId(2));
    }
}
