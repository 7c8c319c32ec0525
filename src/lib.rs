//! # qr-dtm — fault-tolerant distributed transactional memory
//!
//! A Rust reproduction of *"On Closed Nesting and Checkpointing in
//! Fault-Tolerant Distributed Transactional Memory"* (Dhoke, Ravindran,
//! Zhang — IPDPS 2013): quorum-replicated DTM (**QR**) with closed nesting
//! (**QR-CN**), checkpointing (**QR-CHK**), and read-quorum incremental
//! validation (**Rqv**), on a deterministic discrete-event simulator, plus
//! the paper's benchmarks and baselines.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — the protocols: clusters, transactions, `closed()` nesting,
//!   checkpoint rollback, 1-copy-equivalent replication.
//! * [`sim`] — the deterministic simulator (virtual time, latency models,
//!   failures, message accounting).
//! * [`quorum`] — the Agrawal–El Abbadi tree quorum protocol.
//! * [`workloads`] — Bank, Hashmap, Skiplist, RBTree, BST, Vacation and the
//!   experiment driver.
//! * [`baselines`] — TFA (HyFlow) and Decent-STM comparators.
//! * [`qstore`] — queue-oriented speculative batching (Q-Store family).
//!
//! See the `examples/` directory for runnable entry points and
//! `crates/bench` for the `repro` binary that regenerates every table and
//! figure of the paper.

#![forbid(unsafe_code)]

pub use qrdtm_baselines as baselines;
pub use qrdtm_core as core;
pub use qrdtm_par as par;
pub use qrdtm_qstore as qstore;
pub use qrdtm_quorum as quorum;
pub use qrdtm_sim as sim;
pub use qrdtm_workloads as workloads;

/// Commonly used items for writing QR-DTM programs.
pub mod prelude {
    pub use qrdtm_core::{
        Abort, AbortTarget, Client, Cluster, DtmConfig, DtmProtocol, LatencySpec, NestingMode,
        ObjVal, ObjectId, ProtocolStats, SimHosted, Tx,
    };
    pub use qrdtm_sim::{NodeId, SimDuration, SimTime};
}
