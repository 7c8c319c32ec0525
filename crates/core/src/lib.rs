//! # qrdtm-core — quorum-replicated DTM with closed nesting & checkpointing
//!
//! A Rust implementation of **QR-DTM** (Dhoke, Ravindran, Zhang — "On
//! Closed Nesting and Checkpointing in Fault-Tolerant Distributed
//! Transactional Memory", IPDPS 2013) on a deterministic discrete-event
//! simulator:
//!
//! * **QR** — Zhang & Ravindran's quorum-based replication: every node holds
//!   a copy of every object; reads take the max-version copy from a read
//!   quorum; commits run two-phase commit across a write quorum; tree-quorum
//!   intersection yields 1-copy equivalence and fault tolerance.
//! * **Rqv** — read-quorum validation: each remote read piggybacks the
//!   transaction's data set, which every read-quorum node validates. This
//!   detects conflicts early and lets closed-nested commits and read-only
//!   commits complete *locally*, with zero messages.
//! * **QR-CN** — closed nesting: [`Tx::closed`] scopes abort and retry
//!   independently of their parents (partial abort); commit merges into the
//!   parent (Alg. 3).
//! * **QR-CHK** — checkpointing: automatic checkpoints every
//!   `chk_threshold` data-set objects; read-time conflicts roll back to the
//!   newest checkpoint excluding every invalid object and resume by
//!   deterministic replay.
//!
//! ## Quickstart
//!
//! ```
//! use qrdtm_core::{Cluster, DtmConfig, NestingMode, ObjectId, ObjVal};
//! use qrdtm_sim::NodeId;
//!
//! let cluster = Cluster::new(DtmConfig {
//!     mode: NestingMode::Closed,
//!     ..Default::default()
//! });
//! cluster.preload(ObjectId(1), ObjVal::Int(100));
//! cluster.preload(ObjectId(2), ObjVal::Int(0));
//!
//! let client = cluster.client(NodeId(3));
//! cluster.sim().spawn(async move {
//!     // Transfer 30 from account 1 to account 2, atomically.
//!     client.run(|tx| async move {
//!         let a = tx.read(ObjectId(1)).await?.expect_int();
//!         let b = tx.read(ObjectId(2)).await?.expect_int();
//!         tx.write(ObjectId(1), ObjVal::Int(a - 30)).await?;
//!         tx.write(ObjectId(2), ObjVal::Int(b + 30)).await?;
//!         Ok(())
//!     }).await;
//! });
//! cluster.sim().run();
//! assert_eq!(cluster.latest(ObjectId(1)).unwrap().1, ObjVal::Int(70));
//! assert_eq!(cluster.latest(ObjectId(2)).unwrap().1, ObjVal::Int(30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod engine;
pub use engine::repair;
pub mod history;
pub mod msg;
mod object;
pub mod pool;
pub mod protocol;
mod stats;
mod store;
mod txid;

pub use cluster::{Cluster, DtmConfig, InjectedBug, LatencySpec, OverloadConfig, QuorumView};
pub use engine::{
    crash_sim_only, recover_sim_only, spawn_detector, spawn_detector_on, Client, DetectorConfig,
    DetectorHandle, DurabilityConfig, Membership, Replay, Tx, Wal,
};
pub use history::{
    check_abort_targets, check_checkpoint_restores, CommitRecord, HistoryRecorder,
    StructuralViolation, Violation,
};
pub use msg::{Msg, ValEntry, ValidationKind};
pub use object::{
    IdHasher, IdMap, ObjVal, ObjectId, Replica, SkipNode, TableRow, TreeNode, Version,
};
pub use pool::Payload;
pub use protocol::{atomically, attempts, DtmProtocol, ProtocolStats, SimHosted};
pub use stats::DtmStats;
pub use store::{NodeStore, ReadOutcome};
pub use txid::{Abort, AbortTarget, NestingMode, TxId};
