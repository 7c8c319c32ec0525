//! # qrdtm-baselines — the paper's comparator DTM protocols
//!
//! Section VI-D of the paper compares QR-DTM against two other distributed
//! transactional memories on the Bank benchmark:
//!
//! * [`tfa`] — HyFlow's **Transaction Forwarding Algorithm**: single object
//!   copies at hashed home nodes, unicast acquisition (~5 ms RTT in the
//!   testbed vs QR's ~30 ms multicast), asynchronous node clocks with
//!   forwarding-time revalidation. Fastest — and unable to survive a node
//!   failure.
//! * [`decent`] — a **Decent-STM** analogue: fully replicated version
//!   histories, snapshot reads from a replica fan-out, decentralized
//!   per-object commit consensus. Fault-tolerant like QR but with a heavier
//!   snapshot/commit path.
//!
//! Both clusters implement `qrdtm_core`'s `DtmProtocol` trait, so the
//! Fig. 9 harness sweeps four protocols — QR-DTM, HyFlow, Decent-STM and
//! Q-Store — through the single generic bank driver in
//! `qrdtm_workloads::protocol_bank`. Neither keeps a membership view, so
//! detector mode (`ChaosSpec::detector`) has nothing to watch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decent;
pub mod tfa;

pub use decent::{DecentCluster, DecentConfig, DecentTxHandle};
pub use tfa::{TfaCluster, TfaConfig, TfaTxHandle};
