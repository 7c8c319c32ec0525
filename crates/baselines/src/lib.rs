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
//! Fig. 9 harness sweeps all three protocols through the single generic
//! bank driver in `qrdtm_workloads::protocol_bank`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decent;
pub mod tfa;

pub use decent::{DecentCluster, DecentConfig, DecentTxHandle};
pub use tfa::{TfaCluster, TfaConfig, TfaTxHandle};

/// SplitMix64 finalizer used for home-node placement.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
