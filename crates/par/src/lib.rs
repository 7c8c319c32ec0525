//! # qrdtm-par — a multi-threaded TL2 backend for the protocol surface
//!
//! Everything else in this workspace runs on the deterministic
//! single-threaded simulator; this crate shares only the transactional
//! interface with it: a real multi-threaded in-process software
//! transactional memory in the style of **TL2** (Dice, Shalev, Shavit,
//! DISC 2006), sitting behind the same [`DtmProtocol`] trait the
//! simulator protocols implement. Real OS threads run the generic
//! workload bodies and exchange commit events with a collector thread
//! over [`std::sync::mpsc`] channels.
//!
//! * Striped per-object version locks (1024 `AtomicU64` words, lock bit +
//!   write-version) and a global version clock implement TL2's
//!   read-version/write-version validation.
//! * The object table additionally keeps **exact per-object version
//!   chains** in the simulator's [`Version`] space, so every commit emits
//!   a [`CommitRecord`] and the full multi-threaded history is audited by
//!   the same [`qrdtm_core::history::verify`] serializability checker
//!   the simulator oracle uses — that is the differential-testing loop.
//! * [`run_par_bank`] drives the shared bank workload
//!   (`qrdtm-workloads::protocol_bank::{transfer, audit}`) on N threads
//!   and reports what it committed and whether the audited history and
//!   the balances check out (the `benchmark/` package times the backend).
//!
//! [`DtmProtocol`]: qrdtm_core::DtmProtocol
//! [`Version`]: qrdtm_core::Version
//! [`CommitRecord`]: qrdtm_core::CommitRecord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod tl2;

pub use exec::{block_on, run_par_bank, ParBankResult, ParBankSpec};
pub use tl2::{ParBackend, ParStm, ParTx};
