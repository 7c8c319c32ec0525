//! # qrdtm-workloads — the paper's benchmarks as transactional programs
//!
//! Micro-benchmarks (Hashmap, Skiplist, Red-black tree, BST) and
//! macro-benchmarks (Bank, STAMP Vacation) implemented over the QR-DTM
//! transaction API, plus the [`driver`] that runs a parameterized workload
//! on a cluster and reports throughput, aborts, and message counts — the
//! three quantities the paper's evaluation plots.
//!
//! Data structures preallocate one object per key (tower heights and node
//! ids are pure functions of the key), so insert/remove transactionally
//! link and unlink them; removal in the trees is by tombstone. Each data
//! structure is oracle-tested against `std` collections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod bst;
pub mod driver;
pub mod hashmap;
pub mod open_loop;
pub mod protocol_bank;
pub mod rbtree;
pub mod skiplist;
pub mod vacation;

pub use driver::{run, Benchmark, RunResult, RunSpec, WorkloadParams};
pub use open_loop::{
    run_open_loop, spawn_open_loop, LoadControl, LoadTallies, OpenLoopResult, OpenLoopSpec,
    RateSchedule,
};
pub use protocol_bank::{
    run_bank, run_decent_bank, run_qr_bank, run_qstore_bank, run_tfa_bank, BankRunResult, BankSpec,
};
