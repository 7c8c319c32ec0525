//! # qrdtm-workloads — the paper's benchmarks as transactional programs
//!
//! Micro-benchmarks (Hashmap, Skiplist, Red-black tree, BST) and STAMP
//! Vacation implemented over the QR-DTM transaction API, and Bank in
//! [`protocol_bank`], written once over any [`qrdtm_core::DtmProtocol`];
//! plus the [`driver`] that runs a parameterized workload on a cluster and
//! reports throughput, aborts, and message counts — the three quantities
//! the paper's evaluation plots. Each driver ([`run`], [`run_bank`],
//! [`run_open_loop`]) shuts down the simulation it ran once its results
//! are read, since its clients hold the cluster.
//!
//! Data structures preallocate one object per key (tower heights and node
//! ids are pure functions of the key), so insert/remove transactionally
//! link and unlink them. The two trees are one: BST ([`bst`]) is the
//! red-black tree ([`rbtree`]) without its insertion fixup, sharing its
//! layout, lookup and tombstone removal. Each data structure is
//! oracle-tested against `std` collections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    run_open_loop, spawn_open_loop, LoadControl, LoadTallies, OpenLoopSpec, RateSchedule,
};
pub use protocol_bank::{run_bank, BankRunResult, BankSpec};

use qrdtm_core::{Abort, Tx};

/// The *zombie guard* of every pointer-chasing traversal: under flat QR a
/// transaction may observe a torn snapshot (reads are only validated at
/// commit), and a traversal over one can cycle through cached nodes
/// forever. `steps` past `bound`, a length no consistent snapshot needs,
/// proves the snapshot torn and aborts the scope ([`Tx::abort_here`]).
fn zombie_guard(tx: &Tx, steps: usize, bound: usize) -> Result<(), Abort> {
    if steps > bound {
        return Err(tx.abort_here());
    }
    Ok(())
}
