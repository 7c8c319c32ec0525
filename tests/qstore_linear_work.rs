//! Durable Q-Store must do work proportional to the commits it processes,
//! not to the history behind them: twice the commits may allocate about
//! twice the bytes. A replica that copies its whole decision history at
//! every snapshot fails this with a ratio that grows with the run.
//!
//! The file is its own test binary because it installs the counting
//! allocator of `tests/support/counting_alloc.rs`. No wall clock is read:
//! bytes allocated are a function of the seed.

use std::rc::Rc;

use qr_dtm::core::{DurabilityConfig, ObjVal, ObjectId};
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};
use qr_dtm::sim::NodeId;
use qr_dtm::workloads::protocol_bank::transfer;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::Allocated;

const NODES: usize = 10;
const CLIENTS_PER_NODE: u64 = 2;
const ACCOUNTS: u64 = 8;

/// The hot-account bank: two clients per node, each running `transfers`
/// transfers between neighbouring accounts of the eight, to completion.
/// Returns `(commits, bytes allocated)`.
fn hot_bank(transfers: u64) -> (u64, u64) {
    let before = Allocated::now();
    let c = Rc::new(QStoreCluster::new(QStoreConfig {
        nodes: NODES,
        seed: 7,
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    }));
    for i in 0..ACCOUNTS {
        c.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    for client in 0..NODES as u64 * CLIENTS_PER_NODE {
        let c2 = Rc::clone(&c);
        let node = NodeId((client / CLIENTS_PER_NODE) as u32);
        c.sim().spawn(async move {
            for i in 0..transfers {
                let (from, to) = (
                    ObjectId((client + i) % ACCOUNTS),
                    ObjectId((client + i + 1) % ACCOUNTS),
                );
                transfer(&*c2, node, from, to, 1).await;
            }
        });
    }
    c.sim().run();
    let commits = c.stats().commits;
    let total: i64 = (0..ACCOUNTS)
        .map(|i| c.latest(ObjectId(i)).unwrap().1.expect_int())
        .sum();
    assert_eq!(total, ACCOUNTS as i64 * 1_000, "money is conserved");
    drop(c);
    (commits, Allocated::since(before).bytes)
}

#[test]
fn twice_the_commits_allocate_about_twice_the_bytes() {
    let per_client = 50;
    let (n, bytes_n) = hot_bank(per_client);
    let (n2, bytes_2n) = hot_bank(2 * per_client);
    assert_eq!(n, NODES as u64 * CLIENTS_PER_NODE * per_client);
    assert_eq!(n2, 2 * n);
    let growth = bytes_2n as f64 / bytes_n as f64;
    assert!(
        growth <= 2.2,
        "{n} commits allocated {bytes_n} B, {n2} commits {bytes_2n} B: \
         x{growth:.2} for twice the work"
    );
}
