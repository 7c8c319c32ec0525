//! Structural invariants of every benchmark data structure under real
//! concurrency, in every nesting mode: whatever interleaving the protocol
//! serializes, the committed structure must be internally consistent.

use qr_dtm::prelude::*;
use qr_dtm::workloads::{bank, bst, hashmap, rbtree, skiplist, vacation};

fn cluster(mode: NestingMode, seed: u64) -> Cluster {
    Cluster::new(DtmConfig {
        nodes: 13,
        mode,
        seed,
        ..Default::default()
    })
}

/// Run `n_clients` concurrent clients, each performing `ops` random
/// mutations via `spawn`, then drain the simulator.
fn drive(c: &Cluster, n_clients: u32, spawner: impl Fn(qr_dtm::core::Client, u32)) {
    for node in 0..n_clients {
        spawner(c.client(NodeId(node)), node);
    }
    c.sim().run();
}

fn hashmap_under_contention(mode: NestingMode) {
    let c = cluster(mode, 17);
    let map = hashmap::HashmapLayout {
        base: 0,
        buckets: 4,
    };
    c.preload_all(map.setup());
    drive(&c, 8, |client, node| {
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for i in 0..6u64 {
                let key = (sim.rand_below(24)) as i64;
                if (node + i as u32).is_multiple_of(2) {
                    client
                        .run(|tx| async move { hashmap::put(&tx, &map, key).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { hashmap::remove(&tx, &map, key).await })
                        .await;
                }
            }
        });
    });
    // Committed buckets are sorted and duplicate-free.
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        auditor
            .run(|tx| async move {
                for b in 0..map.buckets {
                    let list = tx
                        .read(ObjectId(map.base + b))
                        .await?
                        .expect_list()
                        .to_vec();
                    let mut sorted = list.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(list, sorted, "{mode}: bucket {b} corrupt: {list:?}");
                }
                Ok(())
            })
            .await;
    });
    c.sim().run();
    assert_eq!(c.stats().commits, 8 * 6 + 1);
}

#[test]
fn hashmap_buckets_stay_sorted_flat() {
    hashmap_under_contention(NestingMode::Flat);
}

#[test]
fn hashmap_buckets_stay_sorted_closed() {
    hashmap_under_contention(NestingMode::Closed);
}

#[test]
fn hashmap_buckets_stay_sorted_checkpoint() {
    hashmap_under_contention(NestingMode::Checkpoint);
}

fn skiplist_under_contention(mode: NestingMode) {
    let c = cluster(mode, 23);
    let sl = skiplist::SkiplistLayout::new(0, 24);
    c.preload_all(sl.setup());
    drive(&c, 6, |client, node| {
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for i in 0..5u64 {
                let key = sim.rand_below(24) as i64;
                if (node + i as u32).is_multiple_of(3) {
                    client
                        .run(|tx| async move { skiplist::remove(&tx, &sl, key).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { skiplist::insert(&tx, &sl, key, key).await })
                        .await;
                }
            }
        });
    });
    // The bottom chain is sorted, and `contains` agrees with it for every
    // key in the key space.
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        auditor
            .run(|tx| async move {
                let keys = skiplist::collect_keys(&tx, &sl).await?;
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(keys, sorted, "{mode}: chain corrupt");
                for k in 0..24i64 {
                    let member = skiplist::contains(&tx, &sl, k).await?;
                    assert_eq!(member, keys.contains(&k), "{mode}: key {k} inconsistent");
                }
                Ok(())
            })
            .await;
    });
    c.sim().run();
}

#[test]
fn skiplist_chain_stays_sorted_flat() {
    skiplist_under_contention(NestingMode::Flat);
}

#[test]
fn skiplist_chain_stays_sorted_closed() {
    skiplist_under_contention(NestingMode::Closed);
}

#[test]
fn skiplist_chain_stays_sorted_checkpoint() {
    skiplist_under_contention(NestingMode::Checkpoint);
}

fn rbtree_under_contention(mode: NestingMode) {
    let c = cluster(mode, 29);
    let t = rbtree::RBTreeLayout {
        base: 0,
        key_space: 32,
    };
    c.preload_all(t.setup());
    drive(&c, 6, |client, node| {
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for i in 0..5u64 {
                let key = sim.rand_below(32) as i64;
                if (node + i as u32).is_multiple_of(3) {
                    client
                        .run(|tx| async move { rbtree::remove(&tx, &t, key).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { rbtree::insert(&tx, &t, key, key).await })
                        .await;
                }
            }
        });
    });
    // Red-black invariants hold on the committed tree (validate panics on
    // violation).
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        auditor
            .run(|tx| async move { rbtree::validate(&tx, &t).await })
            .await;
    });
    c.sim().run();
}

#[test]
fn rbtree_invariants_survive_contention_flat() {
    rbtree_under_contention(NestingMode::Flat);
}

#[test]
fn rbtree_invariants_survive_contention_closed() {
    rbtree_under_contention(NestingMode::Closed);
}

#[test]
fn rbtree_invariants_survive_contention_checkpoint() {
    rbtree_under_contention(NestingMode::Checkpoint);
}

fn bst_under_contention(mode: NestingMode) {
    let c = cluster(mode, 31);
    let t = bst::BstLayout {
        base: 0,
        key_space: 32,
    };
    c.preload_all(t.setup());
    drive(&c, 6, |client, node| {
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for i in 0..5u64 {
                let key = sim.rand_below(32) as i64;
                if (node + i as u32).is_multiple_of(3) {
                    client
                        .run(|tx| async move { bst::remove(&tx, &t, key).await })
                        .await;
                } else {
                    client
                        .run(|tx| async move { bst::insert(&tx, &t, key, key).await })
                        .await;
                }
            }
        });
    });
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        auditor
            .run(|tx| async move {
                let keys = bst::collect_keys(&tx, &t).await?;
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(keys, sorted, "{mode}: inorder walk not sorted");
                Ok(())
            })
            .await;
    });
    c.sim().run();
}

#[test]
fn bst_inorder_stays_sorted_flat() {
    bst_under_contention(NestingMode::Flat);
}

#[test]
fn bst_inorder_stays_sorted_closed() {
    bst_under_contention(NestingMode::Closed);
}

#[test]
fn bst_inorder_stays_sorted_checkpoint() {
    bst_under_contention(NestingMode::Checkpoint);
}

fn vacation_conserves(mode: NestingMode) {
    let c = cluster(mode, 37);
    let v = vacation::VacationLayout {
        base: 0,
        rows: 6,
        customers: 6,
        capacity: 3,
    };
    c.preload_all(v.setup());
    drive(&c, 6, |client, node| {
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for trip in 0..3u64 {
                let picks = [
                    sim.rand_below(v.rows),
                    sim.rand_below(v.rows),
                    sim.rand_below(v.rows),
                ];
                let customer = u64::from(node);
                client
                    .run(|tx| async move {
                        vacation::make_reservation(&tx, &v, customer, picks).await
                    })
                    .await;
                if trip == 2 && node.is_multiple_of(2) {
                    client
                        .run(|tx| async move { vacation::delete_customer(&tx, &v, customer).await })
                        .await;
                }
            }
        });
    });
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        auditor
            .run(|tx| async move {
                let used = vacation::total_used(&tx, &v).await?;
                let reserved = vacation::total_reserved(&tx, &v).await?;
                assert_eq!(used, reserved, "{mode}: units leaked");
                assert!(used >= 0);
                // No row over capacity.
                for table in 0..3 {
                    for i in 0..v.rows {
                        let rows = tx.read(v.row(table, i)).await?;
                        let row = &rows.expect_table()[0];
                        assert!(
                            row.used <= row.total,
                            "{mode}: overbooked ({table},{i}): {row:?}"
                        );
                    }
                }
                Ok(())
            })
            .await;
    });
    c.sim().run();
}

#[test]
fn vacation_conserves_units_flat() {
    vacation_conserves(NestingMode::Flat);
}

#[test]
fn vacation_conserves_units_closed() {
    vacation_conserves(NestingMode::Closed);
}

#[test]
fn vacation_conserves_units_checkpoint() {
    vacation_conserves(NestingMode::Checkpoint);
}

/// Bank audit transactions interleaved with transfers always see a
/// conserved total (serializability of read-only snapshots).
fn bank_audits_see_conserved_totals(mode: NestingMode) {
    let c = cluster(mode, 41);
    let layout = bank::BankLayout {
        base: 0,
        accounts: 5,
    };
    c.preload_all(layout.setup(100));
    for node in 0..5u32 {
        let client = c.client(NodeId(node));
        let sim = c.sim().clone();
        c.sim().spawn(async move {
            for _ in 0..4 {
                let from = sim.rand_below(5);
                let to = (from + 1) % 5;
                client
                    .run(|tx| async move { bank::transfer(&tx, &layout, from, to, 9).await })
                    .await;
            }
        });
    }
    // A full-balance auditor runs concurrently and must always read 500.
    let auditor = c.client(NodeId(9));
    c.sim().spawn(async move {
        for _ in 0..6 {
            let total = auditor
                .run(|tx| async move { bank::total_balance(&tx, &layout).await })
                .await;
            assert_eq!(total, 500, "{mode}: audit saw a torn state");
        }
    });
    c.sim().run();
}

#[test]
fn bank_audits_conserved_flat() {
    bank_audits_see_conserved_totals(NestingMode::Flat);
}

#[test]
fn bank_audits_conserved_closed() {
    bank_audits_see_conserved_totals(NestingMode::Closed);
}

#[test]
fn bank_audits_conserved_checkpoint() {
    bank_audits_see_conserved_totals(NestingMode::Checkpoint);
}
