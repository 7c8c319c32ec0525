//! Property-based tests over the whole stack: random operation sequences,
//! random seeds, random cluster shapes — the serializability and
//! equivalence invariants must hold for all of them.

use proptest::prelude::*;
use qr_dtm::prelude::*;
use qr_dtm::workloads::{hashmap, rbtree, skiplist};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Copy, Debug)]
enum MapOp {
    Insert(i64),
    Remove(i64),
    Contains(i64),
}

fn map_ops(keys: i64, len: usize) -> impl Strategy<Value = Vec<MapOp>> {
    proptest::collection::vec(
        (0..3u8, 0..keys).prop_map(|(kind, k)| match kind {
            0 => MapOp::Insert(k),
            1 => MapOp::Remove(k),
            _ => MapOp::Contains(k),
        }),
        1..len,
    )
}

fn mode_strategy() -> impl Strategy<Value = NestingMode> {
    prop_oneof![
        Just(NestingMode::Flat),
        Just(NestingMode::Closed),
        Just(NestingMode::Checkpoint),
    ]
}

fn cluster(mode: NestingMode, seed: u64, nodes: usize) -> Cluster {
    Cluster::new(DtmConfig {
        nodes,
        mode,
        seed,
        ..Default::default()
    })
}

proptest! {
    // Each case spins up a full simulated cluster, so keep the counts sane.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential transactional ops on the distributed hashmap behave
    /// exactly like a BTreeSet, regardless of mode, seed, or cluster size.
    #[test]
    fn hashmap_refines_btreeset(
        ops in map_ops(32, 40),
        mode in mode_strategy(),
        seed in 0u64..1000,
        nodes in 4usize..20,
    ) {
        let c = cluster(mode, seed, nodes);
        let map = hashmap::HashmapLayout { base: 0, buckets: 4 };
        c.preload_all(map.setup());
        let client = c.client(NodeId(0));
        let results = Rc::new(RefCell::new(Vec::new()));
        let results2 = Rc::clone(&results);
        let ops2 = ops.clone();
        c.sim().spawn(async move {
            for op in ops2 {
                let r = match op {
                    MapOp::Insert(k) => client.run(|tx| async move { hashmap::put(&tx, &map, k).await }).await,
                    MapOp::Remove(k) => client.run(|tx| async move { hashmap::remove(&tx, &map, k).await }).await,
                    MapOp::Contains(k) => client.run(|tx| async move { hashmap::get(&tx, &map, k).await }).await,
                };
                results2.borrow_mut().push(r);
            }
        });
        c.sim().run();
        let mut oracle = std::collections::BTreeSet::new();
        for (op, got) in ops.iter().zip(results.borrow().iter()) {
            let want = match *op {
                MapOp::Insert(k) => oracle.insert(k),
                MapOp::Remove(k) => oracle.remove(&k),
                MapOp::Contains(k) => oracle.contains(&k),
            };
            prop_assert_eq!(*got, want, "{:?} diverged", op);
        }
    }

    /// Same refinement for the skiplist, plus the sorted-chain invariant.
    #[test]
    fn skiplist_refines_btreeset(
        ops in map_ops(24, 30),
        mode in mode_strategy(),
        seed in 0u64..1000,
    ) {
        let c = cluster(mode, seed, 13);
        let sl = skiplist::SkiplistLayout::new(0, 24);
        c.preload_all(sl.setup());
        let client = c.client(NodeId(0));
        let results = Rc::new(RefCell::new(Vec::new()));
        let results2 = Rc::clone(&results);
        let ops2 = ops.clone();
        c.sim().spawn(async move {
            for op in ops2 {
                let r = match op {
                    MapOp::Insert(k) => client.run(|tx| async move { skiplist::insert(&tx, &sl, k, k).await }).await,
                    MapOp::Remove(k) => client.run(|tx| async move { skiplist::remove(&tx, &sl, k).await }).await,
                    MapOp::Contains(k) => client.run(|tx| async move { skiplist::contains(&tx, &sl, k).await }).await,
                };
                results2.borrow_mut().push(r);
            }
            let keys = client.run(|tx| async move { skiplist::collect_keys(&tx, &sl).await }).await;
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "chain must stay sorted");
        });
        c.sim().run();
        let mut oracle = std::collections::BTreeSet::new();
        for (op, got) in ops.iter().zip(results.borrow().iter()) {
            let want = match *op {
                MapOp::Insert(k) => oracle.insert(k),
                MapOp::Remove(k) => oracle.remove(&k),
                MapOp::Contains(k) => oracle.contains(&k),
            };
            prop_assert_eq!(*got, want, "{:?} diverged", op);
        }
    }

    /// The red-black tree refines BTreeSet and keeps its invariants for
    /// arbitrary op sequences (rotations included).
    #[test]
    fn rbtree_refines_btreeset(
        ops in map_ops(24, 30),
        seed in 0u64..1000,
    ) {
        let c = cluster(NestingMode::Closed, seed, 13);
        let t = rbtree::TreeLayout { base: 0, key_space: 24 };
        c.preload_all(t.setup());
        let client = c.client(NodeId(0));
        let results = Rc::new(RefCell::new(Vec::new()));
        let results2 = Rc::clone(&results);
        let ops2 = ops.clone();
        c.sim().spawn(async move {
            for op in ops2 {
                let r = match op {
                    MapOp::Insert(k) => client.run(|tx| async move { rbtree::insert(&tx, &t, k, k).await }).await,
                    MapOp::Remove(k) => client.run(|tx| async move { rbtree::remove(&tx, &t, k).await }).await,
                    MapOp::Contains(k) => client.run(|tx| async move { rbtree::contains(&tx, &t, k).await }).await,
                };
                results2.borrow_mut().push(r);
            }
            // validate() panics on any red-black violation.
            client.run(|tx| async move { rbtree::validate(&tx, &t).await }).await;
        });
        c.sim().run();
        let mut oracle = std::collections::BTreeSet::new();
        for (op, got) in ops.iter().zip(results.borrow().iter()) {
            let want = match *op {
                MapOp::Insert(k) => oracle.insert(k),
                MapOp::Remove(k) => oracle.remove(&k),
                MapOp::Contains(k) => oracle.contains(&k),
            };
            prop_assert_eq!(*got, want, "{:?} diverged", op);
        }
    }

    /// Concurrent increments never lose updates, for any mode, seed,
    /// cluster size, and client count.
    #[test]
    fn concurrent_counter_never_loses_updates(
        mode in mode_strategy(),
        seed in 0u64..1000,
        nodes in 4usize..16,
        clients in 2u32..6,
        per_client in 1i64..4,
    ) {
        let c = cluster(mode, seed, nodes);
        let counter = ObjectId(1);
        c.preload(counter, ObjVal::Int(0));
        for node in 0..clients.min(nodes as u32) {
            let client = c.client(NodeId(node));
            c.sim().spawn(async move {
                for _ in 0..per_client {
                    client
                        .run(|tx| async move {
                            let v = tx.read(counter).await?.expect_int();
                            tx.write(counter, ObjVal::Int(v + 1)).await?;
                            Ok(())
                        })
                        .await;
                }
            });
        }
        c.sim().run();
        let expected = i64::from(clients.min(nodes as u32)) * per_client;
        prop_assert_eq!(c.latest(counter).unwrap().1, ObjVal::Int(expected));
        // Locks are all released at quiescence.
        for n in 0..nodes as u32 {
            let (v, _) = c.peek(NodeId(n), counter).unwrap();
            prop_assert!(v <= qr_dtm::core::Version(expected as u64 + 1));
        }
    }

    /// Determinism: identical (config, workload) pairs produce identical
    /// statistics and message counts, whatever the parameters.
    #[test]
    fn same_seed_same_history(
        mode in mode_strategy(),
        seed in 0u64..1000,
        clients in 2u32..5,
    ) {
        let run_once = || {
            let c = cluster(mode, seed, 13);
            c.preload(ObjectId(1), ObjVal::Int(0));
            for node in 0..clients {
                let client = c.client(NodeId(node));
                c.sim().spawn(async move {
                    for _ in 0..3 {
                        client
                            .run(|tx| async move {
                                let v = tx.read(ObjectId(1)).await?.expect_int();
                                tx.write(ObjectId(1), ObjVal::Int(v + 1)).await?;
                                Ok(())
                            })
                            .await;
                    }
                });
            }
            c.sim().run();
            (c.stats(), c.sim().metrics().sent_total, c.sim().now())
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }
}
