//! Binary search tree (BST) micro-benchmark — used by the paper's failure
//! experiment (Fig. 10).
//!
//! The red-black tree of [`crate::rbtree`] without its fixup: the same
//! [`TreeLayout`], lookup and removal, and an insert that links a black
//! leaf and stops, so it touches only the attach path. The workload is
//! lighter than RBTree's and its conflict hot spot is the nodes near the
//! root.

use qrdtm_core::{Abort, ObjectId, Tx};

use crate::rbtree::{place, TreeLayout, TOMBSTONE};
use crate::zombie_guard;

/// Insert `key` with payload `val`; returns true if it was absent
/// (including tombstone revival).
pub async fn insert(tx: &Tx, t: &TreeLayout, key: i64, val: i64) -> Result<bool, Abort> {
    Ok(place(tx, t, key, val, false, None).await?.unwrap_or(true))
}

/// Sorted live keys (iterative inorder walk; verification helper).
pub async fn collect_keys(tx: &Tx, t: &TreeLayout) -> Result<Vec<i64>, Abort> {
    let mut out = Vec::new();
    let mut stack: Vec<ObjectId> = Vec::new();
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut visited = 0usize;
    loop {
        while let Some(oid) = cur {
            visited += 1;
            zombie_guard(tx, visited, 2 * t.key_space as usize + 4)?;
            stack.push(oid);
            cur = tx.read(oid).await?.expect_node().left;
        }
        let Some(oid) = stack.pop() else { break };
        let n = tx.read(oid).await?.expect_node().clone();
        if n.val != TOMBSTONE {
            out.push(n.key);
        }
        cur = n.right;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbtree::{contains, remove};
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::{mix, NodeId};

    fn setup(keys: i64) -> (Cluster, TreeLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let t = TreeLayout {
            base: 0,
            key_space: keys,
        };
        c.preload_all(t.setup());
        (c, t)
    }

    #[test]
    fn matches_oracle_and_inorder_is_sorted() {
        let (c, t) = setup(24);
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            let mut oracle = std::collections::BTreeSet::new();
            for step in 0..180u64 {
                let key = (mix(step.wrapping_mul(7)) % 24) as i64;
                match step % 3 {
                    0 => assert_eq!(
                        client
                            .run(|tx| async move { insert(&tx, &t, key, key).await })
                            .await,
                        oracle.insert(key),
                        "step {step}"
                    ),
                    1 => assert_eq!(
                        client
                            .run(|tx| async move { remove(&tx, &t, key).await })
                            .await,
                        oracle.remove(&key),
                        "step {step}"
                    ),
                    _ => assert_eq!(
                        client
                            .run(|tx| async move { contains(&tx, &t, key).await })
                            .await,
                        oracle.contains(&key),
                        "step {step}"
                    ),
                }
            }
            let keys = client
                .run(|tx| async move { collect_keys(&tx, &t).await })
                .await;
            assert_eq!(keys, oracle.iter().copied().collect::<Vec<_>>());
            // No fixup ever ran: every node, linked or not, is still black.
            let red = client
                .run(|tx| async move {
                    let mut red = Vec::new();
                    for k in 0..24 {
                        if tx.read(t.node(k)).await?.expect_node().red {
                            red.push(k);
                        }
                    }
                    Ok(red)
                })
                .await;
            assert_eq!(red, Vec::<i64>::new(), "red BST nodes");
        });
        c.sim().run();
    }

    #[test]
    fn empty_tree_behaviour() {
        let (c, t) = setup(4);
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            client
                .run(|tx| async move {
                    assert!(!contains(&tx, &t, 1).await?);
                    assert!(!remove(&tx, &t, 1).await?);
                    assert_eq!(collect_keys(&tx, &t).await?, Vec::<i64>::new());
                    Ok(())
                })
                .await;
        });
        c.sim().run();
    }
}
