//! Binary search tree (BST) micro-benchmark — used by the paper's failure
//! experiment (Fig. 10).
//!
//! A plain unbalanced BST over preallocated node objects, with tombstone
//! removal like the red-black tree but no rebalancing: inserts touch only
//! the attach path, so the workload is lighter and the conflict hot spot is
//! the nodes near the root.

use qrdtm_core::{Abort, ObjVal, ObjectId, TreeNode, Tx};

use crate::rbtree::TOMBSTONE;
use crate::zombie_guard;

/// Object layout of a BST instance.
#[derive(Clone, Copy, Debug)]
pub struct BstLayout {
    /// Root-pointer object id; key nodes follow at `base + 1 + key`.
    pub base: u64,
    /// Keys range over `0..key_space`.
    pub key_space: i64,
}

impl BstLayout {
    /// The root pointer cell.
    pub fn root_ptr(&self) -> ObjectId {
        ObjectId(self.base)
    }

    /// The preallocated node object for `key`.
    pub fn node(&self, key: i64) -> ObjectId {
        debug_assert!((0..self.key_space).contains(&key));
        ObjectId(self.base + 1 + key as u64)
    }

    /// Objects to preload.
    pub fn setup(&self) -> Vec<(ObjectId, ObjVal)> {
        let mut objs = vec![(self.root_ptr(), ObjVal::Ptr(None))];
        for k in 0..self.key_space {
            objs.push((
                self.node(k),
                ObjVal::Node(TreeNode {
                    key: k,
                    val: TOMBSTONE,
                    left: None,
                    right: None,
                    red: false,
                }),
            ));
        }
        objs
    }
}

/// Insert `key`; returns true if it was absent (including tombstone
/// revival).
pub async fn insert(tx: &Tx, t: &BstLayout, key: i64, val: i64) -> Result<bool, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut parent: Option<ObjectId> = None;
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = tx.read(oid).await?.expect_node().clone();
        if key == n.key {
            let was_tomb = n.val == TOMBSTONE;
            let mut n = n;
            n.val = val;
            tx.write(oid, ObjVal::Node(n)).await?;
            return Ok(was_tomb);
        }
        parent = Some(oid);
        cur = if key < n.key { n.left } else { n.right };
    }
    let z = t.node(key);
    tx.write(
        z,
        ObjVal::Node(TreeNode {
            key,
            val,
            left: None,
            right: None,
            red: false,
        }),
    )
    .await?;
    match parent {
        None => tx.write(t.root_ptr(), ObjVal::Ptr(Some(z))).await?,
        Some(p_oid) => {
            let mut p = tx.read(p_oid).await?.expect_node().clone();
            if key < p.key {
                p.left = Some(z);
            } else {
                p.right = Some(z);
            }
            tx.write(p_oid, ObjVal::Node(p)).await?;
        }
    }
    Ok(true)
}

/// Logically remove `key`; returns true if it was present.
pub async fn remove(tx: &Tx, t: &BstLayout, key: i64) -> Result<bool, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = tx.read(oid).await?.expect_node().clone();
        if key == n.key {
            if n.val == TOMBSTONE {
                return Ok(false);
            }
            let mut n = n;
            n.val = TOMBSTONE;
            tx.write(oid, ObjVal::Node(n)).await?;
            return Ok(true);
        }
        cur = if key < n.key { n.left } else { n.right };
    }
    Ok(false)
}

/// Membership test (read-only descent).
pub async fn contains(tx: &Tx, t: &BstLayout, key: i64) -> Result<bool, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = tx.read(oid).await?.expect_node().clone();
        if key == n.key {
            return Ok(n.val != TOMBSTONE);
        }
        cur = if key < n.key { n.left } else { n.right };
    }
    Ok(false)
}

/// Sorted live keys (iterative inorder walk; verification helper).
pub async fn collect_keys(tx: &Tx, t: &BstLayout) -> Result<Vec<i64>, Abort> {
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
    use crate::hashmap::mix;
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::NodeId;

    fn setup(keys: i64) -> (Cluster, BstLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let t = BstLayout {
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
