//! Red-black tree (RBTree) micro-benchmark.
//!
//! A transactional red-black tree with one object per node plus a root
//! pointer object. Insertion performs the full CLRS recolor/rotation
//! fixup — the writes it spreads along the root path are exactly what gives
//! RBTree its contention profile in the paper. Removal uses tombstones
//! (`val = TOMBSTONE`) rather than structural deletion; the read/write-set
//! shapes the benchmark measures are unchanged (see DESIGN.md "Substitutions").

use qrdtm_core::{Abort, ObjVal, ObjectId, TreeNode, Tx};

use crate::zombie_guard;

/// Marker payload for logically deleted keys.
pub const TOMBSTONE: i64 = i64::MIN;

/// Object layout of a red-black tree instance.
#[derive(Clone, Copy, Debug)]
pub struct RBTreeLayout {
    /// Root-pointer object id; key nodes follow at `base + 1 + key`.
    pub base: u64,
    /// Keys range over `0..key_space`.
    pub key_space: i64,
}

impl RBTreeLayout {
    /// The root pointer cell.
    pub fn root_ptr(&self) -> ObjectId {
        ObjectId(self.base)
    }

    /// The preallocated node object for `key`.
    pub fn node(&self, key: i64) -> ObjectId {
        debug_assert!((0..self.key_space).contains(&key));
        ObjectId(self.base + 1 + key as u64)
    }

    /// Objects to preload: an empty root pointer and detached nodes.
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

async fn get_node(tx: &Tx, oid: ObjectId) -> Result<TreeNode, Abort> {
    Ok(tx.read(oid).await?.expect_node().clone())
}

async fn put_node(tx: &Tx, oid: ObjectId, n: TreeNode) -> Result<(), Abort> {
    tx.write(oid, ObjVal::Node(n)).await
}

/// Point `parent`'s link that used to address `from` at `to`; `parent =
/// None` means the root pointer.
async fn set_child(
    tx: &Tx,
    t: &RBTreeLayout,
    parent: Option<ObjectId>,
    from: ObjectId,
    to: Option<ObjectId>,
) -> Result<(), Abort> {
    match parent {
        None => tx.write(t.root_ptr(), ObjVal::Ptr(to)).await,
        Some(p_oid) => {
            let mut p = get_node(tx, p_oid).await?;
            if p.left == Some(from) {
                p.left = to;
            } else {
                debug_assert_eq!(p.right, Some(from));
                p.right = to;
            }
            put_node(tx, p_oid, p).await
        }
    }
}

async fn rotate_left(
    tx: &Tx,
    t: &RBTreeLayout,
    x_oid: ObjectId,
    parent: Option<ObjectId>,
) -> Result<(), Abort> {
    let mut x = get_node(tx, x_oid).await?;
    let y_oid = x.right.expect("rotate_left requires a right child");
    let mut y = get_node(tx, y_oid).await?;
    x.right = y.left;
    y.left = Some(x_oid);
    put_node(tx, x_oid, x).await?;
    put_node(tx, y_oid, y).await?;
    set_child(tx, t, parent, x_oid, Some(y_oid)).await
}

async fn rotate_right(
    tx: &Tx,
    t: &RBTreeLayout,
    x_oid: ObjectId,
    parent: Option<ObjectId>,
) -> Result<(), Abort> {
    let mut x = get_node(tx, x_oid).await?;
    let y_oid = x.left.expect("rotate_right requires a left child");
    let mut y = get_node(tx, y_oid).await?;
    x.left = y.right;
    y.right = Some(x_oid);
    put_node(tx, x_oid, x).await?;
    put_node(tx, y_oid, y).await?;
    set_child(tx, t, parent, x_oid, Some(y_oid)).await
}

async fn set_red(tx: &Tx, oid: ObjectId, red: bool) -> Result<(), Abort> {
    let mut n = get_node(tx, oid).await?;
    if n.red != red {
        n.red = red;
        put_node(tx, oid, n).await?;
    }
    Ok(())
}

/// Insert `key` with payload `val`; returns true if the key was absent
/// (including reviving a tombstone).
pub async fn insert(tx: &Tx, t: &RBTreeLayout, key: i64, val: i64) -> Result<bool, Abort> {
    let root = tx.read(t.root_ptr()).await?.expect_ptr();
    let Some(mut cur) = root else {
        // Empty tree: the new node becomes the black root.
        put_node(
            tx,
            t.node(key),
            TreeNode {
                key,
                val,
                left: None,
                right: None,
                red: false,
            },
        )
        .await?;
        tx.write(t.root_ptr(), ObjVal::Ptr(Some(t.node(key))))
            .await?;
        return Ok(true);
    };
    let mut path: Vec<ObjectId> = Vec::new();
    loop {
        zombie_guard(tx, path.len(), t.key_space as usize + 2)?;
        let n = get_node(tx, cur).await?;
        if key == n.key {
            let was_tomb = n.val == TOMBSTONE;
            let mut n = n;
            n.val = val;
            put_node(tx, cur, n).await?;
            return Ok(was_tomb);
        }
        path.push(cur);
        let child = if key < n.key { n.left } else { n.right };
        match child {
            Some(c) => cur = c,
            None => {
                let z = t.node(key);
                put_node(
                    tx,
                    z,
                    TreeNode {
                        key,
                        val,
                        left: None,
                        right: None,
                        red: true,
                    },
                )
                .await?;
                let mut parent = get_node(tx, *path.last().expect("non-empty path")).await?;
                if key < parent.key {
                    parent.left = Some(z);
                } else {
                    parent.right = Some(z);
                }
                put_node(tx, *path.last().unwrap(), parent).await?;
                fixup(tx, t, z, path).await?;
                return Ok(true);
            }
        }
    }
}

/// CLRS insertion fixup driven by the recorded root path (`path.last()` is
/// `z`'s parent).
async fn fixup(
    tx: &Tx,
    t: &RBTreeLayout,
    mut z: ObjectId,
    mut path: Vec<ObjectId>,
) -> Result<(), Abort> {
    loop {
        let Some(&p_oid) = path.last() else {
            // z climbed to the root: roots are black.
            set_red(tx, z, false).await?;
            return Ok(());
        };
        let p = get_node(tx, p_oid).await?;
        if !p.red {
            return Ok(());
        }
        // A red parent is never the root, so a grandparent exists.
        let g_oid = path[path.len() - 2];
        let g = get_node(tx, g_oid).await?;
        let parent_is_left = g.left == Some(p_oid);
        let u_oid = if parent_is_left { g.right } else { g.left };
        let u_red = match u_oid {
            Some(u) => get_node(tx, u).await?.red,
            None => false,
        };
        if u_red {
            // Case 1: recolor and continue from the grandparent.
            set_red(tx, p_oid, false).await?;
            set_red(tx, u_oid.unwrap(), false).await?;
            set_red(tx, g_oid, true).await?;
            z = g_oid;
            path.truncate(path.len() - 2);
            continue;
        }
        let ggp = if path.len() >= 3 {
            Some(path[path.len() - 3])
        } else {
            None
        };
        if parent_is_left {
            let z_is_right = get_node(tx, p_oid).await?.right == Some(z);
            // Case 2: inner child straightens into an outer child.
            let top = if z_is_right {
                rotate_left(tx, t, p_oid, Some(g_oid)).await?;
                z
            } else {
                p_oid
            };
            // Case 3: recolor and rotate the grandparent down.
            set_red(tx, top, false).await?;
            set_red(tx, g_oid, true).await?;
            rotate_right(tx, t, g_oid, ggp).await?;
        } else {
            let z_is_left = get_node(tx, p_oid).await?.left == Some(z);
            let top = if z_is_left {
                rotate_right(tx, t, p_oid, Some(g_oid)).await?;
                z
            } else {
                p_oid
            };
            set_red(tx, top, false).await?;
            set_red(tx, g_oid, true).await?;
            rotate_left(tx, t, g_oid, ggp).await?;
        }
        return Ok(());
    }
}

/// Logically remove `key`; returns true if it was present.
pub async fn remove(tx: &Tx, t: &RBTreeLayout, key: i64) -> Result<bool, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = get_node(tx, oid).await?;
        if key == n.key {
            if n.val == TOMBSTONE {
                return Ok(false);
            }
            let mut n = n;
            n.val = TOMBSTONE;
            put_node(tx, oid, n).await?;
            return Ok(true);
        }
        cur = if key < n.key { n.left } else { n.right };
    }
    Ok(false)
}

/// Membership test (read-only descent).
pub async fn contains(tx: &Tx, t: &RBTreeLayout, key: i64) -> Result<bool, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = get_node(tx, oid).await?;
        if key == n.key {
            return Ok(n.val != TOMBSTONE);
        }
        cur = if key < n.key { n.left } else { n.right };
    }
    Ok(false)
}

/// Walk the whole tree checking red-black invariants; returns the sorted
/// live (non-tombstone) keys. Panics on an invariant violation — this is a
/// test/verification helper.
pub async fn validate(tx: &Tx, t: &RBTreeLayout) -> Result<Vec<i64>, Abort> {
    let root = tx.read(t.root_ptr()).await?.expect_ptr();
    if let Some(r) = root {
        assert!(!get_node(tx, r).await?.red, "root must be black");
    }
    // Iterative DFS carrying (node, blacks-above); leaves record their
    // black height, which must be uniform; red nodes must have black
    // children; an inorder walk must be sorted.
    let mut stack: Vec<(Option<ObjectId>, u32, bool)> = vec![(root, 0, false)];
    let mut leaf_bh: Option<u32> = None;
    let mut keys = Vec::new();
    let mut visited = 0usize;
    while let Some((slot, blacks, parent_red)) = stack.pop() {
        visited += 1;
        zombie_guard(tx, visited, 4 * t.key_space as usize + 8)?;
        match slot {
            None => match leaf_bh {
                None => leaf_bh = Some(blacks),
                Some(bh) => assert_eq!(bh, blacks, "uneven black height"),
            },
            Some(oid) => {
                let n = get_node(tx, oid).await?;
                assert!(!(parent_red && n.red), "red-red violation at key {}", n.key);
                if n.val != TOMBSTONE {
                    keys.push(n.key);
                }
                let b = blacks + u32::from(!n.red);
                stack.push((n.left, b, n.red));
                stack.push((n.right, b, n.red));
            }
        }
    }
    keys.sort_unstable();
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashmap::mix;
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::NodeId;

    fn setup(keys: i64) -> (Cluster, RBTreeLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let t = RBTreeLayout {
            base: 0,
            key_space: keys,
        };
        c.preload_all(t.setup());
        (c, t)
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        // Ascending inserts are the classic worst case for an unbalanced
        // tree; the fixup must keep the black heights uniform.
        let (c, t) = setup(32);
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            for k in 0..32i64 {
                client
                    .run(|tx| async move { insert(&tx, &t, k, k).await })
                    .await;
            }
            let keys = client
                .run(|tx| async move { validate(&tx, &t).await })
                .await;
            assert_eq!(keys, (0..32).collect::<Vec<_>>());
        });
        c.sim().run();
    }

    #[test]
    fn matches_btreeset_oracle_with_invariants() {
        let (c, t) = setup(48);
        let client = c.client(NodeId(4));
        c.sim().spawn(async move {
            let mut oracle = std::collections::BTreeSet::new();
            for step in 0..260u64 {
                let key = (mix(step.wrapping_mul(31)) % 48) as i64;
                match step % 4 {
                    0 | 3 => {
                        let did = client
                            .run(|tx| async move { insert(&tx, &t, key, key).await })
                            .await;
                        assert_eq!(did, oracle.insert(key), "step {step} insert {key}");
                    }
                    1 => {
                        let did = client
                            .run(|tx| async move { remove(&tx, &t, key).await })
                            .await;
                        assert_eq!(did, oracle.remove(&key), "step {step} remove {key}");
                    }
                    _ => {
                        let has = client
                            .run(|tx| async move { contains(&tx, &t, key).await })
                            .await;
                        assert_eq!(has, oracle.contains(&key), "step {step} contains {key}");
                    }
                }
            }
            let keys = client
                .run(|tx| async move { validate(&tx, &t).await })
                .await;
            assert_eq!(keys, oracle.iter().copied().collect::<Vec<_>>());
        });
        c.sim().run();
    }

    #[test]
    fn tombstone_revival_counts_as_insert() {
        let (c, t) = setup(8);
        let client = c.client(NodeId(5));
        c.sim().spawn(async move {
            client
                .run(|tx| async move {
                    assert!(insert(&tx, &t, 3, 1).await?);
                    assert!(remove(&tx, &t, 3).await?);
                    assert!(!contains(&tx, &t, 3).await?);
                    assert!(insert(&tx, &t, 3, 2).await?, "revival");
                    assert!(contains(&tx, &t, 3).await?);
                    Ok(())
                })
                .await;
        });
        c.sim().run();
    }
}
