//! The tree benchmarks: the red-black tree (RBTree, Figs. 5-7) and, as
//! the same tree without its fixup, the plain binary search tree (BST,
//! Fig. 10; [`crate::bst`] holds its insert).
//!
//! One preallocated object per key plus a root pointer object
//! ([`TreeLayout`]); removal is by tombstone (`val = TOMBSTONE`) rather
//! than structural deletion, which leaves the read/write-set shapes the
//! benchmarks measure unchanged (see DESIGN.md "Substitutions"). Every
//! operation descends through `find`, and both inserts link through
//! `place`. The red-black insert then runs the full CLRS recolor/rotation
//! fixup up its root path — the writes it spreads along that path are what
//! gives RBTree its contention profile in the paper; BST's insert skips it,
//! so its hot spot is the nodes near the root. Each mirrored step is
//! written once over `link`, a node's left or right link: one `rotate`,
//! one fixup arm for either side of the grandparent, and the link writes
//! of `place` and `set_child`.

use qrdtm_core::{Abort, ObjVal, ObjectId, TreeNode, Tx};

use crate::zombie_guard;

/// Marker payload for logically deleted keys.
pub const TOMBSTONE: i64 = i64::MIN;

/// Object layout of a tree instance, red-black or BST.
#[derive(Clone, Copy, Debug)]
pub struct TreeLayout {
    /// Root-pointer object id; key nodes follow at `base + 1 + key`.
    pub base: u64,
    /// Keys range over `0..key_space`.
    pub key_space: i64,
}

impl TreeLayout {
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

/// `n`'s right link if `right`, else its left one.
fn link(n: &mut TreeNode, right: bool) -> &mut Option<ObjectId> {
    if right {
        &mut n.right
    } else {
        &mut n.left
    }
}

/// Where a [`find`] descent ended.
enum Found {
    /// `key` is linked: its node's id and contents.
    Linked(ObjectId, TreeNode),
    /// `key` is not linked; it would hang below this node (`None`: the
    /// tree is empty).
    Absent(Option<ObjectId>),
}

/// The one descent: from the root pointer towards `key`, under the zombie
/// guard (hops count from 1; hop `key_space + 3` aborts), pushing each
/// node passed onto `path` when one is kept.
async fn find(
    tx: &Tx,
    t: &TreeLayout,
    key: i64,
    mut path: Option<&mut Vec<ObjectId>>,
) -> Result<Found, Abort> {
    let mut cur = tx.read(t.root_ptr()).await?.expect_ptr();
    let mut parent = None;
    let mut hops = 0usize;
    while let Some(oid) = cur {
        hops += 1;
        zombie_guard(tx, hops, t.key_space as usize + 2)?;
        let n = get_node(tx, oid).await?;
        if key == n.key {
            return Ok(Found::Linked(oid, n));
        }
        if let Some(path) = path.as_deref_mut() {
            path.push(oid);
        }
        parent = Some(oid);
        cur = if key < n.key { n.left } else { n.right };
    }
    Ok(Found::Absent(parent))
}

/// The insert step both trees share: give a linked `key` the payload `val`
/// and return whether it was a tombstone, or link its node as a new leaf
/// (red if `red` and it has a parent: roots are black) and return `None`.
pub(crate) async fn place(
    tx: &Tx,
    t: &TreeLayout,
    key: i64,
    val: i64,
    red: bool,
    path: Option<&mut Vec<ObjectId>>,
) -> Result<Option<bool>, Abort> {
    let parent = match find(tx, t, key, path).await? {
        Found::Linked(oid, mut n) => {
            let was_tomb = n.val == TOMBSTONE;
            n.val = val;
            put_node(tx, oid, n).await?;
            return Ok(Some(was_tomb));
        }
        Found::Absent(parent) => parent,
    };
    let z = t.node(key);
    let leaf = TreeNode {
        key,
        val,
        left: None,
        right: None,
        red: red && parent.is_some(),
    };
    put_node(tx, z, leaf).await?;
    match parent {
        None => tx.write(t.root_ptr(), ObjVal::Ptr(Some(z))).await?,
        Some(p_oid) => {
            let mut p = get_node(tx, p_oid).await?;
            let right = key > p.key;
            *link(&mut p, right) = Some(z);
            put_node(tx, p_oid, p).await?;
        }
    }
    Ok(None)
}

/// Point `parent`'s link that used to address `from` at `to`; `parent =
/// None` means the root pointer.
async fn set_child(
    tx: &Tx,
    t: &TreeLayout,
    parent: Option<ObjectId>,
    from: ObjectId,
    to: Option<ObjectId>,
) -> Result<(), Abort> {
    match parent {
        None => tx.write(t.root_ptr(), ObjVal::Ptr(to)).await,
        Some(p_oid) => {
            let mut p = get_node(tx, p_oid).await?;
            let right = p.left != Some(from);
            debug_assert!(!right || p.right == Some(from));
            *link(&mut p, right) = to;
            put_node(tx, p_oid, p).await
        }
    }
}

/// Rotate `x_oid` down to its `down` side (`true`: right), lifting its
/// child on the other side into its place under `parent` (`None`: the
/// root pointer).
async fn rotate(
    tx: &Tx,
    t: &TreeLayout,
    x_oid: ObjectId,
    parent: Option<ObjectId>,
    down: bool,
) -> Result<(), Abort> {
    let mut x = get_node(tx, x_oid).await?;
    let y_oid = link(&mut x, !down).expect("a rotation lifts an existing child");
    let mut y = get_node(tx, y_oid).await?;
    *link(&mut x, !down) = *link(&mut y, down);
    *link(&mut y, down) = Some(x_oid);
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

/// Insert `key` with payload `val` into the red-black tree; returns true
/// if the key was absent (including reviving a tombstone).
pub async fn insert(tx: &Tx, t: &TreeLayout, key: i64, val: i64) -> Result<bool, Abort> {
    let mut path = Vec::new();
    if let Some(was_tomb) = place(tx, t, key, val, true, Some(&mut path)).await? {
        return Ok(was_tomb);
    }
    if !path.is_empty() {
        fixup(tx, t, t.node(key), path).await?;
    }
    Ok(true)
}

/// CLRS insertion fixup driven by the recorded root path (`path.last()` is
/// `z`'s parent).
async fn fixup(
    tx: &Tx,
    t: &TreeLayout,
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
        let mut g = get_node(tx, g_oid).await?;
        let p_left = g.left == Some(p_oid);
        let u_oid = *link(&mut g, p_left);
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
        // Case 2: an inner child straightens into an outer one.
        let inner = *link(&mut get_node(tx, p_oid).await?, p_left) == Some(z);
        let top = if inner {
            rotate(tx, t, p_oid, Some(g_oid), !p_left).await?;
            z
        } else {
            p_oid
        };
        // Case 3: recolor and rotate the grandparent down, away from p.
        set_red(tx, top, false).await?;
        set_red(tx, g_oid, true).await?;
        rotate(tx, t, g_oid, ggp, p_left).await?;
        return Ok(());
    }
}

/// Logically remove `key`; returns true if it was present.
pub async fn remove(tx: &Tx, t: &TreeLayout, key: i64) -> Result<bool, Abort> {
    match find(tx, t, key, None).await? {
        Found::Linked(oid, mut n) if n.val != TOMBSTONE => {
            n.val = TOMBSTONE;
            put_node(tx, oid, n).await?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Membership test (read-only descent).
pub async fn contains(tx: &Tx, t: &TreeLayout, key: i64) -> Result<bool, Abort> {
    Ok(matches!(find(tx, t, key, None).await?, Found::Linked(_, n) if n.val != TOMBSTONE))
}

/// Walk the whole tree checking red-black invariants; returns the sorted
/// live (non-tombstone) keys. Panics on an invariant violation — this is a
/// test/verification helper.
pub async fn validate(tx: &Tx, t: &TreeLayout) -> Result<Vec<i64>, Abort> {
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

    /// Insert `keys` in order, one root each, into a fresh 32-key tree;
    /// check the tree and return what the inserts cost: reads, commit
    /// rounds, messages and bytes sent.
    fn insert_all(keys: Vec<i64>) -> [u64; 4] {
        let (c, t) = setup(32);
        let client = c.client(NodeId(3));
        c.sim().spawn(async move {
            for &k in &keys {
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
        let (s, m) = (c.stats(), c.sim().metrics());
        [
            s.read_rounds + s.local_hits,
            s.commit_rounds,
            m.sent_total,
            m.bytes_total,
        ]
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        // Sorted inserts are the classic worst case for an unbalanced
        // tree; the fixup must keep the black heights uniform. Descending
        // order mirrors ascending, so its rotations and recolors mirror
        // too and must cost exactly as much.
        let ascending = insert_all((0..32).collect());
        let descending = insert_all((0..32).rev().collect());
        assert_eq!(ascending, descending);
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
