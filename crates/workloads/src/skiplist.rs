//! Skiplist (SList) micro-benchmark — the workload where the paper saw the
//! largest closed-nesting speedup (101%): long traversals build large
//! read-sets, so a late conflict is expensive under flat nesting and cheap
//! under partial abort.
//!
//! Node objects are preallocated one per key (the node's tower height is a
//! deterministic function of the key, so the object graph is reproducible);
//! insert/remove link and unlink them transactionally.

use qrdtm_core::{Abort, ObjVal, ObjectId, SkipNode, Tx};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::hashmap::mix;

/// Object layout of a skiplist instance.
#[derive(Clone, Copy, Debug)]
pub struct SkiplistLayout {
    /// Head object id; key nodes follow at `base + 1 + key`.
    pub base: u64,
    /// Keys range over `0..key_space`.
    pub key_space: i64,
    /// Number of levels in the head tower.
    pub levels: usize,
}

impl SkiplistLayout {
    /// A layout with tower heights suited to `key_space`.
    pub fn new(base: u64, key_space: i64) -> Self {
        // ~log2(n) levels keeps expected search paths at O(log n) reads;
        // each remote read is a full quorum round trip, so path length is
        // the dominant cost of every operation.
        let levels = 64 - (key_space.max(2) as u64).leading_zeros() as usize;
        SkiplistLayout {
            base,
            key_space,
            levels: levels.clamp(2, 10),
        }
    }

    /// The head sentinel object.
    pub fn head(&self) -> ObjectId {
        ObjectId(self.base)
    }

    /// The preallocated node object for `key`.
    pub fn node(&self, key: i64) -> ObjectId {
        debug_assert!((0..self.key_space).contains(&key));
        ObjectId(self.base + 1 + key as u64)
    }

    /// Deterministic tower height for `key`: geometric(1/2), capped.
    pub fn height_of(&self, key: i64) -> usize {
        let h = 1 + (mix(key as u64) | 1 << (self.levels - 1)).trailing_zeros() as usize;
        h.min(self.levels)
    }

    /// Objects to preload: the head plus one detached node per key.
    pub fn setup(&self) -> Vec<(ObjectId, ObjVal)> {
        let mut objs = vec![(
            self.head(),
            ObjVal::SkipNode(SkipNode {
                key: i64::MIN,
                val: 0,
                nexts: vec![None; self.levels].into(),
            }),
        )];
        for k in 0..self.key_space {
            objs.push((
                self.node(k),
                ObjVal::SkipNode(SkipNode {
                    key: k,
                    val: 0,
                    nexts: vec![None; self.height_of(k)].into(),
                }),
            ));
        }
        objs
    }
}

/// Find the predecessor of `key` at every level. Returns
/// `(pred_oid, pred_snapshot)` per level, bottom first.
///
/// Carries a *zombie guard*: under flat QR a transaction may observe a
/// torn snapshot (reads are only validated at commit), and a traversal
/// over one can cycle through cached nodes forever. No consistent list of
/// `key_space` nodes needs more hops than `key_space + levels`, so
/// exceeding that proves the snapshot torn and aborts the scope (see
/// [`Tx::abort_here`]).
async fn find_preds(
    tx: &Tx,
    sl: &SkiplistLayout,
    key: i64,
) -> Result<Vec<(ObjectId, SkipNode)>, Abort> {
    let mut preds = vec![(sl.head(), tx.read(sl.head()).await?.expect_skip().clone()); sl.levels];
    let max_hops = 2 * (sl.key_space as usize + sl.levels + 4);
    let mut hops = 0usize;
    let (mut cur_oid, mut cur) = preds[0].clone();
    for lvl in (0..sl.levels).rev() {
        loop {
            let next_oid = if lvl < cur.nexts.len() {
                cur.nexts[lvl]
            } else {
                None
            };
            match next_oid {
                Some(noid) => {
                    let nxt = tx.read(noid).await?.expect_skip().clone();
                    if nxt.key < key {
                        hops += 1;
                        if hops > max_hops {
                            return Err(tx.abort_here());
                        }
                        cur_oid = noid;
                        cur = nxt;
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        preds[lvl] = (cur_oid, cur.clone());
    }
    Ok(preds)
}

/// Insert `key` with payload `val`; returns true if it was absent.
pub async fn insert(tx: &Tx, sl: &SkiplistLayout, key: i64, val: i64) -> Result<bool, Abort> {
    let node_oid = sl.node(key);
    let preds = find_preds(tx, sl, key).await?;
    let present = preds[0].1.nexts[0] == Some(node_oid);
    if present {
        let mut n = tx.read(node_oid).await?.expect_skip().clone();
        n.val = val;
        tx.write(node_oid, ObjVal::SkipNode(n)).await?;
        return Ok(false);
    }
    let height = sl.height_of(key);
    // Link the node's tower to its successors, then splice the
    // predecessors. The same predecessor object may cover several levels, so
    // accumulate mutations before writing.
    let nexts = (0..height)
        .map(|lvl| preds[lvl].1.nexts.get(lvl).copied().flatten())
        .collect();
    tx.write(node_oid, ObjVal::SkipNode(SkipNode { key, val, nexts }))
        .await?;
    let mut pending: BTreeMap<ObjectId, SkipNode> = BTreeMap::new();
    for (lvl, (poid, psnap)) in preds.iter().enumerate().take(height) {
        let p = pending.entry(*poid).or_insert_with(|| psnap.clone());
        Arc::make_mut(&mut p.nexts)[lvl] = Some(node_oid);
    }
    for (oid, n) in pending {
        tx.write(oid, ObjVal::SkipNode(n)).await?;
    }
    Ok(true)
}

/// Remove `key`; returns true if it was present.
pub async fn remove(tx: &Tx, sl: &SkiplistLayout, key: i64) -> Result<bool, Abort> {
    let node_oid = sl.node(key);
    let preds = find_preds(tx, sl, key).await?;
    if preds[0].1.nexts[0] != Some(node_oid) {
        return Ok(false);
    }
    let node = tx.read(node_oid).await?.expect_skip().clone();
    let mut pending: BTreeMap<ObjectId, SkipNode> = BTreeMap::new();
    for (lvl, (poid, psnap)) in preds.iter().enumerate().take(node.nexts.len()) {
        // Only splice levels where the predecessor actually points at us
        // (it always does when present, by the tower construction).
        let p = pending.entry(*poid).or_insert_with(|| psnap.clone());
        if p.nexts.get(lvl).copied().flatten() == Some(node_oid) {
            Arc::make_mut(&mut p.nexts)[lvl] = node.nexts[lvl];
        }
    }
    for (oid, n) in pending {
        tx.write(oid, ObjVal::SkipNode(n)).await?;
    }
    Ok(true)
}

/// Membership test (read-only traversal).
pub async fn contains(tx: &Tx, sl: &SkiplistLayout, key: i64) -> Result<bool, Abort> {
    let preds = find_preds(tx, sl, key).await?;
    Ok(preds[0].1.nexts[0] == Some(sl.node(key)))
}

/// The keys currently in the list, bottom-level order (for invariants).
pub async fn collect_keys(tx: &Tx, sl: &SkiplistLayout) -> Result<Vec<i64>, Abort> {
    let mut out = Vec::new();
    let mut cur = tx.read(sl.head()).await?.expect_skip().clone();
    while let Some(noid) = cur.nexts[0] {
        if out.len() > sl.key_space as usize {
            return Err(tx.abort_here()); // torn snapshot (zombie guard)
        }
        cur = tx.read(noid).await?.expect_skip().clone();
        out.push(cur.key);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::NodeId;

    fn setup(keys: i64) -> (Cluster, SkiplistLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let sl = SkiplistLayout::new(0, keys);
        c.preload_all(sl.setup());
        (c, sl)
    }

    #[test]
    fn towers_are_deterministic_and_capped() {
        let sl = SkiplistLayout::new(0, 64);
        for k in 0..64 {
            let h = sl.height_of(k);
            assert!(h >= 1 && h <= sl.levels);
            assert_eq!(h, sl.height_of(k));
        }
        // Roughly half the towers are height 1.
        let ones = (0..64).filter(|&k| sl.height_of(k) == 1).count();
        assert!(ones > 16, "{ones}");
    }

    #[test]
    fn insert_remove_contains_round_trip() {
        let (c, sl) = setup(16);
        c.sim().spawn({
            let client = c.client(NodeId(3));
            async move {
                client
                    .run(|tx| async move {
                        assert!(insert(&tx, &sl, 5, 50).await?);
                        assert!(!insert(&tx, &sl, 5, 55).await?, "duplicate");
                        assert!(contains(&tx, &sl, 5).await?);
                        assert!(!contains(&tx, &sl, 6).await?);
                        assert!(remove(&tx, &sl, 5).await?);
                        assert!(!remove(&tx, &sl, 5).await?);
                        assert!(!contains(&tx, &sl, 5).await?);
                        Ok(())
                    })
                    .await;
            }
        });
        c.sim().run();
    }

    #[test]
    fn matches_btreeset_oracle_with_sorted_chain() {
        let (c, sl) = setup(32);
        let client = c.client(NodeId(4));
        c.sim().spawn(async move {
            let mut oracle = std::collections::BTreeSet::new();
            for step in 0..200u64 {
                let key = (mix(step) % 32) as i64;
                match step % 3 {
                    0 => {
                        let did = client
                            .run(|tx| async move { insert(&tx, &sl, key, key * 10).await })
                            .await;
                        assert_eq!(did, oracle.insert(key), "step {step}");
                    }
                    1 => {
                        let did = client
                            .run(|tx| async move { remove(&tx, &sl, key).await })
                            .await;
                        assert_eq!(did, oracle.remove(&key), "step {step}");
                    }
                    _ => {
                        let has = client
                            .run(|tx| async move { contains(&tx, &sl, key).await })
                            .await;
                        assert_eq!(has, oracle.contains(&key), "step {step}");
                    }
                }
            }
            let keys = client
                .run(|tx| async move { collect_keys(&tx, &sl).await })
                .await;
            let expect: Vec<i64> = oracle.iter().copied().collect();
            assert_eq!(keys, expect, "bottom chain is the sorted key set");
        });
        c.sim().run();
    }
}
