//! Distributed Hashmap micro-benchmark.
//!
//! A fixed array of bucket objects, each holding a sorted key list. With
//! the bucket count fixed, growing the key space grows the per-bucket lists
//! and therefore the contention — matching the paper's observation that
//! contention *increases* with the number of objects for Hashmap.
//!
//! Each `put`/`get`/`remove` is one closed-nested transaction under QR-CN;
//! a root transaction strings `calls` of them together.

use qrdtm_core::{Abort, ObjVal, ObjectId, Tx};

/// Object layout of a hashmap instance.
#[derive(Clone, Copy, Debug)]
pub struct HashmapLayout {
    /// First bucket object id.
    pub base: u64,
    /// Number of bucket objects (fixed; default 8 like a small table under
    /// churn).
    pub buckets: u64,
}

impl HashmapLayout {
    /// The bucket object that owns `key`.
    pub fn bucket(&self, key: i64) -> ObjectId {
        ObjectId(self.base + mix(key as u64) % self.buckets)
    }

    /// Objects to preload: empty buckets.
    pub fn setup(&self) -> Vec<(ObjectId, ObjVal)> {
        (0..self.buckets)
            .map(|b| (ObjectId(self.base + b), ObjVal::IntList([].into())))
            .collect()
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed stateless hash.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Insert `key`; returns true if it was absent.
pub async fn put(tx: &Tx, map: &HashmapLayout, key: i64) -> Result<bool, Abort> {
    let oid = map.bucket(key);
    let val = tx.read(oid).await?;
    let list = val.expect_list();
    match list.binary_search(&key) {
        Ok(_) => Ok(false),
        Err(pos) => {
            let (lo, hi) = list.split_at(pos);
            let list = lo.iter().chain(std::iter::once(&key)).chain(hi).copied();
            tx.write(oid, ObjVal::IntList(list.collect())).await?;
            Ok(true)
        }
    }
}

/// Membership test (read-only).
pub async fn get(tx: &Tx, map: &HashmapLayout, key: i64) -> Result<bool, Abort> {
    let oid = map.bucket(key);
    Ok(tx
        .read(oid)
        .await?
        .expect_list()
        .binary_search(&key)
        .is_ok())
}

/// Remove `key`; returns true if it was present.
pub async fn remove(tx: &Tx, map: &HashmapLayout, key: i64) -> Result<bool, Abort> {
    let oid = map.bucket(key);
    let val = tx.read(oid).await?;
    let list = val.expect_list();
    match list.binary_search(&key) {
        Ok(pos) => {
            let list = list[..pos].iter().chain(&list[pos + 1..]).copied();
            tx.write(oid, ObjVal::IntList(list.collect())).await?;
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// Number of keys stored (reads every bucket).
pub async fn size(tx: &Tx, map: &HashmapLayout) -> Result<usize, Abort> {
    let mut n = 0;
    for b in 0..map.buckets {
        n += tx.read(ObjectId(map.base + b)).await?.expect_list().len();
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{Cluster, DtmConfig, NestingMode};
    use qrdtm_sim::NodeId;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup() -> (Cluster, HashmapLayout) {
        let c = Cluster::new(DtmConfig {
            mode: NestingMode::Closed,
            ..Default::default()
        });
        let map = HashmapLayout {
            base: 0,
            buckets: 4,
        };
        c.preload_all(map.setup());
        (c, map)
    }

    #[test]
    fn put_get_remove_round_trip() {
        let (c, map) = setup();
        let client = c.client(NodeId(3));
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        c.sim().spawn(async move {
            let r = client
                .run(|tx| async move {
                    let mut v = Vec::new();
                    v.push(put(&tx, &map, 7).await?);
                    v.push(put(&tx, &map, 7).await?);
                    v.push(get(&tx, &map, 7).await?);
                    v.push(remove(&tx, &map, 7).await?);
                    v.push(get(&tx, &map, 7).await?);
                    v.push(remove(&tx, &map, 7).await?);
                    Ok(v)
                })
                .await;
            *out2.borrow_mut() = r;
        });
        c.sim().run();
        assert_eq!(*out.borrow(), vec![true, false, true, true, false, false]);
    }

    #[test]
    fn matches_std_hashset_oracle() {
        let (c, map) = setup();
        let client = c.client(NodeId(4));
        let sim = c.sim().clone();
        sim.spawn(async move {
            let mut oracle = std::collections::BTreeSet::new();
            // Deterministic op sequence over a small key space.
            for step in 0..120i64 {
                let key = mix(step as u64) as i64 % 16;
                let op = step % 3;
                let (did, expect) = match op {
                    0 => (
                        client
                            .run(|tx| async move { put(&tx, &map, key).await })
                            .await,
                        oracle.insert(key),
                    ),
                    1 => (
                        client
                            .run(|tx| async move { remove(&tx, &map, key).await })
                            .await,
                        oracle.remove(&key),
                    ),
                    _ => (
                        client
                            .run(|tx| async move { get(&tx, &map, key).await })
                            .await,
                        oracle.contains(&key),
                    ),
                };
                assert_eq!(did, expect, "step {step} key {key} op {op}");
            }
            let n = client.run(|tx| async move { size(&tx, &map).await }).await;
            assert_eq!(n, oracle.len());
        });
        c.sim().run();
    }

    #[test]
    fn keys_spread_across_buckets() {
        let map = HashmapLayout {
            base: 0,
            buckets: 8,
        };
        let mut seen = std::collections::HashSet::new();
        for k in 0..64 {
            seen.insert(map.bucket(k));
        }
        assert!(seen.len() >= 6, "mix() spreads keys: {}", seen.len());
    }
}
