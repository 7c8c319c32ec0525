//! Wall-timed probes: each calls one layer's public functions directly, in
//! a tight loop, so a traced run can say what a single operation of that
//! layer costs on this host. They run only in traced runs and never touch
//! a workload's cluster.

use std::hint::black_box;
use std::time::Instant;

use qrdtm_core::{
    DtmProtocol, NodeStore, ObjVal, ObjectId, TxId, ValEntry, ValidationKind, Version,
};
use qrdtm_par::{block_on, ParBackend};
use qrdtm_quorum::{Tree, TreeQuorum};
use qrdtm_sim::{Disk, DiskConfig, NodeId, SimDuration, SimTime, TimingWheel};
use rand::RngExt;

use crate::harness::{self, Layers};
use crate::stats::median;

/// Batches per probe; the median batch's ns per call is reported (the
/// median shrugs off a batch that lost its core).
const BATCHES: usize = 5;

/// Time [`BATCHES`] runs of `iters` calls of `op`.
fn per_call_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    median(
        (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    op(i);
                    i += 1;
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// One pop plus one push on a timing wheel that always holds
/// `outstanding` events spread like `hot_ring`'s (5 ms ± 40 % ahead).
fn wheel_push_pop_ns(seed: u64, outstanding: u64, iters: u64) -> f64 {
    let mut r = harness::stream(seed, 0x3EE1);
    let mut hop = move || SimDuration::from_nanos(r.random_range(3_000_000..7_000_000u64));
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for _ in 0..outstanding {
        wheel.push(SimTime::ZERO + hop(), seq, seq);
        seq += 1;
    }
    per_call_ns(iters, |_| {
        let (t, _, payload) = wheel.pop().expect("wheel never drains");
        wheel.push(t + hop(), seq, black_box(payload));
        seq += 1;
    })
}

/// One log append plus its share of a group-commit fsync (every fourth
/// append, the default `fsync_every`) on the simulated disk.
fn disk_append_fsync_ns(iters: u64) -> f64 {
    let mut disk: Disk<u64, u64> = Disk::new(DiskConfig::default());
    per_call_ns(iters, |i| {
        black_box(disk.append(i));
        if i % 4 == 3 {
            black_box(disk.fsync());
        }
        if i % 4096 == 4095 {
            // Snapshots truncate the log, as the WALs above the disk do.
            black_box(disk.snapshot(i));
        }
    })
}

/// A replica store of 1024 integer objects, as a probe target.
fn store() -> NodeStore {
    let mut s = NodeStore::new();
    for i in 0..1024 {
        s.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    s
}

fn entries(n: u64) -> Vec<ValEntry> {
    (0..n)
        .map(|i| ValEntry {
            oid: ObjectId(i * 7 % 1024),
            version: Version::INITIAL,
            owner_level: 0,
            owner_chk: 0,
        })
        .collect()
}

/// Run every probe into `layers`. Like the workloads, the probes are sized
/// by `seconds`: at the default 8 they take about one second in all.
pub fn run(seed: u64, seconds: f64, layers: &mut Layers) {
    let scaled = |iters: f64| ((iters * seconds / 8.0) as u64).max(100);
    let (long, mid, short) = (scaled(200_000.0), scaled(100_000.0), scaled(50_000.0));
    layers.insert(
        "sim.wheel.push_pop_ns",
        wheel_push_pop_ns(seed, 300_000, long),
    );
    layers.insert("sim.disk.append_fsync_ns", disk_append_fsync_ns(long));

    // The paper testbed's quorum system: 40 nodes, ternary tree, level 1.
    let tq = TreeQuorum::new(Tree::ternary(40));
    layers.insert(
        "quorum.read_quorum_ns",
        per_call_ns(mid, |_| {
            black_box(tq.read_quorum_at_level(black_box(1)).expect("all alive"));
        }),
    );
    layers.insert(
        "quorum.write_quorum_ns",
        per_call_ns(mid, |_| {
            black_box(tq.write_quorum().expect("all alive"));
        }),
    );

    let root = TxId { node: 1, seq: 1 };
    let mut s = store();
    for (name, n) in [
        ("core.store.validate_ns_8", 8),
        ("core.store.validate_ns_64", 64),
    ] {
        let set = entries(n);
        layers.insert(
            name,
            per_call_ns(short, |_| {
                black_box(s.validate(root, black_box(&set), ValidationKind::Closed));
            }),
        );
    }
    let set = entries(8);
    layers.insert(
        "core.store.read_ns",
        per_call_ns(short, |i| {
            let oid = ObjectId(i % 1024);
            black_box(s.read(root, 0, 0, oid, false, &set, ValidationKind::Closed));
        }),
    );
    // One two-object commit at a replica: vote (validate + lock) then
    // apply (install + unlock), as 2PC drives it.
    let mut versions = vec![Version::INITIAL; 1024];
    layers.insert(
        "core.store.vote_apply_ns",
        per_call_ns(short, |i| {
            let tx = TxId {
                node: 2,
                seq: i + 1,
            };
            let (a, b) = ((i % 1024) as usize, ((i + 511) % 1024) as usize);
            let writes = [
                (ObjectId(a as u64), versions[a]),
                (ObjectId(b as u64), versions[b]),
            ];
            assert!(s.vote(tx, &[], &writes), "uncontended vote succeeds");
            versions[a] = versions[a].next();
            versions[b] = versions[b].next();
            s.apply(
                tx,
                &[
                    (writes[0].0, versions[a], ObjVal::Int(i as i64)),
                    (writes[1].0, versions[b], ObjVal::Int(i as i64)),
                ],
            );
        }),
    );

    // One uncontended read-read-write-write-commit on the threaded
    // backend, from a single thread.
    let backend = ParBackend::new();
    let stm = backend.stm();
    for i in 0..32 {
        stm.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    layers.insert(
        "par.txn_uncontended_ns",
        per_call_ns(short, |i| {
            let (a, b) = (ObjectId(i % 32), ObjectId((i + 1) % 32));
            block_on(async {
                let mut h = stm.begin(NodeId(0));
                let va = stm.read(&mut h, a).await.expect("no conflict").expect_int();
                let vb = stm.read(&mut h, b).await.expect("no conflict").expect_int();
                stm.write(&mut h, a, ObjVal::Int(va - 1))
                    .await
                    .expect("no conflict");
                stm.write(&mut h, b, ObjVal::Int(vb + 1))
                    .await
                    .expect("no conflict");
                stm.commit(&mut h).await.expect("no conflict");
            });
        }),
    );
    drop(stm);
    drop(backend.finish());
}
