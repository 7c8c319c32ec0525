//! Flat memory at steady state: with history recording off, the bytes a
//! running cluster holds after `4 N` commits are at most 1.25x those it
//! held after `N`, for every protocol family. Whatever a family keeps per
//! commit — a decision log, an outcome index, a dedup set — needs a
//! horizon past which it is forgotten.
//!
//! The file is its own test binary because it installs the counting
//! allocator of `tests/support/counting_alloc.rs`. No wall clock is read:
//! live bytes are a function of the seed.

use std::rc::Rc;

use qr_dtm::baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qr_dtm::core::{Cluster, DtmConfig, NestingMode, ObjVal, ObjectId, SimHosted, Tx};
use qr_dtm::qstore::{QStoreCluster, QStoreConfig};
use qr_dtm::sim::{NodeId, SimDuration};
use qr_dtm::workloads::protocol_bank::transfer;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::live_bytes;

const NODES: u32 = 10;
const ACCOUNTS: u64 = 8;
/// Commits at the first sample; the second is at `4 N`.
const N: u64 = 500;
const GROWTH: f64 = 1.25;

/// Pump `p` to `N` and then `4 N` commits, and require the live bytes
/// above `base` at the second sample to be at most [`GROWTH`] times those
/// at the first.
fn gate<P: SimHosted>(name: &str, p: &P, base: i64, commits: impl Fn() -> u64) {
    let [at_n, at_4n] = [N, 4 * N].map(|target| {
        while commits() < target {
            p.sim().run_for(SimDuration::from_millis(50));
        }
        live_bytes() - base
    });
    let growth = at_4n as f64 / at_n as f64;
    assert!(
        growth <= GROWTH,
        "{name}: {at_n} B live after {N} commits, {at_4n} B after {}: x{growth:.2}",
        4 * N
    );
}

async fn move_one(tx: Tx, from: ObjectId, to: ObjectId) -> Result<(), qr_dtm::core::Abort> {
    let a = tx.read(from).await?.expect_int();
    let b = tx.read(to).await?.expect_int();
    tx.write(from, ObjVal::Int(a - 1)).await?;
    tx.write(to, ObjVal::Int(b + 1)).await
}

/// One endless client per node, each transfer in a closed-nested scope
/// (inline under flat and checkpointing).
fn qr(mode: NestingMode) {
    let base = live_bytes();
    let c = Rc::new(Cluster::new(DtmConfig {
        nodes: NODES as usize,
        mode,
        ..Default::default()
    }));
    c.preload_all((0..ACCOUNTS).map(|i| (ObjectId(i), ObjVal::Int(100))));
    for node in 0..NODES {
        let client = c.client(NodeId(node));
        c.sim().spawn(async move {
            for k in u64::from(node).. {
                let (from, to) = (ObjectId(k % ACCOUNTS), ObjectId((k + 3) % ACCOUNTS));
                client
                    .run(|tx| async move { tx.closed(|t| move_one(t, from, to)).await })
                    .await;
            }
        });
    }
    gate(&format!("QR {mode}"), &*c, base, || c.stats().commits);
}

/// One endless bank client per node, driven through `DtmProtocol`.
fn protocol<P: SimHosted + 'static>(base: i64, p: Rc<P>) {
    for i in 0..ACCOUNTS {
        p.preload(ObjectId(i), ObjVal::Int(100));
    }
    for node in 0..NODES {
        let p2 = Rc::clone(&p);
        p.sim().spawn(async move {
            for k in u64::from(node).. {
                let (from, to) = (ObjectId(k % ACCOUNTS), ObjectId((k + 3) % ACCOUNTS));
                transfer(&*p2, NodeId(node), from, to, 1).await;
            }
        });
    }
    gate(p.protocol_name(), &*p, base, || p.protocol_stats().commits);
}

#[test]
fn qr_memory_is_flat_at_steady_state() {
    for mode in NestingMode::ALL {
        qr(mode);
    }
}

/// Decent-STM's jittered retry sleeps land in every one of the timing
/// wheel's buckets, and a bucket's buffer is trimmed to about its last page
/// rather than kept at its fullest; its per-object history is capped.
#[test]
fn the_baselines_memory_is_flat_at_steady_state() {
    let base = live_bytes();
    let tfa = TfaCluster::new(TfaConfig {
        nodes: NODES as usize,
        ..Default::default()
    });
    protocol(base, Rc::new(tfa));
    let base = live_bytes();
    let decent = DecentCluster::new(DecentConfig {
        nodes: NODES as usize,
        ..Default::default()
    });
    protocol(base, Rc::new(decent));
}

/// Q-Store's decision history — replica logs, the planner's outcome
/// index, the dedup sets, the tag-to-version table — stops at the
/// client-ack horizon. Cost-modelled: with a WAL, each fsync's latency is
/// kept as a sample for the benchmark's percentiles, 8 B per replica per
/// batch that no horizon covers.
#[test]
fn q_store_memory_is_flat_at_steady_state() {
    let base = live_bytes();
    let c = QStoreCluster::new(QStoreConfig {
        nodes: NODES as usize,
        ..Default::default()
    });
    protocol(base, Rc::new(c));
}
